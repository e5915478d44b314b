"""Central extensions, para-contact structures, and the para-Sasakian lift."""

from itertools import product

import pytest

from parakahler.catalog import builtin_catalog, load_catalog
from parakahler.contact import (
    CentralExtension,
    NonSymplecticError,
    almost_paracontact_residuals,
    build_paracontact,
    central_extend,
    check_compatible_metric,
    check_contact,
    metric_restriction_residuals,
    reeb_residuals,
    verify_lifted_curvature,
    verify_lifted_ricci,
)
from parakahler.curvature import RicciData, curvature_bundle
from parakahler.expressions import EXPR_ONE, EXPR_ZERO, ExprMatrix, expr
from parakahler.liealgebra import (
    LieAlgebra,
    ce_differential_1,
    is_symplectic,
    jacobi_check,
    pfaffian4,
)
from parakahler.sampling import DeterministicRng, sample_point
from parakahler.structures import Metric, metric_from

from conftest import make_algebra, make_form, relatives
from oracles import (
    agrees,
    eval_matrix,
    fraction_oracle,
    from_rows,
    gamma_table,
    riemann_table,
    riemann_with,
    structure_fractions,
)

STD_OMEGA = [(1, 2, 1), (3, 4, 1)]
RN4_J = from_rows(
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
)


def _extend(algebra, omega):
    return central_extend(algebra, omega, is_symplectic(algebra, omega))


def _basis(n, i):
    return [expr(1 if q == i else 0) for q in range(n)]


def test_extension_of_abelian_is_heisenberg(rn4):
    ext = _extend(rn4, make_form(4, STD_OMEGA))
    assert ext.extended.dim == 5
    # [e1, e2] = xi and [e3, e4] = xi; everything else vanishes
    assert ext.extended.bracket(_basis(5, 0), _basis(5, 1)) == tuple(_basis(5, 4))
    assert ext.extended.bracket(_basis(5, 2), _basis(5, 3)) == tuple(_basis(5, 4))
    assert all(v.is_zero for v in ext.extended.bracket(_basis(5, 0), _basis(5, 2)))
    assert jacobi_check(ext.extended).ok


def test_extension_of_heisenberg_brackets(rh3):
    ext = _extend(rh3, make_form(4, [(1, 4, 1), (2, 3, 1)]))
    assert ext.extended.bracket(_basis(5, 0), _basis(5, 1)) == tuple(_basis(5, 2))
    assert ext.extended.bracket(_basis(5, 0), _basis(5, 3)) == tuple(_basis(5, 4))
    assert ext.extended.bracket(_basis(5, 1), _basis(5, 2)) == tuple(_basis(5, 4))
    assert jacobi_check(ext.extended).ok


def test_d_eta_is_minus_omega(rn4):
    omega = make_form(4, STD_OMEGA)
    ext = _extend(rn4, omega)
    ps = build_paracontact(ext, RN4_J)
    for i in range(4):
        for j in range(4):
            assert (ps.extension.d_eta(i, j) + omega(i, j)).is_zero
        assert ps.extension.d_eta(i, 4).is_zero


def test_xi_central(rn4):
    ext = _extend(rn4, make_form(4, STD_OMEGA))
    xi = _basis(5, 4)
    for i in range(5):
        assert all(v.is_zero for v in ext.extended.bracket(xi, _basis(5, i)))


def test_non_symplectic_rejected(rn4):
    with pytest.raises(NonSymplecticError):
        _extend(rn4, make_form(4, [(1, 2, 1)]))


def test_non_closed_rejected(r2r2):
    # e1^e4 is not closed on r2r2, so the extension is no Lie algebra
    with pytest.raises(NonSymplecticError):
        _extend(r2r2, make_form(4, [(1, 4, 1)]))


def test_paracontact_block_structure(rn4):
    ext = _extend(rn4, make_form(4, STD_OMEGA))
    ps = build_paracontact(ext, RN4_J)
    # phi(xi) = 0 and the almost-paracontact identities hold
    assert all(ps.phi[i, 4].is_zero for i in range(5))
    assert all(r.is_zero for r in almost_paracontact_residuals(ps))
    assert all(r.is_zero for r in reeb_residuals(ext))
    # h restricted to the distribution equals g; h(xi, xi) = 1
    g = metric_from(ext.omega, RN4_J)
    assert metric_restriction_residuals(ps, g).is_zero
    assert ps.h(4, 4) == EXPR_ONE
    assert ps.phi_vs_deta == "equal"


def test_contact_condition_pass_and_fail(rn4):
    good = _extend(rn4, make_form(4, STD_OMEGA))
    report = check_contact(good)
    assert report.ok
    assert report.coefficient == expr(2)  # 2 * pfaffian(omega)
    # e1^e2 is closed but degenerate: central_extend refuses it, so the
    # extension [e1, e2] = xi is built by hand
    extended = LieAlgebra.from_brackets("rn4^ext", 5, [(1, 2, 5, expr(1))], rn4.params)
    eta = ExprMatrix([_basis(5, 4)])
    degenerate = CentralExtension(
        base=rn4,
        omega=make_form(4, [(1, 2, 1)]),
        extended=extended,
        eta=eta,
        d_eta=ce_differential_1(extended, eta.entries[0]),
        eta_eta=eta.transpose() @ eta,
    )
    assert not check_contact(degenerate).ok


def test_contact_coefficient_tracks_pfaffian(rh3):
    # in dim 4 the coefficient is 2 * pfaffian(omega) since Pf(-A) = Pf(A)
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    ext = _extend(rh3, omega)
    assert check_contact(ext).coefficient == expr(2) * pfaffian4(omega)
    r2r2 = make_algebra("r2r2")
    omega_lam = make_form(4, [(1, 2, 1), (1, 3, "lam"), (3, 4, 1)])
    ext2 = _extend(r2r2, omega_lam)
    assert check_contact(ext2).coefficient == expr(2) * pfaffian4(omega_lam)


def test_compatible_metric_identity_and_failure(rn4):
    ext = _extend(rn4, make_form(4, STD_OMEGA))
    ps = build_paracontact(ext, RN4_J)
    assert check_compatible_metric(ps).is_zero
    # eta(X) = h(xi, X) for all basis X
    for i in range(5):
        assert (ps.h(4, i) - ps.extension.eta[0, i]).is_zero
    h = Metric(ExprMatrix.identity(5))
    broken = ps._replace(h=h, fundamental=ps.phi.transpose() @ h.matrix)
    assert not check_compatible_metric(broken).is_zero


def test_lifted_curvature_flat_base(rn4):
    omega = make_form(4, STD_OMEGA)
    ext = _extend(rn4, omega)
    ps = build_paracontact(ext, RN4_J)
    base = curvature_bundle(rn4, metric_from(omega, RN4_J))
    ext_bundle = curvature_bundle(ext.extended, ps.h)
    report = verify_lifted_curvature(ps, base, RN4_J, ext_bundle)
    assert report.ok, report.residuals
    report3 = verify_lifted_ricci(ps, base, ext_bundle)
    assert report3.ok, report3.residuals


def test_lifted_curvature_einstein_base(r2p):
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    j2 = from_rows(
        [
            ["-(a*b+c^2+2)/2", "-c", 0, "b"],
            [0, -1, 0, 0],
            ["-c*(a*b+c^2+4)/(2*b)", "a", 1, "c"],
            [
                "-(a^2*b^2+2*a*b*c^2+c^4+4*a*b+4*c^2)/(4*b)",
                "-c*(a*b+c^2+4)/(2*b)",
                0,
                "(a*b+c^2+2)/2",
            ],
        ]
    )
    ext = _extend(r2p, omega)
    ps = build_paracontact(ext, j2)
    base = curvature_bundle(r2p, metric_from(omega, j2))
    ext_bundle = curvature_bundle(ext.extended, ps.h)
    assert verify_lifted_curvature(ps, base, j2, ext_bundle).ok
    assert verify_lifted_ricci(ps, base, ext_bundle).ok


def test_lifted_ricci_einstein_shift_d4lam(d4lam):
    # Einstein base with Ric_g = -(3b/2) g lifts to Ric = (-3b/2 + 1/2) g on
    # the distribution, Ric(Y, xi) = 0, Ric(xi, xi) = -1.
    omega = make_form(4, [(1, 2, 1), (3, 4, -1)])
    j3 = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, "a", "-(a^2-1)/b"], [0, 0, "b", "-a"]]
    )
    g = metric_from(omega, j3)
    ext = _extend(d4lam, omega)
    ps = build_paracontact(ext, j3)
    ext_bundle = curvature_bundle(ext.extended, ps.h)
    ric5 = ext_bundle.ricci.ricci
    shift = expr("-3*b/2") + expr("1/2")
    for i in range(4):
        for j in range(4):
            assert (ric5[i, j] - shift * g(i, j)).is_zero
        assert ric5[i, 4].is_zero
    assert ric5[4, 4] == expr(-1)


def test_r_x_xi_xi_component(rn4):
    # R(X, xi) xi = -X/4 on every basis vector of the distribution
    omega = make_form(4, STD_OMEGA)
    ext = _extend(rn4, omega)
    ps = build_paracontact(ext, RN4_J)
    riem = riemann_table(curvature_bundle(ext.extended, ps.h).riemann)
    for i in range(4):
        for s in range(5):
            component = riem[i][4][4][s]
            expected = expr("-1/4") if s == i else EXPR_ZERO
            assert (component - expected).is_zero


def test_extension_jacobi_and_center_across_catalog():
    # every extension is a Lie algebra with xi in its center: ad_xi = 0
    catalog = builtin_catalog()
    seen = set()
    for entry in catalog.entries:
        key = (entry.algebra, entry.form)
        if key in seen:
            continue
        seen.add(key)
        ext = _extend(catalog.algebra_of(entry), catalog.form_of(entry))
        assert jacobi_check(ext.extended).ok, entry.entry_id
        xi = _basis(5, 4)
        for i in range(5):
            assert all(
                v.is_zero for v in ext.extended.bracket(xi, _basis(5, i))
            ), entry.entry_id


def test_variant_entries_verify():
    from parakahler.verify import RunConfig, verify_entry

    catalog = load_catalog(relatives())
    for entry_id in ("h4.omegam.J", "r2r2.lambda0.J24bc"):
        entry = next(e for e in catalog.entries if e.entry_id == entry_id)
        report = is_symplectic(catalog.algebra_of(entry), catalog.form_of(entry))
        finding, _ = verify_entry(catalog, entry, report, RunConfig(seed=0, samples=3))
        assert finding["status"] == "ok", (entry_id, finding["notes"])
        assert finding["label"]["match"]


def test_lift_identities_across_builtin_sample():
    catalog = builtin_catalog()
    sample_ids = {"rh3.omega.J1", "d42.omega3.J38", "r4m1.omega.J", "h4.omegap.J"}
    for entry in catalog.entries:
        if entry.entry_id not in sample_ids:
            continue
        algebra = catalog.algebra_of(entry)
        form = catalog.form_of(entry)
        ext = _extend(algebra, form)
        ps = build_paracontact(ext, entry.j_matrix)
        base = curvature_bundle(algebra, metric_from(form, entry.j_matrix))
        ext_bundle = curvature_bundle(ext.extended, ps.h)
        assert verify_lifted_curvature(ps, base, entry.j_matrix, ext_bundle).ok, entry.entry_id
        assert verify_lifted_ricci(ps, base, ext_bundle).ok, entry.entry_id
        assert ps.phi_vs_deta == "equal", entry.entry_id


def test_lifted_riemann_fill_agrees_with_the_oracle():
    # every component of each lift's 5D R^s_ijk, the j < i half filled by
    # negation, against the Fraction oracle at a point off the 5D denominators
    catalog = builtin_catalog()
    extensions = {}
    for entry in catalog.entries:
        algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
        key = (entry.algebra, entry.form)
        if key not in extensions:
            extensions[key] = _extend(algebra, form)
        ps = build_paracontact(extensions[key], entry.j_matrix)
        ext = ps.extension.extended
        bundle = curvature_bundle(ext, ps.h)
        riem = riemann_table(bundle.riemann)
        values = [x for m in (ps.h.matrix, bundle.metric_inverse) for r in m.entries for x in r]
        values += [x for plane in gamma_table(bundle.christoffel) for row in plane for x in row]
        values += [x for block in riem for plane in block for row in plane for x in row]
        avoid = list(ext.denominators()) + [v.den for v in values if not v.den.is_const]
        rng = DeterministicRng(len(entry.entry_id))
        point = sample_point(rng, catalog.domains_of(entry), avoid)
        h = eval_matrix(ps.h.matrix, point)
        c = structure_fractions(ext, point)
        oracle = fraction_oracle.curvature(
            c, fraction_oracle.christoffel(c, h, fraction_oracle.invert(h))
        )
        for i, j, k, s in product(range(5), repeat=4):
            assert agrees(point, riem[i][j][k][s], oracle[i][j][k][s]), (
                entry.entry_id, i, j, k, s
            )


FACTOR = expr("(a+2)/(a+1)")  # != 1: moves a value through its denominator
# != 1, with a non-monomial denominator; (a+b) - (a^2+b) = a(1-a) cancels
# the a in the denominator of R(1,4)4|1
NON_MONOMIAL = expr("(a+b)/(a^2+b)")
XI = 4


def _plus_one(value):
    return value + expr(1)


def _times_factor(value):
    return value * FACTOR


def _times_non_monomial(value):
    return value * NON_MONOMIAL


@pytest.fixture(scope="module")
def d42_lift():
    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == "d42.omega3.J38")
    algebra = catalog.algebra_of(entry)
    form = catalog.form_of(entry)
    ps = build_paracontact(_extend(algebra, form), entry.j_matrix)
    base = curvature_bundle(algebra, metric_from(form, entry.j_matrix))
    ext_bundle = curvature_bundle(ps.extension.extended, ps.h)
    return ps, base, entry.j_matrix, ext_bundle


def _with_riemann(bundle, changes):
    """``bundle`` with ``change(R^s_ijk)`` for each (i, j, k, s) in ``changes``,
    planted into the cleared tensor: R^s_jik changes with R^s_ijk."""
    return bundle._replace(riemann=riemann_with(bundle.riemann, changes))


def _with_ricci(bundle, changes):
    rows = [list(row) for row in bundle.ricci.ricci.entries]
    for (i, j), change in changes.items():
        rows[i][j] = change(rows[i][j])
    return bundle._replace(ricci=RicciData(ExprMatrix(rows), bundle.ricci.metric_inverse))


def _curvature_identities(*failed):
    names = ("base_formula", "r_xy_xi", "r_x_xi_z", "r_x_xi_xi")
    return {name: name not in failed for name in names}


def _ricci_identities(*failed):
    return {name: name not in failed for name in ("ric_base", "ric_y_xi", "ric_xi_xi")}


@pytest.mark.parametrize(
    "changes, failed, residuals",
    [
        # R(1,2)2|3 = 3a/2, nonzero, times the factor
        # R is held for i < j only, so R(2,1) = -R(1,2) changes with it and
        # shows the negated residual, after the components with i = 1
        (
            {(0, 1, 1, 2): _times_factor},
            ("base_formula",),
            (("R(1,2)2|3", "3/2*a/(a + 1)"), ("R(2,1)2|3", "-3/2*a/(a + 1)")),
        ),
        (
            {(0, 1, 2, XI): _plus_one},
            ("base_formula",),
            (("R(1,2)3|xi", "1"), ("R(2,1)3|xi", "-1")),
        ),
        # R(1,2)1|4 = 0, every index on the base
        (
            {(0, 1, 0, 3): _plus_one},
            ("base_formula",),
            (("R(1,2)1|4", "1"), ("R(2,1)1|4", "-1")),
        ),
        # R(1,4)4|1 = (a^3 - 8a^2 + 3ab/2 - 3b)/a
        (
            {(0, 3, 3, 0): _times_non_monomial},
            ("base_formula",),
            (
                (
                    "R(1,4)4|1",
                    "(-a^4 + 9*a^3 - 3/2*a^2*b - 8*a^2 + 9/2*a*b - 3*b)/(a^2 + b)",
                ),
                (
                    "R(4,1)4|1",
                    "(a^4 - 9*a^3 + 3/2*a^2*b + 8*a^2 - 9/2*a*b + 3*b)/(a^2 + b)",
                ),
            ),
        ),
        (
            {(0, 1, XI, 3): _plus_one},
            ("r_xy_xi",),
            (("R(1,2)xi|4", "1"), ("R(2,1)xi|4", "-1")),
        ),
        # R(1,xi)2|xi = g(1,2)/4 = a/8
        ({(0, XI, 1, XI): _times_factor}, ("r_x_xi_z",), (("R(1,xi)2|xi", "1/8*a/(a + 1)"),)),
        ({(2, XI, 0, 1): _plus_one}, ("r_x_xi_z",), (("R(3,xi)1|2", "1"),)),
        # R(1,xi)xi|1 = -1/4
        ({(0, XI, XI, 0): _times_factor}, ("r_x_xi_xi",), (("R(1,xi)xi|1", "-1/4/(a + 1)"),)),
        (
            {(3, XI, XI, XI): _plus_one, (0, 1, 1, 2): _times_factor, (1, XI, XI, 1): _plus_one},
            ("base_formula", "r_x_xi_xi"),
            (
                ("R(1,2)2|3", "3/2*a/(a + 1)"),
                ("R(2,1)2|3", "-3/2*a/(a + 1)"),
                ("R(2,xi)xi|2", "1"),
                ("R(4,xi)xi|xi", "1"),
            ),
        ),
    ],
    ids=["nonzero-factor", "zero-xi-slot", "zero-base-slot", "base-non-monomial-factor",
         "r-xy-xi", "r-x-xi-z-factor", "r-x-xi-z-zero", "r-x-xi-xi-factor",
         "three-identities"],
)
def test_lifted_curvature_pins_single_perturbations(d42_lift, changes, failed, residuals):
    ps, base, j_matrix, ext_bundle = d42_lift
    assert verify_lifted_curvature(ps, base, j_matrix, ext_bundle).ok
    report = verify_lifted_curvature(ps, base, j_matrix, _with_riemann(ext_bundle, changes))
    assert report.identities == _curvature_identities(*failed)
    assert report.residuals == residuals


def test_lifted_curvature_keeps_sixteen_residuals(d42_lift):
    ps, base, j_matrix, ext_bundle = d42_lift
    # 13 zero components R(i,j)xi|s, whose negations R(j,i)xi|s change with
    # them, give 17 residuals in check order before the last component
    # R(4,xi)xi|xi: its identity is cleared past the cut, its text is not kept
    slots = [(0, j, XI, s) for j in (1, 2, 3) for s in range(4)]
    slots += [(1, 2, XI, 0), (3, XI, XI, XI)]
    changes = {slot: _plus_one for slot in slots}
    report = verify_lifted_curvature(ps, base, j_matrix, _with_riemann(ext_bundle, changes))
    assert report.identities == _curvature_identities("r_xy_xi", "r_x_xi_xi")
    assert report.residuals == (
        ("R(1,2)xi|1", "1"), ("R(1,2)xi|2", "1"), ("R(1,2)xi|3", "1"), ("R(1,2)xi|4", "1"),
        ("R(1,3)xi|1", "1"), ("R(1,3)xi|2", "1"), ("R(1,3)xi|3", "1"), ("R(1,3)xi|4", "1"),
        ("R(1,4)xi|1", "1"), ("R(1,4)xi|2", "1"), ("R(1,4)xi|3", "1"), ("R(1,4)xi|4", "1"),
        ("R(2,1)xi|1", "-1"), ("R(2,1)xi|2", "-1"), ("R(2,1)xi|3", "-1"), ("R(2,1)xi|4", "-1"),
    )


@pytest.mark.parametrize(
    "changes, failed, residuals",
    [
        (
            {(0, 1): _times_factor},
            ("ric_base",),
            (("Ric(1,2)", "(3/8*a^3 - 3/4*a^2 + 1/4*a*b)/(a*b + b)"),),
        ),
        ({(1, XI): _plus_one}, ("ric_y_xi",), (("Ric(2,xi)", "1"),)),
        # Ric(xi,xi) = -1
        ({(XI, XI): _times_factor}, ("ric_xi_xi",), (("Ric(xi,xi)", "-1/(a + 1)"),)),
        (
            {(XI, XI): _times_factor, (XI, 2): _plus_one, (2, 3): _plus_one},
            ("ric_base", "ric_y_xi", "ric_xi_xi"),
            (("Ric(3,4)", "1"), ("Ric(xi,3)", "1"), ("Ric(xi,xi)", "-1/(a + 1)")),
        ),
    ],
    ids=["ric-base-factor", "ric-y-xi", "ric-xi-xi-factor", "three-identities"],
)
def test_lifted_ricci_pins_single_perturbations(d42_lift, changes, failed, residuals):
    ps, base, _, ext_bundle = d42_lift
    assert verify_lifted_ricci(ps, base, ext_bundle).ok
    report = verify_lifted_ricci(ps, base, _with_ricci(ext_bundle, changes))
    assert report.identities == _ricci_identities(*failed)
    assert report.residuals == residuals


def test_lift_tags_name_xi_in_every_slot(d42_lift):
    # index n (here 4) is xi in every slot, the last one included
    ps, base, j_matrix, ext_bundle = d42_lift
    changes = {(0, 1, XI, XI): _plus_one, (0, XI, 2, XI): _plus_one}
    report = verify_lifted_curvature(ps, base, j_matrix, _with_riemann(ext_bundle, changes))
    assert report.residuals == (
        ("R(1,2)xi|xi", "1"), ("R(1,xi)3|xi", "1"), ("R(2,1)xi|xi", "-1")
    )
