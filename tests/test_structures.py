"""Para-complex axioms, associated metrics, eigenbundle splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parakahler.expressions import ExprMatrix, SamplePoint, expr
from parakahler.structures import (
    IdentityReport,
    Metric,
    MetricAsymmetryError,
    SingularMetricError,
    check_involution,
    check_metric_compat,
    metric_from,
    nijenhuis,
    omega_from,
    signature_at,
)

from conftest import make_algebra, make_form
import oracles

DIAG_PP_MM = oracles.from_rows(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
)
DIAG_PM_PM = oracles.from_rows(
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
)
# Darboux pairing e1<->e3, e2<->e4; makes the two diagonal J's above
# compatible/incompatible respectively.
OMEGA_13_24 = [(1, 3, 1), (2, 4, 1)]

J22_R2R2 = oracles.from_rows(
    [
        ["a+1", "b", "c-1", "b"],
        ["-a*(a+2)/b", "-a-1", "-(c-1)*a/b", "-a"],
        ["a", "b", "c", "b"],
        ["-(c-1)*a/b", "1-c", "-(c^2-1)/b", "-c"],
    ]
)

J3_RR3M1 = oracles.from_rows(
    [
        ["-a", 0, 0, "-(a^2-1)/b"],
        [0, -1, 0, 0],
        [0, 0, 1, 0],
        ["b", 0, 0, "a"],
    ]
)
G3_RR3M1 = oracles.from_rows(
    [
        ["b", 0, 0, "a"],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        ["a", 0, 0, "(a^2-1)/b"],
    ]
)


def test_involution_block_diagonal():
    assert check_involution(DIAG_PP_MM).ok


def test_involution_identity_fails_trace():
    report = check_involution(ExprMatrix.identity(4))
    assert not report.ok
    assert any(where == "trace(J)" for where, _ in report.residuals)


def test_involution_parametric_j22():
    assert check_involution(J22_R2R2).ok


def test_omega_compat_diagonal_pass():
    omega = make_form(4, OMEGA_13_24)
    assert oracles.omega_compat(omega, DIAG_PP_MM).ok


def test_omega_compat_diagonal_fail():
    omega = make_form(4, OMEGA_13_24)
    report = oracles.omega_compat(omega, DIAG_PM_PM)
    assert not report.ok
    # direct expansion: omega(J e1, e3) + omega(e1, J e3) = 2 omega(e1, e3) = 2
    assert report.residuals[0][1] == "2"


def _issues(check):
    return check.residuals


def test_omega_compat_pins_the_cross_check_residuals():
    # J = a*diag(1, 1, -1, -1) passes the primary block for every a, but
    # omega(JX, JY) = a^2 omega(X, Y), so only the cross-check fails
    omega = make_form(4, OMEGA_13_24)
    j = oracles.from_rows([["a", 0, 0, 0], [0, "a", 0, 0], [0, 0, "-a", 0], [0, 0, 0, "-a"]])
    report = oracles.omega_compat(omega, j)
    assert not report.ok
    assert _issues(report) == (
        ("w(J.,J.)+w[1,3]", "-a^2 + 1"),
        ("w(J.,J.)+w[2,4]", "-a^2 + 1"),
        ("w(J.,J.)+w[3,1]", "a^2 - 1"),
        ("w(J.,J.)+w[4,2]", "a^2 - 1"),
    )


def test_omega_compat_pins_the_residuals_of_both_blocks():
    omega = make_form(4, OMEGA_13_24)
    report = oracles.omega_compat(omega, J3_RR3M1)
    assert not report.ok
    assert _issues(report) == (
        ("Jt*w+w*J[1,2]", "-b"),
        ("Jt*w+w*J[1,3]", "-a + 1"),
        ("Jt*w+w*J[2,1]", "b"),
        ("Jt*w+w*J[2,4]", "a - 1"),
        ("Jt*w+w*J[3,1]", "a - 1"),
        ("Jt*w+w*J[3,4]", "(a^2 - 1)/b"),
        ("Jt*w+w*J[4,2]", "-a + 1"),
        ("Jt*w+w*J[4,3]", "(-a^2 + 1)/b"),
        ("w(J.,J.)+w[1,2]", "b"),
        ("w(J.,J.)+w[1,3]", "-a + 1"),
        ("w(J.,J.)+w[2,1]", "-b"),
        ("w(J.,J.)+w[2,4]", "-a + 1"),
        ("w(J.,J.)+w[3,1]", "a - 1"),
        ("w(J.,J.)+w[3,4]", "(a^2 - 1)/b"),
        ("w(J.,J.)+w[4,2]", "a - 1"),
        ("w(J.,J.)+w[4,3]", "(-a^2 + 1)/b"),
    )


def test_omega_compat_rr3m1_j3():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    assert oracles.omega_compat(omega, J3_RR3M1).ok


def test_nijenhuis_abelian_always_zero():
    rn4 = make_algebra("rn4")
    j = oracles.from_rows(
        [[1, "a", 0, 0], [0, -1, "b", 0], [0, 0, 1, "c"], [0, 0, 0, -1]]
    )
    assert nijenhuis(rn4, j).as_check().ok


def test_nijenhuis_r2r2_family_integrable():
    r2r2 = make_algebra("r2r2")
    j11 = oracles.from_rows(
        [[-1, 0, 0, 0], ["a", 1, 0, 0], [0, 0, 1, 0], [0, 0, "b", -1]]
    )
    assert nijenhuis(r2r2, j11).as_check().ok


NON_INTEGRABLE_J = oracles.from_rows(
    # J^2 = Id, trace 0, but the +1 eigenspace span(e1, e2+e4) is not a
    # subalgebra of r2r2, so the Nijenhuis tensor cannot vanish.
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]]
)


def test_nijenhuis_detects_non_integrable():
    r2r2 = make_algebra("r2r2")
    assert check_involution(NON_INTEGRABLE_J).ok
    tensor = nijenhuis(r2r2, NON_INTEGRABLE_J)
    assert not tensor.as_check().ok
    point = {name: Fraction(0) for name in ("a", "b", "c", "d", "lam", "alpha", "beta")}
    oracle = oracles.nijenhuis(
        oracles.structure_fractions(r2r2, point), oracles.eval_matrix(NON_INTEGRABLE_J, point)
    )
    i, j, k, value = oracles.first_nonzero(tensor.comps)
    assert oracle[i - 1][j - 1][k - 1] == SamplePoint(point).quotient(value)
    assert any(
        oracle[x][y][z] != 0 for x in range(4) for y in range(4) for z in range(4)
    )


def test_nijenhuis_pins_parametric_residuals():
    # N^k_ji = -N^k_ij: each residual is listed with its negation
    r2r2 = make_algebra("r2r2")
    j = oracles.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, "1/(b+1)"], [0, 0, -1, 0], [0, "b+1", 0, 0]]
    )
    assert check_involution(j).ok
    assert _issues(nijenhuis(r2r2, j).as_check()) == (
        ("N[1,2;2]", "1"),
        ("N[1,2;4]", "-b - 1"),
        ("N[1,4;2]", "1/(b + 1)"),
        ("N[1,4;4]", "-1"),
        ("N[2,1;2]", "-1"),
        ("N[2,1;4]", "b + 1"),
        ("N[2,3;2]", "1"),
        ("N[2,3;4]", "b + 1"),
        ("N[3,2;2]", "-1"),
        ("N[3,2;4]", "-b - 1"),
        ("N[3,4;2]", "1/(b + 1)"),
        ("N[3,4;4]", "1"),
        ("N[4,1;2]", "-1/(b + 1)"),
        ("N[4,1;4]", "1"),
        ("N[4,3;2]", "-1/(b + 1)"),
        ("N[4,3;4]", "-1"),
    )
    d4lam = make_algebra("d4lam")
    j = oracles.from_rows([[1, "a", 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert check_involution(j).ok
    assert _issues(nijenhuis(d4lam, j).as_check()) == (
        ("N[2,4;1]", "4*a*lam - 2*a"),
        ("N[4,2;1]", "-4*a*lam + 2*a"),
    )


def test_nijenhuis_matches_numeric_oracle_on_parametric_j():
    rh3 = make_algebra("rh3")
    j1 = oracles.from_rows(
        [
            ["a", "-b", 0, 0],
            ["(a^2-1)/b", "-a", 0, 0],
            ["d", "c", "a", "b"],
            ["-(c*a^2+2*d*a*b-c)/b^2", "d", "-(a^2-1)/b", "-a"],
        ]
    )
    tensor = nijenhuis(rh3, j1)
    point = {
        "a": Fraction(2),
        "b": Fraction(3),
        "c": Fraction(-1),
        "d": Fraction(5, 2),
        "lam": Fraction(0),
        "alpha": Fraction(0),
        "beta": Fraction(0),
    }
    oracle = oracles.nijenhuis(oracles.structure_fractions(rh3, point), oracles.eval_matrix(j1, point))
    at = SamplePoint(point)
    for x in range(4):
        for y in range(4):
            for z in range(4):
                assert at.quotient(tensor.comps[x][y][z]) == oracle[x][y][z]
    assert tensor.as_check().ok


def test_metric_from_reproduces_rr3m1_g3():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    assert metric_from(omega, J3_RR3M1).matrix == G3_RR3M1


def test_metric_from_reproduces_r2p_g3():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    j3 = oracles.from_rows(
        [[-1, 0, 0, 0], [0, -1, 0, 0], ["a", "b", 1, 0], ["-b", "a", 0, 1]]
    )
    g3 = oracles.from_rows(
        [["-b", "a", 0, 1], ["a", "b", 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    assert metric_from(omega, j3).matrix == g3


def test_metric_from_diagonal_j_oracle():
    # oracle: g_ij = omega(e_i, J e_j) expanded by hand for the Darboux pairing
    omega = make_form(4, OMEGA_13_24)
    g = metric_from(omega, DIAG_PP_MM)
    expected = oracles.from_rows(
        [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    )
    assert g.matrix == expected


def test_metric_from_incompatible_raises():
    omega = make_form(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(MetricAsymmetryError):
        metric_from(omega, DIAG_PP_MM)


def test_metric_compat_of_derived_metrics():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    g = metric_from(omega, J3_RR3M1)
    assert check_metric_compat(g, g.matrix @ J3_RR3M1).ok


def test_metric_compat_failure():
    g = Metric(ExprMatrix.identity(4))
    assert not check_metric_compat(g, g.matrix @ DIAG_PP_MM).ok
    # for a diagonal J the residual is g_ij (J_ii + J_jj)
    report = check_metric_compat(Metric(G3_RR3M1), G3_RR3M1 @ DIAG_PP_MM)
    assert not report.ok
    assert _issues(report) == (
        ("Jt*g+g*J[1,1]", "2*b"),
        ("Jt*g+g*J[4,4]", "(-2*a^2 + 2)/b"),
    )


def test_metric_compat_rh3_j2():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    j2 = oracles.from_rows(
        [
            [1, "-b", 0, 0],
            [0, -1, 0, 0],
            ["-b*d/2", "c", 1, "b"],
            ["d", "-b*d/2", 0, -1],
        ]
    )
    g = metric_from(omega, j2)
    assert check_metric_compat(g, g.matrix @ j2).ok


def test_omega_round_trip():
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    g = metric_from(omega, J3_RR3M1)
    assert omega_from(g, J3_RR3M1) == omega


def test_sign_flip_preserves_axioms():
    r2r2 = make_algebra("r2r2")
    omega = make_form(4, [(1, 2, 1), (1, 3, "lam"), (3, 4, 1)])
    j11 = oracles.from_rows(
        [[-1, 0, 0, 0], ["a", 1, 0, 0], [0, 0, 1, 0], [0, 0, "b", -1]]
    )
    for j in (j11, -j11):
        assert check_involution(j).ok
        assert oracles.omega_compat(omega, j).ok
        assert nijenhuis(r2r2, j).as_check().ok


@pytest.mark.parametrize("j", [DIAG_PP_MM, DIAG_PM_PM], ids=["passing", "failing"])
def test_each_axiom_check_is_an_identity_report_of_its_one_axiom(j):
    omega, r2r2 = make_form(4, OMEGA_13_24), make_algebra("r2r2")
    checks = {
        "involution": check_involution(j),
        "omega-compat": oracles.omega_compat(omega, j),
        "nijenhuis": nijenhuis(r2r2, j).as_check(),
        "metric-compat": check_metric_compat(Metric(ExprMatrix.identity(4)), j),  # g J = J
    }
    for axiom, report in checks.items():
        assert isinstance(report, IdentityReport)
        assert list(report.identities) == [axiom]
        assert report.identities[axiom] == report.ok == (not report.residuals)


def test_signature_diagonal():
    g = Metric(DIAG_PP_MM)
    assert oracles.fraction_oracle.signature(oracles.eval_matrix(g.matrix, {})) == (2, 2)


def test_signature_g3_sample():
    g = Metric(G3_RR3M1)
    point = {"a": Fraction(0), "b": Fraction(1)}
    assert oracles.fraction_oracle.signature(oracles.eval_matrix(g.matrix, point)) == (2, 2)


def test_signature_singular():
    g = Metric(oracles.from_rows([[0] * 4] * 4))
    with pytest.raises(SingularMetricError):
        oracles.fraction_oracle.signature(oracles.eval_matrix(g.matrix, {}))


def _symmetric(size):
    """Symmetric integer matrices of ``size``, drawn as their upper triangles,
    often with zeros (on the diagonal too) and often singular."""
    entries = st.lists(
        st.one_of(st.just(0), st.integers(-4, 4), st.integers(-10**30, 10**30)),
        min_size=size * (size + 1) // 2,
        max_size=size * (size + 1) // 2,
    )

    def fill(upper):
        m = [[0] * size for _ in range(size)]
        cells = [(i, j) for i in range(size) for j in range(i, size)]
        for (i, j), v in zip(cells, upper):
            m[i][j] = m[j][i] = v
        return m

    return entries.map(fill)


def _zero_diagonal(m):
    return [[0 if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]


def _rank_deficient(m):
    """``m`` with its last row and column replaced by the sum of the first two."""
    m = [list(row) for row in m]
    n = len(m)
    for i in range(n - 1):
        m[i][n - 1] = m[i][0] + m[i][1]
    for j in range(n):
        m[n - 1][j] = m[0][j] + m[1][j]
    m[n - 1][n - 1] = m[0][0] + 2 * m[0][1] + m[1][1]
    return m


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6).flatmap(_symmetric),
    st.sampled_from([lambda m: m, _zero_diagonal, _rank_deficient]),
)
def test_integer_signature_equals_fraction_reference(m, shape):
    # the fraction-free elimination counts the same pivot signs as the
    # Fraction reduction, and finds the same matrices singular
    if len(m) < 3:
        shape = {_rank_deficient: _zero_diagonal}.get(shape, shape)
    m = shape(m)
    try:
        expected = oracles.signature_reference(m)
    except SingularMetricError:
        with pytest.raises(SingularMetricError):
            signature_at(m)
        return
    assert signature_at(m) == expected
    assert sum(expected) == len(m)


def _eigenprojectors(j_matrix):
    """P+- = (I +- J)/2, the projections onto the +-1 eigenspaces of J."""
    eye, half = ExprMatrix.identity(j_matrix.rows), expr("1/2")
    return (eye + j_matrix).scale(half), (eye - j_matrix).scale(half)


def _image_closed(algebra, p, q):
    """q [p e_i, p e_j] == 0 for all i < j: the image of p, which q
    annihilates, is closed under the bracket."""
    cols = p.transpose().entries
    return all(
        (q @ ExprMatrix([[x] for x in algebra.bracket(cols[i], cols[j])])).is_zero
        for i in range(p.cols)
        for j in range(i + 1, p.cols)
    )


def test_eigen_split_diagonal():
    rn4 = make_algebra("rn4")
    plus, minus = _eigenprojectors(DIAG_PP_MM)
    assert plus == oracles.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert plus.trace() == expr(2) and minus.trace() == expr(2)
    assert _image_closed(rn4, plus, minus) and _image_closed(rn4, minus, plus)
    # span(e1, e2+e4) is not a subalgebra of r2r2: both closures fail
    r2r2 = make_algebra("r2r2")
    plus, minus = _eigenprojectors(NON_INTEGRABLE_J)
    assert not _image_closed(r2r2, plus, minus)
    assert not _image_closed(r2r2, minus, plus)


def test_eigen_split_r2r2_at_origin():
    r2r2 = make_algebra("r2r2")
    j11 = oracles.from_rows(
        [[-1, 0, 0, 0], ["a", 1, 0, 0], [0, 0, 1, 0], [0, 0, "b", -1]]
    )
    plus, minus = _eigenprojectors(j11)
    # at the origin the eigenspaces are span(e2, e3) and span(e1, e4)
    point = {"a": Fraction(0), "b": Fraction(0)}
    assert oracles.eval_matrix(plus, point) == [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    assert oracles.eval_matrix(minus, point) == [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    # closed for every a, b, not only at the origin
    assert _image_closed(r2r2, plus, minus) and _image_closed(r2r2, minus, plus)


def test_eigen_split_rank_mismatch():
    # J = Id has a 4-dimensional +1 eigenspace and no -1 eigenspace
    plus, minus = _eigenprojectors(ExprMatrix.identity(4))
    assert plus.trace() == expr(4)
    assert minus.trace() == expr(0)


def test_eigen_split_across_catalog():
    # both eigenspaces have dimension 2 and are bracket-closed for every
    # builtin structure, exactly in all parameters
    from parakahler.catalog import builtin_catalog

    catalog = builtin_catalog()
    for entry in catalog.entries:
        algebra = catalog.algebra_of(entry)
        plus, minus = _eigenprojectors(entry.j_matrix)
        assert plus.trace() == expr(2) and minus.trace() == expr(2), entry.entry_id
        assert _image_closed(algebra, plus, minus), entry.entry_id
        assert _image_closed(algebra, minus, plus), entry.entry_id


def test_sign_flip_invariance_across_catalog():
    # J and -J satisfy the same axioms; checked on 5 seeded catalog picks
    # plus the stored opposite-sign pair
    from parakahler.catalog import builtin_catalog
    from parakahler.sampling import DeterministicRng

    catalog = builtin_catalog()
    rng = DeterministicRng(5)
    picks = {catalog.entries[rng.randint(0, len(catalog.entries) - 1)].entry_id
             for _ in range(5)}
    for entry in catalog.entries:
        if entry.entry_id not in picks:
            continue
        algebra = catalog.algebra_of(entry)
        form = catalog.form_of(entry)
        for j in (entry.j_matrix, -entry.j_matrix):
            assert check_involution(j).ok, entry.entry_id
            assert oracles.omega_compat(form, j).ok, entry.entry_id
            assert nijenhuis(algebra, j).as_check().ok, entry.entry_id


def test_stored_sign_pair_consistency():
    # the catalog keeps one pair (J, -J) attached to opposite-sign forms
    from parakahler.catalog import builtin_catalog

    catalog = builtin_catalog()
    jp = next(e for e in catalog.entries if e.entry_id == "r40.omegap.Jp")
    jm = next(e for e in catalog.entries if e.entry_id == "r40.omegam.Jm")
    assert jm.j_matrix == -jp.j_matrix
    wp, wm = catalog.form_of(jp), catalog.form_of(jm)
    assert wp != wm
    assert wp(0, 3) == wm(0, 3) and wp(1, 2) == -wm(1, 2)
