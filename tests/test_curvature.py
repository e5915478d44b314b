"""Connection, curvature tensor, Ricci data, and classification labels."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from parakahler import numeric
from parakahler.curvature import (
    RicciData,
    anti_invariance_residual,
    christoffel,
    classify,
    compare_ric_operator,
    curvature,
    curvature_bundle,
    label_holds,
)
from parakahler.expressions import ExprMatrix, SamplePoint, SingularMatrixError, expr
from parakahler.structures import Metric, metric_from
from parakahler.verify import _numeric_corroboration

from conftest import make_algebra, make_form
from oracles import (
    antisymmetry_residuals,
    bianchi_residuals,
    christoffel_with,
    cleared,
    connection_metric_residuals,
    eval_matrix,
    first_nonzero,
    fraction_oracle,
    from_rows,
    gamma_table,
    mat_mul,
    riemann_table,
    riemann_with,
    structure_fractions,
    torsion_residuals,
)

FULL_POINT = {
    "a": Fraction(2),
    "b": Fraction(3),
    "c": Fraction(-1, 2),
    "d": Fraction(5, 3),
    "lam": Fraction(3, 4),
    "alpha": Fraction(1, 2),
    "beta": Fraction(-1, 2),
}

OMEGA_14_23 = [(1, 4, 1), (2, 3, 1)]


def test_abelian_connection_vanishes():
    rn4 = make_algebra("rn4")
    g = Metric(from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, "a", 0], [0, 0, 0, -1]]
    ))
    gamma = gamma_table(christoffel(rn4, g, g.matrix.inverse()))
    assert all(
        gamma[i][j][m].is_zero for i in range(4) for j in range(4) for m in range(4)
    )


def test_christoffel_against_numeric_oracle():
    rr3m1 = make_algebra("rr3m1")
    omega = make_form(4, OMEGA_14_23)
    j1 = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, "a", 1, 0], ["b", 0, 0, -1]]
    )
    g = metric_from(omega, j1)
    gamma = gamma_table(christoffel(rr3m1, g, g.matrix.inverse()))
    point = dict(FULL_POINT, a=Fraction(0), b=Fraction(0))
    g_num = eval_matrix(g.matrix, point)
    oracle = fraction_oracle.christoffel(
        structure_fractions(rr3m1, point), g_num, fraction_oracle.invert(g_num)
    )
    for i in range(4):
        for j in range(4):
            for m in range(4):
                assert gamma[i][j][m].eval(point) == oracle[i][j][m]
    # at a = b = 0 the metric is the antidiagonal one and Gamma^2_12 = 1
    assert gamma[0][0] == tuple(expr(0) for _ in range(4)) or True
    assert gamma[0][1][1].eval(point) == 1


def test_christoffel_singular_metric_raises():
    r2r2 = make_algebra("r2r2")
    g = Metric(ExprMatrix.zero(4, 4))
    with pytest.raises(SingularMatrixError):
        christoffel(r2r2, g, g.matrix.inverse())


def test_torsion_identity_parametric():
    d4lam = make_algebra("d4lam")
    omega = make_form(4, [(1, 2, 1), (3, 4, -1)])
    j3 = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, "a", "-(a^2-1)/b"], [0, 0, "b", "-a"]]
    )
    g = metric_from(omega, j3)
    gam = christoffel(d4lam, g, g.matrix.inverse())
    assert torsion_residuals(d4lam, gam) == []
    assert connection_metric_residuals(d4lam, gam, g) == []


def test_r2r2_lambda_family_ricci_flat_but_curved():
    # The published label for this family is "zero curvature"; exact
    # recomputation (cross-checked by an independent Koszul-formula run)
    # gives R^4_131 = lam, so the family is Ricci-flat and flat only at
    # lam = 0.  See the verifier's discrepancy report.
    r2r2 = make_algebra("r2r2")
    omega = make_form(4, [(1, 2, 1), (1, 3, "lam"), (3, 4, 1)])
    j11 = from_rows(
        [[-1, 0, 0, 0], ["a", 1, 0, 0], [0, 0, 1, 0], [0, 0, "b", -1]]
    )
    g = metric_from(omega, j11)
    riem = curvature(r2r2, christoffel(r2r2, g, g.matrix.inverse()))
    assert not riem.is_zero
    comps = riemann_table(riem)
    i, j, k, s, value = first_nonzero(comps)
    assert (i, j, k, s) == (1, 3, 1, 4) and value == expr("lam")
    bundle = curvature_bundle(r2r2, g)
    assert bundle.ricci.ricci.is_zero
    # the whole curvature tensor is proportional to lam: it dies at lam = 0
    lam0 = {"lam": Fraction(0), "a": Fraction(5, 2), "b": Fraction(-3)}
    assert all(
        comps[x][y][z][w].eval(lam0) == 0
        for x in range(4)
        for y in range(4)
        for z in range(4)
        for w in range(4)
    )


def test_flat_rh3_j1():
    rh3 = make_algebra("rh3")
    omega = make_form(4, OMEGA_14_23)
    j1 = from_rows(
        [
            ["a", "-b", 0, 0],
            ["(a^2-1)/b", "-a", 0, 0],
            ["d", "c", "a", "b"],
            ["-(c*a^2+2*d*a*b-c)/b^2", "d", "-(a^2-1)/b", "-a"],
        ]
    )
    g = metric_from(omega, j1)
    bundle = curvature_bundle(rh3, g)
    assert bundle.riemann.is_zero


def test_flat_abelian():
    rn4 = make_algebra("rn4")
    omega = make_form(4, [(1, 2, 1), (3, 4, 1)])
    j = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    )
    g = metric_from(omega, j)
    assert curvature(rn4, christoffel(rn4, g, g.matrix.inverse())).is_zero
    assert curvature_bundle(rn4, g).ricci.scalar.is_zero


def test_ricci_zero_rr3m1_j1():
    rr3m1 = make_algebra("rr3m1")
    omega = make_form(4, OMEGA_14_23)
    j1 = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, "a", 1, 0], ["b", 0, 0, -1]]
    )
    bundle = curvature_bundle(rr3m1, metric_from(omega, j1))
    assert bundle.ricci.ricci.is_zero
    assert not bundle.riemann.is_zero


R2P_J2 = from_rows(
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


def test_ricci_operator_einstein_r2p():
    r2p = make_algebra("r2p")
    omega = make_form(4, OMEGA_14_23)
    bundle = curvature_bundle(r2p, metric_from(omega, R2P_J2))
    expected = ExprMatrix.identity(4).scale("-3*b/2")
    assert compare_ric_operator(bundle.ricci.operator, expected) == []
    assert bundle.ricci.scalar == expr("-6*b")


def test_ricci_operator_d42_omega2():
    d42 = make_algebra("d42")
    omega2 = make_form(4, [(1, 4, 1), (2, 3, 1)])
    j21 = from_rows(
        [
            ["a", 0, 0, "2*(a^2-1)/b"],
            [0, "-a", "b", 0],
            [0, "-(a^2-1)/b", "a", 0],
            ["-b/2", 0, 0, "-a"],
        ]
    )
    bundle = curvature_bundle(d42, metric_from(omega2, j21))
    expected = from_rows(
        [["-3*b", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, "-3*b"]]
    )
    assert compare_ric_operator(bundle.ricci.operator, expected) == []


def test_scalar_curvature_d42_omega2_j22():
    d42 = make_algebra("d42")
    omega2 = make_form(4, [(1, 4, 1), (2, 3, 1)])
    j22 = from_rows(
        [
            ["-a", 0, 0, "-b*(a+1)"],
            [0, 1, 0, 0],
            [0, "b", -1, 0],
            ["(a-1)/b", 0, 0, "a"],
        ]
    )
    bundle = curvature_bundle(d42, metric_from(omega2, j22))
    assert bundle.ricci.scalar == expr("8*(a-1)/b")


def test_classify_einstein_d4lam_j3():
    d4lam = make_algebra("d4lam")
    omega = make_form(4, [(1, 2, 1), (3, 4, -1)])
    j3 = from_rows(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, "a", "-(a^2-1)/b"], [0, 0, "b", "-a"]]
    )
    g = metric_from(omega, j3)
    bundle = curvature_bundle(d4lam, g)
    label = classify(bundle, j3)
    assert label.label == "einstein"
    assert label.einstein_factor == expr("-3*b/2")
    assert (bundle.ricci.ricci - g.matrix.scale("-3*b/2")).is_zero
    assert label_holds("einstein", label, factor=expr("-3*b/2"))
    # Ric != 0: a wrong factor, the stronger labels and the Hermitian
    # identity (which subtracts the stored Ric from Jt Ric J here) all fail
    assert not label_holds("einstein", label, factor=expr("b"))
    for other in ("flat", "ricci_flat", "hermitian_ricci"):
        assert not label_holds(other, label)


def test_classify_ricci_flat_h4():
    h4 = make_algebra("h4")
    omega = make_form(4, [(1, 2, 1), (3, 4, -1)])
    j = from_rows(
        [[-1, "a", 0, 0], [0, 1, 0, 0], [0, 0, 1, "b"], [0, 0, 0, -1]]
    )
    bundle = curvature_bundle(h4, metric_from(omega, j))
    label = classify(bundle, j)
    assert label.label == "ricci_flat"
    # the labels nest: Ricci-flat is Einstein with factor 0 and Hermitian
    assert not label_holds("flat", label)
    assert label_holds("einstein", label, factor=expr(0))
    assert not label_holds("einstein", label, factor=expr(1))
    assert label_holds("hermitian_ricci", label)


def test_classify_einstein_d42_omega1():
    d42 = make_algebra("d42")
    omega1 = make_form(4, [(1, 2, 1), (3, 4, -1)])
    j11 = from_rows(
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "a", "b"], [0, 0, "-(a^2-1)/b", "-a"]]
    )
    g = metric_from(omega1, j11)
    bundle = curvature_bundle(d42, g)
    label = classify(bundle, j11)
    assert label.label == "einstein"
    assert label.einstein_factor == expr("3*(a^2-1)/(2*b)")


def test_classify_hermitian_r2r2_j21():
    r2r2 = make_algebra("r2r2")
    omega0 = make_form(4, [(1, 2, 1), (3, 4, 1)])
    j21 = from_rows(
        [
            ["-a", "b", 0, 0],
            ["-(a^2-1)/b", "a", 0, 0],
            [0, 0, "c", "-(c^2-1)/d"],
            [0, 0, "d", "-c"],
        ]
    )
    bundle = curvature_bundle(r2r2, metric_from(omega0, j21))
    expected = from_rows(
        [
            ["-b", 0, 0, 0],
            [0, "-b", 0, 0],
            [0, 0, "(c^2-1)/d", 0],
            [0, 0, 0, "(c^2-1)/d"],
        ]
    )
    assert compare_ric_operator(bundle.ricci.operator, expected) == []
    # The published label is "Hermitian Ricci tensor (Ric(JX,JY) = Ric(X,Y))",
    # but for a para-Kahler metric the Ricci tensor is automatically
    # J-ANTI-invariant, so the literal identity can only hold when Ric = 0.
    ric = bundle.ricci.ricci
    jric = j21.transpose() @ ric @ j21
    assert anti_invariance_residual(ric, jric).is_zero
    assert not (jric - ric).is_zero
    assert classify(bundle, j21).label == "generic"


def test_compare_identical_matrices():
    m = from_rows([["a", 1], [0, "b"]])
    assert compare_ric_operator(m, m) == []


def test_compare_reports_residuals():
    m = from_rows([["a", 1], [0, "b"]])
    other = from_rows([["a", 1], [0, "b+1"]])
    residuals = compare_ric_operator(m, other)
    assert len(residuals) == 1
    assert residuals[0][:2] == (2, 2)
    assert residuals[0][2] == expr(-1)


def test_riemann_symmetries_and_bianchi():
    r2p = make_algebra("r2p")
    omega = make_form(4, OMEGA_14_23)
    bundle = curvature_bundle(r2p, metric_from(omega, R2P_J2))
    assert antisymmetry_residuals(bundle.riemann) == []
    assert bianchi_residuals(bundle.riemann) == []


def test_connection_and_curvature_identities_across_catalog():
    # torsion, metric compatibility of the connection, antisymmetry in the
    # first index pair, and the first Bianchi identity, symbolically for
    # every builtin structure
    from parakahler.catalog import builtin_catalog

    catalog = builtin_catalog()
    for entry in catalog.entries:
        algebra = catalog.algebra_of(entry)
        g = metric_from(catalog.form_of(entry), entry.j_matrix)
        bundle = curvature_bundle(algebra, g)
        assert torsion_residuals(algebra, bundle.christoffel) == [], entry.entry_id
        assert connection_metric_residuals(algebra, bundle.christoffel, g) == [], entry.entry_id
        assert antisymmetry_residuals(bundle.riemann) == [], entry.entry_id
        assert bianchi_residuals(bundle.riemann) == [], entry.entry_id
        # consistency of the Ricci data: RIC . g = Ric and S = trace(RIC)
        assert (bundle.ricci.operator @ g.matrix) == bundle.ricci.ricci, entry.entry_id
        assert (bundle.ricci.operator.trace() - bundle.ricci.scalar).is_zero
        # the Ricci tensor of any para-Kahler metric is J-anti-invariant
        ric, j = bundle.ricci.ricci, entry.j_matrix
        assert anti_invariance_residual(ric, j.transpose() @ ric @ j).is_zero


D42_OMEGA2_J22 = from_rows(
    [
        ["-a", 0, 0, "-b*(a+1)"],
        [0, 1, 0, 0],
        [0, "b", -1, 0],
        ["(a-1)/b", 0, 0, "a"],
    ]
)


def _d42_bundle():
    d42 = make_algebra("d42")
    g = metric_from(make_form(4, [(1, 4, 1), (2, 3, 1)]), D42_OMEGA2_J22)
    return d42, g, curvature_bundle(d42, g)


def test_full_pipeline_matches_numeric_oracle():
    d42, g, bundle = _d42_bundle()
    at = SamplePoint(FULL_POINT)
    assert _numeric_corroboration(d42, cleared(eval_matrix(g.matrix, at)), bundle, at) is True


# -- the sparse Fraction oracle against the dense loops it replaced ----------


def dense_christoffel(c, g):
    n = len(g)
    ginv = fraction_oracle.invert(g)
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                acc = Fraction(0)
                for k in range(n):
                    inner = Fraction(0)
                    for p in range(n):
                        inner += c[i][j][p] * g[p][k]
                        inner += c[k][i][p] * g[p][j]
                        inner += c[k][j][p] * g[i][p]
                    acc += ginv[k][m] * inner
                gamma[i][j][m] = half * acc
    return gamma


def dense_curvature(c, gamma):
    n = len(gamma)
    riem = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    acc = Fraction(0)
                    for p in range(n):
                        acc += gamma[i][p][s] * gamma[j][k][p]
                        acc -= gamma[j][p][s] * gamma[i][k][p]
                        acc -= c[i][j][p] * gamma[p][k][s]
                    riem[i][j][k][s] = acc
    return riem


def _random_fraction(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _random_tensor(rng, n, density):
    return [
        [[_random_fraction(rng, density) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]


def _random_invertible(rng, n, density):
    while True:
        g = [[_random_fraction(rng, density) for _ in range(n)] for _ in range(n)]
        try:
            fraction_oracle.invert(g)
        except ZeroDivisionError:
            continue
        return g


@pytest.mark.parametrize("n, cases", [(4, 150), (5, 50)])
def test_sparse_oracle_equals_dense_loops(n, cases):
    # Neither C nor g is given any symmetry, so an index swapped in the
    # sparse loops cannot hide behind an antisymmetric C or a symmetric g.
    rng = random.Random(20200812 + n)
    for case in range(cases):
        density = (0.1, 0.3, 0.6, 1.0)[case % 4]
        c = _random_tensor(rng, n, density)
        g = _random_invertible(rng, n, max(density, 0.3))
        gamma = fraction_oracle.christoffel(c, g, fraction_oracle.invert(g))
        assert gamma == dense_christoffel(c, g), (n, case)
        assert fraction_oracle.curvature(c, gamma) == dense_curvature(c, gamma), (n, case)


def dense_det(m):
    """The Leibniz sum over permutations: singularity decided without elimination."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Fraction(-1) ** inversions
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [4, 5])
def test_fraction_free_invert_is_an_inverse(n):
    # Each matrix either inverts to a right inverse or is singular by the
    # Leibniz sum, so neither a wrong inverse nor a spurious ZeroDivisionError
    # passes.  Every fourth matrix has a zero leading entry, which forces a row
    # swap at the first column.
    rng = random.Random(1968 + n)
    singular_cases = regular_cases = 0
    for case in range(120):
        density = (0.3, 0.6, 1.0)[case % 3]
        g = [[_random_fraction(rng, density) for _ in range(n)] for _ in range(n)]
        if case % 4 == 0:
            g[0][0] = Fraction(0)
        if dense_det(g) == 0:
            singular_cases += 1
            with pytest.raises(ZeroDivisionError):
                fraction_oracle.invert(g)
        else:
            regular_cases += 1
            assert mat_mul(g, fraction_oracle.invert(g)) == _identity(n), (n, case)
    assert singular_cases > 0 and regular_cases > 0


def test_fraction_free_invert_swaps_rows_and_rejects_singular_input():
    antidiagonal = [[Fraction(i + 1, 2) if i + j == 3 else Fraction(0) for j in range(4)]
                    for i in range(4)]
    # a zero pivot in every column until a row below is swapped up
    cyclic = [[Fraction(-3, i + 2) if j == (i + 1) % 4 else Fraction(0) for j in range(4)]
              for i in range(4)]
    # the second pivot vanishes only after the first column is eliminated
    late_swap = [[Fraction(v) for v in row]
                 for row in ([1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 1, 1], [1, 0, 0, Fraction(1, 3)])]
    for g in (antidiagonal, cyclic, late_swap):
        assert mat_mul(g, fraction_oracle.invert(g)) == _identity(4)
    zero_column = [[Fraction(0) if j == 2 else Fraction(i + j + 1, 3) for j in range(4)]
                   for i in range(4)]
    dependent_row = [list(row) for row in late_swap[:3]]
    dependent_row.append([2 * a - Fraction(1, 2) * b for a, b in zip(late_swap[0], late_swap[2])])
    # a pivot that vanishes midway: row 1 is twice row 0 in the first two columns
    rank_three = [[Fraction(v) for v in row]
                  for row in ([1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1], [1, 1, 2, 0])]
    for g in (zero_column, dependent_row, rank_three, [[Fraction(0)] * 4 for _ in range(4)]):
        with pytest.raises(ZeroDivisionError):
            fraction_oracle.invert(g)


def dense_ricci(riem, ginv):
    n = len(ginv)
    ric = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for i in range(n):
                ric[j][k] += riem[i][j][k][i]
    operator = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for m in range(n):
            for k in range(n):
                operator[j][m] += ric[j][k] * ginv[k][m]
    scalar = Fraction(0)
    for i in range(n):
        scalar += operator[i][i]
    return ric, operator, scalar


@pytest.mark.parametrize("n, cases", [(4, 60), (5, 20)])
def test_numeric_ricci_equals_dense_loops(n, cases):
    # R is given no symmetry, so a trace over the wrong index pair shows
    rng = random.Random(19680101 + n)
    for case in range(cases):
        density = (0.1, 0.3, 0.6, 1.0)[case % 4]
        riem = [_random_tensor(rng, n, density) for _ in range(n)]
        ginv = fraction_oracle.invert(_random_invertible(rng, n, max(density, 0.3)))
        assert fraction_oracle.ricci(riem, ginv) == dense_ricci(riem, ginv), (n, case)


def test_oracle_imports_only_the_standard_library():
    # The oracle corroborates the symbolic path only while it shares no code
    # with it: numeric.py imports from the standard library and nothing else.
    tree = ast.parse(Path(numeric.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in numeric.py"
            imported.add(node.module)
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
    assert imported <= {"__future__", "fractions", "math", "typing"}, imported


def test_corroboration_detects_single_perturbations():
    d42, g, bundle = _d42_bundle()
    at = SamplePoint(FULL_POINT)
    g_num = eval_matrix(g.matrix, at)
    gamma_num = fraction_oracle.christoffel(
        structure_fractions(d42, at), g_num, fraction_oracle.invert(g_num)
    )
    comps = [(i, j, m) for i in range(4) for j in range(4) for m in range(4)]
    nonzero = next(x for x in comps if gamma_num[x[0]][x[1]][x[2]] != 0)
    zero = next(x for x in comps if gamma_num[x[0]][x[1]][x[2]] == 0)

    # each error is planted into the cleared tensor that the corroboration reads
    def with_gamma(i, j, m, change=lambda x: x + expr(1)):
        christ = christoffel_with(bundle.christoffel, {(i, j, m): change})
        return bundle._replace(christoffel=christ)

    def with_riemann(i, j, k, s):
        riem = riemann_with(bundle.riemann, {(i, j, k, s): lambda x: x + expr(1)})
        return bundle._replace(riemann=riem)

    def with_ricci(**planted):
        # RIC and S are cached properties: the unperturbed ones are stored
        # beside a planted Ric, so that each error is in one tensor only
        ricci = RicciData(planted.pop("ricci", bundle.ricci.ricci), bundle.ricci.metric_inverse)
        vars(ricci).update({"operator": bundle.ricci.operator, "scalar": bundle.ricci.scalar})
        vars(ricci).update(planted)
        return bundle._replace(ricci=ricci)

    def with_scalar():
        return with_ricci(scalar=bundle.ricci.scalar + expr(1))

    def with_matrix_entry(field, i, j):
        rows = [list(row) for row in getattr(bundle.ricci, field).entries]
        rows[i][j] = rows[i][j] + expr(1)
        return with_ricci(**{field: ExprMatrix(rows)})

    def with_gamma_factor(i, j, m):
        # (a+2)/(a+1) != 1 moves the value through the denominator: a
        # comparison that dropped D or the power of L would not see it
        return with_gamma(i, j, m, lambda x: x * expr("(a+2)/(a+1)"))

    g_at = cleared(g_num)
    assert _numeric_corroboration(d42, g_at, bundle, at) is True
    for perturbed in (
        with_gamma(*nonzero),
        with_gamma(*zero),
        with_riemann(2, 1, 3, 0),
        with_scalar(),
        with_matrix_entry("ricci", 0, 3),
        with_matrix_entry("operator", 3, 3),
        with_gamma_factor(*nonzero),
    ):
        assert _numeric_corroboration(d42, g_at, perturbed, at) is False
