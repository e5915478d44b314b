"""Fraction-free kernels against the entry-by-entry rational arithmetic.

The ``ref_*`` functions below are the per-step implementations the kernels
replaced: every product and partial sum is a normalized ``RationalExpr``.
Normalization is canonical, so the kernels must print identically.
"""

import random
import time
from itertools import product

from parakahler.catalog import builtin_catalog
from parakahler.curvature import christoffel, curvature, curvature_bundle, ricci
from parakahler.expressions import (
    EXPR_ONE,
    EXPR_ZERO,
    ExprMatrix,
    SingularMatrixError,
    expr,
    format_expr,
)
from parakahler.liealgebra import LieAlgebra
from parakahler.structures import Metric, metric_from, nijenhuis

from oracles import from_rows

HALF = expr("1/2")


# -- reference implementations: one normalization per operation --------------


def ref_matmul(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = EXPR_ZERO
            for k in range(a.cols):
                x, y = a[i, k], b[k, j]
                if not x.is_zero and not y.is_zero:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return ExprMatrix(out)


def ref_det(m):
    n = m.rows
    memo = {}

    def minor(r, cols):
        if r == n:
            return EXPR_ONE
        if cols in memo:
            return memo[cols]
        acc = EXPR_ZERO
        for pos, c in enumerate(cols):
            e = m[r, c]
            if e.is_zero:
                continue
            sub = minor(r + 1, cols[:pos] + cols[pos + 1 :])
            if sub.is_zero:
                continue
            term = e * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(n)))


def ref_inverse(m):
    n = m.rows
    d = ref_det(m)
    if d.is_zero:
        raise SingularMatrixError("matrix determinant is identically zero")
    adj = [[EXPR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = ExprMatrix(
                [[m[r, c] for c in range(n) if c != j] for r in range(n) if r != i]
            )
            cof = ref_det(sub) if n > 1 else EXPR_ONE
            adj[j][i] = -cof if (i + j) % 2 else cof
    return ExprMatrix(adj).scale(EXPR_ONE / d)


def ref_constants(algebra):
    """Every nonzero (i, j, k, C^k_ij), both index orders, 0-based, read off
    ``algebra.c`` so the references share no sparse list with the kernels."""
    n = algebra.dim
    return [
        (i, j, k, algebra.c(i, j, k))
        for i, j, k in product(range(n), repeat=3)
        if not algebra.c(i, j, k).is_zero
    ]


def ref_christoffel(algebra, g, ginv):
    n = algebra.dim
    gm = g.matrix
    low = [[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (x, y, p, c) in ref_constants(algebra):
        for z in range(n):
            if not gm[p, z].is_zero:
                low[x][y][z] = low[x][y][z] + c * gm[p, z]
    gamma = [[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            inner = [low[i][j][k] + low[k][i][j] + low[k][j][i] for k in range(n)]
            for m in range(n):
                acc = EXPR_ZERO
                for k in range(n):
                    if not inner[k].is_zero and not ginv[k, m].is_zero:
                        acc = acc + inner[k] * ginv[k, m]
                if not acc.is_zero:
                    gamma[i][j][m] = HALF * acc
    return gamma


def ref_curvature(algebra, gamma):
    n = algebra.dim
    g = gamma
    comps = [[[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    acc = EXPR_ZERO
                    for p in range(n):
                        a, b = g[i][p][s], g[j][k][p]
                        if not a.is_zero and not b.is_zero:
                            acc = acc + a * b
                        a, b = g[j][p][s], g[i][k][p]
                        if not a.is_zero and not b.is_zero:
                            acc = acc - a * b
                        c = algebra.c(i, j, p)
                        if not c.is_zero and not g[p][k][s].is_zero:
                            acc = acc - c * g[p][k][s]
                    comps[i][j][k][s] = acc
    return comps


def ref_ricci(algebra, riemann, ginv):
    n = algebra.dim
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            acc = EXPR_ZERO
            for i in range(n):
                acc = acc + riemann[i][j][k][i]
            row.append(acc)
        rows.append(row)
    ric = ExprMatrix(rows)
    operator = ref_matmul(ric, ginv)
    return ric, operator, operator.trace()


def ref_nijenhuis(algebra, j_matrix):
    n = algebra.dim
    j = j_matrix.entries
    comps = [[[algebra.c(i, jj, k) for k in range(n)] for jj in range(n)] for i in range(n)]
    constants = ref_constants(algebra)
    for (l, m, k, c) in constants:
        for i in range(n):
            for jj in range(n):
                if not j[l][i].is_zero and not j[m][jj].is_zero:
                    comps[i][jj][k] = comps[i][jj][k] + j[l][i] * j[m][jj] * c
    for (l, jj, m, c) in constants:
        for i in range(n):
            for k in range(n):
                if not j[l][i].is_zero and not j[k][m].is_zero:
                    comps[i][jj][k] = comps[i][jj][k] - j[l][i] * j[k][m] * c
    for (i, l, m, c) in constants:
        for jj in range(n):
            for k in range(n):
                if not j[l][jj].is_zero and not j[k][m].is_zero:
                    comps[i][jj][k] = comps[i][jj][k] - j[l][jj] * j[k][m] * c
    return comps


# -- seeded cases -------------------------------------------------------------

# entry pools by denominator kind; every pool also draws plain integers
POOLS = {
    "constant": ("1/2", "-3/4", "2", "a", "a+c", "2*b-1"),
    "monomial": ("b", "1/b", "a/b", "b^2", "1/b^2", "(a+1)/b^2", "c/(a*b)"),
    "non-monomial": ("c^2+d^2", "1/(c^2+d^2)", "c/(c^2+d^2)", "(a+d)/(c^2+d^2)", "d"),
}
CONSTANT_POOLS = {
    # the builtin algebras have integer or polynomial constants only, so the
    # shared structure-constant denominator is exercised here
    "integer": ("1", "-1", "2", "a"),
    "denominator": ("1/2", "1/b", "2/b", "a/b"),
}


def _draw(rng, pool):
    if rng.random() < 0.5:
        return expr(rng.randint(-3, 3))
    return expr(rng.choice(pool))


def _random_algebra(rng, n, pool):
    brackets = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if rng.random() < 0.08:
                    brackets.append((i, j, k, _draw(rng, pool)))
    return LieAlgebra.from_brackets("random", n, brackets)


def _random_metric(rng, n, pool):
    # a diagonal from the pool plus one integer off-diagonal pair keeps det g,
    # and so the work of the entrywise reference, small
    while True:
        grid = [[EXPR_ZERO] * n for _ in range(n)]
        for i in range(n):
            grid[i][i] = _draw(rng, pool)
        i, j = rng.sample(range(n), 2)
        grid[i][j] = grid[j][i] = expr(rng.choice((-2, -1, 1, 2)))
        m = ExprMatrix(grid)
        if not ref_det(m).is_zero:
            return Metric(m)


def _random_matrix(rng, n, pool, density=0.5):
    return ExprMatrix(
        [[_draw(rng, pool) if rng.random() < density else EXPR_ZERO for _ in range(n)]
         for _ in range(n)]
    )


def _texts(values):
    return [format_expr(v) for v in values]


def _flat(tensor):
    if isinstance(tensor, ExprMatrix):
        return [x for row in tensor.entries for x in row]
    if isinstance(tensor, (list, tuple)):
        return [x for part in tensor for x in _flat(part)]
    return [tensor]


def test_kernels_print_like_entrywise_arithmetic():
    cases = 0
    for kind, pool in POOLS.items():
        for constants, cpool in CONSTANT_POOLS.items():
            for case in range(9):
                rng = random.Random(f"{kind}/{constants}/{case}")
                # the kernels do not depend on the dimension; dimension 3 keeps
                # the entrywise reference affordable
                n = 4 if case % 3 == 0 else 3
                tag = (kind, constants, case)
                algebra = _random_algebra(rng, n, cpool)
                g = _random_metric(rng, n, pool)
                ginv = ref_inverse(g.matrix)
                assert _texts(_flat(g.matrix.inverse())) == _texts(_flat(ginv)), tag
                assert format_expr(g.matrix.det()) == format_expr(ref_det(g.matrix)), tag

                gam = christoffel(algebra, g, ginv)
                ref_gam = ref_christoffel(algebra, g, ginv)
                assert _texts(_flat(gam.gamma)) == _texts(_flat(ref_gam)), tag
                riem = curvature(algebra, gam)
                ref_riem = ref_curvature(algebra, ref_gam)
                assert _texts(_flat(riem.comps)) == _texts(_flat(ref_riem)), tag
                ric = ricci(riem, ginv)
                ref_ric, ref_op, ref_s = ref_ricci(algebra, ref_riem, ginv)
                assert _texts(_flat(ric.ricci)) == _texts(_flat(ref_ric)), tag
                assert _texts(_flat(ric.operator)) == _texts(_flat(ref_op)), tag
                assert format_expr(ric.scalar) == format_expr(ref_s), tag

                j_matrix = _random_matrix(rng, n, pool)
                assert _texts(_flat(nijenhuis(algebra, j_matrix).comps)) == _texts(
                    _flat(ref_nijenhuis(algebra, j_matrix))
                ), tag
                other = _random_matrix(rng, n, pool)
                assert _texts(_flat(j_matrix @ other)) == _texts(
                    _flat(ref_matmul(j_matrix, other))
                ), tag
                dense = _random_matrix(rng, 3, pool, density=0.8)
                assert format_expr(dense.det()) == format_expr(ref_det(dense)), tag
                if not ref_det(dense).is_zero:
                    assert _texts(_flat(dense.inverse())) == _texts(
                        _flat(ref_inverse(dense))
                    ), tag
                cases += 1
    assert cases >= 50


def _assert_bundle_matches_entrywise(algebra, g, tag):
    bundle = curvature_bundle(algebra, g)
    ginv = ref_inverse(g.matrix)
    ref_gam = ref_christoffel(algebra, g, ginv)
    ref_riem = ref_curvature(algebra, ref_gam)
    ref_ric, ref_op, ref_s = ref_ricci(algebra, ref_riem, ginv)
    assert _texts(_flat(bundle.metric_inverse)) == _texts(_flat(ginv)), tag
    assert _texts(_flat(bundle.christoffel.gamma)) == _texts(_flat(ref_gam)), tag
    assert _texts(_flat(bundle.riemann.comps)) == _texts(_flat(ref_riem)), tag
    assert _texts(_flat(bundle.ricci.ricci)) == _texts(_flat(ref_ric)), tag
    assert _texts(_flat(bundle.ricci.operator)) == _texts(_flat(ref_op)), tag
    assert format_expr(bundle.ricci.scalar) == format_expr(ref_s), tag


def test_bundle_matches_entrywise_pipeline_on_builtin_entries():
    catalog = builtin_catalog()
    for entry_id in ("r2p.omega.J1", "d4lam.omega.J3", "h4.omegap.J"):
        entry = next(e for e in catalog.entries if e.entry_id == entry_id)
        g = metric_from(catalog.form_of(entry), entry.j_matrix)
        _assert_bundle_matches_entrywise(catalog.algebra_of(entry), g, entry_id)


def test_non_monomial_structure_constant_denominator():
    algebra = LieAlgebra.from_brackets(
        "cd", 4, [(1, 2, 2, "1/(c^2+d^2)"), (1, 3, 3, "c/(c^2+d^2)"), (2, 4, 1, 1)]
    )
    g = Metric(from_rows(
        [[1, 0, 0, 1], [0, "a", 0, 0], [0, 0, -1, 0], [1, 0, 0, "b"]]
    ))
    _assert_bundle_matches_entrywise(algebra, g, "cd")
    j_matrix = from_rows(
        [[1, 0, "c", 0], [0, -1, 0, 0], [0, "1/b", 1, 0], [0, 0, 0, -1]]
    )
    assert _texts(_flat(nijenhuis(algebra, j_matrix).comps)) == _texts(
        _flat(ref_nijenhuis(algebra, j_matrix))
    )


# -- r2p.omega.J1 in the chain-shear basis f_i = e_i + e_{i+1} ----------------


def _chain_shear(n):
    return ExprMatrix(
        [[EXPR_ONE if r in (c, c + 1) else EXPR_ZERO for c in range(n)] for r in range(n)]
    )


def test_chain_shear_r2p_j1_inverts_and_curves_quickly():
    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == "r2p.omega.J1")
    algebra = catalog.algebra_of(entry)
    n = algebra.dim
    p = _chain_shear(n)
    q = ExprMatrix(
        [[expr((-1) ** (r - c)) if r >= c else EXPR_ZERO for c in range(n)] for r in range(n)]
    )
    assert ref_matmul(p, q) == ExprMatrix.identity(n)
    # C'^c_ab = Q^c_k C^k_ij P^i_a P^j_b and g' = P^T g P
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                value = EXPR_ZERO
                for (i, j, k, v) in ref_constants(algebra):
                    value = value + q[c, k] * v * p[i, a] * p[j, b]
                if not value.is_zero:
                    brackets.append((a + 1, b + 1, c + 1, value))
    sheared = LieAlgebra.from_brackets("r2p-chain", n, brackets, algebra.params)
    g = metric_from(catalog.form_of(entry), entry.j_matrix).matrix
    g_sheared = Metric(ref_matmul(ref_matmul(p.transpose(), g), p))
    start = time.perf_counter()
    ginv = g_sheared.matrix.inverse()
    assert ginv @ g_sheared.matrix == ExprMatrix.identity(n)
    bundle = curvature_bundle(sheared, g_sheared)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    # the scalar curvature is a basis invariant
    builtin = curvature_bundle(algebra, metric_from(catalog.form_of(entry), entry.j_matrix))
    assert format_expr(bundle.ricci.scalar) == format_expr(builtin.ricci.scalar)
