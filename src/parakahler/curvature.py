"""Levi-Civita connection and curvature of left-invariant metrics.

In an anholonomic left-invariant frame with structure constants C^p_ij the
connection coefficients and curvature are

    Gamma^m_ij = (1/2) g^{km} (C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip)
    R^s_ijk    = Gamma^s_ip Gamma^p_jk - Gamma^s_jp Gamma^p_ik - C^p_ij Gamma^s_pk
    Ric_jk     = R^i_ijk,   RIC = Ric . g^{-1},   S = trace(RIC)

(the torsion-free condition appears as Gamma^m_ij - Gamma^m_ji = C^m_ij).
Each kernel clears its inputs to one shared denominator, forms every output
numerator with polynomial ring operations and normalizes it once.  The
curvature numerator is antisymmetric in (i, j) as written, so only R^s_ijk
with i < j is formed and normalized; R^s_jik is its negation, which is
canonical too, and R^s_iik is zero.
Everything is exact; classification labels are decided by symbolic zero
tests, never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Optional

from .expressions import (
    _P_ZERO,
    EXPR_ZERO,
    ExprMatrix,
    RationalExpr,
    _make,
    common_denominator,
    expr,
)
from .liealgebra import LieAlgebra
from .structures import Metric

@dataclass(frozen=True)
class Christoffel:
    dim: int
    gamma: tuple  # gamma[i][j][m] = Gamma^m_ij


def christoffel(algebra: LieAlgebra, g: Metric, ginv: ExprMatrix) -> Christoffel:
    n = algebra.dim
    if g.dim != n:
        raise ValueError("metric dimension does not match the algebra")
    dg, gm = g.matrix._cleared()
    dinv, gi = ginv._cleared()
    dc, constants = algebra.cleared_constants()
    # lowered brackets over dc*dg: low[x][y][z] = sum_p C^p_xy g_pz
    low = [[[_P_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (x, y, p, c), z in product(constants, range(n)):
        if not gm[p][z].is_zero:
            low[x][y][z] = low[x][y][z] + c * gm[p][z]
    den = (dc * dg * dinv).scale(2)
    gamma = [[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        inner = [low[i][j][k] + low[k][i][j] + low[k][j][i] for k in range(n)]
        for m in range(n):
            acc = _P_ZERO
            for term, gkm in zip(inner, (row[m] for row in gi)):
                if not term.is_zero and not gkm.is_zero:
                    acc = acc + term * gkm
            gamma[i][j][m] = _make(acc, den)
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    return Christoffel(n, frozen)


@dataclass(frozen=True)
class CurvatureTensor:
    dim: int
    comps: tuple  # comps[i][j][k][s] = R^s_ijk

    @property
    def is_zero(self) -> bool:
        n = self.dim
        return all(
            self.comps[i][j][k][s].is_zero
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for s in range(n)
        )


def curvature(algebra: LieAlgebra, gam: Christoffel) -> CurvatureTensor:
    n = algebra.dim
    dg, flat = common_denominator([x for plane in gam.gamma for row in plane for x in row])
    g = [[flat[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    dc, constants = algebra.cleared_constants()
    # quad[i][j][k][s] = Gamma^s_ip Gamma^p_jk for i != j, shared by R^s_ijk
    # and R^s_jik; lin[i][j][k][s] = C^p_ij Gamma^s_pk, for i < j
    quad = [[[[_P_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    lin = [[[[_P_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j), k, p in product(permutations(range(n), 2), range(n), range(n)):
        b, acc = g[j][k][p], quad[i][j][k]
        if b.is_zero:
            continue
        for s, a in enumerate(g[i][p]):
            if not a.is_zero:
                acc[s] = acc[s] + a * b
    for (i, j, p, c), k in product([t for t in constants if t[0] < t[1]], range(n)):
        acc = lin[i][j][k]
        for s, b in enumerate(g[p][k]):
            if not b.is_zero:
                acc[s] = acc[s] + c * b
    # R = ((quad_ij - quad_ji) dc - lin dg) / (dg^2 dc): antisymmetric in
    # (i, j) by construction, so R^s_jik = -R^s_ijk and R^s_iik = 0
    den = dg * dg * dc
    comps = [[[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j), k, s in product(combinations(range(n), 2), range(n), range(n)):
        num = (quad[i][j][k][s] - quad[j][i][k][s]) * dc - lin[i][j][k][s] * dg
        comps[i][j][k][s] = r = _make(num, den)
        comps[j][i][k][s] = -r
    frozen = tuple(
        tuple(tuple(tuple(row) for row in plane) for plane in block) for block in comps
    )
    return CurvatureTensor(n, frozen)


@dataclass(frozen=True)
class RicciData:
    ricci: ExprMatrix
    operator: ExprMatrix
    scalar: RationalExpr


def ricci(riemann: CurvatureTensor, ginv: ExprMatrix) -> RicciData:
    """Ric_jk = R^i_ijk, operator RIC = Ric . g^{-1}, scalar S = trace(RIC)."""
    n = riemann.dim
    comps = riemann.comps
    dr, flat = common_denominator(
        [comps[i][j][k][i] for j in range(n) for k in range(n) for i in range(n)]
    )
    terms = [flat[r * n : (r + 1) * n] for r in range(n * n)]  # R^i_ijk at j * n + k
    ric = ExprMatrix(
        [[_make(sum(terms[j * n + k], _P_ZERO), dr) for k in range(n)] for j in range(n)]
    )
    operator = ric @ ginv
    return RicciData(ricci=ric, operator=operator, scalar=operator.trace())


@dataclass(frozen=True)
class CurvatureBundle:
    christoffel: Christoffel
    riemann: CurvatureTensor
    ricci: RicciData
    metric: Metric
    metric_inverse: ExprMatrix


def curvature_bundle(algebra: LieAlgebra, g: Metric) -> CurvatureBundle:
    """Run the whole pipeline sharing one metric inversion."""
    ginv = g.matrix.inverse()
    gam = christoffel(algebra, g, ginv)
    riem = curvature(algebra, gam)
    ric = ricci(riem, ginv)
    return CurvatureBundle(gam, riem, ric, g, ginv)


@dataclass(frozen=True)
class Classification:
    label: str
    einstein_factor: Optional[RationalExpr]


def hermitian_residual(ric: ExprMatrix, j_matrix: ExprMatrix, jric=None) -> ExprMatrix:
    """Ric(JX, JY) - Ric(X, Y) as a matrix: Jt . Ric . J - Ric; ``jric`` is
    Jt . Ric . J when the caller has formed it."""
    return (j_matrix.transpose() @ ric @ j_matrix if jric is None else jric) - ric


def anti_invariance_residual(ric: ExprMatrix, j_matrix: ExprMatrix, jric=None) -> ExprMatrix:
    """Ric(JX, JY) + Ric(X, Y); identically zero for any para-Kahler metric.
    ``jric`` is Jt . Ric . J when the caller has formed it."""
    return (j_matrix.transpose() @ ric @ j_matrix if jric is None else jric) + ric


def classify(bundle: CurvatureBundle, j_matrix: ExprMatrix, jric=None) -> Classification:
    """Most specific label wins: flat > ricci_flat > einstein > hermitian > generic.
    ``jric`` is Jt . Ric . J when the caller has formed it."""
    ric = bundle.ricci.ricci
    if bundle.riemann.is_zero:
        return Classification("flat", EXPR_ZERO)
    if ric.is_zero:
        return Classification("ricci_flat", EXPR_ZERO)
    factor = bundle.ricci.scalar / expr(bundle.metric.dim)
    if (ric - bundle.metric.matrix.scale(factor)).is_zero:
        return Classification("einstein", factor)
    if hermitian_residual(ric, j_matrix, jric).is_zero:
        return Classification("hermitian_ricci", None)
    return Classification("generic", None)


def label_holds(
    label: str,
    classification: Classification,
    bundle: CurvatureBundle,
    j_matrix: ExprMatrix,
    factor: Optional[RationalExpr] = None,
) -> bool:
    """Whether the property named by ``label`` holds, read off ``classify``.

    The labels nest: flat < ricci_flat < einstein (factor 0) and ricci_flat <
    hermitian_ricci; generic holds only where nothing more specific does.  Only
    a hermitian_ricci label against a computed einstein one is left open by the
    classification, and forms its residual.
    """
    computed = classification.label
    if label == "flat":
        return computed == "flat"
    if label == "ricci_flat":
        return computed in ("flat", "ricci_flat")
    if label == "einstein":
        found = classification.einstein_factor
        return found is not None and (factor is None or (found - factor).is_zero)
    if label == "hermitian_ricci":
        if computed == "einstein":
            return hermitian_residual(bundle.ricci.ricci, j_matrix).is_zero
        return computed != "generic"
    if label == "generic":
        return computed == "generic"
    raise ValueError(f"unknown label {label!r}")


def compare_ric_operator(computed: ExprMatrix, expected: ExprMatrix):
    """Entrywise residuals (i, j, computed - expected), 1-based; empty iff equal."""
    if (computed.rows, computed.cols) != (expected.rows, expected.cols):
        raise ValueError("shape mismatch in Ricci-operator comparison")
    residuals = []
    for i in range(computed.rows):
        for j in range(computed.cols):
            diff = computed[i, j] - expected[i, j]
            if not diff.is_zero:
                residuals.append((i + 1, j + 1, diff))
    return residuals
