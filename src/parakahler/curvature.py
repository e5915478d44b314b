"""Levi-Civita connection and curvature of left-invariant metrics.

In an anholonomic left-invariant frame with structure constants C^p_ij the
connection coefficients and curvature are

    Gamma^m_ij = (1/2) g^{km} (C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip)
    R^s_ijk    = Gamma^s_ip Gamma^p_jk - Gamma^s_jp Gamma^p_ik - C^p_ij Gamma^s_pk
    Ric_jk     = R^i_ijk,   RIC = Ric . g^{-1},   S = trace(RIC)

(the torsion-free condition appears as Gamma^m_ij - Gamma^m_ji = C^m_ij).
Each kernel clears its inputs to one shared denominator, lists the nonzero
entries of each input row once, and forms each output numerator from those
alone with polynomial ring operations.  Gamma and Ric are normalized once per
entry, RIC and S only where read.  R^s_ijk is formed only for i < j (R^s_jik =
-R^s_ijk, R^s_iik = 0) and only where a term is nonzero; ``CurvatureTensor``
keeps those numerators over one denominator for ``ricci``, the 5D lift check
and the corroboration.  Everything is exact; labels are decided by symbolic
zero tests, never by sampling.  ``classify`` forms Jt Ric J and RIC J - J RIC
once per entry, and ``label_holds`` reads only the ``Classification`` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Optional

from .expressions import (
    _P_ZERO,
    EXPR_ZERO,
    ExprMatrix,
    Polynomial,
    RationalExpr,
    _make,
    _split,
    common_denominator,
    expr,
    nonzero_rows,
)
from .liealgebra import LieAlgebra
from .structures import Metric

@dataclass(frozen=True)
class Christoffel:
    dim: int
    gamma: tuple  # gamma[i][j][m] = Gamma^m_ij
    den: Polynomial  # gamma as numerators over one den:
    nums: tuple  # Gamma^m_ij = nums[(i * dim + j) * dim + m] / den


def christoffel(algebra: LieAlgebra, g: Metric, ginv: ExprMatrix) -> Christoffel:
    n = algebra.dim
    if g.dim != n:
        raise ValueError("metric dimension does not match the algebra")
    dg, gm = g.matrix._cleared()
    dinv, gi = ginv._cleared()
    dc, constants = algebra.cleared_constants()
    g_rows, gi_rows = nonzero_rows(gm), nonzero_rows(gi)
    # lowered brackets over dc*dg: low[x][y][z] = sum_p C^p_xy g_pz
    low = [[[_P_ZERO] * n for _ in range(n)] for _ in range(n)]
    for x, y, p, c in constants:
        for z, gpz in g_rows[p]:
            low[x][y][z] = low[x][y][z] + c * gpz
    den = (dc * dg * dinv).scale(2)
    split = _split(den)
    gamma = []
    for i, j in product(range(n), repeat=2):
        acc = [_P_ZERO] * n
        for k in range(n):
            term = low[i][j][k] + low[k][i][j] + low[k][j][i]
            if term.terms:
                for m, gkm in gi_rows[k]:
                    acc[m] = acc[m] + term * gkm
        gamma.append(tuple(_make(x, den, split) for x in acc))
    frozen = tuple(tuple(gamma[i * n:(i + 1) * n]) for i in range(n))
    den, nums = common_denominator([x for row in gamma for x in row])
    return Christoffel(n, frozen, den, tuple(nums))


@dataclass(frozen=True)
class CurvatureTensor:
    """R^s_ijk over one denominator: ``nums`` holds the nonzero numerators with
    i < j as ((i, j, k, s), numerator), in index order; ``comps`` normalizes."""

    dim: int
    den: Polynomial
    nums: tuple

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def normalized(self) -> dict:
        """{(i, j, k, s): R^s_ijk} for the nonzero components with i < j."""
        split = _split(self.den)
        return {key: _make(x, self.den, split) for key, x in self.nums}

    @cached_property
    def comps(self) -> tuple:  # comps[i][j][k][s] = R^s_ijk
        n = self.dim
        comps = [[[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k, s), r in self.normalized().items():
            comps[i][j][k][s], comps[j][i][k][s] = r, -r
        return tuple(
            tuple(tuple(tuple(row) for row in plane) for plane in block) for block in comps
        )


def curvature(algebra: LieAlgebra, gam: Christoffel) -> CurvatureTensor:
    n = algebra.dim
    dg = gam.den
    rows = nonzero_rows(gam.nums[r * n:(r + 1) * n] for r in range(n * n))
    g = [rows[i * n:(i + 1) * n] for i in range(n)]  # g[i][j]: (s, numerator of Gamma^s_ij)
    dc, constants = algebra.cleared_constants()
    # quad[i, j, k][s] = Gamma^s_ip Gamma^p_jk for i != j, shared by R^s_ijk
    # and R^s_jik; lin[i, j, k][s] = C^p_ij Gamma^s_pk, for i < j
    quad = {}
    for (i, j), k in product(permutations(range(n), 2), range(n)):
        acc = quad[i, j, k] = [_P_ZERO] * n
        for p, b in g[j][k]:
            for s, a in g[i][p]:
                acc[s] = acc[s] + a * b
    lin = {}
    for (i, j, p, c), k in product([t for t in constants if t[0] < t[1]], range(n)):
        acc = lin.setdefault((i, j, k), [_P_ZERO] * n)
        for s, b in g[p][k]:
            acc[s] = acc[s] + c * b
    # R = ((quad_ij - quad_ji) dc - lin dg) / (dg^2 dc): antisymmetric in
    # (i, j) by construction, so R^s_jik = -R^s_ijk and R^s_iik = 0
    nums = []
    for (i, j), k in product(combinations(range(n), 2), range(n)):
        lin_ijk = lin.get((i, j, k), [_P_ZERO] * n)
        for s, (x, y, z) in enumerate(zip(quad[i, j, k], quad[j, i, k], lin_ijk)):
            num = x - y  # each product formed only from nonzero factors
            num = (num * dc if num.terms else num) - (z * dg if z.terms else z)
            if num.terms:
                nums.append(((i, j, k, s), num))
    return CurvatureTensor(n, dg * dg * dc, tuple(nums))


@dataclass(frozen=True)
class RicciData:  # RIC and S are formed on first read: the 5D lift reads only Ric
    ricci: ExprMatrix
    metric_inverse: ExprMatrix

    @cached_property
    def operator(self) -> ExprMatrix:  # RIC = Ric . g^{-1}
        return self.ricci @ self.metric_inverse

    @cached_property
    def scalar(self) -> RationalExpr:  # S = trace(RIC)
        return self.operator.trace()


def ricci(riemann: CurvatureTensor, ginv: ExprMatrix) -> RicciData:
    """Ric_jk = R^i_ijk; ``RicciData`` forms RIC = Ric . g^{-1} and S = trace(RIC)."""
    n = riemann.dim
    # Ric_jk = sum_i R^i_ijk over R's den: R^s_ijk adds to Ric_jk where s = i,
    # and R^j_jik = -R^j_ijk to Ric_ik where s = j
    ric = [[_P_ZERO] * n for _ in range(n)]
    for (i, j, k, s), x in riemann.nums:
        if s == i:
            ric[j][k] = ric[j][k] + x
        elif s == j:
            ric[i][k] = ric[i][k] - x
    split = _split(riemann.den)
    ric = ExprMatrix([[_make(x, riemann.den, split) for x in row] for row in ric])
    return RicciData(ricci=ric, metric_inverse=ginv)


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


LABELS = ("flat", "ricci_flat", "einstein", "hermitian_ricci", "generic")  # most specific first


@dataclass(frozen=True)
class Classification:  # what classify found and read; the factor is 0 if Ric = 0
    label: str
    einstein_factor: Optional[RationalExpr]
    anti_invariant: bool
    operator_commutes: bool
    ric: ExprMatrix
    jric: ExprMatrix  # Jt Ric J


def anti_invariance_residual(ric: ExprMatrix, jric: ExprMatrix) -> ExprMatrix:
    """Ric(JX, JY) + Ric(X, Y) for ``jric`` = Jt Ric J; zero for a para-Kahler metric."""
    return jric + ric


def classify(bundle: CurvatureBundle, j_matrix: ExprMatrix) -> Classification:
    """The first of ``LABELS`` that holds; the one place forming Jt Ric J and RIC J - J RIC."""
    ric, op = bundle.ricci.ricci, bundle.ricci.operator
    jric = j_matrix.transpose() @ ric @ j_matrix  # Ric(JX, JY)
    label, factor = "generic", None
    if bundle.riemann.is_zero:
        label, factor = "flat", EXPR_ZERO
    elif ric.is_zero:
        label, factor = "ricci_flat", EXPR_ZERO
    else:
        scalar = bundle.ricci.scalar / expr(bundle.metric.dim)
        if (ric - bundle.metric.matrix.scale(scalar)).is_zero:
            label, factor = "einstein", scalar
        elif (jric - ric).is_zero:
            label = "hermitian_ricci"
    anti = anti_invariance_residual(ric, jric).is_zero
    commutes = (op @ j_matrix - j_matrix @ op).is_zero
    return Classification(label, factor, anti, commutes, ric, jric)


def label_holds(
    label: str, classification: Classification, factor: Optional[RationalExpr] = None
) -> bool:
    """Whether the property named by ``label`` holds, read off ``classify``.

    The labels nest: flat < ricci_flat < einstein (factor 0) and ricci_flat <
    hermitian_ricci; generic holds only where nothing more specific does.  A
    hermitian_ricci label against a computed einstein one subtracts Ric from Jt Ric J.
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
            return (classification.jric - classification.ric).is_zero
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
