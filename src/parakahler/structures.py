"""Para-complex structure axioms, compatibility, and derived metrics.

An endomorphism J (columns = images of basis vectors) is para-complex when
J^2 = Id with balanced eigenvalues (trace J = 0) and its Nijenhuis tensor
vanishes.  Compatibility with a two-form omega means omega(JX, Y) +
omega(X, JY) = 0; the associated metric is g(X, Y) = omega(X, JY), i.e.
g = omega . J as matrices.  The Nijenhuis tensor is two contractions of
A^k_im = J^l_i C^k_lm, formed once:

    N^k_ij = C^k_ij + J^m_j A^k_im - J^k_m (A^m_ij - A^m_ji),

normalized for i < j only and filled by N^k_ji = -N^k_ij, N^k_ii = 0, since
C^k_ji = -C^k_ij.  The compatibility checks read P1 = omega J and P2 = (omega J)^T J,
formed once by the caller: as J^T omega = -(omega J)^T, the omega check reads
the asymmetry of P1 and omega - P2; once it passes, P1 = g and P2 = g J.  All
checks are symbolic and report structured findings instead of raising, so
that broken inputs can be diagnosed; every reported identity, here and in
``contact``, goes through ``collect_residuals``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, NamedTuple, Tuple

from .expressions import _P_ZERO, EXPR_ZERO, ExprMatrix, RationalExpr, _make, format_expr
from .liealgebra import LieAlgebra, TwoForm


class MetricAsymmetryError(ValueError):
    """omega . J came out asymmetric: omega and J are not compatible."""


class SingularMetricError(ValueError):
    pass


class IdentityReport(NamedTuple):
    identities: Dict[str, bool]
    residuals: Tuple[Tuple[str, str], ...]  # (component tag, residual text)

    @property
    def ok(self) -> bool:
        return all(self.identities.values())


_MAX_RESIDUALS = 16


def collect_residuals(cases, *identities: str) -> IdentityReport:
    """Read ``(identity, where, residual)`` cases in order; report which of
    ``identities`` hold and ``(where, text)`` for the first 16 nonzero
    residuals.  Nothing past that cap is formatted."""
    failed = set()
    residuals = []
    for identity, where, residual in cases:
        if not residual.is_zero:
            failed.add(identity)
            if len(residuals) < _MAX_RESIDUALS:
                residuals.append((where, format_expr(residual)))
    return IdentityReport({name: name not in failed for name in identities}, tuple(residuals))


def _entries(label: str, m: ExprMatrix):
    """``(label[i,j], m[i,j])`` for every entry of ``m``, row by row, 1-based."""
    return [
        (f"{label}[{i + 1},{j + 1}]", m[i, j]) for i in range(m.rows) for j in range(m.cols)
    ]


def _axiom_check(axiom: str, cases) -> IdentityReport:
    """One identity ``axiom`` over ``(where, residual)`` cases."""
    return collect_residuals(((axiom, where, r) for where, r in cases), axiom)


def check_involution(j_matrix: ExprMatrix) -> IdentityReport:
    """J^2 = Id entrywise and trace J = 0, both symbolically."""
    j_matrix._square()
    residual = j_matrix @ j_matrix - ExprMatrix.identity(j_matrix.rows)
    return _axiom_check(
        "involution", _entries("J^2-Id", residual) + [("trace(J)", j_matrix.trace())]
    )


def check_omega_compat(omega: TwoForm, wj: ExprMatrix, wjj: ExprMatrix) -> IdentityReport:
    """omega(JX, Y) + omega(X, JY) = 0, cross-checked as omega(JX,JY) = -omega,
    read from the products ``wj`` = omega J and ``wjj`` = (omega J)^T J."""
    primary = _entries("Jt*w+w*J", wj - wj.transpose())
    crosscheck = _entries("w(J.,J.)+w", omega.matrix - wjj)
    return _axiom_check("omega-compat", primary + crosscheck)


class NijenhuisTensor:
    """Components N^k_ij of the integrability obstruction."""

    __slots__ = ("dim", "comps")

    def __init__(self, dim: int, comps):
        self.dim = dim
        self.comps = comps  # comps[i][j][k] = N^k_ij

    def as_check(self) -> IdentityReport:
        cases = (
            (f"N[{i + 1},{j + 1};{k + 1}]", self.comps[i][j][k])
            for i, j, k in product(range(self.dim), repeat=3)
        )
        return _axiom_check("nijenhuis", cases)


def nijenhuis(algebra: LieAlgebra, j_matrix: ExprMatrix) -> NijenhuisTensor:
    """N^k_ij = C^k_ij + J^l_i J^m_j C^k_lm - J^l_i J^k_m C^m_lj - J^l_j J^k_m C^m_il.

    With A^k_im = J^l_i C^k_lm this is C^k_ij + J^m_j A^k_im - J^k_m (A^m_ij - A^m_ji),
    formed and normalized for i < j only: C^k_ji = -C^k_ij makes it
    antisymmetric in (i, j), so N^k_ji = -N^k_ij and N^k_ii = 0."""
    n = algebra.dim
    if j_matrix.rows != n:
        raise ValueError("endomorphism dimension does not match the algebra")
    dj, j = j_matrix._cleared()
    dc, constants = algebra.cleared_constants()
    dj2 = dj * dj
    # a[i][m][k] = A^k_im, numerators over dj dc
    a = [[[_P_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (l, m, k, c), i in product(constants, range(n)):
        if not j[l][i].is_zero:
            a[i][m][k] = a[i][m][k] + j[l][i] * c
    cdj2 = {(l, m, k): c * dj2 for l, m, k, c in constants if l < m}  # C^k_lm dj^2
    den = dj2 * dc
    comps = [[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, jj in combinations(range(n), 2):
        skew = [x - y for x, y in zip(a[i][jj], a[jj][i])]  # A^m_ij - A^m_ji
        for k in range(n):
            acc = cdj2.get((i, jj, k), _P_ZERO)
            for m in range(n):
                if not j[m][jj].is_zero and not a[i][m][k].is_zero:
                    acc = acc + j[m][jj] * a[i][m][k]
                if not j[k][m].is_zero and not skew[m].is_zero:
                    acc = acc - j[k][m] * skew[m]
            comps[i][jj][k] = x = _make(acc, den)
            comps[jj][i][k] = -x
    return NijenhuisTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in comps))


class Metric:
    """Symmetric bilinear form g_ij on the basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: ExprMatrix):
        matrix._square()
        for i in range(matrix.rows):
            for j in range(i + 1, matrix.cols):
                if not (matrix[i, j] - matrix[j, i]).is_zero:
                    raise MetricAsymmetryError(
                        f"metric asymmetric at ({i + 1}, {j + 1}): "
                        f"{format_expr(matrix[i, j])} vs {format_expr(matrix[j, i])}"
                    )
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, i: int, j: int) -> RationalExpr:
        return self.matrix[i, j]

    def __eq__(self, other):
        return isinstance(other, Metric) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Metric({self.matrix})"


def metric_from(omega: TwoForm, j_matrix: ExprMatrix) -> Metric:
    """g = omega . J; raises if it is asymmetric."""
    return Metric(omega.matrix @ j_matrix)


def omega_from(g: Metric, j_matrix: ExprMatrix) -> TwoForm:
    """Recover omega(X, Y) = g(X, JY) = (g . J)_ij; closes the compatibility loop."""
    return TwoForm(g.matrix @ j_matrix)


def check_metric_compat(g: Metric, gj: ExprMatrix) -> IdentityReport:
    """g(JX, Y) + g(X, JY) = 0 entrywise, read from the product ``gj`` = g J:
    g is symmetric, so J^T g = (g J)^T."""
    return _axiom_check("metric-compat", _entries("Jt*g+g*J", gj.transpose() + gj))


def signature_at(g: List[List[int]]) -> Tuple[int, int]:
    """Exact signature (p, q) of a symmetric integer matrix (g at a sample over
    a positive denominator) by fraction-free symmetric elimination (Bareiss):
    the active block is the Schur complement times the last pivot ``prev``, so
    a pivot d counts with the sign of d/prev.  With a zero active diagonal,
    adding row and column j to i makes the diagonal entry 2 g_ij."""
    m = [list(row) for row in g]
    active = list(range(len(m)))
    plus = minus = 0
    prev = 1
    while active:
        pivot = next((k for k in active if m[k][k]), None)
        if pivot is None:
            pair = next(((i, j) for i in active for j in active if i < j and m[i][j]), None)
            if pair is None:
                raise SingularMetricError("metric is singular at this sample")
            i, j = pair
            for k in active:
                m[i][k] += m[j][k]
            for k in active:
                m[k][i] += m[k][j]
            pivot = i
        d = m[pivot][pivot]
        if (d > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        active.remove(pivot)
        line = m[pivot]
        for i in active:
            row = m[i]
            for j in active:
                row[j] = (d * row[j] - row[pivot] * line[j]) // prev
        prev = d
    return plus, minus
