"""Exact rational linear algebra and a non-symbolic curvature pipeline.

Everything here works on plain ``Fraction`` values.  The curvature functions
re-implement the connection/curvature/Ricci formulas with independent code
(Gauss-Jordan inversion instead of cofactor expansion, plain loops instead of
the symbolic fraction-free kernels) so they can serve as an oracle for the
symbolic pipeline: at any admissible parameter sample the two must agree
exactly.  The loops of ``christoffel`` and ``curvature`` run only over the
nonzero entries of their inputs; a skipped factor is exactly zero, so the sums
equal the dense formulas in the docstrings.  ``christoffel`` and ``ricci``
take g^{-1} from the caller, who inverts g once.  Nothing here is shared with
the symbolic path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Mat = List[List[Fraction]]


def mat_identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def invert(matrix: Sequence[Sequence[Fraction]]) -> Mat:
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular at this sample")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def rref(matrix: Sequence[Sequence[Fraction]]) -> Tuple[Mat, List[int]]:
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    cols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


# -- independent curvature pipeline -----------------------------------------


def _nonzero(row: Sequence) -> List[Tuple[int, Fraction]]:
    return [(idx, v) for idx, v in enumerate(row) if v]


def christoffel(c: Sequence, g: Mat, ginv: Mat) -> list:
    """Gamma[i][j][m] = (1/2) g^{km} (C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip)."""
    n = len(g)
    ginv_rows = [_nonzero(row) for row in ginv]
    g_rows = [_nonzero(row) for row in g]
    c_rows = [[_nonzero(c[i][j]) for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # inner[k] = C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip, once per (i, j, k)
            inner = [Fraction(0)] * n
            for p, cp in c_rows[i][j]:
                for k, gpk in g_rows[p]:
                    inner[k] += cp * gpk
            for k in range(n):
                for p, cp in c_rows[k][i]:
                    if g[p][j]:
                        inner[k] += cp * g[p][j]
                for p, cp in c_rows[k][j]:
                    if g[i][p]:
                        inner[k] += cp * g[i][p]
            acc = [Fraction(0)] * n
            for k, v in enumerate(inner):
                if v:
                    for m, gkm in ginv_rows[k]:
                        acc[m] += gkm * v
            gamma[i][j] = [half * v for v in acc]
    return gamma


def curvature(c: Sequence, gamma: Sequence) -> list:
    """R[i][j][k][s] = Gamma^s_ip Gamma^p_jk - Gamma^s_jp Gamma^p_ik - C^p_ij Gamma^s_pk."""
    n = len(gamma)
    gamma_rows = [[_nonzero(gamma[i][j]) for j in range(n)] for i in range(n)]
    c_rows = [[_nonzero(c[i][j]) for j in range(n)] for i in range(n)]
    riem = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [Fraction(0)] * n
                for p, gjkp in gamma_rows[j][k]:
                    for s, gips in gamma_rows[i][p]:
                        acc[s] += gips * gjkp
                for p, gikp in gamma_rows[i][k]:
                    for s, gjps in gamma_rows[j][p]:
                        acc[s] -= gjps * gikp
                for p, cp in c_rows[i][j]:
                    for s, gpks in gamma_rows[p][k]:
                        acc[s] -= cp * gpks
                riem[i][j][k] = acc
    return riem


def ricci(riem: Sequence, ginv: Mat) -> Tuple[Mat, Mat, Fraction]:
    """Ricci tensor Ric_jk = R^i_ijk, operator Ric * g^{-1}, scalar trace."""
    n = len(ginv)
    ric = [
        [sum((riem[i][j][k][i] for i in range(n)), Fraction(0)) for k in range(n)]
        for j in range(n)
    ]
    operator = mat_mul(ric, ginv)
    scalar = sum((operator[i][i] for i in range(n)), Fraction(0))
    return ric, operator, scalar


def nijenhuis(c: Sequence, j_matrix: Mat) -> list:
    """N[i][j][k] = C^k_ij + J^l_i J^m_j C^k_lm - J^l_i J^k_m C^m_lj - J^l_j J^k_m C^m_il."""
    n = len(j_matrix)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = c[i][j][k]
                for l in range(n):
                    for m in range(n):
                        acc += j_matrix[l][i] * j_matrix[m][j] * c[l][m][k]
                        acc -= j_matrix[l][i] * j_matrix[k][m] * c[l][j][m]
                        acc -= j_matrix[l][j] * j_matrix[k][m] * c[i][l][m]
                out[i][j][k] = acc
    return out
