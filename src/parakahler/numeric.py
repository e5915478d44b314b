"""The Fraction oracle: a non-symbolic curvature pipeline.

Everything here works on plain ``Fraction`` values at one parameter sample.
``invert``, ``christoffel``, ``curvature`` and ``ricci`` re-implement the
connection/curvature/Ricci formulas with independent code (Gauss-Jordan
inversion instead of cofactor expansion, plain loops instead of the symbolic
fraction-free kernels), so the verifier uses them as an oracle for the
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


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


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
