"""The Fraction oracle: a non-symbolic curvature pipeline.

``invert``, ``christoffel``, ``curvature`` and ``ricci`` take and return
``Fraction`` values at one parameter sample and re-implement the curvature
formulas with code that shares nothing with the symbolic path, so the
verifier uses them as its oracle: at an admissible sample the two agree
exactly.  Inside, each input is cleared to integer numerators over the lcm of
its denominators, the loops sum ``int`` products, and each output component
is one ``Fraction``.  ``invert`` is fraction-free Gauss-Jordan (Bareiss, Math.
Comp. 22, 1968), not cofactor expansion: each update divides exactly by the
previous pivot.  The loops skip zero input entries, so the sums equal the
dense formulas in the docstrings.  ``christoffel`` and ``ricci`` take g^{-1}
from the caller, who inverts g once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

Mat = List[List[Fraction]]
_ZERO = Fraction(0)


def _cleared(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    """``(numerators, den)`` with ``rows == numerators / den`` entrywise, for
    a list of Fraction vectors; ``den`` is the lcm of their denominators."""
    den = lcm(*{v.denominator for row in rows for v in row})  # distinct ones: a short tuple
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _over(numerators: Sequence[int], den: int) -> List[Fraction]:
    """One ``Fraction`` per numerator over ``den``; the zeros share one."""
    return [Fraction(v, den) if v else _ZERO for v in numerators]


def _cleared_planes(tensor: Sequence) -> Tuple[list, int]:
    """``_cleared`` for a tensor of three indices, nested as given."""
    n = len(tensor)
    rows, den = _cleared([row for plane in tensor for row in plane])
    return [rows[i * n:(i + 1) * n] for i in range(n)], den


def invert(matrix: Sequence[Sequence[Fraction]]) -> Mat:
    """Fraction-free Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(matrix)
    rows, den = _cleared(matrix)
    work = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular at this sample")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pivot = pivot_line[col]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [(pivot * v - factor * w) // prev for v, w in zip(work[r], pivot_line)]
        prev = pivot
    # the left block is now prev * I, so the right block is prev * rows^{-1}
    return [_over([den * v for v in row[n:]], prev) for row in work]


def _nonzero(row: Sequence) -> List[Tuple[int, int]]:
    return [(idx, v) for idx, v in enumerate(row) if v]


def christoffel(c: Sequence, g: Mat, ginv: Mat) -> list:
    """Gamma[i][j][m] = (1/2) g^{km} (C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip)."""
    n = len(g)
    c, d_c = _cleared_planes(c)
    g, d_g = _cleared(g)
    ginv, d_inv = _cleared(ginv)
    ginv_rows = [_nonzero(row) for row in ginv]
    g_rows = [_nonzero(row) for row in g]
    c_rows = [[_nonzero(c[i][j]) for j in range(n)] for i in range(n)]
    den = 2 * d_c * d_g * d_inv
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # inner[k] = C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip, once per (i, j, k)
            inner = [0] * n
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
            acc = [0] * n
            for k, v in enumerate(inner):
                if v:
                    for m, gkm in ginv_rows[k]:
                        acc[m] += gkm * v
            gamma[i][j] = _over(acc, den)
    return gamma


def curvature(c: Sequence, gamma: Sequence) -> list:
    """R[i][j][k][s] = Gamma^s_ip Gamma^p_jk - Gamma^s_jp Gamma^p_ik - C^p_ij Gamma^s_pk."""
    n = len(gamma)
    gamma, d_gamma = _cleared_planes(gamma)
    c, d_c = _cleared_planes(c)
    # over d_gamma^2 d_c: the Gamma Gamma terms carry d_c, the C Gamma term d_gamma
    gamma_rows = [[_nonzero(gamma[i][j]) for j in range(n)] for i in range(n)]
    inner_rows = [[[(p, v * d_c) for p, v in row] for row in plane] for plane in gamma_rows]
    c_rows = [[[(p, v * d_gamma) for p, v in _nonzero(c[i][j])] for j in range(n)]
              for i in range(n)]
    den = d_gamma * d_gamma * d_c
    riem = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [0] * n
                for p, gjkp in inner_rows[j][k]:
                    for s, gips in gamma_rows[i][p]:
                        acc[s] += gips * gjkp
                for p, gikp in inner_rows[i][k]:
                    for s, gjps in gamma_rows[j][p]:
                        acc[s] -= gjps * gikp
                for p, cp in c_rows[i][j]:
                    for s, gpks in gamma_rows[p][k]:
                        acc[s] -= cp * gpks
                riem[i][j][k] = _over(acc, den)
    return riem


def ricci(riem: Sequence, ginv: Mat) -> Tuple[Mat, Mat, Fraction]:
    """Ricci tensor Ric_jk = R^i_ijk, operator Ric * g^{-1}, scalar trace."""
    n = len(ginv)
    traced, d_riem = _cleared_planes(
        [[[riem[i][j][k][i] for i in range(n)] for k in range(n)] for j in range(n)]
    )
    ginv, d_inv = _cleared(ginv)
    ric = [[sum(row) for row in plane] for plane in traced]
    operator = [
        [sum(ric[j][k] * ginv[k][m] for k in range(n)) for m in range(n)] for j in range(n)
    ]
    den = d_riem * d_inv
    return (
        [_over(row, d_riem) for row in ric],
        [_over(row, den) for row in operator],
        Fraction(sum(operator[i][i] for i in range(n)), den),
    )
