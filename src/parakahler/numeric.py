"""The integer oracle: a non-symbolic curvature pipeline.

``invert``, ``christoffel``, ``curvature`` and ``ricci`` work at one parameter
sample and share no code with the symbolic path, so the verifier uses them as
its oracle: at an admissible sample the two agree exactly.  Every tensor in
and out is one ``Cleared`` pair: integer numerators, nested like the tensor,
over one integer denominator; each stage sums ``int`` products and hands its
pair on unreduced.  ``invert`` is fraction-free Gauss-Jordan (Bareiss, Math.
Comp. 22, 1968): each update divides exactly by the previous pivot.  The
loops skip zero entries, so the sums equal the dense formulas in the
docstrings.  ``christoffel`` and ``ricci`` take g^{-1} from the caller.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Cleared = Tuple[list, int]  # (integer numerators nested like the tensor, den != 0)


def invert(matrix: Cleared) -> Cleared:
    """Fraction-free Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    rows, den = matrix
    n = len(rows)
    work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
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
    # the left block is now prev * I, so the right block is prev * rows^{-1},
    # and (rows / den)^{-1} = den * rows^{-1}
    return [[den * v for v in row[n:]] for row in work], prev


def _nonzero(row: Sequence[int]) -> List[Tuple[int, int]]:
    return [(idx, v) for idx, v in enumerate(row) if v]


def christoffel(c: Cleared, g: Cleared, ginv: Cleared) -> Cleared:
    """Gamma[i][j][m] = (1/2) g^{km} (C^p_ij g_pk + C^p_ki g_pj + C^p_kj g_ip)."""
    (c, d_c), (g, d_g), (ginv, d_inv) = c, g, ginv
    n = len(g)
    ginv_rows = [_nonzero(row) for row in ginv]
    g_rows = [_nonzero(row) for row in g]
    c_rows = [[_nonzero(c[i][j]) for j in range(n)] for i in range(n)]
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
            gamma[i][j] = acc
    return gamma, 2 * d_c * d_g * d_inv


def curvature(c: Cleared, gamma: Cleared) -> Cleared:
    """R[i][j][k][s] = Gamma^s_ip Gamma^p_jk - Gamma^s_jp Gamma^p_ik - C^p_ij Gamma^s_pk."""
    (gamma, d_gamma), (c, d_c) = gamma, c
    n = len(gamma)
    # over d_gamma^2 d_c: the Gamma Gamma terms carry d_c, the C Gamma term d_gamma
    gamma_rows = [[_nonzero(gamma[i][j]) for j in range(n)] for i in range(n)]
    inner_rows = [[[(p, v * d_c) for p, v in row] for row in plane] for plane in gamma_rows]
    c_rows = [[[(p, v * d_gamma) for p, v in _nonzero(c[i][j])] for j in range(n)]
              for i in range(n)]
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
                riem[i][j][k] = acc
    return riem, d_gamma * d_gamma * d_c


def ricci(riem: Cleared, ginv: Cleared) -> Tuple[Cleared, Cleared, Tuple[int, int]]:
    """Ricci tensor Ric_jk = R^i_ijk, operator Ric * g^{-1}, scalar trace."""
    (riem, d_riem), (ginv, d_inv) = riem, ginv
    n = len(ginv)
    ric = [[sum(riem[i][j][k][i] for i in range(n)) for k in range(n)] for j in range(n)]
    operator = [
        [sum(ric[j][k] * ginv[k][m] for k in range(n)) for m in range(n)] for j in range(n)
    ]
    den = d_riem * d_inv
    return (ric, d_riem), (operator, den), (sum(operator[i][i] for i in range(n)), den)
