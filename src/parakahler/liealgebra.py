"""Lie algebras with symbolic structure constants.

Structure constants C^k_ij are stored sparsely, as a dict of the entries that
a bracket table skew-symmetrizes to, listed once in index order.  The
Chevalley-Eilenberg differential on invariant forms uses the sign convention

    d(alpha)(X, Y)    = -alpha([X, Y])
    d(omega)(X, Y, Z) = -omega([X,Y], Z) - omega([Y,Z], X) - omega([Z,X], Y)

so that for a central extension d(eta) = -omega on the base.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .expressions import (
    EXPR_ONE,
    EXPR_ZERO,
    ExprLike,
    ExprMatrix,
    Polynomial,
    RationalExpr,
    at_point,
    common_denominator,
    expr,
    format_expr,
)


class DimensionMismatchError(ValueError):
    pass


class OddDimensionError(ValueError):
    pass


class ParamDomain:
    """Admissible values of one parameter.

    ``kind`` is one of ``free``, ``positive``, ``open-interval``; an interval
    admits lo <= x < hi, and either end may be left unset.  ``excluded`` lists
    isolated forbidden values on top of the kind constraint.  Domains compare
    by value.
    """

    __slots__ = ("kind", "lo", "hi", "excluded")

    def __init__(
        self,
        kind: str = "free",
        lo: Optional[Fraction] = None,
        hi: Optional[Fraction] = None,
        excluded: Tuple[Fraction, ...] = (),
    ):
        if kind not in ("free", "positive", "open-interval"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if kind == "open-interval" and lo is None and hi is None:
            raise ValueError("open-interval domain needs at least one endpoint")
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError("interval endpoints must satisfy lo < hi")
        self.kind, self.lo, self.hi, self.excluded = kind, lo, hi, excluded

    def _key(self) -> tuple:
        return self.kind, self.lo, self.hi, self.excluded

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamDomain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ParamDomain{self._key()!r}"

    def admits(self, value: Fraction) -> bool:
        if value in self.excluded:
            return False
        if self.kind == "positive":
            return value > 0
        if self.kind == "open-interval":
            if self.lo is not None and not value >= self.lo:
                return False
            if self.hi is not None and not value < self.hi:
                return False
        return True


class TwoForm:
    """Skew bilinear form on the basis, omega(e_i, e_j) = matrix entry (i, j)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: ExprMatrix):
        matrix._square()
        for i in range(matrix.rows):
            for j in range(i, matrix.cols):
                if not (matrix[i, j] + matrix[j, i]).is_zero:
                    raise ValueError(f"two-form is not skew at ({i + 1}, {j + 1})")
        self.matrix = matrix

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[Tuple[int, int, ExprLike]]) -> "TwoForm":
        """Build from 1-based coefficients of e^i ^ e^j with i < j."""
        grid = [[EXPR_ZERO] * dim for _ in range(dim)]
        for i, j, value in terms:
            if not (1 <= i < j <= dim):
                raise DimensionMismatchError(
                    f"two-form term indices ({i}, {j}) out of range for dim {dim}"
                )
            v = expr(value)
            grid[i - 1][j - 1] = grid[i - 1][j - 1] + v
            grid[j - 1][i - 1] = grid[j - 1][i - 1] - v
        return cls(ExprMatrix(grid))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __call__(self, i: int, j: int) -> RationalExpr:
        return self.matrix[i, j]

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def terms(self) -> Tuple[Tuple[int, int, RationalExpr], ...]:
        """Nonzero coefficients, 1-based, i < j."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not self.matrix[i, j].is_zero:
                    out.append((i + 1, j + 1, self.matrix[i, j]))
        return tuple(out)

    def __repr__(self):
        body = " + ".join(f"({format_expr(v)})*e{i}^e{j}" for i, j, v in self.terms())
        return f"TwoForm({body or '0'})"


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants."""

    __slots__ = ("name", "dim", "params", "_c", "_nonzero", "_cleared")

    def __init__(self, name: str, dim: int, structure, params=()):
        self.name = name
        self.dim = dim
        self.params = tuple(params)
        self._c = structure  # {(i, j, k): C^k_ij}, 0-based; a missing key is zero
        nz = [(i, j, k, v) for (i, j, k), v in sorted(structure.items()) if not v.is_zero]
        self._nonzero = tuple(nz)
        den, nums = common_denominator([v for (_, _, _, v) in nz])
        self._cleared = den, tuple((i, j, k, x) for (i, j, k, _), x in zip(nz, nums))

    @classmethod
    def from_brackets(
        cls,
        name: str,
        dim: int,
        brackets: Iterable[Tuple[int, int, int, ExprLike]],
        params: Iterable[Tuple[str, ParamDomain]] = (),
    ) -> "LieAlgebra":
        """Build from 1-based sparse entries (i, j, k, C^k_ij) with i < j."""
        c = {}
        for i, j, k, value in brackets:
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise DimensionMismatchError(
                    f"bracket indices ({i}, {j}, {k}) out of range for dim {dim}"
                )
            v = expr(value)
            c[i - 1, j - 1, k - 1] = c.get((i - 1, j - 1, k - 1), EXPR_ZERO) + v
            c[j - 1, i - 1, k - 1] = c.get((j - 1, i - 1, k - 1), EXPR_ZERO) - v
        return cls(name, dim, c, params)

    def c(self, i: int, j: int, k: int) -> RationalExpr:
        """Structure constant C^k_ij, 0-based."""
        return self._c.get((i, j, k), EXPR_ZERO)

    def sparse_brackets(self) -> Tuple[Tuple[int, int, int, RationalExpr], ...]:
        """Nonzero entries with i < j only, 1-based (serialization order)."""
        return tuple(
            (i + 1, j + 1, k + 1, v) for (i, j, k, v) in self._nonzero if i < j
        )

    def bracket(self, x: Sequence[ExprLike], y: Sequence[ExprLike]):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError(
                f"bracket needs vectors of length {self.dim}"
            )
        xs = [expr(v) for v in x]
        ys = [expr(v) for v in y]
        out = [EXPR_ZERO] * self.dim
        for i, j, k, cexpr in self._nonzero:
            if xs[i].is_zero or ys[j].is_zero:
                continue
            out[k] = out[k] + cexpr * xs[i] * ys[j]
        return tuple(out)

    def cleared_constants(self) -> Tuple[Polynomial, Tuple[tuple, ...]]:
        """(D, ((i, j, k, N), ...)) with C^k_ij = N / D over the nonzero constants,
        cleared once at construction."""
        return self._cleared

    def structure_at(self, point) -> Tuple[list, int]:
        """(c, den): the structure constants at a sample as integers
        c[i][j][k] over one positive den, evaluated from ``cleared_constants``."""
        n = self.dim
        den, constants = self._cleared
        values, d = at_point(point).cleared(den, [x for *_, x in constants])
        out = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k, _), v in zip(constants, values):
            out[i][j][k] = v
        return out, d

    def denominators(self) -> Tuple[Polynomial, ...]:
        dens = []
        for _, _, _, v in self._nonzero:
            if not v.den.is_const:
                dens.append(v.den)
        return tuple(dens)

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


class JacobiReport(NamedTuple):
    ok: bool
    violation: Optional[Tuple[int, int, int, int, str]] = None  # (i, j, k, m, residual)


def jacobi_check(algebra: LieAlgebra) -> JacobiReport:
    """Check sum_cyclic [e_i, [e_j, e_k]] = 0 symbolically over basis triples."""
    n = algebra.dim
    basis = [
        tuple(EXPR_ONE if p == q else EXPR_ZERO for q in range(n)) for p in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [EXPR_ZERO] * n
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = algebra.bracket(basis[y], basis[z])
                    outer = algebra.bracket(basis[x], inner)
                    total = [t + o for t, o in zip(total, outer)]
                for m in range(n):
                    if not total[m].is_zero:
                        return JacobiReport(
                            False, (i + 1, j + 1, k + 1, m + 1, format_expr(total[m]))
                        )
    return JacobiReport(True)


def ce_differential_1(algebra: LieAlgebra, alpha: Sequence[ExprLike]) -> TwoForm:
    """d(alpha)(e_i, e_j) = -alpha([e_i, e_j]) for a left-invariant one-form."""
    n = algebra.dim
    if len(alpha) != n:
        raise DimensionMismatchError(f"one-form needs {n} components")
    coeffs = [expr(v) for v in alpha]
    grid = [[EXPR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = EXPR_ZERO
            for p in range(n):
                cp = algebra.c(i, j, p)
                if not cp.is_zero and not coeffs[p].is_zero:
                    acc = acc + cp * coeffs[p]
            grid[i][j] = -acc
    return TwoForm(ExprMatrix(grid))


def ce_differential_2(algebra: LieAlgebra, omega: TwoForm) -> dict:
    """The nonzero components of d(omega) as expressions keyed by 0-based
    (i, j, k), i < j < k; empty iff omega is closed."""
    n = algebra.dim
    if omega.dim != n:
        raise DimensionMismatchError("two-form dimension does not match the algebra")
    comps = {}
    for i, j, k in combinations(range(n), 3):
        acc = EXPR_ZERO
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for p in range(n):
                cp, w = algebra.c(x, y, p), omega(p, z)
                if not cp.is_zero and not w.is_zero:
                    acc = acc - cp * w
        if not acc.is_zero:
            comps[i, j, k] = acc
    return comps


class SymplecticReport(NamedTuple):
    ok: bool
    closed: bool
    det: RationalExpr


def is_symplectic(algebra: LieAlgebra, omega: TwoForm) -> SymplecticReport:
    """Closedness (symbolic) plus nondegeneracy (det not identically zero)."""
    if algebra.dim % 2:
        raise OddDimensionError("symplectic forms need even dimension")
    closed = not ce_differential_2(algebra, omega)
    det = omega.matrix.det()
    return SymplecticReport(ok=closed and not det.is_zero, closed=closed, det=det)


def pfaffian4(omega: TwoForm) -> RationalExpr:
    """Pfaffian of a 4x4 skew form: w12*w34 - w13*w24 + w14*w23."""
    if omega.dim != 4:
        raise DimensionMismatchError("pfaffian4 needs a 4-dimensional form")
    m = omega.matrix
    return m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
