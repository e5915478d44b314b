"""Checks that only the tests run: connection and curvature identities, a
Fraction Nijenhuis tensor, the omega check on the two products it reads,
formed here, a Fraction matrix product, the Fraction signature
that the integer ``signature_at`` replaced, the one adapter through which the
tests call the integer oracle on ``Fraction`` tensors, planted errors in
cleared curvature tensors, the nested Gamma and R tables that the tests read,
readers for nested tensors and three-forms, the packing of an exponent tuple
into the ``int`` monomial of a ``Polynomial`` and back, polynomial product and
exact division over exponent tuples, and the Fraction loop that evaluates a
polynomial term by term.

The residual functions return every nonzero component of an identity that
must vanish, 1-based with the residual last; an empty list means it holds.
"""

from fractions import Fraction
from math import lcm
from typing import List, Sequence

from parakahler import numeric
from parakahler.curvature import Christoffel, CurvatureTensor
from parakahler.expressions import (
    EXPR_ZERO,
    PARAMS,
    ExprMatrix,
    Polynomial,
    RationalExpr,
    SamplePoint,
    _make,
    common_denominator,
    expr,
)
from parakahler.liealgebra import LieAlgebra, TwoForm
from parakahler.structures import (
    IdentityReport,
    Metric,
    SingularMetricError,
    check_omega_compat,
    signature_at,
)

Mat = List[List[Fraction]]


def from_rows(rows) -> ExprMatrix:
    """The matrix of ``rows``, each entry anything ``expr`` reads."""
    return ExprMatrix([[expr(v) for v in row] for row in rows])


def omega_compat(omega: TwoForm, j_matrix: ExprMatrix) -> IdentityReport:
    """``check_omega_compat`` on the two products it reads, formed here."""
    wj = omega.matrix @ j_matrix
    return check_omega_compat(omega, wj, wj.transpose() @ j_matrix)


def eval_matrix(m: ExprMatrix, point) -> Mat:
    """The entries of ``m`` at ``point`` as Fractions."""
    at = SamplePoint(point)
    return [[at.quotient(x) for x in row] for row in m.entries]


def _leaves(tensor):
    if isinstance(tensor, list):
        return [x for part in tensor for x in _leaves(part)]
    return [tensor]


def _nested(tensor, leaf):
    if isinstance(tensor, list):
        return [_nested(part, leaf) for part in tensor]
    return leaf(tensor)


def cleared(tensor) -> tuple:
    """(numerators, den): a nested list of Fractions as integer numerators,
    nested alike, over the lcm of their denominators."""
    den = lcm(*(Fraction(x).denominator for x in _leaves(tensor)))
    return _nested(tensor, lambda x: int(x * den)), den


def fractions(pair) -> list:
    """The nested Fractions of a (numerators, den) pair."""
    nums, den = pair
    return _nested(nums, lambda x: Fraction(x, den))


class fraction_oracle:
    """``numeric`` and ``signature_at`` on nested lists of Fractions: each
    argument is cleared to integer numerators over one positive denominator,
    and each (numerators, den) result is turned back into Fractions."""

    @staticmethod
    def invert(g: Mat) -> Mat:
        return fractions(numeric.invert(cleared(g)))

    @staticmethod
    def christoffel(c, g: Mat, ginv: Mat) -> list:
        return fractions(numeric.christoffel(cleared(c), cleared(g), cleared(ginv)))

    @staticmethod
    def curvature(c, gamma) -> list:
        return fractions(numeric.curvature(cleared(c), cleared(gamma)))

    @staticmethod
    def ricci(riem, ginv: Mat) -> tuple:
        return tuple(map(fractions, numeric.ricci(cleared(riem), cleared(ginv))))

    @staticmethod
    def signature(g: Mat) -> tuple:
        return signature_at(cleared(g)[0])


def structure_fractions(algebra: LieAlgebra, point) -> list:
    """The structure constants at ``point`` as nested Fractions."""
    return fractions(algebra.structure_at(SamplePoint(point)))


def signature_reference(g: Mat) -> tuple:
    """Exact signature (p, q) of g by symmetric Gaussian reduction in Fractions."""
    m = [list(row) for row in g]
    n = len(m)
    active = list(range(n))
    plus = minus = 0
    while active:
        pivot = next((k for k in active if m[k][k] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in active for j in active if i < j and m[i][j] != 0), None
            )
            if pair is None:
                raise SingularMetricError("metric is singular at this sample")
            i, j = pair
            for col in range(n):
                m[i][col] += m[j][col]
            for row in range(n):
                m[row][i] += m[row][j]
            pivot = i
        d = m[pivot][pivot]
        if d > 0:
            plus += 1
        else:
            minus += 1
        active.remove(pivot)
        for i in active:
            if m[i][pivot] != 0:
                factor = Fraction(m[i][pivot]) / d
                for col in range(n):
                    m[i][col] -= factor * m[pivot][col]
                for row in range(n):
                    m[row][i] -= factor * m[row][pivot]
    return plus, minus


def agrees(point: SamplePoint, e: RationalExpr, v: Fraction) -> bool:
    """Whether e at ``point`` equals the rational v, by cross-multiplication
    of ``SamplePoint.cleared``'s integers."""
    [n], d = point.cleared(e.den, [e.num])
    return n * v.denominator == v.numerator * d


def gamma_table(christ: Christoffel) -> tuple:
    """Gamma^m_ij as ``gamma_table(christ)[i][j][m]``, each numerator made
    canonical over the shared denominator."""
    n = christ.dim
    flat = [_make(x, christ.den) for x in christ.nums]
    return tuple(
        tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n))
        for i in range(n)
    )


def riemann_table(riem: CurvatureTensor) -> tuple:
    """R^s_ijk as ``riemann_table(riem)[i][j][k][s]``, filled from the
    canonical components with i < j by R^s_jik = -R^s_ijk."""
    n = riem.dim
    comps = [[[[EXPR_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, k, s), r in riem.normalized().items():
        comps[i][j][k][s], comps[j][i][k][s] = r, -r
    return tuple(
        tuple(tuple(tuple(row) for row in plane) for plane in block) for block in comps
    )


def christoffel_with(christ: Christoffel, changes) -> Christoffel:
    """``christ`` with ``change(Gamma^m_ij)`` for each (i, j, m) in ``changes``,
    cleared afresh to numerators over one denominator."""
    gamma = [[list(row) for row in plane] for plane in gamma_table(christ)]
    for (i, j, m), change in changes.items():
        gamma[i][j][m] = change(gamma[i][j][m])
    den, nums = common_denominator([x for plane in gamma for row in plane for x in row])
    return Christoffel(christ.dim, den, tuple(nums))


def riemann_with(riem: CurvatureTensor, changes) -> CurvatureTensor:
    """``riem`` with ``change(R^s_ijk)`` for each (i, j, k, s) in ``changes``,
    cleared afresh.  The tensor holds R^s_ijk for i < j only, so a change at
    j < i changes R^s_jik to the negation of the changed value."""
    values = riem.normalized()
    for (i, j, k, s), change in changes.items():
        if i < j:
            values[i, j, k, s] = change(values.get((i, j, k, s), EXPR_ZERO))
        else:
            values[j, i, k, s] = -change(-values.get((j, i, k, s), EXPR_ZERO))
    keys = sorted(key for key, value in values.items() if not value.is_zero)
    den, nums = common_denominator([values[key] for key in keys])
    return CurvatureTensor(riem.dim, den, tuple(zip(keys, nums)))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def first_nonzero(comps):
    """(1-based indices..., value) of the first nonzero entry of the nested
    tuple ``comps`` in index order, or None."""
    for i, sub in enumerate(comps):
        if isinstance(sub, RationalExpr):
            found = None if sub.is_zero else (sub,)
        else:
            found = first_nonzero(sub)
        if found is not None:
            return (i + 1, *found)
    return None


def three_form_component(form: dict, i: int, j: int, k: int) -> RationalExpr:
    """The (i, j, k) component of the three-form whose nonzero components
    ``form`` holds by increasing index, 0-based, signed by the permutation."""
    if len({i, j, k}) < 3:
        return EXPR_ZERO
    order = sorted((i, j, k))
    value = form.get(tuple(order), EXPR_ZERO)
    # parity of the permutation taking sorted order to (i, j, k)
    perm = (order.index(i), order.index(j), order.index(k))
    inversions = sum(
        1 for x in range(3) for y in range(x + 1, 3) if perm[x] > perm[y]
    )
    return -value if inversions % 2 else value


FIELD_BITS = 16


def pack(exps) -> int:
    """The monomial of the exponent tuple ``exps`` (one exponent per parameter):
    each exponent in a 16-bit field, the first parameter highest, and the total
    degree above them all."""
    mono = sum(exps)
    for k in exps:
        mono = mono << FIELD_BITS | k
    return mono


def unpack(mono: int) -> tuple:
    """The exponent tuple of the monomial ``mono``; the inverse of ``pack``."""
    top, field = FIELD_BITS * (len(PARAMS) - 1), (1 << FIELD_BITS) - 1
    return tuple(mono >> (top - FIELD_BITS * i) & field for i in range(len(PARAMS)))


def polynomial(terms: dict) -> Polynomial:
    """The ``Polynomial`` of ``terms``, a dict from exponent tuples to coefficients."""
    return Polynomial({pack(e): c for e, c in terms.items()})


def grlex(exps: tuple) -> tuple:
    """The graded-lex sort key of an exponent tuple."""
    return sum(exps), exps


def tuple_mul(f: dict, g: dict) -> dict:
    """The product of two polynomials given as exponent-tuple dicts."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tuple_exact_div(f: dict, g: dict):
    """f/g over exponent tuples when g divides f exactly, else None: divide
    by g's leading term while the leading term of the rest allows it."""
    g_exp = max(g, key=grlex)
    quotient, rest = {}, dict(f)
    while rest:
        r_exp = max(rest, key=grlex)
        d = tuple(x - y for x, y in zip(r_exp, g_exp))
        qc, r = divmod(rest[r_exp], g[g_exp])
        if min(d) < 0 or r:
            return None
        quotient[d] = qc
        for e, c in tuple_mul({d: qc}, g).items():
            s = rest.get(e, 0) - c
            if s:
                rest[e] = s
            else:
                del rest[e]
    return quotient


def poly_eval(poly: Polynomial, point) -> Fraction:
    """``poly`` at ``point`` in Fractions, one power cache per call and one
    Fraction per term: the reference for the integer evaluator."""
    total = Fraction(0)
    cache = {}
    for mono, coeff in poly.terms.items():
        term = coeff
        for i, k in enumerate(unpack(mono)):
            if k:
                key = (i, k)
                p = cache.get(key)
                if p is None:
                    name = PARAMS[i]
                    if name not in point:
                        raise ValueError(f"no value assigned to parameter {name!r}")
                    p = Fraction(point[name]) ** k
                    cache[key] = p
                term *= p
        total += term
    return total


def torsion_residuals(algebra: LieAlgebra, gam: Christoffel):
    """Gamma^m_ij - Gamma^m_ji - C^m_ij for all components; empty iff torsion-free."""
    n, gamma = algebra.dim, gamma_table(gam)
    bad = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                res = gamma[i][j][m] - gamma[j][i][m] - algebra.c(i, j, m)
                if not res.is_zero:
                    bad.append((i + 1, j + 1, m + 1, res))
    return bad


def connection_metric_residuals(algebra: LieAlgebra, gam: Christoffel, g: Metric):
    """g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) must vanish for a metric connection."""
    n, gamma = algebra.dim, gamma_table(gam)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = EXPR_ZERO
                for m in range(n):
                    acc = acc + gamma[i][j][m] * g(m, k)
                    acc = acc + gamma[i][k][m] * g(j, m)
                if not acc.is_zero:
                    bad.append((i + 1, j + 1, k + 1, acc))
    return bad


def bianchi_residuals(riemann: CurvatureTensor):
    """First Bianchi identity: cyclic sum of R^s_ijk over (i, j, k)."""
    n, comps = riemann.dim, riemann_table(riemann)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    acc = comps[i][j][k][s] + comps[j][k][i][s] + comps[k][i][j][s]
                    if not acc.is_zero:
                        bad.append((i + 1, j + 1, k + 1, s + 1, acc))
    return bad


def antisymmetry_residuals(riemann: CurvatureTensor):
    n, comps = riemann.dim, riemann_table(riemann)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    acc = comps[i][j][k][s] + comps[j][i][k][s]
                    if not acc.is_zero:
                        bad.append((i + 1, j + 1, k + 1, s + 1, acc))
    return bad


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
