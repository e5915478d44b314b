"""Exact arithmetic for multivariate rational expressions.

Every scalar in this package is a quotient of two polynomials with integer
coefficients in the fixed parameter list ``a, b, c, d, lam, alpha, beta``.
A polynomial is a sparse dictionary mapping monomials to nonzero ``int``
coefficients; the zero polynomial is the empty dictionary.  A monomial is one
``int``: the exponent of each parameter in a 16-bit field, ``a`` highest, and
the total degree above them all, so that multiplying monomials is one ``int``
addition and ``int`` order is graded-lex order.  This representation gives a
decidable, exact zero test: an expression is zero iff its numerator
normalizes to the empty dictionary.

Quotients are kept in the canonical form of a rational function over
Z[a, b, c, d, lam, alpha, beta]: numerator and denominator are coprime
(multivariate GCD via a primitive polynomial remainder sequence, integer
content included) and the denominator has a positive leading coefficient.
Reduction is canonical, so the matrix kernels (and those of ``curvature`` and
``structures``) bring their inputs to one shared denominator, combine the
numerators with plain polynomial ring operations and normalize once per
output entry.

Evaluation at a rational point goes through a ``SamplePoint``, built once per
point, which sums integers: it builds one ``Fraction`` per value, and none
when it evaluates numerators over one denominator as integers over one
integer (``cleared``).  Otherwise ``Fraction`` appears only in coercion of a
``Fraction`` and in printing, which divides the denominator's integer content
into the numerator (``a/2`` prints ``1/2*a``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd as _int_gcd, lcm as _int_lcm, log10
from typing import List, Tuple, Union

PARAMS = ("a", "b", "c", "d", "lam", "alpha", "beta")

_NV = len(PARAMS)
_IDX = {name: i for i, name in enumerate(PARAMS)}
# Exponents stay below 2^15, so in (r | _GUARD) - g no field borrows from the
# next, and a field keeps its guard bit exactly where r's exponent is at least g's.
_BITS = 16
_SHIFT = tuple(_BITS * (_NV - 1 - i) for i in range(_NV))
_DEG = _BITS * _NV
_UNIT = tuple((1 << _DEG) + (1 << s) for s in _SHIFT)  # the monomial PARAMS[i]
_FIELD = (1 << _BITS) - 1
_GUARD = sum(1 << (s + _BITS - 1) for s in _SHIFT)
_TOP = _GUARD - sum(1 << s for s in _SHIFT)  # every exponent at 2^15 - 1
# bit_length of the fields -> (unit, index) of the highest nonzero field
_AT = (None,) + tuple((1 << b // _BITS * _BITS, _NV - 1 - b // _BITS) for b in range(_DEG))

# The guard on polynomial term counts: a product whose factors' term counts
# multiply past it is refused unformed, and a sum past it is refused.
TERM_LIMIT = 100_000

# The guards on the total degree and the coefficient digits of a parsed numerator
# or denominator: the parser refuses a power past them unformed, and any other result.
DEGREE_LIMIT = 1_000
DIGIT_LIMIT = 4_300  # Python's default limit on printing an int
EXPONENT_LIMIT = 1 << (_BITS - 1)  # a product reaching this total degree is refused unformed


class ExpressionBlowupError(RuntimeError):
    """A polynomial passed a size guard or has a coefficient too long to print."""


class SymbolicZeroDivisionError(ZeroDivisionError):
    """Division by an expression that is identically zero."""


class DenominatorVanishesError(ArithmeticError):
    """Evaluation hit a vanishing denominator; carries the offending point."""

    def __init__(self, message: str, point: Mapping[str, Fraction]):
        super().__init__(message)
        self.point = dict(point)


class ExprSyntaxError(ValueError):
    """Malformed expression text."""


def quoted(text: str) -> str:
    """``repr(text)`` for a message, cut to its first 60 characters and its
    length when longer, so a message stays one readable line."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}… ({len(text)} characters)"


def digit_count(n: int) -> int:
    """The decimal digits of a nonzero ``n``, counted without ``str``."""
    digits = int(log10(abs(n))) + 1  # a float, so possibly one off
    return digits + (abs(n) >= 10**digits) - (abs(n) < 10 ** (digits - 1))


class UnknownParameterError(ExprSyntaxError):
    """Expression text uses an identifier outside the parameter list."""


class SingularMatrixError(ValueError):
    """Matrix inversion requested for a matrix with zero determinant."""


def _guard(terms: dict) -> dict:
    if len(terms) > TERM_LIMIT:
        raise ExpressionBlowupError(
            f"polynomial with {len(terms)} terms exceeds the guard ({TERM_LIMIT})"
        )
    return terms


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Instances are immutable by convention; no method mutates ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: int) -> "Polynomial":
        return Polynomial({0: value} if value else {})

    @staticmethod
    def var(name: str) -> "Polynomial":
        if name not in _IDX:
            raise UnknownParameterError(
                f"unknown parameter {quoted(name)}; known parameters: {', '.join(PARAMS)}"
            )
        return Polynomial({_UNIT[_IDX[name]]: 1})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp)
            if s is None:
                out[exp] = coeff
            else:
                s = s + coeff
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return Polynomial(_guard(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) - coeff
            if s:
                out[exp] = s
            else:
                del out[exp]
        return Polynomial(_guard(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms or not other.terms:
            return _P_ZERO
        if self.terms == _P_ONE.terms:
            return other
        if other.terms == _P_ONE.terms:
            return self
        if len(self.terms) * len(other.terms) > TERM_LIMIT:
            raise ExpressionBlowupError(
                f"product of {len(self.terms)} by {len(other.terms)} terms exceeds "
                f"the guard ({TERM_LIMIT})"
            )
        top = max(self.terms) + max(other.terms) >> _DEG  # the product's degree
        if top >= EXPONENT_LIMIT:
            raise ExpressionBlowupError(
                f"product of degree {top} reaches the guard ({EXPONENT_LIMIT})"
            )
        if len(other.terms) == 1:  # one term: no sums and no zero coefficients
            [(e2, c2)] = other.terms.items()
            return Polynomial(_guard({e1 + e2: c1 * c2 for e1, c1 in self.terms.items()}))
        if len(self.terms) == 1:
            [(e1, c1)] = self.terms.items()
            return Polynomial(_guard({e1 + e2: c1 * c2 for e2, c2 in other.terms.items()}))
        acc: dict = {}
        t2 = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in t2:
                exp = e1 + e2
                acc[exp] = acc.get(exp, 0) + c1 * c2
        return Polynomial(_guard({e: c for e, c in acc.items() if c}))

    def scale(self, factor: int) -> "Polynomial":
        if factor == 1:
            return self
        if factor == 0:
            return _P_ZERO
        return Polynomial({e: c * factor for e, c in self.terms.items()})

    def content(self) -> int:
        """Integer gcd of the coefficients, signed like the leading one."""
        c = 0
        for coeff in self.terms.values():
            c = _int_gcd(c, coeff)
            if c == 1:
                break
        return -c if self.leading()[1] < 0 else c

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = _P_ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure ---------------------------------------------------------

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return 0
        s = _SHIFT[v]
        return max(e >> s & _FIELD for e in self.terms)

    def params(self) -> set:
        used = 0
        for e in self.terms:
            used |= e
        return {name for name, s in zip(PARAMS, _SHIFT) if used >> s & _FIELD}

    def leading(self) -> tuple:
        """Leading (monomial, coefficient) in graded-lexicographic order."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        return SamplePoint(point).value(self)

    def __str__(self) -> str:
        return _poly_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({_poly_str(self)})"


_P_ZERO = Polynomial({})
_P_ONE = Polynomial({0: 1})


# -- polynomial division and GCD ------------------------------------------


def exact_div(f: Polynomial, g: Polynomial):
    """Return f/g when g divides f exactly in Z[params], else None."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero or g == _P_ONE:
        return f
    g_exp, g_coeff = g.leading()
    quotient: dict = {}
    rest = dict(f.terms)
    while rest:
        r_exp = max(rest)
        if (r_exp | _GUARD) - g_exp & _GUARD != _GUARD:  # some exponent of g is larger
            return None
        d = r_exp - g_exp
        qc, r = divmod(rest[r_exp], g_coeff)
        if r:
            return None
        quotient[d] = qc
        for e2, c2 in g.terms.items():
            exp = d + e2
            s = rest.get(exp, 0) - qc * c2
            if s:
                rest[exp] = s
            else:
                rest.pop(exp, None)
    return Polynomial(quotient)


def _coeff_of(f: Polynomial, v: int, k: int) -> Polynomial:
    s, cut = _SHIFT[v], k * _UNIT[v]
    return Polynomial({e - cut: c for e, c in f.terms.items() if e >> s & _FIELD == k})


def _times_monomial(f: Polynomial, exp: int) -> Polynomial:
    """f times the monomial ``exp``, or divided by it when ``exp`` is negated."""
    return Polynomial({e + exp: c for e, c in f.terms.items()})


def _split(f: Polynomial) -> Tuple[int, Polynomial]:
    """(c, f/c) for nonzero f, c its signed content: f/c is primitive, positive-leading."""
    c = f.content()
    if c == 1:
        return 1, f
    return c, Polynomial({e: x // c for e, x in f.terms.items()})


def _pp_normalize(f: Polynomial) -> Polynomial:
    return f if f.is_zero else _split(f)[1]


def _content_in(f: Polynomial, v: int) -> Polynomial:
    content = _P_ZERO
    for k in range(f.degree_in(v) + 1):
        coeff = _coeff_of(f, v, k)
        if not coeff.is_zero:
            content = poly_gcd(content, coeff)
            if content.is_const and not content.is_zero:
                return _P_ONE
    return content


def _pseudo_rem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    dg = g.degree_in(v)
    lc_g = _coeff_of(g, v, dg)
    r = f
    while not r.is_zero:
        dr = r.degree_in(v)
        if dr < dg:
            break
        lc_r = _coeff_of(r, v, dr)
        r = lc_g * r - _times_monomial(lc_r, (dr - dg) * _UNIT[v]) * g
    return r


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """GCD in Z[params] up to its content: primitive, positive-leading."""
    if f.is_zero:
        return _pp_normalize(g)
    if g.is_zero:
        return _pp_normalize(f)
    if f.is_const or g.is_const:
        return _P_ONE
    fp, gp = f.params(), g.params()
    if not (fp & gp):
        return _P_ONE
    v = min(_IDX[name] for name in fp | gp)
    df, dg = f.degree_in(v), g.degree_in(v)
    if df == 0:
        return poly_gcd(f, _content_in(g, v))
    if dg == 0:
        return poly_gcd(_content_in(f, v), g)
    cf, cg = _content_in(f, v), _content_in(g, v)
    c = poly_gcd(cf, cg)
    big, small = exact_div(f, cf), exact_div(g, cg)
    if df < dg:
        big, small = small, big
    while True:
        r = _pseudo_rem(big, small, v)
        if r.is_zero:
            break
        if r.degree_in(v) == 0:
            return _pp_normalize(c)
        big, small = small, _pp_normalize(exact_div(r, _content_in(r, v)))
    return _pp_normalize(c * exact_div(small, _content_in(small, v)))


# -- rational expressions ---------------------------------------------------

ExprLike = Union["RationalExpr", Polynomial, int, Fraction, str]


def _make(num: Polynomial, den: Polynomial, split=None) -> "RationalExpr":
    """Normalize a quotient of polynomials. Denominator must be nonzero;
    ``split`` is ``_split(den)``, made once by a kernel over one den."""
    if den.is_zero:
        raise SymbolicZeroDivisionError("division by symbolically zero expression")
    if num.is_zero:
        return EXPR_ZERO
    # num / (scale * den) with den primitive and positive-leading from here on
    scale, den = split or _split(den)
    if not den.is_const:
        # cancel the common monomial content first: each field's least exponent, at once
        m = _TOP
        for e in chain(num.terms, den.terms):
            lower = _GUARD & ~((e | _GUARD) - m)  # the guard bits of the fields where e < m
            m ^= (m ^ e) & (lower - (lower >> (_BITS - 1)))
            if not m:
                break
        else:  # no break: a common monomial is left
            shift = m + (m % _FIELD << _DEG)  # the degree: the field sum, below 2^16 - 1
            num, den = _times_monomial(num, -shift), _times_monomial(den, -shift)
    if scale < 0:
        num, scale = -num, -scale
    if not den.is_const:
        quotient = exact_div(num, den)
        if quotient is not None:
            num, den = quotient, _P_ONE
        elif len(den.terms) > 1 and (num.params() & den.params()):
            common = poly_gcd(num, den)
            if common != _P_ONE:
                # both primitive and positive-leading, so the quotient is too
                num, den = exact_div(num, common), exact_div(den, common)
    # cancel the integer contents last, once the polynomial parts are coprime
    if scale != 1:
        k = _int_gcd(scale, num.content())
        if k != 1:
            num = Polynomial({e: x // k for e, x in num.terms.items()})
            scale //= k
    return RationalExpr(num, den.scale(scale))


class RationalExpr:
    """Quotient of two polynomials with an exact, decidable zero test."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # both sides are in canonical form, as ``__hash__`` relies on too
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other, as ``op`` is ``Polynomial.__add__``
        or ``Polynomial.__sub__``: the numerators combine directly."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:  # 0/1, so op(0, N) over other's den
            return RationalExpr(op(self.num, other.num), other.den)
        if other.is_zero:
            return self
        if self.den == other.den:
            return _make(op(self.num, other.num), self.den)
        (c1, p1), (c2, p2) = _split(self.den), _split(other.den)
        if p1 == p2:  # the denominators differ by an integer factor
            scale = _int_lcm(c1, c2)
            num = op(self.num.scale(scale // c1), other.num.scale(scale // c2))
            return _make(num, p1.scale(scale))
        return _make(op(self.num * other.den, other.num * self.den), self.den * other.den)

    def __add__(self, other):
        return self._combine(other, Polynomial.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, Polynomial.__sub__)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return EXPR_ZERO
        return _make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise SymbolicZeroDivisionError("division by symbolically zero expression")
        return _make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero:
                raise SymbolicZeroDivisionError("negative power of zero expression")
            return _make(self.den ** (-n), self.num ** (-n))
        return _make(self.num**n, self.den**n)

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"RationalExpr({format_expr(self)})"


EXPR_ZERO = RationalExpr(_P_ZERO, _P_ONE)
EXPR_ONE = RationalExpr(_P_ONE, _P_ONE)


def expr(value: ExprLike) -> RationalExpr:
    """Coerce an int, Fraction, Polynomial, or grammar string to an expression."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a rational expression")
    return coerced


def variable(name: str) -> RationalExpr:
    return RationalExpr(Polynomial.var(name), _P_ONE)


def _coerce(value):
    if isinstance(value, RationalExpr):
        return value
    if isinstance(value, Polynomial):
        return RationalExpr(value, _P_ONE)
    if isinstance(value, int):
        return RationalExpr(Polynomial.const(value), _P_ONE)
    if isinstance(value, Fraction):
        return RationalExpr(Polynomial.const(value.numerator), Polynomial.const(value.denominator))
    if isinstance(value, str):
        return parse_expr(value)
    return NotImplemented


# -- evaluation at a sample point ---------------------------------------------


class SamplePoint(Mapping):
    """A read-only parameter assignment that evaluates polynomials in integers.

    For values x_i = p_i/q_i it holds L = lcm(q_i) and the integers
    r_i = x_i*L.  A polynomial f of total degree T evaluates to the integer
    H(f) = sum c_e * prod r_i^e_i * L^(T - |e|), so that f(x) = H(f)/L^T and
    no ``Fraction`` is built inside the sum.  A parameter may be left out;
    evaluating a polynomial that uses it raises ``ValueError``.
    """

    __slots__ = ("_values", "_lcm", "_scaled")

    def __init__(self, values: Mapping[str, Fraction]):
        self._values = dict(values)
        given = {_IDX[k]: Fraction(v) for k, v in self._values.items() if k in _IDX}
        self._lcm = _int_lcm(*(x.denominator for x in given.values()))
        # r_i; None for a parameter without a value
        self._scaled = [None] * _NV
        for i, x in given.items():
            self._scaled[i] = x.numerator * (self._lcm // x.denominator)

    def __getitem__(self, name):
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def homogenized(self, f: Polynomial) -> Tuple[int, int]:
        """(H(f), T) with f = H(f)/L^T at this point, T the total degree of f."""
        scaled, lcm = self._scaled, self._lcm
        acc = top = 0
        for exp, coeff in f.terms.items():
            degree = exp >> _DEG
            low = exp - (degree << _DEG)
            while low:  # the nonzero fields only, highest first
                unit, i = _AT[low.bit_length()]
                k, low = divmod(low, unit)
                r = scaled[i]
                if r is None:
                    raise ValueError(f"no value assigned to parameter {PARAMS[i]!r}")
                coeff *= r ** k
            if degree > top:
                acc *= lcm ** (degree - top)
                top = degree
            acc += coeff * lcm ** (top - degree)
        return acc, top

    def value(self, f: Polynomial) -> Fraction:
        h, degree = self.homogenized(f)
        return Fraction(h, self._lcm ** degree)

    def cleared(self, den: Polynomial, nums) -> Tuple[List[int], int]:
        """(values, d) with nums[i]/den == values[i]/d at this point, d > 0: each
        homogenized once, over the power of L of the highest total degree."""
        hd, td = self.homogenized(den)
        if not hd:
            raise DenominatorVanishesError(
                f"denominator {_poly_str(_split(den)[1])} vanishes at "
                + ", ".join(f"{k}={self[k]}" for k in sorted(self)),
                self,
            )
        found = [self.homogenized(f) if f.terms else (0, 0) for f in nums]
        top = max([td] + [t for _, t in found])
        lcm, sign = self._lcm, (1 if hd > 0 else -1)
        values = [sign * h * lcm ** (top - t) if h else 0 for h, t in found]
        return values, sign * hd * lcm ** (top - td)

    def quotient(self, e: "RationalExpr") -> Fraction:
        """e at this point: one ``Fraction``, built from two integers."""
        [value], d = self.cleared(e.den, [e.num])
        return Fraction(value, d)


# -- text grammar ------------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := unary (('*' | '/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' INT)?
# atom   := INT | IDENT | '(' expr ')'

_MAX_DEPTH = 100  # nesting of parentheses and unary minus; deeper is a syntax error


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at position {i} in {quoted(text)}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r} but found {quoted(tok[1])} in {quoted(self.text)}"
            )
        return tok

    def nested(self, parse):
        """``parse()`` one level deeper."""
        if self.depth == _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def integer(self, digits: str) -> int:
        """The value of an integer token.  ``int`` refuses one longer than the
        interpreter's digit limit, or digits that are not decimal (superscripts)."""
        try:
            return int(digits)
        except ValueError:
            raise ExprSyntaxError(
                f"cannot read the integer literal {digits[:12]!r} ({len(digits)} digits)"
            ) from None

    def parse(self) -> RationalExpr:
        value = self.expr()
        if self.peek() != "end":
            raise ExprSyntaxError(
                f"trailing input {quoted(self.tokens[self.pos][1])} in {quoted(self.text)}"
            )
        return value

    def guard(self, value: RationalExpr, power: int = 1) -> RationalExpr:
        """``value``, refused when ``power`` times its largest total degree passes
        ``DEGREE_LIMIT`` or ``power`` times its longest coefficient's digits ``DIGIT_LIMIT``."""
        degree = power * (max([*value.num.terms, *value.den.terms]) >> _DEG)
        if degree > DEGREE_LIMIT:
            raise ExpressionBlowupError(
                f"degree {degree} exceeds the guard ({DEGREE_LIMIT}) in {quoted(self.text)}"
            )
        top = max(map(abs, [*value.num.terms.values(), *value.den.terms.values()]))
        digits = power * digit_count(top)
        if digits > DIGIT_LIMIT:
            raise ExpressionBlowupError(
                f"{digits} digits exceed the guard ({DIGIT_LIMIT}) in {quoted(self.text)}"
            )
        return value

    def expr(self) -> RationalExpr:
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = self.guard(value + rhs if op == "+" else value - rhs)
        return value

    def term(self) -> RationalExpr:
        value = self.unary()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.unary()
            value = self.guard(value * rhs if op == "*" else value / rhs)
        return value

    def unary(self) -> RationalExpr:
        if self.peek() == "-":
            self.take()
            return -self.nested(self.unary)
        return self.power()

    def power(self) -> RationalExpr:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ExprSyntaxError(
                    f"exponent must be a nonnegative integer literal in {quoted(self.text)}"
                )
            n = self.integer(tok[1])
            return self.guard(self.guard(base, n) ** n)  # refused before it is formed
        return base

    def atom(self) -> RationalExpr:
        kind, value = self.take()
        if kind == "int":
            return RationalExpr(Polynomial.const(self.integer(value)), _P_ONE)
        if kind == "ident":
            return variable(value)
        if kind == "(":
            inner = self.nested(self.expr)
            self.expect(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {quoted(value)} in {quoted(self.text)}")


@lru_cache(maxsize=4096)  # a catalog repeats its texts ("0" 745 times in the builtin one)
def parse_expr(text: str) -> RationalExpr:
    """Parse expression text (integers, parameters, ``+ - * / ^``, parens)."""
    return _Parser(text).parse()


def _mono_str(exp: int) -> str:
    parts = []
    for name, s in zip(PARAMS, _SHIFT):
        k = exp >> s & _FIELD
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def _poly_str(p: Polynomial, divisor: int = 1) -> str:
    """p / divisor, its coefficients printed as reduced fractions."""
    if p.is_zero:
        return "0"
    pieces = []
    for exp in sorted(p.terms, reverse=True):
        coeff = Fraction(p.terms[exp], divisor)
        mono = _mono_str(exp)
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def format_expr(e: RationalExpr) -> str:
    """Canonical printing: graded-lex term order, no redundant parentheses;
    the denominator's integer content is divided into the numerator."""
    content, den = _split(e.den)
    try:
        num, text = _poly_str(e.num, content), _poly_str(den)
    except ValueError:  # str() refuses an int past the interpreter's digit limit
        digits = digit_count(max(map(abs, [*e.num.terms.values(), *e.den.terms.values()])))
        raise ExpressionBlowupError(f"cannot print a coefficient of {digits} digits") from None
    if den == _P_ONE:
        return num
    if len(e.num.terms) > 1:
        num = f"({num})"
    # a primitive one-term denominator has coefficient 1: a lone power needs no parens
    return f"{num}/({text})" if " " in text or "*" in text else f"{num}/{text}"


# -- shared denominators --------------------------------------------------


def common_denominator(values) -> Tuple[Polynomial, List[Polynomial]]:
    """(D, numerators) with values[i] == numerators[i] / D, D the lcm of the
    denominators: math.lcm of their integer contents times the lcm of their
    primitive parts, for which divisibility is tried both ways before a gcd."""
    dens = {d: _split(d) for d in dict.fromkeys(v.den for v in values if v.num.terms)}
    scale, lcm = 1, _P_ONE
    for c, d in dens.values():
        scale = _int_lcm(scale, c)
        if d == lcm or exact_div(lcm, d) is not None:
            continue
        if exact_div(d, lcm) is not None:
            lcm = d
        else:
            lcm = d * exact_div(lcm, poly_gcd(lcm, d))
    lcm = lcm.scale(scale)
    cofactors = {d: _P_ONE if d == lcm else exact_div(lcm, d) for d in dens}
    return lcm, [v.num * cofactors[v.den] if v.num.terms else v.num for v in values]


def nonzero_rows(rows) -> List[List[Tuple[int, Polynomial]]]:
    """``(index, numerator)`` for the nonzero entries of each row, so that a
    kernel loops over those only."""
    return [[(k, x) for k, x in enumerate(row) if x.terms] for row in rows]


def _laplace(m: List[List[Polynomial]], adjugate: bool = False):
    """(det, adj or None) of a polynomial matrix; memoized minors are expanded
    along their first row, so the cofactors share the determinant's."""
    memo: dict = {}

    def minor(rows: tuple, cols: tuple) -> Polynomial:
        if not rows:
            return _P_ONE
        if (rows, cols) in memo:
            return memo[rows, cols]
        acc = _P_ZERO
        for pos, c in enumerate(cols):
            e = m[rows[0]][c]
            if e.is_zero:
                continue
            sub = minor(rows[1:], cols[:pos] + cols[pos + 1 :])
            if not sub.is_zero:
                acc = acc + e * sub if pos % 2 == 0 else acc - e * sub
        memo[rows, cols] = acc
        return acc

    n = len(m)
    full = tuple(range(n))
    det = minor(full, full)
    if not adjugate:
        return det, None
    adj = [[_P_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor(full[:i] + full[i + 1 :], full[:j] + full[j + 1 :])
            adj[j][i] = -cof if (i + j) % 2 else cof
    return det, adj


# -- matrices ----------------------------------------------------------------


class ExprMatrix:
    """Immutable rectangular matrix of rational expressions."""

    __slots__ = ("rows", "cols", "entries", "_clear")

    def __init__(self, entries):
        self._clear = None  # (D, N) of ``_cleared``, made on first use
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix construction")

    @classmethod
    def identity(cls, n: int) -> "ExprMatrix":
        return cls(
            [[EXPR_ONE if i == j else EXPR_ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExprMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._entrywise(RationalExpr.__add__, other)

    def __sub__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._entrywise(RationalExpr.__sub__, other)

    def _entrywise(self, op, other: "ExprMatrix") -> "ExprMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return ExprMatrix([list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "ExprMatrix":
        return ExprMatrix([[-x for x in row] for row in self.entries])

    def __matmul__(self, other: "ExprMatrix") -> "ExprMatrix":
        """One shared denominator per operand, one normalization per entry."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        da, na = self._cleared()
        db, nb = other._cleared()
        b_rows = nonzero_rows(nb)
        den = da * db
        split = _split(den)
        out = []
        for row in na:
            acc = [_P_ZERO] * other.cols
            for k, x in enumerate(row):
                if x.terms:
                    for j, y in b_rows[k]:
                        acc[j] = acc[j] + x * y
            out.append([_make(x, den, split) for x in acc])
        return ExprMatrix(out)

    def _cleared(self):
        """(D, N): the entries as polynomial numerators N[i][j] over one D,
        computed once per matrix; callers only read N."""
        if self._clear is None:
            den, flat = common_denominator([x for row in self.entries for x in row])
            c = self.cols
            self._clear = den, [flat[i * c : (i + 1) * c] for i in range(self.rows)]
        return self._clear

    def scale(self, factor: ExprLike) -> "ExprMatrix":
        f = expr(factor)
        return ExprMatrix([[f * x for x in row] for row in self.entries])

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self) -> RationalExpr:
        self._square()
        acc = EXPR_ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def det(self) -> RationalExpr:
        self._square()
        den, nums = self._cleared()
        det, _ = _laplace(nums)
        return _make(det, den ** self.rows)

    def inverse(self) -> "ExprMatrix":
        """A = N/D gives A^-1 = D adj(N) / det(N), one normalization per entry."""
        self._square()
        den, nums = self._cleared()
        det, adj = _laplace(nums, adjugate=True)
        if det.is_zero:
            raise SingularMatrixError("matrix determinant is identically zero")
        split = _split(det)
        return ExprMatrix([[_make(x * den, det, split) for x in row] for row in adj])

    def _square(self):
        if self.rows != self.cols:
            raise ValueError(f"matrix is {self.rows}x{self.cols}, not square")

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(format_expr(x) for x in row) for row in self.entries
        ) + "]"

    def __repr__(self) -> str:
        return f"ExprMatrix({self})"
