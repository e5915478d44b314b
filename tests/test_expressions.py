"""Exact scalar and matrix arithmetic."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from parakahler import expressions
from parakahler.expressions import (
    PARAMS,
    DenominatorVanishesError,
    ExpressionBlowupError,
    ExprMatrix,
    ExprSyntaxError,
    Polynomial,
    SamplePoint,
    SingularMatrixError,
    SymbolicZeroDivisionError,
    UnknownParameterError,
    common_denominator,
    digit_count,
    expr,
    format_expr,
    parse_expr,
    poly_gcd,
    variable,
)

from oracles import (
    agrees,
    from_rows,
    grlex,
    pack,
    poly_eval,
    polynomial,
    tuple_exact_div,
    tuple_mul,
)


def test_add_shares_denominator():
    assert expr("(a^2-1)/b") + expr("1/b") == expr("a^2/b")


def test_add_zero_is_identity():
    x = expr("(a^2-1)/b")
    assert x + expr(0) == x


def test_difference_of_squares_is_zero():
    product = expr("a+1") * expr("a-1")
    assert (product - expr("a^2-1")).is_zero


def test_mul_cancels_denominator():
    assert expr("b") * expr("(a^2-1)/b") == expr("a^2-1")


def test_div_self_is_one():
    q = expr("a/b")
    assert q / q == expr(1)


def test_mul_by_zero():
    assert (expr("lam") * expr(0)).is_zero


def test_div_by_symbolic_zero_raises():
    zero = expr("a") - expr("a")
    with pytest.raises(SymbolicZeroDivisionError):
        expr("b") / zero


def test_eval_simple():
    e = expr("(a^2-1)/b")
    assert SamplePoint({"a": Fraction(3), "b": Fraction(2)}).quotient(e) == 4


def test_eval_linear():
    e = expr("-3*b/2")
    assert SamplePoint({"b": Fraction(2)}).quotient(e) == -3


def test_eval_denominator_vanishes():
    e = expr("(a^2-1)/b")
    with pytest.raises(DenominatorVanishesError) as info:
        SamplePoint({"a": Fraction(1), "b": Fraction(0)}).quotient(e)
    assert info.value.point["b"] == 0
    # the message names the primitive denominator and every value of the point
    point = {"b": Fraction(-1), "a": 1, "c": Fraction(1, 2)}
    for evaluate in (
        lambda: SamplePoint(point).quotient(expr("(a^2-1)/(2*a+2*b)")),
        lambda: agrees(SamplePoint(point), expr("1/(a+b)"), Fraction(0)),
    ):
        with pytest.raises(DenominatorVanishesError) as info:
            evaluate()
        assert str(info.value) == "denominator a + b vanishes at a=1, b=-1, c=1/2"
        assert info.value.point == point


def test_eval_partial_point():
    # a point may leave out parameters that the expression does not use
    point = SamplePoint({"b": Fraction(1, 3), "lam": Fraction(-2, 5)})
    assert dict(point) == {"b": Fraction(1, 3), "lam": Fraction(-2, 5)}
    e = expr("(b^2 - lam)/(3*b)")
    assert point.quotient(e) == Fraction(23, 45)
    assert agrees(point, e, Fraction(23, 45))
    assert not agrees(point, e, Fraction(23, 44))
    for missing in (expr("a + b"), expr("b/c"), expr("c/b")):
        with pytest.raises(ValueError, match="no value assigned to parameter"):
            point.quotient(missing)
        with pytest.raises(ValueError, match="no value assigned to parameter"):
            agrees(point, missing, Fraction(1))
    with pytest.raises(ValueError, match="no value assigned to parameter 'a'"):
        Polynomial.var("a").eval({"b": Fraction(2)})


_VALUES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_POINTS = st.fixed_dictionaries({name: _VALUES for name in PARAMS})


def _exponent_terms(nvars, top, size):
    """Integer polynomials in the first ``nvars`` parameters, each exponent
    at most ``top``, as dicts from exponent tuples to coefficients."""
    exponents = st.tuples(*[st.integers(0, top)] * nvars).map(
        lambda e: e + (0,) * (len(PARAMS) - nvars)
    )
    return st.dictionaries(exponents, st.integers(-60, 60).filter(bool), max_size=size)


def _polynomials(nvars, top, size):
    return _exponent_terms(nvars, top, size).map(polynomial)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_polynomials(len(PARAMS), 3, 6), _POINTS)
def test_integer_evaluator_equals_fraction_loop(f, point):
    reference = poly_eval(f, point)
    assert SamplePoint(point).value(f) == reference
    assert f.eval(point) == reference


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_polynomials(3, 2, 4), _polynomials(3, 2, 4), _POINTS, _VALUES)
def test_agrees_is_equality_of_values(f, h, point, other):
    # the quotient is normalized, so keep its gcd small: a, b, c only
    assume(not h.is_zero)
    e = expr(f) / expr(h)
    at = SamplePoint(point)
    den = poly_eval(e.den, point)
    if den == 0:
        for evaluate in (lambda: at.quotient(e), lambda: agrees(at, e, other)):
            with pytest.raises(DenominatorVanishesError):
                evaluate()
        return
    value = poly_eval(e.num, point) / den
    assert at.quotient(e) == value
    for v in (value, other, value + 1, 2 * value, -value):
        assert agrees(at, e, v) == (at.quotient(e) == v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(_polynomials(3, 3, 4), max_size=5), _polynomials(3, 2, 4), _POINTS)
def test_cleared_puts_numerators_over_one_positive_denominator(nums, den, point):
    # numerators of different degrees, zeros among them, over a denominator
    # of either sign: the signature reads the integers as g times d > 0
    assume(not den.is_zero)
    at = SamplePoint(point)
    d_value = poly_eval(den, point)
    if d_value == 0:
        with pytest.raises(DenominatorVanishesError):
            at.cleared(den, nums)
        return
    values, d = at.cleared(den, nums + [Polynomial({})])
    assert d > 0 and values[-1] == 0
    assert [Fraction(v, d) for v in values[:-1]] == [poly_eval(f, point) / d_value for f in nums]


def _printed(terms: dict) -> str:
    """The text of ``terms`` (exponent tuples) with its terms put in graded-lex
    order by the tuples; each term is printed alone by the package."""
    pieces = [str(polynomial({e: terms[e]})) for e in sorted(terms, key=grlex, reverse=True)]
    if not pieces:
        return "0"
    signed = [f"- {p[1:]}" if p.startswith("-") else f"+ {p}" for p in pieces[1:]]
    return " ".join(pieces[:1] + signed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_exponent_terms(3, 2, 4), _exponent_terms(3, 2, 4))
def test_packed_monomials_agree_with_exponent_tuples(f, g):
    pf, pg = polynomial(f), polynomial(g)
    assert pf * pg == polynomial(tuple_mul(f, g))
    if g:
        expected = tuple_exact_div(f, g)
        found = expressions.exact_div(pf, pg)
        assert found == (None if expected is None else polynomial(expected))
        assert expressions.exact_div(pf * pg, pg) == pf
    for v in range(3):
        assert pf.degree_in(v) == max((e[v] for e in f), default=0)
        for k in range(3):
            coeff = {e[:v] + (0,) + e[v + 1 :]: c for e, c in f.items() if e[v] == k}
            assert expressions._coeff_of(pf, v, k) == polynomial(coeff)
    assert str(pf) == _printed(f)
    if f:
        top = max(f, key=grlex)
        assert pf.leading() == (pack(top), f[top])


def test_exact_div_refuses_a_divisor_larger_in_one_field():
    # b*c has the smaller total degree and the smaller a-exponent, but more b
    assert expressions.exact_div(parse_expr("a*c^2").num, parse_expr("b*c").num) is None
    assert expressions.exact_div(parse_expr("a*b*c^2").num, parse_expr("b*c").num) == (
        parse_expr("a*c").num
    )
    assert expressions.exact_div(parse_expr("a^2").num, parse_expr("a*b").num) is None


def test_product_reaching_the_exponent_field_is_refused_unformed(monkeypatch):
    half = Polynomial.var("a") ** (expressions.EXPONENT_LIMIT // 2)
    below = Polynomial.var("beta") ** (expressions.EXPONENT_LIMIT // 2 - 1)
    top = half * below  # the largest total degree a polynomial may have
    assert (top.degree_in(0), top.degree_in(6)) == (16384, 16383)
    assert str(top) == "a^16384*beta^16383"
    quadratic = parse_expr("a^2 + b + 1").num
    formed = []
    monkeypatch.setattr(expressions, "_guard", lambda terms: formed.append(terms) or terms)
    with pytest.raises(ExpressionBlowupError, match=r"degree 32768 reaches the guard \(32768\)"):
        half * half
    with pytest.raises(ExpressionBlowupError, match="product of degree 32769"):
        top * quadratic
    assert formed == []


def test_pow_and_negative_pow():
    e = expr("a/b")
    assert e**3 == expr("a^3/b^3")
    assert e**-1 == expr("b/a")


def test_parse_rejects_unknown_parameter():
    with pytest.raises(UnknownParameterError):
        parse_expr("a + q")


def test_parse_rejects_garbage():
    for bad in ("a+*b", "a^b", "(a", "a)", "1..2", "a$"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


def test_parse_precedence():
    assert parse_expr("1 - 2*a + a^2") == (expr("a") - 1) * (expr("a") - 1)
    assert parse_expr("-a^2") == -(expr("a") ** 2)
    assert parse_expr("3/2*a") == expr("a").__mul__(Fraction(3, 2))


def test_format_round_trip():
    samples = [
        "a^2 + a*b - 1",
        "(a^2 - 1)/b",
        "-3/2*b",
        "(c^2 + d^2)/(2*b)",
        "1/(a^2 - 1)",
        "0",
        "a/b^2",
    ]
    for text in samples:
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


def test_format_canonical_examples():
    assert format_expr(expr("(a^2-1)/b")) == "(a^2 - 1)/b"
    assert format_expr(expr("b*3/2")) == "3/2*b"
    assert format_expr(expr("a/(b*2)")) == "1/2*a/b"
    assert format_expr(expr("1/(c^2+d^2)")) == "1/(c^2 + d^2)"


def _apply(args):
    lhs, op, rhs = args
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    return lhs if rhs.is_zero else lhs / rhs


_EXPRESSIONS = st.recursive(
    st.one_of(st.integers(-4, 4).map(expr), st.sampled_from("abc").map(variable)),
    lambda children: st.tuples(children, st.sampled_from("+-*/"), children).map(_apply),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_EXPRESSIONS, _EXPRESSIONS)
def test_canonical_form(e, f):
    # coprime in Z[params], integer content included, positive-leading denominator
    coeffs = [*e.num.terms.values(), *e.den.terms.values()]
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1
    assert e.den.leading()[1] > 0
    assert poly_gcd(e.num, e.den) == Polynomial.const(1)
    text = format_expr(e)
    assert parse_expr(text) == e
    assert format_expr(parse_expr(text)) == text
    # equality is read off the canonical form
    assert (e == f) == (e - f).is_zero
    assert (e + f) - f == e


def _random_expr(rng: random.Random):
    names = ("a", "b", "c")
    num = expr(0)
    for _ in range(rng.randint(1, 3)):
        term = expr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * variable(rng.choice(names))
        num = num + term
    den = expr(0)
    while den.is_zero:
        den = expr(rng.randint(-3, 3)) + variable(rng.choice(names)) * rng.randint(0, 1)
    return num / den


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(60):
        x, y, z = (_random_expr(rng) for _ in range(3))
        assert ((x + y) + z - (x + (y + z))).is_zero
        assert (x * (y + z) - (x * y + x * z)).is_zero
        assert (x * y - y * x).is_zero


def test_eval_is_homomorphism():
    rng = random.Random(7)
    x = expr("(a^2-1)/b + c")
    y = expr("(b-2)/(a+5) - c*a")
    hits = 0
    while hits < 200:
        point = {
            "a": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            "b": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            "c": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        }
        try:
            at = SamplePoint(point)
            xv, yv = at.quotient(x), at.quotient(y)
            assert at.quotient(x * y) == xv * yv
            assert at.quotient(x + y) == xv + yv
            assert at.quotient(x - y) == xv - yv
        except DenominatorVanishesError:
            continue
        hits += 1


def test_is_zero_implies_eval_zero():
    rng = random.Random(99)
    z = expr("(a+b)^2") - expr("a^2 + 2*a*b + b^2")
    assert z.is_zero
    for _ in range(50):
        point = {
            "a": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            "b": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        }
        assert SamplePoint(point).quotient(z) == 0


def test_nonzero_detected_by_sampling():
    e = expr("(a-1)*(a+2)")
    assert not e.is_zero
    assert any(SamplePoint({"a": Fraction(k)}).quotient(e) != 0 for k in range(-5, 6))


def test_gcd_reduction_keeps_quotients_small():
    # ((a+b)*(a-b)) / ((a+b)*b) must reduce to (a-b)/b
    num = expr("a+b") * expr("a-b")
    den = expr("a+b") * expr("b")
    assert num / den == expr("(a-b)/b")


# -- matrices ---------------------------------------------------------------


def _oracle_det(rows):
    """Independent cofactor expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = expr(0)
    for i in range(n):
        sub = [row[1:] for k, row in enumerate(rows) if k != i]
        term = rows[i][0] * _oracle_det(sub)
        total = total + term if i % 2 == 0 else total - term
    return total


G3_ROWS = [
    ["b", 0, 0, "a"],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    ["a", 0, 0, "(a^2-1)/b"],
]


def test_identity_inverse():
    eye = ExprMatrix.identity(4)
    assert eye.inverse() == eye


def test_det_matches_cofactor_oracle():
    m = from_rows(G3_ROWS)
    oracle = _oracle_det([[expr(v) for v in row] for row in G3_ROWS])
    assert m.det() == oracle
    assert m.det() == expr(1)


def test_inverse_times_matrix_is_identity():
    m = from_rows(G3_ROWS)
    assert m @ m.inverse() == ExprMatrix.identity(4)
    assert m.inverse() @ m == ExprMatrix.identity(4)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        from_rows([[0, 0], [0, 0]]).inverse()


def test_parametric_inverse_round_trip():
    m = from_rows(
        [
            ["a+1", "b", 0, "c"],
            [0, 1, "d", 0],
            ["1/b", 0, 1, 0],
            [0, "c", 0, 2],
        ]
    )
    assert m @ m.inverse() == ExprMatrix.identity(4)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        from_rows([[0] * 3] * 2) @ from_rows([[0] * 3] * 2)


def test_matrix_identities_randomized():
    # polynomial entries keep the degree growth of det(A @ B) manageable
    rng = random.Random(314)
    names = ("a", "b", "c")

    def random_matrix():
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                e = expr(rng.randint(-3, 3))
                if rng.random() < 0.5:
                    e = e + variable(rng.choice(names)) * rng.randint(-2, 2)
                row.append(e)
            rows.append(row)
        return ExprMatrix(rows)

    for _ in range(6):
        a, b = random_matrix(), random_matrix()
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert (a @ b).det() == a.det() * b.det()
        if not a.det().is_zero:
            assert a @ a.inverse() == ExprMatrix.identity(3)


def test_term_limit_guard(monkeypatch):
    monkeypatch.setattr(expressions, "TERM_LIMIT", 10)
    base = parse_expr("a+b+c+d")
    with pytest.raises(ExpressionBlowupError):
        (base ** 4) * (base ** 4)


def test_term_guard_bounds_a_product_before_forming_it(monkeypatch):
    # (a+b)(a-b) = a^2 - b^2 has 2 terms, but it takes 4 term products
    f, g = parse_expr("a+b").num, parse_expr("a-b").num
    monkeypatch.setattr(expressions, "TERM_LIMIT", 3)
    with pytest.raises(ExpressionBlowupError, match="product of 2 by 2 terms"):
        f * g
    monkeypatch.setattr(expressions, "TERM_LIMIT", 4)
    assert f * g == parse_expr("a^2-b^2").num


def test_degree_guard_refuses_a_power_before_forming_it():
    assert parse_expr("a^1000") == variable("a") ** 1000
    for text in ("a^1001", "(a*b)^501", "(1/(a+b))^1001", "a^99999999999999999999"):
        with pytest.raises(ExpressionBlowupError, match=r"exceeds the guard \(1000\)"):
            parse_expr(text)


def test_degree_guard_refuses_every_other_result_past_it():
    # the numerator and the denominator are bounded apart, after cancelling
    assert parse_expr("a^600/b^1000") == variable("a") ** 600 / variable("b") ** 1000
    assert parse_expr("a^1000/a^999*a^999") == variable("a") ** 1000
    for text in ("a^600*b^401", "(a^600+1)*b^401", "a^600+1/b^401", "a^1000*a-b"):
        with pytest.raises(ExpressionBlowupError, match="degree 1001 exceeds the guard"):
            parse_expr(text)


def test_digit_guard_refuses_a_power_before_forming_it():
    # the bound is the exponent times the digits of the base's largest coefficient
    assert parse_expr("9^4300") == expr(9**4300)
    assert parse_expr("(-7/2)^4300") == expr(Fraction(-7, 2) ** 4300)
    for text in ("2^300000000", "9^4301", "10^2151", "(1/3)^4301", "(1234567890*a-b)^500"):
        with pytest.raises(ExpressionBlowupError, match=r"digits exceed the guard \(4300\)"):
            parse_expr(text)


def test_digit_guard_refuses_every_other_result_past_it():
    nines = "9" * 4300  # the longest literal that int() reads
    assert parse_expr(nines + "-1") == expr(10**4300 - 2)
    c = "9" + "0" * 2149  # 2 times 2,150 digits is in bounds, but 2 c^2 has 4,301
    for text in (nines + "+1", nines + "*10", "a/" + nines + "/10", f"({c}*a+{c}*b)^2"):
        with pytest.raises(ExpressionBlowupError, match="4301 digits exceed the guard"):
            parse_expr(text)


def test_digit_count_at_the_powers_of_ten():
    for k in (1, 15, 16, 17, 4300, 5000):
        assert digit_count(10**k - 1) == k
        assert digit_count(-(10**k)) == k + 1


def test_format_names_a_coefficient_too_long_to_print():
    assert format_expr(expr(10**4299)) == "1" + "0" * 4299
    with pytest.raises(ExpressionBlowupError, match="cannot print a coefficient of 5001 digits"):
        format_expr(expr(10**5000) * variable("a"))


def test_evaluation_memory_does_not_grow_with_the_degree():
    # built directly: the parser's degree guard would refuse this power
    f = Polynomial.var("a") ** 4000
    at = SamplePoint({"a": Fraction(-7, 9)})
    tracemalloc.start()
    try:
        value = at.value(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == Fraction(-7, 9) ** 4000
    assert peak < 1_000_000


def _cleared_afresh(m):
    den, flat = common_denominator([x for row in m.entries for x in row])
    return den, [flat[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]


def test_cleared_is_cached_per_matrix_and_never_inherited():
    m = from_rows([["a/(b+1)", "1/b"], ["c", "(a+1)/(b^2+b)"]])
    first = m._cleared()
    assert m._cleared() is first
    assert first == _cleared_afresh(m)
    other = from_rows([["b", "1/a"], ["1/(a+1)", "2"]])
    other._cleared()
    results = (m @ other, m + other, m - other, m.transpose(), m.scale("1/(c+1)"), m.inverse())
    for result in results:
        assert result._cleared() == _cleared_afresh(result)
