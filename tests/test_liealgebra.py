"""Brackets, Jacobi identity, invariant-form differentials, symplectic gates."""

import random
from fractions import Fraction

import pytest

from parakahler.expressions import ExprMatrix, expr
from parakahler.liealgebra import (
    LieAlgebra,
    OddDimensionError,
    TwoForm,
    ce_differential_1,
    ce_differential_2,
    is_symplectic,
    jacobi_check,
    pfaffian4,
)

from conftest import make_algebra, make_form
from oracles import three_form_component


def _vec(*values):
    return [expr(v) for v in values]


def test_bracket_r2r2_basis(r2r2):
    assert r2r2.bracket(_vec(1, 0, 0, 0), _vec(0, 1, 0, 0)) == tuple(_vec(0, 1, 0, 0))


def test_bracket_antisymmetry_on_self(r2r2):
    x = _vec(2, "a", -1, 3)
    assert all(v.is_zero for v in r2r2.bracket(x, x))


def test_bracket_d42_scaling():
    d42 = make_algebra("d42")
    out = d42.bracket(_vec(0, 0, 0, 1), _vec(1, 0, 0, 0))
    assert out == tuple(_vec(2, 0, 0, 0))


def test_bracket_bilinearity_random(r2r2):
    rng = random.Random(11)
    for _ in range(20):
        x = _vec(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
        x2 = _vec(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
        y = _vec(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
        left = r2r2.bracket([u + v for u, v in zip(x, x2)], y)
        right = [
            u + v for u, v in zip(r2r2.bracket(x, y), r2r2.bracket(x2, y))
        ]
        assert all((u - v).is_zero for u, v in zip(left, right))


def test_jacobi_abelian(rn4):
    assert jacobi_check(rn4).ok


def test_jacobi_symbolic_d4lam(d4lam):
    assert jacobi_check(d4lam).ok


def test_jacobi_all_fixture_algebras():
    for name in (
        "r2r2",
        "rh3",
        "rr30",
        "rr3m1",
        "r2p",
        "r40",
        "r4m1",
        "r4m1m1",
        "d41",
        "d42",
        "d4lam",
        "h4",
    ):
        assert jacobi_check(make_algebra(name)).ok, name


def _oracle_jacobi_first_violation(algebra):
    """Direct expansion of all basis triples, independent of jacobi_check."""
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    total = expr(0)
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for p in range(n):
                            total = total + algebra.c(y, z, p) * algebra.c(x, p, m)
                    if not total.is_zero:
                        return (i + 1, j + 1, k + 1)
    return None


def test_jacobi_detects_corruption():
    corrupted = LieAlgebra.from_brackets(
        "corrupt", 4, [(1, 2, 3, 1), (3, 4, 4, 1)]
    )
    report = jacobi_check(corrupted)
    assert not report.ok
    assert _oracle_jacobi_first_violation(corrupted) == (1, 2, 4)
    assert report.violation[:3] == (1, 2, 4)


def test_d1_heisenberg(rh3):
    d_e3 = ce_differential_1(rh3, _vec(0, 0, 1, 0))
    assert d_e3 == make_form(4, [(1, 2, -1)])


def test_d2_heisenberg_form_closed(rh3):
    omega = make_form(4, [(1, 4, 1), (2, 3, 1)])
    assert not ce_differential_2(rh3, omega)


def test_d2_abelian_always_closed(rn4):
    omega = make_form(4, [(1, 3, "a"), (2, 4, "b"), (1, 2, 7)])
    assert not ce_differential_2(rn4, omega)


def test_dd_vanishes_on_one_forms():
    for name in ("r2r2", "rh3", "r2p", "d42", "d4lam", "h4"):
        algebra = make_algebra(name)
        for p in range(4):
            alpha = [expr(1 if q == p else 0) for q in range(4)]
            d_alpha = ce_differential_1(algebra, alpha)
            assert not ce_differential_2(algebra, d_alpha), (name, p)


def test_leibniz_on_decomposable_two_forms():
    # d(alpha ^ beta) = d(alpha) ^ beta - alpha ^ d(beta) for one-forms,
    # with the shuffle convention for wedges
    rng = random.Random(31)
    for name in ("r2r2", "rh3", "r2p", "d4lam", "h4"):
        algebra = make_algebra(name)
        alpha = [expr(rng.randint(-3, 3)) for _ in range(4)]
        beta = [expr(rng.randint(-3, 3)) for _ in range(4)]
        # (alpha ^ beta)_ij = alpha_i beta_j - alpha_j beta_i
        wedge = TwoForm(
            ExprMatrix(
                [
                    [alpha[i] * beta[j] - alpha[j] * beta[i] for j in range(4)]
                    for i in range(4)
                ]
            )
        )
        lhs = ce_differential_2(algebra, wedge)
        d_alpha = ce_differential_1(algebra, alpha)
        d_beta = ce_differential_1(algebra, beta)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    # (omega ^ gamma)(x,y,z) over the three shuffles
                    rhs = (
                        d_alpha(i, j) * beta[k]
                        - d_alpha(i, k) * beta[j]
                        + d_alpha(j, k) * beta[i]
                    ) - (
                        alpha[i] * d_beta(j, k)
                        - alpha[j] * d_beta(i, k)
                        + alpha[k] * d_beta(i, j)
                    )
                    assert (three_form_component(lhs, i, j, k) - rhs).is_zero, (name, i, j, k)


def test_symplectic_r2r2(r2r2):
    omega = make_form(4, [(1, 2, 1), (1, 3, "lam"), (3, 4, 1)])
    report = is_symplectic(r2r2, omega)
    assert report.ok and report.closed
    assert report.det == expr(1)
    assert pfaffian4(omega) == expr(1)


def test_symplectic_degenerate_fails(rn4):
    omega = make_form(4, [(1, 2, 1)])
    report = is_symplectic(rn4, omega)
    assert not report.ok
    assert report.det.is_zero


def test_symplectic_d41_second_form():
    d41 = make_algebra("d41")
    omega2 = make_form(4, [(1, 2, 1), (3, 4, -1), (2, 4, 1)])
    assert is_symplectic(d41, omega2).ok


def test_symplectic_needs_even_dimension():
    odd = LieAlgebra.from_brackets("odd", 3, [(1, 2, 3, 1)])
    omega = TwoForm.from_terms(3, [(1, 2, 1)])
    with pytest.raises(OddDimensionError):
        is_symplectic(odd, omega)
