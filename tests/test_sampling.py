"""Deterministic sampling: reproducibility and constraint avoidance."""

from fractions import Fraction

import pytest

from parakahler import sampling
from parakahler.expressions import Polynomial
from parakahler.liealgebra import ParamDomain
from parakahler.sampling import DeterministicRng, SamplingError, sample_point


def test_rng_reproducible():
    a = [DeterministicRng(42).next_u64() for _ in range(5)]
    b = [DeterministicRng(42).next_u64() for _ in range(5)]
    assert a == b
    assert a != [DeterministicRng(43).next_u64() for _ in range(5)]


def test_fraction_range():
    rng = DeterministicRng(1)
    for _ in range(200):
        q = rng.fraction()
        assert -9 <= q.numerator <= 9 or abs(q) <= 9
        assert 1 <= q.denominator <= 9


def test_domains_respected():
    domains = {
        "alpha": ParamDomain("open-interval", lo=Fraction(0), hi=Fraction(1)),
        "beta": ParamDomain("open-interval", lo=Fraction(-1), hi=Fraction(0)),
        "lam": ParamDomain("positive", excluded=(Fraction(1),)),
    }
    rng = DeterministicRng(3)
    for _ in range(50):
        point = sample_point(rng, domains)
        assert 0 <= point["alpha"] < 1
        assert -1 <= point["beta"] < 0
        assert point["lam"] > 0 and point["lam"] != 1


def test_avoid_polynomials():
    b = Polynomial.var("b")
    rng = DeterministicRng(9)
    for _ in range(50):
        point = sample_point(rng, {}, avoid=[b])
        assert point["b"] != 0


def test_unsatisfiable_raises(monkeypatch):
    # no fraction with denominator <= 9 lies in this sliver
    impossible = ParamDomain(
        "open-interval", lo=Fraction(1, 1000001), hi=Fraction(1, 1000000)
    )
    monkeypatch.setattr(sampling, "MAX_TRIES", 50)
    with pytest.raises(SamplingError, match="no admissible sample in 50 tries"):
        sample_point(DeterministicRng(0), {"b": impossible})


def test_sample_points_deterministic():
    domains = {"lam": ParamDomain("positive")}

    def points(seed):
        rng = DeterministicRng(seed)
        return [sample_point(rng, domains) for _ in range(4)]

    assert points(5) == points(5)
