"""Deterministic rational parameter sampling.

The generator is a self-contained splitmix64 so that identical seeds give
byte-identical runs on every platform and Python version.  Sample points are
small rationals (numerators and denominators in [-9, 9]) rejected against
parameter domains and against a list of polynomials that must not vanish
(typically the denominators collected from a structure's expressions).  A
point is a ``SamplePoint``, so the avoid test and every later evaluation at
it sum integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .expressions import PARAMS, Polynomial, SamplePoint

_MASK = (1 << 64) - 1
MAX_TRIES = 2000  # draws per sample point before sampling gives up


class DeterministicRng:
    """splitmix64 stream; stable across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; determinism matters, bias does not."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def fraction(self) -> Fraction:
        return Fraction(self.randint(-9, 9), self.randint(1, 9))


class SamplingError(RuntimeError):
    """No admissible sample found within ``MAX_TRIES`` draws."""


def sample_point(
    rng: DeterministicRng,
    domains: Mapping[str, "ParamDomainLike"],
    avoid: Iterable[Polynomial] = (),
) -> SamplePoint:
    """Draw one assignment of all parameters avoiding the given zero sets.

    ``domains`` maps parameter names to objects with an ``admits(Fraction)``
    method; parameters not listed are unconstrained.  Every polynomial in
    ``avoid`` must evaluate to a nonzero value at the returned point.
    """
    avoid = tuple(avoid)
    for _ in range(MAX_TRIES):
        values = {}
        ok = True
        for name in PARAMS:
            domain = domains.get(name)
            value = rng.fraction()
            if domain is not None:
                for _ in range(200):
                    if domain.admits(value):
                        break
                    value = rng.fraction()
                else:
                    ok = False
                    break
            values[name] = value
        if not ok:
            continue
        point = SamplePoint(values)
        if all(point.homogenized(p)[0] for p in avoid):
            return point
    raise SamplingError(
        f"no admissible sample in {MAX_TRIES} tries for domains "
        f"{sorted(domains)} avoiding {len(avoid)} polynomials"
    )

