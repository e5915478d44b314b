"""Shared fixture algebras and forms (transcribed independently of the catalog)."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from parakahler.liealgebra import LieAlgebra, ParamDomain, TwoForm

HALF = Fraction(1, 2)


def make_algebra(name):
    brackets = {
        "r2r2": [(1, 2, 2, 1), (3, 4, 4, 1)],
        "rh3": [(1, 2, 3, 1)],
        "rr30": [(1, 2, 2, 1)],
        "rr3m1": [(1, 2, 2, 1), (1, 3, 3, -1)],
        "r2p": [(1, 3, 3, 1), (1, 4, 4, 1), (2, 3, 4, 1), (2, 4, 3, -1)],
        "r40": [(1, 4, 1, -1), (3, 4, 2, -1)],
        "r4m1": [(1, 4, 1, -1), (2, 4, 2, 1), (3, 4, 2, -1), (3, 4, 3, 1)],
        "r4m1m1": [(1, 4, 1, -1), (2, 4, 2, 1), (3, 4, 3, 1)],
        "d41": [(1, 2, 3, 1), (3, 4, 3, -1), (1, 4, 1, -1)],
        "d42": [(1, 2, 3, 1), (3, 4, 3, -1), (1, 4, 1, -2), (2, 4, 2, 1)],
        "d4lam": [(1, 2, 3, 1), (3, 4, 3, -1), (1, 4, 1, "-lam"), (2, 4, 2, "lam-1")],
        "h4": [(1, 2, 3, 1), (3, 4, 3, -1), (1, 4, 1, "-1/2"), (2, 4, 1, -1), (2, 4, 2, "-1/2")],
        "rn4": [],
    }
    params = {
        "d4lam": (("lam", ParamDomain("open-interval", lo=HALF, excluded=(Fraction(1), Fraction(2)))),),
        "r2r2": (("lam", ParamDomain("positive")),),
    }
    return LieAlgebra.from_brackets(name, 4, brackets[name], params.get(name, ()))


def make_form(dim, terms):
    return TwoForm.from_terms(dim, terms)


def relatives() -> dict:
    """Two relatives of the classification, outside the builtin catalog, with
    all forms of their algebras: h4.omegam.J, the sign-twin of h4.omegap.J
    sharing its J, and r2r2.lambda0.J24bc, J24 specialized to c = b."""
    return json.loads(Path(__file__).with_name("relatives.json").read_text(encoding="utf-8"))


@pytest.fixture
def r2r2():
    return make_algebra("r2r2")


@pytest.fixture
def rh3():
    return make_algebra("rh3")


@pytest.fixture
def r2p():
    return make_algebra("r2p")


@pytest.fixture
def rn4():
    return make_algebra("rn4")


@pytest.fixture
def d4lam():
    return make_algebra("d4lam")
