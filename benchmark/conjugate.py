"""Rewrite the builtin catalog in another basis, independently of the program.

For every algebra a seeded integer unimodular matrix P (columns are the new
basis vectors f_a = sum_i P[i][a] e_i) is drawn, a fixed pair shear times a
seeded diagonal sign matrix, and the algebra's data is transformed with sympy,
sharing no code with ``parakahler``:

    C'^c_ab = sum Q[c][k] C^k_ij P[i][a] P[j][b]     (Q = P^-1)
    omega'  = P^T omega P
    J'      = P^-1 J P                               (columns are images)
    RIC'    = P^T RIC P^-T                           (RIC = Ric . g^-1)

Labels and Einstein factors are basis invariants and are copied.  The builtin
document is read from ``builtin_data.py`` by file path, so the package itself
is never imported.

``HELD_OUT`` (``r2p.omega.J1``) is also written to a catalog of its own in the
chain-shear basis, which does not depend on the seed; there the program
cannot verify it in reasonable time (see README.md).

Usage::

    python3 benchmark/conjugate.py --seed 3 --out conjugated.json \
        --held-out r2p_J1.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random

import sympy

from checks import HELD_OUT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("a", "b", "c", "d", "lam", "alpha", "beta")
SYMS = {name: sympy.Symbol(name) for name in NAMES}


def builtin_document() -> dict:
    path = os.path.join(ROOT, "src", "parakahler", "builtin_data.py")
    spec = importlib.util.spec_from_file_location("_builtin_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BUILTIN_DOCUMENT


def parse(text) -> sympy.Expr:
    return sympy.parse_expr(str(text).replace("^", "**"), local_dict=SYMS)


def show(value: sympy.Expr) -> str:
    """Canonical p/q text in the catalog grammar (``^`` for powers)."""
    return str(sympy.cancel(value)).replace("**", "^")


def structure_constants(alg: dict):
    """const[i][j][k] = C^k_ij, antisymmetric in i, j (0-based)."""
    n = alg["dim"]
    const = [[[sympy.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, raw in alg["brackets"]:
        const[i - 1][j - 1][k - 1] += parse(raw)
        const[j - 1][i - 1][k - 1] -= parse(raw)
    return const


def form_matrix(n: int, form: dict) -> sympy.Matrix:
    """The antisymmetric matrix of a two-form given by its terms."""
    w = sympy.zeros(n)
    for i, j, raw in form["terms"]:
        w[i - 1, j - 1] += parse(raw)
        w[j - 1, i - 1] -= parse(raw)
    return w


def pair_shear(n: int) -> sympy.Matrix:
    """f_1 = e_1 + e_2, f_3 = e_3 + e_4, ...: unit lower triangular, det 1."""
    p = sympy.eye(n)
    for i in range(1, n, 2):
        p[i, i - 1] = 1
    return p


def chain_shear(n: int) -> sympy.Matrix:
    """f_i = e_i + e_{i+1}: unit lower bidiagonal, det 1."""
    p = sympy.eye(n)
    for i in range(1, n):
        p[i, i - 1] = 1
    return p


def seeded_basis(rng: random.Random, n: int) -> sympy.Matrix:
    """pair shear . signs: the seed negates some of the sheared basis vectors.

    Negating basis vectors changes the signs of coefficients but not which
    terms are zero, so the work per pass does not depend on the seed.
    """
    return pair_shear(n) * sympy.diag(*[rng.choice((-1, 1)) for _ in range(n)])


def conjugate_algebra(alg: dict, p: sympy.Matrix) -> dict:
    n = alg["dim"]
    q = p.inv()
    const = structure_constants(alg)
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                value = sum(
                    q[c, k] * const[i][j][k] * p[i, a] * p[j, b]
                    for i in range(n)
                    for j in range(n)
                    for k in range(n)
                    if const[i][j][k] != 0 and p[i, a] != 0 and p[j, b] != 0
                )
                if sympy.cancel(value) != 0:
                    brackets.append([a + 1, b + 1, c + 1, show(value)])
    forms = []
    for form in alg["forms"]:
        w2 = p.T * form_matrix(n, form) * p
        terms = [
            [i + 1, j + 1, show(w2[i, j])]
            for i in range(n)
            for j in range(i + 1, n)
            if sympy.cancel(w2[i, j]) != 0
        ]
        forms.append({"id": form["id"], "terms": terms})
    structures = []
    for s in alg["structures"]:
        jm = sympy.Matrix([[parse(x) for x in row] for row in s["J"]])
        j2 = q * jm * p
        out = dict(s)
        out["J"] = [[show(j2[r, c]) for c in range(n)] for r in range(n)]
        expected = dict(s.get("expected", {}))
        if "ric" in expected:
            ric = sympy.Matrix([[parse(x) for x in row] for row in expected["ric"]])
            ric2 = p.T * ric * q.T
            expected["ric"] = [[show(ric2[r, c]) for c in range(n)] for r in range(n)]
        out["expected"] = expected
        structures.append(out)
    return {**alg, "brackets": brackets, "forms": forms, "structures": structures}


def conjugate(seed: int):
    """(all non-variant entries in seeded bases, HELD_OUT in the chain-shear basis)."""
    rng = random.Random(seed)
    main, held = [], []
    for alg in builtin_document()["algebras"]:
        keep = [s for s in alg["structures"] if not s.get("variant")]
        main.append(conjugate_algebra({**alg, "structures": keep}, seeded_basis(rng, alg["dim"])))
        only = [s for s in keep if s["id"] == HELD_OUT]
        if only:
            held.append(conjugate_algebra({**alg, "structures": only}, chain_shear(alg["dim"])))
    return {"algebras": main}, {"algebras": held}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--held-out", required=True)
    args = parser.parse_args()
    main_doc, held_doc = conjugate(args.seed)
    for path, document in ((args.out, main_doc), (args.held_out, held_doc)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    main()
