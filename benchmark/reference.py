"""Independent sympy reference for the builtin catalog.

From each builtin structure's brackets, omega and J alone this recomputes,
sharing no code with ``parakahler``:

- the metric g = omega . J and the Levi-Civita connection, written as the
  matrices L_i of nabla_{e_i} from the Koszul formula
  2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y);
- the curvature R(e_i, e_j) = [L_i, L_j] - L_{[e_i, e_j]}, the Ricci tensor
  Ric_jk = trace(X -> R(X, e_j) e_k), the operator RIC = Ric . g^-1 and the
  scalar curvature S = trace(RIC);
- the label (flat > ricci_flat > einstein > hermitian_ricci > generic), the
  Einstein factor S/4, whether the published label holds, whether the
  published Ricci operator differs, and the resulting status.

The result is written to ``reference.json`` beside this file::

    python3 benchmark/reference.py        # about half a minute
"""

from __future__ import annotations

import json
import os

import sympy

from conjugate import builtin_document, form_matrix, parse, show, structure_constants

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference.json")


def is_zero(value) -> bool:
    return sympy.cancel(value) == 0


def zero_matrix(m: sympy.Matrix) -> bool:
    return all(is_zero(x) for x in m)


def analyse(const, w: sympy.Matrix, jm: sympy.Matrix, expected: dict) -> dict:
    n = w.shape[0]
    g = (w * jm).applyfunc(sympy.cancel)
    if not zero_matrix(g - g.T):
        raise ValueError("omega . J is not symmetric")
    ginv = g.inv().applyfunc(sympy.cancel)

    def bracket(i, j):  # coordinates of [e_i, e_j]
        return sympy.Matrix([const[i][j][k] for k in range(n)])

    def gform(x, y):
        return (x.T * g * y)[0, 0]

    basis = [sympy.Matrix([1 if r == i else 0 for r in range(n)]) for i in range(n)]
    # lowered[k] = g(nabla_{e_i} e_j, e_k) as the (i, j) entry
    lowered = [
        sympy.Matrix(
            n,
            n,
            lambda i, j: sympy.Rational(1, 2)
            * (
                gform(bracket(i, j), basis[k])
                - gform(bracket(j, k), basis[i])
                + gform(bracket(k, i), basis[j])
            ),
        )
        for k in range(n)
    ]
    # conn[i][:, j] = nabla_{e_i} e_j in coordinates
    conn = []
    for i in range(n):
        cols = []
        for j in range(n):
            low = sympy.Matrix([lowered[k][i, j] for k in range(n)])
            cols.append(ginv * low)
        conn.append(sympy.Matrix.hstack(*cols).applyfunc(sympy.cancel))
    curv = {}
    for i in range(n):
        for j in range(n):
            r = conn[i] * conn[j] - conn[j] * conn[i]
            for p in range(n):
                if const[i][j][p] != 0:
                    r -= const[i][j][p] * conn[p]
            curv[i, j] = r.applyfunc(sympy.cancel)
    ric = sympy.Matrix(
        n, n, lambda j, k: sympy.cancel(sum(curv[i, j][i, k] for i in range(n)))
    )
    op = (ric * ginv).applyfunc(sympy.cancel)
    scalar = sympy.cancel(op.trace())
    factor = sympy.cancel(scalar / n)
    herm = zero_matrix(jm.T * ric * jm - ric)
    if not zero_matrix(jm.T * ric * jm + ric):
        raise ValueError("Ricci tensor is not J-anti-invariant")

    flat = all(zero_matrix(r) for r in curv.values())
    ricci_flat = zero_matrix(ric)
    einstein = zero_matrix(ric - factor * g)
    if flat:
        label = "flat"
    elif ricci_flat:
        label = "ricci_flat"
    elif einstein:
        label = "einstein"
    elif herm:
        label = "hermitian_ricci"
    else:
        label = "generic"

    published = expected.get("label")
    holds = {
        None: True,
        "flat": flat,
        "ricci_flat": ricci_flat,
        "einstein": einstein
        and (
            "einstein_factor" not in expected
            or is_zero(factor - parse(expected["einstein_factor"]))
        ),
        "hermitian_ricci": herm,
    }[published]
    ric_differs = "ric" in expected and not zero_matrix(
        op - sympy.Matrix([[parse(x) for x in row] for row in expected["ric"]])
    )
    return {
        "label": label,
        "einstein_factor": show(factor) if label in ("flat", "ricci_flat", "einstein") else None,
        "scalar": show(scalar),
        "published_label": published,
        "match": holds,
        "ric_present": "ric" in expected,
        "ric_differs": ric_differs,
        "status": "ok" if holds and not ric_differs else "discrepancy",
    }


def build() -> dict:
    out = {}
    for alg in builtin_document()["algebras"]:
        const = structure_constants(alg)
        forms = {f["id"]: form_matrix(alg["dim"], f) for f in alg["forms"]}
        for s in alg["structures"]:
            if s.get("variant"):
                continue
            jm = sympy.Matrix([[parse(x) for x in row] for row in s["J"]])
            out[s["id"]] = analyse(const, forms[s["form"]], jm, s.get("expected", {}))
    return dict(sorted(out.items()))


def main() -> None:
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
