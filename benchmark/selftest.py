"""Show that the benchmark's checks catch planted errors.

    python3 benchmark/selftest.py          # from the root of a checkout

Each case runs the real CLI on a small part of the catalog, plants one error
in the reference, the generated catalog or the program's report, and requires
the checks of ``checks.py`` to report a problem.  An unplanted control run
must report none.  Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import sympy

from checks import check_report
from conjugate import builtin_document, conjugate_algebra, pair_shear, parse, show

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDS = ["r2p.omega.J2", "r2p.omega.J3"]  # an Einstein entry and a flat one, both quick
sys.path.insert(0, os.path.join(ROOT, "src"))

from parakahler import cli  # noqa: E402  (the program under test)


def verify(extra) -> dict:
    out = os.path.join(HERE, "out", "selftest-report.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    argv = ["verify", "--samples", "1", "--filter", "r2p.omega.J[23]", "--out", out, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verify_document(document: dict) -> dict:
    path = os.path.join(HERE, "out", "selftest-catalog.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return verify(["--catalog", path])


def r2p_algebra() -> dict:
    (alg,) = [a for a in builtin_document()["algebras"] if a["name"] == "r2p"]
    return {**alg, "structures": [s for s in alg["structures"] if s["id"] in IDS]}


def main() -> int:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as handle:
        reference = json.load(handle)
    builtin = verify([])
    p = pair_shear(4)
    builtin_ric = {s["id"]: s["expected"].get("ric") for s in r2p_algebra()["structures"]}

    def planted_reference(change):
        ref = copy.deepcopy(reference)
        change(ref)
        return check_report(builtin, ref, IDS, 1)

    def planted_report(change):
        doc = copy.deepcopy(builtin)
        change(doc)
        return check_report(doc, reference, IDS, 1)

    def planted_catalog(change):
        alg = conjugate_algebra(r2p_algebra(), p)
        change({s["id"]: s for s in alg["structures"]})
        return check_report(verify_document({"algebras": [alg]}), reference, IDS, 1)

    def wrong_ric_transform(structures):
        # P^T RIC P in place of P^T RIC P^-T
        ric = sympy.Matrix([[parse(x) for x in row] for row in builtin_ric["r2p.omega.J2"]])
        wrong = p.T * ric * p
        structures["r2p.omega.J2"]["expected"]["ric"] = [
            [show(wrong[r, c]) for c in range(4)] for r in range(4)
        ]

    def broken_j(structures):
        s = structures["r2p.omega.J3"]
        s["J"][0][1] = f"({s['J'][0][1]}) + 1"

    cases = [
        ("control: builtin entries, true reference", check_report(builtin, reference, IDS, 1), False),
        ("control: entries in another basis", planted_catalog(lambda s: None), False),
        ("reference label flipped", planted_reference(lambda r: r["r2p.omega.J3"].update(label="ricci_flat")), True),
        ("reference match flag flipped", planted_reference(lambda r: r["r2p.omega.J2"].update(match=False)), True),
        ("reference Einstein factor wrong", planted_reference(lambda r: r["r2p.omega.J2"].update(einstein_factor="-b")), True),
        ("report corroboration short", planted_report(lambda d: d["entries"][0]["corroboration"].update(agree=0)), True),
        ("report not anti-invariant", planted_report(lambda d: d["entries"][1]["label"].update(anti_invariant=False)), True),
        ("Ricci operator transformed wrongly", planted_catalog(wrong_ric_transform), True),
        ("J in another basis broken", planted_catalog(broken_j), True),
    ]
    ok = True
    for name, problems, planted in cases:
        good = bool(problems) == planted
        ok = ok and good
        first = problems[0] if problems else "no problem found"
        print(f"{'PASS' if good else 'FAIL'}  {name}: {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
