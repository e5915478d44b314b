"""Checks on the program's JSON reports that share no code with the program.

Expressions printed by the program and by the sympy reference are compared by
evaluating both exactly, with ``Fraction`` arithmetic, at fixed rational
points (two rational functions that agree at such points are taken as equal).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

# the builtin entry that is verified apart, under a deadline, in another basis
HELD_OUT = "r2p.omega.J1"
NAMES = ("a", "b", "c", "d", "lam", "alpha", "beta")
POINTS = (
    dict(zip(NAMES, map(Fraction, ("3/7", "-5/11", "2/13", "7/5", "4/3", "-1/9", "8/17")))),
    dict(zip(NAMES, map(Fraction, ("-9/4", "11/3", "5/2", "-3/8", "13/6", "2/7", "-7/3")))),
    dict(zip(NAMES, map(Fraction, ("17/5", "2/9", "-6/7", "9/13", "5/11", "3/2", "1/5")))),
)
_ALLOWED = re.compile(r"^[0-9a-z+\-*/^() ]*$")


def evaluate(text: str, point: Dict[str, Fraction]) -> Fraction:
    """Exact value of an expression in the catalog grammar at ``point``."""
    if not _ALLOWED.match(text):
        raise ValueError(f"unexpected character in {text!r}")
    names = set(re.findall(r"[a-z]+", text))
    if not names <= set(NAMES):
        raise ValueError(f"unknown names {sorted(names - set(NAMES))} in {text!r}")
    code = re.sub(r"\d+", lambda m: f"F({m.group()})", text.replace("^", "**"))
    return Fraction(eval(code, {"__builtins__": {}, "F": Fraction}, dict(point)))


def same_value(x: Optional[str], y: Optional[str], scale: int = 1) -> bool:
    """x == scale * y as rational functions (None only equals None)."""
    if x is None or y is None:
        return x is None and y is None
    checked = 0
    for point in POINTS:
        try:
            vx, vy = evaluate(x, point), evaluate(y, point)
        except ZeroDivisionError:
            continue
        if vx != scale * vy:
            return False
        checked += 1
    return checked >= 2


def check_report(
    doc: dict,
    reference: Dict[str, dict],
    ids: Iterable[str],
    samples: int,
    lifts: bool = False,
) -> List[str]:
    """Problems found in one report; empty when every check holds.

    ``reference`` holds the independent values of each builtin entry.  They
    are basis invariants, so they also serve for the same entry written in
    another basis.
    """
    problems: List[str] = []
    ids = sorted(ids)
    summary = doc.get("summary", {})
    if summary.get("failures") != 0 or summary.get("gates_ok") != 1:
        problems.append(f"summary reports failures or failed gates: {summary}")
    entries = doc.get("entries", [])
    if sorted(e["id"] for e in entries) != ids:
        problems.append("report entries differ from the catalog's entries")
    for e in entries:
        sid = e["id"]
        ref = reference[sid]
        label = e["label"]
        bad_axioms = [k for k, v in e["axioms"].items() if not v["ok"]]
        if bad_axioms:
            problems.append(f"{sid}: axioms fail: {bad_axioms}")
        metric = e["metric"]
        if not all(metric[k] for k in ("symmetric", "compat", "roundtrip", "signature_ok")):
            problems.append(f"{sid}: metric checks fail: {metric}")
        if e["corroboration"] != {"samples": samples, "agree": samples}:
            problems.append(f"{sid}: corroboration {e['corroboration']} at {samples} samples")
        if label["anti_invariant"] is not True:
            problems.append(f"{sid}: Ricci tensor not J-anti-invariant")
        if label["computed"] != ref["label"]:
            problems.append(f"{sid}: label {label['computed']} != reference {ref['label']}")
        if label["match"] != ref["match"]:
            problems.append(f"{sid}: match {label['match']} != reference {ref['match']}")
        if not same_value(label["einstein_factor"], ref["einstein_factor"]):
            problems.append(
                f"{sid}: Einstein factor {label['einstein_factor']} != "
                f"reference {ref['einstein_factor']}"
            )
        if ref["einstein_factor"] is not None and not same_value(
            ref["scalar"], ref["einstein_factor"], scale=4
        ):
            problems.append(f"{sid}: reference scalar is not 4 x Einstein factor")
        ric = e["ric_comparison"]
        if ric["expected_present"] != ref["ric_present"] or bool(ric["residuals"]) != ref["ric_differs"]:
            problems.append(f"{sid}: Ricci-operator residual presence differs from reference")
        if "recomputed" in ric:
            trace = " + ".join(f"({ric['recomputed'][i][i]})" for i in range(len(ric["recomputed"])))
            if not same_value(trace, ref["scalar"]):
                problems.append(f"{sid}: trace of the recomputed Ricci operator != reference scalar")
        if e["status"] != ref["status"]:
            problems.append(f"{sid}: status {e['status']} != reference {ref['status']}")
    if lifts:
        lifted = doc.get("sasakian") or []
        if sorted(f["id"] for f in lifted) != ids:
            problems.append("5D lifts differ from the catalog's entries")
        problems.extend(f"{f['id']}: 5D lift is {f['status']}" for f in lifted if f["status"] != "ok")
        if summary.get("sasakian_failures") != 0:
            problems.append("summary reports 5D lift failures")
    return problems
