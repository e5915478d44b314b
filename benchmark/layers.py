"""Per-layer tracing by wrapping the program's public functions from outside.

``Tracer.install`` replaces each traced function, wherever a ``parakahler``
module or class holds it, with a wrapper that counts calls and, for spans,
adds wall time.  A span that recurses into itself is timed on its outermost
call only.  The self time of a span is its duration minus the time of the
spans it called.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

# metric prefix -> (module, attribute path) of every function in the span
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "catalog.load": (("catalog", "load_catalog"),),
    "liealgebra.gates": (("liealgebra", "jacobi_check"), ("liealgebra", "is_symplectic")),
    "structures.axioms": (
        ("structures", "check_involution"),
        ("structures", "check_omega_compat"),
        ("structures", "nijenhuis"),
    ),
    "structures.metric": (
        ("structures", "metric_from"),
        ("structures", "check_metric_compat"),
        ("structures", "omega_from"),
    ),
    "structures.signature": (("structures", "signature_at"),),
    "sampling.sample": (("sampling", "sample_point"),),
    "curvature.bundle": (("curvature", "curvature_bundle"),),
    "curvature.classify": (
        ("curvature", "classify"),
        ("curvature", "label_holds"),
        ("curvature", "anti_invariance_residual"),
        ("curvature", "compare_ric_operator"),
    ),
    "numeric.oracle": (
        ("numeric", "christoffel"),
        ("numeric", "curvature"),
        ("numeric", "ricci"),
    ),
    "contact.lift": (
        ("contact", "central_extend"),
        ("contact", "build_paracontact"),
        ("contact", "check_contact"),
        ("contact", "almost_paracontact_residuals"),
        ("contact", "check_compatible_metric"),
        ("contact", "metric_restriction_residuals"),
        ("contact", "reeb_residuals"),
    ),
    "contact.identities": (
        ("contact", "verify_lifted_curvature"),
        ("contact", "verify_lifted_ricci"),
    ),
    "verify.entry": (("verify", "verify_entry"),),
    "verify.render": (("verify", "render_report"),),
    "expressions.gcd": (("expressions", "poly_gcd"),),
    "expressions.inverse": (("expressions", "ExprMatrix.inverse"),),
}

# metric prefix -> functions whose calls are counted but not timed
COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "expressions.eval": (("expressions", "Polynomial.eval"),),
    "expressions.exact_div": (("expressions", "exact_div"),),
    "expressions.mul": (("expressions", "Polynomial.__mul__"),),
}

# the per-layer metrics reported, in order, with their units
METRICS = (
    ("numeric.oracle_s", "s"),
    ("numeric.oracle_calls", "count"),
    ("verify.entry_self_s", "s"),
    ("expressions.eval_calls", "count"),
    ("structures.signature_s", "s"),
    ("sampling.sample_s", "s"),
    ("curvature.bundle_s", "s"),
    ("curvature.bundle_calls", "count"),
    ("curvature.classify_s", "s"),
    ("contact.lift_s", "s"),
    ("contact.identities_s", "s"),
    ("structures.axioms_s", "s"),
    ("structures.metric_s", "s"),
    ("expressions.gcd_s", "s"),
    ("expressions.gcd_calls", "count"),
    ("expressions.exact_div_calls", "count"),
    ("expressions.mul_calls", "count"),
    ("expressions.inverse_s", "s"),
    ("expressions.inverse_calls", "count"),
    ("expressions.peak_terms", "terms"),
    ("catalog.load_s", "s"),
    ("liealgebra.gates_s", "s"),
    ("verify.render_s", "s"),
)


def _resolve(module: str, path: str):
    owner = sys.modules[f"parakahler.{module}"]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.peak_terms = 0
        self._stack: List[float] = []  # time of timed children, per open span
        self._depth: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _span(self, key: str, fn: Callable) -> Callable:
        stack, depth, total, self_time, calls = (
            self._stack, self._depth, self.total, self.self_time, self.calls,
        )
        clock = time.perf_counter
        for table in (total, self_time):
            table.setdefault(key, 0.0)
        calls.setdefault(key, 0)
        depth[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] = 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += spent
                total[key] += spent
                self_time[key] += spent - children
                depth[key] = 0

        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        calls = self.calls
        calls.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _guard(self, fn: Callable) -> Callable:
        def wrapper(terms):
            if len(terms) > self.peak_terms:
                self.peak_terms = len(terms)
            return fn(terms)

        return wrapper

    def _replace(self, original, wrapped) -> None:
        """Swap ``original`` for ``wrapped`` wherever the package refers to it."""
        for name, module in list(sys.modules.items()):
            if name != "parakahler" and not name.startswith("parakahler."):
                continue
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, attr, value))
                        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for key, targets in table.items():
                for module, path in targets:
                    owner, name = _resolve(module, path)
                    original = vars(owner)[name]
                    self._replace(original, make(key, original))
        owner, name = _resolve("expressions", "_guard")
        original = vars(owner)[name]
        self._replace(original, self._guard(original))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self) -> Dict[str, dict]:
        values = {
            "verify.entry_self_s": self.self_time["verify.entry"],
            "expressions.peak_terms": self.peak_terms,
        }
        for key in SPANS:
            values[f"{key}_s"] = self.total[key]
        for key, count in self.calls.items():
            values[f"{key}_calls"] = count
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
