"""Catalog verification driver and report generation.

``verify_entry`` runs the whole chain for one catalog entry on the symplectic
report that its form's gate computed: the three para-complex axioms, metric
properties with sampled signatures, the curvature pipeline with the label
facts that ``classify`` forms and ``label_holds`` reads, entrywise comparison
against the published Ricci operator, and an integer re-run of the pipeline
at sampled parameter points.  These are stages on one finding, built first as
the failure of an entry whose axioms fail: each stage that passes fills in its
part, and the first that fails (an axiom, a degenerate form, a metric,
signature or corroboration check) returns the finding as it stands;
g = omega J is symmetric once the omega axiom holds.
Only an entry that passes every stage is ``ok`` or a ``discrepancy``.  Each
sample point is one ``SamplePoint``, which evaluates in integers: the avoid
test, g once over one positive denominator for the signature and the oracle,
and each symbolic tensor over its shared denominator for the corroboration,
which cross-multiplies integers and builds no ``Fraction``.
Mathematical failures are recorded in the finding, never raised; only
infrastructure problems (e.g. the expression-size guard) propagate.

Published labels and matrices that disagree with the exact recomputation are
*discrepancies*: they are reported with the recomputed value but do not count
as failures, mirroring how a typo in a printed table should surface.

``verify_extension`` checks the 5D para-Sasakian lift of an entry on its
form's lift, which ``verify_all`` builds once per (algebra, form) with
``lift_form`` with its contact and Reeb checks, and takes the entry's 4D
curvature bundle as given.  An entry whose 4D check built no bundle (its J
fails an axiom) has nothing to lift: its extension is a recorded failure, like
a form that is not symplectic or fails the Reeb identities; every check of
its document fails, and its one cause is in ``residuals``.

A finding is its report document, a dict of JSON values, and ``verify_all``
returns the report document that ``render_report`` dumps as it is.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from . import numeric
from .catalog import Catalog, CatalogEntry
from .contact import (
    CentralExtension,
    ContactReport,
    NonSymplecticError,
    almost_paracontact_residuals,
    build_paracontact,
    central_extend,
    check_compatible_metric,
    check_contact,
    metric_restriction_residuals,
    reeb_residuals,
    verify_lifted_curvature,
    verify_lifted_ricci,
)
from .curvature import (
    CurvatureBundle,
    classify,
    compare_ric_operator,
    curvature_bundle,
    label_holds,
)
from .expressions import ExprMatrix, Polynomial, format_expr
from .liealgebra import LieAlgebra, SymplecticReport, TwoForm, is_symplectic, jacobi_check
from .structures import (
    Metric,
    SingularMetricError,
    check_involution,
    check_metric_compat,
    check_omega_compat,
    nijenhuis,
    signature_at,
)
from .sampling import DeterministicRng, sample_point


class RunConfig(NamedTuple):
    seed: int = 0
    samples: int = 20
    strict: bool = False
    entry_filter: Optional[str] = None


def _axiom_dict(check) -> dict:
    out = {"ok": check.ok}
    if not check.ok:
        where, residual = check.residuals[0]
        out["first_failure"] = {"where": where, "residual": residual}
    return out


def _avoid(
    algebra: LieAlgebra, form: TwoForm, *matrices: Optional[ExprMatrix]
) -> List[Polynomial]:
    """The distinct non-constant denominators of the structure constants, of the
    form and of ``matrices`` (None is skipped): the sampler must dodge their zeros."""
    values = [v for _, _, v in form.terms()]
    values += [v for m in matrices if m is not None for row in m.entries for v in row]
    dens = list(algebra.denominators()) + [v.den for v in values if not v.den.is_const]
    return list(dict.fromkeys(dens))


def _numeric_corroboration(algebra, g, bundle, at) -> bool:
    """Re-run the pipeline in integers from ``g``, the metric at ``at`` as
    integers over one denominator; each symbolic tensor's shared denominator is
    evaluated once, and each component n/d must equal the oracle's a/b, n*b ==
    a*d (a symbolic zero needs a zero a).  Those denominators are products of
    factors of the structure constants' and the metric's denominators and of
    det g's numerator (through g^-1), whose zeros the sampler avoids."""
    n = algebra.dim
    c = algebra.structure_at(at)
    ginv = numeric.invert(g)
    gamma = numeric.christoffel(c, g, ginv)
    riem = numeric.curvature(c, gamma)
    ric, op, scalar = numeric.ricci(riem, ginv)
    r_values, r_d = at.cleared(bundle.riemann.den, [x for _, x in bundle.riemann.nums])
    r_flat = [0] * n**4
    for ((i, j, k, s), _), v in zip(bundle.riemann.nums, r_values):
        r_flat[((i * n + j) * n + k) * n + s], r_flat[((j * n + i) * n + k) * n + s] = v, -v
    ric_den, ric_nums = bundle.ricci.ricci._cleared()
    op_den, op_nums = bundle.ricci.operator._cleared()
    s_expr = bundle.ricci.scalar
    checks = (
        (at.cleared(bundle.christoffel.den, bundle.christoffel.nums), gamma, 3),
        ((r_flat, r_d), riem, 4),
        (at.cleared(ric_den, [x for row in ric_nums for x in row]), ric, 2),
        (at.cleared(op_den, [x for row in op_nums for x in row]), op, 2),
        (at.cleared(s_expr.den, [s_expr.num]), ([scalar[0]], scalar[1]), 1),
    )
    for (values, d), (oracle, b), depth in checks:
        for _ in range(depth - 1):
            oracle = [x for part in oracle for x in part]
        if [v * b for v in values] != [a * d for a in oracle]:
            return False
    return True


def verify_entry(
    catalog: Catalog,
    entry: CatalogEntry,
    report: SymplecticReport,
    config: RunConfig = RunConfig(),
) -> Tuple[dict, Optional[CurvatureBundle]]:
    """Verify one entry; ``report`` is ``is_symplectic`` of its form.  Returns the
    finding and the 4D curvature, which the extension check takes and which is
    None when the finding stops before computing one."""
    algebra = catalog.algebra_of(entry)
    form = catalog.form_of(entry)
    involution = check_involution(entry.j_matrix)
    wj = form.matrix @ entry.j_matrix  # g, once the omega check passes
    wjj = wj.transpose() @ entry.j_matrix  # then g J = omega
    compat = check_omega_compat(form, wj, wjj)
    integrability = nijenhuis(algebra, entry.j_matrix).as_check()
    finding = {
        "id": entry.entry_id,
        "algebra": entry.algebra,
        "form": entry.form,
        "axioms": {
            "involution": _axiom_dict(involution),
            "omega_compat": _axiom_dict(compat),
            "nijenhuis": _axiom_dict(integrability),
        },
        "metric": {
            "symmetric": False,
            "compat": False,
            "roundtrip": False,
            "signature_samples": 0,
            "signature_ok": False,
        },
        "label": {
            "computed": None,
            "expected": entry.expected.label,
            "match": entry.expected.label is None,
            "einstein_factor": None,
            "expected_factor": None
            if entry.expected.einstein_factor is None
            else format_expr(entry.expected.einstein_factor),
            "anti_invariant": None,
            "operator_commutes": None,
        },
        "ric_comparison": {
            "expected_present": entry.expected.ric is not None,
            "residuals": [],
        },
        "corroboration": {"samples": 0, "agree": 0},
        "status": "failure",  # ok | discrepancy | failure
        "notes": [entry.note] if entry.note else [],
    }
    if not (involution.ok and compat.ok and integrability.ok):
        return finding, None
    metric_info, label_info = finding["metric"], finding["label"]
    ric_info, notes = finding["ric_comparison"], finding["notes"]
    g = Metric(wj)
    metric_info["symmetric"] = True
    metric_info["compat"] = check_metric_compat(g, wjj).ok
    metric_info["roundtrip"] = TwoForm(wjj) == form
    # det g = det(omega) det(J) and J^2 = Id, so det g vanishes
    # identically exactly when the form is degenerate.
    if report.det.is_zero:
        notes.append(
            f"form {entry.form!r} is degenerate (det omega = 0): the metric "
            "is singular, so no curvature is computed"
        )
        return finding, None

    bundle = curvature_bundle(algebra, g)
    classification = classify(bundle, entry.j_matrix)
    label_info["computed"] = classification.label
    if classification.einstein_factor is not None:
        label_info["einstein_factor"] = format_expr(classification.einstein_factor)
    label_info["anti_invariant"] = classification.anti_invariant
    label_info["operator_commutes"] = classification.operator_commutes
    if entry.expected.label is not None:
        label_info["match"] = label_holds(
            entry.expected.label, classification, factor=entry.expected.einstein_factor
        )
    op = bundle.ricci.operator
    if entry.expected.ric is not None:
        residuals = compare_ric_operator(op, entry.expected.ric)
        ric_info["residuals"] = [
            [i, j, format_expr(v)] for (i, j, v) in residuals
        ]
        if residuals:
            ric_info["recomputed"] = [
                [format_expr(op[i, j]) for j in range(op.cols)]
                for i in range(op.rows)
            ]

    domains = catalog.domains_of(entry)
    # det g = +-det omega (J^2 = Id), so avoiding det omega's numerator keeps g
    # invertible at every sample
    avoid = _avoid(algebra, form, entry.j_matrix, entry.expected.ric)
    if not report.det.is_const:
        avoid.append(report.det.num)
    rng = DeterministicRng(config.seed * 0x10001 + len(entry.entry_id))
    signature_ok = True
    agree = 0
    n = algebra.dim
    g_den, g_nums = g.matrix._cleared()
    for _ in range(config.samples):
        at = sample_point(rng, domains, avoid)
        values, d = at.cleared(g_den, [x for row in g_nums for x in row])
        g_at = [values[i * n:(i + 1) * n] for i in range(n)]  # over d > 0
        try:
            if signature_at(g_at) != (n // 2, n // 2):
                signature_ok = False
        except SingularMetricError:
            signature_ok = False
        if _numeric_corroboration(algebra, (g_at, d), bundle, at):
            agree += 1
    metric_info["signature_samples"] = config.samples
    metric_info["signature_ok"] = signature_ok
    finding["corroboration"] = {"samples": config.samples, "agree": agree}
    if not (
        metric_info["compat"]
        and metric_info["roundtrip"]
        and signature_ok
        and agree == config.samples
    ):
        return finding, bundle

    if not label_info["match"]:
        notes.append(
            f"published label {entry.expected.label!r} does not hold; "
            f"recomputed label is {label_info['computed']!r}"
        )
    if ric_info["residuals"]:
        notes.append("published Ricci operator differs; recomputed matrix attached")
    discrepant = not label_info["match"] or ric_info["residuals"]
    finding["status"] = "discrepancy" if discrepant else "ok"
    return finding, bundle


# a form's extension with its contact check and Reeb result, or why it has none
FormLift = Union[Tuple[CentralExtension, ContactReport, bool], NonSymplecticError]


def lift_form(algebra: LieAlgebra, form: TwoForm, report: SymplecticReport) -> FormLift:
    """The central extension by ``form`` with its contact and Reeb checks, or why
    it has none; ``report`` is the form's symplectic gate."""
    try:
        ext = central_extend(algebra, form, report)
    except NonSymplecticError as exc:
        return exc
    return ext, check_contact(ext), all(r.is_zero for r in reeb_residuals(ext))


def _unbuilt(entry_id: str, where: str, why: str) -> dict:
    """The extension document of a lift that was never built: every check fails."""
    return {
        "id": entry_id,
        "contact": {"ok": False, "coefficient": "n/a"},
        "almost_paracontact_ok": False,
        "compatible_metric_ok": False,
        "restriction_ok": False,
        "reeb_ok": False,
        "phi_vs_deta": "mismatch",
        "curvature_identities": {},
        "ricci_identities": {},
        "residuals": [[where, why]],
        "status": "failure",
    }


def verify_extension(
    entry: CatalogEntry, lift: FormLift, base_bundle: Optional[CurvatureBundle]
) -> dict:
    """Check the para-Sasakian identities of one entry on its form's lift.

    ``base_bundle`` is the entry's 4D curvature from ``verify_entry``; it is
    None when the 4D check failed before computing one.
    """
    if isinstance(lift, NonSymplecticError):
        return _unbuilt(entry.entry_id, "central_extension", f"form {entry.form!r}: {lift}")
    ext, contact, reeb = lift
    if not reeb:  # then h = eta^T eta - d(eta) phi is no metric
        why = f"form {entry.form!r}: xi is not the Reeb vector of eta"
        return _unbuilt(entry.entry_id, "reeb", why)
    if base_bundle is None:
        why = (
            f"structure {entry.entry_id!r} fails a para-Kahler axiom, so it has "
            "no 4D curvature to lift"
        )
        return _unbuilt(entry.entry_id, "base_structure", why)
    ps = build_paracontact(ext, entry.j_matrix)
    ext_bundle = curvature_bundle(ext.extended, ps.h)
    apc = all(r.is_zero for r in almost_paracontact_residuals(ps))
    compat = check_compatible_metric(ps).is_zero
    restriction = metric_restriction_residuals(ps, base_bundle.metric).is_zero
    t2 = verify_lifted_curvature(ps, base_bundle, entry.j_matrix, ext_bundle)
    t3 = verify_lifted_ricci(ps, base_bundle, ext_bundle)
    ok = (
        contact.ok
        and apc
        and compat
        and restriction
        and ps.phi_vs_deta == "equal"
        and t2.ok
        and t3.ok
    )
    return {
        "id": entry.entry_id,
        "contact": {"ok": contact.ok, "coefficient": format_expr(contact.coefficient)},
        "almost_paracontact_ok": apc,
        "compatible_metric_ok": compat,
        "restriction_ok": restriction,
        "reeb_ok": True,
        "phi_vs_deta": ps.phi_vs_deta,  # equal | negated | mismatch
        "curvature_identities": dict(t2.identities),
        "ricci_identities": dict(t3.identities),
        "residuals": [list(r) for r in t2.residuals + t3.residuals],
        "status": "ok" if ok else "failure",
    }


def _algebra_gates(catalog: Catalog, entries, config: RunConfig):
    """(gates document, symplectic report per (algebra, form)) for ``entries``."""
    gates: Dict[str, dict] = {}
    reports: Dict[Tuple[str, str], SymplecticReport] = {}
    needed = {}
    for e in entries:
        needed.setdefault(e.algebra, set()).add(e.form)
    for name in sorted(needed):
        algebra = catalog.algebras[name]
        jr = jacobi_check(algebra)
        gate = {"jacobi": jr.ok, "forms": {}}
        if not jr.ok:
            gate["jacobi_violation"] = list(jr.violation)
        for fid in sorted(needed[name]):
            form = catalog.forms[(name, fid)]
            rep = reports[name, fid] = is_symplectic(algebra, form)
            det_nonzero = 0
            rng = DeterministicRng(config.seed * 0x20001 + len(name) + len(fid))
            avoid = _avoid(algebra, form)
            for _ in range(config.samples):
                point = sample_point(rng, dict(algebra.params), avoid)
                if point.quotient(rep.det) != 0:
                    det_nonzero += 1
            gate["forms"][fid] = {
                "closed": rep.closed,
                "nondegenerate": rep.ok,
                "det": format_expr(rep.det),
                "det_nonzero_at_samples": det_nonzero,
            }
        gates[name] = gate
    return gates, reports


def verify_all(
    catalog: Catalog,
    config: RunConfig = RunConfig(),
    include_extensions: bool = False,
) -> dict:
    """The report document: the run's config, the gates, one finding per entry,
    the extensions when ``include_extensions``, and the summary."""
    entries = catalog.select(config.entry_filter)
    gates, symplectic = _algebra_gates(catalog, entries, config)
    findings, sasakian = [], []
    lifts: Dict[Tuple[str, str], FormLift] = {}  # one lift per form, this run only
    for e in entries:
        finding, bundle = verify_entry(catalog, e, symplectic[e.algebra, e.form], config)
        findings.append(finding)
        if include_extensions:
            key = (e.algebra, e.form)
            if key not in lifts:
                lifts[key] = lift_form(
                    catalog.algebra_of(e), catalog.form_of(e), symplectic[key]
                )
            sasakian.append(verify_extension(e, lifts[key], bundle))
    summary = {
        "total": len(findings),
        "ok": sum(1 for f in findings if f["status"] == "ok"),
        "discrepancies": sum(1 for f in findings if f["status"] == "discrepancy"),
        "failures": sum(1 for f in findings if f["status"] == "failure"),
        "label_matches": sum(1 for f in findings if f["label"]["match"]),
        # only entries whose curvature was computed had their Ricci compared
        "ric_exact": sum(
            1
            for f in findings
            if f["ric_comparison"]["expected_present"]
            and f["label"]["computed"] is not None
            and not f["ric_comparison"]["residuals"]
        ),
        "gates_ok": int(
            all(
                g["jacobi"] and all(fm["nondegenerate"] for fm in g["forms"].values())
                for g in gates.values()
            )
        ),
    }
    report = {
        "config": {
            "seed": config.seed,
            "samples": config.samples,
            "strict": config.strict,
            "filter": config.entry_filter,
        },
        "gates": gates,
        "entries": findings,
    }
    if include_extensions:
        report["sasakian"] = sasakian
        summary["sasakian_ok"] = sum(1 for f in sasakian if f["status"] == "ok")
        summary["sasakian_failures"] = sum(1 for f in sasakian if f["status"] != "ok")
    report["summary"] = summary
    return report


def render_report(report: dict, fmt: str = "json") -> str:
    """Deterministic rendering of the report document as JSON or markdown."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "markdown":
        lines = ["# Verification report", ""]
        lines.append(
            "| entry | axioms | computed | expected | ric | corroborated | status |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for f in report["entries"]:
            axioms = "pass" if all(a["ok"] for a in f["axioms"].values()) else "FAIL"
            rc = f["ric_comparison"]
            ric = (
                "-"
                if not rc["expected_present"]
                else ("match" if not rc["residuals"] else "DIFFERS")
            )
            label, corroboration = f["label"], f["corroboration"]
            lines.append(
                f"| {f['id']} | {axioms} | {label['computed']} | "
                f"{label['expected'] or '-'} | {ric} | "
                f"{corroboration['agree']}/{corroboration['samples']} | {f['status']} |"
            )
        if "sasakian" in report:
            lines.append("")
            lines.append("## Para-Sasakian extensions")
            lines.append("")
            lines.append("| entry | contact | curvature | ricci | status |")
            lines.append("|---|---|---|---|---|")
            for f in report["sasakian"]:
                t2 = "pass" if all(f["curvature_identities"].values()) else "FAIL"
                t3 = "pass" if all(f["ricci_identities"].values()) else "FAIL"
                lines.append(
                    f"| {f['id']} | {'yes' if f['contact']['ok'] else 'NO'} | {t2} | {t3} |"
                    f" {f['status']} |"
                )
        lines.append("")
        lines.append("## Summary")
        lines.append("")
        for key, value in report["summary"].items():
            lines.append(f"- {key}: {value}")
        lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")
