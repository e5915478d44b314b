"""Acceptance suite: one test per criterion, with a printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (tolerance zero); runtime targets are asserted
where stated.

Two checks fail by design of the engine rather than by accident, and are
covered by the discrepancy-reporting machinery instead of being patched over:
the three builtin structures published as "zero curvature" on the positive-
parameter family of r2r2 are in fact only Ricci-flat (the curvature tensor is
proportional to the family parameter; confirmed by the independent
pure-Fraction pipeline and an external cross-check), so criterion 4's
zero-curvature clause and criterion 5's zero-label-mismatch clause cannot
both hold against the published labels.  The verifier reports exactly those
three as documented label discrepancies.
"""

import hashlib
import time
from collections import Counter

import pytest

from parakahler.catalog import builtin_catalog
from parakahler.contact import (
    almost_paracontact_residuals,
    build_paracontact,
    central_extend,
    check_compatible_metric,
    check_contact,
    metric_restriction_residuals,
    verify_lifted_curvature,
    verify_lifted_ricci,
)
from parakahler.curvature import (
    LABELS,
    classify,
    compare_ric_operator,
    curvature_bundle,
    label_holds,
)
from parakahler.expressions import EXPR_ZERO, ExprMatrix, RationalExpr, expr, format_expr
from parakahler.liealgebra import is_symplectic, jacobi_check
from parakahler.sampling import DeterministicRng, sample_point
from parakahler.structures import (
    check_involution,
    check_metric_compat,
    check_omega_compat,
    metric_from,
    nijenhuis,
    omega_from,
)
from parakahler.verify import RunConfig, render_report, verify_all

from oracles import first_nonzero, gamma_table, riemann_table

SAMPLES = 20
SEED = 0

EINSTEIN_CASES = {
    "r2r2.lambda0.J22": "-3*b/2",
    "r2p.omega.J2": "-3*b/2",
    "d41.omega1.J13": "-3*b/2",
    "d4lam.omega.J3": "-3*b/2",
    "d42.omega1.J11": "3*(a^2-1)/(2*b)",
}


def _line(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="module")
def bundles(catalog):
    out = {}
    for entry in catalog.entries:
        g = metric_from(catalog.form_of(entry), entry.j_matrix)
        out[entry.entry_id] = (entry, g, curvature_bundle(catalog.algebra_of(entry), g))
    return out


@pytest.fixture(scope="module")
def full_report(catalog):
    return verify_all(catalog, RunConfig(seed=SEED, samples=SAMPLES))


def test_criterion_1_algebra_gates(catalog):
    started = time.perf_counter()
    failures = []
    for name, algebra in catalog.algebras.items():
        if not jacobi_check(algebra).ok:
            failures.append(f"jacobi:{name}")
    for (name, fid), form in catalog.forms.items():
        algebra = catalog.algebras[name]
        report = is_symplectic(algebra, form)
        if not report.closed or report.det.is_zero:
            failures.append(f"symplectic:{name}.{fid}")
            continue
        rng = DeterministicRng(SEED)
        avoid = list(algebra.denominators())
        for _ in range(SAMPLES):
            point = sample_point(rng, dict(algebra.params), avoid)
            if report.det.eval(point) == 0:
                failures.append(f"det-vanishes:{name}.{fid}")
                break
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 2.0
    _line(1, ok, f"15 algebra gates in {elapsed:.2f}s (target < 2s)")
    assert not failures, failures
    assert elapsed < 2.0, f"gate suite took {elapsed:.2f}s"


def test_criterion_2_axiom_suite(catalog):
    started = time.perf_counter()
    failures = []
    for entry in catalog.entries:
        form = catalog.form_of(entry)
        algebra = catalog.algebra_of(entry)
        if not check_involution(entry.j_matrix).ok:
            failures.append(f"{entry.entry_id}:involution")
        if not check_omega_compat(form, entry.j_matrix).ok:
            failures.append(f"{entry.entry_id}:omega_compat")
        if not nijenhuis(algebra, entry.j_matrix).as_check().ok:
            failures.append(f"{entry.entry_id}:nijenhuis")
    elapsed = time.perf_counter() - started
    assert len(catalog.entries) == 57
    ok = not failures and elapsed < 10.0
    _line(2, ok, f"57 structures x 3 symbolic axioms in {elapsed:.2f}s (target < 10s)")
    assert not failures, failures
    assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s"


def test_criterion_3_metric_suite(catalog, bundles, full_report):
    failures = []
    for entry_id, (entry, g, _bundle) in bundles.items():
        if not check_metric_compat(g, entry.j_matrix).ok:
            failures.append(f"{entry_id}:compat")
        if not omega_from(g, entry.j_matrix) == catalog.form_of(entry):
            failures.append(f"{entry_id}:roundtrip")
    for finding in full_report.findings:
        if not finding.metric["symmetric"]:
            failures.append(f"{finding.entry_id}:symmetric")
        if not finding.metric["signature_ok"]:
            failures.append(f"{finding.entry_id}:signature")
        if finding.metric["signature_samples"] != SAMPLES:
            failures.append(f"{finding.entry_id}:sample-count")
    _line(3, not failures, f"metric suite, signatures (2,2) at {SAMPLES} samples each")
    assert not failures, failures


def test_criterion_4_zero_curvature_labels(bundles):
    violations = []
    for entry_id, (entry, _g, bundle) in bundles.items():
        if entry.expected.label == "flat" and not bundle.riemann.is_zero:
            first = first_nonzero(riemann_table(bundle.riemann))
            violations.append((entry_id, f"R^{first[3]}_{first[0]}{first[1]}{first[2]} = {first[4]}"))
    _line(
        4,
        not violations,
        "every published zero-curvature label has R == 0"
        + ("" if not violations else f"; {len(violations)} published labels are wrong"),
    )
    assert not violations, (
        "published zero-curvature labels that are provably not flat "
        "(Ricci-flat only; confirmed by the independent numeric pipeline): "
        f"{violations}"
    )


def test_criterion_4_zero_ricci_labels(bundles):
    violations = [
        entry_id
        for entry_id, (entry, _g, bundle) in bundles.items()
        if entry.expected.label == "ricci_flat" and not bundle.ricci.ricci.is_zero
    ]
    _line(4, not violations, "every published zero-Ricci label has Ric == 0")
    assert not violations, violations


def test_criterion_4_einstein_factors(bundles):
    violations = []
    for entry_id, factor_text in EINSTEIN_CASES.items():
        entry, g, bundle = bundles[entry_id]
        factor = expr(factor_text)
        classification = classify(bundle, entry.j_matrix)
        if not label_holds("einstein", classification, factor=factor):
            violations.append(entry_id)
        if not (bundle.ricci.ricci - g.matrix.scale(factor)).is_zero:
            violations.append(f"{entry_id}:tensor-form")
    _line(4, not violations, "five published Einstein factors reproduced exactly")
    assert not violations, violations


def test_label_holds_reads_only_the_classification(bundles, monkeypatch):
    # every label against every builtin entry: label_holds on the record that
    # classify returns equals the property computed here from R, Ric, S, g and
    # J, and forms no matrix product, the einstein-vs-hermitian case included
    records, holds, pairs = {}, {}, Counter()
    for entry_id, (entry, g, bundle) in bundles.items():
        j, ric = entry.j_matrix, bundle.ricci.ricci
        einstein = (ric - g.matrix.scale(bundle.ricci.scalar / expr(g.dim))).is_zero
        hermitian = (j.transpose() @ ric @ j - ric).is_zero
        holds[entry_id] = {
            "flat": bundle.riemann.is_zero,
            "ricci_flat": ric.is_zero,
            "einstein": einstein,
            "hermitian_ricci": hermitian,
            "generic": not (einstein or hermitian),
        }
        records[entry_id] = classify(bundle, j)
        pairs[entry.expected.label, records[entry_id].label] += 1
    products = []
    matmul = ExprMatrix.__matmul__
    monkeypatch.setattr(
        ExprMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b)
    )
    wrong = [
        (entry_id, label)
        for entry_id, record in records.items()
        for label in LABELS
        if label_holds(label, record) != holds[entry_id][label]
    ]
    assert not wrong, wrong
    assert not products
    assert pairs == {
        ("ricci_flat", "ricci_flat"): 19,
        ("hermitian_ricci", "generic"): 17,
        ("flat", "flat"): 11,
        ("einstein", "einstein"): 5,
        ("flat", "ricci_flat"): 3,  # the errata
        (None, "generic"): 2,
    }


def _is_diagonal(matrix):
    return all(
        matrix[i, j].is_zero
        for i in range(matrix.rows)
        for j in range(matrix.cols)
        if i != j
    )


def test_criterion_4_diagonal_ric_operators(bundles):
    checked = 0
    violations = []
    for entry_id, (entry, _g, bundle) in bundles.items():
        expected = entry.expected.ric
        if expected is None or not _is_diagonal(expected):
            continue
        checked += 1
        if compare_ric_operator(bundle.ricci.operator, expected):
            violations.append(entry_id)
    _line(4, not violations, f"{checked} published diagonal Ricci operators match entrywise")
    assert checked == 13
    assert not violations, violations


def test_criterion_4_runtime_full_pipeline(catalog):
    started = time.perf_counter()
    for entry in catalog.entries:
        g = metric_from(catalog.form_of(entry), entry.j_matrix)
        bundle = curvature_bundle(catalog.algebra_of(entry), g)
        classify(bundle, entry.j_matrix)
        if entry.expected.ric is not None:
            compare_ric_operator(bundle.ricci.operator, entry.expected.ric)
    elapsed = time.perf_counter() - started
    _line(4, elapsed < 60.0, f"full curvature pipeline over 57 entries in {elapsed:.2f}s (target < 60s)")
    assert elapsed < 60.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_5_ric_budget(bundles, full_report):
    unaccounted = []
    total = 0
    for entry_id, (entry, _g, bundle) in bundles.items():
        if entry.expected.ric is None:
            continue
        total += 1
        residuals = compare_ric_operator(bundle.ricci.operator, entry.expected.ric)
        if not residuals:
            continue
        finding = next(f for f in full_report.findings if f.entry_id == entry_id)
        if "recomputed" not in finding.ric_comparison:
            unaccounted.append(entry_id)
    _line(
        5,
        not unaccounted,
        f"{total} published Ricci operators: exact match or reported with recomputation",
    )
    assert total == 22
    assert not unaccounted, unaccounted


def test_criterion_5_label_mismatch_count(bundles):
    # label scope of the curvature criterion: flat / ricci_flat / einstein
    mismatches = []
    for entry_id, (entry, _g, bundle) in bundles.items():
        label = entry.expected.label
        if label not in ("flat", "ricci_flat", "einstein"):
            continue
        classification = classify(bundle, entry.j_matrix)
        if not label_holds(label, classification, factor=entry.expected.einstein_factor):
            mismatches.append(entry_id)
    _line(
        5,
        not mismatches,
        "label-level mismatches in curvature scope: "
        + (f"{len(mismatches)} ({', '.join(mismatches)})" if mismatches else "0"),
    )
    assert not mismatches, (
        "published labels in curvature scope that fail exact recomputation "
        f"(see the discrepancy report): {mismatches}"
    )


def test_criterion_6_extension_suite(catalog, bundles):
    failures = []
    for entry in catalog.entries:
        entry_id = entry.entry_id
        _entry, g, base_bundle = bundles[entry_id]
        algebra = catalog.algebra_of(entry)
        form = catalog.form_of(entry)
        ext = central_extend(algebra, form, is_symplectic(algebra, form))
        ps = build_paracontact(ext, entry.j_matrix)
        ext_bundle = curvature_bundle(ext.extended, ps.h)
        if not check_contact(ext).ok:
            failures.append(f"{entry_id}:contact")
        if not all(r.is_zero for r in almost_paracontact_residuals(ps)):
            failures.append(f"{entry_id}:almost-paracontact")
        if not check_compatible_metric(ps).is_zero:
            failures.append(f"{entry_id}:compatible-metric")
        if not metric_restriction_residuals(ps, g).is_zero:
            failures.append(f"{entry_id}:restriction")
        if ps.phi_vs_deta != "equal":
            failures.append(f"{entry_id}:fundamental-form")
        t2 = verify_lifted_curvature(ps, base_bundle, entry.j_matrix, ext_bundle=ext_bundle)
        t3 = verify_lifted_ricci(ps, base_bundle, ext_bundle=ext_bundle)
        for name, ok in {**t2.identities, **t3.identities}.items():
            if not ok:
                failures.append(f"{entry_id}:{name}")
        # the two named identities, asserted directly on the components
        xi, riem5 = ext.xi_index, riemann_table(ext_bundle.riemann)
        if not (ext_bundle.ricci.ricci[xi, xi] - expr(-1)).is_zero:
            failures.append(f"{entry_id}:ric-xi-xi")
        for i in range(4):
            for s in range(5):
                want = expr("-1/4") if s == i else EXPR_ZERO
                if not (riem5[i][xi][xi][s] - want).is_zero:
                    failures.append(f"{entry_id}:r-x-xi-xi")
    _line(6, not failures, "57 extensions: contact + 7 closed-form identities, zero residuals")
    assert not failures, failures


def test_criterion_7_numeric_corroboration(full_report):
    bad = [
        f.entry_id
        for f in full_report.findings
        if f.corroboration["agree"] != SAMPLES
        or f.corroboration["samples"] != SAMPLES
    ]
    _line(7, not bad, f"pure-Fraction pipeline re-run agrees at {SAMPLES} samples per entry")
    assert not bad, bad


def test_criterion_8_fuzz_detection(catalog):
    from test_fuzz import MUTATIONS, SEED as FUZZ_SEED, _mutation_outcome

    rng = DeterministicRng(FUZZ_SEED)
    cache = {}
    absorbed = []
    detected = 0
    for index in range(MUTATIONS):
        entry = catalog.entries[rng.randint(0, len(catalog.entries) - 1)]
        row = rng.randint(1, 4) - 1
        col = rng.randint(1, 4) - 1
        delta = rng.randint(1, 3)
        outcome = _mutation_outcome(catalog, entry, row, col, delta, cache)
        if outcome == "absorbed":
            absorbed.append((index, entry.entry_id, row + 1, col + 1))
        else:
            detected += 1
    for tag in absorbed:
        print(f"  parameter-equivalent mutant: #{tag[0]} {tag[1]} at ({tag[2]},{tag[3]})")
    _line(8, detected >= 95, f"{detected}/{MUTATIONS} corruptions detected, {len(absorbed)} equivalent (logged)")
    assert detected + len(absorbed) == MUTATIONS
    assert detected >= 95, f"only {detected} detected; absorbed: {absorbed}"


# sha256 of the seed-0 JSON report and of every printed tensor component;
# a change to either means a changed number or a changed canonical form.
REPORT_SHA256 = "11459dcb0bfedab40dd5b5cf0326681fd9de43cc512b6fde7c56a462951465ff"
TENSORS_SHA256 = "309cd69f264fca5e1a5ff8a12c3115a21b77a6bae3f375151a7aa2e3463924f3"


def _printed(value):
    if isinstance(value, RationalExpr):
        return [format_expr(value)]
    return [text for item in value for text in _printed(item)]


def tensor_dump(bundles) -> str:
    """g^-1, Ric, RIC, S, Gamma and R of every entry, one line per tensor."""
    lines = []
    for entry_id, (_, _, b) in bundles.items():
        tensors = (
            ("ginv", b.metric_inverse.entries),
            ("Ric", b.ricci.ricci.entries),
            ("RIC", b.ricci.operator.entries),
            ("S", b.ricci.scalar),
            ("Gamma", gamma_table(b.christoffel)),
            ("R", riemann_table(b.riemann)),
        )
        for name, value in tensors:
            lines.append(f"{entry_id} {name}: " + ", ".join(_printed(value)))
    return "\n".join(lines) + "\n"


def test_golden_report_and_tensor_dump(bundles, full_report):
    report = hashlib.sha256(render_report(full_report, "json").encode()).hexdigest()
    tensors = hashlib.sha256(tensor_dump(bundles).encode()).hexdigest()
    assert report == REPORT_SHA256
    assert tensors == TENSORS_SHA256
