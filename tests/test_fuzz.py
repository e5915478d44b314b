"""Negative-path fuzzing: single-entry corruptions of catalog J matrices.

One hundred seeded mutations add a small integer to one J entry each.  A
mutation must either be detected (an axiom, metric, label, or published-RIC
check fails, with the failing check named) or be a genuinely
parameter-equivalent structure: the mutated position holds a free family
parameter, so the mutant is simply another member of the same family.  The
latter are logged individually and verified to pass everything.
"""

from parakahler.catalog import builtin_catalog
from parakahler.curvature import classify, compare_ric_operator, curvature_bundle
from parakahler.expressions import ExprMatrix, expr
from parakahler.sampling import DeterministicRng
from parakahler.structures import (
    MetricAsymmetryError,
    check_involution,
    metric_from,
    nijenhuis,
)

from oracles import omega_compat

SEED = 0
MUTATIONS = 100
DETECTION_FLOOR = 95


def _baseline(catalog, entry, cache):
    if entry.entry_id not in cache:
        g = metric_from(catalog.form_of(entry), entry.j_matrix)
        bundle = curvature_bundle(catalog.algebra_of(entry), g)
        label = classify(bundle, entry.j_matrix).label
        ric_clean = entry.expected.ric is None or not compare_ric_operator(
            bundle.ricci.operator, entry.expected.ric
        )
        cache[entry.entry_id] = (label, ric_clean)
    return cache[entry.entry_id]


def _mutation_outcome(catalog, entry, row, col, delta, cache):
    """Attribution string for one mutated entry, or 'absorbed'."""
    algebra = catalog.algebra_of(entry)
    form = catalog.form_of(entry)
    rows = [list(r) for r in entry.j_matrix.entries]
    rows[row][col] = rows[row][col] + expr(delta)
    mutant = ExprMatrix(rows)
    if not check_involution(mutant).ok:
        return "axiom:involution"
    if not omega_compat(form, mutant).ok:
        return "axiom:omega_compat"
    if not nijenhuis(algebra, mutant).as_check().ok:
        return "axiom:nijenhuis"
    try:
        g = metric_from(form, mutant)
    except MetricAsymmetryError:
        return "metric:asymmetric"
    bundle = curvature_bundle(algebra, g)
    base_label, base_ric_clean = _baseline(catalog, entry, cache)
    if classify(bundle, mutant).label != base_label:
        return "label"
    if entry.expected.ric is not None:
        clean = not compare_ric_operator(bundle.ricci.operator, entry.expected.ric)
        if clean != base_ric_clean:
            return "ric"
    return "absorbed"


def test_fuzz_mutations_detected_or_equivalent():
    catalog = builtin_catalog()
    rng = DeterministicRng(SEED)
    cache = {}
    detected = []
    absorbed = []
    for index in range(MUTATIONS):
        entry = catalog.entries[rng.randint(0, len(catalog.entries) - 1)]
        row = rng.randint(1, 4) - 1
        col = rng.randint(1, 4) - 1
        delta = rng.randint(1, 3)
        outcome = _mutation_outcome(catalog, entry, row, col, delta, cache)
        tag = (index, entry.entry_id, row + 1, col + 1, delta, outcome)
        if outcome == "absorbed":
            absorbed.append(tag)
        else:
            detected.append(tag)
    for tag in absorbed:
        print(
            "parameter-equivalent mutant (logged): "
            f"#{tag[0]} {tag[1]} position ({tag[2]},{tag[3]}) delta {tag[4]}"
        )
    # every detection carries a specific attribution
    assert all(":" in t[5] or t[5] in ("label", "ric") for t in detected)
    assert len(detected) + len(absorbed) == MUTATIONS
    assert len(detected) >= DETECTION_FLOOR, (
        f"only {len(detected)} of {MUTATIONS} mutations detected; "
        f"absorbed: {[t[1:4] for t in absorbed]}"
    )


def test_absorbed_positions_hold_free_parameters():
    # the structurally absorbable positions are exactly the bare family
    # parameters (plus the fully flexible abelian witness); spot-check that a
    # mutation there really lands on another verified member of the family
    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == "rr3m1.omega.J1")
    rows = [list(r) for r in entry.j_matrix.entries]
    rows[2][1] = rows[2][1] + expr(5)  # position (3,2) holds the free parameter a
    mutant = ExprMatrix(rows)
    algebra = catalog.algebra_of(entry)
    form = catalog.form_of(entry)
    assert check_involution(mutant).ok
    assert omega_compat(form, mutant).ok
    assert nijenhuis(algebra, mutant).as_check().ok
    bundle = curvature_bundle(algebra, metric_from(form, mutant))
    assert classify(bundle, mutant).label == "ricci_flat"
