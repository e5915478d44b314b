"""Verification driver, findings, and report rendering."""

import copy
import json
import sys
from fractions import Fraction

from parakahler.builtin_data import BUILTIN_DOCUMENT
from parakahler.catalog import builtin_catalog, load_catalog
from parakahler.expressions import (
    ExprMatrix,
    Polynomial,
    exact_div,
    expr,
    parse_expr,
    poly_gcd,
)
from parakahler.liealgebra import TwoForm, is_symplectic
from parakahler import contact, liealgebra, verify
from parakahler.cli import main
from parakahler.verify import (
    RunConfig,
    lift_form,
    render_report,
    verify_all,
    verify_entry,
    verify_extension,
)
from conftest import relatives
from test_cli import degenerate

CFG = RunConfig(seed=0, samples=3)


def _entry(catalog, entry_id):
    return next(e for e in catalog.entries if e.entry_id == entry_id)


def _verify(catalog, entry_id):
    """The finding of ``verify_entry`` on the form's symplectic gate, as
    ``verify_all`` runs it."""
    entry = _entry(catalog, entry_id)
    report = is_symplectic(catalog.algebra_of(entry), catalog.form_of(entry))
    return verify_entry(catalog, entry, report, CFG)[0]


def test_verify_entry_flat():
    catalog = builtin_catalog()
    finding = _verify(catalog, "rr3m1.omega.J3")
    assert finding["status"] == "ok"
    assert all(a["ok"] for a in finding["axioms"].values())
    assert finding["label"]["computed"] == "flat"
    assert finding["metric"]["signature_ok"]
    assert finding["corroboration"] == {"samples": 3, "agree": 3}


def test_verify_entry_einstein_factor():
    catalog = builtin_catalog()
    finding = _verify(catalog, "d42.omega1.J11")
    assert finding["status"] == "ok"
    assert finding["label"]["computed"] == "einstein"
    assert parse_expr(finding["label"]["einstein_factor"]) == parse_expr("3*(a^2-1)/(2*b)")
    assert finding["label"]["einstein_factor"] == "(3/2*a^2 - 3/2)/b"
    assert finding["label"]["match"]


def test_verify_entry_label_discrepancy_documented():
    catalog = builtin_catalog()
    finding = _verify(catalog, "r2r2.lambdapos.J11")
    assert finding["status"] == "discrepancy"
    assert finding["label"]["computed"] == "ricci_flat"
    assert not finding["label"]["match"]
    assert any("recomputed label" in note for note in finding["notes"])


def test_verify_entry_ricci_anti_invariance_always_holds():
    catalog = builtin_catalog()
    for entry_id in ("r2r2.lambda0.J21", "d42.omega3.J36", "r2p.omega.J2"):
        finding = _verify(catalog, entry_id)
        assert finding["label"]["anti_invariant"] is True


def test_verify_all_builtin_summary():
    catalog = builtin_catalog()
    report = verify_all(catalog, CFG)
    summary = report["summary"]
    assert summary["total"] == 57
    assert summary["failures"] == 0
    assert summary["gates_ok"] == 1
    # every published Ricci operator matches the recomputation exactly
    present = [f for f in report["entries"] if f["ric_comparison"]["expected_present"]]
    assert all(not f["ric_comparison"]["residuals"] for f in present)
    assert summary["ric_exact"] == len(present) == 22
    # the only discrepancies are the published-label ones; pin the inventory
    assert summary["discrepancies"] == 20
    assert summary["ok"] + summary["discrepancies"] + summary["failures"] == summary["total"]
    discrepant = {f["id"] for f in report["entries"] if f["status"] == "discrepancy"}
    assert discrepant == {
        # published as zero curvature, actually Ricci-flat with R ~ lam
        "r2r2.lambdapos.J11", "r2r2.lambdapos.J12", "r2r2.lambdapos.J13",
        # published Hermitian-Ricci labels; the literal identity cannot hold
        # for a nonzero para-Kahler Ricci tensor (it is J-anti-invariant)
        "r2r2.lambda0.J21", "r2r2.lambda0.J23", "r2r2.lambda0.J24",
        "rr30.omega.J1", "r2p.omega.J1", "r4m1b.omega.J1", "r4m1m1.omega.J1",
        "r4maa.omega.J1", "d41.omega1.J11", "d42.omega3.J31", "d42.omega3.J32",
        "d42.omega3.J33", "d42.omega3.J34", "d42.omega3.J36", "d42.omega3.J37",
        "d42.omega3.J38", "d42.omega3.J39",
    }
    for f in report["entries"]:
        if f["status"] == "discrepancy":
            assert not f["label"]["match"]
            assert all(a["ok"] for a in f["axioms"].values())
            assert f["label"]["anti_invariant"] is True


def test_verify_all_empty_filter():
    catalog = builtin_catalog()
    report = verify_all(catalog, RunConfig(seed=0, samples=2, entry_filter="nothing*"))
    assert report["summary"]["total"] == 0
    assert report["entries"] == []


def _corrupted_catalog():
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    # break one J entry of rr3m1.omega.J1: (1,1) 1 -> 2 kills the involution
    for alg in doc["algebras"]:
        if alg["name"] == "rr3m1":
            alg["structures"][0]["J"][0][0] = "2"
    return load_catalog(doc)


def test_corrupted_entry_is_failure_with_attribution():
    catalog = _corrupted_catalog()
    finding = _verify(catalog, "rr3m1.omega.J1")
    assert finding["status"] == "failure"
    assert not finding["axioms"]["involution"]["ok"]
    assert "J^2-Id" in finding["axioms"]["involution"]["first_failure"]["where"]


def test_corrupted_entry_counts_in_summary():
    catalog = _corrupted_catalog()
    report = verify_all(catalog, RunConfig(seed=0, samples=2, entry_filter="rr3m1.*"))
    assert report["summary"]["failures"] == 1


def test_extension_findings_builtin_sample():
    catalog = builtin_catalog()
    for entry_id in ("rn4.omega.J", "d4lam.omega.J3", "r2r2.lambdapos.J11"):
        entry = _entry(catalog, entry_id)
        algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
        finding = verify_extension(
            entry,
            lift_form(algebra, form, is_symplectic(algebra, form)),
            verify_entry(catalog, entry, is_symplectic(algebra, form), CFG)[1],
        )
        assert finding["status"] == "ok", (entry_id, finding["residuals"])
        assert finding["phi_vs_deta"] == "equal"
        assert all(finding["curvature_identities"].values())
        assert all(finding["ricci_identities"].values())


def test_one_lift_per_form(monkeypatch):
    # the 57 builtin structures use 20 forms; each form is gated, extended and
    # its contact and Reeb conditions checked once, not once per structure, and
    # det omega and d(eta) are computed once per form; the matrix products of
    # the whole pass are pinned too
    homes = {
        "central_extend": contact,
        "check_contact": contact,
        "reeb_residuals": contact,
        "is_symplectic": liealgebra,
        "ce_differential_1": liealgebra,
    }
    calls = dict.fromkeys([*homes, "ExprMatrix.det", "ExprMatrix.__matmul__"], 0)

    def counter(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name, home in homes.items():
        original = getattr(home, name)
        # every package module that imported the function, so a call from
        # another layer (say, contact) is counted too
        for module in [m for key, m in sys.modules.items() if key.startswith("parakahler.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counter(name, original))
    for name in ("det", "__matmul__"):
        method = getattr(ExprMatrix, name)
        monkeypatch.setattr(ExprMatrix, name, counter(f"ExprMatrix.{name}", method))
    catalog = builtin_catalog()
    report = verify_all(catalog, RunConfig(seed=0, samples=1), include_extensions=True)
    assert len(report["sasakian"]) == 57
    assert len({(e.algebra, e.form) for e in catalog.entries}) == 20
    assert calls == {
        "central_extend": 20,
        "check_contact": 20,
        "reeb_residuals": 20,
        "is_symplectic": 20,
        "ce_differential_1": 20,
        "ExprMatrix.det": 20,
        "ExprMatrix.__matmul__": 858,
    }


def test_work_counters(monkeypatch):
    # deterministic work of two builtin passes on a fresh catalog, counted
    # after its load: the polynomial products of a `report --samples 1
    # --seed 7` pass are pinned, and the Fractions of a `verify --samples 20
    # --seed 0` pass stay under a fifth of the 200,125 that the oracle built
    # while it passed Fractions between its stages
    counts = {"mul": 0, "fraction": 0}
    mul, new = Polynomial.__mul__, Fraction.__new__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_new(cls, *args, **kwargs):
        counts["fraction"] += 1
        return new(cls, *args, **kwargs)

    catalog = builtin_catalog.__wrapped__()  # not the cached one: no matrix cleared yet
    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    render_report(verify_all(catalog, RunConfig(seed=7, samples=1), include_extensions=True))
    assert counts["mul"] == 79_682
    catalog = builtin_catalog.__wrapped__()
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    render_report(verify_all(catalog, RunConfig(seed=0, samples=20)))
    assert counts["fraction"] <= 200_125 // 5


def _factors_among(den, avoid):
    """Whether every irreducible factor of ``den`` divides a polynomial in ``avoid``:
    the common factors with each are divided out until none is left."""
    for p in avoid:
        while True:
            common = poly_gcd(den, p)
            if common.is_const:
                break
            den = exact_div(den, common)
    return den.is_const


def test_shared_denominators_vanish_only_where_the_sampler_looks():
    # The corroboration evaluates each tensor's shared denominator, not each
    # component's; every irreducible factor of each of them divides a
    # polynomial whose zeros the sampler avoids, so no sample makes one vanish
    catalog = builtin_catalog()
    for entry in catalog.entries:
        algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
        report = is_symplectic(algebra, form)
        bundle = verify_entry(catalog, entry, report, RunConfig(samples=0))[1]
        if bundle is None:
            continue
        avoid = verify._avoid(algebra, form, entry.j_matrix, entry.expected.ric)
        avoid += [] if report.det.is_const else [report.det.num]
        ric = bundle.ricci
        shared = {
            "C": algebra.cleared_constants()[0],
            "g": bundle.metric.matrix._cleared()[0],
            "Gamma": bundle.christoffel.den,
            "R": bundle.riemann.den,
            "Ric": ric.ricci._cleared()[0],
            "RIC": ric.operator._cleared()[0],
            "S": ric.scalar.den,
        }
        for name, den in shared.items():
            assert _factors_among(den, avoid), (entry.entry_id, name, str(den))


def test_avoid_lists_each_denominator_once():
    # the sampler evaluates every polynomial in the list on every draw, while
    # which points it accepts depends only on the set of them
    for catalog in (builtin_catalog(), load_catalog(relatives())):
        for entry in catalog.entries:
            algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
            for avoid in (
                verify._avoid(algebra, form),
                verify._avoid(algebra, form, entry.j_matrix, entry.expected.ric),
            ):
                assert len(avoid) == len(set(avoid)), entry.entry_id


def test_lift_whose_xi_is_not_the_reeb_vector_is_a_failure(monkeypatch):
    # central_extend makes xi central, so xi _| d(eta) = 0 always; an e5^e1
    # term in d(eta) breaks it, and h = eta^T eta - d(eta) phi is then no metric
    catalog = builtin_catalog()
    entry = _entry(catalog, "rn4.omega.J")
    algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
    report = is_symplectic(algebra, form)
    ext = contact.central_extend(algebra, form, report)
    rows = [list(row) for row in ext.d_eta.matrix.entries]
    rows[4][0], rows[0][4] = expr(1), expr(-1)
    perturbed = ext._replace(d_eta=TwoForm(ExprMatrix(rows)))
    assert not contact.reeb_residuals(perturbed)[0].is_zero
    monkeypatch.setattr(verify, "central_extend", lambda *args: perturbed)
    lift = lift_form(algebra, form, report)
    finding = verify_extension(entry, lift, verify_entry(catalog, entry, report, CFG)[1])
    assert finding["reeb_ok"] is False
    assert finding["status"] == "failure"
    assert [where for where, _ in finding["residuals"]] == ["reeb"]


def test_report_json_round_trip():
    catalog = builtin_catalog()
    report = verify_all(catalog, RunConfig(seed=0, samples=2, entry_filter="rh3.*"))
    text = render_report(report, "json")
    parsed = json.loads(text)
    assert parsed["summary"] == report["summary"]
    assert [e["id"] for e in parsed["entries"]] == ["rh3.omega.J1", "rh3.omega.J2"]


def test_report_markdown_has_table_rows():
    catalog = builtin_catalog()
    report = verify_all(catalog, RunConfig(seed=0, samples=2, entry_filter="rh3.*"))
    text = render_report(report, "markdown")
    assert text.count("| rh3.omega.") == 2
    assert "## Summary" in text


def test_reports_are_deterministic():
    catalog = builtin_catalog()
    cfg = RunConfig(seed=7, samples=2, entry_filter="r4m1*")
    first = render_report(verify_all(catalog, cfg, include_extensions=True), "json")
    second = render_report(verify_all(catalog, cfg, include_extensions=True), "json")
    assert first == second
    assert "timing" not in first


def test_different_seed_changes_nothing_mathematical():
    catalog = builtin_catalog()
    for seed in (0, 1):
        report = verify_all(
            catalog, RunConfig(seed=seed, samples=2, entry_filter="rr30.*")
        )
        assert report["summary"]["failures"] == 0
        assert report["summary"]["total"] == 2


# Every way out of verify_entry and of an extension that was never built, pinned
# as the exact document, key order included.
AXIOMS_OK = {"involution": {"ok": True}, "omega_compat": {"ok": True}, "nijenhuis": {"ok": True}}
METRIC_OK = {
    "symmetric": True, "compat": True, "roundtrip": True,
    "signature_samples": 3, "signature_ok": True,
}
NOT_LIFTED = {
    "contact": {"ok": False, "coefficient": "n/a"},
    "almost_paracontact_ok": False,
    "compatible_metric_ok": False,
    "restriction_ok": False,
    "reeb_ok": False,
    "phi_vs_deta": "mismatch",
    "curvature_identities": {},
    "ricci_identities": {},
}


def _assert_document(finding, expected):
    # compared as JSON text, so that the key order counts too
    assert json.dumps(finding, indent=1) == json.dumps(expected, indent=1)


def test_involution_failure_document():
    _assert_document(
        _verify(_corrupted_catalog(), "rr3m1.omega.J1"),
        {
            "id": "rr3m1.omega.J1",
            "algebra": "rr3m1",
            "form": "omega",
            "axioms": {
                "involution": {
                    "ok": False, "first_failure": {"where": "J^2-Id[1,1]", "residual": "3"}
                },
                "omega_compat": {
                    "ok": False, "first_failure": {"where": "Jt*w+w*J[1,4]", "residual": "1"}
                },
                "nijenhuis": {
                    "ok": False, "first_failure": {"where": "N[1,2;3]", "residual": "-2*a"}
                },
            },
            "metric": {
                "symmetric": False, "compat": False, "roundtrip": False,
                "signature_samples": 0, "signature_ok": False,
            },
            "label": {
                "computed": None, "expected": "ricci_flat", "match": False,
                "einstein_factor": None, "expected_factor": None,
                "anti_invariant": None, "operator_commutes": None,
            },
            "ric_comparison": {"expected_present": False, "residuals": []},
            "corroboration": {"samples": 0, "agree": 0},
            "status": "failure",
            "notes": [],
        },
    )


def test_degenerate_form_document():
    # the entry's own note comes first, then the degenerate form's
    _assert_document(
        _verify(load_catalog(degenerate(relatives())), "r2r2.lambda0.J24bc"),
        {
            "id": "r2r2.lambda0.J24bc",
            "algebra": "r2r2",
            "form": "lambda0",
            "axioms": AXIOMS_OK,
            "metric": {
                "symmetric": True, "compat": True, "roundtrip": True,
                "signature_samples": 0, "signature_ok": False,
            },
            "label": {
                "computed": None, "expected": "einstein", "match": False,
                "einstein_factor": None, "expected_factor": "-b",
                "anti_invariant": None, "operator_commutes": None,
            },
            "ric_comparison": {"expected_present": True, "residuals": []},
            "corroboration": {"samples": 0, "agree": 0},
            "status": "failure",
            "notes": [
                "J24 specialized to c = b, where the structure is Einstein",
                "form 'lambda0' is degenerate (det omega = 0): the metric is singular, "
                "so no curvature is computed",
            ],
        },
    )


RICCI_FLAT_J11 = {
    "computed": "ricci_flat", "expected": "flat", "match": False,
    "einstein_factor": "0", "expected_factor": None,
    "anti_invariant": True, "operator_commutes": True,
}


def test_corroboration_failure_document(monkeypatch):
    # a failure carries no discrepancy note, even where the label differs
    monkeypatch.setattr(verify, "_numeric_corroboration", lambda *args: False)
    _assert_document(
        _verify(builtin_catalog(), "r2r2.lambdapos.J11"),
        {
            "id": "r2r2.lambdapos.J11",
            "algebra": "r2r2",
            "form": "lambdapos",
            "axioms": AXIOMS_OK,
            "metric": METRIC_OK,
            "label": RICCI_FLAT_J11,
            "ric_comparison": {"expected_present": False, "residuals": []},
            "corroboration": {"samples": 3, "agree": 0},
            "status": "failure",
            "notes": [],
        },
    )


def test_label_discrepancy_document():
    _assert_document(
        _verify(builtin_catalog(), "r2r2.lambdapos.J11"),
        {
            "id": "r2r2.lambdapos.J11",
            "algebra": "r2r2",
            "form": "lambdapos",
            "axioms": AXIOMS_OK,
            "metric": METRIC_OK,
            "label": RICCI_FLAT_J11,
            "ric_comparison": {"expected_present": False, "residuals": []},
            "corroboration": {"samples": 3, "agree": 3},
            "status": "discrepancy",
            "notes": ["published label 'flat' does not hold; recomputed label is 'ricci_flat'"],
        },
    )


def test_ricci_discrepancy_document_and_cli_detail(tmp_path, capsys):
    # one published Ricci entry off by one: the label still holds, so the
    # comparison alone makes the discrepancy
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    for alg in doc["algebras"]:
        for structure in alg["structures"]:
            if structure["id"] == "r2r2.lambda0.J22":
                ric = structure["expected"]["ric"]
                ric[0][0] = f"({ric[0][0]})+1"
    _assert_document(
        _verify(load_catalog(doc), "r2r2.lambda0.J22"),
        {
            "id": "r2r2.lambda0.J22",
            "algebra": "r2r2",
            "form": "lambda0",
            "axioms": AXIOMS_OK,
            "metric": METRIC_OK,
            "label": {
                "computed": "einstein", "expected": "einstein", "match": True,
                "einstein_factor": "-3/2*b", "expected_factor": "-3/2*b",
                "anti_invariant": True, "operator_commutes": True,
            },
            "ric_comparison": {
                "expected_present": True,
                "residuals": [[1, 1, "-1"]],
                "recomputed": [
                    ["-3/2*b", "0", "0", "0"],
                    ["0", "-3/2*b", "0", "0"],
                    ["0", "0", "-3/2*b", "0"],
                    ["0", "0", "0", "-3/2*b"],
                ],
            },
            "corroboration": {"samples": 3, "agree": 3},
            "status": "discrepancy",
            "notes": ["published Ricci operator differs; recomputed matrix attached"],
        },
    )
    path = tmp_path / "ric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["verify", "--catalog", str(path), "--filter", "r2r2.lambda0.J22", "--samples", "1"]
    assert main(argv) == 0
    assert "DISCREPANCY  r2r2.lambda0.J22 ric-differs\n" in capsys.readouterr().out


def test_clean_entry_document():
    _assert_document(
        _verify(builtin_catalog(), "rr3m1.omega.J3"),
        {
            "id": "rr3m1.omega.J3",
            "algebra": "rr3m1",
            "form": "omega",
            "axioms": AXIOMS_OK,
            "metric": METRIC_OK,
            "label": {
                "computed": "flat", "expected": "flat", "match": True,
                "einstein_factor": "0", "expected_factor": None,
                "anti_invariant": True, "operator_commutes": True,
            },
            "ric_comparison": {"expected_present": False, "residuals": []},
            "corroboration": {"samples": 3, "agree": 3},
            "status": "ok",
            "notes": [],
        },
    )


def test_extension_of_a_form_that_is_not_symplectic_document():
    catalog = load_catalog(degenerate(BUILTIN_DOCUMENT))
    entry = _entry(catalog, "r2r2.lambda0.J21")
    algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
    lift = lift_form(algebra, form, is_symplectic(algebra, form))
    assert isinstance(lift, contact.NonSymplecticError)
    _assert_document(
        verify_extension(entry, lift, None),
        {
            "id": "r2r2.lambda0.J21",
            **NOT_LIFTED,
            "residuals": [
                [
                    "central_extension",
                    "form 'lambda0': form on r2r2 is not symplectic (closed=True, det=0)",
                ]
            ],
            "status": "failure",
        },
    )


def test_extension_without_a_base_bundle_document():
    catalog = builtin_catalog()
    entry = _entry(catalog, "rn4.omega.J")
    algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
    _assert_document(
        verify_extension(entry, lift_form(algebra, form, is_symplectic(algebra, form)), None),
        {
            "id": "rn4.omega.J",
            **NOT_LIFTED,
            "residuals": [
                [
                    "base_structure",
                    "structure 'rn4.omega.J' fails a para-Kahler axiom, so it has no 4D "
                    "curvature to lift",
                ]
            ],
            "status": "failure",
        },
    )
