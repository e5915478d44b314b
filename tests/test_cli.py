"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import copy
import json
import time

import pytest

from parakahler import cli
from parakahler.builtin_data import BUILTIN_DOCUMENT
from parakahler.cli import main
from test_schema_fuzz import EXAMPLE as README_EXAMPLE


def test_list_shows_all_algebras(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "15 algebras, 57 structures" in out
    for name in (
        "r2r2", "rh3", "rr30", "rr3m1", "r2p", "r40", "r4m1", "r4m1b",
        "r4m1m1", "r4maa", "d41", "d42", "d4lam", "h4", "rn4",
    ):
        assert f"- {name}:" in out


def test_list_prints_the_interval_that_domains_admit(capsys):
    # ParamDomain.admits takes lo <= x < hi, and the sampler does draw lo = 0
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "parameters: alpha (in [0, 1))" in out
    assert "parameters: beta (in [-1, 0))" in out
    assert "parameters: lam (in [1/2, +inf), excluding 1, 2)" in out


def test_verify_filtered_r2r2(capsys):
    assert main(["verify", "--filter", "r2r2.*", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified 8 structures" in out
    assert "0 failures" in out


def test_verify_strict_flips_exit_code():
    # the catalog carries documented published-label discrepancies, so
    # --strict must fail while the default run succeeds
    assert main(["verify", "--filter", "r2r2.lambdapos.*", "--samples", "2"]) == 0
    assert (
        main(["verify", "--filter", "r2r2.lambdapos.*", "--samples", "2", "--strict"])
        == 1
    )


def test_verify_clean_subset_strict_ok():
    assert main(["verify", "--filter", "rh3.*", "--samples", "2", "--strict"]) == 0


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--format", "yaml"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["verify", "--samples", "0"]) == 2


@pytest.mark.parametrize("command", ["verify", "extend", "report"])
def test_filter_matching_nothing_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # a mistyped --filter exits 2 naming the pattern, before the run and
    # without writing --out, instead of passing on zero structures
    runs = []
    monkeypatch.setattr(cli, "verify_all", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "report.json"
    assert main([command, "--filter", "rn5.*", "--samples", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --filter 'rn5.*' matches no structure id\n"
    assert captured.out == ""
    assert runs == []
    assert not out.exists()


def test_run_options_are_pinned():
    # verify, extend and report take exactly these options: a new knob
    # changes this test
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("verify", "extend", "report"):
        options = [a.option_strings[0] for a in commands.choices[command]._actions]
        assert options == [
            "-h", "--seed", "--samples", "--format", "--catalog", "--filter", "--strict", "--out",
        ], command


def test_corrupted_catalog_file_exits_one(tmp_path, capsys):
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    for alg in doc["algebras"]:
        if alg["name"] == "rh3":
            alg["structures"][0]["J"][0][0] = "5"  # breaks J^2 = Id
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        ["verify", "--catalog", str(path), "--filter", "rh3.*", "--samples", "2"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILURE" in out
    assert "axiom=involution" in out


def test_check_file_ok(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(BUILTIN_DOCUMENT), encoding="utf-8")
    assert main(["check-file", str(path)]) == 0
    assert "OK: 15 algebras" in capsys.readouterr().out


def test_check_file_malformed(tmp_path, capsys):
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    doc["algebras"][0]["structures"][0]["J"][0][0] = "a+*b"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    assert "catalog error" in capsys.readouterr().err


def test_check_file_missing(capsys):
    assert main(["check-file", "/nonexistent/catalog.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-file", "{dir}"],
        ["verify", "--catalog", "{dir}"],
        ["check-file", "{latin1}"],
        ["verify", "--samples", "1", "--filter", "rn4.*", "--out", "{dir}"],
        ["report", "--samples", "1", "--out", "{dir}/missing/report.json"],
    ],
    ids=[
        "check-file-directory", "catalog-directory", "not-utf8", "out-directory",
        "out-missing-parent",
    ],
)
def test_bad_path_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # a path that cannot be read or written exits 2 with a message, not 1,
    # and an --out path is checked before the run, not after it
    runs = []
    monkeypatch.setattr(cli, "verify_all", lambda *args, **kwargs: runs.append(args))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"note": "caf\xe9"}')  # Latin-1, not UTF-8
    args = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    assert main(args) == 2
    assert "error" in capsys.readouterr().err
    assert runs == []


def test_unexpected_exception_exits_three_on_one_line(tmp_path, capsys, monkeypatch):
    # an exception that is neither a finding nor a known infrastructure error
    # exits 3 with one line, no traceback, and leaves an existing report as it was
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_all", broken)
    out = tmp_path / "report.json"
    out.write_text("previous", encoding="utf-8")
    assert main(["report", "--samples", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""
    assert out.read_text(encoding="utf-8") == "previous"


def test_report_written_and_deterministic(tmp_path):
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    for out in (out1, out2):
        code = main(
            [
                "report",
                "--filter",
                "rr3m1.*",
                "--samples",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["total"] == 3
    assert "sasakian" in doc
    assert doc["summary"]["sasakian_ok"] == 3


def test_report_markdown(tmp_path):
    out = tmp_path / "report.md"
    assert (
        main(
            [
                "report", "--filter", "rn4.*", "--samples", "2",
                "--format", "markdown", "--out", str(out),
            ]
        )
        == 0
    )
    text = out.read_text()
    assert "| rn4.omega.J |" in text
    assert "## Para-Sasakian extensions" in text


def test_extend_exit_zero(capsys):
    assert main(["extend", "--filter", "rn4.*", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "sasakian rn4.omega.J" in out


def test_stdout_byte_identical_across_runs(capsys):
    runs = []
    for _ in range(2):
        assert main(["verify", "--filter", "rr30.*", "--samples", "2", "--seed", "4"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    # --seed is the one way to set the seed; without it the seed is 0
    monkeypatch.setenv("PARAKAHLER_SEED", "11")
    out1 = tmp_path / "a.json"
    assert main(["report", "--filter", "rn4.*", "--samples", "2", "--out", str(out1)]) == 0
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 0


def test_power_past_the_term_guard_exits_3_before_the_work(tmp_path, capsys):
    # the guard bounds each product before forming it, so the parse of the
    # power stops at its first oversized product, not after building it
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    algebra = next(a for a in doc["algebras"] if a["name"] == "r2r2")
    algebra["structures"] = algebra["structures"][:1]
    algebra["structures"][0]["J"][1][0] = "(a+b+c+d+lam)^30"
    doc["algebras"] = [algebra]
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["verify", "--catalog", str(path), "--samples", "1"]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err.startswith("infrastructure error: ")


def test_power_past_the_degree_guard_exits_3_before_the_work(tmp_path, capsys):
    # J stays an involution whatever its (2,1) slot holds; the parser refuses
    # the power before forming it, so evaluating it never starts
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    algebra = next(a for a in doc["algebras"] if a["name"] == "r2r2")
    algebra["structures"] = [
        s for s in algebra["structures"] if s["id"] == "r2r2.lambdapos.J11"
    ]
    algebra["structures"][0]["J"][1][0] = "a^100000"
    doc["algebras"] = [algebra]
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["verify", "--catalog", str(path), "--samples", "1"]) == 3
    assert time.perf_counter() - start < 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("infrastructure error: degree 100000 exceeds the guard (1000)")


def test_domain_exponent_past_the_digit_limit_exits_2_at_once(tmp_path, capsys):
    doc = {"algebras": [{
        "name": "x", "dim": 4, "brackets": [], "forms": [], "structures": [],
        "params": [{"name": "a", "domain": {"kind": "open-interval", "lo": "1e10000000"}}],
    }]}
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check-file", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "catalog error: algebras[0].params[0].domain.lo: "
        "exponent of '1e10000000' exceeds 4300 in magnitude\n"
    )


def _readme_catalog(tmp_path, name, edit):
    """The README's catalog example with ``edit`` applied to its one algebra."""
    doc = copy.deepcopy(README_EXAMPLE)
    edit(doc["algebras"][0])
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_coefficient_past_the_digit_limit_exits_3_at_once(tmp_path, capsys):
    def bracket(algebra):  # refused unformed: 300000000 times the one digit of 2
        algebra["brackets"][0][3] = "2^300000000"

    def form(algebra):  # 10^2500 is read, but det omega = 10^5000 is too long to print
        algebra["forms"][0]["terms"][0][2] = "1" + "0" * 2500

    out = str(tmp_path / "report.json")
    for argv, message in (
        (["check-file", _readme_catalog(tmp_path, "bracket.json", bracket)],
         "300000000 digits exceed the guard (4300)"),
        (["verify", "--samples", "1", "--out", out,
          "--catalog", _readme_catalog(tmp_path, "form.json", form)],
         "cannot print a coefficient of 5001 digits"),
    ):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("infrastructure error: " + message)


def test_product_past_the_exponent_field_exits_3_at_once(tmp_path, capsys):
    def form(algebra):  # omega_12 has nine coprime denominators of degree 1000
        algebra["forms"][0]["terms"] += [[1, 2, f"1/(a^1000 + {k})"] for k in range(1, 10)]

    catalog = _readme_catalog(tmp_path, "exponent.json", form)
    start = time.perf_counter()
    # det omega divides by the fourth power of that degree-9000 denominator
    assert main(["verify", "--samples", "1", "--catalog", catalog]) == 3
    assert time.perf_counter() - start < 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "infrastructure error: product of degree 36000 reaches the guard (32768)"


def degenerate(document):
    # r2r2.lambda0 reduced to e1^e2 alone: closed, and J21 and J24bc stay
    # compatible with it, but det omega = 0
    doc = copy.deepcopy(document)
    for alg in doc["algebras"]:
        if alg["name"] == "r2r2":
            for form in alg["forms"]:
                if form["id"] == "lambda0":
                    form["terms"] = [[1, 2, "1"]]
    return doc


def _degenerate_catalog(tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(degenerate(BUILTIN_DOCUMENT)), encoding="utf-8")
    return path


def test_verify_degenerate_form_is_failure(tmp_path, capsys):
    path = _degenerate_catalog(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "verify", "--catalog", str(path), "--filter", "r2r2.lambda0.J21",
            "--samples", "2", "--out", str(out),
        ]
    )
    assert code == 1
    assert "FAILURE      r2r2.lambda0.J21 degenerate-form" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    (entry,) = doc["entries"]
    assert entry["status"] == "failure"
    assert any("'lambda0' is degenerate" in note for note in entry["notes"])
    assert doc["gates"]["r2r2"]["forms"]["lambda0"]["nondegenerate"] is False


def test_report_degenerate_form_is_failure(tmp_path):
    path = _degenerate_catalog(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "report", "--catalog", str(path), "--filter", "r2r2.lambda0.J21",
            "--samples", "2", "--out", str(out),
        ]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["entries"][0]["status"] == "failure"
    (ext,) = doc["sasakian"]
    assert ext["status"] == "failure"
    assert "'lambda0'" in ext["residuals"][0][1]
    assert doc["summary"]["sasakian_failures"] == 1


def test_ric_exact_counts_only_compared_entries(tmp_path):
    # with lambda0 degenerate no curvature is computed, so no published Ricci
    # operator of the family was compared and none may count as exact
    path = _degenerate_catalog(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "verify", "--catalog", str(path), "--filter", "r2r2.lambda0.*",
            "--samples", "2", "--out", str(out),
        ]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    summary = doc["summary"]
    assert summary["failures"] == summary["total"] == len(doc["entries"]) > 1
    assert all(e["label"]["computed"] is None for e in doc["entries"])
    assert any(e["ric_comparison"]["expected_present"] for e in doc["entries"])
    assert summary["ric_exact"] == 0


@pytest.mark.parametrize(
    "j_rows",
    [
        # J^2 = Id and integrable, but omega(JX, JY) != -omega(X, Y)
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        # J^2 != Id
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    ],
    ids=["not-omega-compatible", "not-involutive"],
)
def test_report_lift_of_failed_structure_is_failure(tmp_path, capsys, j_rows):
    # a structure that fails its 4D axioms has no curvature to lift; the
    # report records the lift as a failure instead of raising
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    for alg in doc["algebras"]:
        for structure in alg["structures"]:
            if structure["id"] == "r2r2.lambdapos.J11":
                structure["J"] = j_rows
    path = tmp_path / "bad_j.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(
        [
            "report", "--catalog", str(path), "--filter", "r2r2.lambdapos.J11",
            "--samples", "1", "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["entries"][0]["status"] == "failure"
    (ext,) = report["sasakian"]
    assert ext["status"] == "failure"
    assert report["summary"]["sasakian_failures"] == 1


def test_published_generic_label(tmp_path, capsys):
    # "generic" holds exactly when the classification computes it: on J21
    # (computed generic) it matches, on J11 (computed ricci_flat) it is a
    # discrepancy, and neither ends the run with a traceback
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    for alg in doc["algebras"]:
        for structure in alg["structures"]:
            if structure["id"] in ("r2r2.lambdapos.J11", "r2r2.lambda0.J21"):
                structure["expected"] = {"label": "generic"}
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "--catalog", str(path), "--filter", "r2r2.*", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DISCREPANCY  r2r2.lambdapos.J11 label generic->ricci_flat" in out
    assert "ok           r2r2.lambda0.J21\n" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"algebras": [{"name": "x", "dim": ' + "7" * 5000 + "}]}",
        '{"algebras": [{"name": "x", "dim": 4, "brackets": [[1, 2, ' + "7" * 5000 + ', "1"]]}]}',
    ],
    ids=["dim", "bracket-index"],
)
def test_json_number_past_the_digit_limit_is_a_catalog_error(tmp_path, capsys, text):
    # json.load refuses an integer of more than 4,300 digits with a ValueError
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["check-file", str(path)], ["verify", "--catalog", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("catalog error: ")


def test_json_number_past_the_digit_limit_is_named_plainly(tmp_path, capsys):
    # a command-line user cannot raise the interpreter's digit limit
    path = tmp_path / "long.json"
    path.write_text('{"algebras": [{"name": "x", "dim": ' + "7" * 5000 + "}]}", encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    assert capsys.readouterr().err == "catalog error: $: a number has too many digits to read\n"


def test_json_nested_past_the_decoder_is_a_catalog_error(tmp_path, capsys):
    # json.load raises RecursionError on arrays nested this deep
    path = tmp_path / "deep.json"
    path.write_text('{"algebras": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    assert capsys.readouterr().err == "catalog error: $: the JSON nests too deeply to read\n"


@pytest.mark.parametrize(
    "text", ["7" * 5000, "1+" * 2500 + ")"], ids=["literal-of-5000-digits", "trailing-input"]
)
def test_long_expression_is_one_short_catalog_error_line(tmp_path, capsys, text):
    # the message quotes the first 60 characters of the text and its length,
    # and keeps the JSON path and the parser's reason
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    doc["algebras"][0]["structures"][0]["J"][0][0] = text
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("catalog error: algebras[0].structures[0].J[0][0]: cannot parse")
    assert f"({len(text)} characters)" in line
    assert len(line) < 300
