"""Builtin catalog data, schema loading, and round-tripping."""

import copy
import json

import pytest

from parakahler import expressions
from parakahler.catalog import (
    CatalogFormatError,
    builtin_catalog,
    dump_catalog,
    load_catalog,
)
from parakahler.builtin_data import BUILTIN_DOCUMENT
from parakahler.cli import main
from parakahler.liealgebra import is_symplectic, jacobi_check

from oracles import from_rows


def test_builtin_counts():
    catalog = builtin_catalog()
    assert len(catalog.algebras) == 15
    assert len(catalog.entries) == 57
    by_algebra = {}
    for e in catalog.entries:
        by_algebra.setdefault(e.algebra, []).append(e)
    expected = {
        "r2r2": 8, "rh3": 2, "rr30": 2, "rr3m1": 3, "r2p": 3, "r40": 2,
        "r4m1": 1, "r4m1b": 3, "r4m1m1": 5, "r4maa": 3, "d41": 6, "d42": 14,
        "d4lam": 3, "h4": 1, "rn4": 1,
    }
    assert {k: len(v) for k, v in by_algebra.items()} == expected


def test_builtin_section_counts():
    catalog = builtin_catalog()
    omega3 = [e for e in catalog.entries if e.algebra == "d42" and e.form == "omega3"]
    assert len(omega3) == 9
    lambda0 = [e for e in catalog.entries if e.form == "lambda0"]
    assert len(lambda0) == 5


def test_builtin_document_is_the_catalog():
    # the builtin document goes through the loader as it is, and holds
    # the 57 structures of the classification and no other
    ids = [e.entry_id for e in load_catalog(BUILTIN_DOCUMENT).entries]
    assert ids == [e.entry_id for e in builtin_catalog().entries]
    assert len(set(ids)) == 57
    structures = [s for alg in BUILTIN_DOCUMENT["algebras"] for s in alg["structures"]]
    assert not any("variant" in s for s in structures)


def test_builtin_gates():
    catalog = load_catalog(BUILTIN_DOCUMENT)
    for name, algebra in catalog.algebras.items():
        assert jacobi_check(algebra).ok, name
    for (name, fid), form in catalog.forms.items():
        report = is_symplectic(catalog.algebras[name], form)
        assert report.ok, (name, fid)


def test_round_trip():
    catalog = load_catalog(BUILTIN_DOCUMENT)
    doc = dump_catalog(catalog)
    # the dump is valid JSON
    reloaded = load_catalog(json.loads(json.dumps(doc)))
    assert set(reloaded.algebras) == set(catalog.algebras)
    assert len(reloaded.entries) == len(catalog.entries)
    for original, copy_ in zip(catalog.entries, reloaded.entries):
        assert original.entry_id == copy_.entry_id
        assert original.j_matrix == copy_.j_matrix
        assert original.params == copy_.params
        assert original.expected.label == copy_.expected.label
        if original.expected.ric is None:
            assert copy_.expected.ric is None
        else:
            assert original.expected.ric == copy_.expected.ric
    for key, algebra in catalog.algebras.items():
        other = reloaded.algebras[key]
        assert algebra.dim == other.dim
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                for k in range(algebra.dim):
                    assert algebra.c(i, j, k) == other.c(i, j, k)
    for key, form in catalog.forms.items():
        assert form == reloaded.forms[key]


def _mutate(path_fn):
    doc = copy.deepcopy(BUILTIN_DOCUMENT)
    path_fn(doc)
    return doc


def test_malformed_expression_names_entry():
    doc = _mutate(lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, "a+*b"))
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert "structures[0].J[0][0]" in str(info.value)


def test_unknown_parameter_rejected():
    doc = _mutate(lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, "q+1"))
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert "unknown parameter" in str(info.value)


def test_wrong_matrix_shape_rejected():
    def chop(d):
        d["algebras"][0]["structures"][0]["J"] = d["algebras"][0]["structures"][0]["J"][:3]

    with pytest.raises(CatalogFormatError) as info:
        load_catalog(_mutate(chop))
    assert "4x4" in str(info.value)


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("lo", "1e10000000", "domain.lo"),
        ("hi", "-1E-4301", "domain.hi"),
        ("excluded", ["1", "2e+4301"], "domain.excluded[1]"),
    ],
)
def test_domain_exponent_past_the_digit_limit_is_refused(key, value, path):
    # Fraction would compute 10^10000000 before the loader could look at it
    doc = _mutate(lambda d: d["algebras"][0]["params"][0]["domain"].__setitem__(key, value))
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert str(info.value).startswith(f"algebras[0].params[0].{path}: exponent of ")


def test_domain_exponent_at_the_digit_limit_is_read():
    doc = _mutate(
        lambda d: d["algebras"][0]["params"][0]["domain"].update(
            kind="open-interval", lo="-1e4300", hi="1e4300"
        )
    )
    domain = dict(load_catalog(doc).algebras["r2r2"].params)["lam"]
    assert (domain.lo, domain.hi) == (-(10**4300), 10**4300)


@pytest.mark.parametrize(
    "params, where, message",
    [
        # only an interval has ends: a positive domain would admit lam = 1 anyway
        (
            [{"name": "lam", "domain": {"kind": "positive", "hi": "1/100"}}],
            "algebras[0].params[0].domain",
            "a positive domain takes no lo or hi",
        ),
        # the second would replace the first, and lam > 0 would be lost
        (
            [{"name": "lam", "domain": {"kind": "positive"}}, {"name": "lam"}],
            "algebras[0].params[1].name",
            "duplicate parameter 'lam'",
        ),
    ],
    ids=["bounds-on-positive", "duplicate-name"],
)
def test_param_list_refusal_exits_2_on_one_line(tmp_path, capsys, params, where, message):
    doc = _mutate(lambda d: d["algebras"][0].__setitem__("params", params))
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert info.value.path == where
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    assert capsys.readouterr().err == f"catalog error: {where}: {message}\n"


def test_structure_params_override_the_algebras():
    # a name is listed once per list; a structure may still name its algebra's
    def narrow(d):
        d["algebras"][0]["structures"][0]["params"] = [
            {"name": "lam", "domain": {"kind": "open-interval", "lo": "1"}}
        ]

    catalog = load_catalog(_mutate(narrow))
    entry = catalog.entries[0]
    assert catalog.domains_of(entry)["lam"].kind == "open-interval"
    assert dict(catalog.algebras[entry.algebra].params)["lam"].kind == "positive"


def test_bad_bracket_indices_rejected():
    doc = _mutate(lambda d: d["algebras"][0]["brackets"].append([2, 1, 1, "1"]))
    with pytest.raises(CatalogFormatError):
        load_catalog(doc)


def test_duplicate_structure_id_rejected():
    def dup(d):
        block = d["algebras"][0]["structures"]
        block.append(copy.deepcopy(block[0]))

    with pytest.raises(CatalogFormatError) as info:
        load_catalog(_mutate(dup))
    assert "duplicate" in str(info.value)


def test_unknown_label_rejected():
    doc = _mutate(
        lambda d: d["algebras"][0]["structures"][0]["expected"].__setitem__(
            "label", "shiny"
        )
    )
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert str(info.value) == (
        "algebras[0].structures[0].expected.label: unknown label 'shiny'; "
        "known: flat, ricci_flat, einstein, hermitian_ricci, generic"
    )


def test_unknown_form_reference_rejected():
    doc = _mutate(
        lambda d: d["algebras"][0]["structures"][0].__setitem__("form", "missing")
    )
    with pytest.raises(CatalogFormatError):
        load_catalog(doc)


def _small_algebra(dim):
    """A dim-``dim`` algebra with one structure; valid except for its dim."""
    j_rows = [["1" if r == c else "0" for c in range(dim)] for r in range(dim)]
    return {
        "name": f"r{dim}", "dim": dim, "brackets": [],
        "forms": [{"id": "w", "terms": [[1, 2, "1"]]}],
        "structures": [{"id": f"r{dim}.w.J", "form": "w", "J": j_rows}],
    }


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d["algebras"].__setitem__(0, 3), "algebras[0]"),
        (lambda d: d["algebras"][0].__setitem__("dim", "4"), "algebras[0].dim"),
        (
            lambda d: d["algebras"][0].__setitem__("structures", 3),
            "algebras[0].structures",
        ),
        (
            lambda d: d["algebras"][0]["brackets"][0].__setitem__(3, "1/0"),
            "algebras[0].brackets[0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"].__setitem__(0, 3),
            "algebras[0].structures[0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0].__setitem__("J", 3),
            "algebras[0].structures[0].J",
        ),
        (
            lambda d: d["algebras"][0]["forms"][0].__setitem__("terms", 3),
            "algebras[0].forms[0].terms",
        ),
        (lambda d: d["algebras"][0].__setitem__("params", 3), "algebras[0].params"),
        (
            lambda d: d["algebras"][0]["structures"][0].__setitem__("expected", 3),
            "algebras[0].structures[0].expected",
        ),
        (
            lambda d: d["algebras"][0]["brackets"][0].__setitem__(0, "1"),
            "algebras[0].brackets[0]",
        ),
        (
            lambda d: d["algebras"][0]["params"][0]["domain"].__setitem__("excluded", ["x"]),
            "algebras[0].params[0].domain.excluded[0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0].__setitem__("id", [1]),
            "algebras[0].structures[0].id",
        ),
        (lambda d: d["algebras"].__setitem__(0, _small_algebra(3)), "algebras[0].dim"),
        (lambda d: d["algebras"].__setitem__(0, _small_algebra(2)), "algebras[0].dim"),
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(
                0, "(" * 200 + "1" + ")" * 200
            ),
            "algebras[0].structures[0].J[0][0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, "-" * 1000 + "1"),
            "algebras[0].structures[0].J[0][0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, True),
            "algebras[0].structures[0].J[0][0]",
        ),
        (
            lambda d: d["algebras"][0]["brackets"][0].__setitem__(3, True),
            "algebras[0].brackets[0]",
        ),
        (
            lambda d: d["algebras"][0]["forms"][0]["terms"][0].__setitem__(2, True),
            "algebras[0].forms[0].terms[0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0]["expected"].__setitem__(
                "einstein_factor", True
            ),
            "algebras[0].structures[0].expected.einstein_factor",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0].__setitem__("note", 3),
            "algebras[0].structures[0].note",
        ),
        (
            lambda d: d["algebras"][0]["params"][0].__setitem__("name", "a+b"),
            "algebras[0].params[0].name",
        ),
        (
            lambda d: d["algebras"][0]["params"][0].__setitem__("name", 1),
            "algebras[0].params[0].name",
        ),
        # past the interpreter's 4,300-digit limit for reading an int
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, "7" * 5000),
            "algebras[0].structures[0].J[0][0]",
        ),
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(
                0, "a^" + "7" * 5000
            ),
            "algebras[0].structures[0].J[0][0]",
        ),
        # str.isdigit admits a superscript into an integer token; int refuses it
        (
            lambda d: d["algebras"][0]["structures"][0]["J"][0].__setitem__(0, "2\u00b2"),
            "algebras[0].structures[0].J[0][0]",
        ),
        # every algebra has dim 4, whether or not it carries structures
        (lambda d: d["algebras"].__setitem__(0, {"name": "x", "dim": 5}), "algebras[0].dim"),
        (
            lambda d: d["algebras"].__setitem__(0, {"name": "x", "dim": 10**6}),
            "algebras[0].dim",
        ),
    ],
    ids=[
        "algebra-not-object", "dim-not-integer", "structures-not-list", "zero-division",
        "structure-not-object", "j-not-list", "terms-not-list", "params-not-list",
        "expected-not-object", "bracket-index-string", "excluded-not-rational",
        "id-not-string", "structures-in-dim-3", "structures-in-dim-2",
        "nested-parentheses", "nested-unary-minus", "true-in-j", "true-in-bracket",
        "true-in-terms", "true-in-expected", "note-not-string",
        "param-name-expression", "param-name-integer", "literal-of-5000-digits",
        "exponent-of-5000-digits", "superscript-digit", "dim-5-without-structures",
        "dim-million-without-structures",
    ],
)
def test_malformed_document_is_a_catalog_error(tmp_path, capsys, mutate, where):
    doc = _mutate(mutate)
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(doc)
    assert info.value.path == where
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-file", str(path)]) == 2
    assert f"catalog error: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, where, shown",
    [
        (
            lambda d: d["algebras"][0].__setitem__("dim", 10**5000),
            "algebras[0].dim",
            "an integer of 5001 digits",
        ),
        (
            lambda d: d["algebras"][0]["brackets"][0].__setitem__(2, 10**5000),
            "algebras[0].brackets[0]",
            "an integer of 5001 digits",
        ),
        (
            lambda d: d["algebras"][0]["forms"][0]["terms"][0].__setitem__(0, 10**5000),
            "algebras[0].forms[0].terms[0]",
            "an integer of 5001 digits",
        ),
        (
            lambda d: d["algebras"][0].__setitem__("name", [10**5000]),
            "algebras[0].name",
            "a list holding an integer too long to print",
        ),
    ],
    ids=["dim", "bracket-index", "form-term-index", "name-list-of-long-integer"],
)
def test_integer_past_the_digit_limit_is_a_catalog_error(mutate, where, shown):
    # From Python an int has no digit limit until it is formatted, and Python
    # refuses to format one of more than 4,300 digits: the message names its
    # digit count instead.  json.dumps refuses it too, so no check-file here.
    with pytest.raises(CatalogFormatError) as info:
        load_catalog(_mutate(mutate))
    assert info.value.path == where
    assert shown in str(info.value)


PUBLISHED_METRICS = {
    # entry id -> catalogued associated metric g = omega . J
    "r2r2.lambda0.J25": [["a", -1, "b", -2], [-1, 0, 0, 0], ["b", 0, "-b", 1], [-2, 0, 1, 0]],
    "rr30.omega.J2": [["a", 1, 0, 0], [1, 0, 0, 0], [0, 0, "c", "-b"], [0, 0, "-b", "(b^2-1)/c"]],
    "rr3m1.omega.J3": [["b", 0, 0, "a"], [0, 0, 1, 0], [0, 1, 0, 0], ["a", 0, 0, "(a^2-1)/b"]],
    "r2p.omega.J3": [["-b", "a", 0, 1], ["a", "b", 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "r4m1.omega.J": [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, "-a", 0], [0, -1, 0, "-b"]],
    "r4m1m1.omega.J5": [[0, -1, 0, 0], [-1, 0, 0, "-a"], [0, 0, 0, -1], [0, "-a", -1, "-b"]],
    "d41.omega1.J12": [["b", -1, 0, "a"], [-1, 0, 0, "-2*a/b"], [0, 0, 0, 1], ["a", "-2*a/b", 1, "c"]],
    "d41.omega2.J21": [[0, -1, 0, 0], [-1, "-a", 0, 1], [0, 0, 0, -1], [0, 1, -1, "b"]],
    "d42.omega1.J11": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, "(a^2-1)/b", "a"], [0, 0, "a", "b"]],
    "d42.omega1.J12": [[0, 1, 0, 0], [1, "-a", 0, 0], [0, 0, 0, 1], [0, 0, 1, "b"]],
    "d42.omega1.J13": [["a", -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, "b"]],
    "d42.omega3.J35": [[0, -1, 0, 0], [-1, "-b", 0, "-a"], [0, 0, 0, -1], [0, "-a", -1, "-b"]],
    "d4lam.omega.J1": [[0, -1, 0, 0], [-1, "-a", 0, 0], [0, 0, 0, -1], [0, 0, -1, "b"]],
    "d4lam.omega.J2": [["a", -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, "b"]],
    "d4lam.omega.J3": [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, "-b", "a"], [0, 0, "a", "-(a^2-1)/b"]],
    "h4.omegap.J": [[0, 1, 0, 0], [1, "-a", 0, 0], [0, 0, 0, 1], [0, 0, 1, "b"]],
}


@pytest.mark.parametrize("entry_id", sorted(PUBLISHED_METRICS))
def test_published_metrics_reproduced(entry_id):
    from parakahler.structures import metric_from

    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == entry_id)
    g = metric_from(catalog.form_of(entry), entry.j_matrix)
    assert g.matrix == from_rows(PUBLISHED_METRICS[entry_id])


def test_readme_example_loads():
    # the schema example shown in the README must stay loadable
    import re
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    match = re.search(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)
    assert match, "README schema example missing"
    catalog = load_catalog(json.loads(match.group(1)))
    assert list(catalog.algebras) == ["rh3"]
    assert catalog.entries[0].entry_id == "rh3.omega.J2"
    assert jacobi_check(catalog.algebras["rh3"]).ok


def test_select_by_glob():
    catalog = builtin_catalog()
    assert len(catalog.select("r2r2.*")) == 8
    assert len(catalog.select("d42.omega3.*")) == 9
    assert [e.entry_id for e in catalog.select("rn4.*")] == ["rn4.omega.J"]


def test_builtin_load_parses_each_distinct_text_once(monkeypatch):
    # 1,403 expression texts, 92 of them distinct; errors are not remembered
    built = []

    class Counted(expressions._Parser):
        def __init__(self, text):
            built.append(text)
            super().__init__(text)

    monkeypatch.setattr(expressions, "_Parser", Counted)
    expressions.parse_expr.cache_clear()
    load_catalog(BUILTIN_DOCUMENT)
    assert len(built) == len(set(built)) == 92
    for _ in range(2):
        with pytest.raises(expressions.ExprSyntaxError):
            expressions.parse_expr("a+*b")
    assert built[92:] == ["a+*b", "a+*b"]
