"""The package's records, its findings, and its cold start.

Records are ``typing.NamedTuple``s or plain classes, so a fresh interpreter
imports neither ``dataclasses`` nor ``inspect``, and the builtin catalog's
data module is compiled only when the builtin catalog is asked for.  A
finding and the report are plain documents of JSON values, with no record
class of their own.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from parakahler.catalog import builtin_catalog
from parakahler.contact import build_paracontact
from parakahler.curvature import classify
from parakahler.liealgebra import ParamDomain, is_symplectic, jacobi_check
from parakahler.structures import check_involution
from parakahler.verify import RunConfig, lift_form, render_report, verify_all, verify_entry
from test_schema_fuzz import EXAMPLE as README_EXAMPLE

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str, *args: str):
    """The JSON value on the last line a fresh interpreter prints for ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_adds_neither_dataclasses_nor_inspect():
    added = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import parakahler.cli\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    assert added == []


def test_a_catalog_file_run_never_imports_the_builtin_data(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(README_EXAMPLE), encoding="utf-8")
    code, imported = _fresh(
        "import json, sys\n"
        "from parakahler.cli import main\n"
        "code = main(['verify', '--catalog', sys.argv[1], '--samples', '1'])\n"
        "print(json.dumps([code, 'parakahler.builtin_data' in sys.modules]))\n",
        str(path),
    )
    assert (code, imported) == (0, False)


def test_the_builtin_catalog_loads_its_data_on_demand():
    counts = _fresh(
        "import json\n"
        "from parakahler.catalog import builtin_catalog\n"
        "print(json.dumps([len(builtin_catalog().entries),"
        " len(builtin_catalog.__wrapped__().entries)]))\n"
    )
    assert counts == [57, 57]


@pytest.fixture(scope="module")
def records():
    """One instance of every immutable record, from one builtin entry's run."""
    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == "d42.omega3.J38")
    algebra, form = catalog.algebra_of(entry), catalog.form_of(entry)
    report = is_symplectic(algebra, form)
    bundle = verify_entry(catalog, entry, report, RunConfig(samples=1))[1]
    ext, contact, _ = lift_form(algebra, form, report)
    return {
        "ExpectedResults": entry.expected,
        "CatalogEntry": entry,
        "CentralExtension": ext,
        "ParacontactStructure": build_paracontact(ext, entry.j_matrix),
        "ContactReport": contact,
        "Christoffel": bundle.christoffel,
        "CurvatureTensor": bundle.riemann,
        "CurvatureBundle": bundle,
        "Classification": classify(bundle, entry.j_matrix),
        "JacobiReport": jacobi_check(algebra),
        "SymplecticReport": report,
        "IdentityReport": check_involution(entry.j_matrix),
        "RunConfig": RunConfig(),
    }


@pytest.mark.parametrize(
    "name",
    [
        "ExpectedResults", "CatalogEntry", "CentralExtension", "ParacontactStructure",
        "ContactReport", "Christoffel", "CurvatureTensor", "CurvatureBundle",
        "Classification", "JacobiReport", "SymplecticReport", "IdentityReport", "RunConfig",
    ],
)
def test_immutable_records_refuse_assignment(records, name):
    record = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_a_finding_is_a_json_document_and_its_bundle_comes_apart():
    catalog = builtin_catalog()
    entry = next(e for e in catalog.entries if e.entry_id == "d42.omega3.J38")
    report = is_symplectic(catalog.algebra_of(entry), catalog.form_of(entry))
    (first, bundle), (second, other) = (
        verify_entry(catalog, entry, report, RunConfig(samples=1)) for _ in "12"
    )
    assert first == second
    assert type(bundle).__name__ == "CurvatureBundle" and bundle is not other
    assert "bundle" not in first and bundle not in first.values()
    # every value of the report is JSON: no tuple and no expression leaks in
    run = verify_all(catalog, RunConfig(samples=1), include_extensions=True)
    assert json.loads(render_report(run)) == run


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "open"}, "unknown domain kind"),
        ({"kind": "open-interval"}, "needs at least one endpoint"),
        ({"kind": "open-interval", "lo": Fraction(1), "hi": Fraction(1)}, "lo < hi"),
        ({"lo": Fraction(2), "hi": Fraction(1)}, "lo < hi"),
        ({"kind": "positive", "hi": Fraction(1, 100)}, "a positive domain takes no lo or hi"),
    ],
)
def test_param_domain_refuses_a_bad_domain(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ParamDomain(**kwargs)


def test_param_domains_compare_by_value():
    one = ParamDomain("open-interval", lo=Fraction(1, 2), excluded=(Fraction(1),))
    same = ParamDomain("open-interval", lo=Fraction(1, 2), excluded=(Fraction(1),))
    assert one == same and hash(one) == hash(same)
    assert one != ParamDomain("open-interval", lo=Fraction(1, 2))
    assert one != ("open-interval", Fraction(1, 2), None, (Fraction(1),))
