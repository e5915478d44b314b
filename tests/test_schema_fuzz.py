"""Schema fuzzing: single-node corruptions of the README example catalog.

Each example replaces one node of the document with an arbitrary JSON value,
or deletes one key.  The loader must return a catalog or raise a catalog
error (or the size guard), and the command line must end with an exit code
of 0-3 without ever reporting an internal error.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from parakahler.catalog import CatalogFormatError, load_catalog
from parakahler.cli import main
from parakahler.expressions import ExpressionBlowupError

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.DOTALL).group(1))


def _paths(node, prefix=()):
    """Every path into ``node``, the root included, parents before children."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


PATHS = list(_paths(EXAMPLE))
KEY_PATHS = [p for p in PATHS if p and isinstance(p[-1], str)]

# arbitrary JSON, plus the scalars the schema expects, so that a mutant often
# gets past the type checks into parsing and verification
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-5, 5)
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["0", "1", "-1", "a", "1/b", "b^2", "1/0", "a/(b-b)", "lam", "e"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
MUTATIONS = st.tuples(st.just("replace"), st.sampled_from(PATHS), JSON_VALUES) | st.tuples(
    st.just("delete"), st.sampled_from(KEY_PATHS), st.none()
)


def _mutant(mutation):
    kind, path, value = mutation
    if not path:
        return value
    document = copy.deepcopy(EXAMPLE)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


def _fuzz(examples):
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@_fuzz(300)
@given(MUTATIONS)
def test_loader_returns_or_raises_a_catalog_error(mutation):
    try:
        load_catalog(_mutant(mutation))
    except (CatalogFormatError, ExpressionBlowupError):
        pass


@_fuzz(200)
@given(MUTATIONS)
def test_cli_exits_0_to_3_without_an_internal_error(mutation):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "catalog.json"
        path.write_text(json.dumps(_mutant(mutation)), encoding="utf-8")
        for argv in (
            ["check-file", str(path)],
            ["verify", "--catalog", str(path), "--samples", "1"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert "internal error:" not in err.getvalue(), err.getvalue()
