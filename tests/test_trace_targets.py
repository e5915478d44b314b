"""Every function the benchmark's per-layer tracer wraps exists in the package.

``benchmark/layers.py`` patches functions by module and attribute path, so a
rename in the package would silently drop a layer from ``--trace 1``.  The
tracer's tables are read from that file by path, without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmark" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [t for table in (layers.SPANS, layers.COUNTS) for ts in table.values() for t in ts]
    return targets + [("expressions", "_guard")]


@pytest.mark.parametrize("module, path", _targets(), ids=lambda v: v)
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"parakahler.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
