"""Every name the benchmark harness patches still resolves.

``benchmarks/perf/trace.py`` wraps layer entry points by name in the
module that calls them (``_TARGETS``).  A few of those names are bound
only for it — ``repro.core.engine.stride_any_mask`` and
``top_index_array`` are imported under ``# noqa: F401`` and never
called — so deleting one breaks only the traced benchmark run.  This
test reads the table from the file without importing the harness and
resolves each owner and attribute the way ``trace.install`` does.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "trace.py"


def _targets() -> list:
    tree = ast.parse(TRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_TARGETS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError(f"no _TARGETS table in {TRACE}")


def test_the_table_is_found():
    assert ("repro.core.engine", "stride_any_mask") in _targets()


@pytest.mark.parametrize("owner,attr", _targets())
def test_target_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    namespace = importlib.import_module(module)
    if cls:
        namespace = getattr(namespace, cls)
        # trace.install reads a class attribute from the class's own dict.
        assert attr in namespace.__dict__, f"{owner} has no {attr}"
    else:
        assert callable(getattr(namespace, attr, None)), f"{owner} has no {attr}"
