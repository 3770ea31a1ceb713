"""The engine names the benchmark harness looks up must exist.

perfbench/spans.py wraps functions by module and name, and
perfbench/child.py reads attributes of the bornscat modules directly, so
deleting or renaming one of them breaks the traced benchmark run.  These
tests catch that in a second, without running the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The bornscat modules child.py imports by these names and reads attributes of.
CHILD_MODULES = ("cli", "scalar", "grids", "oracle", "potentials")


def load_spans():
    """perfbench/spans.py, which uses only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_attributes():
    """(module, attribute) for every module.attribute that child.py reads."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    return sorted({
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in CHILD_MODULES
    })


spans = load_spans()


@pytest.mark.parametrize(
    "module,function",
    [entry[:2] for entry in spans.SPANS + spans.COUNTERS],
)
def test_span_targets_are_callable(module, function):
    assert callable(getattr(importlib.import_module(f"bornscat.{module}"), function, None))


def test_child_finds_the_attributes_it_reads():
    attributes = child_attributes()
    assert ("cli", "main") in attributes  # the walk sees child.py's reads
    missing = [
        f"{module}.{name}" for module, name in attributes
        if not hasattr(importlib.import_module(f"bornscat.{module}"), name)
    ]
    assert missing == []
