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


# The bornscat namespaces child.py hands to the tracer, the package included.
TRACED_MODULES = ("bornscat",) + tuple(
    f"bornscat.{name}" for name in ("grids", "potentials", "scalar", "em", "oracle", "cli")
)


def traced_series(modules):
    """A 2D scalar series of 3 orders and an em3d series of 2, with their shell checks.

    Both interactions are zero outside a transverse slab, so every source
    lives on a box smaller than the grid.  Returns the orders computed and
    the scalar and EM shell records made.
    """
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    grids, potentials, scalar, em = (by_name[n] for n in ("grids", "potentials", "scalar", "em"))
    spec2 = potentials.PotentialSpec(alpha=1.0, u=(1.0, 0.0), a=1.0, m=2, coupling=1.0,
                                     ell_y=2.0)
    grid2 = grids.make_grid(2, (24.0, 24.0), (64, 64))
    cfg2 = scalar.make_scatter_config(grid2, 0.8, spec2, n_orders=3, direction_count=8)
    v = potentials.sample_potential(spec2, grid2)
    assert v.box == (slice(0, 64), slice(30, 35))
    scalar_records = scalar.verify_exactness(cfg2, scalar.born_series(cfg2, v)).records
    spec3 = potentials.PotentialSpec(alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=2, coupling=1.0,
                                     ell_y=2.0, ell_z=2.0)
    grid3 = grids.make_grid(3, (24.0, 12.0, 12.0), (32, 16, 16))
    cfg3 = scalar.make_scatter_config(grid3, 0.8, spec3, n_orders=2, direction_count=8)
    materials = em.material_from_scalar(spec3, grid3, which="both")
    assert materials.box == (slice(0, 32), slice(7, 10), slice(7, 10))
    em_records = em.verify_em_exactness(cfg3, em.em_born_series(cfg3, materials)).records
    return cfg2.n_orders + cfg3.n_orders, len(scalar_records), len(em_records)


def test_span_wrappers_take_the_engine_calls():
    # a wrapper's info reads the call's arguments by position, so a call that
    # passes them by keyword would break the traced benchmark run; and a
    # shortcut over a source's box must not move a gated count
    modules = [importlib.import_module(name) for name in TRACED_MODULES]
    saved = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        tracer.install(modules)
        orders, scalar_records, em_records = traced_series(modules)
    finally:
        for module, attributes in zip(modules, saved):
            for name, value in attributes.items():
                setattr(module, name, value)

    with_info = {name for _, _, name, info in spans.SPANS if info is not None}
    traced = [span for span in tracer.spans if span["name"] in with_info]
    assert {span["name"] for span in traced} == with_info
    assert all("info" in span for span in traced)
    assert all(span["info"]["points"] == 8 for span in traced if span["name"] == "grids.nudft")
    metrics = tracer.metrics(0)
    assert metrics["grids.fft.calls"] == orders
    assert metrics["grids.ifft.calls"] == orders
    assert metrics["scalar.green_factor.calls"] == orders
    assert (scalar_records, em_records) == (3, 2)
    assert metrics["grids.nudft.calls"] == scalar_records + 6 * em_records
