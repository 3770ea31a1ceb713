"""Spans and counters around bornscat's public functions, for the traced run.

The wrappers live in the benchmark, not in the engine: each one replaces a
function object in every bornscat namespace that holds it, so a call made
through ``from .grids import fft_values`` inside ``bornscat.em`` is seen as
well as one made through ``bornscat.grids``.  Spans are kept in memory with
the id of the span that was open when they started; a span's self time is
its duration minus the durations of its direct children (calls nest
strictly, since the engine is single-threaded Python).

Standard library only, so the parent harness can read LAYER_MOVES.
"""

import functools
import math
import os
import time
from collections import defaultdict

MB = 1e6

# Which end-to-end metric each per-layer metric should move, and where.
# Matched by prefix; the first match wins.
LAYER_MOVES = [
    ("grids.fft.", "solve_s on farfield, em3d, em3d_aniso; barely sweep2d"),
    ("grids.ifft.", "solve_s on farfield, em3d, em3d_aniso; barely sweep2d"),
    ("grids.nudft.", "solve_s on sweep2d and em3d; barely farfield"),
    ("grids.plane_wave.", "solve_s on sweep2d"),
    ("potentials.sample.", "setup_s on farfield and em3d_aniso"),
    ("scalar.born_step.", "solve_s on farfield"),
    ("scalar.green_factor.", "solve_s on farfield"),
    ("scalar.on_shell.", "solve_s on sweep2d"),
    ("scalar.verify.", "solve_s on sweep2d"),
    ("scalar.held_mb_per_order", "peak_rss_mb on farfield"),
    ("em.materials.", "setup_s on em3d_aniso"),
    ("em.apply_material.", "solve_s on em3d; must not worsen em3d_aniso"),
    ("em.kernel.", "solve_s on em3d and em3d_aniso"),
    ("em.born_step.", "solve_s on em3d and em3d_aniso"),
    ("em.on_shell.", "solve_s on em3d_aniso"),
    ("em.verify.", "solve_s on em3d_aniso"),
    ("em.held_mb_per_order", "peak_rss_mb on em3d"),
    ("oracle.", "solve_s on farfield"),
    ("cli.", "solve_s on sweep2d"),
    ("trace.overhead_s", "traced minus untraced solve_s"),
]


def moves(metric):
    for prefix, text in LAYER_MOVES:
        if metric.startswith(prefix):
            return text
    return ""


def unit_of(metric):
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last in ("calls", "points"):
        return "count"
    if last == "gflop":
        return "Gflop"
    if last.endswith("mb") or last.endswith("mb_per_order"):
        return "MB"
    return "ratio"


def current_rss_bytes():
    """Resident set size of this process right now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _transform_info(args, result):
    # computed, not measured: 5 N log2 N flops per complex transform,
    # times the batch of leading components (6 for EM fields)
    values, grid = args[0], args[1]
    n = grid.size
    return {
        "flop": 5.0 * n * math.log2(n) * (values.size // n),
        "bytes": values.nbytes + result.nbytes,
    }


def _nudft_info(args, result):
    # computed: 8 P N flops for P points against N grid values
    values, grid, points = args[0], args[1], args[2]
    return {
        "flop": 8.0 * len(result) * grid.size,
        "bytes": values.nbytes + getattr(points, "nbytes", 0) + result.nbytes,
        "points": len(result),
    }


def _shell_info(args, result):
    return {"key": hash((result.order, result.k, result.directions.tobytes()))}


def _rss_info(args, result):
    return {"rss": current_rss_bytes()}


# (module, function, span name, per-call info)
SPANS = [
    ("grids", "fft_values", "grids.fft", _transform_info),
    ("grids", "ifft_values", "grids.ifft", _transform_info),
    ("grids", "nudft_values", "grids.nudft", _nudft_info),
    ("grids", "plane_wave", "grids.plane_wave", None),
    ("potentials", "sample_potential", "potentials.sample", None),
    ("scalar", "born_step", "scalar.born_step", _rss_info),
    ("scalar", "born_series", "scalar.born_series", None),
    ("scalar", "on_shell_numerator", "scalar.on_shell", _shell_info),
    ("scalar", "verify_exactness", "scalar.verify_exactness", None),
    ("scalar", "verify_spectral_floor", "scalar.verify_spectral_floor", None),
    ("scalar", "verify_order_bands", "scalar.verify_order_bands", None),
    ("scalar", "write_on_shell_csv", "cli.csv", None),
    ("em", "material_from_scalar", "em.materials", None),
    ("em", "material_from_entries", "em.materials", None),
    ("em", "apply_material", "em.apply_material", None),
    ("em", "em_kernel_apply", "em.kernel", None),
    ("em", "em_born_step", "em.born_step", _rss_info),
    ("em", "em_born_series", "em.born_series", None),
    ("em", "em_on_shell_numerator", "em.on_shell", _shell_info),
    ("em", "verify_em_exactness", "em.verify_exactness", None),
    ("em", "verify_em_spectral_floor", "em.verify_spectral_floor", None),
    ("em", "verify_em_order_bands", "em.verify_order_bands", None),
    ("em", "write_em_on_shell_csv", "cli.csv", None),
    ("oracle", "converged_solution", "oracle.converged_solution", None),
    ("oracle", "asymptotic_fit", "oracle.asymptotic_fit", None),
    ("cli", "run", "cli.run", None),
]

# Counted but not timed: the propagator stays inside its Born step's self time.
COUNTERS = [("scalar", "green_factor", "scalar.green_factor")]


def replace_everywhere(modules, original, wrapper):
    """Put `wrapper` wherever a module namespace holds `original`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """In-memory spans and call counters for one traced repetition."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    def install(self, modules):
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, function, name, info in SPANS:
            original = getattr(by_name[module], function)
            replace_everywhere(modules, original, self._span(name, original, info))
        for module, function, name in COUNTERS:
            original = getattr(by_name[module], function)
            replace_everywhere(modules, original, self._counter(name, original))

    def _span(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if info is not None:
                span["info"] = info(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self, artifact_bytes):
        """Per-layer metrics, named <module>.<function>.<quantity>."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        groups = defaultdict(list)
        for span in self.spans:
            span["self"] = span["end"] - span["start"] - child_time[span["id"]]
            groups[span["name"]].append(span)

        def total(name, key):
            spans = groups[name]
            if key == "s":
                return sum(s["end"] - s["start"] for s in spans)
            if key == "self_s":
                return sum(s["self"] for s in spans)
            return sum(s["info"][key] for s in spans)

        out = {}
        for kernel in ("grids.fft", "grids.ifft", "grids.nudft"):
            out[f"{kernel}.calls"] = len(groups[kernel])
            out[f"{kernel}.s"] = total(kernel, "s")
            out[f"{kernel}.gflop"] = total(kernel, "flop") / 1e9
            out[f"{kernel}.mb"] = total(kernel, "bytes") / MB
        out["grids.nudft.points"] = total("grids.nudft", "points")
        for name in ("grids.plane_wave", "potentials.sample", "em.materials",
                     "em.apply_material", "em.kernel", "cli.csv"):
            out[f"{name}.calls"] = len(groups[name])
            out[f"{name}.s"] = total(name, "s")
        out["scalar.green_factor.calls"] = self.counts["scalar.green_factor"]
        for module in ("scalar", "em"):
            step, shell = f"{module}.born_step", f"{module}.on_shell"
            out[f"{step}.calls"] = len(groups[step])
            out[f"{step}.s"] = total(step, "s")
            out[f"{step}.self_s"] = total(step, "self_s")
            calls = len(groups[shell])
            out[f"{shell}.calls"] = calls
            out[f"{shell}.s"] = total(shell, "s")
            distinct = len({s["info"]["key"] for s in groups[shell]})
            out[f"{shell}.useful_ratio"] = distinct / calls if calls else None
            out[f"{module}.verify.s"] = sum(
                total(f"{module}.{check}", "self_s")
                for check in ("verify_exactness", "verify_spectral_floor",
                              "verify_order_bands")
            )
            out[f"{module}.held_mb_per_order"] = self._held_per_order(groups[step])
        for name in ("oracle.converged_solution", "cli.run"):
            out[f"{name}.s"] = total(name, "s")
            out[f"{name}.self_s"] = total(name, "self_s")
        out["oracle.asymptotic_fit.s"] = total("oracle.asymptotic_fit", "s")
        out["cli.artifact_mb"] = artifact_bytes / MB
        return out

    def fired(self):
        """Names of the wrappers that ran at least once."""
        return sorted({s["name"] for s in self.spans} | set(self.counts))

    @staticmethod
    def _held_per_order(steps):
        """Largest RSS growth per order over the steps of one series.

        Steps sharing a parent span belong to one series; the growth from
        its first to its last step, per step, is the memory each
        materialized order keeps alive.
        """
        series = defaultdict(list)
        for span in steps:
            series[span["parent"]].append(span["info"]["rss"])
        growth = [
            (rss[-1] - rss[0]) / (len(rss) - 1) / MB
            for rss in series.values() if len(rss) > 1
        ]
        return max(growth, default=0.0)
