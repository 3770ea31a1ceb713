"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py JOB_FILE SPAWN_TIME

JOB_FILE is the JSON job the harness wrote.  SPAWN_TIME is the harness's
time.monotonic() taken just before it started this process; the monotonic
clock is shared by every process on the machine, so setup time covers
interpreter start-up.  bornscat is imported before anything else.  The
result, including any traceback, goes to the job's result file.
"""

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
import bornscat.cli  # noqa: E402

IMPORTED = time.monotonic()

import cmath  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bornscat import cli, em, grids, oracle, potentials, scalar  # noqa: E402

from spans import Tracer  # noqa: E402  (perfbench/ is sys.path[0])

MODULES = (bornscat, grids, potentials, scalar, em, oracle, cli)

# The calls that build the interaction; their time belongs to setup_s.
INTERACTION_CALLS = ("sample_potential", "material_from_scalar", "material_from_entries")


class SetupClock:
    """Wall time spent inside the outermost interaction-building calls."""

    def __init__(self):
        self.total = 0.0
        self._depth = 0

    def install(self, modules):
        for module in modules:
            for name in INTERACTION_CALLS:
                if hasattr(module, name):
                    setattr(module, name, self._timed(getattr(module, name)))

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.total += time.monotonic() - start
        return timed


@dataclasses.dataclass
class Outcome:
    passed: bool
    exact_orders: list
    vanish_ratio: float
    digest: str
    artifact_bytes: int = 0
    farfield_err: float = None


def run_farfield(inputs, workdir, setup_only):
    """Acceptance test 08's shape: converge, replay, fit, compare on the shell."""
    grid = grids.make_grid(2, inputs["grid"]["extents"], inputs["grid"]["counts"])
    k = inputs["k_sweep"][0]
    eps_cells = inputs["eps_cells"]
    base = potentials.spec_from_dict(inputs["potential"])
    k_probe = scalar.make_scatter_config(grid, k, base, n_orders=1, eps_cells=eps_cells).k
    spec = dataclasses.replace(base, coupling=inputs["coupling_per_k2"] * k_probe**2)
    cfg = scalar.make_scatter_config(
        grid, k, spec, n_orders=1, eps_cells=eps_cells,
        direction_count=inputs["direction_count"],
    )
    v = potentials.sample_potential(spec, grid)
    if setup_only:
        return None
    solution = oracle.converged_solution(
        cfg, v, series_tol=inputs["series_tol"], order_cap=inputs["order_cap"]
    )
    replay = scalar.make_scatter_config(
        grid, k, spec, n_orders=solution.order + 1, eps_cells=eps_cells
    )
    series = scalar.born_series(replay, v)
    fit = oracle.asymptotic_fit(
        solution.field, cfg.k_vec, inputs["fit_radius"], cfg.directions,
        fit_wavenumber=cmath.sqrt(cfg.k**2 + 1j * cfg.epsilon),
        radius_ratio=inputs["radius_ratio"],
    )
    c2 = scalar.amplitude_factor(2, cfg.k)
    rows = np.zeros_like(fit.per_radius)
    vanish = 0.0
    for row in range(2):
        nodes = grids.DirectionSet(k=cfg.k, unit_vectors=fit.node_directions[row])
        for term in series[1:]:
            record = scalar.on_shell_numerator(term, cfg, directions=nodes)
            rows[row] += c2 * record.values
            if term.order > replay.exact_order:
                ratio = record.max_abs / term.numerator.max_abs()
                vanish = max(vanish, ratio)
    reference = rows.mean(axis=0)
    err = float(np.max(np.abs(fit.values - reference)) / np.max(np.abs(reference)))
    digest = hashlib.sha256()
    for array in (fit.per_radius, rows, np.array(solution.increments)):
        digest.update(np.ascontiguousarray(array).tobytes())
    return Outcome(
        passed=err <= inputs["max_fit_error"],
        exact_orders=[replay.exact_order],
        vanish_ratio=vanish,
        digest=digest.hexdigest(),
        farfield_err=err,
    )


def run_cli(inputs, workdir, setup_only):
    """`bornscat run` on the generated config, through bornscat.cli.main."""
    config_path = str(Path(workdir) / "config.json")
    if setup_only:
        # the same interaction cli.run builds before its sweep
        config = cli.load_config(config_path)
        grid = grids.make_grid(cli.MODE_DIM[config.mode], config.extents, config.counts)
        if config.mode == "em3d":
            cli._build_materials(config, grid)
        else:
            cli.sample_potential(config.potential, grid)
        return None
    out = Path(workdir) / "out"
    code = cli.main(["run", "--config", config_path, "--out", str(out)])
    digest = hashlib.sha256()
    size = 0
    vanish = 0.0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
        if path.name.endswith("_report.json"):
            checks = json.loads(data)["exactness"]["checks"]
            vanish = max([vanish] + [c["max_ratio"] for c in checks if c["must_vanish"]])
    summary = json.loads((out / "summary.json").read_text())
    return Outcome(
        passed=code == 0,
        exact_orders=[p["exact_order"] for p in summary["points"]],
        vanish_ratio=vanish,
        digest=digest.hexdigest(),
        artifact_bytes=size,
    )


RUNNERS = {"farfield": run_farfield, "cli": run_cli}


def warm_up():
    """Load the lazily imported numpy extensions the workloads use."""
    small = np.ones((8, 8), dtype=complex)
    np.fft.ifftn(np.fft.fftn(small))
    np.einsum("ij,jk->ik", small @ small, small)
    np.linalg.norm(small)


def machine_record():
    """Library versions and backends, as this interpreter sees them."""
    record = {"python": sys.version.split()[0], "numpy": np.__version__}
    try:
        import scipy
        record["scipy"] = scipy.__version__
    except ImportError:
        record["scipy"] = "not installed"
    record["fft"] = "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    return record


def main():
    job_path, spawned = sys.argv[1], float(sys.argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"ok": False, "error": None}
    if job["mode"] == "probe":
        warm_up()
        result.update(ok=True, machine=machine_record())
    else:
        tracer = Tracer() if job["trace"] else None
        if tracer is not None:
            tracer.install(MODULES)
        clock = SetupClock()
        clock.install(MODULES)
        outcome = None
        try:
            outcome = RUNNERS[job["inputs"]["kind"]](
                job["inputs"], job["workdir"], job["mode"] == "setup"
            )
        except Exception:
            result["error"] = traceback.format_exc()
        end = time.monotonic()
        result["setup_s"] = (IMPORTED - spawned) + clock.total
        result["solve_s"] = (end - IMPORTED) - clock.total
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        result["cpu_user_s"], result["cpu_sys_s"] = usage.ru_utime, usage.ru_stime
        if outcome is not None:
            result.update(ok=True, **dataclasses.asdict(outcome))
            if outcome.vanish_ratio > 0:
                result["vanish_digits"] = -math.log10(outcome.vanish_ratio)
        elif result["error"] is None:
            result["ok"] = True  # setup-only repetition
        if tracer is not None and outcome is not None:
            result["layers"] = tracer.metrics(outcome.artifact_bytes)
            result["fired"] = tracer.fired()
            result["spans"] = tracer.spans
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
