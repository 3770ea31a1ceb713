"""Batch driver: config parsing, sweep orchestration and artifact emission.

A JSON config describes one experiment: the interaction, the grid, a sweep
of incident wavenumbers and the tolerances.  Each sweep point runs the
matching engine, emits per-order on-shell records (CSV) and a verification
report (JSON), and contributes one row to a summary table.  Exit codes:
0 all verifications passed, 1 some verification failed, 2 configuration
error (every invalid config, with a diagnostic on stderr), 3 series
divergence.  Point artifacts are written only once the whole sweep has
succeeded.
"""

import argparse
import cmath
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .em import (
    EM_VALUE_PREFIXES,
    MaterialTensors,
    default_polarization,
    em_born_series,
    em_on_shell_numerator,
    material_from_entries,
    material_from_scalar,
    verify_em_exactness,
    verify_em_order_bands,
    verify_em_spectral_floor,
)
from .grids import SampledField, Space, load_field, make_grid, nudft, save_field
from .jsonkind import (
    array_of, complex_number, flag, integer, kind_of, member, number, string, within
)
from .oracle import quad_second_order, slow_dft
from .potentials import (
    PotentialSum,
    sample_potential,
    spec_from_dict,
    spec_to_dict,
    verify_support,
)
from .scalar import (
    DivergenceError,
    born_series,
    green_factor,
    make_scatter_config,
    on_shell_numerator,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
    write_on_shell_csv,
)

SCHEMA_VERSION = 1
MODES = ("scalar2d", "scalar3d", "em3d")
MODE_DIM = {"scalar2d": 2, "scalar3d": 3, "em3d": 3}
EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
# The medium of an em3d config without a materials block: delta-eps = v * I.
DEFAULT_MATERIALS = {"which": "eps", "scale": 1 + 0j}
ENTRY_KEYS = ("eps_entries", "mu_entries")


@dataclass
class RunConfig:
    """Everything one batch needs: interaction, grid, sweep and policies.

    load_config is its only constructor and states every default.
    materials holds the keyword arguments of the material builder the
    materials block names; problems holds what the reader found wrong with
    the scalar keys; extra holds the keys it did not read.
    """

    mode: str
    potential: object
    materials: dict
    k_sweep: tuple
    extents: tuple
    counts: tuple
    epsilon: float
    eps_cells: float
    n_orders: int
    direction_count: int
    tol: float
    spectral_checks: bool
    out: str
    seed: int
    field_file: str
    problems: list
    extra: dict


def load_config(path, out=None, tol=None, seed=None):
    """Parse a JSON config file into a RunConfig, applying CLI overrides.

    Each key is read once, by its JSON kind.  A block (object or array) that
    cannot be read raises, since nothing can be built from it.  A scalar of
    the wrong kind or outside its range is recorded in `problems` and read as
    its default, so that the problems of the other keys and of the objects
    built from them are reported too.  Every diagnostic names its key.
    """
    with open(path) as fh:
        data = kind_of(json.load(fh), dict)
    if member(data, "schema_version", integer, None) != SCHEMA_VERSION:
        raise ValueError(f"schema_version: this build reads {SCHEMA_VERSION}, "
                         f"got {json.dumps(data.get('schema_version'))}")
    overrides = {"out": out, "tol": tol, "seed": seed}
    data.update((key, value) for key, value in overrides.items() if value is not None)
    keys, problems = {"schema_version"}, []

    def block(key, parse, absent):
        keys.add(key)
        return member(data, key, parse, absent)

    def scalar(key, kind, default, requirement, in_range=lambda value: True):
        keys.add(key)
        try:
            value = member(data, key, kind, default)
            if value is None or in_range(value):
                return value
        except ValueError:
            pass
        problems.append(f"{key} must be {requirement}, got {json.dumps(data.get(key))}")
        return default

    extents, counts = block("grid", _grid_axes, ((), ()))
    return RunConfig(
        mode=scalar("mode", string, "", f"one of {', '.join(MODES)}",
                    lambda mode: mode in MODES),
        potential=block("potential", spec_from_dict, None),
        materials=block("materials", _material_args, dict(DEFAULT_MATERIALS)),
        k_sweep=block("k_sweep", array_of(number), ()),
        extents=extents,
        counts=counts,
        epsilon=scalar("epsilon", number, None, "a number"),
        eps_cells=scalar("eps_cells", number, 2.0, "a number"),
        n_orders=scalar("n_orders", integer, None, "an integer of at least 1",
                        lambda n: n >= 1),
        direction_count=scalar("direction_count", integer, 64, "an integer"),
        tol=scalar("tol", number, 1e-3, "a positive number", lambda t: t > 0),
        spectral_checks=scalar("spectral_checks", flag, False, "true or false"),
        out=scalar("out", string, ".", "a string"),
        seed=scalar("seed", integer, 0, "a nonnegative integer", lambda s: s >= 0),
        field_file=scalar("field_file", string, None, "a string"),
        problems=problems,
        # arguments are evaluated in order, so this follows every read
        extra={key: data[key] for key in data if key not in keys},
    )


def _grid_axes(block):
    kind_of(block, dict)
    return (
        member(block, "extents", array_of(number), ()),
        member(block, "counts", array_of(integer), ()),
    )


def _material_args(block):
    """Keyword arguments for the material builder the materials block names.

    With eps/mu entries: eps_entries and mu_entries for material_from_entries.
    Otherwise: which and scale for material_from_scalar.  Raises on a block
    that names no buildable medium.
    """
    kind_of(block, dict)
    entries = {
        name: dict(member(block, name, array_of(_material_entry), ()))
        for name in ENTRY_KEYS
    }
    if any(entries.values()):
        return entries
    which = member(block, "which", string, "eps")
    if which not in ("eps", "mu", "both"):
        raise ValueError("which must be 'eps', 'mu' or 'both'")
    scale = member(block, "scale", complex_number, 1 + 0j)
    if not cmath.isfinite(scale):
        raise ValueError("scale must be finite")
    return {"which": which, "scale": scale}


def _material_entry(item):
    """((i, j), spec) for one entry {"i", "j", "spec"} of eps_entries or mu_entries."""
    kind_of(item, dict)
    i, j = member(item, "i", integer), member(item, "j", integer)
    if not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"tensor index {(i, j)} out of range")
    spec = member(item, "spec", spec_from_dict)
    if spec.dim != 3:
        raise ValueError("spec axis u must have 3 components")
    return (i, j), spec


def _reject(*problems):
    """Report each problem on stderr; the exit code of a configuration error."""
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return EXIT_CONFIG


def _atomic_write(path, write):
    """Call write(tmp) on a temporary sibling of path, then move it into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text, newline=""))


def _atomic_write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _build_materials(config, grid):
    if "which" in config.materials:
        return material_from_scalar(config.potential, grid, **config.materials)
    return material_from_entries(grid, **config.materials)


def _support_axis(config):
    """The axis u and the smallest alpha of the interaction.

    Without a potential, the em3d material entries act as their sum, which
    must have one axis; the medium's threshold is their smallest alpha.
    """
    interaction = config.potential
    if interaction is None:
        specs = tuple(
            spec
            for name in (ENTRY_KEYS if config.mode == "em3d" else ())
            for spec in config.materials.get(name, {}).values()
        )
        if not specs:
            raise ValueError("config needs a potential spec")
        interaction = within("materials block", PotentialSum, specs)
    return tuple(interaction.u), float(interaction.alpha_min)


@dataclass
class _Built:
    """What a command builds from its config, each object once."""

    grid: object = None
    u: tuple = None
    alpha: float = None
    points: list = field(default_factory=list)  # one ScatterConfig per k


def _build(config, grid=True, sweep=True):
    """The objects a command uses, and the problems that keep it from running.

    The engine constructors check the values they consume; their ValueError
    texts, prefixed with where they arose, become the diagnostics.  A command
    that does not use the grid or the sweep leaves it out, with its problems.
    """
    built, problems = _Built(), list(config.problems)
    if config.mode not in MODE_DIM:  # the reader reported it
        return built, problems
    if grid:
        try:
            built.grid = make_grid(MODE_DIM[config.mode], config.extents, config.counts)
        except ValueError as exc:
            problems.append(f"grid: {exc}")
    try:
        built.u, built.alpha = _support_axis(config)
    except ValueError as exc:
        problems.append(str(exc))
    if sweep and not config.k_sweep:
        problems.append("k sweep is empty")
    if not sweep or built.grid is None or built.u is None:
        return built, problems
    for index, k in enumerate(config.k_sweep):
        try:
            cfg = make_scatter_config(
                built.grid, k, u=built.u, alpha=built.alpha, epsilon=config.epsilon,
                eps_cells=config.eps_cells, n_orders=config.n_orders,
                direction_count=config.direction_count,
            )
        except ValueError as exc:
            problems.append(f"k sweep point {index}: {exc}")
            continue
        if cfg.n_orders <= cfg.exact_order:
            cfg = replace(cfg, n_orders=cfg.exact_order + 1)
        built.points.append(cfg)
    return built, problems


def validate(config):
    """The problems that keep `run` from running a config; [] when none."""
    return _build(config)[1]


def _sweep_point(config, cfg, interaction, k_req):
    """Report payload and shell records of one sweep point, in either mode."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": config.mode,
        "k_requested": k_req,
        "k": cfg.k,
        "alpha": cfg.alpha,
        "epsilon": cfg.epsilon,
        "n_orders": cfg.n_orders,
        "exact_order": cfg.exact_order,
        "thresholds": {"half_alpha": cfg.alpha / 2.0, "alpha": cfg.alpha},
    }
    # engine functions are looked up at call time, so a wrapper placed on a
    # module attribute (as perfbench's traced run does) sees every call
    if config.mode == "em3d":
        e0 = default_polarization(cfg.k_hat, cfg.u)
        payload["polarization"] = [float(c) for c in e0]
        series = em_born_series(cfg, interaction, e0=e0)
        exactness, floor_check, band_check, shell = (
            verify_em_exactness, verify_em_spectral_floor,
            verify_em_order_bands, em_on_shell_numerator,
        )
    else:
        series = born_series(cfg, interaction)
        exactness, floor_check, band_check, shell = (
            verify_exactness, verify_spectral_floor,
            verify_order_bands, on_shell_numerator,
        )
    report = exactness(cfg, series, tol=config.tol)
    records = [shell(t, cfg) for t in series[1:]]
    payload["exactness"] = report.to_dict()
    passed = report.passed
    if config.spectral_checks:
        floor = floor_check(series, cfg.u, cfg.k, tol=config.tol)
        bands = band_check(series, cfg.u, cfg.k, cfg.alpha, tol=config.tol)
        payload["spectral_floor"] = floor.to_dict()
        payload["order_bands"] = bands.to_dict()
        passed = passed and floor.passed and bands.passed
    payload["pass"] = bool(passed)
    return payload, records


def _sweep(config, built, interaction):
    """(payload, records) for every sweep point; None when one diverged."""
    points = []
    for index, (k_req, cfg) in enumerate(zip(config.k_sweep, built.points)):
        try:
            points.append(_sweep_point(config, cfg, interaction, k_req))
        except DivergenceError as exc:
            print(
                f"sweep point {index} (k_requested = {k_req:g}) diverged "
                f"at order {exc.order}",
                file=sys.stderr,
            )
            return None
    return points


def _summary_lines(config, alpha, rows):
    lines = [
        f"mode {config.mode}   support threshold alpha = {alpha:g}",
        f"exactness thresholds: k = alpha/2 = {alpha / 2.0:g}   "
        f"k = alpha = {alpha:g}",
        f"{'k_requested':>12} {'k':>12} {'N':>3} {'orders':>7} "
        f"{'pass':>5} {'worst_vanishing_ratio':>22}",
    ]
    for row in rows:
        checks = row["exactness"]["checks"]
        vanishing = [c["max_ratio"] for c in checks if c["must_vanish"]]
        worst = max(vanishing) if vanishing else 0.0
        lines.append(
            f"{row['k_requested']:>12.6g} {row['k']:>12.6g} "
            f"{row['exact_order']:>3d} {row['n_orders']:>7d} "
            f"{'pass' if row['pass'] else 'FAIL':>5} {worst:>22.6e}"
        )
    return lines


def run(config):
    """Run the full sweep; emit CSV / JSON artifacts and a summary table."""
    built, problems = _build(config)
    if problems:
        return _reject(*problems)
    try:
        if config.mode == "em3d":
            interaction, prefixes = _build_materials(config, built.grid), EM_VALUE_PREFIXES
        else:
            interaction, prefixes = sample_potential(config.potential, built.grid), ("",)
    except ValueError as exc:
        return _reject(f"interaction: {exc}")
    points = _sweep(config, built, interaction)
    if points is None:
        return EXIT_DIVERGENCE
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for index, (payload, records) in enumerate(points):
        stem = f"point_{index:02d}"
        _atomic_write(
            outdir / f"{stem}_on_shell.csv",
            lambda tmp: write_on_shell_csv(tmp, records, prefixes),
        )
        _atomic_write_json(outdir / f"{stem}_report.json", payload)
    rows = [payload for payload, _ in points]
    ok = all(row["pass"] for row in rows)
    alpha = built.alpha
    lines = _summary_lines(config, alpha, rows)
    _atomic_write_text(outdir / "summary.txt", "\n".join(lines) + "\n")
    _atomic_write_json(
        outdir / "summary.json",
        {
            "schema_version": SCHEMA_VERSION,
            "mode": config.mode,
            "alpha": alpha,
            "thresholds": {"half_alpha": alpha / 2.0, "alpha": alpha},
            "points": [
                {key: row[key]
                 for key in ("k_requested", "k", "exact_order", "n_orders", "pass")}
                for row in rows
            ],
            "pass": bool(ok),
        },
    )
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_VERIFICATION


def make_potential(config):
    """Sample the configured potential and certify its spectral support."""
    built, problems = _build(config, sweep=False)  # sampling needs no wavenumbers
    if config.potential is None:
        problems.append("make-potential needs a potential spec")
    if problems:
        return _reject(*problems)
    try:
        sampled = sample_potential(config.potential, built.grid)
        report = verify_support(sampled, u=built.u, alpha=built.alpha, tol=config.tol)
    except ValueError as exc:
        return _reject(f"potential: {exc}")
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _atomic_write(outdir / "potential.field", lambda tmp: save_field(tmp, sampled))
    _atomic_write_json(
        outdir / "support_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "potential": spec_to_dict(config.potential),
            "grid": {"extents": list(config.extents), "counts": list(config.counts)},
            "support": report.to_dict(),
        },
    )
    print(
        f"sampled potential on {'x'.join(str(n) for n in config.counts)} grid; "
        f"support ratio {report.ratio:.3e} "
        f"({'pass' if report.passed else 'FAIL'} at tol {config.tol:g})"
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def verify(config):
    """Re-run verification reports from a stored field, no resampling.

    For em3d the medium is rebuilt as delta-eps = v * I from the stored
    field, so any materials block naming another medium is rejected.
    """
    built, problems = _build(config)
    if config.mode == "em3d" and config.materials != DEFAULT_MATERIALS:
        problems.append(
            "verify rebuilds the em3d medium as delta-eps = v * I from the "
            'stored field and cannot check materials other than {"which": "eps"}'
        )
    if problems:
        return _reject(*problems)
    outdir = Path(config.out)
    field_path = Path(config.field_file or outdir / "potential.field")
    try:
        sampled = load_field(field_path)
        if sampled.grid != built.grid:
            raise ValueError(f"its grid {sampled.grid} differs from "
                             f"the config grid {built.grid}")
        support = verify_support(sampled, u=built.u, alpha=built.alpha, tol=config.tol)
    except (OSError, ValueError) as exc:
        return _reject(f"stored field {field_path}: {exc}")
    interaction = sampled
    if config.mode == "em3d":
        interaction = MaterialTensors.isotropic(sampled.grid, sampled.values)
    points = _sweep(config, built, interaction)
    if points is None:
        return EXIT_DIVERGENCE
    rows = [payload for payload, _ in points]
    ok = support.passed and all(row["pass"] for row in rows)
    outdir.mkdir(parents=True, exist_ok=True)
    _atomic_write_json(
        outdir / "verify_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "mode": config.mode,
            "field_file": str(field_path),
            "support": support.to_dict(),
            "points": rows,
            "pass": bool(ok),
        },
    )
    for line in _summary_lines(config, built.alpha, rows):
        print(line)
    print(f"support ratio {support.ratio:.3e} ({'pass' if support.passed else 'FAIL'})")
    return EXIT_OK if ok else EXIT_VERIFICATION


def oracle_check(config, quad_tol=None):
    """Cross-check the pipeline against literal-sum oracles on an 8^d grid.

    The config's grid and sweep are not used, so they are not built.
    """
    built, problems = _build(config, grid=False, sweep=False)
    if config.potential is None:
        problems.append("oracle mode needs a potential spec")
    if problems:
        return _reject(*problems)
    dim = MODE_DIM[config.mode]
    grid = make_grid(dim, (8.0,) * dim, (8,) * dim)
    u, alpha = built.u, built.alpha
    try:
        cfg = make_scatter_config(
            grid, 0.8 * alpha, u=u, alpha=alpha, eps_cells=config.eps_cells,
            n_orders=2, direction_count=8,
        )
        v_field = sample_potential(config.potential, grid)
    except ValueError as exc:
        return _reject(f"oracle grid {grid.counts}: {exc}")
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    quad_tol = 1e-8 if quad_tol is None else quad_tol
    rng = np.random.default_rng(config.seed)
    # literal-DFT check on a random field
    noise = SampledField(
        grid,
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        Space.POSITION,
    )
    points = rng.uniform(-2.0, 2.0, size=(5, dim))
    dft_err = float(
        np.max(np.abs(slow_dft(noise, points) - nudft(noise, points)))
        / np.max(np.abs(nudft(noise, points)))
    )
    # order-2 check against the nested-quadrature oracle
    series = born_series(cfg, v_field)
    indices = rng.integers(0, 8, size=(5, dim))
    nodes = np.array(
        [[grid.momentum_axis(ax)[i] for ax, i in enumerate(idx)] for idx in indices]
    )
    quad = quad_second_order(v_field, np.array(cfg.k_vec), nodes, cfg.epsilon)
    # series[2].numerator is momentum-space: read it at the drawn nodes
    pipeline = np.array([
        green_factor(float(node @ node), cfg.k, cfg.epsilon)
        * series[2].numerator.values[tuple(idx)]
        for node, idx in zip(nodes, indices)
    ])
    scale = float(np.max(np.abs(pipeline)))
    quad_vals = np.array([q.value for q in quad])
    quad_err = float(np.max(np.abs(quad_vals - pipeline)) / scale)
    ok = dft_err <= 1e-12 and quad_err <= quad_tol
    point_dicts = []
    for q in quad:
        entry = q.to_dict()
        entry.pop("elapsed", None)  # wall time would break byte-determinism
        point_dicts.append(entry)
    _atomic_write_json(
        outdir / "oracle_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "oracle": True,
            "mode": config.mode,
            "seed": config.seed,
            "grid": {"extents": [8.0] * dim, "counts": [8] * dim},
            "dft_relative_error": dft_err,
            "dft_tol": 1e-12,
            "order2_relative_error": quad_err,
            "order2_tol": quad_tol,
            "order2_points": point_dicts,
            "pass": bool(ok),
        },
    )
    print(
        f"literal DFT vs grid transform: {dft_err:.3e} (tol 1e-12); "
        f"order-2 quadrature vs pipeline: {quad_err:.3e} (tol {quad_tol:g}) "
        f"-> {'pass' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bornscat",
        description=(
            "Born-series scattering batches: sample one-sided-spectrum "
            "interactions, run the series, verify on-shell vanishing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("make-potential", "sample the configured potential and certify support"),
        ("run", "full pipeline: series, on-shell records, verification, summary"),
        ("verify", "reports only, from a stored field"),
        ("oracle", "small-grid cross-checks against literal-sum oracles"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--tol", type=float, default=None, help="tolerance override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, out=args.out, tol=args.tol, seed=args.seed)
    except (OSError, ValueError) as exc:
        return _reject(exc)
    if args.command == "oracle":
        return oracle_check(config, quad_tol=args.tol)
    # looked up per call, so a wrapper placed on `run` sees the call
    commands = {"run": run, "make-potential": make_potential, "verify": verify}
    return commands[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
