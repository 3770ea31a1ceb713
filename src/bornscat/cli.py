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
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
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
from .oracle import quad_second_order, slow_dft
from .potentials import (
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
# What reading a malformed JSON value can raise.
PARSE_ERRORS = (ValueError, TypeError, KeyError, AttributeError, OverflowError)
JSON_TYPES = {dict: "object", list: "array"}


@dataclass
class RunConfig:
    """Everything one batch needs: interaction, grid, sweep and policies."""

    mode: str
    potential: object = None
    materials: dict = None
    k_sweep: tuple = ()
    extents: tuple = ()
    counts: tuple = ()
    epsilon: float = None
    eps_cells: float = 2.0
    n_orders: int = None
    direction_count: int = 64
    tol: float = 1e-3
    spectral_checks: bool = False
    out: str = "."
    seed: int = 0
    field_file: str = None
    extra: dict = field(default_factory=dict)


def load_config(path, out=None, tol=None, seed=None):
    """Parse a JSON config file into a RunConfig, applying CLI overrides."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"config schema_version is {version!r}, this build reads {SCHEMA_VERSION}"
        )
    known = {
        "schema_version", "mode", "potential", "materials", "k_sweep",
        "grid", "epsilon", "eps_cells", "n_orders", "direction_count",
        "tol", "spectral_checks", "out", "seed", "field_file",
    }
    extra = {key: data[key] for key in data if key not in known}
    extents, counts = _block(data, "grid", (dict,), _grid_axes, ((), ()))
    config = RunConfig(
        mode=data.get("mode", ""),
        potential=_block(data, "potential", (dict, list), spec_from_dict, None),
        materials=_block(data, "materials", (dict,), dict, None),
        k_sweep=_block(data, "k_sweep", (list,), lambda ks: tuple(float(k) for k in ks), ()),
        extents=extents,
        counts=counts,
        epsilon=data.get("epsilon"),
        eps_cells=float(data.get("eps_cells", 2.0)),
        n_orders=data.get("n_orders"),
        direction_count=int(data.get("direction_count", 64)),
        tol=float(data.get("tol", 1e-3)),
        spectral_checks=bool(data.get("spectral_checks", False)),
        out=data.get("out", "."),
        seed=int(data.get("seed", 0)),
        field_file=data.get("field_file"),
        extra=extra,
    )
    if out is not None:
        config.out = str(out)
    if tol is not None:
        config.tol = float(tol)
    if seed is not None:
        config.seed = int(seed)
    return config


def _block(data, key, kinds, parse, absent):
    """parse(data[key]) for an optional object or array; errors name the key."""
    value = data.get(key)
    if value is None:
        return absent
    if not isinstance(value, kinds):
        expected = " or ".join(JSON_TYPES[kind] for kind in kinds)
        raise ValueError(f"{key}: expected a JSON {expected}, got {type(value).__name__}")
    try:
        return parse(value)
    except PARSE_ERRORS as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _grid_axes(block):
    return (
        tuple(float(L) for L in block.get("extents", ())),
        tuple(int(n) for n in block.get("counts", ())),
    )


def validate(config):
    """Return the list of problems that make a config unrunnable.

    An empty list means the config is runnable; nothing is raised.  The grid
    and each sweep point's scatter config are built with the engine's own
    constructors, whose ValueError texts become the diagnostics.
    """
    problems = []
    if config.mode not in MODES:
        problems.append(
            f"mode must be one of {', '.join(MODES)} (got {config.mode!r})"
        )
        return problems
    dim = MODE_DIM[config.mode]
    if len(config.extents) != dim or len(config.counts) != dim:
        problems.append(
            f"mode {config.mode} needs a {dim}-component grid "
            f"(extents has {len(config.extents)}, counts has {len(config.counts)})"
        )
    else:
        try:
            grid = make_grid(dim, config.extents, config.counts)
        except ValueError as exc:
            problems.append(f"grid: {exc}")
    if config.potential is None and not (
        config.mode == "em3d" and _has_material_entries(config)
    ):
        problems.append("config needs a potential spec")
    elif config.potential is not None and len(config.potential.u) != dim:
        problems.append(
            f"potential axis u has {len(config.potential.u)} components, "
            f"mode {config.mode} needs {dim}"
        )
    if config.mode == "em3d":
        try:
            _material_args(config)
        except PARSE_ERRORS as exc:
            problems.append(f"materials block: {exc!r}")
    if not config.k_sweep:
        problems.append("k sweep is empty")
    if not all(0 < k < math.inf for k in config.k_sweep):
        problems.append("k sweep values must be positive and finite")
    if config.epsilon is not None and not _is_positive_number(config.epsilon):
        problems.append("epsilon must be a positive finite number")
    if not _is_positive_number(config.eps_cells):
        problems.append("eps_cells must be a positive finite number")
    if config.n_orders is not None and not (
        _is_positive_number(config.n_orders) and isinstance(config.n_orders, int)
    ):
        problems.append("n_orders must be an integer of at least 1")
    if config.direction_count < 1:
        problems.append("direction_count must be at least 1")
    if not config.tol > 0:
        problems.append("tol must be positive")
    if problems:
        return problems
    try:
        u, alpha = _support_axis(config)
    except ValueError as exc:
        return [f"materials block: {exc}"]
    for index, k in enumerate(config.k_sweep):
        try:
            _make_config(config, grid, k, u, alpha)
        except ValueError as exc:
            problems.append(f"k sweep point {index}: {exc}")
    return problems


def _is_positive_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value < math.inf
    )


def _has_material_entries(config):
    block = config.materials
    return isinstance(block, dict) and bool(
        block.get("eps_entries") or block.get("mu_entries")
    )


def _print_problems(problems):
    """Report each problem on stderr; True when there was any."""
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return bool(problems)


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


def _material_args(config):
    """Keyword arguments for the material builder the materials block names.

    With eps/mu entries: eps_entries and mu_entries for material_from_entries.
    Otherwise: which and scale for material_from_scalar.  Raises on a block
    that names no buildable medium.
    """
    block = config.materials or {}
    if not isinstance(block, dict):
        raise ValueError("materials must be a JSON object")
    if not _has_material_entries(config):
        which = block.get("which", "eps")
        if which not in ("eps", "mu", "both"):
            raise ValueError("which must be 'eps', 'mu' or 'both'")
        scale = block.get("scale", 1.0)
        if isinstance(scale, dict):
            scale = complex(scale.get("re", 0.0), scale.get("im", 0.0))
        scale = complex(scale)
        if not cmath.isfinite(scale):
            raise ValueError("materials scale must be finite")
        return {"which": which, "scale": scale}
    args = {}
    for name in ("eps_entries", "mu_entries"):
        args[name] = {}
        for item in block.get(name) or ():
            i, j = int(item["i"]), int(item["j"])
            if not (0 <= i < 3 and 0 <= j < 3):
                raise ValueError(f"tensor index {(i, j)} out of range")
            spec = spec_from_dict(item["spec"])
            if spec.dim != 3:
                raise ValueError(f"{name} spec axis u must have 3 components")
            args[name][(i, j)] = spec
    return args


def _build_materials(config, grid):
    args = _material_args(config)
    if "which" in args:
        return material_from_scalar(config.potential, grid, **args)
    return material_from_entries(grid, **args)


def _support_axis(config):
    """The axis u and the smallest alpha of the interaction.

    Without a potential, the em3d material entries must share one axis; the
    medium's threshold is then their smallest alpha.
    """
    if config.potential is not None:
        return tuple(config.potential.u), float(config.potential.alpha_min)
    specs = [spec for entries in _material_args(config).values() for spec in entries.values()]
    if not specs:
        raise ValueError("config carries no interaction to take u, alpha from")
    u = specs[0].u
    for spec in specs[1:]:
        if np.linalg.norm(np.subtract(spec.u, u)) > 1e-12:
            raise ValueError(f"material entries must share one axis u, got {u} and {spec.u}")
    return tuple(u), float(min(spec.alpha_min for spec in specs))


def _make_config(config, grid, k, u, alpha, n_orders=None):
    return make_scatter_config(
        grid,
        k,
        u=u,
        alpha=alpha,
        epsilon=config.epsilon,
        eps_cells=config.eps_cells,
        n_orders=config.n_orders if n_orders is None else n_orders,
        direction_count=config.direction_count,
    )


def _sweep_point(config, grid, interaction, k_req, u, alpha):
    """Report payload and shell records of one sweep point, in either mode."""
    cfg = _make_config(config, grid, k_req, u, alpha)
    if cfg.n_orders <= cfg.exact_order:
        cfg = _make_config(
            config, grid, k_req, u, alpha, n_orders=cfg.exact_order + 1
        )
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


def _sweep(config, grid, interaction, u, alpha):
    """(payload, records) for every sweep point; None when one diverged."""
    points = []
    for index, k_req in enumerate(config.k_sweep):
        try:
            points.append(_sweep_point(config, grid, interaction, k_req, u, alpha))
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
    if _print_problems(validate(config)):
        return EXIT_CONFIG
    dim = MODE_DIM[config.mode]
    grid = make_grid(dim, config.extents, config.counts)
    u, alpha = _support_axis(config)
    if config.mode == "em3d":
        interaction, prefixes = _build_materials(config, grid), EM_VALUE_PREFIXES
    else:
        interaction, prefixes = sample_potential(config.potential, grid), ("",)
    points = _sweep(config, grid, interaction, u, alpha)
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
                {
                    "k_requested": row["k_requested"],
                    "k": row["k"],
                    "exact_order": row["exact_order"],
                    "n_orders": row["n_orders"],
                    "pass": row["pass"],
                }
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
    problems = [
        p for p in validate(config)
        if "sweep" not in p  # sampling a field needs no wavenumbers
    ]
    if config.potential is None:
        problems.append("make-potential needs a potential spec")
    if _print_problems(sorted(set(problems))):
        return EXIT_CONFIG
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dim = MODE_DIM[config.mode]
    grid = make_grid(dim, config.extents, config.counts)
    sampled = sample_potential(config.potential, grid)
    _atomic_write(outdir / "potential.field", lambda tmp: save_field(tmp, sampled))
    report = verify_support(config.potential, grid=grid, tol=config.tol)
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
    problems = validate(config)
    if not problems and config.mode == "em3d" and _material_args(config) != {
        "which": "eps", "scale": 1,
    }:
        problems.append(
            "verify rebuilds the em3d medium as delta-eps = v * I from the "
            f"stored field and cannot check materials {config.materials!r}"
        )
    if _print_problems(problems):
        return EXIT_CONFIG
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    field_path = Path(config.field_file or outdir / "potential.field")
    if not field_path.exists():
        print(f"config error: no stored field at {field_path}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sampled = load_field(field_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: cannot read {field_path}: {exc!r}", file=sys.stderr)
        return EXIT_CONFIG
    grid = make_grid(MODE_DIM[config.mode], config.extents, config.counts)
    if sampled.grid != grid:
        print(
            f"config error: stored field grid {sampled.grid} differs from "
            f"the config grid {grid}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    u, alpha = _support_axis(config)
    support = verify_support(sampled, u=u, alpha=alpha, tol=config.tol)
    interaction = sampled
    if config.mode == "em3d":
        eye = np.eye(3)[(...,) + (np.newaxis,) * sampled.grid.dim]
        interaction = MaterialTensors(
            sampled.grid,
            eye * sampled.values[np.newaxis, np.newaxis],
            np.zeros((3, 3) + sampled.grid.shape),
        )
    points = _sweep(config, grid, interaction, u, alpha)
    if points is None:
        return EXIT_DIVERGENCE
    rows = [payload for payload, _ in points]
    ok = support.passed and all(row["pass"] for row in rows)
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
    for line in _summary_lines(config, alpha, rows):
        print(line)
    print(f"support ratio {support.ratio:.3e} ({'pass' if support.passed else 'FAIL'})")
    return EXIT_OK if ok else EXIT_VERIFICATION


def oracle_check(config, quad_tol=None):
    """Cross-check the pipeline against literal-sum oracles on an 8^d grid."""
    problems = [p for p in validate(config) if "grid" not in p and "sweep" not in p]
    if config.potential is None:
        problems.append("oracle mode needs a potential spec")
    if _print_problems(problems):
        return EXIT_CONFIG
    dim = MODE_DIM[config.mode]
    grid = make_grid(dim, (8.0,) * dim, (8,) * dim)
    u, alpha = _support_axis(config)
    try:
        cfg = make_scatter_config(
            grid, 0.8 * alpha, u=u, alpha=alpha, eps_cells=config.eps_cells,
            n_orders=2, direction_count=8,
        )
    except ValueError as exc:
        _print_problems([f"oracle grid {grid.counts}: {exc}"])
        return EXIT_CONFIG
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    quad_tol = 1e-8 if quad_tol is None else float(quad_tol)
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
    v_field = sample_potential(config.potential, grid)
    series = born_series(cfg, v_field)
    nodes = np.stack(
        [
            np.array([grid.momentum_axis(ax)[i] for ax, i in enumerate(idx)])
            for idx in rng.integers(0, 8, size=(5, dim))
        ]
    )
    quad = quad_second_order(v_field, np.array(cfg.k_vec), nodes, cfg.epsilon)
    # series[2].numerator is momentum-space; sample it exactly on-grid
    pipeline = []
    for node in nodes:
        index = tuple(
            int(np.argmin(np.abs(grid.momentum_axis(ax) - node[ax])))
            for ax in range(dim)
        )
        pipeline.append(
            green_factor(float(node @ node), cfg.k, cfg.epsilon)
            * series[2].numerator.values[index]
        )
    pipeline = np.array(pipeline)
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
    except (OSError, *PARSE_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return run(config)
    if args.command == "make-potential":
        return make_potential(config)
    if args.command == "verify":
        return verify(config)
    if args.command == "oracle":
        return oracle_check(config, quad_tol=args.tol)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
