"""End-to-end acceptance gate.

Ten numbered checks cover the package's headline behaviors: certified
one-sided spectral support, on-shell vanishing of Born orders above
N = floor(2k/alpha) in 2D, 3D and the six-component electromagnetic
setting, band propagation through repeated convolutions, agreement with
brute-force oracles and far-field amplitudes, and homogeneity plus
byte-level determinism of emitted artifacts.

Each test prints exactly one summary line (pass/fail with the governing
numbers) straight to the terminal, bypassing pytest capture.
"""

import cmath
import json
import time

import numpy as np
import pytest

from bornscat import cli
from bornscat.em import (
    default_polarization,
    em_born_series,
    em_kernel_apply,
    material_from_scalar,
    verify_em_exactness,
)
from bornscat.grids import (
    DirectionSet,
    SampledField,
    make_grid,
    nudft_values,
)
from bornscat.oracle import converged_solution, quad_second_order, slow_dft
from bornscat.potentials import (
    PotentialSpec,
    potential_spectrum,
    sample_potential,
    verify_support,
)
from bornscat.scalar import (
    amplitude_factor,
    born_series,
    green_factor,
    make_scatter_config,
    on_shell_numerator,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
)

pytestmark = pytest.mark.filterwarnings("ignore:potential magnitude")

FAMILY2D = PotentialSpec(
    alpha=1.0, u=(1.0, 0.0), a=1.0, m=2, coupling=1.0, ell_y=2.0
)
FAMILY3D = PotentialSpec(
    alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=2, coupling=1.0,
    ell_y=2.0, ell_z=2.0,
)

# The shared 2D runs of the family potential on L = 60:
# name -> (grid counts, requested k, orders).
SCALAR_RUNS = {
    "k045": ((512, 512), 0.45, 4),
    "k080": ((512, 512), 0.8, 4),
    "k130": ((640, 640), 1.3, 5),
}


@pytest.fixture(scope="module")
def scalar_run():
    """scalar_run(name) -> (config, series), each run built once per module."""
    cache = {}

    def run(name):
        if name not in cache:
            counts, k_req, n_orders = SCALAR_RUNS[name]
            grid = make_grid(2, (60.0, 60.0), counts)
            cfg = make_scatter_config(grid, k_req, FAMILY2D, n_orders=n_orders)
            series = born_series(cfg, sample_potential(FAMILY2D, grid))
            cache[name] = (cfg, series)
        return cache[name]

    return run


def report_line(capsys, number, name, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[{number:2d}/10] {name}: {status} ({detail})")


def test_01_support_certification(capsys):
    t0 = time.monotonic()
    grid = make_grid(2, (60.0, 60.0), (512, 512))
    support = verify_support(sample_potential(FAMILY2D, grid), u=FAMILY2D.u,
                             alpha=FAMILY2D.alpha, tol=1e-3)
    # closed form vs grid transform on a validation grid whose spacing puts
    # the slab edges mid-cell, so the sampled indicator carries no
    # quantization bias
    vgrid = make_grid(2, (60.0, 60.0), (4050, 4050))
    sampled = sample_potential(FAMILY2D, vgrid)
    rng = np.random.default_rng(20250825)
    points = np.column_stack(
        [rng.uniform(-1.0, 9.0, 100), rng.uniform(-4.5, 4.5, 100)]
    )
    approx = nudft_values(sampled.values, vgrid, points, box=sampled.box)
    exact = potential_spectrum(FAMILY2D, points)
    agreement = float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))
    elapsed = time.monotonic() - t0
    passed = support.passed and agreement <= 1e-3 and elapsed <= 10.0
    report_line(
        capsys, 1, "spectral-support certification", passed,
        f"support ratio {support.ratio:.2e}, closed-form agreement "
        f"{agreement:.2e}, {elapsed:.1f}s",
    )
    assert support.passed and support.ratio <= 1e-3
    assert agreement <= 1e-3
    assert elapsed <= 10.0


def test_02_no_scattering_below_half_threshold(capsys, scalar_run):
    t0 = time.monotonic()
    cfg, series = scalar_run("k045")
    report = verify_exactness(cfg, series, tol=1e-3)
    transfers = cfg.directions.momenta - np.array(cfg.k_vec)
    gate = potential_spectrum(FAMILY2D, transfers)
    gate_max = float(np.max(np.abs(gate)))
    elapsed = time.monotonic() - t0
    worst = max(c.ratio for c in report.checks)
    passed = (
        report.exact_order == 0
        and report.passed
        and gate_max == 0.0
        and elapsed <= 30.0
    )
    report_line(
        capsys, 2, "no scattering below half-threshold", passed,
        f"orders 1..4 worst ratio {worst:.2e}, first-order closed form "
        f"identically {gate_max:g} on 64 directions, {elapsed:.1f}s",
    )
    assert report.exact_order == 0
    assert report.passed, report.to_dict()
    assert gate_max == 0.0
    assert elapsed <= 30.0


def test_03_first_order_exactness_window(capsys, scalar_run):
    t0 = time.monotonic()
    cfg, series = scalar_run("k080")
    report = verify_exactness(cfg, series, tol=1e-3)
    first = report.check_for(1).ratio
    elapsed = time.monotonic() - t0
    passed = (
        report.exact_order == 1
        and first >= 1e-1
        and report.passed
        and elapsed <= 60.0
    )
    report_line(
        capsys, 3, "first-order exactness window", passed,
        f"order-1 signal {first:.2e} >= 1e-1, orders 2..4 worst "
        f"{max(report.check_for(n).ratio for n in (2, 3, 4)):.2e}, "
        f"{elapsed:.1f}s",
    )
    assert report.exact_order == 1
    assert first >= 1e-1
    assert report.passed, report.to_dict()
    assert elapsed <= 60.0


def test_04_second_order_staircase_step(capsys, scalar_run):
    cfg, series = scalar_run("k130")
    report = verify_exactness(cfg, series, tol=1e-3)
    second = report.check_for(2).ratio
    refinement = []
    for n in (256, 512):
        grid = make_grid(2, (60.0, 60.0), (n, n))
        sub_cfg = make_scatter_config(grid, 1.3, FAMILY2D, n_orders=3)
        sub = verify_exactness(
            sub_cfg, born_series(sub_cfg, sample_potential(FAMILY2D, grid)),
            tol=1e-3,
        )
        refinement.append(sub.check_for(3).ratio)
    gain = refinement[0] / refinement[1]
    passed = (
        report.exact_order == 2
        and second >= 1e-3
        and report.passed
        and gain >= 2.0
    )
    report_line(
        capsys, 4, "second-order staircase step", passed,
        f"order-2 signal {second:.2e} >= 1e-3, orders 3..5 worst "
        f"{max(report.check_for(n).ratio for n in (3, 4, 5)):.2e}, "
        f"refinement gain {gain:.1f}x",
    )
    assert report.exact_order == 2
    assert second >= 1e-3
    assert report.passed, report.to_dict()
    assert gain >= 2.0


def test_05_one_sided_spectral_bands(capsys, scalar_run):
    worst = 0.0
    for name in SCALAR_RUNS:
        cfg, series = scalar_run(name)
        floor = verify_spectral_floor(cfg, series, tol=1e-3)
        bands = verify_order_bands(cfg, series, tol=1e-3)
        assert floor.passed and bands.passed, (name, floor.to_dict())
        worst = max(worst, floor.worst_ratio, bands.worst_ratio)
    grid = make_grid(2, (60.0, 60.0), (512, 512))
    r2 = np.zeros(grid.shape)
    for x in grid.position_mesh():
        r2 = r2 + x * x
    control = SampledField(grid, np.exp(-r2))
    ctrl_cfg = make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=1.0, n_orders=2)
    ctrl_series = born_series(ctrl_cfg, control)
    ctrl_floor = verify_spectral_floor(ctrl_cfg, ctrl_series, tol=1e-3)
    ctrl_bands = verify_order_bands(ctrl_cfg, ctrl_series, tol=1e-3)
    ctrl_worst = max(ctrl_floor.worst_ratio, ctrl_bands.worst_ratio)
    passed = worst <= 1e-3 and not ctrl_floor.passed and ctrl_worst >= 1e-1
    report_line(
        capsys, 5, "one-sided spectral bands", passed,
        f"family worst ratio {worst:.2e} over three runs, two-sided control "
        f"fails at {ctrl_worst:.2e}",
    )
    assert worst <= 1e-3
    assert not ctrl_floor.passed
    assert ctrl_worst >= 1e-1


def test_06_three_dimensional_replication(capsys):
    t0 = time.monotonic()
    grid = make_grid(3, (24.0, 24.0, 24.0), (96, 96, 96))
    cfg = make_scatter_config(grid, 0.8, FAMILY3D, n_orders=3)
    series = born_series(cfg, sample_potential(FAMILY3D, grid))
    report = verify_exactness(cfg, series, tol=1e-2)
    first = report.check_for(1).ratio
    elapsed = time.monotonic() - t0
    passed = (
        report.exact_order == 1
        and first >= 1e-1
        and report.passed
        and elapsed <= 180.0
    )
    report_line(
        capsys, 6, "three-dimensional replication", passed,
        f"order-1 signal {first:.2e}, orders 2..3 worst "
        f"{max(report.check_for(n).ratio for n in (2, 3)):.2e}, {elapsed:.1f}s",
    )
    assert report.exact_order == 1
    assert first >= 1e-1
    assert report.passed, report.to_dict()
    assert elapsed <= 180.0


def test_07_oracle_agreement(capsys):
    t0 = time.monotonic()
    quad_worst = 0.0
    dft_worst = 0.0
    for dim in (2, 3):
        grid = make_grid(dim, (8.0,) * dim, (8,) * dim)
        kwargs = {"ell_z": 2.0} if dim == 3 else {}
        spec = PotentialSpec(
            alpha=1.0, u=(1.0,) + (0.0,) * (dim - 1), a=1.0, m=2,
            coupling=1.0, ell_y=2.0, **kwargs,
        )
        cfg = make_scatter_config(grid, 0.9, spec, n_orders=2)
        v = sample_potential(spec, grid)
        series = born_series(cfg, v)
        full = green_factor(grid.momentum_sq, cfg.k, cfg.epsilon) \
            * series[2].numerator.values
        rng = np.random.default_rng(21 + dim)
        indices = [tuple(row) for row in rng.integers(0, 8, size=(5, dim))]
        nodes = np.array(
            [[grid.momentum_axis(ax)[idx[ax]] for ax in range(dim)]
             for idx in indices]
        )
        quad = quad_second_order(v, np.array(cfg.k_vec), nodes, cfg.epsilon)
        pipeline = np.array([full[idx] for idx in indices])
        scale = float(np.max(np.abs(pipeline)))
        quad_worst = max(
            quad_worst,
            float(np.max(np.abs(np.array([q.value for q in quad]) - pipeline)))
            / scale,
        )
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        points = rng.uniform(-2.5, 2.5, size=(5, dim))
        direct = slow_dft(noise, grid, points)
        fast = nudft_values(noise, grid, points)
        dft_worst = max(
            dft_worst,
            float(np.max(np.abs(direct - fast)) / np.max(np.abs(fast))),
        )
    elapsed = time.monotonic() - t0
    passed = quad_worst <= 1e-8 and dft_worst <= 1e-12
    report_line(
        capsys, 7, "brute-force oracle agreement", passed,
        f"order-2 quadrature {quad_worst:.2e} <= 1e-8, literal DFT "
        f"{dft_worst:.2e} <= 1e-12, {elapsed:.1f}s",
    )
    assert quad_worst <= 1e-8
    assert dft_worst <= 1e-12


def test_08_far_field_cross_validation(capsys):
    t0 = time.monotonic()
    from bornscat.oracle import asymptotic_fit

    grid = make_grid(2, (480.0, 480.0), (3072, 3072))
    k_probe = make_scatter_config(
        grid, 0.8, FAMILY2D, n_orders=1, eps_cells=1.5
    ).k
    spec = PotentialSpec(
        alpha=1.0, u=(1.0, 0.0), a=1.0, m=2,
        coupling=0.05 * k_probe**2, ell_y=2.0,
    )
    cfg = make_scatter_config(
        grid, 0.8, spec, n_orders=1, eps_cells=1.5, direction_count=16
    )
    v = sample_potential(spec, grid)
    solution = converged_solution(cfg, v, series_tol=1e-7, order_cap=16)
    replay = make_scatter_config(
        grid, 0.8, spec, n_orders=solution.order + 1, eps_cells=1.5
    )
    series = born_series(replay, v)
    k_eps = cmath.sqrt(cfg.k**2 + 1j * cfg.epsilon)
    fit = asymptotic_fit(
        solution.field, cfg.k_vec, 97.4, cfg.directions,
        fit_wavenumber=k_eps, radius_ratio=0.9,
    )
    c2 = amplitude_factor(2, cfg.k)
    reference_rows = np.zeros_like(fit.per_radius)
    for row in range(2):
        node_set = DirectionSet(k=cfg.k, unit_vectors=fit.node_directions[row])
        for term in series[1:]:
            reference_rows[row] += c2 * on_shell_numerator(
                term, cfg, directions=node_set
            ).values
    reference = reference_rows.mean(axis=0)
    worst = float(
        np.max(np.abs(fit.values - reference)) / np.max(np.abs(reference))
    )
    elapsed = time.monotonic() - t0
    passed = worst <= 0.05
    report_line(
        capsys, 8, "far-field amplitude cross-validation", passed,
        f"weak-coupling fit vs on-shell sum: worst direction {worst:.1%} "
        f"of peak (<= 5%), series order {solution.order + 1}, {elapsed:.1f}s",
    )
    assert worst <= 0.05


def test_09_electromagnetic_exactness(capsys):
    t0 = time.monotonic()
    grid = make_grid(3, (14.0, 6.0, 6.0), (48, 48, 48))
    materials = material_from_scalar(FAMILY3D, grid, which="eps")
    low_cfg = make_scatter_config(grid, 0.45, FAMILY3D, n_orders=3)
    low = verify_em_exactness(low_cfg, em_born_series(low_cfg, materials), tol=1e-2)
    high_cfg = make_scatter_config(grid, 0.8, FAMILY3D, n_orders=3)
    high = verify_em_exactness(high_cfg, em_born_series(high_cfg, materials), tol=1e-2)
    first = high.check_for(1).ratio
    # kernel orthogonality: the curl part of the output is orthogonal to p
    kgrid = make_grid(3, (8.0, 8.0, 8.0), (8, 8, 8))
    rng = np.random.default_rng(5)
    w_vals = rng.standard_normal((6,) + kgrid.shape) \
        + 1j * rng.standard_normal((6,) + kgrid.shape)
    w_vals[:3] = 0.0
    out = em_kernel_apply(w_vals, kgrid, 0.9)
    mesh = kgrid.momentum_mesh()
    dot = sum(mesh[i] * out[i] for i in range(3))
    ortho = float(np.max(np.abs(dot)) / np.max(np.abs(out[:3])))
    # blockwise first-order identity against the scalar spectrum
    bgrid = make_grid(3, (14.0, 6.0, 6.0), (32, 16, 16))
    bmats = material_from_scalar(FAMILY3D, bgrid, which="eps")
    bcfg = make_scatter_config(bgrid, 0.8, FAMILY3D, n_orders=1)
    e0 = default_polarization(bcfg.k_hat, bcfg.u)
    em1 = em_born_series(bcfg, bmats, e0=e0)[1].numerator.values
    m1 = born_series(bcfg, sample_potential(FAMILY3D, bgrid))[1].numerator.values
    bmesh = bgrid.momentum_mesh()
    p_dot_e0 = sum(bmesh[i] * e0[i] for i in range(3))
    cross = [
        bmesh[1] * e0[2] - bmesh[2] * e0[1],
        bmesh[2] * e0[0] - bmesh[0] * e0[2],
        bmesh[0] * e0[1] - bmesh[1] * e0[0],
    ]
    blockwise = 0.0
    scale = float(np.max(np.abs(em1)))
    for i in range(3):
        want_e = (-bcfg.k**2 * e0[i] + bmesh[i] * p_dot_e0) * m1
        want_h = -bcfg.k * cross[i] * m1
        blockwise = max(
            blockwise,
            float(np.max(np.abs(em1[i] - want_e))) / scale,
            float(np.max(np.abs(em1[3 + i] - want_h))) / scale,
        )
    elapsed = time.monotonic() - t0
    passed = (
        low.exact_order == 0
        and low.passed
        and high.exact_order == 1
        and high.passed
        and first >= 1e-3
        and ortho <= 1e-12
        and blockwise <= 1e-12
        and elapsed <= 300.0
    )
    report_line(
        capsys, 9, "electromagnetic exactness", passed,
        f"below-threshold worst {max(c.ratio for c in low.checks):.2e}, "
        f"order-1 signal {first:.2e}, orders 2..3 worst "
        f"{max(high.check_for(n).ratio for n in (2, 3)):.2e}, kernel "
        f"orthogonality {ortho:.1e}, blockwise {blockwise:.1e}, {elapsed:.1f}s",
    )
    assert low.exact_order == 0 and low.passed, low.to_dict()
    assert high.exact_order == 1 and high.passed, high.to_dict()
    assert first >= 1e-3
    assert ortho <= 1e-12
    assert blockwise <= 1e-12
    assert elapsed <= 300.0


def test_10_homogeneity_and_determinism(capsys, tmp_path):
    grid = make_grid(2, (60.0, 60.0), (256, 256))
    cfg = make_scatter_config(grid, 0.8, FAMILY2D, n_orders=3)
    v = sample_potential(FAMILY2D, grid)
    base = born_series(cfg, v)
    c = 1.3 - 0.7j
    scaled = born_series(cfg, SampledField(grid, c * v.values, v.box))
    homogeneity = 0.0
    for n in (1, 2, 3):
        ref = float(np.max(np.abs(base[n].numerator.values)))
        diff = float(
            np.max(np.abs(scaled[n].numerator.values
                          - c**n * base[n].numerator.values))
        )
        homogeneity = max(homogeneity, diff / (abs(c) ** n * ref))
    config = {
        "schema_version": 1,
        "mode": "scalar2d",
        "potential": {
            "alpha": 1.0, "u": [1.0, 0.0], "a": 1.0, "m": 2,
            "coupling": {"re": 1.0, "im": 0.0}, "ell_y": 2.0,
        },
        "k_sweep": [0.8],
        "grid": {"extents": [60.0, 60.0], "counts": [256, 256]},
        "n_orders": 2,
        "tol": 1e-2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    assert cli.main(
        ["run", "--config", str(config_path), "--out", str(first_dir)]
    ) == 0
    assert cli.main(
        ["run", "--config", str(config_path), "--out", str(second_dir)]
    ) == 0
    names = sorted(p.name for p in first_dir.iterdir())
    identical = names == sorted(p.name for p in second_dir.iterdir()) and all(
        (first_dir / n).read_bytes() == (second_dir / n).read_bytes()
        for n in names
    )
    passed = homogeneity <= 1e-12 and identical
    report_line(
        capsys, 10, "homogeneity and determinism", passed,
        f"order-n scaling error {homogeneity:.1e} <= 1e-12, reruns "
        f"byte-identical across {len(names)} artifacts",
    )
    assert homogeneity <= 1e-12
    assert identical
