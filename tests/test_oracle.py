"""Tests for the brute-force reference implementations."""

import cmath
import math
import re
import warnings
from functools import partial
from itertools import islice

import numpy as np
import pytest

from bornscat.em import (
    default_polarization,
    em_born_series,
    incident_six_field,
    material_from_entries,
    material_from_scalar,
)
from bornscat.grids import (
    DirectionSet,
    SampledField,
    fft_values,
    make_grid,
    nudft_values,
    plane_wave,
    sphere_directions,
)
from bornscat.oracle import (
    QUAD_MAX_NODES_PER_AXIS,
    SeriesConvergenceError,
    asymptotic_fit,
    converged_solution,
    em_quad_second_order,
    quad_second_order,
    slow_dft,
)
from bornscat.potentials import PotentialSpec, sample_potential
from bornscat.scalar import (
    born_orders,
    born_series,
    born_step,
    green_factor,
    incident_term,
    make_scatter_config,
)

pytestmark = pytest.mark.filterwarnings("ignore:potential magnitude")


def replay_orders(config, v_field):
    """Orders 0..n_orders as converged_solution computes them, one term at a
    time: each field on the whole grid."""
    step = partial(born_step, whole_grid=True)
    orders = born_orders(incident_term(config), step, v_field, config)
    return islice(orders, config.n_orders + 1)


def toy_grid(dim):
    return make_grid(dim, (8.0,) * dim, (8,) * dim)


def toy_spec(dim, coupling=1.0):
    kwargs = {"ell_z": 2.0} if dim == 3 else {}
    return PotentialSpec(
        alpha=1.0, u=(1.0,) + (0.0,) * (dim - 1), a=1.0, m=2,
        coupling=coupling, ell_y=2.0, **kwargs,
    )


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals)


class TestSlowDft:
    def test_matches_fft_values_at_all_nodes(self):
        grid = toy_grid(2)
        field = random_field(grid)
        axes = [grid.momentum_axis(i) for i in range(2)]
        nodes = np.array([[axes[0][i], axes[1][j]] for i in range(8) for j in range(8)])
        got = slow_dft(field.values, grid, nodes).reshape(8, 8)
        want = fft_values(field.values, grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_field(self):
        grid = toy_grid(2)
        np.testing.assert_array_equal(slow_dft(np.zeros(grid.shape), grid, [[0.3, -1.2]]), [0.0])

    def test_random_points_match_nudft(self):
        grid = toy_grid(2)
        field = random_field(grid, seed=5)
        rng = np.random.default_rng(11)
        points = rng.uniform(-3.0, 3.0, size=(5, 2))
        got = slow_dft(field.values, grid, points)
        want = nudft_values(field.values, grid, points)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_wrong_point_width(self):
        grid = toy_grid(2)
        with pytest.raises(ValueError, match="components"):
            slow_dft(random_field(grid).values, grid, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(8, 6), (8, 8, 8), (6, 8, 8)])
    def test_rejects_values_that_do_not_fill_the_grid(self, shape):
        # the message of nudft_values over the whole grid
        message = f"values of shape {shape} do not fill the box (8, 8)"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            slow_dft(np.zeros(shape), toy_grid(2), [[0.0, 0.0]])
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            nudft_values(np.zeros(shape), toy_grid(2), [[0.0, 0.0]])


def pipeline_second_order(grid, spec, k_req=0.9):
    """Transform of the order-2 term at every momentum node."""
    cfg = make_scatter_config(grid, k_req, spec, n_orders=2)
    series = born_series(cfg, sample_potential(spec, grid))
    propagator = green_factor(grid.momentum_sq, cfg.k, cfg.epsilon)
    return cfg, propagator * series[2].numerator.values


class TestQuadSecondOrder:
    def test_zero_interaction(self):
        grid = toy_grid(2)
        zero = SampledField(grid, np.zeros(grid.shape))
        results = quad_second_order(zero, np.array([-0.9, 0.0]), [[0.5, 0.5]], 0.3)
        assert results[0].value == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_pipeline_at_nodes(self, dim):
        grid = toy_grid(dim)
        spec = toy_spec(dim)
        cfg, pipe = pipeline_second_order(grid, spec)
        rng = np.random.default_rng(2)
        nodes = [tuple(rng.integers(0, 8, size=dim)) for _ in range(5)]
        axes = [grid.momentum_axis(i) for i in range(dim)]
        points = np.array([[axes[i][n[i]] for i in range(dim)] for n in nodes])
        results = quad_second_order(
            sample_potential(spec, grid), cfg.k_vec, points, cfg.epsilon
        )
        for result, node in zip(results, nodes):
            assert result.order == 2
            rel = abs(result.value - pipe[node]) / abs(pipe[node])
            assert rel <= 1e-8

    def test_doubling_the_interaction_quadruples(self):
        grid = toy_grid(2)
        spec = toy_spec(2)
        v = sample_potential(spec, grid)
        v2 = SampledField(grid, 2.0 * v.values, v.box)
        k_vec = np.array([-0.9, 0.0])
        point = [[0.785, -0.785]]
        single = quad_second_order(v, k_vec, point, 0.3)[0].value
        double = quad_second_order(v2, k_vec, point, 0.3)[0].value
        np.testing.assert_allclose(double / single, 4.0, rtol=1e-12)

    def test_refuses_large_grids(self):
        grid = make_grid(2, (8.0, 8.0), (18, 18))
        zero = SampledField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="capped"):
            quad_second_order(zero, np.array([-0.9, 0.0]), [[0.0, 0.0]], 0.3)
        assert QUAD_MAX_NODES_PER_AXIS == 16

    def test_rejects_bad_eps_and_k(self):
        grid = toy_grid(2)
        zero = SampledField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="eps"):
            quad_second_order(zero, np.array([-0.9, 0.0]), [[0.0, 0.0]], 0.0)
        with pytest.raises(ValueError, match="components"):
            quad_second_order(zero, np.array([-0.9, 0.0, 0.0]), [[0.0, 0.0]], 0.3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_infinite_eps_before_the_quadrature(self):
        grid = toy_grid(2)
        v = sample_potential(toy_spec(2), grid)
        with pytest.raises(ValueError, match="eps = inf must be positive and finite"):
            quad_second_order(v, np.array([-0.9, 0.0]), [[0.785, 0.0]], np.inf)

    def test_report_dict_carries_oracle_marker(self):
        grid = toy_grid(2)
        spec = toy_spec(2)
        result = quad_second_order(
            sample_potential(spec, grid), np.array([-0.9, 0.0]), [[0.785, 0.0]], 0.3
        )[0]
        payload = result.to_dict()
        assert payload["oracle"] is True
        assert payload["order"] == 2
        assert payload["grid_shape"] == [8, 8]
        assert len(payload["value_re"]) == len(payload["value_im"]) == 1


def em_oracle_errors(materials, cfg, nodes):
    """Relative oracle-vs-pipeline error of the order-2 term at grid nodes."""
    grid = materials.grid
    e0 = default_polarization(cfg.k_hat, cfg.u)
    series = em_born_series(cfg, materials, e0=e0)
    propagator = green_factor(grid.momentum_sq, cfg.k, cfg.epsilon)
    axes = [grid.momentum_axis(i) for i in range(3)]
    points = np.array([[axes[i][n[i]] for i in range(3)] for n in nodes])
    results = em_quad_second_order(
        materials, cfg.k_vec, incident_six_field(e0, cfg.k_hat),
        points, cfg.epsilon,
    )
    errors = []
    for result, node in zip(results, nodes):
        assert result.value.shape == (6,)
        ref = propagator[node] * series[2].numerator.values[(slice(None),) + node]
        errors.append(np.max(np.abs(result.value - ref)) / np.max(np.abs(ref)))
    return errors


class TestEmQuadSecondOrder:
    def test_matches_em_pipeline_at_nodes(self):
        grid = toy_grid(3)
        spec = toy_spec(3)
        cfg = make_scatter_config(grid, 0.9, spec, n_orders=2)
        materials = material_from_scalar(spec, grid, which="eps")
        errors = em_oracle_errors(materials, cfg, [(1, 3, 2), (5, 2, 7)])
        assert max(errors) <= 1e-6

    def test_matches_em_pipeline_anisotropic_magnetic(self):
        # distinct entries in both tensors: an oracle cache that confuses
        # one tensor entry with another shows up here, not in the
        # isotropic case where all diagonal entries are equal
        grid = toy_grid(3)
        spec = toy_spec(3)
        cfg = make_scatter_config(grid, 0.9, spec, n_orders=2)
        entry = lambda coupling: toy_spec(3, coupling=coupling)  # noqa: E731
        materials = material_from_entries(
            grid,
            eps_entries={
                (0, 0): entry(1.0), (1, 1): entry(0.8), (2, 2): entry(0.6),
                (0, 1): entry(0.3 + 0.1j), (1, 0): entry(0.3 - 0.1j),
            },
            mu_entries={(1, 1): entry(0.5), (2, 1): entry(0.2 + 0.2j)},
        )
        errors = em_oracle_errors(materials, cfg, [(2, 0, 1), (7, 6, 3)])
        assert max(errors) <= 1e-6

    def test_rejects_bad_psi0(self):
        grid = toy_grid(3)
        materials = material_from_scalar(toy_spec(3), grid, which="eps")
        with pytest.raises(ValueError, match="psi0 must be a vector of 6 components"):
            em_quad_second_order(
                materials, np.array([-0.9, 0.0, 0.0]), np.ones(3),
                [[0.0, 0.0, 0.0]], 0.3,
            )


class TestConvergedSolution:
    def test_zero_coupling_returns_incident_at_order_zero(self):
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        spec = toy_spec(2)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        zero = SampledField(grid, np.zeros(grid.shape))
        solution = converged_solution(cfg, zero, series_tol=1e-10)
        assert solution.order == 0
        assert solution.increments[-1] == 0.0
        np.testing.assert_array_equal(
            solution.field.values, plane_wave(grid, cfg.k_vec)
        )

    def test_weak_coupling_converges_quickly(self):
        grid = make_grid(2, (60.0, 60.0), (256, 256))
        probe = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        spec = toy_spec(2, coupling=0.05 * probe.k**2)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        solution = converged_solution(cfg, sample_potential(spec, grid),
                                      series_tol=1e-8)
        assert solution.order <= 8
        # increments shrink geometrically once the series settles
        inc = solution.increments
        assert all(b < a for a, b in zip(inc[1:], inc[2:]))
        assert solution.increments[-1] < 1e-8

    def test_sum_equals_term_sum(self):
        grid = make_grid(2, (60.0, 60.0), (128, 128))
        probe = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        spec = toy_spec(2, coupling=0.05 * probe.k**2)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        v = sample_potential(spec, grid)
        solution = converged_solution(cfg, v, series_tol=1e-8)
        replay = make_scatter_config(grid, 0.8, spec,
                                     n_orders=solution.order + 1)
        # each field is read as it arrives, before the next order drops it
        total = sum(t.field for t in replay_orders(replay, v))
        np.testing.assert_allclose(solution.field.values, total,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [128, 512])
    def test_running_sum_is_bit_identical(self, pool_workers, n):
        grid = make_grid(2, (60.0, 60.0), (n, n))
        probe = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        spec = toy_spec(2, coupling=0.05 * probe.k**2)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        v = sample_potential(spec, grid)
        solution = converged_solution(cfg, v, series_tol=1e-6)
        replay = make_scatter_config(grid, 0.8, spec, n_orders=solution.order + 1)
        orders = replay_orders(replay, v)
        total = np.array(next(orders).field, copy=True)
        for term in orders:
            total += term.field
        assert solution.field.values.tobytes() == total.tobytes()

    def test_strong_coupling_raises(self):
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        spec = toy_spec(2, coupling=1e8)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        with pytest.raises(SeriesConvergenceError, match="strong"):
            converged_solution(cfg, sample_potential(spec, grid))

    def test_order_cap_respected(self):
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        spec = toy_spec(2)
        cfg = make_scatter_config(grid, 0.8, spec, n_orders=1)
        with pytest.raises(SeriesConvergenceError) as excinfo:
            converged_solution(cfg, sample_potential(spec, grid),
                               series_tol=1e-30, order_cap=3)
        assert excinfo.value.order_cap == 3

    def test_validation(self):
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        cfg = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        zero = SampledField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="series_tol"):
            converged_solution(cfg, zero, series_tol=0.0)
        with pytest.raises(ValueError, match="order_cap"):
            converged_solution(cfg, zero, order_cap=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_nan_series_tol(self):
        # no increment is below nan, so the sum would run to the order cap
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        cfg = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        zero = SampledField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="series_tol = nan must be positive and finite"):
            converged_solution(cfg, zero, series_tol=np.nan)


def synthetic_outgoing(grid, k_vec, pattern, wavenumber):
    """Plane wave plus an exactly outgoing wave with angular pattern."""
    mesh = grid.position_mesh()
    radius = np.sqrt(sum(x * x for x in mesh))
    radius = np.maximum(radius, 1e-9)
    angle = np.arctan2(np.broadcast_to(mesh[1], grid.shape),
                       np.broadcast_to(mesh[0], grid.shape))
    out = pattern(angle) * np.exp(1j * wavenumber * radius) / np.sqrt(radius)
    return SampledField(grid, plane_wave(grid, k_vec) + out)


def whole_grid_per_radius(psi, k_vec, radii, directions):
    # asymptotic_fit's amplitudes, read off the full-grid residual
    grid = psi.grid
    k = float(np.linalg.norm(k_vec))
    residual = psi.values - plane_wave(grid, k_vec)
    axes = [grid.position_axis(i) for i in range(grid.dim)]
    out = np.zeros((2, len(directions)), dtype=complex)
    for row, radius in enumerate(radii):
        for col, u in enumerate(directions):
            idx = tuple(
                int(np.clip(round((radius * u[i] + 0.5 * grid.extents[i]) / grid.spacing[i]),
                            0, grid.counts[i] - 1))
                for i in range(grid.dim)
            )
            x_node = np.array([axes[i][idx[i]] for i in range(grid.dim)])
            r_node = float(np.linalg.norm(x_node))
            outgoing = np.exp(1j * k * r_node) / r_node ** (0.5 * (grid.dim - 1))
            out[row, col] = residual[idx] / outgoing
    return out


ALONG_X = DirectionSet(k=0.8, unit_vectors=[[1.0, 0.0]])
AXES = DirectionSet(k=0.8, unit_vectors=[[1.0, 0.0], [0.0, 1.0]])


class TestAsymptoticFit:
    def grid(self):
        return make_grid(2, (100.0, 100.0), (512, 512))

    @pytest.mark.filterwarnings("ignore:amplitude estimates")  # random psi is not outgoing
    @pytest.mark.parametrize("dim", [2, 3])
    def test_reads_the_incident_wave_only_at_fit_nodes(self, dim):
        grid = make_grid(dim, (20.0,) * dim, (32,) * dim)
        k_vec = np.array([-0.73, 0.41, 0.2][:dim])
        psi = random_field(grid, seed=dim)
        dirs = sphere_directions(dim, 1.0, 12, -k_vec)
        fit = asymptotic_fit(psi, k_vec, 7.0, dirs)
        want = whole_grid_per_radius(psi, k_vec, fit.radii, fit.directions)
        assert fit.per_radius.tobytes() == want.tobytes()

    def test_recovers_constant_amplitude_exactly(self):
        grid = self.grid()
        k_vec = np.array([-0.8, 0.0])
        psi = synthetic_outgoing(grid, k_vec, lambda ang: 2.0 - 0.5j, 0.8)
        dirs = DirectionSet(k=0.8, unit_vectors=np.array(
            [[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 9)[:-1]]))
        fit = asymptotic_fit(psi, k_vec, 30.0, dirs)
        np.testing.assert_allclose(fit.values, 2.0 - 0.5j, rtol=1e-12)
        assert fit.spread <= 1e-12

    def test_recovers_angular_pattern_at_node_directions(self):
        grid = self.grid()
        k_vec = np.array([-0.8, 0.0])
        pattern = lambda ang: 1.0 + 0.5 * np.cos(ang)
        psi = synthetic_outgoing(grid, k_vec, pattern, 0.8)
        dirs = DirectionSet(k=0.8, unit_vectors=[[0.0, 1.0], [1.0, 0.0]])
        fit = asymptotic_fit(psi, k_vec, 30.0, dirs)
        for row in range(2):
            angles = np.arctan2(fit.node_directions[row, :, 1],
                                fit.node_directions[row, :, 0])
            np.testing.assert_allclose(fit.per_radius[row], pattern(angles),
                                       rtol=1e-12)

    def test_complex_wavenumber_compensates_damping(self):
        grid = self.grid()
        k_vec = np.array([-0.8, 0.0])
        k_damped = cmath.sqrt(0.64 + 0.05j)
        psi = synthetic_outgoing(grid, k_vec, lambda ang: 1.5 + 0.5j, k_damped)
        dirs = DirectionSet(k=0.8, unit_vectors=np.array([[2.0, 1.0]]) / np.sqrt(5.0))
        fit = asymptotic_fit(psi, k_vec, 30.0, dirs, fit_wavenumber=k_damped)
        np.testing.assert_allclose(fit.values, 1.5 + 0.5j, rtol=1e-12)

    def test_zero_interaction_gives_zero_amplitudes(self):
        grid = make_grid(2, (60.0, 60.0), (128, 128))
        cfg = make_scatter_config(grid, 0.8, toy_spec(2), n_orders=1)
        zero = SampledField(grid, np.zeros(grid.shape))
        solution = converged_solution(cfg, zero, series_tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = asymptotic_fit(solution.field, cfg.k_vec, 20.0, AXES)
        np.testing.assert_array_equal(fit.values, 0.0)
        assert fit.spread == 0.0

    def test_below_threshold_family_scatters_far_less_than_gaussian(self):
        # below half the support threshold the family's far field is
        # indistinguishable from leakage, while a two-sided bump of the
        # same strength scatters at full strength
        grid = make_grid(2, (240.0, 240.0), (1536, 1536))
        probe = make_scatter_config(grid, 0.45, toy_spec(2), n_orders=1,
                                    eps_cells=1.5)
        zeta = 0.05 * probe.k**2
        spec = toy_spec(2, coupling=zeta)
        cfg = make_scatter_config(grid, 0.45, spec, n_orders=1,
                                  eps_cells=1.5, direction_count=16)
        k_eps = cmath.sqrt(cfg.k**2 + 1j * cfg.epsilon)

        sol = converged_solution(cfg, sample_potential(spec, grid),
                                 series_tol=1e-9, order_cap=16)
        with pytest.warns(UserWarning, match="far field"):
            fit = asymptotic_fit(sol.field, cfg.k_vec, 48.0, cfg.directions,
                                 fit_wavenumber=k_eps)

        mesh = grid.position_mesh()
        r_sq = sum(x * x for x in mesh)
        gauss = SampledField(grid, zeta * np.exp(-r_sq / 4.5))
        sol_g = converged_solution(cfg, gauss, series_tol=1e-9, order_cap=16)
        fit_g = asymptotic_fit(sol_g.field, cfg.k_vec, 48.0, cfg.directions,
                               fit_wavenumber=k_eps)

        family_max = np.max(np.abs(fit.values))
        gauss_max = np.max(np.abs(fit_g.values))
        assert family_max <= 1e-2 * gauss_max

    def test_warns_when_not_outgoing(self):
        grid = self.grid()
        k_vec = np.array([-0.8, 0.0])
        mesh = grid.position_mesh()
        radius = np.maximum(np.sqrt(sum(x * x for x in mesh)), 1e-9)
        near = SampledField(grid, plane_wave(grid, k_vec) + 1.0 / radius**2)
        with pytest.warns(UserWarning, match="far field"):
            asymptotic_fit(near, k_vec, 30.0, ALONG_X)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_wave_vector_of_no_finite_length(self):
        # |k_vec| overflows to inf: reported as such, with no overflow warning first
        grid = self.grid()
        psi = SampledField(grid, plane_wave(grid, np.array([-0.8, 0.0])))
        with pytest.raises(ValueError, match=r"^\|k_vec\| = inf must be positive and finite$"):
            asymptotic_fit(psi, np.array([1e308, 1e308]), 30.0, ALONG_X)

    @pytest.mark.parametrize("wavenumber", [1000j, -1000j, 0.8 + 35.5j, 0.8 - 35.5j])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_wavenumber_whose_outgoing_factor_leaves_the_float_range(self, wavenumber):
        # exp(i k r) at r = 20 overflows for -1000j and underflows to zero for
        # 1000j, a nan amplitude; |Im k| r = 710 is just beyond the range
        grid = make_grid(2, (64.0, 64.0), (64, 64))
        k_vec = np.array([-0.8, 0.0])
        psi = SampledField(grid, plane_wave(grid, k_vec))
        with pytest.raises(ValueError, match=f"^fit_wavenumber = {re.escape(str(wavenumber))} "
                                             r"takes exp\(i k r\) out of the float range "
                                             r"at the fit node radius 20: \|Im k\| r must "
                                             r"be at most 708.396$"):
            asymptotic_fit(psi, k_vec, 20.0, ALONG_X, fit_wavenumber=wavenumber)
        # within the range the fit runs, and the zero residual gives zero amplitudes
        inside = complex(wavenumber.real, wavenumber.imag * 700 / abs(wavenumber.imag) / 20)
        fit = asymptotic_fit(psi, k_vec, 20.0, ALONG_X, fit_wavenumber=inside)
        np.testing.assert_array_equal(fit.values, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_validation(self):
        grid = self.grid()
        k_vec = np.array([-0.8, 0.0])
        psi = SampledField(grid, plane_wave(grid, k_vec))
        with pytest.raises(ValueError, match="^fit radius 49.99 does not fit inside the box"):
            asymptotic_fit(psi, k_vec, 49.99, ALONG_X)
        for radius in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError,
                               match=f"^fit_radius = {radius} must be positive and finite$"):
                asymptotic_fit(psi, k_vec, radius, ALONG_X)
        for wavenumber in (math.nan, math.inf, complex(0.8, math.inf), complex(math.nan, 0.1)):
            with pytest.raises(ValueError, match=f"^fit_wavenumber = {re.escape(str(wavenumber))} "
                                                 "must be finite$"):
                asymptotic_fit(psi, k_vec, 30.0, ALONG_X, fit_wavenumber=wavenumber)
        with pytest.raises(ValueError, match="^directions must be rows of 2 components, "
                                             "psi's grid's$"):
            asymptotic_fit(psi, k_vec, 30.0, DirectionSet(k=0.8, unit_vectors=[[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"k_vec must be a vector of 2 components, all "
                                             r"finite; got shape \(2,\)"):
            asymptotic_fit(psi, np.array([np.nan, 0.0]), 30.0, ALONG_X)
        with pytest.raises(ValueError, match="radius_ratio"):
            asymptotic_fit(psi, k_vec, 30.0, ALONG_X, radius_ratio=1.0)
        with pytest.raises(ValueError, match="components"):
            asymptotic_fit(psi, np.array([-0.8, 0.0, 0.0]), 30.0, ALONG_X)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_six_vector_field(self):
        grid = make_grid(2, (16.0, 16.0), (16, 16))
        six = SampledField(grid, np.ones((6,) + grid.shape))
        with pytest.raises(ValueError, match=r"^psi must hold one value per node, shape "
                                             r"\(16, 16\); got shape \(6, 16, 16\)$"):
            asymptotic_fit(six, np.array([-0.8, 0.0]), 4.0, ALONG_X)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_fit_node_at_the_origin(self):
        # 0.3 and 0.27 both round to the center node of a 16-cell, 16-long box,
        # where the outgoing factor's 1 / r would turn every amplitude to nan
        grid = make_grid(2, (16.0, 16.0), (16, 16))
        k_vec = np.array([-0.8, 0.0])
        psi = SampledField(grid, plane_wave(grid, k_vec))
        with pytest.raises(ValueError, match="^fit_radius = 0.3 with radius_ratio = 0.9 puts "
                                             "a fit node at the origin, where r = 0$"):
            asymptotic_fit(psi, k_vec, 0.3, AXES)
