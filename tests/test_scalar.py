"""Born-engine tests.

Grid sizes here are kept small enough for sub-second runs; the expected
ratios were measured on these exact configurations and hold with wide
margins (the forbidden-region numbers are orders of magnitude below the
tolerances asserted).
"""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from bit_identity import GRID_SHAPES, assert_same_bits, random_values

from bornscat import grids, scalar
from bornscat.grids import (
    NonFiniteError,
    SampledField,
    Space,
    fft_values,
    forward_ft,
    ifft_values,
    make_grid,
    nudft,
    sphere_directions,
)
from bornscat.potentials import (
    PotentialSpec,
    PotentialSum,
    potential_spectrum,
    sample_potential,
)
from bornscat.scalar import (
    BornTerm,
    DivergenceError,
    OnShellRecord,
    ScatterConfig,
    amplitude_factor,
    born_orders,
    born_series,
    born_step,
    born_term,
    exactness_order,
    green_factor,
    incident_term,
    make_scatter_config,
    on_shell_numerator,
    propagate,
    verify_convolution_support,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
    write_on_shell_csv,
)


def family(dim=2, **overrides):
    params = dict(alpha=1.0, a=1.0, m=2, coupling=1.0, ell_y=2.0)
    if dim == 2:
        params["u"] = (1.0, 0.0)
    else:
        params.update(u=(1.0, 0.0, 0.0), ell_z=2.0)
    params.update(overrides)
    return PotentialSpec(**params)


def standard_setup(n=256, k=0.8, n_orders=None, L=60.0):
    spec = family()
    grid = make_grid(2, (L, L), (n, n))
    v = sample_potential(spec, grid)
    cfg = make_scatter_config(grid, k, spec, n_orders=n_orders)
    return spec, grid, v, cfg


class TestGreenFactor:
    def test_at_origin(self):
        assert green_factor(0.0, 1.0, 0.01) == pytest.approx(1.0 / (1.0 + 0.01j))

    def test_on_shell_pole(self):
        assert green_factor(1.0, 1.0, 0.05) == pytest.approx(1.0 / 0.05j)

    def test_far_off_shell(self):
        assert green_factor(2.0, 1.0, 1e-9) == pytest.approx(-1.0, abs=1e-8)

    def test_array_input(self):
        p_sq = np.array([0.0, 1.0, 4.0])
        out = green_factor(p_sq, 1.0, 0.1)
        assert out.shape == (3,)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            green_factor(0.0, 1.0, 0.0)


def config_of(counts, n_orders=2):
    grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
    u = (1.0,) + (0.0,) * (grid.dim - 1)
    # alpha at least one momentum cell along u (1.06 for 16 nodes); with
    # n_orders given, it sets nothing else these tests read
    return make_scatter_config(grid, 2.0, u=u, alpha=2.5, n_orders=n_orders)


def single_threaded_green_factor(p_sq, k, eps):
    return 1.0 / (k * k - np.asarray(p_sq) + 1j * eps)


def single_threaded_propagate(numerator_values, config):
    # the propagator bound to a name, so numpy multiplies in the order G * M
    propagator = single_threaded_green_factor(
        config.grid.momentum_sq, config.k, config.epsilon
    )
    return ifft_values(propagator * numerator_values, config.grid)


class TestThreadedStep:
    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_green_factor(self, pool_workers, counts):
        cfg = config_of(counts)
        p_sq = cfg.grid.momentum_sq
        before = p_sq.copy()
        assert_same_bits(
            green_factor(p_sq, cfg.k, cfg.epsilon),
            single_threaded_green_factor(p_sq, cfg.k, cfg.epsilon),
        )
        assert np.array_equal(p_sq, before), "input was modified"

    def test_green_factor_of_a_scalar_stays_a_scalar(self):
        got = green_factor(np.float64(0.3), 1.0, 0.01)
        want = single_threaded_green_factor(np.float64(0.3), 1.0, 0.01)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_born_step(self, pool_workers, counts):
        cfg = config_of(counts)
        grid = cfg.grid
        v = SampledField(grid, random_values(counts, 1), Space.POSITION)
        prev = BornTerm(0, SampledField(grid, random_values(counts, 2), Space.POSITION))
        v_before, prev_before = v.values.copy(), prev.field.values.copy()
        term = born_step(prev, v, cfg)
        source = v.values * prev.field.values
        assert_same_bits(term.source.values, source)
        numerator = fft_values(source, grid)
        assert_same_bits(term.numerator.values, numerator)
        assert_same_bits(term.field.values, single_threaded_propagate(numerator, cfg))
        assert np.array_equal(v.values, v_before), "interaction was modified"
        assert np.array_equal(prev.field.values, prev_before), "term was modified"

    @staticmethod
    def diverge_at(order, bad):
        """The DivergenceError of a series whose step returns ones, but `bad`
        in the last node at `order`: untransformed, so the one bad node sits
        in the last pool block."""
        grid = config_of((512, 512)).grid

        def step(prev):
            values = np.ones(grid.shape, dtype=complex)
            if prev.order + 1 == order:
                values[-1, -1] = bad
            field = SampledField(grid, values, Space.POSITION)
            return BornTerm(prev.order + 1, field, field, field)

        first = BornTerm(0, SampledField(grid, np.ones(grid.shape), Space.POSITION))
        with pytest.raises(DivergenceError) as info:
            list(islice(born_orders(first, step), 4))
        assert info.value.order == order
        return info.value

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("reference", [None, 1.0])
    def test_guard_sees_nonfinite_in_the_last_block(self, pool_workers, bad, reference):
        # no reference at order 1; at order 2 the order-1 field max, 1.0
        err = self.diverge_at(1 if reference is None else 2, bad)
        assert err.reference == reference and err.magnitude == math.inf
        assert "not finite" in str(err)

    def test_guard_sees_a_runaway_value_in_the_last_block(self, pool_workers):
        err = self.diverge_at(2, 1e13)
        assert err.reference == 1.0 and err.magnitude == 1e13
        assert "exceeds 1e+12 x first-order scale 1.000e+00" in str(err)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_numerator_diverges_at_order_one(self, pool_workers, bad):
        cfg = config_of((512, 512))
        source = SampledField(cfg.grid, random_values(cfg.grid.shape), Space.POSITION)
        numerator = random_values(cfg.grid.shape)
        numerator[-1, -1] = bad

        def step(prev):
            return born_term(prev, cfg, source, lambda values: numerator)

        with pytest.raises(DivergenceError, match="not finite") as info:
            list(islice(born_orders(incident_term(cfg), step), 2))
        assert info.value.order == 1 and info.value.reference is None
        assert info.value.magnitude == math.inf

    def test_a_step_called_directly_raises_nonfinite_error(self):
        cfg = config_of((16, 10))
        v = SampledField(cfg.grid, np.full(cfg.grid.shape, 1e300), Space.POSITION)
        prev = BornTerm(0, v)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            born_step(prev, v, cfg)


class TestAllocations:
    """Peak traced memory of one propagation and one step on a 1024^2 grid.

    tracemalloc sees numpy's array buffers.  The peak counts what a call
    allocates and still holds on return (its result) as well as what it
    frees before, so a step's peak is its three kept arrays (source,
    numerator and field) plus block temporaries.
    """

    counts = (1024, 1024)

    @staticmethod
    def peak_bytes(fn, *args):
        fn(*args)  # first use fills caches (momentum_sq, the pool) a call does not own
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("lead,bound", [((), 2.0), ((6,), 1.5)], ids=["one", "six"])
    def test_propagate_reuses_the_propagator_buffer(self, lead, bound):
        # G * M goes into G (one component) or one new array (six), and the
        # inverse transform runs in place: no third full-size array
        cfg = config_of(self.counts)
        numerator = random_values(lead + self.counts)
        assert self.peak_bytes(propagate, numerator, cfg) < bound * numerator.nbytes

    def test_born_step_keeps_three_arrays(self):
        cfg = config_of(self.counts)
        grid = cfg.grid
        v = SampledField(grid, random_values(self.counts, 1), Space.POSITION)
        prev = BornTerm(0, SampledField(grid, random_values(self.counts, 2), Space.POSITION))
        assert self.peak_bytes(born_step, prev, v, cfg) < 4 * prev.field.values.nbytes


class TestExactnessOrder:
    @pytest.mark.parametrize(
        "k,alpha,expected",
        [(0.4, 1.0, 0), (0.999, 1.0, 1), (1.0, 1.0, 2), (1.5, 1.0, 3), (0.6, 2.0, 0)],
    )
    def test_values(self, k, alpha, expected):
        assert exactness_order(k, alpha) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exactness_order(0.0, 1.0)
        with pytest.raises(ValueError):
            exactness_order(1.0, -1.0)


class TestMakeConfig:
    def test_defaults(self):
        spec, grid, v, cfg = standard_setup(k=0.45)
        dp = grid.momentum_spacing[0]
        # incident direction opposes u; the magnitude snaps to the lattice
        assert cfg.k == pytest.approx(4 * dp)
        np.testing.assert_allclose(cfg.k_hat, (-1.0, 0.0), atol=1e-15)
        assert cfg.epsilon == pytest.approx(2.0 * cfg.k * dp)
        assert cfg.exact_order == 0
        assert cfg.n_orders == 2
        assert cfg.directions.count == 64
        np.testing.assert_allclose(cfg.directions.unit_vectors[0], cfg.k_hat)

    def test_explicit_axis(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        cfg = make_scatter_config(grid, 0.8, u=(0.0, 1.0), alpha=2.0)
        assert cfg.alpha == 2.0
        np.testing.assert_allclose(cfg.k_hat, (0.0, -1.0), atol=1e-15)

    def test_sum_uses_smallest_alpha(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        total = PotentialSum((family(alpha=2.0), family(alpha=1.5)))
        cfg = make_scatter_config(grid, 0.8, total)
        assert cfg.alpha == 1.5

    def test_needs_axis_information(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError):
            make_scatter_config(grid, 0.8)

    def test_rejects_k_snapping_to_zero(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="zero"):
            make_scatter_config(grid, 1e-3, family())

    @pytest.mark.parametrize("k", [-0.8, 0.0, float("nan"), float("inf")])
    def test_rejects_k_not_positive_and_finite(self, k):
        # a negative k would otherwise flip the incident direction to +u
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="positive and finite"):
            make_scatter_config(grid, k, family())

    @pytest.mark.parametrize("eps_cells", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_eps_cells_not_positive_and_finite(self, eps_cells):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="eps_cells"):
            make_scatter_config(grid, 0.8, family(), eps_cells=eps_cells)

    def test_rejects_n_orders_beyond_a_series_length(self):
        # born_series slices n_orders + 1 terms, an index below sys.maxsize
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="n_orders = 100000000000000000000"):
            make_scatter_config(grid, 0.8, family(), n_orders=10**20)

    def test_rejects_alpha_whose_exact_order_is_beyond_a_series_length(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="2k/alpha"):
            make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=5e-324)

    def test_rejects_alpha_below_one_momentum_cell_along_u(self):
        # 2 pi / 60 = 0.1047 along x, where u points; the y cell is 1.047
        grid = make_grid(2, (60.0, 6.0), (64, 64))
        with pytest.raises(ValueError, match=r"alpha = 0\.1 must be at least one "
                                             r"momentum cell along u, 0\.1047"):
            make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=0.1)
        cfg = make_scatter_config(grid, 0.8, u=(-1.0, 0.0), alpha=2 * np.pi / 60.0)
        assert cfg.exact_order < grid.counts[0]
        with pytest.raises(ValueError, match="momentum cell"):
            replace(cfg, alpha=0.1)  # the constructor's own check

    def test_momentum_cell_along_an_oblique_u(self):
        # min(dp_x, dp_y) * sqrt(2) = (2 pi / 60) * sqrt(2) = 0.1481
        grid = make_grid(2, (60.0, 30.0), (64, 64))
        u = (1.0, 1.0)
        with pytest.raises(ValueError, match="along u, 0.1481"):
            make_scatter_config(grid, 0.8, u=u, alpha=0.148)
        assert make_scatter_config(grid, 0.8, u=u, alpha=0.149).alpha == 0.149

    def test_rejects_k_beyond_band(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError):
            make_scatter_config(grid, 10.0, family())

    @pytest.mark.parametrize("k", [1e200, 1e308])
    @pytest.mark.parametrize("n_orders", [None, 3])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_k_whose_wave_vector_overflows(self, k, n_orders):
        # the snap (1e308) or the norm of the snapped vector (1e200) would
        # overflow; the message names the requested k
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match=re.escape(f"k = {k:.4g} must lie below the momentum band edge")):
            make_scatter_config(grid, k, family(), n_orders=n_orders)

    @pytest.mark.parametrize("axis", ["u", "k_hat"])
    @pytest.mark.parametrize("vector", [(1e308, 1e308), (0.0, 0.0), (np.nan, 1.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_axis_of_no_finite_length(self, axis, vector):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        axes = {"u": (1.0, 0.0), "k_hat": None, axis: vector}
        with pytest.raises(ValueError, match=f"{axis} must be a nonzero vector of finite length"):
            make_scatter_config(grid, 0.8, alpha=1.0, **axes)

    def test_incident_override(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        cfg = make_scatter_config(grid, 0.8, family(), k_hat=(1.0, 0.0))
        np.testing.assert_allclose(cfg.k_hat, (1.0, 0.0), atol=1e-15)

    def test_direction_wavenumber_must_match(self):
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        cfg = make_scatter_config(grid, 0.8, family())
        bad = sphere_directions(2, cfg.k * 1.5, 8, cfg.k_hat)
        with pytest.raises(ValueError):
            ScatterConfig(
                grid=grid, k=cfg.k, k_vec=cfg.k_vec, u=cfg.u, alpha=cfg.alpha,
                epsilon=cfg.epsilon, n_orders=2, directions=bad,
            )


class TestBornSeries:
    def test_incident_term(self):
        spec, grid, v, cfg = standard_setup(n=64)
        term = incident_term(cfg)
        assert term.order == 0
        assert term.source is None
        x = grid.position_mesh()
        expected = np.exp(1j * (cfg.k_vec[0] * x[0] + cfg.k_vec[1] * x[1]))
        np.testing.assert_allclose(term.field.values, expected, atol=1e-14)

    def test_first_order_is_shifted_spectrum(self):
        # with k on the momentum lattice, multiplying by the incident wave
        # shifts the interaction spectrum circularly by k/dp cells
        spec, grid, v, cfg = standard_setup(n=128)
        series = born_series(cfg, v)
        vt = forward_ft(v).values
        shift = [int(round(c / dp)) for c, dp in zip(cfg.k_vec, grid.momentum_spacing)]
        expected = np.roll(vt, shift, axis=(0, 1))
        err = np.max(np.abs(series[1].numerator.values - expected))
        assert err <= 1e-10 * np.max(np.abs(vt))

    def test_zero_interaction(self):
        spec, grid, v, cfg = standard_setup(n=64)
        zero = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        series = born_series(cfg, zero)
        assert series[1].field.max_abs() == 0.0
        assert series[2].numerator.max_abs() == 0.0

    def test_zero_orders(self):
        spec, grid, v, cfg = standard_setup(n=64, n_orders=0)
        series = born_series(cfg, v)
        assert len(series) == 1 and series[0].order == 0

    def test_order_homogeneity(self):
        spec, grid, v, cfg = standard_setup(n=128, n_orders=3)
        base = born_series(cfg, v)
        c = 2.0 - 0.5j
        scaled = born_series(
            cfg, SampledField(grid, c * v.values, Space.POSITION)
        )
        for n in (1, 2, 3):
            want = c**n * base[n].numerator.values
            err = np.max(np.abs(scaled[n].numerator.values - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    def test_divergence_guard(self):
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        v = sample_potential(family(coupling=1e30), grid)
        cfg = make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=1.0, n_orders=4)
        with pytest.raises(DivergenceError) as info:
            born_series(cfg, v)
        assert info.value.order == 2

    def test_overflowing_product_is_divergence(self):
        # the order-2 product 1e300 * 1e300 overflows: not finite, before any transform
        grid = make_grid(2, (24.0, 24.0), (64, 64))
        v = sample_potential(family(coupling=1e300), grid)
        cfg = make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=1.0, n_orders=4)
        with pytest.raises(DivergenceError, match="not finite") as info:
            born_series(cfg, v)
        assert info.value.order == 2 and info.value.magnitude == math.inf

    def test_one_field_max_read_per_order(self, monkeypatch):
        # through either module's name, so a read made by any layer counts
        spec, grid, v, cfg = standard_setup(n=64, n_orders=3)
        original, reads = grids.max_abs, []

        def counted(values):
            reads.append(values.shape)
            return original(values)

        monkeypatch.setattr(grids, "max_abs", counted)
        monkeypatch.setattr(scalar, "max_abs", counted, raising=False)
        born_series(cfg, v)
        assert reads == [grid.shape] * 3

    def test_grid_mismatch(self):
        spec, grid, v, cfg = standard_setup(n=64)
        other = make_grid(2, (60.0, 60.0), (128, 128))
        v_other = sample_potential(spec, other)
        with pytest.raises(ValueError):
            born_step(incident_term(cfg), v_other, cfg)

    def test_term_invariants(self):
        spec, grid, v, cfg = standard_setup(n=64)
        wave = incident_term(cfg).field
        with pytest.raises(ValueError):
            BornTerm(order=1, field=wave)  # missing source/numerator
        with pytest.raises(ValueError):
            BornTerm(order=0, field=wave, source=wave, numerator=forward_ft(wave))


class TestOnShell:
    def test_first_order_is_displaced_transform(self):
        # M_1 on the shell equals the interaction transform at k' - k: the
        # two direct sums are the same up to phase-factor ordering
        spec, grid, v, cfg = standard_setup(n=128)
        series = born_series(cfg, v)
        record = on_shell_numerator(series[1], cfg)
        displaced = cfg.directions.momenta - np.asarray(cfg.k_vec)
        expected = nudft(v, displaced)
        np.testing.assert_allclose(record.values, expected, rtol=1e-12, atol=1e-14)

    def test_requires_interaction_order(self):
        spec, grid, v, cfg = standard_setup(n=64)
        with pytest.raises(ValueError):
            on_shell_numerator(incident_term(cfg), cfg)

    def test_custom_directions(self):
        spec, grid, v, cfg = standard_setup(n=64)
        series = born_series(cfg, v)
        dirs = sphere_directions(2, cfg.k, 8, cfg.k_hat)
        record = on_shell_numerator(series[1], cfg, directions=dirs)
        assert record.values.shape == (8,)
        with pytest.raises(ValueError):
            on_shell_numerator(
                series[1], cfg, directions=sphere_directions(2, 2 * cfg.k, 8, cfg.k_hat)
            )

    def test_first_order_ignores_regulator(self):
        # the order-1 numerator never touches the propagator, so shrinking
        # eps leaves it bit-for-bit unchanged
        spec, grid, v, cfg = standard_setup(n=64)
        half = make_scatter_config(
            grid, 0.8, spec, epsilon=cfg.epsilon / 2, n_orders=cfg.n_orders
        )
        r1 = on_shell_numerator(born_series(cfg, v)[1], cfg)
        r2 = on_shell_numerator(born_series(half, v)[1], half)
        np.testing.assert_array_equal(r1.values, r2.values)


class TestAmplitudes:
    def test_constants(self):
        assert amplitude_factor(3, 5.0) == pytest.approx(-1.0 / (4 * math.pi))
        c2 = amplitude_factor(2, 1.0)
        assert abs(c2) == pytest.approx(1.0 / math.sqrt(8 * math.pi))
        assert np.angle(c2) == pytest.approx(math.pi / 4 - math.pi)
        with pytest.raises(ValueError):
            amplitude_factor(4, 1.0)

    def test_offset_leaves_magnitude(self):
        # center offsets only rotate the phase of the first-order shell
        # values, so amplitude magnitudes are untouched
        spec, grid, v, cfg = standard_setup(n=64)
        displaced = cfg.directions.momenta - np.asarray(cfg.k_vec)
        centered = potential_spectrum(family(), displaced)
        moved = potential_spectrum(family(center=(1.5, -0.75)), displaced)
        c2 = amplitude_factor(2, cfg.k)
        np.testing.assert_allclose(
            np.abs(c2 * moved),
            np.abs(c2 * centered),
            rtol=1e-12, atol=1e-15,
        )


class TestVanishingChecks:
    def test_below_threshold_all_orders_vanish(self):
        spec, grid, v, cfg = standard_setup(n=256, k=0.45)
        report = verify_exactness(cfg, born_series(cfg, v), tol=1e-3)
        assert cfg.exact_order == 0
        assert report.passed
        for check in report.checks:
            assert check.must_vanish and check.ratio <= 1e-3

    def test_first_born_window(self):
        spec, grid, v, cfg = standard_setup(n=256, k=0.8, n_orders=3)
        series = born_series(cfg, v)
        report = verify_exactness(cfg, series, tol=1e-3)
        assert report.exact_order == 1
        assert report.check_for(1).ratio > 1e-1      # real first-order signal
        assert report.check_for(2).ratio <= 1e-5
        assert report.check_for(3).ratio <= 1e-3
        assert report.passed

    def test_series_too_short(self):
        spec, grid, v, cfg = standard_setup(n=64, k=0.8, n_orders=1)
        with pytest.raises(ValueError, match="exactness"):
            verify_exactness(cfg, born_series(cfg, v))

    def test_floor_and_bands_pass_for_family(self):
        spec, grid, v, cfg = standard_setup(n=512, k=0.8, n_orders=2)
        series = born_series(cfg, v)
        floor = verify_spectral_floor(series, cfg.u, cfg.k)
        bands = verify_order_bands(series, cfg.u, cfg.k, cfg.alpha)
        assert floor.passed and floor.worst_ratio <= 1e-3
        assert bands.passed and bands.worst_ratio <= 1e-3

    def test_two_sided_control_fails_everything(self):
        grid = make_grid(2, (60.0, 60.0), (256, 256))
        r2 = np.zeros(grid.shape)
        for x in grid.position_mesh():
            r2 = r2 + x * x
        control = SampledField(grid, np.exp(-r2), Space.POSITION)
        cfg = make_scatter_config(grid, 0.8, u=(1.0, 0.0), alpha=1.0, n_orders=2)
        series = born_series(cfg, control)
        assert not verify_spectral_floor(series, cfg.u, cfg.k).passed
        assert verify_spectral_floor(series, cfg.u, cfg.k).worst_ratio >= 1e-1
        assert not verify_order_bands(series, cfg.u, cfg.k, cfg.alpha).passed
        assert not verify_exactness(cfg, series).passed

    def test_one_sided_control_with_overclaimed_alpha_fails(self):
        # the family's alpha is 1; claiming 1.7 predicts N = 0, yet order 1
        # still reaches the shell, while the true alpha predicts N = 1
        spec, grid, v, cfg = standard_setup(n=256, k=0.8, n_orders=2)
        claimed = make_scatter_config(grid, 0.8, u=spec.u, alpha=1.7, n_orders=2)
        assert claimed.exact_order == 0 and cfg.exact_order == 1
        series = born_series(cfg, v)
        overclaimed = verify_exactness(claimed, series)
        assert not overclaimed.passed
        assert not overclaimed.check_for(1).passed(overclaimed.tol)
        assert overclaimed.check_for(1).ratio >= 1e-1
        truth = verify_exactness(cfg, series)
        assert truth.passed and truth.check_for(2).ratio <= 1e-5

    def test_zero_interaction_is_vacuous(self):
        spec, grid, v, cfg = standard_setup(n=64)
        zero = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        series = born_series(cfg, zero)
        floor = verify_spectral_floor(series, cfg.u, cfg.k)
        assert floor.passed
        assert all(c.vacuous for c in floor.checks)

    def test_report_serialization(self):
        spec, grid, v, cfg = standard_setup(n=64)
        series = born_series(cfg, v)
        floor = verify_spectral_floor(series, cfg.u, cfg.k).to_dict()
        assert set(floor) == {"name", "tol", "pass", "checks"}
        assert {"order", "band", "max_ratio", "tol", "pass"} <= set(floor["checks"][0])
        exact = verify_exactness(cfg, series).to_dict()
        assert {"k", "alpha", "exact_order", "pass", "checks"} <= set(exact)
        assert {"order", "shell", "max_ratio", "pass"} <= set(exact["checks"][0])


class TestConvolutionSupport:
    def test_random_bands_pass(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        report = verify_convolution_support(grid, (1.0, 0.0), 0.0, 0.0, seed=1)
        assert report.passed
        assert report.worst_ratio <= 1e-10

    def test_shifted_bands(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        report = verify_convolution_support(
            grid, (1.0, 0.0), 1.0, -0.5, width=2.0, seed=3
        )
        assert report.passed and not all(c.vacuous for c in report.checks)

    def test_beyond_band_edge_is_vacuous(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        report = verify_convolution_support(grid, (1.0, 0.0), 8.0, 8.0, width=1.0)
        assert report.passed
        assert all(c.vacuous for c in report.checks)

    def test_unconstrained_bottom_is_vacuous(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        report = verify_convolution_support(grid, (1.0, 0.0), 0.0, -50.0, width=100.0)
        assert report.passed
        assert all(c.vacuous for c in report.checks)

    def test_deterministic(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        a = verify_convolution_support(grid, (1.0, 0.0), 0.5, 0.5, seed=7).to_dict()
        b = verify_convolution_support(grid, (1.0, 0.0), 0.5, 0.5, seed=7).to_dict()
        assert a == b

    def test_rejects_bad_arguments(self):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        with pytest.raises(ValueError):
            verify_convolution_support(grid, (1.0, 0.0), 0.0, 0.0, trials=0)
        with pytest.raises(ValueError):
            verify_convolution_support(grid, (1.0, 0.0), 0.0, 0.0, width=-1.0)

    @pytest.mark.parametrize("u", [(1e308, 1e308), (0.0, 0.0), (np.nan, 1.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_axis_of_no_finite_length(self, u):
        grid = make_grid(2, (20.0, 20.0), (64, 64))
        with pytest.raises(ValueError, match="u must be a nonzero vector of finite length"):
            verify_convolution_support(grid, u, 0.0, 0.0)


class TestCsv:
    def test_layout_and_determinism(self, tmp_path):
        spec, grid, v, cfg = standard_setup(n=64)
        series = born_series(cfg, v)
        records = [on_shell_numerator(series[n], cfg) for n in (1, 2)]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_on_shell_csv(p1, records)
        write_on_shell_csv(p2, records)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "order,dir_x,dir_y,re,im"
        assert len(lines) == 1 + 2 * cfg.directions.count
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == records[0].values[0].real

    @pytest.mark.parametrize("shape,columns", [
        ((), ["re", "im"]),
        ((6,), [f"{block}_{axis}_{part}" for block in "eh" for axis in "xyz"
                for part in ("re", "im")]),
    ], ids=["scalar", "six-vector"])
    def test_value_columns_follow_the_records(self, tmp_path, shape, columns):
        record = OnShellRecord(order=1, k=1.0, directions=np.array([[0.6, 0.8, 0.0]]),
                               values=np.full((1,) + shape, 0.5 - 2j))
        write_on_shell_csv(tmp_path / "x.csv", [record])
        header, row = (tmp_path / "x.csv").read_text().splitlines()
        assert header.split(",") == ["order", "dir_x", "dir_y", "dir_z"] + columns
        assert row.split(",")[4:] == ["0.5", "-2.0"] * (len(columns) // 2)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_on_shell_csv(tmp_path / "x.csv", [])
