"""Grid and transform layer tests.

The analytic anchor is the Gaussian pair f(x) = exp(-|x|^2/2) with
F(p) = (2 pi)^(d/2) exp(-|p|^2/2); on a box that is wide enough the grid
transform must reproduce it to high accuracy.
"""

import math
import multiprocessing
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from bit_identity import GRID_SHAPES, assert_same_bits, random_values

from bornscat import grids
from bornscat.grids import (
    DirectionSet,
    Grid,
    SampledField,
    Space,
    all_finite,
    fft_values,
    forward_ft,
    ifft_values,
    inverse_ft,
    load_field,
    make_grid,
    max_abs,
    nudft,
    plane_wave,
    plane_wave_at,
    save_field,
    snap_to_momentum_lattice,
    sphere_directions,
    transverse_basis,
)


def gaussian_field(grid):
    r2 = np.zeros(grid.shape)
    for x in grid.position_mesh():
        r2 = r2 + x * x
    return SampledField(grid, np.exp(-0.5 * r2), Space.POSITION)


class TestMakeGrid:
    def test_basic_2d(self):
        grid = make_grid(2, (60.0, 60.0), (512, 512))
        assert grid.dim == 2
        assert grid.spacing == (60.0 / 512, 60.0 / 512)
        np.testing.assert_allclose(grid.momentum_spacing, 2 * np.pi / 60.0)
        # zero is always a momentum node, and the band is [-pi/h, pi/h)
        p = grid.momentum_axis(0)
        assert p[0] == 0.0
        assert p.min() == pytest.approx(-np.pi / grid.spacing[0])
        assert p.max() < np.pi / grid.spacing[0]

    def test_positions_cover_centered_box(self):
        grid = make_grid(2, (10.0, 10.0), (8, 8))
        x = grid.position_axis(0)
        assert x[0] == -5.0
        assert x[-1] == pytest.approx(5.0 - 10.0 / 8)
        assert 0.0 in x

    def test_3d(self):
        grid = make_grid(3, (30.0, 20.0, 10.0), (32, 16, 8))
        assert grid.size == 32 * 16 * 8
        assert grid.cell_volume == pytest.approx(
            (30 / 32) * (20 / 16) * (10 / 8)
        )

    @pytest.mark.parametrize("counts", [(7, 8), (8, 9), (8, 6), (4, 8)])
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ValueError):
            make_grid(2, (10.0, 10.0), counts)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            make_grid(2, (10.0, 0.0), (8, 8))
        with pytest.raises(ValueError):
            make_grid(2, (-1.0, 10.0), (8, 8))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            make_grid(1, (10.0,), (8,))
        with pytest.raises(ValueError):
            make_grid(3, (10.0, 10.0), (8, 8))


class TestForwardInverse:
    def test_zero_field(self):
        grid = make_grid(2, (10.0, 10.0), (16, 16))
        out = forward_ft(SampledField(grid, np.zeros(grid.shape), Space.POSITION))
        assert out.space is Space.MOMENTUM
        assert out.max_abs() == 0.0

    def test_gaussian_closed_form_2d(self):
        grid = make_grid(2, (30.0, 30.0), (64, 64))
        out = forward_ft(gaussian_field(grid))
        p2 = grid.momentum_sq
        expected = 2.0 * np.pi * np.exp(-0.5 * p2)
        err = np.max(np.abs(out.values - expected)) / (2.0 * np.pi)
        assert err < 1e-8

    def test_gaussian_closed_form_3d(self):
        grid = make_grid(3, (30.0, 30.0, 30.0), (64, 64, 64))
        out = forward_ft(gaussian_field(grid))
        expected = (2.0 * np.pi) ** 1.5 * np.exp(-0.5 * grid.momentum_sq)
        err = np.max(np.abs(out.values - expected)) / (2.0 * np.pi) ** 1.5
        assert err < 1e-8

    @pytest.mark.parametrize("dim,counts", [(2, (32, 16)), (3, (16, 12, 10))])
    def test_round_trip(self, dim, counts):
        rng = np.random.default_rng(7)
        grid = make_grid(dim, tuple(3.0 * n / 8 for n in counts), counts)
        values = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
        f = SampledField(grid, values, Space.POSITION)
        back = inverse_ft(forward_ft(f))
        assert back.space is Space.POSITION
        np.testing.assert_allclose(back.values, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))

    def test_plancherel(self):
        rng = np.random.default_rng(11)
        grid = make_grid(2, (12.0, 9.0), (48, 36))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SampledField(grid, values, Space.POSITION)
        ft = forward_ft(f)
        pos_norm = np.sum(np.abs(values) ** 2) * grid.cell_volume
        mom_norm = (
            np.sum(np.abs(ft.values) ** 2)
            * grid.momentum_cell_volume
            / (2.0 * np.pi) ** grid.dim
        )
        assert mom_norm == pytest.approx(pos_norm, rel=1e-10)

    def test_translation_phase(self):
        # shifting samples by one node multiplies the transform by exp(-i p.h)
        rng = np.random.default_rng(3)
        grid = make_grid(2, (8.0, 8.0), (16, 16))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        base = forward_ft(SampledField(grid, values, Space.POSITION)).values
        shifted = forward_ft(
            SampledField(grid, np.roll(values, 1, axis=0), Space.POSITION)
        ).values
        phase = np.exp(-1j * grid.momentum_mesh()[0] * grid.spacing[0])
        np.testing.assert_allclose(
            shifted, base * phase, atol=1e-12 * np.max(np.abs(base))
        )

    def test_single_spike_transform(self):
        # one unit sample at node x* gives exp(-i p.x*) * cell_volume exactly
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape, dtype=complex)
        values[3, 5] = 1.0
        out = forward_ft(SampledField(grid, values, Space.POSITION)).values
        xs = (grid.position_axis(0)[3], grid.position_axis(1)[5])
        pm = grid.momentum_mesh()
        expected = grid.cell_volume * np.exp(-1j * (pm[0] * xs[0] + pm[1] * xs[1]))
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_inverse_of_constant_is_spike(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        c = 2.0 - 1.0j
        out = inverse_ft(
            SampledField(grid, np.full(grid.shape, c), Space.MOMENTUM)
        ).values
        expected = np.zeros(grid.shape, dtype=complex)
        i0 = grid.counts[0] // 2  # index of x = 0
        expected[i0, i0] = c / grid.cell_volume
        np.testing.assert_allclose(out, expected, atol=1e-12 / grid.cell_volume)

    def test_space_mismatch_raises(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        f = SampledField(grid, np.zeros(grid.shape), Space.MOMENTUM)
        with pytest.raises(ValueError):
            forward_ft(f)
        with pytest.raises(ValueError):
            inverse_ft(SampledField(grid, np.zeros(grid.shape), Space.POSITION))

    def test_rejects_nonfinite(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape, dtype=complex)
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            SampledField(grid, values, Space.POSITION)


def centering_sign(grid):
    # exp(-i p.x0) with x0 = -L/2 the box corner: (-1)^(m_1 + ... + m_d)
    return (-1.0) ** np.indices(grid.shape).sum(axis=0)


def numpy_fft_values(values, grid):
    # The single-threaded numpy form the transforms must match bit for bit.
    axes = tuple(range(-grid.dim, 0))
    return np.fft.fftn(values, axes=axes) * (grid.cell_volume * centering_sign(grid))


def numpy_ifft_values(values, grid):
    axes = tuple(range(-grid.dim, 0))
    return np.fft.ifftn(values * (centering_sign(grid) / grid.cell_volume), axes=axes)


def complex_phase_transforms(grid):
    # The transform pair as once written, with the centering phase computed
    # as a complex exponential: it is (-1)^m only up to rounding.
    phase = np.ones(grid.shape, dtype=complex)
    for i, p in enumerate(grid.momentum_mesh()):
        phase = phase * np.exp(-1j * p * (-0.5 * grid.extents[i]))
    axes = tuple(range(-grid.dim, 0))

    def forward(values):
        return np.fft.fftn(values, axes=axes) * (grid.cell_volume * phase)

    def inverse(values):
        return np.fft.ifftn(values * np.conj(phase), axes=axes) / grid.cell_volume

    return forward, inverse


class TestCenteringSign:
    @pytest.mark.parametrize("lead,counts", [
        ((), (512, 512)), ((), (3072, 64)), ((), (16, 128, 96)), ((6,), (32, 32, 32)),
    ])
    def test_spike_at_origin_transforms_to_cell_volume(self, lead, counts):
        # exp(-i p.0) = 1 at every momentum node, with no rounding left over
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = np.zeros(lead + counts, dtype=complex)
        values[(...,) + tuple(n // 2 for n in counts)] = 1.0
        assert grid.position_axis(0)[counts[0] // 2] == 0.0
        out = fft_values(values, grid)
        assert np.array_equal(out, np.full(values.shape, grid.cell_volume))

    @pytest.mark.parametrize("counts", [(512, 512), (16, 128, 96)])
    def test_agrees_with_complex_phase_transform(self, counts):
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = random_values(counts, sum(counts))
        forward, inverse = complex_phase_transforms(grid)
        for got, want in ((fft_values(values, grid), forward(values)),
                          (ifft_values(values, grid), inverse(values))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestThreadedTransforms:
    # 2-D shapes small and large, 3-D scalars (16x128x96 splits its first
    # pass along the second axis), and six-component stacks.
    @pytest.mark.parametrize("lead,counts", [
        ((), (16, 10)), ((), (128, 128)), ((), (182, 182)), ((), (512, 512)),
        ((), (16, 16, 16)), ((), (16, 128, 96)),
        ((6,), (8, 8, 8)), ((6,), (32, 32, 32)),
    ])
    def test_bit_identical_to_numpy(self, pool_workers, lead, counts):
        rng = np.random.default_rng(sum(counts))
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        shape = lead + counts
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = values.copy()
        for threaded, reference in (
            (fft_values, numpy_fft_values),
            (ifft_values, numpy_ifft_values),
        ):
            got = threaded(values, grid)
            want = reference(values, grid)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(values, before), "input was modified"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_working_pool(self):
        # 512^2 is larger than one block, so the child needs the pool; a
        # forked child inherits the pool object but not its threads.
        grid = make_grid(2, (10.0, 10.0), (512, 512))
        values = np.ones(grid.shape, dtype=complex)
        want = fft_values(values, grid)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(
            target=lambda: queue.put(fft_values(values, grid).tobytes())
        )
        child.start()
        try:
            assert queue.get(timeout=60) == want.tobytes()
            child.join(timeout=60)
            assert not child.is_alive()
        finally:
            child.kill()


class TestPool:
    def run_bounded(self, fn, timeout=60):
        # fn() on a helper thread that must finish within timeout seconds
        outcome = {}

        def target():
            try:
                outcome["value"] = fn()
            except Exception as exc:  # checked by the caller
                outcome["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout)
        assert not thread.is_alive(), "pool call did not finish"
        return outcome

    def test_results_in_call_order_under_contention(self):
        # more threads than cores, switching as often as possible
        pool = grids._Pool(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            calls = [(i, i * i) for i in range(500)]
            outcome = self.run_bounded(lambda: pool.map(lambda a, b: a + b, calls))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(timeout=60)
        assert outcome["value"] == [a + b for a, b in calls]
        assert not any(thread.is_alive() for thread in pool._threads)

    def test_every_task_finishes_before_an_error_propagates(self):
        pool = grids._Pool(3)
        finished = []

        def task(index):
            if index in (1, 4):
                raise ValueError(f"task {index} failed")
            time.sleep(0.01)
            finished.append(index)

        try:
            outcome = self.run_bounded(lambda: pool.map(task, [(i,) for i in range(12)]))
        finally:
            pool.shutdown(timeout=60)
        assert str(outcome["error"]) == "task 1 failed"
        assert sorted(finished) == [i for i in range(12) if i not in (1, 4)]

    def test_a_finished_task_holds_no_reference(self):
        # a worker keeping its last task alive would keep the caller's
        # arrays in memory until the next pool call
        class Marker:
            pass

        pool = grids._Pool(2)
        marker = Marker()
        ref = weakref.ref(marker)
        try:
            pool.map(lambda m: None, [(marker,)])
            del marker
            deadline = time.monotonic() + 10
            while ref() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ref() is None
        finally:
            pool.shutdown(timeout=60)


# Every grid shape alone and six-component stacks.
STACKS = [((), counts) for counts in GRID_SHAPES] + [((6,), (8, 8, 8)), ((6,), (32, 32, 32))]


def grid_of(counts):
    return make_grid(len(counts), tuple(0.37 * n for n in counts), counts)


def single_threaded_plane_wave(grid, k_vec):
    # plane_wave as one whole-array expression: the per-axis waves
    # multiplied in axis order
    waves = [np.exp(1j * (ki * x)) for ki, x in zip(k_vec, grid.position_mesh())]
    out = waves[0]
    for wave in waves[1:]:
        out = out * wave
    return out


# off the momentum lattice, so the phases round in every last bit
K_VEC = (0.731, -1.29, 0.377)


class TestThreadedPerNodePasses:
    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_plane_wave(self, pool_workers, counts):
        grid = grid_of(counts)
        k_vec = K_VEC[: grid.dim]
        assert_same_bits(plane_wave(grid, k_vec), single_threaded_plane_wave(grid, k_vec))

    @pytest.mark.parametrize("lead,counts", STACKS)
    def test_reductions(self, pool_workers, lead, counts):
        values = random_values(lead + counts, sum(counts))
        before = values.copy()
        got = max_abs(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np.max(np.abs(values))).tobytes()
        assert all_finite(values) is True
        assert np.array_equal(values, before), "input was modified"

    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_field_norms_and_max(self, pool_workers, counts):
        grid = grid_of(counts)
        values = random_values(counts, sum(counts))
        before = values.copy()
        field = SampledField(grid, values, Space.POSITION)
        assert_same_bits(field.node_norms(), np.abs(values))
        assert field.max_abs() == float(np.max(np.abs(values)))
        assert np.array_equal(values, before), "input was modified"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_in_the_last_block(self, pool_workers, bad):
        # 512^2 complex values are 4 MiB: more than one block for every pool
        grid = make_grid(2, (10.0, 10.0), (512, 512))
        values = np.ones(grid.shape, dtype=complex)
        values[-1, -1] = bad
        got = max_abs(values)
        assert math.isnan(got) if math.isnan(bad) else got == math.inf
        assert all_finite(values) is False
        with pytest.raises(ValueError, match="finite"):
            SampledField(grid, values, Space.POSITION)

    def test_nan_wins_over_inf_in_an_earlier_block(self, pool_workers):
        values = np.ones((512, 512), dtype=complex)
        values[0, 0] = np.inf
        values[-1, -1] = np.nan
        assert math.isnan(max_abs(values))

    @pytest.mark.parametrize("counts", [(16, 10), (12, 8, 10)])
    def test_plane_wave_at_nodes(self, counts):
        grid = grid_of(counts)
        k_vec = K_VEC[: grid.dim]
        nodes = np.array(list(np.ndindex(grid.shape)))
        want = single_threaded_plane_wave(grid, k_vec)
        assert_same_bits(plane_wave_at(grid, k_vec, nodes), want[tuple(nodes.T)])
        assert_same_bits(plane_wave_at(grid, k_vec, nodes[-3:]), want[tuple(nodes[-3:].T)])

    def test_plane_wave_at_rejects_bad_nodes(self):
        grid = make_grid(2, (6.0, 6.0), (8, 8))
        with pytest.raises(ValueError, match="nodes"):
            plane_wave_at(grid, (1.0, 2.0), np.zeros((4, 3), dtype=int))
        with pytest.raises(ValueError, match="nodes"):
            plane_wave_at(grid, (1.0, 2.0), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("k_vec", [(1.0, 2.0, 3.0), (1.0,)])
    def test_plane_wave_rejects_wave_vector_of_wrong_length(self, k_vec):
        grid = make_grid(2, (6.0, 6.0), (8, 8))
        with pytest.raises(ValueError, match="2 components"):
            plane_wave(grid, k_vec)
        with pytest.raises(ValueError, match="2 components"):
            plane_wave_at(grid, k_vec, np.zeros((1, 2), dtype=int))


class TestNudft:
    def test_matches_forward_ft_at_nodes(self):
        rng = np.random.default_rng(5)
        grid = make_grid(2, (9.0, 7.0), (24, 16))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SampledField(grid, values, Space.POSITION)
        ft = forward_ft(f).values
        idx = [(0, 0), (3, 5), (13, 2), (23, 15), (12, 8)]
        points = np.array(
            [[grid.momentum_axis(0)[i], grid.momentum_axis(1)[j]] for i, j in idx]
        )
        direct = nudft(f, points)
        expected = np.array([ft[i, j] for i, j in idx])
        np.testing.assert_allclose(direct, expected, rtol=0, atol=1e-12 * np.max(np.abs(ft)))

    def test_matches_forward_ft_at_nodes_3d(self):
        rng = np.random.default_rng(6)
        grid = make_grid(3, (6.0, 5.0, 4.0), (12, 10, 8))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SampledField(grid, values, Space.POSITION)
        ft = forward_ft(f).values
        idx = [(0, 0, 0), (5, 2, 7), (11, 9, 3)]
        points = np.array(
            [
                [grid.momentum_axis(0)[i], grid.momentum_axis(1)[j], grid.momentum_axis(2)[l]]
                for i, j, l in idx
            ]
        )
        direct = nudft(f, points)
        expected = np.array([ft[i, j, l] for i, j, l in idx])
        np.testing.assert_allclose(direct, expected, rtol=0, atol=1e-12 * np.max(np.abs(ft)))

    def test_gaussian_off_grid_point(self):
        grid = make_grid(2, (30.0, 30.0), (64, 64))
        f = gaussian_field(grid)
        p = np.array([[0.3, 0.7]])
        expected = 2.0 * np.pi * np.exp(-0.5 * (0.3**2 + 0.7**2))
        got = nudft(f, p)[0]
        assert abs(got - expected) / (2.0 * np.pi) < 1e-8

    def test_zero_field(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        f = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        out = nudft(f, np.array([[0.1, 0.2], [1.0, -1.0]]))
        np.testing.assert_array_equal(out, 0.0)

    def test_rejects_bad_points(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        f = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        with pytest.raises(ValueError):
            nudft(f, np.array([[0.1, 0.2, 0.3]]))
        with pytest.raises(ValueError):
            nudft(f, np.array([[np.inf, 0.0]]))


class TestDirections:
    def test_2d_equal_angles(self):
        ds = sphere_directions(2, 1.5, 8, (0.0, 1.0))
        assert ds.count == 8
        np.testing.assert_allclose(ds.unit_vectors[0], [0.0, 1.0], atol=1e-15)
        angles = np.arctan2(ds.unit_vectors[:, 1], ds.unit_vectors[:, 0])
        diffs = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(diffs, 2 * np.pi / 8, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(ds.momenta, axis=1), 1.5)

    def test_3d_first_is_incident(self):
        ds = sphere_directions(3, 2.0, 100, (0.0, 0.0, 1.0))
        np.testing.assert_array_equal(ds.unit_vectors[0], [0.0, 0.0, 1.0])
        norms = np.linalg.norm(ds.unit_vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_3d_points_are_distinct(self):
        ds = sphere_directions(3, 1.0, 64, (1.0, 0.0, 0.0))
        dots = ds.unit_vectors @ ds.unit_vectors.T
        np.fill_diagonal(dots, -1.0)
        # strictly positive pairwise angular separation
        assert np.max(dots) < 1.0 - 1e-8

    def test_single_direction(self):
        ds = sphere_directions(3, 1.0, 1, (0.0, 1.0, 0.0))
        assert ds.count == 1
        np.testing.assert_allclose(ds.unit_vectors[0], [0.0, 1.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sphere_directions(2, 1.0, 0, (1.0, 0.0))
        with pytest.raises(ValueError):
            sphere_directions(2, 1.0, 4, (0.0, 0.0))
        with pytest.raises(ValueError):
            DirectionSet(k=1.0, unit_vectors=np.array([[2.0, 0.0]]))


class TestHelpers:
    def test_transverse_basis_2d(self):
        (e,) = transverse_basis((1.0, 0.0))
        np.testing.assert_allclose(e, [0.0, 1.0])

    def test_transverse_basis_3d_right_handed(self):
        e1, e2 = transverse_basis((1.0, 0.0, 0.0))
        np.testing.assert_allclose(e1, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(e2, [0.0, 0.0, 1.0], atol=1e-15)
        u = np.array([0.3, -0.5, 0.8])
        e1, e2 = transverse_basis(u)
        un = u / np.linalg.norm(u)
        assert abs(e1 @ un) < 1e-12 and abs(e2 @ un) < 1e-12
        np.testing.assert_allclose(np.cross(un, e1), e2, atol=1e-12)

    def test_plane_wave_magnitude_and_phase(self):
        grid = make_grid(2, (6.0, 6.0), (12, 12))
        k = np.array([grid.momentum_spacing[0] * 2, 0.0])
        wave = plane_wave(grid, k)
        np.testing.assert_allclose(np.abs(wave), 1.0)
        assert wave[grid.counts[0] // 2, 0] == pytest.approx(1.0)  # x = 0 node

    def test_snap_to_lattice(self):
        grid = make_grid(2, (10.0, 10.0), (16, 16))
        dp = grid.momentum_weights if hasattr(grid, "momentum_weights") else grid.momentum_spacing
        snapped = snap_to_momentum_lattice(grid, (1.0, -0.2))
        np.testing.assert_allclose(snapped / np.asarray(dp), np.round(snapped / np.asarray(dp)))
        assert abs(snapped[0] - 1.0) <= dp[0] / 2 + 1e-15
        assert abs(snapped[1] + 0.2) <= dp[1] / 2 + 1e-15


class TestFieldIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = make_grid(2, (5.0, 4.0), (16, 8))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = SampledField(grid, values, Space.MOMENTUM)
        path = tmp_path / "field.bin"
        save_field(path, f)
        back = load_field(path)
        assert back.grid == grid
        assert back.space is Space.MOMENTUM
        np.testing.assert_array_equal(back.values, values)

    def test_header_is_json_line(self, tmp_path):
        import json

        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        f = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        path = tmp_path / "field.bin"
        save_field(path, f)
        first = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(first)
        assert header["dim"] == 3
        assert header["space"] == "position"
        assert header["counts"] == [8, 8, 8]

    def test_truncated_payload_rejected(self, tmp_path):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        f = SampledField(grid, np.ones(grid.shape), Space.POSITION)
        path = tmp_path / "field.bin"
        save_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            load_field(path)
