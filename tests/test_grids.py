"""Grid and transform layer tests.

The analytic anchor is the Gaussian pair f(x) = exp(-|x|^2/2) with
F(p) = (2 pi)^(d/2) exp(-|p|^2/2); on a box that is wide enough the grid
transform must reproduce it to high accuracy.
"""

import hashlib
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from bit_identity import GRID_SHAPES, assert_same_bits, momentum_sq, random_values

from bornscat import grids
from bornscat.em import MaterialTensors, default_polarization, incident_six_field
from bornscat.grids import (
    DirectionSet,
    SampledField,
    all_finite,
    blockwise,
    fft_values,
    ifft_values,
    load_field,
    make_grid,
    max_abs,
    nudft_values,
    plane_wave,
    plane_wave_at,
    save_field,
    snap_to_momentum_lattice,
    sphere_directions,
    support_box,
    transverse_basis,
)
from bornscat.oracle import (
    asymptotic_fit,
    converged_solution,
    em_quad_second_order,
    quad_second_order,
    slow_dft,
)
from bornscat.potentials import PotentialSpec, potential_spectrum, potential_value
from bornscat.scalar import incident_term, make_scatter_config, verify_convolution_support


def gaussian_values(grid):
    r2 = np.zeros(grid.shape)
    for x in grid.position_mesh():
        r2 = r2 + x * x
    return np.exp(-0.5 * r2)


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
        out = fft_values(np.zeros(grid.shape), grid)
        assert max_abs(out) == 0.0

    def test_gaussian_closed_form_2d(self):
        grid = make_grid(2, (30.0, 30.0), (64, 64))
        out = fft_values(gaussian_values(grid), grid)
        expected = 2.0 * np.pi * np.exp(-0.5 * momentum_sq(grid))
        err = np.max(np.abs(out - expected)) / (2.0 * np.pi)
        assert err < 1e-8

    def test_gaussian_closed_form_3d(self):
        grid = make_grid(3, (30.0, 30.0, 30.0), (64, 64, 64))
        out = fft_values(gaussian_values(grid), grid)
        expected = (2.0 * np.pi) ** 1.5 * np.exp(-0.5 * momentum_sq(grid))
        err = np.max(np.abs(out - expected)) / (2.0 * np.pi) ** 1.5
        assert err < 1e-8

    @pytest.mark.parametrize("dim,counts", [(2, (32, 16)), (3, (16, 12, 10))])
    def test_round_trip(self, dim, counts):
        rng = np.random.default_rng(7)
        grid = make_grid(dim, tuple(3.0 * n / 8 for n in counts), counts)
        values = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
        back = ifft_values(fft_values(values, grid), grid)
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))

    def test_plancherel(self):
        rng = np.random.default_rng(11)
        grid = make_grid(2, (12.0, 9.0), (48, 36))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ft = fft_values(values, grid)
        pos_norm = np.sum(np.abs(values) ** 2) * grid.cell_volume
        mom_norm = (
            np.sum(np.abs(ft) ** 2)
            * math.prod(2.0 * np.pi / L for L in grid.extents)
            / (2.0 * np.pi) ** grid.dim
        )
        assert mom_norm == pytest.approx(pos_norm, rel=1e-10)

    def test_translation_phase(self):
        # shifting samples by one node multiplies the transform by exp(-i p.h)
        rng = np.random.default_rng(3)
        grid = make_grid(2, (8.0, 8.0), (16, 16))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        base = fft_values(values, grid)
        shifted = fft_values(np.roll(values, 1, axis=0), grid)
        phase = np.exp(-1j * grid.momentum_mesh()[0] * grid.spacing[0])
        np.testing.assert_allclose(
            shifted, base * phase, atol=1e-12 * np.max(np.abs(base))
        )

    def test_single_spike_transform(self):
        # one unit sample at node x* gives exp(-i p.x*) * cell_volume exactly
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape, dtype=complex)
        values[3, 5] = 1.0
        out = fft_values(values, grid)
        xs = (grid.position_axis(0)[3], grid.position_axis(1)[5])
        pm = grid.momentum_mesh()
        expected = grid.cell_volume * np.exp(-1j * (pm[0] * xs[0] + pm[1] * xs[1]))
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_inverse_of_constant_is_spike(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        c = 2.0 - 1.0j
        out = ifft_values(np.full(grid.shape, c), grid)
        expected = np.zeros(grid.shape, dtype=complex)
        i0 = grid.counts[0] // 2  # index of x = 0
        expected[i0, i0] = c / grid.cell_volume
        np.testing.assert_allclose(out, expected, atol=1e-12 / grid.cell_volume)

    def test_rejects_nonfinite(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape, dtype=complex)
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            SampledField(grid, values)


def centering_sign(grid):
    # exp(-i p.x0) with x0 = -L/2 the box corner: (-1)^(m_1 + ... + m_d)
    return (-1.0) ** np.indices(grid.shape).sum(axis=0)


def numpy_axes(grid, order):
    # fftn runs the last of its axes first: the axes, counted from the end,
    # whose passes run in the given order of grid axes (numpy's own, last
    # axis first, by default)
    order = reversed(range(grid.dim)) if order is None else order
    return tuple(a - grid.dim for a in reversed(list(order)))


def numpy_fft_values(values, grid, order=None):
    # The single-threaded numpy form the transforms must match bit for bit.
    axes = numpy_axes(grid, order)
    return np.fft.fftn(values, axes=axes) * (grid.cell_volume * centering_sign(grid))


def numpy_ifft_values(values, grid, order=None):
    axes = numpy_axes(grid, order)
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

    @pytest.mark.parametrize("lead", [(), (6,)], ids=["one", "six"])
    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_inverse_in_place_is_bit_identical(self, pool_workers, counts, lead):
        # and without out, the input is left as it was
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = random_values(lead + counts, sum(counts))
        copy = values.copy()
        want = ifft_values(copy, grid)
        assert_same_bits(copy, values)
        got = ifft_values(values, grid, out=values)
        assert got is values
        assert_same_bits(got, want)

    @pytest.mark.parametrize("lead", [(), (6,)], ids=["one", "six"])
    @pytest.mark.parametrize("counts", GRID_SHAPES)
    def test_forward_in_place_is_bit_identical(self, pool_workers, counts, lead):
        # as a Born step transforms its numerator: in the array itself, or
        # in the leading rows of a six-component array
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = random_values(lead + counts, sum(counts))
        want = fft_values(values, grid)
        got = fft_values(values, grid, out=values)
        assert got is values
        assert_same_bits(got, want)
        if lead:
            values = random_values(lead + counts, 1 + sum(counts))
            want = fft_values(values[:3], grid)
            rows = values[:3]
            assert fft_values(rows, grid, out=rows) is rows
            assert_same_bits(values[:3], want)

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
def boxes_of(counts):
    """Boxes, one slice per axis, inside a grid, on its faces, and degenerate."""
    return {
        "interior": tuple(slice(n // 4, n // 2 + 1) for n in counts),
        "faces": tuple(slice(0, n // 3) if i % 2 == 0 else slice(n - n // 3, n)
                       for i, n in enumerate(counts)),
        "whole": tuple(slice(0, n) for n in counts),
        "node": tuple(slice(n // 2, n // 2 + 1) for n in counts),
        "empty": (slice(0, 0),) * len(counts),
    }


# Scalars on every grid, and the three E rows and six rows of an EM field
# on a 2-D grid and the two 3-D ones.
PRUNED_STACKS = [((), counts) for counts in GRID_SHAPES] + [
    (lead, counts) for counts in ((16, 10), (16, 128, 96), (144, 48, 48)) for lead in ((3,), (6,))
]
PRUNED_IDS = ["x".join(map(str, lead + counts)) for lead, counts in PRUNED_STACKS]


class TestPrunedTransforms:
    """A transform given a box is numpy's, its passes in the box's order."""

    @pytest.mark.parametrize("lead,counts", PRUNED_STACKS, ids=PRUNED_IDS)
    def test_forward_of_values_zero_off_the_box(self, pool_workers, lead, counts):
        grid = grid_of(counts)
        for name, box in boxes_of(counts).items():
            on = (Ellipsis,) + box
            values = np.zeros(lead + counts, dtype=complex)
            values[on] = random_values(values[on].shape, sum(counts))
            before = values.copy()
            want = numpy_fft_values(values, grid, grids._pass_order(grid, box, True))
            # into an array that is not values: the lines skipped read as zero there
            out = np.full_like(values, np.nan)
            assert fft_values(values, grid, out=out, box=box) is out
            assert_same_bits(out, want)
            assert_same_bits(values, before)
            # in place, as a Born step transforms its numerator, or its E rows
            rows = values[:3] if lead == (6,) else values
            assert fft_values(rows, grid, out=rows, box=box) is rows
            assert_same_bits(rows, want[:3] if lead == (6,) else want)
            if lead == (6,):
                assert_same_bits(values[3:], before[3:])

    @pytest.mark.parametrize("lead,counts", PRUNED_STACKS, ids=PRUNED_IDS)
    def test_inverse_on_the_box(self, pool_workers, lead, counts):
        grid = grid_of(counts)
        values = random_values(lead + counts, sum(counts))
        before = values.copy()
        for name, box in boxes_of(counts).items():
            on = (Ellipsis,) + box
            want = numpy_ifft_values(values, grid, grids._pass_order(grid, box, False))
            got = ifft_values(values, grid, box=box)
            assert_same_bits(got[on], want[on])
            assert_same_bits(values, before)
            in_place = values.copy()
            assert ifft_values(in_place, grid, out=in_place, box=box) is in_place
            assert_same_bits(in_place[on], want[on])

    @staticmethod
    def passes_run(monkeypatch, run):
        """([(grid axis, lines)] per pass, in the order they ran, run()) for a scalar."""
        lines = []

        def counted(transform):
            def counting(block, axis, out):
                lines.append((axis, block.size // block.shape[axis]))
                return transform(block, axis=axis, out=out)
            return counting

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fft", counted(np.fft.fft))
            patch.setattr(np.fft, "ifft", counted(np.fft.ifft))
            result = run()
        total = {}
        for axis, n in lines:
            total[axis] = total.get(axis, 0) + n
        return list(total.items()), result

    def passes_of(self, monkeypatch, box):
        """The passes of fft_values and of ifft_values with box on a 16x128x96 grid."""
        counts = (16, 128, 96)
        grid = grid_of(counts)
        values = np.zeros(counts, dtype=complex)
        values[box] = 1.0
        return tuple(self.passes_run(monkeypatch, lambda: transform(values, grid, box=box))[0]
                     for transform in (fft_values, ifft_values))

    def test_the_passes_run_only_the_lines_the_box_needs(self, monkeypatch):
        # forward: the widest share first (3/16, then 10/128, then 3/96),
        # and the lines whose untransformed indices lie in the box; inverse:
        # the narrowest share first, and the lines whose transformed
        # indices do
        box = (slice(2, 5), slice(10, 20), slice(30, 33))
        assert self.passes_of(monkeypatch, box) == (
            [(0, 10 * 3), (1, 16 * 3), (2, 16 * 128)],
            [(2, 16 * 128), (1, 16 * 3), (0, 10 * 3)],
        )

    @pytest.mark.parametrize("box,forward,inverse", [
        # a slab across u = (1, 0, 0), of equal shares across it, as on the
        # EM workloads: the forward passes start on axis 0, where last axis
        # first runs its every line; the inverse ones keep numpy's order
        ((slice(0, 16), slice(60, 72), slice(45, 54)),
         [(0, 12 * 9), (2, 16 * 12), (1, 16 * 96)], [(2, 16 * 128), (1, 16 * 9), (0, 12 * 9)]),
        # narrow along axis 0, which last axis first serves worst when
        # inverting: the inverse passes start there
        ((slice(7, 9), slice(0, 128), slice(10, 70)),
         [(1, 2 * 60), (2, 2 * 128), (0, 128 * 96)], [(0, 128 * 96), (2, 2 * 128), (1, 2 * 60)]),
    ], ids=["slab-across-axis-0", "narrow-along-axis-0"])
    def test_the_passes_start_on_the_share_the_box_prunes_most(self, monkeypatch, box,
                                                                forward, inverse):
        assert self.passes_of(monkeypatch, box) == (forward, inverse)

    @pytest.mark.parametrize("counts", [(3072, 64), (16, 128, 96)], ids=["3072x64", "16x128x96"])
    def test_no_box_and_the_whole_box_run_numpys_order(self, monkeypatch, counts):
        # every line, last axis first, and the same bits
        grid = grid_of(counts)
        values = random_values(counts, sum(counts))
        whole = tuple(slice(0, n) for n in counts)
        numpys = [(a, grid.size // n) for a, n in reversed(list(enumerate(counts)))]
        for transform in (fft_values, ifft_values):
            want = transform(values, grid)
            for box in (None, whole):
                passes, got = self.passes_run(monkeypatch, lambda: transform(values, grid, box=box))
                assert passes == numpys
                assert_same_bits(got, want)

    def test_the_order_follows_the_shares_the_box_covers(self):
        # shares, not lengths: 32 of 64 nodes is wider than 40 of 128
        grid = grid_of((64, 128, 16))
        box = (slice(0, 32), slice(0, 40), slice(4, 10))
        assert grids._pass_order(grid, box, True) == [0, 2, 1]
        assert grids._pass_order(grid, box, False) == [1, 2, 0]
        # equal shares keep last axis first, as in an empty box
        assert grids._pass_order(grid, (slice(0, 32), slice(0, 64), slice(0, 4)), True) == [1, 0, 2]
        for forward in (True, False):
            assert grids._pass_order(grid, (slice(0, 0),) * 3, forward) == [2, 1, 0]
            assert grids._pass_order(grid, None, forward) == [2, 1, 0]


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
        field = SampledField(grid, values)
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
            SampledField(grid, values)

    def test_nan_wins_over_inf_in_an_earlier_block(self, pool_workers):
        values = np.ones((512, 512), dtype=complex)
        values[0, 0] = np.inf
        values[-1, -1] = np.nan
        assert math.isnan(max_abs(values))

    @pytest.mark.parametrize("n", [8, 1024])
    def test_the_callers_errstate_holds_in_every_block(self, pool_workers, n):
        # 8^2 runs in the calling thread; 1024^2 (16 MiB) on the pool
        values = np.full((n, n), 1e300, dtype=complex)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            blockwise(np.multiply, np.empty_like(values), values, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                out = blockwise(np.multiply, np.empty_like(values), values, values)
        assert np.all(out == np.inf)

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

    @pytest.mark.parametrize("nodes", [[[-1, 0]], [[0, 32]], [[32, 0]], [[0.0, 1.0]],
                                       [[0.5, 1.0]], [[True, False]]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_plane_wave_at_rejects_an_index_off_the_grid(self, nodes):
        # -1 would wrap to node 31, and a float would fail in numpy's indexing
        grid = make_grid(2, (6.0, 6.0), (32, 32))
        plane_wave_at(grid, (1.0, 2.0), [[0, 31], [31, 0]])
        message = "nodes must be integer indices in [0, n_i) for the counts (32, 32)"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            plane_wave_at(grid, (1.0, 2.0), nodes)

    @pytest.mark.parametrize("k_vec", [(1.0, 2.0, 3.0), (1.0,)])
    def test_plane_wave_rejects_wave_vector_of_wrong_length(self, k_vec):
        grid = make_grid(2, (6.0, 6.0), (8, 8))
        with pytest.raises(ValueError, match="2 components"):
            plane_wave(grid, k_vec)
        with pytest.raises(ValueError, match="2 components"):
            plane_wave_at(grid, k_vec, np.zeros((1, 2), dtype=int))


class TestNudft:
    def test_matches_fft_values_at_nodes(self):
        rng = np.random.default_rng(5)
        grid = make_grid(2, (9.0, 7.0), (24, 16))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ft = fft_values(values, grid)
        idx = [(0, 0), (3, 5), (13, 2), (23, 15), (12, 8)]
        points = np.array(
            [[grid.momentum_axis(0)[i], grid.momentum_axis(1)[j]] for i, j in idx]
        )
        direct = nudft_values(values, grid, points)
        expected = np.array([ft[i, j] for i, j in idx])
        np.testing.assert_allclose(direct, expected, rtol=0, atol=1e-12 * np.max(np.abs(ft)))

    def test_matches_fft_values_at_nodes_3d(self):
        rng = np.random.default_rng(6)
        grid = make_grid(3, (6.0, 5.0, 4.0), (12, 10, 8))
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ft = fft_values(values, grid)
        idx = [(0, 0, 0), (5, 2, 7), (11, 9, 3)]
        points = np.array(
            [
                [grid.momentum_axis(0)[i], grid.momentum_axis(1)[j], grid.momentum_axis(2)[l]]
                for i, j, l in idx
            ]
        )
        direct = nudft_values(values, grid, points)
        expected = np.array([ft[i, j, l] for i, j, l in idx])
        np.testing.assert_allclose(direct, expected, rtol=0, atol=1e-12 * np.max(np.abs(ft)))

    def test_gaussian_off_grid_point(self):
        grid = make_grid(2, (30.0, 30.0), (64, 64))
        p = np.array([[0.3, 0.7]])
        expected = 2.0 * np.pi * np.exp(-0.5 * (0.3**2 + 0.7**2))
        got = nudft_values(gaussian_values(grid), grid, p)[0]
        assert abs(got - expected) / (2.0 * np.pi) < 1e-8

    def test_zero_field(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        out = nudft_values(np.zeros(grid.shape), grid, np.array([[0.1, 0.2], [1.0, -1.0]]))
        np.testing.assert_array_equal(out, 0.0)

    def test_rejects_bad_points(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape)
        with pytest.raises(ValueError):
            nudft_values(values, grid, np.array([[0.1, 0.2, 0.3]]))
        with pytest.raises(ValueError):
            nudft_values(values, grid, np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("counts,box", [
        ((64, 48), (slice(0, 64), slice(20, 27))),
        ((64, 48), (slice(5, 40), slice(0, 48))),
        ((32, 16, 12), (slice(0, 32), slice(6, 11), slice(3, 9))),
        ((32, 16, 12), (slice(30, 32), slice(0, 1), slice(11, 12))),
    ])
    def test_a_box_sum_agrees_with_the_whole_grid_sum(self, counts, box):
        # f zero outside the box: the box's values alone give the same sum
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = np.zeros(counts, dtype=complex)
        values[box] = random_values(values[box].shape, sum(counts))
        points = 1.3 * np.random.default_rng(3).standard_normal((17, len(counts)))
        want = nudft_values(values, grid, points)
        got = nudft_values(values[box], grid, points, box=box)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("counts", [(64, 48), (32, 16, 12)])
    def test_the_whole_grid_as_a_box_gives_the_same_bits(self, counts):
        grid = make_grid(len(counts), tuple(0.37 * n for n in counts), counts)
        values = random_values(counts, 7)
        points = np.random.default_rng(4).standard_normal((9, len(counts)))
        whole = tuple(slice(0, n) for n in counts)
        assert_same_bits(nudft_values(values, grid, points, box=whole),
                         nudft_values(values, grid, points))

    def test_an_empty_box_sums_to_zero(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        empty = (slice(0, 0),) * 3
        out = nudft_values(np.zeros((0, 0, 0), dtype=complex), grid, [[0.1, 0.2, 0.3]], box=empty)
        assert out.shape == (1,) and not np.any(out)

    def test_rejects_values_that_do_not_fill_the_box(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        with pytest.raises(ValueError, match=r"do not fill the box \(3, 8\)"):
            nudft_values(np.zeros((8, 8)), grid, [0.1, 0.2], box=(slice(2, 5), slice(0, 8)))
        with pytest.raises(ValueError, match="do not fill the box"):
            nudft_values(np.zeros((6, 8, 8)), grid, [0.1, 0.2])


class TestSupportBox:
    def test_only_exact_zeros_are_outside(self):
        values = np.zeros((16, 10), dtype=complex)
        values[3, 4] = 1e-300
        values[9, 2] = 5e-324j  # the smallest subnormal
        values[12, 7] = -0.0  # a zero all the same
        assert support_box(values, 2) == (slice(3, 10), slice(2, 5))

    def test_union_over_components(self):
        values = np.zeros((6, 8, 10, 12), dtype=complex)
        values[0, 2, 3, 4] = 1.0
        values[5, 6, 1, 9] = -2.0j
        assert support_box(values, 3) == (slice(2, 7), slice(1, 4), slice(4, 10))

    def test_empty_for_an_all_zero_array(self):
        assert support_box(np.zeros((6, 8, 8, 8), dtype=complex), 3) == (slice(0, 0),) * 3
        assert support_box(np.full((8, 8), -0.0), 2) == (slice(0, 0),) * 2

    def test_the_whole_grid_when_no_node_is_zero(self):
        values = random_values((16, 10), 1)
        assert support_box(values, 2) == (slice(0, 16), slice(0, 10))

    def test_a_box_that_touches_the_grid_faces(self):
        values = np.zeros((12, 10, 8))
        values[0, 4, 7] = 1.0
        values[11, 0, 3] = 1.0
        assert support_box(values, 3) == (slice(0, 12), slice(0, 5), slice(3, 8))

    def test_a_box_given_is_the_origin_of_the_values(self):
        values = np.zeros((4, 6), dtype=complex)
        values[1, 2:4] = 1.0
        box = (slice(3, 7), slice(10, 16))
        assert support_box(values, 2, box) == (slice(4, 5), slice(12, 14))
        assert support_box(np.zeros((4, 6)), 2, box) == (slice(0, 0),) * 2

    def test_a_sampled_field_keeps_the_values_on_their_box(self):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        values = np.zeros(grid.shape, dtype=complex)
        values[2:5, 3] = 1.0 - 2.0j
        field = SampledField(grid, values)
        assert field.box == (slice(2, 5), slice(3, 4))
        assert_same_bits(field.values, values[2:5, 3:4])
        assert_same_bits(field.grid_values(), values)
        whole = SampledField(grid, random_values(grid.shape, 1))
        assert whole.box == grid.whole_box
        assert whole.grid_values() is whole.values

    def test_a_sampled_field_given_its_box_holds_the_values_on_it(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        box = (slice(0, 8), slice(2, 5), slice(7, 8))
        six = SampledField(grid, np.ones((6, 8, 3, 1)), box)
        assert six.box == box and six.node_norms().shape == (8, 3, 1)
        assert_same_bits(six.grid_values()[:, :, 2:5, 7:], np.ones((6, 8, 3, 1), dtype=complex))
        assert not six.grid_values()[:, :, :2].any() and not six.grid_values()[..., :7].any()
        with pytest.raises(ValueError, match=r"neither the box's \(8, 3, 1\)"):
            SampledField(grid, np.ones(grid.shape), box)
        for bad in [(slice(0, 8), slice(2, 5)), (slice(0, 9), slice(2, 5), slice(7, 8)),
                    (slice(-1, 8), slice(2, 5), slice(7, 8)), (slice(0, 8), slice(5, 2), slice(7, 8))]:
            with pytest.raises(ValueError, match="does not lie in the grid's"):
                SampledField(grid, np.ones((6, 8, 3, 1)), bad)

    def test_the_union_of_boxes_leaves_the_empty_ones_out(self):
        empty = (slice(0, 0),) * 2
        a, b = (slice(2, 5), slice(0, 3)), (slice(4, 9), slice(6, 7))
        assert grids.union_box([a, empty, b], 2) == (slice(2, 9), slice(0, 7))
        assert grids.union_box([empty, empty], 2) == grids.union_box([], 2) == empty

    def test_values_on_one_box_given_on_another(self):
        values = random_values((6, 4, 5), 2)
        box = (slice(3, 7), slice(10, 15))
        same = grids.on_box(values, box, box)
        assert same is values
        wider = grids.on_box(values, box, (slice(0, 8), slice(8, 16)))
        assert wider.shape == (6, 8, 8)
        assert_same_bits(wider[:, 3:7, 2:7], values)
        assert not wider[:, :3].any() and not wider[:, 7:].any()
        assert not wider[..., :2].any() and not wider[..., 7:].any()
        # the nodes where the boxes meet, the rest zero
        shifted = grids.on_box(values, box, (slice(5, 9), slice(12, 14)))
        assert_same_bits(shifted[:, :2], values[:, 2:, 2:4])
        assert not shifted[:, 2:].any()
        apart = grids.on_box(values, box, (slice(0, 2), slice(0, 3)))
        assert apart.shape == (6, 2, 3) and not apart.any()


class TestDirections:
    def test_2d_equal_angles(self):
        ds = sphere_directions(2, 1.5, 8, (0.0, 1.0))
        assert ds.unit_vectors.shape == (8, 2)
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
        assert ds.unit_vectors.shape == (1, 3)
        np.testing.assert_allclose(ds.unit_vectors[0], [0.0, 1.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sphere_directions(2, 1.0, 0, (1.0, 0.0))
        with pytest.raises(ValueError):
            sphere_directions(2, 1.0, 4, (0.0, 0.0))

    @pytest.mark.parametrize("row", [[2.0, 0.0], [0.0, 0.0], [math.inf, 0.0], [1e308, 1e308]],
                             ids=["long", "zero", "inf", "overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # |(1e308, 1e308)| overflows
    def test_rejects_a_row_that_is_not_a_unit_vector(self, row):
        with pytest.raises(ValueError, match="^direction vectors must have unit norm$"):
            DirectionSet(k=1.0, unit_vectors=np.array([[1.0, 0.0], row]))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (0, 2), (1, 1), (1, 4)],
                             ids=["3d", "empty", "narrow", "wide"])
    def test_rejects_a_set_that_is_not_rows_of_directions(self, shape):
        # zero rows once made an empty set, on which asymptotic_fit failed unrelatedly
        with pytest.raises(ValueError, match=r"^directions must be at least one row of 2 "
                                             r"or 3 components per direction; got shape "
                                             + re.escape(str(shape)) + "$"):
            DirectionSet(k=1.0, unit_vectors=np.full(shape, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # |(1e308, 1e308)| overflows
    def test_rejects_an_incident_direction_of_no_finite_length(self):
        with pytest.raises(ValueError, match="incident direction must be a nonzero vector "
                                             "of finite length"):
            sphere_directions(2, 1.0, 4, (1e308, 1e308))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_nan_direction(self):
        with pytest.raises(ValueError, match="direction vectors must have unit norm"):
            DirectionSet(k=1.0, unit_vectors=np.array([[1.0, 0.0], [np.nan, 0.0]]))


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # |(1e308, 1e308, 0)| overflows
    def test_transverse_basis_rejects_an_axis_of_no_finite_length(self):
        with pytest.raises(ValueError, match="axis vector must be a nonzero vector "
                                             "of finite length"):
            transverse_basis((1e308, 1e308, 0.0))

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
    @pytest.mark.parametrize("extents,counts", [((5.0, 4.0), (16, 8)),
                                                ((4.0, 4.0, 6.0), (8, 8, 10))])
    def test_round_trip(self, tmp_path, extents, counts):
        rng = np.random.default_rng(9)
        grid = make_grid(len(counts), extents, counts)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        path = tmp_path / "field.bin"
        save_field(path, SampledField(grid, values))
        back = load_field(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, values)

    def test_the_file_bytes_are_pinned(self, tmp_path):
        # a JSON header line with sorted keys, then the values as
        # little-endian (re, im) float64 pairs in C order
        grid = make_grid(2, (5.0, 4.0), (16, 8))
        path = tmp_path / "field.bin"
        save_field(path, SampledField(grid, np.arange(128).reshape(grid.shape) * (0.25 - 0.5j)))
        header, payload = path.read_bytes().split(b"\n", 1)
        assert header == (b'{"counts": [16, 8], "dim": 2, "extents": [5.0, 4.0], '
                          b'"space": "position"}')
        assert len(payload) == 128 * 16
        assert hashlib.sha256(payload).hexdigest() == (
            "585814627e8fd26bc98f8a5b13a0ec851f15bafc4498c3c6a9e9d5de234f7eb4")

    def test_rejects_a_momentum_space_header(self, tmp_path):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        path = tmp_path / "f.field"
        save_field(path, SampledField(grid, np.ones(grid.shape)))
        path.write_bytes(path.read_bytes().replace(b'"position"', b'"momentum"', 1))
        with pytest.raises(ValueError, match='^space: expected "position", got "momentum"$'):
            load_field(path)

    def test_rejects_a_six_vector_field(self, tmp_path):
        # the header has no component count to read the payload back by
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        f = SampledField(grid, np.ones((6,) + grid.shape))
        path = tmp_path / "field.bin"
        with pytest.raises(ValueError, match="six-vector"):
            save_field(path, f)
        assert not path.exists()

    def test_rejects_an_unknown_header_key(self, tmp_path):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        path = tmp_path / "f.field"
        save_field(path, SampledField(grid, np.ones(grid.shape)))
        path.write_bytes(path.read_bytes().replace(b"{", b'{"spacing": 0.5, ', 1))
        with pytest.raises(ValueError, match='unknown key "spacing"'):
            load_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        f = SampledField(grid, np.ones(grid.shape))
        path = tmp_path / "field.bin"
        save_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload holds 63 values, expected 64"):
            load_field(path)

    @pytest.mark.parametrize("damage,message", [
        (lambda data: data + bytes(16), "payload holds 65 values, expected 64"),
        (lambda data: data[:-3], "buffer size must be a multiple of element size"),
        (lambda data: data.partition(b"\n")[0], "payload holds 0 values, expected 64"),
        (lambda data: b"{" + data, "Expecting property name enclosed in double quotes"),
    ], ids=["long", "not-whole-values", "no-newline", "bad-header"])
    def test_a_malformed_file_is_rejected(self, tmp_path, damage, message):
        grid = make_grid(2, (4.0, 4.0), (8, 8))
        path = tmp_path / "field.bin"
        save_field(path, SampledField(grid, np.ones(grid.shape)))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            load_field(path)

    def test_loading_a_slab_copies_its_box_alone_out_of_the_file_bytes(self, tmp_path):
        # the values are decoded in the bytes read, and only those on the
        # 25-column box are copied: no decoded or cropped copy of the grid
        grid = make_grid(2, (240.0, 240.0), (1024, 1024))
        values = np.zeros(grid.shape, dtype=complex)
        values[:, 500:525] = 1.0 - 2.0j
        path = tmp_path / "slab.field"
        save_field(path, SampledField(grid, values))
        load_field(path)  # numpy's first-use allocations are not the call's own
        tracemalloc.start()
        try:
            loaded = load_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.box == (slice(0, 1024), slice(500, 525))
        assert_same_bits(loaded.values, values[loaded.box])
        assert loaded.values.flags.owndata, "the field holds a view of the file's bytes"
        assert peak <= path.stat().st_size + loaded.values.nbytes + 1_000_000


# Inputs of the vector rule.  GRID2 is small enough for the quadrature oracle.
GRID2 = make_grid(2, (6.0, 6.0), (8, 8))
GRID3 = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
FIELD2 = SampledField(GRID2, np.ones(GRID2.shape))
WAVE2 = SampledField(GRID2, plane_wave(GRID2, (-0.8, 0.0)))
CONFIG2 = make_scatter_config(GRID2, 0.8, u=(1.0, 0.0), alpha=1.5, direction_count=4)
SPEC2 = PotentialSpec(alpha=1.0, u=(1.0, 0.0), a=1.0, m=2, coupling=1.0, ell_y=2.0)
NO_MEDIUM = MaterialTensors(GRID3, {})

# (parameter, its form, a good value, the public call that takes it).  The
# form is "a vector", "rows" for a point set (the value is passed as one
# row), or "unit" for a direction that unit_vector normalizes first: that
# one reports a nan or inf as a vector of no finite length.
VECTOR_INPUTS = {
    "nudft_values": ("points", "rows", (0.5, 0.0),
                     lambda v: nudft_values(FIELD2.values, GRID2, [v])),
    "sphere_directions": ("incident direction", "unit", (1.0, 0.0),
                          lambda v: sphere_directions(2, 1.0, 4, v)),
    "plane_wave": ("k_vec", "a vector", (1.0, 0.0), lambda v: plane_wave(GRID2, v)),
    "plane_wave_at": ("k_vec", "a vector", (1.0, 0.0),
                      lambda v: plane_wave_at(GRID2, v, np.zeros((1, 2), dtype=int))),
    "snap_to_momentum_lattice": ("k_vec", "a vector", (1.0, 0.0),
                                 lambda v: snap_to_momentum_lattice(GRID2, v)),
    "momentum_parallel": ("u", "a vector", (1.0, 0.0), GRID2.momentum_parallel),
    "ScatterConfig-k_vec": ("k_vec", "a vector", CONFIG2.k_vec,
                            lambda v: replace(CONFIG2, k_vec=v)),
    "ScatterConfig-u": ("u", "unit", CONFIG2.u, lambda v: replace(CONFIG2, u=v)),
    "make_scatter_config-u": ("u", "unit", (1.0, 0.0), lambda v: make_scatter_config(
        GRID2, 0.8, u=v, alpha=1.5)),
    "incident_term": ("psi0", "a vector", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                      lambda v: incident_term(CONFIG2, v)),
    "incident_six_field-e0": ("e0", "a vector", (1.0, 0.0, 0.0),
                              lambda v: incident_six_field(v, (0.0, 0.0, 1.0))),
    "incident_six_field-k_hat": ("k_hat", "unit", (0.0, 0.0, 1.0),
                                 lambda v: incident_six_field((1.0, 0.0, 0.0), v)),
    "default_polarization-k_hat": ("k_hat", "unit", (0.0, 0.0, 1.0),
                                   lambda v: default_polarization(v, (1.0, 0.0, 0.0))),
    "default_polarization-u": ("u", "unit", (1.0, 0.0, 0.0),
                               lambda v: default_polarization((0.0, 0.0, 1.0), v)),
    "slow_dft": ("points", "rows", (0.5, 0.0), lambda v: slow_dft(FIELD2.values, GRID2, [v])),
    "quad_second_order-k_vec": ("k_vec", "a vector", (-0.9, 0.0),
                                lambda v: quad_second_order(FIELD2, v, [[0.0, 0.0]], 0.3)),
    "quad_second_order-points": ("points", "rows", (0.0, 0.0),
                                 lambda v: quad_second_order(FIELD2, (-0.9, 0.0), [v], 0.3)),
    "em_quad_second_order": ("psi0", "a vector", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                             lambda v: em_quad_second_order(
                                 NO_MEDIUM, (-0.9, 0.0, 0.0), v, [[0.0, 0.0, 0.0]], 0.3)),
    "asymptotic_fit-k_vec": ("k_vec", "a vector", (-0.8, 0.0), lambda v: asymptotic_fit(
        WAVE2, v, 2.0, DirectionSet(k=0.8, unit_vectors=[[1.0, 0.0]]))),
    "potential_value": ("x", "rows", (0.0, 0.0), lambda v: potential_value(SPEC2, [v])),
    "potential_spectrum": ("p", "rows", (1.5, 0.0), lambda v: potential_spectrum(SPEC2, [v])),
    "PotentialSpec-center": ("center", "a vector", (0.0, 0.0),
                             lambda v: replace(SPEC2, center=v)),
}


class TestVectorRule:
    @pytest.mark.parametrize("bad", ["wide", "narrow", "nan", "inf"])
    @pytest.mark.parametrize("entry", VECTOR_INPUTS)
    # a nan reaching the arithmetic would warn; every bad vector is rejected before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_vector_input_is_checked_by_one_rule(self, entry, bad):
        name, form, good, call = VECTOR_INPUTS[entry]
        width = len(good)
        vector = {
            "wide": (0.0,) * width + (1.0,),  # a unit vector along one axis too many
            "narrow": (1.0,) * (width - 1),
            "nan": (math.nan,) + tuple(good[1:]),
            "inf": (math.inf,) + tuple(good[1:]),
        }[bad]
        if form == "unit" and bad in ("nan", "inf"):
            message = f"{name} must be a nonzero vector of finite length"
        else:
            form = "a vector" if form == "unit" else form
            message = f"{name} must be {form} of {width} components, all finite; got shape "
        call(good)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            call(vector)


ZERO2 = SampledField(GRID2, np.zeros(GRID2.shape))

# (parameter, its lowest value, the public call that takes it)
INTEGER_INPUTS = {
    "make_grid": ("counts", 8, lambda n: make_grid(2, (1.0, 1.0), (n, 8))),
    "make_scatter_config-n_orders": ("n_orders", 0, lambda n: make_scatter_config(
        GRID2, 0.8, u=(1.0, 0.0), alpha=1.5, n_orders=n)),
    "ScatterConfig-n_orders": ("n_orders", 0, lambda n: replace(CONFIG2, n_orders=n)),
    "make_scatter_config-direction_count": ("direction_count", 1, lambda n: make_scatter_config(
        GRID2, 0.8, u=(1.0, 0.0), alpha=1.5, direction_count=n)),
    "sphere_directions": ("direction_count", 1,
                          lambda n: sphere_directions(2, 1.0, n, (1.0, 0.0))),
    "converged_solution": ("order_cap", 1,
                           lambda n: converged_solution(CONFIG2, ZERO2, order_cap=n)),
    "verify_convolution_support": ("trials", 1, lambda n: verify_convolution_support(
        GRID2, (1.0, 0.0), 0.0, 0.0, trials=n)),
    "PotentialSpec-m": ("m", 1, lambda n: replace(SPEC2, m=n)),
}


class TestIntegerRule:
    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, "below"])
    @pytest.mark.parametrize("entry", INTEGER_INPUTS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_count_input_is_checked_by_one_rule(self, entry, bad):
        name, low, call = INTEGER_INPUTS[entry]
        value = low - 1 if bad == "below" else bad
        call(float(low))  # an integral float is a count
        with pytest.raises(ValueError, match=f"^{name} = {re.escape(str(value))} must be "
                                             f"an integer (>= {low}|in \\[{low}, )"):
            call(value)

    def test_a_count_comes_back_as_an_int(self):
        assert make_grid(2, (1.0, 1.0), (np.int64(8), 8.0)).counts == (8, 8)
        n_orders = replace(CONFIG2, n_orders=np.int64(3)).n_orders
        assert type(n_orders) is int and n_orders == 3
        assert len(sphere_directions(2, 1.0, np.int32(3), (1.0, 0.0)).unit_vectors) == 3
