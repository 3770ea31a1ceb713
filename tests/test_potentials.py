"""Potential family tests.

Frozen reference values come from the closed forms evaluated by hand:
at x = (1, 0, 0) with alpha = a = 1, m = 1 the profile is
exp(i)/(1-i)^2 = exp(i)*i/2, and the transform at p = (2, 0, 0) with
ell_y = ell_z = 2 is 2*pi*exp(-1)*2*2 = 8*pi/e.  The transform itself is
cross-checked against a direct Fourier sum on a fine grid whose nodes
straddle the slab edges symmetrically (edge exactly mid-cell), which is the
sampling that represents a sharp-edged slab faithfully.
"""

import math
import warnings

import numpy as np
import pytest
from bit_identity import GRID_SHAPES, assert_same_bits

from bornscat.grids import Space, forward_ft, make_grid, nudft
from bornscat.potentials import (
    PotentialSpec,
    PotentialSum,
    potential_spectrum,
    potential_value,
    sample_potential,
    spec_from_dict,
    spec_to_dict,
    verify_support,
)


def family_2d(**overrides):
    params = dict(alpha=1.0, u=(1.0, 0.0), a=1.0, m=2, coupling=1.0, ell_y=2.0)
    params.update(overrides)
    return PotentialSpec(**params)


class TestPotentialValue:
    def test_at_center(self):
        spec = family_2d(coupling=2.5 - 1.0j)
        assert potential_value(spec, np.zeros(2)) == pytest.approx(2.5 - 1.0j)

    def test_outside_slab_is_zero(self):
        spec = family_2d()
        assert potential_value(spec, np.array([0.0, 1.0001])) == 0.0
        assert potential_value(spec, np.array([0.0, 1.0])) != 0.0  # inclusive edge

    def test_longitudinal_profile_value(self):
        spec = PotentialSpec(
            alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=1, coupling=1.0,
            ell_y=2.0, ell_z=2.0,
        )
        got = potential_value(spec, np.array([1.0, 0.0, 0.0]))
        expected = np.exp(1j) * 1j / 2  # exp(i)/(1-i)^2
        assert got == pytest.approx(expected)
        np.testing.assert_allclose([got.real, got.imag], [-0.4207, 0.2702], atol=5e-5)

    def test_3d_outside_z_slab(self):
        spec = PotentialSpec(
            alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=1, coupling=1.0,
            ell_y=2.0, ell_z=1.0,
        )
        assert potential_value(spec, np.array([0.0, 0.0, 0.51])) == 0.0

    def test_center_offset(self):
        spec = family_2d(center=(3.0, 0.5))
        shifted = potential_value(spec, np.array([3.0, 0.5]))
        assert shifted == pytest.approx(potential_value(family_2d(), np.zeros(2)))

    def test_batch_shape(self):
        spec = family_2d()
        x = np.zeros((4, 5, 2))
        assert potential_value(spec, x).shape == (4, 5)


class TestPotentialSpectrum:
    def test_vanishes_on_forbidden_halfspace(self):
        spec = family_2d()
        p = np.array([[0.999, 0.3], [-5.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(potential_spectrum(spec, p), 0.0)

    def test_zero_exactly_at_threshold(self):
        # m >= 1 makes the gated profile continuous: (a*0)**m = 0
        spec = family_2d()
        assert potential_spectrum(spec, np.array([1.0, 0.0])) == 0.0

    def test_frozen_3d_value(self):
        spec = PotentialSpec(
            alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=1, coupling=1.0,
            ell_y=2.0, ell_z=2.0,
        )
        got = potential_spectrum(spec, np.array([2.0, 0.0, 0.0]))
        assert got == pytest.approx(8.0 * np.pi / np.e)

    def test_transverse_sinc_factor(self):
        spec = family_2d()
        base = potential_spectrum(spec, np.array([2.0, 0.0]))
        off = potential_spectrum(spec, np.array([2.0, 1.3]))
        assert off == pytest.approx(base * np.sin(1.3) / 1.3)

    def test_center_phase_only(self):
        spec = family_2d(center=(2.0, -1.0))
        p = np.array([3.0, 0.7])
        got = potential_spectrum(spec, p)
        base = potential_spectrum(family_2d(), p)
        assert abs(got) == pytest.approx(abs(base))
        assert got == pytest.approx(base * np.exp(-1j * (p @ np.array([2.0, -1.0]))))

    def test_no_overflow_far_below_threshold(self):
        spec = family_2d()
        out = potential_spectrum(spec, np.array([-1e4, 0.0]))
        assert out == 0.0 and np.isfinite(out)

    def test_sum_of_one_matches_member(self):
        spec = family_2d()
        total = PotentialSum((spec,))
        p = np.array([[2.5, 0.4], [0.2, -1.0]])
        np.testing.assert_array_equal(
            potential_spectrum(total, p), potential_spectrum(spec, p)
        )

    def test_sum_is_linear(self):
        spec = family_2d()
        double = PotentialSum((spec, spec))
        p = np.array([2.5, 0.4])
        assert potential_spectrum(double, p) == pytest.approx(
            2.0 * potential_spectrum(spec, p)
        )

    def test_sum_gates_by_member_threshold(self):
        low = family_2d(alpha=1.0)
        high = family_2d(alpha=2.0)
        total = PotentialSum((low, high))
        p = np.array([1.5, 0.0])
        # only the alpha = 1 member reaches below p_par = 2
        assert potential_spectrum(total, p) == pytest.approx(
            potential_spectrum(low, p)
        )
        assert potential_spectrum(total, np.array([0.9, 0.0])) == 0.0

    def test_matches_direct_sum_on_aligned_grid(self):
        # grid chosen so the slab edge sits exactly between nodes: the
        # sampled slab then carries the ideal width and the direct Fourier
        # sum reproduces the closed form to well below 1e-3 of its peak.
        spec = family_2d()
        grid = make_grid(2, (56.0, 56.0), (1988, 1988))
        f = sample_potential(spec, grid)
        rng = np.random.default_rng(42)
        points = np.column_stack(
            [rng.uniform(-1.0, 9.0, 50), rng.uniform(-4.5, 4.5, 50)]
        )
        closed = potential_spectrum(spec, points)
        direct = nudft(f, points)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - direct)) / scale < 1e-3


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            family_2d(alpha=0.0)
        with pytest.raises(ValueError):
            family_2d(a=-1.0)
        with pytest.raises(ValueError):
            family_2d(m=0)
        with pytest.raises(ValueError):
            family_2d(ell_y=0.0)
        with pytest.raises(ValueError):
            family_2d(u=(0.0, 0.0))
        with pytest.raises(ValueError):
            PotentialSpec(
                alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=1, coupling=1.0, ell_y=2.0
            )  # missing ell_z in 3D

    @pytest.mark.parametrize("u", [(1e308, 1e308), (np.nan, 1.0), (np.inf, 0.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # |(1e308, 1e308)| overflows
    def test_rejects_an_axis_of_no_finite_length(self, u):
        with pytest.raises(ValueError, match="finite length"):
            family_2d(u=u)

    def test_u_is_normalized(self):
        spec = family_2d(u=(2.0, 0.0))
        np.testing.assert_allclose(spec.u, (1.0, 0.0))

    def test_sum_needs_shared_axis(self):
        with pytest.raises(ValueError):
            PotentialSum((family_2d(u=(1.0, 0.0)), family_2d(u=(0.0, 1.0))))
        with pytest.raises(ValueError):
            PotentialSum(())

    def test_sum_alpha_min(self):
        total = PotentialSum((family_2d(alpha=2.0), family_2d(alpha=1.5)))
        assert total.alpha_min == 1.5


class TestSamplePotential:
    def test_matches_pointwise_eval(self):
        spec = family_2d()
        grid = make_grid(2, (40.0, 40.0), (64, 64))
        f = sample_potential(spec, grid)
        assert f.space is Space.POSITION
        i, j = 33, 40
        x = np.array([grid.position_axis(0)[i], grid.position_axis(1)[j]])
        assert f.values[i, j] == potential_value(spec, x)

    def test_no_warning_on_adequate_box(self):
        spec = family_2d()
        grid = make_grid(2, (40.0, 40.0), (64, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sample_potential(spec, grid)
        # boundary magnitude for m=2, L=40a: (1 + 20^2)^(-3/2) of the peak
        edge = np.max(np.abs(f.values[0, :]))
        assert edge / np.max(np.abs(f.values)) == pytest.approx(
            (1.0 + 400.0) ** -1.5, rel=1e-6
        )

    def test_warns_on_truncating_box(self):
        spec = family_2d(m=1)
        grid = make_grid(2, (10.0, 10.0), (32, 32))
        with pytest.warns(UserWarning, match="boundary"):
            sample_potential(spec, grid)

    def test_dim_mismatch(self):
        grid = make_grid(3, (10.0, 10.0, 10.0), (8, 8, 8))
        with pytest.raises(ValueError):
            sample_potential(family_2d(), grid)


def whole_grid_value(subject, grid):
    """potential_value at every node, from the stacked (..., d) positions."""
    x = np.stack(np.broadcast_arrays(*grid.position_mesh()), axis=-1)
    return potential_value(subject, x)


def spec_along(u, dim, center=(), coupling=1.0, **overrides):
    params = dict(alpha=0.9, u=tuple(u[:dim]), a=1.3, m=2, coupling=coupling, ell_y=2.0,
                  ell_z=3.0 if dim == 3 else 0.0, center=tuple(center[:dim]))
    params.update(overrides)
    return PotentialSpec(**params)


# u along +x, -x, +y and -y; two of them with a nonzero center, two with a
# complex coupling.
AXIS_CASES = {
    "+x": dict(u=(1.0, 0.0, 0.0), center=(0.3, -1.1, 0.7), coupling=0.7 - 0.4j),
    "-x": dict(u=(-1.0, 0.0, 0.0), center=(0.3, -1.1, 0.7)),
    "+y": dict(u=(0.0, 1.0, 0.0), coupling=-0.2 + 1.3j),
    "-y": dict(u=(0.0, -1.0, 0.0)),
}
# Every case on the shared grids and 96^3; 3072^2 (the far-field grid) on +x
# only, since its whole-grid reference takes seconds.
SEPARABLE_CASES = [
    pytest.param(shape, axis, id=f"{'x'.join(map(str, shape))}-{axis}")
    for shape in GRID_SHAPES + [(96, 96, 96)]
    for axis in AXIS_CASES
] + [pytest.param((3072, 3072), "+x", id="3072x3072-+x")]


def node_grid(shape):
    """Spacing 0.25, so slab edges and centers fall on nodes."""
    return make_grid(len(shape), tuple(0.25 * n for n in shape), shape)


@pytest.mark.filterwarnings("ignore:potential magnitude")
class TestSeparableSampling:
    """sample_potential builds an axis-aligned member from its 1-D factors,
    bit for bit the whole-grid expression, on any number of pool threads."""

    @pytest.mark.parametrize("shape,axis", SEPARABLE_CASES)
    def test_axis_aligned_member(self, pool_workers, shape, axis):
        grid = node_grid(shape)
        spec = spec_along(dim=grid.dim, **AXIS_CASES[axis])
        assert_same_bits(sample_potential(spec, grid).values, whole_grid_value(spec, grid))

    @pytest.mark.parametrize("shape", [(128, 128), (16, 128, 96)], ids=str)
    def test_sum_adds_members_in_order(self, pool_workers, shape):
        grid = node_grid(shape)
        dim = grid.dim
        total = PotentialSum((
            spec_along((0.0, -1.0, 0.0), dim, coupling=0.5 + 0.5j),
            spec_along((0.0, -1.0, 0.0), dim, center=(1.0, 0.25, -0.5), alpha=1.7, m=1),
            spec_along((0.0, -1.0, 0.0), dim, coupling=-1.0, a=0.6, ell_y=1.0),
        ))
        assert_same_bits(sample_potential(total, grid).values, whole_grid_value(total, grid))

    @pytest.mark.parametrize("u", [(1.0, 1.0, 0.0), (0.6, 0.0, 0.8), (1.0, 1e-9, 0.0)],
                             ids=["xy", "xz", "nearly-x"])
    def test_oblique_axis_takes_the_whole_grid_path(self, pool_workers, u):
        grid = node_grid((32, 24, 16))
        spec = spec_along(u, 3, center=(0.1, 0.2, 0.3), coupling=1.0 - 2.0j)
        assert_same_bits(sample_potential(spec, grid).values, whole_grid_value(spec, grid))

    def test_slab_widths_follow_the_frame(self):
        # u = -y puts ell_y along z and ell_z along -x.
        grid = node_grid((32, 32, 32))
        spec = spec_along((0.0, -1.0, 0.0), 3, ell_y=1.0, ell_z=3.0)
        support = np.abs(sample_potential(spec, grid).values) > 0
        x, _, z = (axis.ravel() for axis in grid.position_mesh())
        assert np.array_equal(support.any(axis=(1, 2)), np.abs(x) <= 1.5)
        assert np.array_equal(support.any(axis=(0, 1)), np.abs(z) <= 0.5)

    @pytest.mark.parametrize("shape,axis,m", [
        ((32, 32), "+x", 1), ((32, 32), "-y", 3), ((256, 256), "+y", 3),
        ((16, 12, 10), "-x", 1), ((48, 48, 48), "+x", 4),
    ])
    def test_box_warning_as_for_the_whole_grid(self, shape, axis, m):
        # The warning's rule and text, applied to the whole-grid values.
        grid = node_grid(shape)
        spec = spec_along(dim=grid.dim, m=m, **AXIS_CASES[axis])
        values = whole_grid_value(spec, grid)
        overall = float(np.max(np.abs(values)))
        edge = max(float(np.max(np.abs(np.take(values, index, axis=face_axis))))
                   for face_axis in range(grid.dim) for index in (0, -1))
        expected = []
        if edge > 1e-3 * overall:
            expected.append(
                f"potential magnitude at the box boundary is {edge:.3e}, "
                f"more than 0.001 of its maximum {overall:.3e}; "
                "enlarge the box to reduce truncation"
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample_potential(spec, grid)
        assert [str(w.message) for w in caught] == expected


class TestVerifySupport:
    def test_family_passes(self):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (512, 512))
        report = verify_support(sample_potential(spec, grid), u=spec.u, alpha=spec.alpha,
                                tol=1e-3)
        assert report.passed
        assert report.ratio < 1e-3
        assert report.overall_max > 1.0

    def test_two_sided_gaussian_fails(self):
        grid = make_grid(2, (30.0, 30.0), (128, 128))
        r2 = np.zeros(grid.shape)
        for x in grid.position_mesh():
            r2 = r2 + x * x
        from bornscat.grids import SampledField

        gauss = SampledField(grid, np.exp(-r2), Space.POSITION)
        report = verify_support(gauss, u=(1.0, 0.0), alpha=1.0, tol=1e-3)
        assert not report.passed
        assert report.ratio > 1e-1

    def test_zero_potential_rejected(self):
        grid = make_grid(2, (30.0, 30.0), (32, 32))
        from bornscat.grids import SampledField

        zero = SampledField(grid, np.zeros(grid.shape), Space.POSITION)
        with pytest.raises(ValueError, match="zero"):
            verify_support(zero, u=(1.0, 0.0), alpha=1.0)

    @pytest.mark.parametrize("u", [(1e308, 1e308), (0.0, 0.0), (np.nan, 1.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_axis_of_no_finite_length(self, u):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (64, 64))
        with pytest.raises(ValueError, match="u must be a nonzero vector of finite length"):
            verify_support(sample_potential(spec, grid), u=u, alpha=spec.alpha, tol=1e-3)

    def test_report_dict(self):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (128, 128))
        d = verify_support(sample_potential(spec, grid), u=spec.u, alpha=spec.alpha,
                           tol=1e-3).to_dict()
        assert set(d) == {
            "alpha", "u", "forbidden_max", "overall_max", "ratio", "tol", "pass"
        }


class TestSerde:
    def test_round_trip_spec(self):
        spec = PotentialSpec(
            alpha=1.5, u=(0.0, 1.0), a=2.0, m=3, coupling=0.5 + 0.25j,
            ell_y=1.0, center=(1.0, -2.0),
        )
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_round_trip_sum(self):
        total = PotentialSum((family_2d(alpha=1.0), family_2d(alpha=2.0)))
        again = spec_from_dict(spec_to_dict(total))
        assert again == total

    def test_json_compatible(self):
        import json

        payload = json.dumps(spec_to_dict(family_2d()))
        assert spec_from_dict(json.loads(payload)) == family_2d()
