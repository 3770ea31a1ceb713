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

from bornscat.grids import Space, forward_ft, make_grid, nudft
from bornscat.potentials import (
    PotentialSpec,
    PotentialSum,
    potential_spectrum,
    potential_value,
    sample_potential,
    spec_from_dict,
    spec_to_dict,
    unit_step,
    verify_support,
)


def family_2d(**overrides):
    params = dict(alpha=1.0, u=(1.0, 0.0), a=1.0, m=2, coupling=1.0, ell_y=2.0)
    params.update(overrides)
    return PotentialSpec(**params)


class TestUnitStep:
    def test_values(self):
        assert unit_step(-0.5) == 0
        assert unit_step(0.0) == 1
        assert unit_step(3.0) == 1

    def test_vectorized(self):
        np.testing.assert_array_equal(
            unit_step(np.array([-1.0, 0.0, 2.0])), [0, 1, 1]
        )


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


class TestVerifySupport:
    def test_family_passes(self):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (512, 512))
        report = verify_support(spec, tol=1e-3, grid=grid)
        assert report.passed
        assert report.ratio < 1e-3
        assert report.overall_max > 1.0

    def test_field_route_matches_spec_route(self):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (128, 128))
        f = sample_potential(spec, grid)
        r1 = verify_support(f, u=(1.0, 0.0), alpha=1.0, tol=1e-3)
        r2 = verify_support(spec, tol=1e-3, grid=grid)
        assert r1.forbidden_max == r2.forbidden_max
        assert r1.overall_max == r2.overall_max

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

    def test_report_dict(self):
        spec = family_2d()
        grid = make_grid(2, (60.0, 60.0), (128, 128))
        d = verify_support(spec, tol=1e-3, grid=grid).to_dict()
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
