"""Tests for the six-component electromagnetic engine."""

import re
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from bit_identity import assert_same_bits

from bornscat.em import (
    MaterialTensors,
    apply_material,
    certify_materials,
    default_polarization,
    em_born_series,
    em_born_step,
    em_kernel_apply,
    em_on_shell_numerator,
    incident_six_field,
    material_from_entries,
    material_from_scalar,
    verify_em_exactness,
    verify_em_order_bands,
    verify_em_spectral_floor,
    write_em_on_shell_csv,
)
from bornscat.grids import (
    SampledField, fft_values, ifft_values, make_grid, plane_wave
)
from bornscat.potentials import PotentialSpec, sample_potential
from bornscat.scalar import (
    BornTerm,
    born_orders,
    DivergenceError,
    make_scatter_config,
    on_shell_numerator,
    born_series,
    green_factor,
    incident_term,
    propagate,
    verify_exactness,
)

pytestmark = pytest.mark.filterwarnings("ignore:potential magnitude")


def family(**overrides):
    kwargs = dict(alpha=1.0, u=(1.0, 0.0, 0.0), a=1.0, m=2, coupling=1.0,
                  ell_y=2.0, ell_z=2.0)
    kwargs.update(overrides)
    return PotentialSpec(**kwargs)


def setup(counts=(48, 16, 16), extents=(14.0, 6.0, 6.0), k=0.8, n_orders=3):
    grid = make_grid(3, extents, counts)
    spec = family()
    cfg = make_scatter_config(grid, k, spec, n_orders=n_orders)
    return grid, spec, cfg


def random_six(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((6,) + grid.shape) \
        + 1j * rng.standard_normal((6,) + grid.shape)
    return SampledField(grid, vals)


class TestSixField:
    def test_blocks_and_norms(self):
        # a six-vector field's node norm and maximum combine its E and H blocks
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        six = random_six(grid)
        e_block, h_block = six.values[:3], six.values[3:]
        norms = six.node_norms()
        assert norms.shape == grid.shape
        np.testing.assert_allclose(
            norms**2,
            np.sum(np.abs(e_block) ** 2, axis=0) + np.sum(np.abs(h_block) ** 2, axis=0),
            rtol=1e-12,
        )
        assert six.max_abs() == max(np.max(np.abs(e_block)), np.max(np.abs(h_block)))


class TestSixVectorField:
    """A SampledField holding the six-vector, E over H, at every node."""

    def test_accepted(self, pool_workers):
        # (6,) + 32^3 complex values are 3 MiB: more than one block for every pool
        grid = make_grid(3, (12.0, 12.0, 12.0), (32, 32, 32))
        values = np.ones((6,) + grid.shape, dtype=complex)
        assert np.array_equal(SampledField(grid, values).values, values)

    @pytest.mark.parametrize("lead", [(6, 6), (3,)], ids=["6x6", "3"])
    def test_rejects_other_component_counts(self, lead):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        with pytest.raises(ValueError, match="shape"):
            SampledField(grid, np.zeros(lead + grid.shape))


# Six-component stacks the threaded passes are checked on.
SIX_SHAPES = [(8, 8, 8), (32, 32, 32)]


def single_threaded_kernel(w, k):
    # em_kernel_apply as whole-array expressions
    p_mesh = w.grid.momentum_mesh()
    out = np.empty_like(w.values)
    for offset, sign in ((0, 1.0), (3, -1.0)):
        block = w.values[offset : offset + 3]
        other = w.values[3 - offset : 6 - offset]
        p_dot = sum(p_mesh[i] * block[i] for i in range(3))
        longitudinal = np.stack([p_mesh[i] * p_dot for i in range(3)])
        cross = np.stack([
            p_mesh[1] * other[2] - p_mesh[2] * other[1],
            p_mesh[2] * other[0] - p_mesh[0] * other[2],
            p_mesh[0] * other[1] - p_mesh[1] * other[0],
        ])
        out[offset : offset + 3] = -k * k * block + longitudinal + sign * k * cross
    return out


def from_dense(grid, eps, mu):
    """The medium of dense (3, 3) + grid.shape tensors, every entry in the map."""
    return MaterialTensors(grid, {
        (block, i, j): tensor[i, j]
        for block, tensor in enumerate((eps, mu)) for i, j in np.ndindex(3, 3)
    })


def dense(materials, block):
    """delta-eps (block 0) or delta-mu (block 1) as a dense (3, 3) + grid.shape array."""
    tensor = np.zeros((3, 3) + materials.grid.shape, dtype=complex)
    for (b, i, j), values in materials.entries.items():
        if b == block:
            tensor[i, j] = values
    return tensor


def dense_medium(grid, seed=0):
    rng = np.random.default_rng(seed)
    eps, mu = (rng.standard_normal((3, 3) + grid.shape)
               + 1j * rng.standard_normal((3, 3) + grid.shape) for _ in range(2))
    return from_dense(grid, eps, mu)


def isotropic_medium(grid, seed=0):
    return MaterialTensors.isotropic(grid, random_six(grid, seed).values[0])


def magnetic_medium(grid, seed=0):
    values = random_six(grid, seed).values
    return MaterialTensors(grid, {
        (0, 0, 0): values[0], (0, 0, 2): values[1], (0, 2, 1): values[2],
        (1, 1, 1): values[3], (1, 2, 0): values[4], (1, 2, 2): values[3],
    })


def zero_medium(grid, seed=0):
    return MaterialTensors(grid, {})


MEDIA = [dense_medium, isotropic_medium, magnetic_medium, zero_medium]


def whole_array_material_product(materials, six):
    # apply_material as whole-array expressions on the six-vector values on
    # the grid: each row's stored entries times the components they meet,
    # summed left to right in ascending column
    rows = {}
    for (block, i, j), values in materials.entries.items():
        product = values * six[3 * block + j]
        row = 3 * block + i
        rows[row] = rows[row] + product if row in rows else product
    out = np.zeros_like(six)
    for row, values in rows.items():
        out[row] = values
    return out


def on_box(values, box):
    """values on a grid box, component axes kept."""
    return values[(slice(None),) + box]


def assert_zero_off_box(values, box):
    """Every component of values is exactly zero at the nodes outside box."""
    outside = values.copy()
    outside[(slice(None),) + box] = 0
    assert not np.any(outside)


class TestThreadedPasses:
    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_kernel(self, pool_workers, counts):
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        w = random_six(grid, seed=sum(counts))
        before = w.values.copy()
        assert_same_bits(em_kernel_apply(w.values, grid, 1.7), single_threaded_kernel(w, 1.7))
        assert np.array_equal(w.values, before), "input was modified"

    @pytest.mark.parametrize("rows", [3, 6])
    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_kernel_in_place(self, pool_workers, counts, rows):
        # W in the leading rows of the output, as em_born_step builds it
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        out = random_six(grid, seed=sum(counts)).values
        want = em_kernel_apply(out[:rows].copy(), grid, 1.7)
        assert em_kernel_apply(out[:rows], grid, 1.7, out=out) is out
        assert_same_bits(out, want)

    @pytest.mark.parametrize("medium", MEDIA)
    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_material_product(self, pool_workers, counts, medium):
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        mats = medium(grid, seed=sum(counts))
        six = random_six(grid, seed=1 + sum(counts)).values
        before = six.copy()
        want = whole_array_material_product(mats, six)
        assert_same_bits(apply_material(mats, on_box(six, mats.box)), on_box(want, mats.box))
        if not mats.is_magnetic:
            # the E rows alone give the same product
            assert_same_bits(apply_material(mats, on_box(six[:3], mats.box)),
                             on_box(want, mats.box))
        assert_zero_off_box(want, mats.box)
        assert np.array_equal(six, before), "input was modified"

    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_norms_and_max(self, pool_workers, counts):
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        six = random_six(grid, seed=sum(counts))
        before = six.values.copy()
        assert_same_bits(six.node_norms(), np.sqrt(np.sum(np.abs(six.values) ** 2, axis=0)))
        assert six.max_abs() == float(np.max(np.abs(six.values)))
        assert np.array_equal(six.values, before), "input was modified"

    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_propagate_broadcasts_the_propagator(self, pool_workers, counts):
        # alpha at least one momentum cell along u (2.12 on the 8^3 box)
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        cfg = make_scatter_config(grid, 2.0, u=(1.0, 0.0, 0.0), alpha=2.5, n_orders=2)
        numerator = random_six(grid, seed=sum(counts)).values
        before = numerator.copy()
        propagator = green_factor(grid.momentum_sq, cfg.k, cfg.epsilon)
        want = ifft_values(propagator * numerator, grid)
        assert_same_bits(propagate(numerator, cfg, np.empty_like(numerator)), want)
        assert np.array_equal(numerator, before), "input was modified"

    @pytest.mark.parametrize("counts", SIX_SHAPES)
    def test_incident_term(self, pool_workers, counts):
        grid = make_grid(3, tuple(0.37 * n for n in counts), counts)
        cfg = make_scatter_config(grid, 2.0, u=(1.0, 0.0, 0.0), alpha=2.5, n_orders=2)
        psi0 = incident_six_field(default_polarization(cfg.k_hat, cfg.u), cfg.k_hat)
        want = psi0.reshape((6, 1, 1, 1)) * plane_wave(grid, cfg.k_vec)
        assert_same_bits(incident_term(cfg, psi0).field, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_in_the_last_block(self, pool_workers, bad):
        # (6,) + 32^3 complex values are 3 MiB: more than one block for every pool
        grid = make_grid(3, (12.0, 12.0, 12.0), (32, 32, 32))
        values = np.ones((6,) + grid.shape, dtype=complex)
        values[-1, -1, -1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            SampledField(grid, values)


class TestMaterialTensors:
    def test_shape_and_dim_validation(self):
        grid3 = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        with pytest.raises(ValueError, match=r"mu\[1,2\] must have shape"):
            MaterialTensors(grid3, {(1, 1, 2): np.ones((3,) + grid3.shape)})
        grid2 = make_grid(2, (4.0, 4.0), (8, 8))
        with pytest.raises(ValueError, match="3D"):
            MaterialTensors(grid2, {(0, 0, 0): np.ones(grid2.shape)})

    def test_boundary_truncation_warning(self):
        grid = make_grid(3, (8.0, 6.0, 6.0), (16, 8, 8))
        with pytest.warns(UserWarning, match="boundary"):
            material_from_scalar(family(), grid, which="eps")

    def test_zero_tensors_stay_silent(self):
        grid = make_grid(3, (8.0, 6.0, 6.0), (8, 8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats = MaterialTensors(grid, {(1, 2, 2): np.zeros(grid.shape)})
        assert mats.entries == {} and not mats.is_magnetic


class TestIncidentSixField:
    @pytest.mark.parametrize("e0,k_hat,expected", [
        ((1, 0, 0), (0, 0, 1), (1, 0, 0, 0, 1, 0)),
        ((0, 1, 0), (0, 0, 1), (0, 1, 0, -1, 0, 0)),
    ])
    def test_cross_product_layout(self, e0, k_hat, expected):
        np.testing.assert_allclose(incident_six_field(e0, k_hat), expected,
                                   atol=1e-15)

    def test_rejects_longitudinal_polarization(self):
        with pytest.raises(ValueError, match="transverse"):
            incident_six_field((0, 0, 1), (0, 0, 1))

    def test_rejects_zero_polarization(self):
        with pytest.raises(ValueError, match="nonzero"):
            incident_six_field((0, 0, 0), (0, 0, 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_zero_propagation_direction(self):
        with pytest.raises(ValueError, match="k_hat must be a nonzero vector of finite length"):
            incident_six_field((1, 0, 0), (0, 0, 0))


class TestDefaultPolarization:
    def test_perpendicular_to_both_when_possible(self):
        e0 = default_polarization((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        assert abs(e0 @ np.array([0.0, 0.0, 1.0])) < 1e-12
        assert abs(e0 @ np.array([1.0, 0.0, 0.0])) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(e0), 1.0, rtol=1e-12)

    def test_propagation_along_support_axis(self):
        e0 = default_polarization((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert abs(e0 @ np.array([1.0, 0.0, 0.0])) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(e0), 1.0, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_zero_propagation_direction(self):
        with pytest.raises(ValueError, match="k_hat must be a nonzero vector of finite length"):
            default_polarization((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


class TestMaterials:
    def test_isotropic_diagonal_entries(self):
        grid = make_grid(3, (14.0, 6.0, 6.0), (16, 8, 8))
        spec = family()
        mats = material_from_scalar(spec, grid, which="eps", scale=2.0 - 1.0j)
        v = sample_potential(spec, grid).values
        for i in range(3):
            np.testing.assert_allclose(dense(mats, 0)[i, i], (2.0 - 1.0j) * v,
                                       rtol=1e-15)
            for j in range(3):
                if i != j:
                    assert not np.any(dense(mats, 0)[i, j])
        assert not np.any(dense(mats, 1))

    def test_zero_scale_gives_zero_tensors(self):
        grid = make_grid(3, (14.0, 6.0, 6.0), (16, 8, 8))
        mats = material_from_scalar(family(), grid, which="both", scale=0.0)
        assert not np.any(dense(mats, 0)) and not np.any(dense(mats, 1))

    def test_which_routes_and_validates(self):
        grid = make_grid(3, (14.0, 6.0, 6.0), (16, 8, 8))
        mats = material_from_scalar(family(), grid, which="mu")
        assert mats.is_magnetic and not np.any(dense(mats, 0))
        with pytest.raises(ValueError, match="which"):
            material_from_scalar(family(), grid, which="nu")

    def test_isotropic_entries_share_one_array(self):
        grid = make_grid(3, (14.0, 6.0, 6.0), (16, 8, 8))
        mats = material_from_scalar(family(), grid, which="both", scale=0.5)
        assert list(mats.entries) == [(b, i, i) for b in (0, 1) for i in range(3)]
        shared = mats.entries[(0, 0, 0)]
        assert all(values is shared for values in mats.entries.values())
        assert shared.shape == grid.shape
        np.testing.assert_array_equal(
            shared, 0.5 * sample_potential(family(), grid).values)

    def test_map_constructor_keeps_nonzero_entries(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        eps = np.zeros((3, 3) + grid.shape, dtype=complex)
        mu = np.zeros((3, 3) + grid.shape, dtype=complex)
        eps[0, 1, 2, 3, 4] = 1.0 - 2.0j
        mu[2, 2] = 0.5
        mats = MaterialTensors(grid, {
            (1, 2, 2): mu[2, 2], (0, 2, 0): eps[2, 0], (0, 0, 1): eps[0, 1],
        })
        assert list(mats.entries) == [(0, 0, 1), (1, 2, 2)]
        assert mats.is_magnetic
        np.testing.assert_array_equal(dense(mats, 0), eps)
        np.testing.assert_array_equal(dense(mats, 1), mu)

    def test_entry_map_validation(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        bad = np.ones(grid.shape, dtype=complex)
        bad[-1, -1, -1] = np.inf
        with pytest.raises(ValueError, match="mu entries must be finite"):
            MaterialTensors(grid, {(1, 0, 2): bad})
        with pytest.raises(ValueError, match=r"tensor index \(2, 0, 0\) out of range"):
            MaterialTensors(grid, {(2, 0, 0): np.ones(grid.shape)})
        with pytest.raises(ValueError, match="shape"):
            MaterialTensors(grid, {(0, 0, 0): np.ones((8, 8))})
        zero = MaterialTensors(grid, {(1, 0, 0): np.zeros(grid.shape)})
        assert zero.entries == {} and not zero.is_magnetic

    def test_entrywise_assembly(self):
        grid = make_grid(3, (14.0, 6.0, 6.0), (16, 8, 8))
        spec = family()
        mats = material_from_entries(grid, eps_entries={(0, 1): spec})
        v = sample_potential(spec, grid).values
        np.testing.assert_array_equal(dense(mats, 0)[0, 1], v)
        assert not np.any(dense(mats, 0)[1, 0])
        with pytest.raises(ValueError, match="index"):
            material_from_entries(grid, eps_entries={(0, 3): spec})

    def test_certification_covers_nonzero_entries(self):
        # transverse extents hug the exact slab support, so all leakage
        # lives along the support axis where the 2D case is certified
        grid = make_grid(3, (60.0, 6.0, 6.0), (512, 24, 24))
        mats = material_from_scalar(family(), grid, which="eps")
        reports = certify_materials(mats, u=(1.0, 0.0, 0.0), alpha=1.0)
        assert sorted(reports) == ["eps[0,0]", "eps[1,1]", "eps[2,2]"]
        assert all(r.passed for r in reports.values())
        assert max(r.ratio for r in reports.values()) < 1e-3


class TestApplyMaterial:
    def test_matches_manual_tensor_product(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        rng = np.random.default_rng(9)
        eps = rng.standard_normal((3, 3) + grid.shape) * (1 + 0j)
        mu = rng.standard_normal((3, 3) + grid.shape) * (1 + 0j)
        mats = from_dense(grid, eps, mu)
        six = random_six(grid, seed=4)
        out = apply_material(mats, on_box(six.values, mats.box))
        assert out.shape == six.values.shape  # dense entries: the box is the whole grid
        node = (1, 2, 3)
        sel = (slice(None), slice(None)) + node
        want_e = eps[sel] @ six.values[(slice(0, 3),) + node]
        want_h = mu[sel] @ six.values[(slice(3, 6),) + node]
        np.testing.assert_allclose(out[(slice(0, 3),) + node], want_e,
                                   rtol=1e-12)
        np.testing.assert_allclose(out[(slice(3, 6),) + node], want_h,
                                   rtol=1e-12)

    @pytest.mark.parametrize("medium", MEDIA)
    def test_matches_dense_einsum(self, medium):
        grid = make_grid(3, (4.0, 5.0, 6.0), (16, 8, 12))
        mats = medium(grid, seed=5)
        six = random_six(grid, seed=6)
        want = np.concatenate([
            np.einsum("ij...,j...->i...", dense(mats, 0), six.values[:3]),
            np.einsum("ij...,j...->i...", dense(mats, 1), six.values[3:]),
        ])
        got = apply_material(mats, on_box(six.values, mats.box))
        assert_zero_off_box(want, mats.box)
        want = on_box(want, mats.box)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * np.max(np.abs(want), initial=0.0)
        if not mats.is_magnetic:
            assert not np.any(got[3:])

    def test_rejects_values_that_do_not_fill_the_box(self):
        # the whole grid's values, where the medium's box is a slab
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        slab = np.zeros(grid.shape)
        slab[2:5] = 1.0
        mats = MaterialTensors.isotropic(grid, slab)
        with pytest.raises(ValueError, match=re.escape(
                "values of shape (8, 8, 8) do not fill the box (3, 8, 8)")):
            apply_material(mats, random_six(grid).values)

    def test_rejects_a_one_component_field(self):
        # and three rows, where a magnetic medium reads the H rows too
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        for which, lead in [("eps", ()), ("eps", (4,)), ("both", ()), ("both", (3,))]:
            mats = MaterialTensors.isotropic(grid, np.ones(grid.shape), which)
            with pytest.raises(ValueError, match="six-vector"):
                apply_material(mats, np.ones(lead + grid.shape))


def literal_kernel_matrix(p, k):
    eye = np.eye(3)
    ppt = np.outer(p, p)
    cross = np.array([[0.0, -p[2], p[1]],
                      [p[2], 0.0, -p[0]],
                      [-p[1], p[0], 0.0]])
    return np.block([[-k * k * eye + ppt, k * cross],
                     [-k * cross, -k * k * eye + ppt]])


class TestKernel:
    def test_zero_input(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        zero = SampledField(grid, np.zeros((6,) + grid.shape))
        out = em_kernel_apply(zero.values, grid, 0.9)
        assert not np.any(out)

    def test_matches_literal_matrix_nodewise(self):
        grid = make_grid(3, (8.0, 8.0, 8.0), (8, 8, 8))
        w = random_six(grid, seed=7)
        out = em_kernel_apply(w.values, grid, 0.9)
        axes = [grid.momentum_axis(i) for i in range(3)]
        for node in [(0, 0, 0), (3, 5, 1), (7, 7, 7), (4, 2, 6)]:
            p = np.array([axes[i][node[i]] for i in range(3)])
            want = literal_kernel_matrix(p, 0.9) @ w.values[(slice(None),) + node]
            got = out[(slice(None),) + node]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_cross_part_orthogonal_to_p(self):
        grid = make_grid(3, (8.0, 8.0, 8.0), (8, 8, 8))
        w = random_six(grid, seed=3)
        w.values[:3] = 0.0  # only W_H feeds the E-block cross term
        out = em_kernel_apply(w.values, grid, 0.9)
        mesh = grid.momentum_mesh()
        dot = sum(mesh[i] * out[i] for i in range(3))
        assert np.max(np.abs(dot)) <= 1e-12 * np.max(np.abs(out[:3]))

    def test_longitudinal_part_lies_along_p(self):
        grid = make_grid(3, (8.0, 8.0, 8.0), (8, 8, 8))
        w = random_six(grid, seed=8)
        w.values[3:] = 0.0
        out = em_kernel_apply(w.values, grid, 0.9)
        # out_E + k^2 W_E = p (p.W_E): cross of that with p vanishes
        mesh = [np.broadcast_to(m, grid.shape) for m in grid.momentum_mesh()]
        rest = out[:3] + 0.81 * w.values[:3]
        cx = mesh[1] * rest[2] - mesh[2] * rest[1]
        cy = mesh[2] * rest[0] - mesh[0] * rest[2]
        cz = mesh[0] * rest[1] - mesh[1] * rest[0]
        worst = max(np.max(np.abs(c)) for c in (cx, cy, cz))
        assert worst <= 1e-12 * np.max(np.abs(rest))

    def test_rejects_wrong_component_count(self):
        grid = make_grid(3, (4.0, 4.0, 4.0), (8, 8, 8))
        with pytest.raises(ValueError, match="shape"):
            em_kernel_apply(random_six(grid).values[:4], grid, 0.9)


class TestEmBornSeries:
    def test_incident_term_is_plane_wave_times_amplitude(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        psi0 = incident_six_field((0.0, 1.0, 0.0), cfg.k_hat)
        term = incident_term(cfg, psi0)
        wave = plane_wave(grid, cfg.k_vec)
        for c in range(6):
            np.testing.assert_allclose(term.field[c], psi0[c] * wave,
                                       rtol=1e-14, atol=1e-14)
        assert term.order == 0 and term.source is None

    def test_incident_term_rejects_a_three_vector_amplitude(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        with pytest.raises(ValueError, match="psi0 must be a vector of 6 components"):
            incident_term(cfg, np.ones(3))

    def test_term_invariants(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        zero = SampledField(grid, np.zeros((6,) + grid.shape))
        with pytest.raises(ValueError, match="source"):
            BornTerm(order=0, field=zero, source=zero,
                       numerator=SampledField(grid, zero.values))
        with pytest.raises(ValueError, match="source"):
            BornTerm(order=1, field=zero)

    def test_first_order_blockwise_identities(self):
        # with only delta-eps active the first-order blocks factor through
        # the scalar first-order spectrum
        grid, spec, cfg = setup(counts=(32, 16, 16), n_orders=1)
        mats = material_from_scalar(spec, grid, which="eps")
        e0 = default_polarization(cfg.k_hat, cfg.u)
        em = em_born_series(cfg, mats, e0=e0)
        scalar = born_series(cfg, sample_potential(spec, grid))
        m1 = scalar[1].numerator.values
        mesh = grid.momentum_mesh()
        p_dot_e0 = sum(mesh[i] * e0[i] for i in range(3))
        scale = np.max(np.abs(em[1].numerator.values))
        for i in range(3):
            want_e = (-cfg.k**2 * e0[i] + mesh[i] * p_dot_e0) * m1
            np.testing.assert_allclose(em[1].numerator.values[i], want_e,
                                       rtol=0, atol=1e-12 * scale)
        cross = [mesh[1] * e0[2] - mesh[2] * e0[1],
                 mesh[2] * e0[0] - mesh[0] * e0[2],
                 mesh[0] * e0[1] - mesh[1] * e0[0]]
        for i in range(3):
            want_h = -cfg.k * cross[i] * m1
            np.testing.assert_allclose(em[1].numerator.values[3 + i], want_h,
                                       rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("medium", ["isotropic", "anisotropic"])
    def test_nonmagnetic_first_order_matches_literal_kernel(self, medium):
        # with delta-mu = 0 the step transforms the E block alone and the
        # kernel drops W_H; the numerator must still be K(p) W at every node
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=1)
        if medium == "isotropic":
            mats = material_from_scalar(spec, grid, which="eps", scale=0.7 + 0.2j)
        else:
            mats = material_from_entries(grid, eps_entries={(0, 1): spec, (2, 2): spec})
        assert not mats.is_magnetic
        psi0 = incident_six_field(default_polarization(cfg.k_hat, cfg.u), cfg.k_hat)
        incident = incident_term(cfg, psi0)
        dense = whole_array_material_product(mats, incident.field)
        first = em_born_step(incident, mats, cfg)
        assert first.box == mats.box
        assert_same_bits(first.source, on_box(dense, first.box))
        assert_zero_off_box(dense, first.box)
        assert not np.any(dense[3:])
        w = fft_values(dense, grid)
        axes = [grid.momentum_axis(i) for i in range(3)]
        got = first.numerator.values
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got[3:])) > 1e-3 * scale
        for node in np.ndindex(grid.shape):
            p = np.array([axes[i][node[i]] for i in range(3)])
            want = literal_kernel_matrix(p, cfg.k) @ w[(slice(None),) + node]
            np.testing.assert_allclose(got[(slice(None),) + node], want,
                                       rtol=0, atol=1e-13 * scale)

    def test_zero_materials_give_zero_terms(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = MaterialTensors(grid, {})
        series = em_born_series(cfg, mats)
        for term in series[1:]:
            assert term.field_max == 0.0
            assert term.box == (slice(0, 0),) * 3 and term.source.shape == (6, 0, 0, 0)
            assert not np.any(term.numerator.values)
        # and the last field holds the E rows on that box: no values
        assert series[-1].field.shape == (3, 0, 0, 0)
        assert not np.any(em_on_shell_numerator(series[-1], cfg).values)

    @pytest.mark.parametrize("medium", ["isotropic", "anisotropic-magnetic"])
    def test_a_boxed_step_is_the_boxed_transform_of_the_whole_grid_source(self, pool_workers, medium):
        # the medium is zero outside the union of its entries' slabs, and
        # the step forms its product on that box alone: the numerator is
        # the transform of the whole-grid product with that box, and the
        # field its propagation on the box, in the rows the medium reads,
        # bit for bit
        grid, spec, cfg = setup(counts=(96, 48, 48))
        if medium == "isotropic":
            mats = material_from_scalar(spec, grid, which="eps")
            box = (slice(0, 96), slice(16, 33), slice(16, 33))
        else:
            mats = material_from_entries(
                grid,
                eps_entries={(0, 0): spec, (0, 1): family(coupling=0.3 + 0.1j, ell_y=1.0)},
                mu_entries={(1, 1): family(coupling=0.5, ell_z=3.0),
                            (2, 1): family(coupling=0.2j)},
            )
            box = (slice(0, 96), slice(16, 33), slice(12, 37))
        assert mats.box == box
        psi0 = incident_six_field(default_polarization(cfg.k_hat, cfg.u), cfg.k_hat)
        rows = slice(None) if mats.is_magnetic else slice(3)
        orders = born_orders(incident_term(cfg, psi0), em_born_step, mats, cfg)
        prev = next(orders).field.copy()
        for term in islice(orders, 3):
            dense = whole_array_material_product(mats, prev)
            assert term.box == box
            assert_same_bits(term.source, on_box(dense, box))
            assert_zero_off_box(dense, box)
            numerator = em_kernel_apply(fft_values(dense[rows], grid, box=box), grid, cfg.k)
            assert_same_bits(term.numerator.values, numerator)
            prev = propagate(numerator, cfg, np.empty_like(numerator), box=box)
            assert_same_bits(term.field, on_box(prev[rows], box))
            assert term.field_max == float(np.max(np.abs(on_box(prev[rows], box))))

    def test_held_series_keeps_only_the_last_field(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        assert all(term.field is None for term in series[:-1])
        last = series[-1]
        # the last field is held on the medium's box, in its E rows alone
        assert last.field.shape == on_box(np.empty((3,) + grid.shape), mats.box).shape
        assert last.field_max == float(np.max(np.abs(last.field)))
        assert all(term.numerator is not None for term in series[1:])

    @pytest.mark.parametrize("which", ["eps", "both"])
    def test_driven_and_direct_steps_agree_bit_for_bit(self, which):
        # born_orders adds only the guard: stepping by hand gives the same bits
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which=which)
        series = em_born_series(cfg, mats)
        term = incident_term(cfg, incident_six_field(
            default_polarization(cfg.k_hat, cfg.u), cfg.k_hat))
        for driven in series[1:]:
            term = em_born_step(term, mats, cfg)
            assert driven.box == term.box
            assert_same_bits(driven.source, term.source)
            assert_same_bits(driven.numerator.values, term.numerator.values)
        assert_same_bits(series[-1].field, term.field)

    @pytest.mark.parametrize("which", ["eps", "both"])
    def test_a_driven_step_builds_its_numerator_in_the_released_field(self, which):
        # order 1's six-row numerator is built in the incident field's
        # array; each order keeps the rows the medium reads on the box, in
        # an array of its own
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which=which)
        rows = 6 if mats.is_magnetic else 3
        psi0 = incident_six_field(default_polarization(cfg.k_hat, cfg.u), cfg.k_hat)
        orders = born_orders(incident_term(cfg, psi0), em_born_step, mats, cfg)
        kept = next(orders).field
        term = next(orders)
        assert term.numerator.values is kept
        for _ in range(3):
            assert term.field.shape == on_box(np.empty((rows,) + grid.shape), mats.box).shape
            assert term.field.base is None and term.field.flags.owndata
            term = next(orders)

    def test_a_direct_step_consumes_its_input(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="both")
        prev = em_born_series(cfg, mats)[-1]
        em_born_step(prev, mats, cfg)
        assert prev.field is None
        with pytest.raises(ValueError, match=f"^the field of order {prev.order} was released "
                                             f"once order {prev.order + 1} was built"):
            em_born_step(prev, mats, cfg)

    def test_a_step_from_a_released_field_names_it(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        with pytest.raises(ValueError, match="^the field of order 0 was released once "
                                             "order 1 was built"):
            em_born_step(series[0], mats, cfg)

    def test_homogeneity_in_the_material_scale(self):
        grid, spec, cfg = setup(counts=(32, 16, 16))
        mats = material_from_scalar(spec, grid, which="eps")
        c = 1.7 - 0.4j
        scaled = material_from_scalar(spec, grid, which="eps", scale=c)
        base = em_born_series(cfg, mats)
        boosted = em_born_series(cfg, scaled)
        for n in (1, 2, 3):
            ref = np.max(np.abs(base[n].numerator.values))
            diff = np.max(np.abs(boosted[n].numerator.values
                                 - c**n * base[n].numerator.values))
            assert diff <= 1e-12 * abs(c) ** n * ref

    def test_divergence_guard(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps", scale=1e30)
        with pytest.raises(DivergenceError):
            em_born_series(cfg, mats)

    def test_overflowing_material_product_is_divergence(self):
        # the order-2 product 1e300 * 1e300 overflows: not finite, before any transform
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps", scale=1e300)
        with pytest.raises(DivergenceError):
            em_born_series(cfg, mats)

    def test_grid_mismatch_raises(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        other = make_grid(3, (14.0, 6.0, 6.0), (8, 8, 8))
        mats = material_from_scalar(spec, other, which="eps")
        term = incident_term(cfg, incident_six_field((0, 1, 0), cfg.k_hat))
        with pytest.raises(ValueError, match="grid"):
            em_born_step(term, mats, cfg)

    def test_a_one_component_term_is_no_divergence(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps")
        with pytest.raises(ValueError, match="six-vector"):
            em_born_step(incident_term(cfg), mats, cfg)

    def test_default_polarization_used(self):
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=1)
        mats = material_from_scalar(spec, grid, which="eps")
        auto = em_born_series(cfg, mats)
        explicit = em_born_series(
            cfg, mats, e0=default_polarization(cfg.k_hat, cfg.u))
        np.testing.assert_array_equal(auto[1].field, explicit[1].field)


class TestOnShell:
    def test_first_order_factors_through_scalar_record(self):
        # a delta-eps material only sources through the E block, so each
        # shell sample is the scalar sample times the kernel acting on
        # (e0, 0)
        grid, spec, cfg = setup(counts=(32, 16, 16), n_orders=1)
        mats = material_from_scalar(spec, grid, which="eps")
        e0 = default_polarization(cfg.k_hat, cfg.u)
        em = em_born_series(cfg, mats, e0=e0)
        record = em_on_shell_numerator(em[1], cfg)
        scalar_rec = on_shell_numerator(
            born_series(cfg, sample_potential(spec, grid))[1], cfg)
        amp = np.concatenate([e0, np.zeros(3)])
        scale = np.max(record.norms)
        for s, p in enumerate(cfg.directions.momenta):
            want = scalar_rec.values[s] * (literal_kernel_matrix(p, cfg.k) @ amp)
            np.testing.assert_allclose(record.values[s], want, rtol=0,
                                       atol=1e-12 * scale)

    def test_first_order_momentum_transfer_gating(self):
        # only directions with u.(k' - k) above the support threshold pick
        # up first-order signal
        grid, spec, cfg = setup()
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        record = em_on_shell_numerator(series[1], cfg)
        transfer = record.directions @ np.asarray(cfg.u) * cfg.k - cfg.k_vec[0]
        norms = record.norms / record.max_abs
        assert transfer[np.argmax(record.norms)] >= cfg.alpha
        assert np.max(norms[transfer <= 0.8 * cfg.alpha]) <= 5e-2

    def test_order_zero_rejected(self):
        grid, spec, cfg = setup(counts=(16, 8, 8))
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        with pytest.raises(ValueError, match="order"):
            em_on_shell_numerator(series[0], cfg)


class TestVerification:
    def test_exactness_small_grid(self):
        grid, spec, cfg = setup()
        mats = material_from_scalar(spec, grid, which="eps")
        report = verify_em_exactness(cfg, em_born_series(cfg, mats), tol=1e-2)
        assert report.passed
        assert report.exact_order == 1
        assert report.check_for(1).ratio > 1e-3
        assert report.check_for(2).ratio <= 1e-4
        assert report.check_for(3).ratio <= 1e-3

    def test_magnetic_material_same_profile(self):
        grid, spec, cfg = setup(n_orders=2)
        mats = material_from_scalar(spec, grid, which="mu")
        report = verify_em_exactness(cfg, em_born_series(cfg, mats), tol=1e-2)
        assert report.passed
        assert report.check_for(1).ratio > 1e-3

    def test_anisotropic_entry_same_profile(self):
        grid, spec, cfg = setup()
        mats = material_from_entries(grid, eps_entries={(0, 1): spec})
        report = verify_em_exactness(cfg, em_born_series(cfg, mats), tol=1e-2)
        assert report.passed
        assert report.check_for(1).ratio > 1e-3
        assert report.check_for(2).ratio <= 1e-4

    def test_scalar_consistency_of_vanishing_orders(self):
        grid, spec, cfg = setup(n_orders=2)
        mats = material_from_scalar(spec, grid, which="eps")
        em_report = verify_em_exactness(cfg, em_born_series(cfg, mats), tol=1e-2)
        v = sample_potential(spec, grid)
        scalar_report = verify_exactness(cfg, born_series(cfg, v), tol=1e-2)
        for order in (1, 2):
            em_check = em_report.check_for(order)
            sc_check = scalar_report.check_for(order)
            assert em_check.must_vanish == sc_check.must_vanish
            assert em_check.passed(1e-2) and sc_check.passed(1e-2)
        assert em_report.check_for(1).ratio > 1e-3
        assert scalar_report.check_for(1).ratio > 1e-3

    def test_series_too_short_raises(self):
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=1)
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        with pytest.raises(ValueError, match="exactness"):
            verify_em_exactness(cfg, series)

    @pytest.mark.parametrize("check", [verify_em_exactness, verify_em_spectral_floor,
                                       verify_em_order_bands],
                             ids=["exactness", "floor", "bands"])
    def test_an_empty_series_is_rejected(self, check):
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=1)
        with pytest.raises(ValueError, match="^series holds no terms beyond the incident wave$"):
            check(cfg, [])

    @pytest.mark.parametrize("check", [verify_em_spectral_floor, verify_em_order_bands],
                             ids=["floor", "bands"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_checks_read_the_config_axis(self, check):
        # the config normalizes u; with u as given, a half-length axis would
        # halve u.p and move every band
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=1)
        series = em_born_series(cfg, material_from_scalar(spec, grid, which="eps"))
        half = replace(cfg, u=tuple(0.5 * c for c in cfg.u))
        assert half.u == cfg.u
        assert check(half, series).to_dict() == check(cfg, series).to_dict()

    def test_floor_and_bands_first_order_on_coarse_grid(self):
        # beyond first order the coarse longitudinal Nyquist range wraps
        # genuine high-momentum content into the floor region; the checks
        # are therefore asserted per-order where the spectrum is faithful
        grid, spec, cfg = setup(counts=(48, 48, 48), n_orders=1)
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        floor = verify_em_spectral_floor(cfg, series, tol=1e-2)
        bands = verify_em_order_bands(cfg, series, tol=1e-2)
        assert floor.passed and bands.passed
        assert floor.worst_ratio <= 1e-2

    def test_floor_and_bands_all_orders_with_longitudinal_headroom(self):
        grid, spec, cfg = setup(counts=(144, 48, 48))
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        floor = verify_em_spectral_floor(cfg, series, tol=1e-2)
        bands = verify_em_order_bands(cfg, series, tol=1e-2)
        assert floor.passed and bands.passed
        assert {c.order for c in floor.checks} == {1, 2, 3}
        report = floor.to_dict()
        assert report["pass"] is True
        assert report["checks"][0]["max_ratio"] <= 1e-2


class TestCsv:
    def test_twelve_value_columns_and_determinism(self, tmp_path):
        grid, spec, cfg = setup(counts=(16, 8, 8), n_orders=2)
        mats = material_from_scalar(spec, grid, which="eps")
        series = em_born_series(cfg, mats)
        records = [em_on_shell_numerator(t, cfg) for t in series[1:]]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_em_on_shell_csv(first, records)
        write_em_on_shell_csv(second, records)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        header = lines[0].split(",")
        assert len(header) == 4 + 12
        assert header[:4] == ["order", "dir_x", "dir_y", "dir_z"]
        assert len(lines) == 1 + 2 * len(cfg.directions.unit_vectors)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="records"):
            write_em_on_shell_csv(tmp_path / "x.csv", [])
