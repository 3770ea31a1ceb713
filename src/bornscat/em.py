"""Electromagnetic Born engine on six-component fields.

A field is a SampledField holding the six-vector (E, H) at every node,
shape (6,) + grid.shape, with three complex components per block.  The
material deviation enters through two 3x3 tensor fields (delta-epsilon and
delta-mu); one iteration multiplies the previous term blockwise by the
tensors, transforms, applies the pointwise momentum kernel

    out_E = -k^2 W_E + p (p . W_E) + k p x W_H
    out_H = -k p x W_E - k^2 W_H + p (p . W_H)

to the transformed blocks W = (transform of delta-eps . E, delta-mu . H),
multiplies by the same regularized propagator as the scalar engine, and
transforms back.  Interactions whose tensor entries all have spectra in the
half-space u.p >= alpha obey the same shell-vanishing structure as scalar
ones, which verify_em_exactness certifies order by order.

This module holds only the EM physics: the material tensors with the
rules of the materials config block (`which_blocks`, `check_entry_index`),
their product, the momentum kernel, the incident six-vector and the kernel
at shell points.  The incident term, iteration, every step's tail, the
verification reports and the CSV writer are bornscat.scalar's; the public
step, series, verify and CSV names below are entry points into them.
"""

from functools import partial
from itertools import groupby, islice

import numpy as np

from .grids import (
    SampledField,
    Space,
    all_finite,
    blockwise,
    fft_values,
    max_abs,
    nudft_values,
    transverse_basis,
)
from .potentials import sample_potential, verify_support
from .scalar import (
    born_orders,
    born_term,
    incident_term,
    shell_record,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
    write_on_shell_csv,
)

__all__ = [
    "MaterialTensors",
    "which_blocks",
    "check_entry_index",
    "incident_six_field",
    "default_polarization",
    "material_from_scalar",
    "material_from_entries",
    "certify_materials",
    "apply_material",
    "em_kernel_apply",
    "em_born_step",
    "em_born_series",
    "em_on_shell_numerator",
    "verify_em_exactness",
    "verify_em_spectral_floor",
    "verify_em_order_bands",
    "write_em_on_shell_csv",
]


# Names of the two tensors, indexed by the block of a material entry key.
_TENSORS = ("eps", "mu")


def which_blocks(which):
    """The blocks (0 for delta-eps, 1 for delta-mu) an isotropic medium fills."""
    blocks = {"eps": (0,), "mu": (1,), "both": (0, 1)}.get(which)
    if blocks is None:
        raise ValueError("which must be 'eps', 'mu' or 'both'")
    return blocks


def check_entry_index(block, i, j):
    """Raise unless (block, i, j) names an entry of delta-eps or delta-mu."""
    if not (block in (0, 1) and 0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"tensor index {(block, i, j)} out of range")


class MaterialTensors:
    """3x3 complex tensor fields delta-eps and delta-mu on one 3D grid.

    Built from a {(block, i, j): values} map, with block 0 for delta-eps and
    1 for delta-mu; absent entries are zero.  Only the nonzero entries are
    stored: `entries` maps each key to that entry's values on the grid, in
    ascending key order.  Entries may share one array, as the three
    diagonal entries of an isotropic medium do.
    """

    def __init__(self, grid, entries):
        # Checks each distinct array once and drops the all-zero ones.
        if grid.dim != 3:
            raise ValueError("material tensors need a 3D grid")
        arrays, peaks = {}, {}
        for (block, i, j), values in entries.items():
            check_entry_index(block, i, j)
            if id(values) in arrays:
                continue
            array = np.asarray(values, dtype=complex)
            if array.shape != grid.shape:
                raise ValueError(
                    f"{_TENSORS[block]}[{i},{j}] must have shape {grid.shape}"
                )
            if not all_finite(array):
                raise ValueError(f"{_TENSORS[block]} entries must be finite")
            arrays[id(values)], peaks[id(values)] = array, max_abs(array)
        self.grid = grid
        self.entries = {
            key: arrays[id(values)] for key, values in sorted(entries.items())
            if peaks[id(values)] > 0.0
        }

    @classmethod
    def isotropic(cls, grid, values, which="eps"):
        """values * identity in delta-eps, delta-mu or both, as one shared array."""
        return cls(grid, {
            (block, i, i): values for block in which_blocks(which) for i in range(3)
        })

    @property
    def is_magnetic(self):
        return any(block == 1 for block, _, _ in self.entries)


def incident_six_field(e0, k_hat):
    """Plane-wave six-vector (E0, k_hat x E0) for transverse polarization E0."""
    e0 = np.asarray(e0, dtype=complex)
    k_hat = np.asarray(k_hat, dtype=float)
    if e0.shape != (3,) or k_hat.shape != (3,):
        raise ValueError("e0 and k_hat must be 3-vectors")
    scale = np.linalg.norm(e0)
    if scale == 0:
        raise ValueError("e0 must be nonzero")
    k_hat = k_hat / np.linalg.norm(k_hat)
    if abs(np.vdot(k_hat, e0)) > 1e-12 * scale:
        raise ValueError("e0 must be transverse to the propagation direction")
    return np.concatenate([e0, np.cross(k_hat, e0)])


def default_polarization(k_hat, u):
    """Unit polarization transverse to k_hat, and to u whenever possible."""
    k_hat = np.asarray(k_hat, dtype=float)
    k_hat = k_hat / np.linalg.norm(k_hat)
    u = np.asarray(u, dtype=float)
    w = u - (u @ k_hat) * k_hat
    norm = np.linalg.norm(w)
    if norm < 1e-8:
        # propagation along the support axis: any transverse direction works
        return transverse_basis(k_hat)[0]
    out = np.cross(k_hat, w / norm)
    return out / np.linalg.norm(out)


def material_from_scalar(potential, grid, which="eps", scale=1.0):
    """Isotropic tensors scale * v(x) * identity from a scalar family spec."""
    v = sample_potential(potential, grid).values * scale
    return MaterialTensors.isotropic(grid, v, which)


def material_from_entries(grid, eps_entries=None, mu_entries=None):
    """Tensors with chosen entries sampled from scalar family specs.

    eps_entries and mu_entries map (row, col) index pairs to PotentialSpec /
    PotentialSum objects; unmentioned entries stay zero.
    """
    entries = {}
    for block, chosen in enumerate((eps_entries, mu_entries)):
        for (i, j), potential in (chosen or {}).items():
            entries[(block, i, j)] = sample_potential(potential, grid).values
    return MaterialTensors(grid, entries)


def certify_materials(materials, u, alpha, tol=1e-3):
    """Support reports for every nonzero tensor entry.

    Returns a dict keyed like "eps[0,1]"; identically zero entries are
    skipped (nothing to certify), and entries sharing one array share one
    report.  All reports passing certifies the whole medium for the
    half-space u.p >= alpha.
    """
    reports, by_array = {}, {}
    for (block, i, j), values in materials.entries.items():
        if id(values) not in by_array:
            field = SampledField(materials.grid, values, Space.POSITION)
            by_array[id(values)] = verify_support(field, u=u, alpha=alpha, tol=tol)
        reports[f"{_TENSORS[block]}[{i},{j}]"] = by_array[id(values)]
    return reports


def _sum_of_products(*operands, out):
    """operands[0] * operands[1] + operands[2] * operands[3] + ..., left to right."""
    np.multiply(operands[0], operands[1], out=out)
    for factor, values in zip(operands[2::2], operands[3::2]):
        out += factor * values


def apply_material(materials, six):
    """Blockwise tensor product (delta-eps . E, delta-mu . H) in position space.

    six is a six-vector field.  Each output row is the sum, in ascending
    column, of its stored entries times the field components they meet.
    Rows without a stored entry, such as the whole H block when
    delta-mu = 0, stay zero and are never written.  As the source of a Born
    order, the product is not checked for finiteness: an overflowed value
    reaches the order's field, whose max the engine reads.
    """
    if six.values.shape != (6,) + six.grid.shape:
        raise ValueError("material product acts on six-vector fields")
    if six.space is not Space.POSITION:
        raise ValueError("material product acts on position-space fields")
    if six.grid != materials.grid:
        raise ValueError("field and materials must share one grid")
    # np.zeros leaves the rows no entry writes to the lazily zeroed pages.
    out = np.zeros(six.values.shape, dtype=complex)
    rows = groupby(materials.entries.items(), key=lambda item: item[0][:2])
    for (block, i), terms in rows:
        operands = [
            operand for (_, _, j), values in terms
            for operand in (values, six.values[3 * block + j])
        ]
        blockwise(_sum_of_products, out[3 * block + i], *operands)
    return SampledField._unchecked(six.grid, out, Space.POSITION)


def _mesh_cross(p, block):
    """p x block at every node, for broadcastable momentum component arrays."""
    return np.stack(
        [
            p[1] * block[2] - p[2] * block[1],
            p[2] * block[0] - p[0] * block[2],
            p[0] * block[1] - p[1] * block[0],
        ]
    )


def _longitudinal(p, block):
    """p (p . block) at every node."""
    p_dot = sum(p[i] * block[i] for i in range(3))
    return np.stack([p[i] * p_dot for i in range(3)])


def _kernel(k, w, *p, out):
    """The momentum kernel applied to W at momenta p, written into out.

    w holds W_E over W_H along its first axis, or W_E alone when W_H = 0,
    whose terms are then dropped; p is three momentum component arrays that
    broadcast against one component of w.  The one kernel on the grid and
    at the shell points.
    """
    w_e, w_h = w[:3], w[3:]
    out[:3] = -k * k * w_e + _longitudinal(p, w_e)
    out[3:] = -k * _mesh_cross(p, w_e)
    if len(w_h):
        out[:3] += k * _mesh_cross(p, w_h)
        out[3:] += -k * k * w_h + _longitudinal(p, w_h)


def em_kernel_apply(w, grid, k):
    """Pointwise momentum kernel on transformed material products.

    w holds the raw momentum-space values of W = (W_E, W_H), shape
    (6,) + grid.shape, or of W_E alone, shape (3,) + grid.shape, when
    W_H = 0.  Returns the (6,) + grid.shape values, for each momentum node p:
    out_E = -k^2 W_E + p (p.W_E) + k p x W_H and
    out_H = -k p x W_E - k^2 W_H + p (p.W_H).
    """
    if w.shape not in ((3,) + grid.shape, (6,) + grid.shape):
        raise ValueError(f"kernel input shape {w.shape} is not (3,) or (6,) + {grid.shape}")
    out = np.empty((6,) + grid.shape, dtype=complex)
    return blockwise(partial(_kernel, k), out, w, *grid.momentum_mesh(), axis=1)


def em_born_step(prev, materials, config):
    """Advance the six-component series by one order."""
    grid = config.grid
    if prev.field.grid != grid or materials.grid != grid:
        raise ValueError("term, materials and config must share one grid")
    # With delta-mu = 0 the source's H block is zero, and so is W_H.
    rows = slice(None) if materials.is_magnetic else slice(3)
    return born_term(
        prev, config, apply_material(materials, prev.field),
        lambda source: em_kernel_apply(fft_values(source[rows], grid), grid, config.k),
    )


def em_born_series(config, materials, e0=None):
    """Six-component terms of orders 0..n_orders.

    e0 defaults to a linear polarization transverse to the incident
    direction and, when possible, to the support axis.
    """
    if e0 is None:
        e0 = default_polarization(config.k_hat, config.u)
    first = incident_term(config, incident_six_field(e0, config.k_hat))
    orders = born_orders(first, em_born_step, materials, config)
    return list(islice(orders, config.n_orders + 1))


def em_on_shell_numerator(term, config, directions=None):
    """Kernel-applied shell values of the order's source, by direct sums.

    The stored source is the position-space tensor product; its direct
    transform at the shell points is multiplied by the same pointwise kernel
    as on the grid, evaluated at each shell momentum.  Values have shape
    (count, 6).
    """
    def kernel_at_points(source, points):
        w = np.stack([nudft_values(values, config.grid, points) for values in source.values])
        values = np.empty_like(w)
        _kernel(config.k, w, *points.T, out=values)
        return values.T

    return shell_record(term, config, directions, kernel_at_points)


def verify_em_exactness(config, series, tol=1e-2):
    """Shell-vanishing report for the six-component series em_born_series returns.

    Per order, the max six-vector norm over shell directions is compared
    with the max node norm of the same order's numerator on the momentum
    grid; orders above floor(2k/alpha) must vanish.
    """
    return verify_exactness(config, series, tol, shell=em_on_shell_numerator)


def verify_em_spectral_floor(series, u, k, tol=1e-2):
    """Six-component version of the u.p < -k floor check."""
    return verify_spectral_floor(series, u, k, tol)


def verify_em_order_bands(series, u, k, alpha, tol=1e-2):
    """Six-component version of the per-order band check."""
    return verify_order_bands(series, u, k, alpha, tol)


def write_em_on_shell_csv(path, records):
    """CSV rows: order, direction components, then re/im for all six components."""
    write_on_shell_csv(path, records)
