"""Electromagnetic Born engine on six-component fields.

Fields are stacked as (E, H) with three complex components each.  The
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

This module holds only the EM physics: the six-field, the material tensors,
their product, the momentum kernel, the incident six-vector and the kernel
at shell points.  Iteration, propagation, the divergence guard, the
verification reports and the CSV writer are bornscat.scalar's; the public
step, series, verify and CSV names below are entry points into them.
"""

import warnings
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice

import numpy as np

from .grids import (
    Grid,
    SampledField,
    Space,
    all_finite,
    blockwise,
    fft_values,
    max_abs,
    nudft_values,
    plane_wave,
    transverse_basis,
)
from .potentials import BOUNDARY_WARN_RATIO, sample_potential, verify_support
from .scalar import (
    BornTerm,
    DivergenceError,
    born_orders,
    propagate,
    shell_record,
    verify_exactness,
    verify_order_bands,
    verify_spectral_floor,
    write_on_shell_csv,
)

__all__ = [
    "SixField",
    "MaterialTensors",
    "incident_six_field",
    "default_polarization",
    "material_from_scalar",
    "material_from_entries",
    "certify_materials",
    "apply_material",
    "em_kernel_apply",
    "em_incident_term",
    "em_born_step",
    "em_born_series",
    "em_on_shell_numerator",
    "verify_em_exactness",
    "verify_em_spectral_floor",
    "verify_em_order_bands",
    "em_divergence_diagnostic",
    "write_em_on_shell_csv",
    "EM_VALUE_PREFIXES",
]

# CSV value-column prefixes of the six components, E over H.
EM_VALUE_PREFIXES = tuple(
    f"{block}_{axis}_" for block in ("e", "h") for axis in ("x", "y", "z")
)


@dataclass
class SixField:
    """Six complex components per node: E stacked over H."""

    grid: Grid
    values: np.ndarray
    space: Space

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (6,) + self.grid.shape:
            raise ValueError(
                f"six-field shape {values.shape} does not match (6,)+{self.grid.shape}"
            )
        if not all_finite(values):
            raise ValueError("six-field values must be finite")
        self.values = values

    @property
    def e_block(self):
        return self.values[:3]

    @property
    def h_block(self):
        return self.values[3:]

    def max_abs(self):
        return max_abs(self.values)

    def node_norms(self):
        """Euclidean length of the six-vector at every node."""

        def norms(values, out):
            # the six squares add in component order within any grid block
            np.sqrt(np.sum(np.abs(values) ** 2, axis=0), out=out)

        return blockwise(norms, np.empty(self.grid.shape), self.values)


# Names of the two tensors, indexed by the block of a material entry key.
_TENSORS = ("eps", "mu")


class MaterialTensors:
    """3x3 complex tensor fields delta-eps and delta-mu on one 3D grid.

    Only the nonzero entries are stored: `entries` maps (block, i, j), with
    block 0 for delta-eps and 1 for delta-mu, to that entry's values on the
    grid, in ascending key order.  Entries may share one array, as the three
    diagonal entries of an isotropic medium do.  MaterialTensors(grid, eps,
    mu) keeps the nonzero entries of dense (3, 3) + grid.shape tensors.
    """

    def __init__(self, grid, eps, mu):
        entries = {}
        for block, tensor in enumerate((eps, mu)):
            tensor = np.asarray(tensor, dtype=complex)
            if tensor.shape != (3, 3) + grid.shape:
                raise ValueError(
                    f"{_TENSORS[block]} must have shape (3, 3) + {grid.shape}"
                )
            for i, j in np.ndindex(3, 3):
                if np.any(tensor[i, j]):
                    entries[(block, i, j)] = tensor[i, j].copy()
        self._keep(grid, entries)

    @classmethod
    def from_entries(cls, grid, entries):
        """Tensors from a {(block, i, j): values} map; absent entries are zero."""
        materials = cls.__new__(cls)
        materials._keep(grid, entries)
        return materials

    @classmethod
    def isotropic(cls, grid, values, which="eps"):
        """values * identity in delta-eps, delta-mu or both, as one shared array."""
        blocks = {"eps": (0,), "mu": (1,), "both": (0, 1)}.get(which)
        if blocks is None:
            raise ValueError("which must be 'eps', 'mu' or 'both'")
        return cls.from_entries(
            grid, {(block, i, i): values for block in blocks for i in range(3)}
        )

    def _keep(self, grid, entries):
        # Checks each distinct array once and drops the all-zero ones.
        if grid.dim != 3:
            raise ValueError("material tensors need a 3D grid")
        arrays, peaks = {}, {}
        for (block, i, j), values in entries.items():
            if not (block in (0, 1) and 0 <= i < 3 and 0 <= j < 3):
                raise ValueError(f"tensor index {(block, i, j)} out of range")
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
        self._warn_on_truncation(max(peaks.values(), default=0.0))

    def _warn_on_truncation(self, overall):
        if overall == 0.0:
            return
        distinct = {id(values): values for values in self.entries.values()}
        boundary = max(
            np.max(np.abs(np.take(values, end, axis=axis)))
            for values in distinct.values() for axis in range(3) for end in (0, -1)
        )
        if boundary > BOUNDARY_WARN_RATIO * overall:
            warnings.warn(
                f"material magnitude at the box boundary is {boundary:.3e}, more "
                f"than {BOUNDARY_WARN_RATIO:g} of its maximum {overall:.3e}; "
                "enlarge the box to reduce truncation",
                stacklevel=3,
            )

    def _dense(self, block):
        tensor = np.zeros((3, 3) + self.grid.shape, dtype=complex)
        for (b, i, j), values in self.entries.items():
            if b == block:
                tensor[i, j] = values
        return tensor

    @property
    def eps(self):
        """delta-eps as a new dense (3, 3) + grid.shape array."""
        return self._dense(0)

    @property
    def mu(self):
        """delta-mu as a new dense (3, 3) + grid.shape array."""
        return self._dense(1)

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
    return MaterialTensors.from_entries(grid, entries)


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

    Each output row is the sum, in ascending column, of its stored entries
    times the field components they meet.  Rows without a stored entry,
    such as the whole H block when delta-mu = 0, stay zero and are never
    written.
    """
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
    return SixField(six.grid, out, Space.POSITION)


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


def em_incident_term(config, psi0):
    """Order-0 term psi0 * exp(i k.x) for a six-vector amplitude psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (6,):
        raise ValueError("incident amplitude must be a six-vector")
    wave = plane_wave(config.grid, config.k_vec)
    values = blockwise(
        np.multiply, np.empty((6,) + config.grid.shape, dtype=complex),
        psi0.reshape((6,) + (1,) * config.grid.dim), wave, axis=1,
    )
    return BornTerm(order=0, field=SixField(config.grid, values, Space.POSITION))


def em_born_step(prev, materials, config, reference_scale=None):
    """Advance the six-component series by one order."""
    grid = config.grid
    if prev.field.grid != grid or materials.grid != grid:
        raise ValueError("term, materials and config must share one grid")
    try:
        source = apply_material(materials, prev.field)
    except ValueError:  # a position-space term on this grid: the product overflowed
        raise DivergenceError(prev.order + 1, np.inf, reference_scale) from None
    # With delta-mu = 0 the source's H block is zero, and so is W_H.
    rows = source.values if materials.is_magnetic else source.e_block
    numerator_values = em_kernel_apply(fft_values(rows, grid), grid, config.k)
    field_values = propagate(numerator_values, config, prev.order + 1, reference_scale)
    return BornTerm(
        order=prev.order + 1,
        field=SixField(grid, field_values, Space.POSITION),
        source=source,
        numerator=SixField(grid, numerator_values, Space.MOMENTUM),
    )


def em_born_series(config, materials, e0=None):
    """Six-component terms of orders 0..n_orders.

    e0 defaults to a linear polarization transverse to the incident
    direction and, when possible, to the support axis.
    """
    if e0 is None:
        e0 = default_polarization(config.k_hat, config.u)
    first = em_incident_term(config, incident_six_field(e0, config.k_hat))
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


def verify_em_exactness(config, series, tol=1e-2, directions=None):
    """Shell-vanishing report for the six-component series em_born_series returns.

    Per order, the max six-vector norm over shell directions is compared
    with the max node norm of the same order's numerator on the momentum
    grid; orders above floor(2k/alpha) must vanish.
    """
    return verify_exactness(
        config, series, tol, directions, shell=em_on_shell_numerator
    )


def verify_em_spectral_floor(series, u, k, tol=1e-2):
    """Six-component version of the u.p < -k floor check."""
    return verify_spectral_floor(series, u, k, tol, name="em-spectral-floor")


def verify_em_order_bands(series, u, k, alpha, tol=1e-2):
    """Six-component version of the per-order band check."""
    return verify_order_bands(series, u, k, alpha, tol, name="em-order-bands")


def em_divergence_diagnostic(materials, six):
    """Relative spectral divergence of the flux fields, as a diagnostic.

    For D = (I + delta-eps) E and B = (I + delta-mu) H, returns the ratio
    ||p . F(p)||_2 / || |p| F(p) ||_2 per block; small values mean the
    summed field is close to divergence-free.  Informational only: truncated
    series terms need not satisfy this, so nothing is asserted.
    """
    if six.space is not Space.POSITION:
        raise ValueError("diagnostic expects a position-space field")
    grid = six.grid
    p_mesh = grid.momentum_mesh()
    p_norm = np.sqrt(grid.momentum_sq)
    flux = six.values + apply_material(materials, six).values
    out = {}
    for name, block in (("electric", flux[:3]), ("magnetic", flux[3:])):
        flux_t = fft_values(block, grid)
        longitudinal = sum(p_mesh[i] * flux_t[i] for i in range(3))
        denom = np.linalg.norm(p_norm * np.sqrt(np.sum(np.abs(flux_t) ** 2, axis=0)))
        out[name] = float(np.linalg.norm(longitudinal) / denom) if denom > 0 else 0.0
    return out


def write_em_on_shell_csv(path, records):
    """CSV rows: order, direction components, then re/im for all six components."""
    write_on_shell_csv(path, records, EM_VALUE_PREFIXES)
