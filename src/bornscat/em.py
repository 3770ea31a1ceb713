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
from itertools import islice

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
    OnShellRecord,
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
    "EMBornTerm",
    "EMOnShellRecord",
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

# One term and one record type serve both engines.
EMBornTerm = BornTerm
EMOnShellRecord = OnShellRecord


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


@dataclass
class MaterialTensors:
    """3x3 complex tensor fields delta-eps and delta-mu on one 3D grid."""

    grid: Grid
    eps: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("material tensors need a 3D grid")
        shaped = []
        for name, tensor in (("eps", self.eps), ("mu", self.mu)):
            tensor = np.asarray(tensor, dtype=complex)
            if tensor.shape != (3, 3) + self.grid.shape:
                raise ValueError(
                    f"{name} must have shape (3, 3) + {self.grid.shape}"
                )
            if not np.all(np.isfinite(tensor)):
                raise ValueError(f"{name} entries must be finite")
            shaped.append(tensor)
        self.eps, self.mu = shaped
        self._warn_on_truncation()

    def _warn_on_truncation(self):
        overall = max(np.max(np.abs(self.eps)), np.max(np.abs(self.mu)))
        if overall == 0.0:
            return
        boundary = 0.0
        for tensor in (self.eps, self.mu):
            for axis in range(3):
                face = 2 + axis
                lo = np.take(tensor, 0, axis=face)
                hi = np.take(tensor, -1, axis=face)
                boundary = max(boundary, np.max(np.abs(lo)), np.max(np.abs(hi)))
        if boundary > BOUNDARY_WARN_RATIO * overall:
            warnings.warn(
                f"material magnitude at the box boundary is {boundary:.3e}, more "
                f"than {BOUNDARY_WARN_RATIO:g} of its maximum {overall:.3e}; "
                "enlarge the box to reduce truncation",
                stacklevel=3,
            )

    @property
    def is_magnetic(self):
        return bool(np.any(self.mu != 0))


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


def _zero_tensor(grid):
    return np.zeros((3, 3) + grid.shape, dtype=complex)


def material_from_scalar(potential, grid, which="eps", scale=1.0):
    """Isotropic tensors scale * v(x) * identity from a scalar family spec."""
    if which not in ("eps", "mu", "both"):
        raise ValueError("which must be 'eps', 'mu' or 'both'")
    v = sample_potential(potential, grid).values * scale
    eps = _zero_tensor(grid)
    mu = _zero_tensor(grid)
    targets = {"eps": (eps,), "mu": (mu,), "both": (eps, mu)}[which]
    for tensor in targets:
        for i in range(3):
            tensor[i, i] = v
    return MaterialTensors(grid=grid, eps=eps, mu=mu)


def material_from_entries(grid, eps_entries=None, mu_entries=None):
    """Tensors with chosen entries sampled from scalar family specs.

    eps_entries and mu_entries map (row, col) index pairs to PotentialSpec /
    PotentialSum objects; unmentioned entries stay zero.
    """
    eps = _zero_tensor(grid)
    mu = _zero_tensor(grid)
    for entries, tensor in ((eps_entries, eps), (mu_entries, mu)):
        for (i, j), potential in (entries or {}).items():
            if not (0 <= i < 3 and 0 <= j < 3):
                raise ValueError(f"tensor index {(i, j)} out of range")
            tensor[i, j] = sample_potential(potential, grid).values
    return MaterialTensors(grid=grid, eps=eps, mu=mu)


def certify_materials(materials, u, alpha, tol=1e-3):
    """Support reports for every nonzero tensor entry.

    Returns a dict keyed like "eps[0,1]"; identically zero entries are
    skipped (nothing to certify).  All reports passing certifies the whole
    medium for the half-space u.p >= alpha.
    """
    reports = {}
    for name, tensor in (("eps", materials.eps), ("mu", materials.mu)):
        for i in range(3):
            for j in range(3):
                entry = tensor[i, j]
                if not np.any(entry):
                    continue
                field = SampledField(materials.grid, entry, Space.POSITION)
                reports[f"{name}[{i},{j}]"] = verify_support(
                    field, u=u, alpha=alpha, tol=tol
                )
    return reports


def apply_material(materials, six):
    """Blockwise tensor product (delta-eps . E, delta-mu . H) in position space."""
    if six.space is not Space.POSITION:
        raise ValueError("material product acts on position-space fields")
    if six.grid != materials.grid:
        raise ValueError("field and materials must share one grid")
    out = np.empty_like(six.values)
    out[:3] = np.einsum("ij...,j...->i...", materials.eps, six.e_block)
    out[3:] = np.einsum("ij...,j...->i...", materials.mu, six.h_block)
    return SixField(six.grid, out, Space.POSITION)


def _mesh_cross(p_mesh, block):
    """p x block at every node, for broadcastable momentum component arrays."""
    return np.stack(
        [
            p_mesh[1] * block[2] - p_mesh[2] * block[1],
            p_mesh[2] * block[0] - p_mesh[0] * block[2],
            p_mesh[0] * block[1] - p_mesh[1] * block[0],
        ]
    )


def em_kernel_apply(w, k):
    """Pointwise momentum kernel on transformed material products.

    For each momentum node p, with W = (W_E, W_H):
    out_E = -k^2 W_E + p (p.W_E) + k p x W_H and
    out_H = -k p x W_E - k^2 W_H + p (p.W_H).
    """
    if w.space is not Space.MOMENTUM:
        raise ValueError("kernel acts on momentum-space fields")
    grid = w.grid

    def kernel(values, *p_mesh, out):
        for offset, sign in ((0, 1.0), (3, -1.0)):
            block = values[offset : offset + 3]
            other = values[3 - offset : 6 - offset]
            p_dot = sum(p_mesh[i] * block[i] for i in range(3))
            longitudinal = np.stack([p_mesh[i] * p_dot for i in range(3)])
            out[offset : offset + 3] = (
                -k * k * block + longitudinal + sign * k * _mesh_cross(p_mesh, other)
            )

    out = blockwise(kernel, np.empty_like(w.values), w.values, *grid.momentum_mesh(), axis=1)
    return SixField(grid, out, Space.MOMENTUM)


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
    source = apply_material(materials, prev.field)
    w = SixField(grid, fft_values(source.values, grid), Space.MOMENTUM)
    numerator = em_kernel_apply(w, config.k)
    field_values = propagate(numerator.values, config, prev.order + 1, reference_scale)
    return BornTerm(
        order=prev.order + 1,
        field=SixField(grid, field_values, Space.POSITION),
        source=source,
        numerator=numerator,
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
    k = config.k

    def kernel_at_points(source, points):
        w = np.stack(
            [nudft_values(source.values[c], config.grid, points) for c in range(6)],
            axis=1,
        )
        values = np.empty_like(w)
        for s, p in enumerate(points):
            w_e, w_h = w[s, :3], w[s, 3:]
            values[s, :3] = -k * k * w_e + p * (p @ w_e) + k * np.cross(p, w_h)
            values[s, 3:] = -k * k * w_h + p * (p @ w_h) - k * np.cross(p, w_e)
        return values

    return shell_record(term, config, directions, kernel_at_points)


def verify_em_exactness(config, series_or_materials, tol=1e-2, e0=None, directions=None):
    """Shell-vanishing report for the six-component series.

    Per order, the max six-vector norm over shell directions is compared
    with the max node norm of the same order's numerator on the momentum
    grid; orders above floor(2k/alpha) must vanish.
    """
    series = series_or_materials
    if isinstance(series, MaterialTensors):
        series = em_born_series(config, series, e0=e0)
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
    out = {}
    for name, tensor, block in (
        ("electric", materials.eps, six.e_block),
        ("magnetic", materials.mu, six.h_block),
    ):
        flux = block + np.einsum("ij...,j...->i...", tensor, block)
        flux_t = fft_values(flux, grid)
        longitudinal = sum(p_mesh[i] * flux_t[i] for i in range(3))
        denom = np.linalg.norm(p_norm * np.sqrt(np.sum(np.abs(flux_t) ** 2, axis=0)))
        out[name] = float(np.linalg.norm(longitudinal) / denom) if denom > 0 else 0.0
    return out


def write_em_on_shell_csv(path, records):
    """CSV rows: order, direction components, then re/im for all six components."""
    write_on_shell_csv(path, records, EM_VALUE_PREFIXES)
