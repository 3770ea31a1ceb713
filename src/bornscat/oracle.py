"""Brute-force reference implementations for cross-checking the fast pipeline.

Everything here trades speed for obviousness: transforms are literal nested
loops, the second-order value is a double Riemann sum over momentum nodes,
and far-field amplitudes are read off position-space solutions instead of
shell spectra.  Size caps keep the quadratic costs at toy scale.
"""

import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from itertools import islice

import numpy as np

from .grids import DirectionSet, SampledField, Space, blockwise, plane_wave_at
from .scalar import (
    DivergenceError,
    born_orders,
    born_step,
    green_factor,
    incident_term,
)

__all__ = [
    "QUAD_MAX_NODES_PER_AXIS",
    "QuadratureResult",
    "ConvergedSolution",
    "SeriesConvergenceError",
    "FarFieldFit",
    "slow_dft",
    "quad_second_order",
    "em_quad_second_order",
    "converged_solution",
    "asymptotic_fit",
]

QUAD_MAX_NODES_PER_AXIS = 16


def slow_dft(field, points):
    """Literal nested-loop transform sum_x h^d exp(-i p.x) f(x).

    Same contract as nudft, written as an explicit loop over grid nodes so
    the two implementations share no code path.  Intended for small grids.
    """
    if field.space is not Space.POSITION:
        raise ValueError("slow_dft expects a position-space field")
    grid = field.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} components")
    axes = [grid.position_axis(i) for i in range(grid.dim)]
    out = np.zeros(points.shape[0], dtype=complex)
    for row in range(points.shape[0]):
        p = points[row]
        total = 0.0 + 0.0j
        for idx in np.ndindex(grid.shape):
            phase = 0.0
            for i in range(grid.dim):
                phase += p[i] * axes[i][idx[i]]
            total += field.values[idx] * np.exp(-1j * phase)
        out[row] = total * grid.cell_volume
    return out


@dataclass
class QuadratureResult:
    """One oracle evaluation: where, which order, what value, how long."""

    point: np.ndarray
    order: int
    value: np.ndarray
    grid_shape: tuple
    elapsed: float

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.value = np.asarray(self.value, dtype=complex)
        if not np.all(np.isfinite(self.value)):
            raise ValueError("oracle value must be finite")

    def to_dict(self):
        flat = np.atleast_1d(self.value)
        return {
            "oracle": True,
            "order": self.order,
            "point": [float(c) for c in self.point],
            "value_re": [float(v.real) for v in flat],
            "value_im": [float(v.imag) for v in flat],
            "grid_shape": list(self.grid_shape),
            "elapsed": self.elapsed,
        }


def _check_quad_grid(grid):
    if max(grid.counts) > QUAD_MAX_NODES_PER_AXIS:
        raise ValueError(
            f"quadrature oracle is capped at {QUAD_MAX_NODES_PER_AXIS} nodes "
            f"per axis; got {grid.counts}"
        )


def _momentum_nodes(grid):
    axes = [grid.momentum_axis(i) for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def quad_second_order(v_field, k_vec, points, eps):
    """Second-order values G(p) (2pi)^-d sum_q dq ṽ(p-q) G(q) ṽ(q-k).

    A direct double Riemann sum over the momentum nodes q, with every
    transform of v evaluated by slow_dft.  Matches the transform of the
    pipeline's order-2 position term at any momentum node p.
    """
    grid = v_field.grid
    _check_quad_grid(grid)
    if v_field.space is not Space.POSITION:
        raise ValueError("the interaction must be sampled in position space")
    k_vec = np.asarray(k_vec, dtype=float)
    if k_vec.shape != (grid.dim,):
        raise ValueError(f"k_vec must have {grid.dim} components")
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = float(np.linalg.norm(k_vec))
    q_nodes = _momentum_nodes(grid)
    g_q = green_factor(np.sum(q_nodes**2, axis=1), k, eps)
    v_in = slow_dft(v_field, q_nodes - k_vec)
    cell = float(np.prod(2.0 * np.pi / np.asarray(grid.extents)))
    norm = cell / (2.0 * np.pi) ** grid.dim
    results = []
    for p in points:
        start = time.perf_counter()
        v_out = slow_dft(v_field, p - q_nodes)
        total = norm * np.sum(v_out * g_q * v_in)
        value = green_factor(float(p @ p), k, eps) * total
        results.append(
            QuadratureResult(
                point=p,
                order=2,
                value=value,
                grid_shape=grid.shape,
                elapsed=time.perf_counter() - start,
            )
        )
    return results


def em_quad_second_order(materials, k_vec, psi0, points, eps):
    """Six-component analog of quad_second_order.

    Entry transforms of both tensors are evaluated by slow_dft (cached per
    tensor entry and point set); the momentum kernel is applied as an
    explicit 6x6 matrix at each node.
    """
    grid = materials.grid
    _check_quad_grid(grid)
    k_vec = np.asarray(k_vec, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (6,):
        raise ValueError("psi0 must be a six-vector")
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = float(np.linalg.norm(k_vec))
    q_nodes = _momentum_nodes(grid)
    g_q = green_factor(np.sum(q_nodes**2, axis=1), k, eps)
    cell = float(np.prod(2.0 * np.pi / np.asarray(grid.extents)))
    norm = cell / (2.0 * np.pi) ** grid.dim

    # Dense tensors bound once: each .eps / .mu access builds a new array.
    eps_tensor, mu_tensor = materials.eps, materials.mu
    cache = {}

    def entry_transform(tensor, i, j, pts):
        # keyed on the tensor (alive for the whole call) and the entry index:
        # the view tensor[i, j] is temporary, so its id can be reused
        key = (id(tensor), i, j, pts.tobytes())
        if key not in cache:
            cache[key] = slow_dft(
                SampledField(grid, tensor[i, j], Space.POSITION), pts
            )
        return cache[key]

    def tensor_product(tensor, pts, vec3):
        """(transform of tensor at pts) . vec3 -> (P, 3), skipping zero entries."""
        out = np.zeros((pts.shape[0], 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                if not np.any(tensor[i, j]):
                    continue
                out[:, i] += entry_transform(tensor, i, j, pts) * vec3[j]
        return out

    def kernel_matrix(p):
        eye = np.eye(3)
        ppt = np.outer(p, p)
        cross = np.array(
            [[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]]
        )
        top = np.hstack([-k * k * eye + ppt, k * cross])
        bottom = np.hstack([-k * cross, -k * k * eye + ppt])
        return np.vstack([top, bottom])

    # first order at every node q: M1(q) = K(q) (eta~(q-k) psi0)
    shifts = q_nodes - k_vec
    w1 = np.concatenate(
        [
            tensor_product(eps_tensor, shifts, psi0[:3]),
            tensor_product(mu_tensor, shifts, psi0[3:]),
        ],
        axis=1,
    )
    m1 = np.stack([kernel_matrix(q) @ w1[row] for row, q in enumerate(q_nodes)])

    results = []
    for p in points:
        start = time.perf_counter()
        w2 = np.zeros(6, dtype=complex)
        for block, tensor in ((0, eps_tensor), (3, mu_tensor)):
            weighted = g_q[:, None] * m1[:, block : block + 3]
            for i in range(3):
                for j in range(3):
                    if not np.any(tensor[i, j]):
                        continue
                    v_out = entry_transform(tensor, i, j, p - q_nodes)
                    w2[block + i] += norm * np.sum(v_out * weighted[:, j])
        value = green_factor(float(p @ p), k, eps) * (kernel_matrix(p) @ w2)
        results.append(
            QuadratureResult(
                point=p,
                order=2,
                value=value,
                grid_shape=grid.shape,
                elapsed=time.perf_counter() - start,
            )
        )
    return results


class SeriesConvergenceError(RuntimeError):
    """The partial sums did not settle within the order cap."""

    def __init__(self, order_cap, last_increment):
        self.order_cap = order_cap
        self.last_increment = last_increment
        super().__init__(
            f"series increments still at {last_increment:.3e} after "
            f"{order_cap} orders; the coupling is likely too strong for "
            "the expansion to converge"
        )


@dataclass
class ConvergedSolution:
    """Summed series in position space with its convergence history."""

    field: SampledField
    order: int
    last_increment: float
    increments: tuple = dataclass_field(default_factory=tuple)


def converged_solution(config, v_field, series_tol=1e-8, order_cap=32):
    """Sum series terms until the max-norm increment drops below series_tol.

    The reported order is the highest one whose increment still mattered,
    so a zero interaction converges at order 0.  Raises
    SeriesConvergenceError when order_cap is reached first, or when a term
    outright diverges; both point at strong coupling.
    """
    if series_tol <= 0:
        raise ValueError("series_tol must be positive")
    if order_cap < 1:
        raise ValueError("order_cap must be at least 1")
    orders = born_orders(incident_term(config), born_step, v_field, config)
    total = np.array(next(orders).field.values, copy=True)
    increments = []
    try:
        for term in islice(orders, order_cap):
            blockwise(np.add, total, total, term.field.values)
            increment = term.field.max_abs()
            increments.append(increment)
            if increment < series_tol:
                return ConvergedSolution(
                    field=SampledField(config.grid, total, Space.POSITION),
                    order=term.order - 1,
                    last_increment=increment,
                    increments=tuple(increments),
                )
    except DivergenceError as err:
        raise SeriesConvergenceError(err.order, err.magnitude) from err
    raise SeriesConvergenceError(order_cap, increments[-1])


@dataclass
class FarFieldFit:
    """Far-field amplitudes read off a position-space solution.

    `values` holds one amplitude per requested direction, averaged over the
    two sampling radii; `node_directions` are the exact directions of the
    grid nodes actually sampled (one row of directions per radius).
    """

    k: float
    radii: tuple
    directions: np.ndarray
    node_directions: np.ndarray
    per_radius: np.ndarray
    values: np.ndarray
    spread: float


def asymptotic_fit(psi, k_vec, fit_radius, directions, fit_wavenumber=None,
                   radius_ratio=0.9):
    """Amplitude estimates from the outgoing part of a summed solution.

    Subtracts the incident plane wave, samples the residual at the grid
    nodes nearest to radius*direction for two radii, and divides by the
    outgoing factor exp(i k r) / r^((d-1)/2) evaluated at the exact node
    radius.  A complex fit_wavenumber compensates the damping introduced by
    the regularized propagator.  Warns when the two radii disagree by more
    than 10% — the fit is then not yet in the far field.
    """
    if psi.space is not Space.POSITION:
        raise ValueError("asymptotic_fit expects a position-space solution")
    grid = psi.grid
    dim = grid.dim
    k_vec = np.asarray(k_vec, dtype=float)
    if k_vec.shape != (dim,):
        raise ValueError(f"k_vec must have {dim} components")
    k = float(np.linalg.norm(k_vec))
    if k <= 0:
        raise ValueError("k_vec must be nonzero")
    k_fit = complex(fit_wavenumber) if fit_wavenumber is not None else k
    if isinstance(directions, DirectionSet):
        directions = directions.unit_vectors
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms == 0):
        raise ValueError("directions must be nonzero")
    directions = directions / norms[:, None]
    if not 0 < radius_ratio < 1:
        raise ValueError("radius_ratio must lie in (0, 1)")
    radii = (float(fit_radius), float(fit_radius) * radius_ratio)
    margin = max(grid.spacing)
    if radii[0] <= 0 or radii[0] + margin > 0.5 * min(grid.extents):
        raise ValueError(
            f"fit radius {radii[0]:g} does not fit inside the box "
            f"{grid.extents} with one-cell margin"
        )

    nodes = np.array([
        [
            [int(np.clip(round((radius * u[i] + 0.5 * grid.extents[i]) / grid.spacing[i]),
                         0, grid.counts[i] - 1))
             for i in range(dim)]
            for u in directions
        ]
        for radius in radii
    ])
    # The incident wave is needed only at the fit nodes.
    incident = plane_wave_at(grid, k_vec, nodes.reshape(-1, dim)).reshape(nodes.shape[:2])
    axes = [grid.position_axis(i) for i in range(dim)]
    per_radius = np.zeros((2, directions.shape[0]), dtype=complex)
    node_directions = np.zeros((2, directions.shape[0], dim))
    for row, col in np.ndindex(per_radius.shape):
        idx = tuple(nodes[row, col])
        x_node = np.array([axes[i][idx[i]] for i in range(dim)])
        r_node = float(np.linalg.norm(x_node))
        node_directions[row, col] = x_node / r_node
        outgoing = np.exp(1j * k_fit * r_node) / r_node ** (0.5 * (dim - 1))
        per_radius[row, col] = (psi.values[idx] - incident[row, col]) / outgoing

    values = per_radius.mean(axis=0)
    scale = float(np.max(np.abs(values)))
    if scale > 0.0:
        spread = float(np.max(np.abs(per_radius[0] - per_radius[1])) / scale)
    else:
        spread = 0.0
    if spread > 0.1:
        warnings.warn(
            f"amplitude estimates from radii {radii[0]:g} and {radii[1]:g} "
            f"differ by {spread:.1%}; the fit radius is not yet in the far "
            "field",
            stacklevel=2,
        )
    return FarFieldFit(
        k=k,
        radii=radii,
        directions=directions,
        node_directions=node_directions,
        per_radius=per_radius,
        values=values,
        spread=spread,
    )
