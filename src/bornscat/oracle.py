"""Brute-force reference implementations for cross-checking the fast pipeline.

Everything here trades speed for obviousness: transforms are literal nested
loops, the second-order value is a double Riemann sum over momentum nodes,
and far-field amplitudes are read off position-space solutions instead of
shell spectra.  Size caps keep the quadratic costs at toy scale.
"""

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import islice

import numpy as np

from .grids import (SampledField, blockwise, finite_rows, finite_vector, on_box,
                    plane_wave_at, positive_number, whole_number)
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

# Both exp(i k r) and its reciprocal are normal floats while |Im k| r is at most this.
_EXP_RANGE = -math.log(sys.float_info.min)


def slow_dft(values, grid, points):
    """Literal nested-loop transform sum_x h^d exp(-i p.x) f(x).

    Same contract as nudft_values over the whole grid: raw position values
    of shape grid.shape, the grid and a (P, d) or (d,) point set.  Written
    as an explicit loop over grid nodes so the two implementations share no
    code path.  Intended for small grids.
    """
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"values of shape {values.shape} do not fill the box {grid.shape}")
    points = finite_rows(points, grid.dim, "points").reshape(-1, grid.dim)
    axes = [grid.position_axis(i) for i in range(grid.dim)]
    out = np.zeros(points.shape[0], dtype=complex)
    for row in range(points.shape[0]):
        p = points[row]
        total = 0.0 + 0.0j
        for idx in np.ndindex(grid.shape):
            phase = 0.0
            for i in range(grid.dim):
                phase += p[i] * axes[i][idx[i]]
            total += values[idx] * np.exp(-1j * phase)
        out[row] = total * grid.cell_volume
    return out


@dataclass
class QuadratureResult:
    """One oracle evaluation: where, which order, what value."""

    point: np.ndarray
    order: int
    value: np.ndarray
    grid_shape: tuple

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
        }


def _momentum_nodes(grid):
    axes = [grid.momentum_axis(i) for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _second_order(grid, entries, kernel, psi0, k_vec, points, eps):
    """G(p) K(p) (2pi)^-d sum_q sum_ij ṽ_ij(p-q) [G(q) K(q) w1(q)]_j at each p.

    A direct double Riemann sum over the momentum nodes q.  entries maps
    (row, col) to position-space values on grid, w1(q)_i is
    sum_j ṽ_ij(q-k) psi0_j, and kernel(k, p) is the momentum kernel as a
    matrix.  Every transform is evaluated by slow_dft, once per entry array
    and point set.  Returns one QuadratureResult per point, whose value has
    psi0's shape.
    """
    if max(grid.counts) > QUAD_MAX_NODES_PER_AXIS:
        raise ValueError(
            f"quadrature oracle is capped at {QUAD_MAX_NODES_PER_AXIS} nodes "
            f"per axis; got {grid.counts}"
        )
    k_vec = finite_vector(k_vec, grid.dim, "k_vec")
    positive_number(eps, "eps")
    points = finite_rows(points, grid.dim, "points").reshape(-1, grid.dim)
    k = float(np.linalg.norm(k_vec))
    q_nodes = _momentum_nodes(grid)
    g_q = green_factor(np.sum(q_nodes**2, axis=1), k, eps)
    cell = float(np.prod(2.0 * np.pi / np.asarray(grid.extents)))
    norm = cell / (2.0 * np.pi) ** grid.dim

    cache = {}

    def transform(values, pts):
        # keyed on the entry array, alive for the whole call: entries
        # sharing one array share one transform
        key = (id(values), pts.tobytes())
        if key not in cache:
            cache[key] = slow_dft(values, grid, pts)
        return cache[key]

    # first order at every node q, the entries visited in their map's order
    shifts = q_nodes - k_vec
    w1 = np.zeros((q_nodes.shape[0], psi0.size), dtype=complex)
    for (row, col), values in entries.items():
        w1[:, row] += transform(values, shifts) * psi0.flat[col]
    m1 = np.stack([kernel(k, q) @ w1[node] for node, q in enumerate(q_nodes)])
    weighted = g_q[:, None] * m1

    results = []
    for p in points:
        w2 = np.zeros(psi0.size, dtype=complex)
        for (row, col), values in entries.items():
            v_out = transform(values, p - q_nodes)
            w2[row] += norm * np.sum(v_out * weighted[:, col])
        value = green_factor(float(p @ p), k, eps) * (kernel(k, p) @ w2)
        results.append(QuadratureResult(
            point=p, order=2, value=value.reshape(psi0.shape), grid_shape=grid.shape
        ))
    return results


def quad_second_order(v_field, k_vec, points, eps):
    """Second-order values G(p) (2pi)^-d sum_q dq ṽ(p-q) G(q) ṽ(q-k).

    The one-component case of the quadrature: one entry, the identity
    kernel and a 0-d unit amplitude, so each value is 0-d.  Matches the
    transform of the pipeline's order-2 position term at any momentum node p.
    """
    return _second_order(
        v_field.grid, {(0, 0): v_field.grid_values()}, lambda k, p: np.eye(1),
        np.ones((), dtype=complex), k_vec, points, eps,
    )


def _em_kernel_matrix(k, p):
    """The six-component momentum kernel at p as an explicit 6x6 matrix."""
    eye = np.eye(3)
    ppt = np.outer(p, p)
    cross = np.array(
        [[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]]
    )
    top = np.hstack([-k * k * eye + ppt, k * cross])
    bottom = np.hstack([-k * cross, -k * k * eye + ppt])
    return np.vstack([top, bottom])


def em_quad_second_order(materials, k_vec, psi0, points, eps):
    """Six-component analog of quad_second_order.

    Each stored tensor entry (block, i, j) is the entry (3 block + i,
    3 block + j) of the six-by-six interaction, visited in ascending key
    order; the momentum kernel is applied as an explicit 6x6 matrix at
    each node.
    """
    psi0 = finite_vector(psi0, 6, "psi0", dtype=complex)
    grid, box = materials.grid, materials.box
    # each stored array on the whole grid once, so shared entries stay shared
    whole = {}
    for values in materials.entries.values():
        if id(values) not in whole:
            whole[id(values)] = on_box(values, box, grid.whole_box)
    entries = {
        (3 * block + i, 3 * block + j): whole[id(values)]
        for (block, i, j), values in materials.entries.items()
    }
    return _second_order(grid, entries, _em_kernel_matrix, psi0, k_vec, points, eps)


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
    increments: tuple = dataclass_field(default_factory=tuple)


def converged_solution(config, v_field, series_tol=1e-8, order_cap=32):
    """Sum series terms until the max-norm increment drops below series_tol.

    Each term's field is built on the whole grid (born_step's whole_grid),
    and its increment is its max over the grid.  Its inverse transform runs
    in numpy's order, so where the interaction's box inverts in another
    (see scalar's field contract) the terms differ from born_series' in
    the last bits.  The reported order is the highest one whose increment
    still mattered, so a zero interaction converges at order 0.  Raises
    SeriesConvergenceError when order_cap is reached first, or when a term
    outright diverges; both point at strong coupling.
    """
    positive_number(series_tol, "series_tol")
    order_cap = whole_number(order_cap, "order_cap", 1)
    step = partial(born_step, whole_grid=True)
    orders = born_orders(incident_term(config), step, v_field, config)
    total = np.array(next(orders).field, copy=True)
    increments = []
    try:
        for term in islice(orders, order_cap):
            blockwise(np.add, total, total, term.field)
            increment = term.field_max
            increments.append(increment)
            if increment < series_tol:
                return ConvergedSolution(
                    field=SampledField(config.grid, total, config.grid.whole_box),
                    order=term.order - 1,
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
    nodes nearest to radius*direction for two radii, one direction per row
    of the DirectionSet `directions` (of psi's dimension), and divides by
    the outgoing factor exp(i k r) / r^((d-1)/2) evaluated at the exact node
    radius.  A complex fit_wavenumber compensates the damping introduced by
    the regularized propagator; one whose |Im k| r at a fit node would take
    exp(i k r) or its reciprocal out of the normal float range is rejected.
    Warns when the two radii disagree by more than 10% — the fit is then
    not yet in the far field.
    """
    grid = psi.grid
    dim = grid.dim
    if psi.values.ndim != dim:
        raise ValueError(f"psi must hold one value per node, shape {grid.shape}; "
                         f"got shape {psi.values.shape[:1] + grid.shape}")
    values = psi.grid_values()
    k_vec = finite_vector(k_vec, dim, "k_vec")
    # |(1e308, 1e308)| overflows to inf, which positive_number reports
    with np.errstate(over="ignore"):
        k = positive_number(float(np.linalg.norm(k_vec)), "|k_vec|")
    k_fit = complex(fit_wavenumber) if fit_wavenumber is not None else k
    if not cmath.isfinite(k_fit):
        raise ValueError(f"fit_wavenumber = {fit_wavenumber} must be finite")
    if directions.dim != dim:
        raise ValueError(f"directions must be rows of {dim} components, psi's grid's")
    directions = directions.unit_vectors
    if not 0 < radius_ratio < 1:
        raise ValueError("radius_ratio must lie in (0, 1)")
    fit_radius = float(positive_number(fit_radius, "fit_radius"))
    radii = (fit_radius, fit_radius * radius_ratio)
    margin = max(grid.spacing)
    if radii[0] + margin > 0.5 * min(grid.extents):
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
        if r_node == 0.0:
            raise ValueError(f"fit_radius = {fit_radius:g} with radius_ratio = {radius_ratio:g} "
                             "puts a fit node at the origin, where r = 0")
        node_directions[row, col] = x_node / r_node
        if abs(k_fit.imag) * r_node > _EXP_RANGE:
            raise ValueError(
                f"fit_wavenumber = {fit_wavenumber} takes exp(i k r) out of the float range "
                f"at the fit node radius {r_node:g}: |Im k| r must be at most {_EXP_RANGE:.6g}"
            )
        outgoing = np.exp(1j * k_fit * r_node) / r_node ** (0.5 * (dim - 1))
        per_radius[row, col] = (values[idx] - incident[row, col]) / outgoing

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
