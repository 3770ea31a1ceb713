"""Scalar Born-series engine with half-space spectral-support checks.

The iteration runs in the plane-wave gauge: the incident term is
B0(x) = exp(i k.x) with unit amplitude, and each later term is obtained by
multiplying the previous one with the interaction v(x), transforming,
applying the regularized free propagator G(p) = 1/(k^2 - p^2 + i eps), and
transforming back:

    source_n(x) = v(x) * B_{n-1}(x)
    M_n(p)      = forward transform of source_n     (the pre-propagator numerator)
    B_n(x)      = inverse transform of G(p) * M_n(p)

Far-field scattering is controlled by M_n restricted to the shell |p| = k,
which is evaluated by direct (non-uniform) Fourier sums so that no momentum
interpolation enters the vanishing checks.  The verification helpers below
certify, as scale-free ratio tests, that interactions whose spectrum lives
in the half-space u.p >= alpha produce Born terms whose spectra stay out of
prescribed momentum regions, and that on-shell contributions vanish for all
orders above floor(2k/alpha).

This is the one engine for every wave type: the incident term, the order
iterator with its divergence guard, every step's tail (propagation and the
term), the term and record types, the verification reports and the CSV
writer serve scalar fields and the six-component EM fields of bornscat.em
alike.  Both are raw arrays of values, with one value or one six-vector
per node; the EM module supplies its material product, kernel and shell
evaluation.

A Born order allocates only the arrays its term keeps, and computes only
what the next order reads.  The interaction is exactly zero outside its
support box (grids.support_box), and so is every source v * B_{n-1},
since born_orders guards every order and so each step reads a finite B: a
step forms the source on that box alone, and the term keeps it there.
The numerator is built in a zero-filled array that the boxed source is
copied into: the forward transform runs in place on it, skipping the
lines that are still all zero, and an EM step then applies its kernel
there too.  The transform takes its pass order from the box (see
grids.fft_values): the numerator has the bits of numpy.fft.fftn of the
whole-grid source with its axes in the box's pass order.  So the order
follows the interaction, not the array layout: on a square grid, the
numerators and fields of an interaction along u = (0, 1) are the
transposes of those of its transpose along u = (1, 0), bit for bit.

The field contract: the next source reads B_n only on the interaction's
box and in the rows the interaction reads (the E rows of an EM field when
delta-mu = 0).  So a step propagates only those rows of its numerator,
its inverse transform runs only the lines the box needs, and the term's
field holds B_n there alone, a raw array like its source, with the bits
of the inverse transform in the box's pass order.  A caller that reads
B_n off the box (oracle.converged_solution, which sums fields) asks the
step for the whole grid instead (born_step's whole_grid); no box prunes
that inverse transform, so it runs in numpy's order.  Where the box's
inverse order is not numpy's (a 2D slab across u = (0, 1), or a 3D box of
unequal transverse shares), its fields, and from order 2 on its sources
and numerators, differ from the boxed series' in the last bits.  The
order-0 field is the incident wave on the whole grid.

The one lifecycle rule: a step releases order n's field (sets it to None)
once it has formed its source from it, since the field is then dead.  When
the field's array has the numerator's shape (order 0, and every order of a
whole-grid series) the step builds order n + 1's numerator in it.  G * M
takes a new array, which first holds G for one value per node (a
six-vector field has G in one transient array of one value per node), and
the inverse transform runs in place on it; for a field on the box, the
values on the box then move to the front of that array, which shrinks to
them.  So no grid-sized array is freed while a series runs, and a term's
field holds no value that is not B_n's.  A step consumes the term it steps
from: read a term's field before stepping from it, and step from a term
only once.
The term's arrays skip SampledField's finiteness pass: a value that is not
finite in the source, or in the numerator rows propagated, reaches every
value of the field through the transforms, so the one read of the field
max covers them all.  BornTerm is the one check of that max: it raises
grids.NonFiniteError when the max is not finite, and born_orders reports
it as a DivergenceError.  A held series keeps per order its numerator,
which the node norms read, and its boxed source, which the shell sums
read over the box alone, plus the last field on its box.
"""

import csv
import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grids import (
    DirectionSet,
    Grid,
    NonFiniteError,
    SampledField,
    blockwise,
    fft_values,
    finite_vector,
    ifft_values,
    max_abs,
    nudft_values,
    plane_wave,
    positive_number,
    snap_to_momentum_lattice,
    sphere_directions,
    unit_vector,
    whole_number,
)

__all__ = [
    "DivergenceError",
    "ScatterConfig",
    "BornTerm",
    "OnShellRecord",
    "BandCheck",
    "ShellCheck",
    "VerificationReport",
    "ExactnessReport",
    "DIVERGENCE_RATIO",
    "green_factor",
    "exactness_order",
    "make_scatter_config",
    "incident_term",
    "born_term",
    "born_step",
    "born_orders",
    "born_series",
    "propagate",
    "shell_record",
    "on_shell_numerator",
    "amplitude_factor",
    "verify_spectral_floor",
    "verify_order_bands",
    "verify_convolution_support",
    "verify_exactness",
    "write_on_shell_csv",
]

# A term whose position-space magnitude exceeds the first-order term by this
# factor signals a divergent series (strong coupling), not roundoff.
DIVERGENCE_RATIO = 1e12

# CSV value-column prefixes by the shape of one shell value: a scalar, or E over H.
_VALUE_PREFIXES = {(): ("",), (6,): tuple(f"{b}_{a}_" for b in "eh" for a in "xyz")}

# Orders past N = floor(2k/alpha) that a config without n_orders computes.
_EXTRA_ORDERS = 2


class DivergenceError(RuntimeError):
    """Born series grew past the divergence guard at some order."""

    def __init__(self, order, magnitude, reference):
        self.order = order
        self.magnitude = magnitude
        self.reference = reference
        bound = (
            "is not finite" if not math.isfinite(magnitude) else
            f"exceeds {DIVERGENCE_RATIO:.0e} x first-order scale {reference:.3e}"
        )
        super().__init__(
            f"series diverged at order {order}: max |term| = {magnitude:.3e} {bound}"
        )


def green_factor(p_sq, k, eps, out=None):
    """Regularized free propagator 1/(k^2 - p_sq + i*eps).

    For an array p_sq the values go into out, a new complex array of p_sq's
    shape by default.
    """
    positive_number(eps, "eps")
    p_sq = np.asarray(p_sq)
    if p_sq.ndim == 0:
        return 1.0 / (k * k - p_sq + 1j * eps)

    def factor(p_sq, out):
        np.divide(1.0, k * k - p_sq + 1j * eps, out=out)

    if out is None:
        out = np.empty(p_sq.shape, dtype=complex)
    return blockwise(factor, out, p_sq)


def exactness_order(k, alpha):
    """Largest integer not exceeding 2k/alpha.

    Orders above this vanish on the shell |p| = k for interactions supported
    in u.p >= alpha.  A tiny nudge absorbs float drift so that exact-integer
    ratios land on the integer.
    """
    positive_number(k, "k")
    positive_number(alpha, "alpha")
    ratio = 2.0 * k / alpha + 1e-9
    if not ratio < sys.maxsize:
        raise ValueError(f"2k/alpha = {ratio:g} exceeds every series length")
    return int(math.floor(ratio))


@dataclass(frozen=True)
class ScatterConfig:
    """Everything a Born run needs besides the sampled interaction.

    k is the magnitude of the snapped incident wave vector k_vec (always a
    momentum-lattice node, so the incident plane wave is exactly periodic on
    the box).  u (stored normalized) and alpha describe the interaction's
    spectral half-space u.p >= alpha; directions are the on-shell sample set
    at |p| = k.  The verify_* checks read k, u and alpha from here alone.
    """

    grid: Grid
    k: float
    k_vec: tuple
    u: tuple
    alpha: float
    epsilon: float
    n_orders: int
    directions: DirectionSet

    def __post_init__(self):
        positive_number(self.k, "k")
        positive_number(self.epsilon, "epsilon")
        _check_below_band_edge(self.grid, self.k)
        # born_series slices n_orders + 1
        n_orders = whole_number(self.n_orders, "n_orders", 0, sys.maxsize)
        object.__setattr__(self, "n_orders", n_orders)
        finite_vector(self.k_vec, self.grid.dim, "k_vec")
        u = finite_vector(unit_vector(self.u, "u"), self.grid.dim, "u")
        object.__setattr__(self, "u", tuple(float(c) for c in u))
        positive_number(self.alpha, "alpha")
        # A grid cannot resolve, so cannot certify, a threshold finer than one
        # of its momentum cells; this also bounds N = floor(2k/alpha) below
        # the node count along an axis-aligned u.
        cell = _momentum_cell_along(self.grid, self.u)
        if not self.alpha >= cell:
            raise ValueError(
                f"alpha = {self.alpha:.4g} must be at least one momentum cell "
                f"along u, {cell:.4g}, for the grid to resolve it"
            )
        if abs(self.directions.k - self.k) > 1e-9 * self.k:
            raise ValueError("direction set wavenumber disagrees with config k")
        if self.directions.dim != self.grid.dim:
            raise ValueError(f"directions must be rows of {self.grid.dim} components, the grid's")

    @property
    def k_hat(self):
        return tuple(c / self.k for c in self.k_vec)

    @property
    def exact_order(self):
        return exactness_order(self.k, self.alpha)


def _check_below_band_edge(grid, k):
    edge = min(grid.nyquist)
    if not k < edge:
        raise ValueError(f"k = {k:.4g} must lie below the momentum band edge {edge:.4g}")


def _momentum_cell_along(grid, u):
    """Length of the line along unit u across one momentum cell from a corner.

    min over u_i != 0 of dp_i / |u_i|: 2 pi / L_i for u along axis i.
    """
    return min(dp / abs(c) for dp, c in zip(grid.momentum_spacing, u) if c != 0)


def make_scatter_config(
    grid,
    k,
    potential=None,
    *,
    u=None,
    alpha=None,
    epsilon=None,
    eps_cells=2.0,
    n_orders=None,
    direction_count=64,
):
    """Assemble a ScatterConfig with the standard defaults.

    The support axis u and threshold alpha are taken from `potential` when
    given (a PotentialSpec or PotentialSum), else must be passed explicitly.
    The incident direction is -u, so the wave travels into the half-space
    where the interaction spectrum lives; the wave vector is then snapped
    to the nearest momentum node and everything downstream (shell radius,
    directions, default regulator) uses the snapped magnitude.
    eps defaults to eps_cells * k * max(dp): the propagator shell is smoothed
    over about eps_cells momentum cells.
    """
    if potential is not None:
        u = tuple(potential.u) if u is None else u
        alpha = float(potential.alpha_min) if alpha is None else alpha
    if u is None or alpha is None:
        raise ValueError("need a potential or explicit u and alpha")
    positive_number(k, "k")
    # before snapping, so the message names the requested k and not an overflowed norm
    _check_below_band_edge(grid, k)
    u = finite_vector(unit_vector(u, "u"), grid.dim, "u")
    k_vec = snap_to_momentum_lattice(grid, float(k) * unit_vector(-u, "u"))
    with np.errstate(over="ignore"):  # an inf here fails the band-edge check below
        k_snapped = float(np.linalg.norm(k_vec))
    if k_snapped == 0.0:
        raise ValueError(
            f"k = {k} snaps to the zero momentum node on this grid"
        )
    _check_below_band_edge(grid, k_snapped)  # snapping can lift k over the edge
    if epsilon is None:
        positive_number(eps_cells, "eps_cells")
        epsilon = eps_cells * k_snapped * max(grid.momentum_spacing)
    if n_orders is None:
        n_orders = exactness_order(k_snapped, alpha) + _EXTRA_ORDERS
    direction_count = whole_number(direction_count, "direction_count", 1)
    if direction_count > grid.size:  # so a shell record is no larger than a field
        raise ValueError(f"direction_count = {direction_count} exceeds the grid's "
                         f"node count, {grid.size}")
    directions = sphere_directions(
        grid.dim, k_snapped, direction_count, k_vec / k_snapped
    )
    return ScatterConfig(
        grid=grid,
        k=k_snapped,
        k_vec=tuple(float(c) for c in k_vec),
        u=tuple(float(c) for c in u),
        alpha=float(alpha),
        epsilon=float(epsilon),
        n_orders=n_orders,
        directions=directions,
    )


@dataclass
class BornTerm:
    """One order of the series.

    field holds B_n(x) until a step builds order n + 1, and None after: the
    raw values, with the EM components in front, on box and in the rows the
    interaction reads (the three E rows of a six-vector when delta-mu = 0),
    since that is all the next order reads.  At order 0, and for a step
    asked for the whole grid (oracle.converged_solution), it holds every
    row on the whole grid.  For n >= 1, numerator is M_n(p), the transform
    of the position-space source v * B_{n-1}, and source is the array of
    that source's values on box: one slice per grid axis, outside which
    the source is zero, with the EM components in front.  box None means
    the whole grid.  source and numerator are None at order 0, where the
    term is the bare incident wave.  The numerator is a SampledField, with
    one value per node for scalar waves and a six-vector per node for EM
    waves.  field_max is max |B_n| over the values field holds, for
    n >= 1, read here unless given (0.0 for an empty box); a max that is
    not finite raises NonFiniteError.  It is None at order 0, and it
    outlives the field.
    """

    order: int
    field: np.ndarray
    source: np.ndarray = None
    numerator: SampledField = None
    field_max: float = None
    box: tuple = None

    def __post_init__(self):
        if (self.source is None) != (self.numerator is None):
            raise ValueError("source and numerator must be set together")
        if self.order == 0:
            if self.source is not None:
                raise ValueError("order 0 carries no source")
        elif self.source is None:
            raise ValueError("orders >= 1 need source and numerator")
        else:
            if self.field_max is None:
                self.field_max = max_abs(self.field)
            if not math.isfinite(self.field_max):
                raise NonFiniteError("field values must be finite")


def incident_term(config, psi0=None):
    """Order-0 term: the unit plane wave exp(i k.x), times the six-vector psi0 if given."""
    grid = config.grid
    values = plane_wave(grid, config.k_vec)
    if psi0 is not None:
        psi0 = finite_vector(psi0, 6, "psi0", dtype=complex)
        values = blockwise(
            np.multiply, np.empty((6,) + grid.shape, dtype=complex),
            psi0.reshape((6,) + (1,) * grid.dim), values, axis=1,
        )
    return BornTerm(order=0, field=values)


def propagate(numerator_values, config, out, box=None):
    """Position values of the next order: inverse transform of G(p) * M_n(p).

    numerator_values may carry leading component axes, over which G
    broadcasts.  G * M goes into out, a complex array of the numerator's
    shape, and the inverse transform runs in place on it (G is built in out
    first for one value per node).  With a box, one slice per grid axis,
    only out's values on the box are the next order's (see ifft_values).
    numerator_values is left as it is.
    """
    grid = config.grid
    one = numerator_values.shape == grid.shape
    propagator = green_factor(grid.momentum_sq, config.k, config.epsilon,
                              out=out if one else None)
    blockwise(np.multiply, out, propagator, numerator_values,
              axis=numerator_values.ndim - grid.dim)
    return ifft_values(out, grid, out=out, box=box)


def born_term(prev, config, source, box, transform, *, whole_grid=False):
    """The term after prev, whose field it releases.

    source holds the position-space source's values on box (one slice per
    grid axis), outside which the source is zero, with any component axes
    in front.  They are copied into a zero-filled array of the numerator's
    shape: prev's field array when it has that shape (order 0, and a
    whole-grid field), which is dead once the source is formed, else a new
    one.  transform(values) builds the numerator there in place and
    returns the rows of it that the next order reads (all of it for one
    value per node).  Those rows are propagated in a new array, which is
    the field: on the whole grid if whole_grid, else shrunk to the field's
    values on box (_shrink_to_box).
    """
    grid = config.grid
    shape = source.shape[:source.ndim - grid.dim] + grid.shape
    values, prev.field = prev.field, None
    if values.shape == shape and values.dtype == complex:
        values.fill(0)
    else:
        values = np.zeros(shape, dtype=complex)
    values[(Ellipsis,) + box] = source
    # BornTerm reports a value that is not finite, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        read = transform(values)
        if whole_grid:
            field = propagate(read, config, np.empty_like(read))
        else:
            # no other name may hold the propagated array, which shrinks
            field = _shrink_to_box(propagate(read, config, np.empty_like(read), box), box)
        field_max = max_abs(field)
    return BornTerm(
        prev.order + 1, field, source,
        SampledField._unchecked(grid, values), field_max, box,
    )


def _shrink_to_box(values, box):
    """values' entries on box, kept in values' own memory, which shrinks to them.

    They move to the front of values, a new C-contiguous array, which is
    then resized (a realloc) to hold them alone; if some other name holds
    values, the resize is refused and they are copied out instead.  A
    step so frees no grid-sized array: freeing one while a series runs
    raises glibc's mmap threshold, and the later orders' numerators then
    come from the heap and stay resident after the series (em3d_aniso's
    peak RSS rose by 10% so).
    """
    shape = values.shape[:values.ndim - len(box)] + tuple(s.stop - s.start for s in box)
    if shape == values.shape:
        return values
    size = math.prod(shape)
    np.copyto(values.reshape(-1)[:size].reshape(shape), values[(Ellipsis,) + box])
    try:
        values.resize(size)
    except ValueError:
        values = values.reshape(-1)[:size].copy()
    values.shape = shape
    return values


def _step_input(prev, interaction, config):
    """prev's field on the interaction's box, the input of every step.

    The field must not be released yet, and must cover the grid or be the
    field of a step with an interaction of the same box.
    """
    if prev.field is None:
        raise ValueError(f"the field of order {prev.order} was released once order "
                         f"{prev.order + 1} was built; step from the last term of a series")
    grid, box = config.grid, interaction.box
    if interaction.grid != grid:
        raise ValueError("term, interaction and config must share one grid")
    field = prev.field
    if field.shape[field.ndim - grid.dim:] == grid.shape:
        return field[(Ellipsis,) + box]
    if prev.box != box:
        raise ValueError(f"the field of order {prev.order} covers neither the grid nor "
                         f"the interaction's box {box}")
    return field


def born_step(prev, v_field, config, *, whole_grid=False):
    """Advance the series by one order, consuming prev's field.

    The source v * B is formed on v_field.box alone, the box outside which v
    is zero.  That box is read once and kept, so v_field's values must not
    be written once a step has read them.  The next order's field is built
    on that box too, as the next step reads it there; whole_grid asks for
    it on the whole grid, for a caller that reads it off the box, with the
    inverse transform in numpy's order (see the module docstring).
    """
    grid = config.grid
    field = _step_input(prev, v_field, config)
    box = v_field.box
    v = v_field.values[box]
    source = blockwise(np.multiply, np.empty(v.shape, dtype=complex), v, field)
    return born_term(prev, config, source, box,
                     lambda values: fft_values(values, grid, out=values, box=box),
                     whole_grid=whole_grid)


def born_orders(first, step, *args):
    """The term `first`, then every later order, without end.

    step(prev, *args) advances one order and consumes prev's field (see the
    module docstring), so read a term's field before asking for the next
    order.  Only the latest term is kept alive here.  The iterator owns the
    divergence guard, for every wave type: an order that overflowed
    (NonFiniteError from BornTerm) or whose field max exceeds
    DIVERGENCE_RATIO times the order-1 field max raises DivergenceError.
    As every order is guarded, each step reads a finite field, whose
    product with the interaction's exact zeros is zero: that is why a step
    may form its source on the interaction's support box alone.
    """
    term, reference = first, None
    yield term
    while True:
        order = term.order + 1
        try:
            # the guard reports the overflow, so numpy need not warn of it
            with np.errstate(over="ignore", invalid="ignore"):
                term = step(term, *args)
        except NonFiniteError:
            raise DivergenceError(order, math.inf, reference) from None
        magnitude = term.field_max
        if reference is not None and magnitude > DIVERGENCE_RATIO * reference:
            raise DivergenceError(order, magnitude, reference)
        if order == 1:
            reference = magnitude
        yield term


def born_series(config, v_field):
    """Terms of orders 0..n_orders for the sampled interaction v_field.

    Every term keeps its source and numerator; only the last keeps its
    field, the others hold None there (see born_orders).
    """
    orders = born_orders(incident_term(config), born_step, v_field, config)
    return list(islice(orders, config.n_orders + 1))


@dataclass
class OnShellRecord:
    """Shell samples M_n(k * direction) of one order's numerator.

    values holds one number per direction for scalar waves and one row of
    components per direction, shape (count, 6), for EM waves.
    """

    order: int
    k: float
    directions: np.ndarray
    values: np.ndarray

    @property
    def norms(self):
        if self.values.ndim == 1:
            return np.abs(self.values)
        return np.linalg.norm(self.values, axis=1)

    @property
    def max_abs(self):
        return float(np.max(self.norms))


def shell_record(term, config, directions, evaluate):
    """Shell record of evaluate(term.source, term.box, momenta) on the direction set.

    directions defaults to config.directions; evaluate maps the stored
    position-space source, the values on its box, to the order's numerator
    at the shell momenta.
    """
    if term.order < 1 or term.source is None:
        raise ValueError("on-shell evaluation needs a term of order >= 1")
    dirs = config.directions if directions is None else directions
    if abs(dirs.k - config.k) > 1e-9 * config.k:
        raise ValueError("direction set wavenumber disagrees with config k")
    return OnShellRecord(
        order=term.order,
        k=dirs.k,
        directions=np.array(dirs.unit_vectors, copy=True),
        values=evaluate(term.source, term.box, dirs.momenta),
    )


def on_shell_numerator(term, config, directions=None):
    """Evaluate the order's numerator on the shell |p| = k.

    Uses the exact direct Fourier sum of the stored position-space source,
    over its box, so no interpolation touches the values.
    """
    def evaluate(source, box, points):
        return nudft_values(source, config.grid, points, box=box)

    return shell_record(term, config, directions, evaluate)


def amplitude_factor(dim, k):
    """Constant relating shell numerators to far-field amplitudes.

    3D: -1/(4 pi).  2D: -exp(i pi/4)/sqrt(8 pi k), the outgoing-cylindrical
    normalization.  Cross-validated against the asymptotic far-field fit; the
    vanishing checks never depend on it.
    """
    positive_number(k, "k")
    if dim == 3:
        return -1.0 / (4.0 * np.pi)
    if dim == 2:
        return -np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * k)
    raise ValueError("dim must be 2 or 3")


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class BandCheck:
    """Max magnitude of one order's numerator inside a forbidden region."""

    order: int
    band: str
    forbidden_max: float
    reference_max: float
    vacuous: bool

    @property
    def ratio(self):
        if self.vacuous:
            return 0.0
        return self.forbidden_max / self.reference_max

    def passed(self, tol):
        return self.vacuous or self.ratio <= tol

    def to_dict(self, tol):
        return {
            "order": self.order,
            "band": self.band,
            "forbidden_max": self.forbidden_max,
            "reference_max": self.reference_max,
            "max_ratio": self.ratio,
            "vacuous": self.vacuous,
            "tol": tol,
            "pass": bool(self.passed(tol)),
        }


@dataclass(frozen=True)
class VerificationReport:
    """A named family of band checks sharing one tolerance."""

    name: str
    tol: float
    checks: tuple

    @property
    def passed(self):
        return all(c.passed(self.tol) for c in self.checks)

    @property
    def worst_ratio(self):
        live = [c.ratio for c in self.checks if not c.vacuous]
        return max(live) if live else 0.0

    def to_dict(self):
        return {
            "name": self.name,
            "tol": self.tol,
            "pass": bool(self.passed),
            "checks": [c.to_dict(self.tol) for c in self.checks],
        }


def _band_check(magnitudes, mask, order, band):
    reference = float(np.max(magnitudes))
    selected = magnitudes[mask]
    if reference == 0.0 or selected.size == 0:
        return BandCheck(order, band, 0.0, reference, vacuous=True)
    return BandCheck(
        order, band, float(np.max(selected)), reference, vacuous=False
    )


def _numerator_terms(series):
    terms = [t for t in series if t.order >= 1]
    if not terms:
        raise ValueError("series holds no terms beyond the incident wave")
    return terms


def _band_report(config, series, tol, name, band):
    """One band check per order along config.u; band(order, p_par) gives its mask and label.

    The report is named em-<name> for six-vector numerators, else <name>.
    """
    positive_number(tol, "tol")
    terms = _numerator_terms(series)
    numerator = terms[0].numerator
    if numerator.values.ndim > numerator.grid.dim:
        name = f"em-{name}"
    p_par = config.grid.momentum_parallel(config.u)
    checks = []
    for term in terms:
        mask, label = band(term.order, p_par)
        checks.append(_band_check(term.numerator.node_norms(), mask, term.order, label))
    return VerificationReport(name, float(tol), tuple(checks))


def verify_spectral_floor(config, series, tol=1e-3):
    """Check that every order's spectrum avoids the floor u.p < -k.

    u and k are config's.  Interactions supported in u.p >= alpha > 0 can
    only push spectral weight toward larger u.p, so no order reaches below
    -k (the lowest component of the incident wave).  Each check compares the
    max node magnitude below the floor with the order's global max.
    """

    def band(order, p_par):
        return p_par < -config.k, f"u.p < {-config.k:.6g}"

    return _band_report(config, series, tol, "spectral-floor", band)


def verify_order_bands(config, series, tol=1e-3):
    """Check the per-order forbidden bands around the shell.

    With config's u, k, alpha and N = floor(2k/alpha), the order-m spectrum
    must vanish on -k <= u.p <= k - (N - m + 1)*alpha: each factor shifts the
    spectral support up by at least alpha, so low orders cannot yet have
    fallen back down onto the shell band.  Empty bands are reported vacuous.
    """
    k, alpha, n_exact = config.k, config.alpha, config.exact_order

    def band(order, p_par):
        upper = k - (n_exact - order + 1) * alpha
        return (p_par >= -k) & (p_par <= upper), f"{-k:.6g} <= u.p <= {upper:.6g}"

    return _band_report(config, series, tol, "order-bands", band)


def verify_convolution_support(
    grid, u, mu, nu, width=None, trials=3, seed=0, tol=1e-10
):
    """Support addition under pointwise products, on random band spectra.

    Draws random spectra supported in mu <= u.p <= mu + width and
    nu <= u.p <= nu + width, multiplies the corresponding position-space
    fields, and checks that the product's spectrum vanishes for
    u.p < mu + nu.  Both spectra are additionally confined to the central
    45% of each momentum axis so index sums cannot wrap around the band
    edges, keeping the circular grid convolution faithful to the continuum
    statement.  One check per trial; empty effective bands come out vacuous.
    """
    positive_number(tol, "tol")
    trials = whole_number(trials, "trials", 1)
    u = unit_vector(u, "u")
    p_par = grid.momentum_parallel(u)
    if width is None:
        width = 0.3 * float(np.max(p_par))
    positive_number(width, "width")
    core = np.ones(grid.shape, dtype=bool)
    for axis, p in enumerate(grid.momentum_mesh()):
        core &= np.abs(p) <= 0.45 * grid.nyquist[axis]
    mask_f = core & (p_par >= mu) & (p_par <= mu + width)
    mask_g = core & (p_par >= nu) & (p_par <= nu + width)
    forbidden = p_par < mu + nu
    band = f"u.p < {mu + nu:.6g}"
    checks = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        spectra = []
        for mask in (mask_f, mask_g):
            s = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            spectra.append(s * mask)
        f = ifft_values(spectra[0], grid)
        g = ifft_values(spectra[1], grid)
        product_spectrum = fft_values(f * g, grid)
        checks.append(
            _band_check(np.abs(product_spectrum), forbidden, trial, band)
        )
    return VerificationReport("convolution-support", float(tol), tuple(checks))


@dataclass(frozen=True)
class ShellCheck:
    """On-shell max of one order's numerator against its global max."""

    order: int
    shell: str
    on_shell_max: float
    reference_max: float
    must_vanish: bool

    @property
    def ratio(self):
        if self.reference_max == 0.0:
            return 0.0
        return self.on_shell_max / self.reference_max

    def passed(self, tol):
        return (not self.must_vanish) or self.ratio <= tol

    def to_dict(self, tol):
        return {
            "order": self.order,
            "shell": self.shell,
            "on_shell_max": self.on_shell_max,
            "reference_max": self.reference_max,
            "max_ratio": self.ratio,
            "must_vanish": self.must_vanish,
            "tol": tol,
            "pass": bool(self.passed(tol)),
        }


@dataclass(frozen=True)
class ExactnessReport:
    """Shell checks for every computed order of one run.

    Orders above exact_order = floor(2k/alpha) must vanish on the shell;
    lower orders are reported as observed, with no bound asserted.
    """

    k: float
    alpha: float
    exact_order: int
    tol: float
    checks: tuple
    records: tuple

    @property
    def passed(self):
        return all(c.passed(self.tol) for c in self.checks)

    def check_for(self, order):
        for c in self.checks:
            if c.order == order:
                return c
        raise KeyError(f"no order-{order} check in this report")

    def to_dict(self):
        return {
            "k": self.k,
            "alpha": self.alpha,
            "exact_order": self.exact_order,
            "tol": self.tol,
            "pass": bool(self.passed),
            "checks": [c.to_dict(self.tol) for c in self.checks],
        }


def verify_exactness(config, series, tol=1e-3, shell=None):
    """Shell-vanishing report for all orders above floor(2k/alpha).

    series is the list of BornTerms born_series returns.  Each order's
    numerator is sampled on the shell by `shell` (default
    on_shell_numerator) and its largest shell norm is compared, as a ratio,
    against the largest node norm of the numerator on the momentum grid.
    """
    positive_number(tol, "tol")
    shell = on_shell_numerator if shell is None else shell
    n_exact = config.exact_order
    terms = _numerator_terms(series)
    if terms[-1].order < n_exact + 1:
        raise ValueError(
            f"series reaches order {terms[-1].order} but testing exactness at "
            f"N = {n_exact} needs at least order {n_exact + 1}"
        )
    shell_label = f"|p| = {config.k:.6g}"
    checks = []
    records = []
    for term in terms:
        record = shell(term, config)
        records.append(record)
        checks.append(
            ShellCheck(
                order=term.order,
                shell=shell_label,
                on_shell_max=record.max_abs,
                reference_max=float(np.max(term.numerator.node_norms())),
                must_vanish=term.order > n_exact,
            )
        )
    return ExactnessReport(
        k=config.k,
        alpha=config.alpha,
        exact_order=n_exact,
        tol=float(tol),
        checks=tuple(checks),
        records=tuple(records),
    )


def write_on_shell_csv(path, records):
    """Write shell records as CSV: order, direction components, then re/im.

    The value columns follow the records' values: re, im for one value per
    direction, and e_x_re, e_x_im, ..., h_z_im for a six-vector.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    dim = records[0].directions.shape[1]
    header = ["order", *["dir_x", "dir_y", "dir_z"][:dim]]
    for prefix in _VALUE_PREFIXES[records[0].values.shape[1:]]:
        header += [f"{prefix}re", f"{prefix}im"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            for direction, value in zip(record.directions, record.values):
                row = [record.order] + [repr(float(c)) for c in direction]
                for component in np.atleast_1d(value):
                    row += [repr(float(component.real)), repr(float(component.imag))]
                writer.writerow(row)
