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
alike.  Both are grids.SampledField, with one value or one six-vector per
node; the EM module supplies its material product, kernel and shell
evaluation.

A Born order allocates only the three arrays its term keeps: its source,
its numerator and its field.  The propagator G is built into the array that
becomes the field (a one-value field) or that holds G * M (a six-vector
field), and the inverse transform runs in place on G * M.  The term's
three fields skip SampledField's finiteness pass: a value that is not
finite in the source or numerator reaches every node of the field through
the transforms, so the one read of the field max in born_term covers all
three.  A step called directly raises grids.NonFiniteError when that max is
not finite; born_orders reports it as a DivergenceError.
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
    Space,
    blockwise,
    fft_values,
    ifft_values,
    max_abs,
    nudft,
    plane_wave,
    snap_to_momentum_lattice,
    sphere_directions,
    unit_vector,
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


def green_factor(p_sq, k, eps):
    """Regularized free propagator 1/(k^2 - p_sq + i*eps)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    p_sq = np.asarray(p_sq)
    if p_sq.ndim == 0:
        return 1.0 / (k * k - p_sq + 1j * eps)

    def factor(p_sq, out):
        np.divide(1.0, k * k - p_sq + 1j * eps, out=out)

    return blockwise(factor, np.empty(p_sq.shape, dtype=complex), p_sq)


def exactness_order(k, alpha):
    """Largest integer not exceeding 2k/alpha.

    Orders above this vanish on the shell |p| = k for interactions supported
    in u.p >= alpha.  A tiny nudge absorbs float drift so that exact-integer
    ratios land on the integer.
    """
    if not (k > 0 and alpha > 0):
        raise ValueError("k and alpha must be positive")
    ratio = 2.0 * k / alpha + 1e-9
    if not ratio < sys.maxsize:
        raise ValueError(f"2k/alpha = {ratio:g} exceeds every series length")
    return int(math.floor(ratio))


@dataclass(frozen=True)
class ScatterConfig:
    """Everything a Born run needs besides the sampled interaction.

    k is the magnitude of the snapped incident wave vector k_vec (always a
    momentum-lattice node, so the incident plane wave is exactly periodic on
    the box).  u and alpha describe the interaction's spectral half-space
    u.p >= alpha; directions are the on-shell sample set at |p| = k.
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
        if not self.k > 0:
            raise ValueError("k must be positive (wave vector snapped to zero?)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        _check_below_band_edge(self.grid, self.k)
        if not 0 <= self.n_orders < sys.maxsize:  # born_series slices n_orders + 1
            raise ValueError(f"n_orders = {self.n_orders} must lie in [0, {sys.maxsize})")
        if len(self.k_vec) != self.grid.dim or len(self.u) != self.grid.dim:
            raise ValueError("k_vec and u must match the grid dimension")
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

    @property
    def dim(self):
        return self.grid.dim

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
    k_hat=None,
    epsilon=None,
    eps_cells=2.0,
    n_orders=None,
    direction_count=64,
):
    """Assemble a ScatterConfig with the standard defaults.

    The support axis u and threshold alpha are taken from `potential` when
    given (a PotentialSpec or PotentialSum), else must be passed explicitly.
    The incident direction defaults to -u, so the wave travels into the
    half-space where the interaction spectrum lives; the wave vector is then
    snapped to the nearest momentum node and everything downstream (shell
    radius, directions, default regulator) uses the snapped magnitude.
    eps defaults to eps_cells * k * max(dp): the propagator shell is smoothed
    over about eps_cells momentum cells.
    """
    if potential is not None:
        u = tuple(potential.u) if u is None else u
        alpha = float(potential.alpha_min) if alpha is None else alpha
    if u is None or alpha is None:
        raise ValueError("need a potential or explicit u and alpha")
    if not 0 < k < math.inf:
        raise ValueError(f"k = {k} must be positive and finite")
    # before snapping, so the message names the requested k and not an overflowed norm
    _check_below_band_edge(grid, k)
    u = unit_vector(u, "u")
    if u.shape != (grid.dim,):
        raise ValueError(f"u has {u.size} components, the grid has {grid.dim} axes")
    k_hat = unit_vector(-u if k_hat is None else k_hat, "k_hat")
    k_vec = snap_to_momentum_lattice(grid, float(k) * k_hat)
    with np.errstate(over="ignore"):  # an inf here fails the band-edge check below
        k_snapped = float(np.linalg.norm(k_vec))
    if k_snapped == 0.0:
        raise ValueError(
            f"k = {k} snaps to the zero momentum node on this grid"
        )
    _check_below_band_edge(grid, k_snapped)  # snapping can lift k over the edge
    if epsilon is None:
        if not 0 < eps_cells < math.inf:
            raise ValueError(f"eps_cells = {eps_cells} must be positive and finite")
        epsilon = eps_cells * k_snapped * max(grid.momentum_spacing)
    if n_orders is None:
        n_orders = exactness_order(k_snapped, alpha) + _EXTRA_ORDERS
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
        n_orders=int(n_orders),
        directions=directions,
    )


@dataclass
class BornTerm:
    """One order of the series.

    field is B_n(x).  For n >= 1, source is v * B_{n-1} in position space and
    numerator is its transform M_n(p); both are None at order 0, where the
    term is the bare incident wave.  The fields are SampledFields, with one
    value per node for scalar waves and a six-vector per node for EM waves.
    field_max is max |B_n| for n >= 1, read here unless the step that built
    the term passes the value it read; it is None at order 0.
    """

    order: int
    field: SampledField
    source: SampledField = None
    numerator: SampledField = None
    field_max: float = None

    def __post_init__(self):
        if self.field.space is not Space.POSITION:
            raise ValueError("term field must be position-space")
        if (self.source is None) != (self.numerator is None):
            raise ValueError("source and numerator must be set together")
        if self.order == 0:
            if self.source is not None:
                raise ValueError("order 0 carries no source")
        elif self.source is None:
            raise ValueError("orders >= 1 need source and numerator")
        elif self.field_max is None:
            self.field_max = self.field.max_abs()


def incident_term(config, psi0=None):
    """Order-0 term: the unit plane wave exp(i k.x), times the six-vector psi0 if given."""
    grid = config.grid
    values = plane_wave(grid, config.k_vec)
    if psi0 is not None:
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (6,):
            raise ValueError("incident amplitude must be a six-vector")
        values = blockwise(
            np.multiply, np.empty((6,) + grid.shape, dtype=complex),
            psi0.reshape((6,) + (1,) * grid.dim), values, axis=1,
        )
    return BornTerm(order=0, field=SampledField(grid, values, Space.POSITION))


def propagate(numerator_values, config):
    """Position values of the next order: inverse transform of G(p) * M_n(p).

    numerator_values may carry leading component axes, over which G
    broadcasts.  G * M goes into G's own array when M has one value per
    node, else into one new array, and the inverse transform runs in place
    on it; numerator_values is left as it is.
    """
    grid = config.grid
    propagator = green_factor(grid.momentum_sq, config.k, config.epsilon)
    product = propagator
    if numerator_values.shape != propagator.shape:
        product = np.empty(numerator_values.shape, dtype=complex)
    blockwise(np.multiply, product, propagator, numerator_values,
              axis=numerator_values.ndim - grid.dim)
    return ifft_values(product, grid, out=product)


def born_term(prev, config, source, transform):
    """The term after prev, from its source field and the transform to its numerator.

    Reads the new field's max once and raises NonFiniteError when it is not
    finite; the term carries it as field_max.
    """
    grid = config.grid
    # the check below reports a value that is not finite, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = transform(source.values)
        field = propagate(numerator, config)
        field_max = max_abs(field)
    if not math.isfinite(field_max):
        raise NonFiniteError("field values must be finite")
    return BornTerm(
        prev.order + 1, SampledField._unchecked(grid, field, Space.POSITION), source,
        SampledField._unchecked(grid, numerator, Space.MOMENTUM), field_max,
    )


def born_step(prev, v_field, config):
    """Advance the series by one order."""
    grid = config.grid
    if v_field.space is not Space.POSITION:
        raise ValueError("v_field must be position-space")
    if v_field.grid != grid or prev.field.grid != grid:
        raise ValueError("term, interaction and config must share one grid")
    source_values = blockwise(
        np.multiply, np.empty(grid.shape, dtype=complex), v_field.values, prev.field.values
    )
    return born_term(
        prev, config, SampledField._unchecked(grid, source_values, Space.POSITION),
        lambda source: fft_values(source, grid),
    )


def born_orders(first, step, *args):
    """The term `first`, then every later order, without end.

    step(prev, *args) advances one order.  Only the latest term is kept
    alive here.  The iterator owns the divergence guard, for every wave
    type: an order whose source, numerator or field is not finite has
    overflowed, and one whose field max exceeds DIVERGENCE_RATIO times the
    order-1 field max has run away; both raise DivergenceError there.  The
    guard reads the max each term carries, so no field is read twice.
    """
    term, reference = first, None
    yield term
    while True:
        order = term.order + 1
        # the guard reports the overflow, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                term = step(term, *args)
            except NonFiniteError:
                raise DivergenceError(order, math.inf, reference) from None
        magnitude = term.field_max
        if not math.isfinite(magnitude) or (
            reference is not None and magnitude > DIVERGENCE_RATIO * reference
        ):
            raise DivergenceError(order, magnitude, reference)
        if order == 1:
            reference = magnitude
        yield term


def born_series(config, v_field):
    """Terms of orders 0..n_orders for the sampled interaction v_field."""
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
    """Shell record of evaluate(term.source, momenta) on the direction set.

    directions defaults to config.directions; evaluate maps the stored
    position-space source to the order's numerator at the shell momenta.
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
        values=evaluate(term.source, dirs.momenta),
    )


def on_shell_numerator(term, config, directions=None):
    """Evaluate the order's numerator on the shell |p| = k.

    Uses the exact direct Fourier sum of the stored position-space source, so
    no interpolation touches the values.
    """
    return shell_record(term, config, directions, nudft)


def amplitude_factor(dim, k):
    """Constant relating shell numerators to far-field amplitudes.

    3D: -1/(4 pi).  2D: -exp(i pi/4)/sqrt(8 pi k), the outgoing-cylindrical
    normalization.  Cross-validated against the asymptotic far-field fit; the
    vanishing checks never depend on it.
    """
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


def _band_report(series, u, tol, name, band):
    """One band check per order; band(order, p_par) gives its mask and label.

    The report is named em-<name> for six-vector numerators, else <name>.
    """
    terms = _numerator_terms(series)
    numerator = terms[0].numerator
    if numerator.values.ndim > numerator.grid.dim:
        name = f"em-{name}"
    p_par = numerator.grid.momentum_parallel(u)
    checks = []
    for term in terms:
        mask, label = band(term.order, p_par)
        checks.append(_band_check(term.numerator.node_norms(), mask, term.order, label))
    return VerificationReport(name, float(tol), tuple(checks))


def verify_spectral_floor(series, u, k, tol=1e-3):
    """Check that every order's spectrum avoids the floor u.p < -k.

    Interactions supported in u.p >= alpha with alpha > 0 can only push
    spectral weight toward larger u.p, so no order reaches below -k (the
    lowest component of the incident wave).  Each check compares the max
    node magnitude below the floor with the order's global max.
    """
    def band(order, p_par):
        return p_par < -k, f"u.p < {-k:.6g}"

    return _band_report(series, u, tol, "spectral-floor", band)


def verify_order_bands(series, u, k, alpha, tol=1e-3):
    """Check the per-order forbidden bands around the shell.

    With N = floor(2k/alpha), the order-m spectrum must vanish on
    -k <= u.p <= k - (N - m + 1)*alpha: each interaction factor shifts the
    spectral support up by at least alpha, so low orders cannot yet have
    fallen back down onto the shell band.  Empty bands are reported vacuous.
    """
    n_exact = exactness_order(k, alpha)

    def band(order, p_par):
        upper = k - (n_exact - order + 1) * alpha
        return (p_par >= -k) & (p_par <= upper), f"{-k:.6g} <= u.p <= {upper:.6g}"

    return _band_report(series, u, tol, "order-bands", band)


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    u = unit_vector(u, "u")
    p_par = grid.momentum_parallel(u)
    if width is None:
        width = 0.3 * float(np.max(p_par))
    if width <= 0:
        raise ValueError("width must be positive")
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
    shell = on_shell_numerator if shell is None else shell
    n_exact = config.exact_order
    if series[-1].order < n_exact + 1:
        raise ValueError(
            f"series reaches order {series[-1].order} but testing exactness at "
            f"N = {n_exact} needs at least order {n_exact + 1}"
        )
    shell_label = f"|p| = {config.k:.6g}"
    checks = []
    records = []
    for term in _numerator_terms(series):
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
