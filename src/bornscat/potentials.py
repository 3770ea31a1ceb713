"""Potentials whose Fourier transform vanishes on a momentum half-space.

The family combines a one-sided longitudinal profile with a hard transverse
slab.  With x_par = u.(x - x0) and transverse coordinates (y, z) in the
deterministic frame completing u,

    v(x) = coupling * exp(i alpha x_par) / (1 - i x_par / a)**(m + 1)

inside |y| <= ell_y/2 (and |z| <= ell_z/2 in 3D), zero outside.  Its
transform factorizes into a gated longitudinal part and slab sinc factors:

    V(p) = 2 pi a (a K)**m exp(-a K) step(K) / m!
           * coupling * ell_y sinc(p_y ell_y / 2) [* ell_z sinc(p_z ell_z / 2)]
           * exp(-i p.x0),          K = u.p - alpha,  sinc(t) = sin(t)/t,

so V(p) = 0 whenever u.p < alpha, which is the property everything
downstream relies on.  In 2D the z factor is simply dropped.

The same factorization makes sampling cheap: for an axis-aligned u,
sample_potential evaluates the longitudinal profile once along u's grid axis
and one slab mask per transverse axis, and broadcasts them into the grid; an
oblique u evaluates the expression at every node.  Both give the same bits.
The profile multiplies exp(i alpha x_par) by the coupling in that operand
order (see _profile), so its bits do not depend on the array's size.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import (
    SampledField,
    blockwise,
    box_shape,
    empty_box,
    fft_values,
    finite_rows,
    finite_vector,
    max_abs,
    on_box,
    positive_number,
    support_box,
    transverse_basis,
    union_box,
    unit_vector,
    whole_number,
)
from .jsonkind import array_of, complex_number, integer, kind_of, member, number, object_with

__all__ = [
    "PotentialSpec",
    "PotentialSum",
    "SupportReport",
    "potential_value",
    "potential_spectrum",
    "sample_potential",
    "verify_support",
    "spec_to_dict",
    "spec_from_dict",
]

BOUNDARY_WARN_RATIO = 1e-3


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of one member of the potential family.

    alpha   support threshold: the transform vanishes for u.p < alpha
    u       unit vector defining the longitudinal axis (length sets dim)
    a       longitudinal decay length (the profile falls off like
            |x_par/a|**-(m+1))
    m       longitudinal sharpness exponent, integer >= 1
    coupling  overall complex strength
    ell_y, ell_z  transverse slab widths (ell_z unused in 2D)
    center  offset x0 of the potential
    """

    alpha: float
    u: tuple
    a: float
    m: int
    coupling: complex
    ell_y: float
    ell_z: float = 0.0
    center: tuple = ()

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape not in ((2,), (3,)):
            raise ValueError("u must have 2 or 3 components")
        object.__setattr__(self, "u", tuple(unit_vector(u, "u")))
        positive_number(self.alpha, "alpha")
        positive_number(self.a, "a")
        object.__setattr__(self, "m", whole_number(self.m, "m", 1))
        positive_number(self.ell_y, "ell_y")
        if self.dim == 3:
            positive_number(self.ell_z, "ell_z")
        center = finite_vector(self.center or (0.0,) * self.dim, self.dim, "center")
        object.__setattr__(self, "center", tuple(float(c) for c in center))
        object.__setattr__(self, "coupling", complex(self.coupling))
        if not cmath.isfinite(self.coupling):
            raise ValueError("coupling must be finite")

    @property
    def dim(self):
        return len(self.u)

    @property
    def alpha_min(self):
        return self.alpha


@dataclass(frozen=True)
class PotentialSum:
    """Superposition of family members sharing one longitudinal axis."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a potential sum needs at least one member")
        u0 = np.asarray(members[0].u)
        for spec in members[1:]:
            if spec.dim != members[0].dim:
                raise ValueError("all members must share one dimension")
            if np.linalg.norm(np.asarray(spec.u) - u0) > 1e-12:
                raise ValueError("all members must share the same axis u")
        object.__setattr__(self, "members", members)

    @property
    def dim(self):
        return self.members[0].dim

    @property
    def u(self):
        return self.members[0].u

    @property
    def alpha_min(self):
        """Effective support threshold of the superposition."""
        return min(spec.alpha_min for spec in self.members)


def _frame(spec):
    u = np.asarray(spec.u)
    return (u,) + transverse_basis(u)


def _profile(spec, xl):
    """The longitudinal factor coupling * exp(i alpha xl) / (1 - i xl/a)**(m + 1).

    The coupling is the right operand of its multiply: with FMA, a complex
    product rounds differently in the other order, and numpy would pick the
    order by whether it elides the exp temporary (arrays of 256 KiB and up).
    """
    core = np.exp(1j * spec.alpha * xl)
    core *= spec.coupling
    return core / (1.0 - 1j * xl / spec.a) ** (spec.m + 1)


def _single_value(spec, x):
    axes = _frame(spec)
    rel = x - np.asarray(spec.center)
    inside = np.abs(rel @ axes[1]) <= 0.5 * spec.ell_y
    if spec.dim == 3:
        inside = inside & (np.abs(rel @ axes[2]) <= 0.5 * spec.ell_z)
    return np.where(inside, _profile(spec, rel @ axes[0]), 0.0)


def _grid_axis(vector):
    """(axis, sign) when vector is +-1 along one grid axis and 0 along the others."""
    nonzero = np.flatnonzero(vector)
    if len(nonzero) != 1 or abs(vector[nonzero[0]]) != 1.0:
        return None
    return int(nonzero[0]), float(vector[nonzero[0]])


def _select(inside, values, out):
    """np.where(inside, values, 0) into out."""
    out.fill(0)
    np.copyto(out, values, where=inside)


def _factors(spec, grid):
    """An axis-aligned member's 1-D factors on the grid; None for an oblique u.

    When every frame vector lies along a grid axis, the member is a 1-D
    profile along u's axis times one 1-D slab mask per transverse axis:
    rel @ axis is then exactly +-rel along that axis.  Each slab width goes
    with its frame vector, which need not follow the grid axes' order
    (u = -y puts ell_y along z).  The factors are shaped to broadcast
    against the grid, the profile first.
    """
    axes = [_grid_axis(vector) for vector in _frame(spec)]
    if None in axes:
        return None
    rel = [x - c for x, c in zip(grid.position_mesh(), spec.center)]
    (axis, sign), *slabs = axes
    masks = [np.abs(rel[slab_axis]) <= 0.5 * ell
             for (slab_axis, _), ell in zip(slabs, (spec.ell_y, spec.ell_z))]
    return [_profile(spec, sign * rel[axis])] + masks


def _slab_box(masks, grid):
    """The box outside which some slab mask is False: each mask's True span."""
    box = list(grid.whole_box)
    for mask in masks:
        axis = int(np.argmax(mask.shape))
        hits = np.flatnonzero(mask)
        if hits.size == 0:
            return empty_box(grid.dim)
        box[axis] = slice(int(hits[0]), int(hits[-1]) + 1)
    return tuple(box)


def _on(factor, box):
    """The part of a broadcast 1-D factor that meets box."""
    return factor[tuple(s if n > 1 else slice(None) for s, n in zip(box, factor.shape))]


def _member_on_box(factors, box):
    """np.where(all masks, profile, 0) on box, bit for bit _single_value's there."""
    # first: a box too large to hold fails before the masks' product is built
    out = np.empty(box_shape(box), dtype=complex)
    profile, *masks = (_on(factor, box) for factor in factors)
    inside = True
    for mask in masks:
        inside = inside & mask
    return blockwise(_select, out, inside, profile)


def _sum_on_box(members, grid):
    """(box, the members' sum on it), outside which the sum is zero.

    With u along a grid axis, every member is zero off its slab masks' box,
    so the sum is formed on the union of those boxes from the 1-D factors,
    each member added there as sample_potential adds it on the grid.  An
    oblique u takes the whole-grid expression.
    """
    factors = [_factors(spec, grid) for spec in members]
    if None in factors:  # the members share u, so every member is oblique
        mesh = np.stack(np.broadcast_arrays(*grid.position_mesh()), axis=-1)
        values = _single_value(members[0], mesh)
        for spec in members[1:]:
            values += _single_value(spec, mesh)
        return grid.whole_box, values
    box = union_box([_slab_box(member[1:], grid) for member in factors], grid.dim)
    values = _member_on_box(factors[0], box)
    for member in factors[1:]:
        values += _member_on_box(member, box)
    return box, values


def _sinc(t):
    # sin(t)/t with sinc(0) = 1; numpy's sinc carries the extra pi.
    return np.sinc(np.asarray(t) / np.pi)


def _single_spectrum(spec, p):
    axes = _frame(spec)
    pl = p @ axes[0]
    K = pl - spec.alpha
    gate = K >= 0.0
    Ksafe = np.where(gate, K, 0.0)
    longitudinal = (
        2.0
        * np.pi
        * spec.a
        * (spec.a * Ksafe) ** spec.m
        * np.exp(-spec.a * Ksafe)
        / math.factorial(spec.m)
    )
    longitudinal = np.where(gate, longitudinal, 0.0)
    out = longitudinal * spec.coupling * spec.ell_y * _sinc(0.5 * spec.ell_y * (p @ axes[1]))
    if spec.dim == 3:
        out = out * spec.ell_z * _sinc(0.5 * spec.ell_z * (p @ axes[2]))
    center = np.asarray(spec.center)
    if np.any(center):
        out = out * np.exp(-1j * (p @ center))
    return out


def _members(subject):
    if isinstance(subject, PotentialSum):
        return subject.members
    if isinstance(subject, PotentialSpec):
        return (subject,)
    raise TypeError(f"expected PotentialSpec or PotentialSum, got {type(subject)!r}")


def potential_value(subject, x):
    """Evaluate the potential (or a shared-axis sum) at positions x of shape (..., d)."""
    members = _members(subject)
    x = finite_rows(x, members[0].dim, "x")
    out = _single_value(members[0], x)
    for spec in members[1:]:
        out = out + _single_value(spec, x)
    return out


def potential_spectrum(subject, p):
    """Closed-form Fourier transform at momenta p of shape (..., d).

    Exactly zero (including at the threshold itself, since m >= 1) whenever
    u.p < alpha holds for every member.
    """
    members = _members(subject)
    p = finite_rows(p, members[0].dim, "p")
    out = _single_spectrum(members[0], p)
    for spec in members[1:]:
        out = out + _single_spectrum(spec, p)
    return out


def sample_potential(subject, grid):
    """Sample the potential on its support box, warning when the grid truncates it visibly.

    Returns a SampledField that holds the values on their support box
    (grids.support_box) alone; grid_values() builds them on the whole grid
    on demand.  Those values are bit for bit potential_value's at the grid
    nodes, members added in order, as there.  With u along a grid axis they
    are formed on the box from the members' 1-D factors, and no whole-grid
    array is made; an oblique u evaluates every node, then keeps the box.
    """
    members = _members(subject)
    if members[0].dim != grid.dim:
        raise ValueError("potential and grid dimensions differ")
    # SampledField reports a sample that is not finite, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        box, values = _sum_on_box(members, grid)
    support = support_box(values, grid.dim, box)
    box, values = support, on_box(values, box, support)
    overall = max_abs(values)
    if overall > 0:
        edge = 0.0
        for axis, n in enumerate(grid.counts):
            # a face of the grid that the box reaches
            for index, reached in ((0, box[axis].start == 0), (-1, box[axis].stop == n)):
                if reached:
                    face = np.abs(np.take(values, index, axis=axis))
                    edge = max(edge, float(np.max(face)))
        if edge > BOUNDARY_WARN_RATIO * overall:
            warnings.warn(
                f"potential magnitude at the box boundary is {edge:.3e}, "
                f"more than {BOUNDARY_WARN_RATIO:g} of its maximum {overall:.3e}; "
                "enlarge the box to reduce truncation",
                stacklevel=2,
            )
    return SampledField(grid, values, box)


@dataclass
class SupportReport:
    """Outcome of checking that a transform vanishes on the half-space u.p < alpha."""

    alpha: float
    u: tuple
    forbidden_max: float
    overall_max: float
    tol: float

    @property
    def ratio(self):
        return self.forbidden_max / self.overall_max

    @property
    def passed(self):
        return self.forbidden_max <= self.tol * self.overall_max

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "u": list(self.u),
            "forbidden_max": self.forbidden_max,
            "overall_max": self.overall_max,
            "ratio": self.ratio,
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_support(field, u, alpha, tol=1e-3):
    """Check on the momentum grid that |transform| is negligible for u.p < alpha.

    `field` is a sampled position-space SampledField.  The check passes when
    the largest magnitude over forbidden nodes is at most tol times the
    overall maximum.
    """
    positive_number(tol, "tol")
    u = unit_vector(u, "u")
    positive_number(alpha, "alpha")
    spectrum = np.abs(fft_values(field.grid_values(), field.grid))
    overall = float(np.max(spectrum))
    if overall == 0.0:
        raise ValueError("potential transform is identically zero; nothing to verify")
    p_par = field.grid.momentum_parallel(u)
    forbidden = p_par < alpha
    forbidden_max = float(np.max(spectrum[forbidden])) if np.any(forbidden) else 0.0
    return SupportReport(
        alpha=float(alpha),
        u=tuple(u),
        forbidden_max=forbidden_max,
        overall_max=overall,
        tol=float(tol),
    )


def spec_to_dict(subject):
    """JSON-ready dict for a spec or a sum (a sum becomes a list)."""
    if isinstance(subject, PotentialSum):
        return [spec_to_dict(s) for s in subject.members]
    spec = subject
    return {
        "alpha": spec.alpha,
        "u": list(spec.u),
        "a": spec.a,
        "m": spec.m,
        "coupling": {"re": spec.coupling.real, "im": spec.coupling.imag},
        "ell_y": spec.ell_y,
        "ell_z": spec.ell_z,
        "center": list(spec.center),
    }


def spec_from_dict(data):
    """Rebuild a PotentialSpec (JSON object) or PotentialSum (array of objects).

    Each value is read by its JSON kind (see bornscat.jsonkind); a ValueError
    names the key or item that is wrong.
    """
    if isinstance(kind_of(data, dict, list), list):
        members = array_of(lambda item: spec_from_dict(kind_of(item, dict)))
        return PotentialSum(members(data))
    object_with(data, "alpha", "u", "a", "m", "coupling", "ell_y", "ell_z", "center")
    numbers = array_of(number)
    return PotentialSpec(
        alpha=member(data, "alpha", number),
        u=member(data, "u", numbers),
        a=member(data, "a", number),
        m=member(data, "m", integer),
        coupling=member(data, "coupling", complex_number),
        ell_y=member(data, "ell_y", number),
        ell_z=member(data, "ell_z", number, 0.0),
        center=member(data, "center", numbers, ()),
    )
