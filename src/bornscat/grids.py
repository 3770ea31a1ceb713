"""Uniform grids and continuum-normalized Fourier transforms.

Positions live on a centered box [-L_i/2, L_i/2) sampled at n_i nodes per
axis, so x_j = -L_i/2 + j*h_i with h_i = L_i/n_i.  Momentum nodes are the
FFT frequencies 2*pi*fftfreq(n_i, h_i): spacing dp_i = 2*pi/L_i, zero is a
node, and the covered band is [-pi/h_i, pi/h_i).  Momentum-space arrays are
kept in FFT (unshifted) order throughout.

The transform pair is weighted to approximate the continuum integrals

    forward:  F(p) = sum_x exp(-i p.x) f(x) * prod(h_i)
    inverse:  f(x) = (2 pi)**-d * sum_p exp(i p.x) F(p) * prod(dp_i)

which makes the two grid operations exactly inverse to each other.
Every transform and direct sum (fft_values, ifft_values, nudft_values)
takes raw values, whose trailing axes are the grid's, and the grid.
Both transforms can write into a given array (out=), which may be their
input itself: a Born order's numerator is transformed in place in the
zero-filled array its source was copied into, and its propagation G * M and
the inverse transform share one buffer.

A Born order's source is zero outside the support box of its interaction
(support_box), so it is stored on that box alone, and nudft_values sums
over a box of nodes when given one.  The next order reads its field on
that box alone, so both transforms take a box too: fft_values skips the
lines that are still all zero outside it, and ifft_values computes only
the values on it.  The box sets the order of the 1-D passes too
(_pass_order): a forward transform starts on the axis the box covers the
largest share of, an inverse one on the smallest.  Each pass skips whole
1-D lines and transforms the others as numpy does, so a transform with a
box gives the bits of numpy.fft.fftn with its axes in the box's pass
order, and one without a box (or with the whole grid's) those of fftn.
"""

import contextvars
import functools
import json
import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsonkind import array_of, decode, integer, member, number, object_with, string

__all__ = [
    "Grid",
    "SampledField",
    "NonFiniteError",
    "DirectionSet",
    "make_grid",
    "fft_values",
    "ifft_values",
    "nudft_values",
    "support_box",
    "sphere_directions",
    "unit_vector",
    "positive_number",
    "whole_number",
    "finite_vector",
    "finite_rows",
    "transverse_basis",
    "plane_wave",
    "plane_wave_at",
    "max_abs",
    "all_finite",
    "blockwise",
    "snap_to_momentum_lattice",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of a centered 2- or 3-dimensional box.

    Parameters
    ----------
    extents:
        Physical box lengths (L_1, ..., L_d); axis i spans [-L_i/2, L_i/2).
    counts:
        Nodes per axis (n_1, ..., n_d); each must be even and at least 8.
    """

    extents: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.extents) != len(self.counts):
            raise ValueError("extents and counts must have the same length")
        if len(self.counts) not in (2, 3):
            raise ValueError("only 2- and 3-dimensional grids are supported")
        for L in self.extents:
            positive_number(L, "extent")
        counts = tuple(whole_number(n, "counts", 8) for n in self.counts)
        for n in counts:
            if n % 2 != 0:
                raise ValueError(f"counts must be even, got {n}")
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    @property
    def size(self):
        return int(np.prod(self.counts))

    @cached_property
    def spacing(self):
        """Node spacing h_i = L_i / n_i per axis."""
        return tuple(L / n for L, n in zip(self.extents, self.counts))

    @cached_property
    def momentum_spacing(self):
        """Momentum node spacing dp_i = 2*pi / L_i per axis."""
        return tuple(2.0 * np.pi / L for L in self.extents)

    @cached_property
    def nyquist(self):
        """Half-width pi/h_i of the momentum band per axis."""
        return tuple(np.pi / h for h in self.spacing)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def momentum_cell_volume(self):
        return float(np.prod(self.momentum_spacing))

    def position_axis(self, axis):
        """Node coordinates -L/2 + j*h along one axis."""
        n = self.counts[axis]
        h = self.spacing[axis]
        return -0.5 * self.extents[axis] + h * np.arange(n)

    def momentum_axis(self, axis):
        """Momentum node coordinates along one axis, FFT order."""
        n = self.counts[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing[axis])

    def _bcast(self, values, axis):
        shape = [1] * self.dim
        shape[axis] = self.counts[axis]
        return values.reshape(shape)

    def position_mesh(self):
        """Per-axis coordinate arrays shaped for mutual broadcasting."""
        return [self._bcast(self.position_axis(i), i) for i in range(self.dim)]

    def momentum_mesh(self):
        return [self._bcast(self.momentum_axis(i), i) for i in range(self.dim)]

    @cached_property
    def momentum_sq(self):
        """|p|^2 on the momentum grid (full array, FFT order)."""
        out = np.zeros(self.shape)
        for p in self.momentum_mesh():
            out = out + p * p
        return out

    def momentum_parallel(self, u):
        """u.p on the momentum grid for a unit vector u."""
        u = finite_vector(u, self.dim, "u")
        out = np.zeros(self.shape)
        for ui, p in zip(u, self.momentum_mesh()):
            out = out + ui * p
        return out


def make_grid(dim, extents, counts):
    """Build a Grid, rejecting inconsistent or under-resolved requests."""
    extents = tuple(extents)
    counts = tuple(counts)
    if len(extents) != dim or len(counts) != dim:
        raise ValueError(
            f"a {dim}-component grid needs {dim} extents and {dim} counts, "
            f"got {len(extents)} and {len(counts)}"
        )
    return Grid(extents=extents, counts=counts)


class NonFiniteError(ValueError):
    """Field values that are not all finite."""


@dataclass
class SampledField:
    """Complex field values sampled on a grid, in position space.

    The one exception is a Born term's numerator, which the engine builds
    in momentum space itself (_unchecked).  values holds one value per
    node, shape grid.shape, or the six-vector of an EM field, E stacked
    over H, per node, shape (6,) + grid.shape.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape not in (self.grid.shape, (6,) + self.grid.shape):
            raise ValueError(
                f"field shape {values.shape} is neither the grid's {self.grid.shape} "
                f"nor (6,) + {self.grid.shape}"
            )
        if not all_finite(values):
            raise NonFiniteError("field values must be finite")
        self.values = values

    @classmethod
    def _unchecked(cls, grid, values):
        """A field of complex values of a valid shape, with no finiteness pass.

        For the Born engine's numerators, whose guard reads each order's
        field max instead: a value that is not finite in the numerator rows
        an order propagates always reaches its field.
        """
        field = object.__new__(cls)
        field.grid, field.values = grid, values
        return field

    @cached_property
    def box(self):
        """support_box of the values, read on first use and kept.

        So the values must not be written once it has been read: a Born
        step reads its interaction's box, and forms its source there only.
        """
        return support_box(self.values, self.grid.dim)

    def max_abs(self):
        return max_abs(self.values)

    def node_norms(self):
        """Magnitude at every node: |value|, or the six-vector's Euclidean length."""
        norms = np.absolute if self.values.shape == self.grid.shape else _six_norms
        return blockwise(norms, np.empty(self.grid.shape), self.values)


def _six_norms(values, out):
    # the six squares add in component order within any grid block
    np.sqrt(np.sum(np.abs(values) ** 2, axis=0), out=out)


# The centering phase exp(-i p.x0), x0 = -L/2 the box corner, is exactly
# sign = (-1)^(m_1 + ... + m_d) at momentum node m.  fft_values and
# ifft_values compute, bit for bit, what the single-threaded
#     np.fft.fftn(values, axes) * (cell_volume * sign)
#     np.fft.ifftn(values * (sign / cell_volume), axes)
# compute, but on every usable CPU, with axes the grid axes in the box's pass
# order (_pass_order; fftn runs the last of its axes first).  Without a box,
# or with a box of equal shares such as the whole grid, that is fftn's own
# order, last axis first.  fftn is a chain of 1-D passes; each pass
# transforms every line on its own and releases the GIL.  So each pass here
# runs the same 1-D transform on disjoint blocks of lines in a thread pool,
# and skips the lines a box makes zero or unread.  Every line passes through
# the same numpy kernel whatever the blocking, so the result does not depend
# on the number of threads.
#
# The per-node passes of a Born order (the elementwise factors, products and
# reductions) run on the same pool through blockwise and _reduce: each
# element goes through the same numpy loop with the same operand order
# whatever block holds it, so they too compute bit for bit what the
# whole-array expression computes.  The transform passes and the per-node
# passes split their work with the one helper _row_blocks.  Arrays of at
# most _BLOCK_BYTES run in the calling thread.
_BLOCK_BYTES = 2 << 20
# Larger arrays are walked in sub-blocks.  A per-node pass takes sub-blocks of
# at most this many bytes, so the temporaries its block expression makes stay
# small in every thread's malloc arena.  A transform pass writes through out=
# and makes no block-sized temporary, so it takes sub-blocks of _BLOCK_BYTES:
# each sub-block costs one np.fft call, and 512 KiB ones made a 3072^2
# fft_values + ifft_values pair 6-7% slower on a 2-vCPU VM (numpy 2.4.6).
_SUB_BLOCK_BYTES = 512 * 1024


class _Pool:
    """Daemon threads that run the tasks put on one queue.

    Built on threading and queue alone: concurrent.futures takes ~10 ms to
    import, most of it for logging.
    """

    def __init__(self, workers):
        self._tasks = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._serve, name="bornscat-grid", daemon=True)
            for _ in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _serve(self):
        while True:
            task = self._tasks.get()
            if task is None:
                return
            task()
            # Drop the task now: it holds the caller's arrays until the next
            # task would replace it.
            del task

    def map(self, fn, calls):
        """[fn(*args) for args in calls], each call a task on the pool.

        Every task is done before an error propagates; the error raised is
        that of the first failing call.
        """
        calls = list(calls)
        outcomes = [None] * len(calls)
        done = queue.SimpleQueue()

        def run(index, args):
            try:
                outcomes[index] = (True, fn(*args))
            except BaseException as exc:  # handed to the caller below
                outcomes[index] = (False, exc)
            done.put(index)

        for index, args in enumerate(calls):
            self._tasks.put(functools.partial(run, index, args))
        for _ in calls:
            done.get()
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def shutdown(self, timeout=None):
        """Stop every thread once the tasks already queued are done."""
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout)


_pool = None
_pool_lock = threading.Lock()


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """The grid thread pool, one thread per usable CPU, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _Pool(_usable_cpus())
        return _pool


def _forget_executor():
    # A forked child inherits the pool and its lock but none of its threads.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _row_blocks(task, n, nbytes, sub_block_bytes):
    """[task(rows) for rows in consecutive slices covering range(n)], in order.

    nbytes is the size of the largest array the task touches over all of
    range(n).  Up to _BLOCK_BYTES, task runs once on the whole range in the
    calling thread.  Beyond that, range(n) splits into one contiguous span
    per pool thread, and each thread walks its span in sub-blocks of at most
    sub_block_bytes (and at least one row).
    """
    if nbytes <= _BLOCK_BYTES:
        return [task(slice(0, n))]
    spans = min(n, _usable_cpus())
    step = max(1, n * sub_block_bytes // nbytes)

    def walk(context, start, stop):
        return [context.run(task, slice(i, min(i + step, stop)))
                for i in range(start, stop, step)]

    # Each span runs in a copy of the caller's context, so an np.errstate set
    # there holds in every thread, as it does for the whole-array expression.
    calls = [(contextvars.copy_context(), n * i // spans, n * (i + 1) // spans)
             for i in range(spans)]
    return [result for span in _executor().map(walk, calls) for result in span]


def _block_of(operand, rows, axis):
    """The part of a broadcast operand that meets rows of the output's axis.

    axis counts from the end, so operands line up as in broadcasting; an
    operand without that axis, or of length 1 along it, is used whole.
    """
    if not isinstance(operand, np.ndarray) or operand.ndim < -axis:
        return operand
    if operand.shape[axis] == 1:
        return operand
    return operand[(slice(None),) * (operand.ndim + axis) + (rows,)]


def blockwise(fn, out, *operands, axis=0):
    """Fill out with fn(*operands, out=out) block by block; return out.

    The blocks split out's axis `axis` (its leading grid axis, for a field
    with component axes in front); each operand is cut to the rows it
    contributes there and broadcast as usual.  fn must write each element
    from the same elements of the operands only, with numpy calls; it then
    gives bit for bit the whole-array result for any number of threads.
    """
    axis -= out.ndim
    nbytes = max(a.nbytes for a in (out,) + operands if isinstance(a, np.ndarray))

    def task(rows):
        blocks = [_block_of(operand, rows, axis) for operand in operands]
        fn(*blocks, out=_block_of(out, rows, axis))

    _row_blocks(task, out.shape[axis], nbytes, _SUB_BLOCK_BYTES)
    return out


def _reduce(fn, values):
    """fn of each block of values, cut along its longest axis, in one array."""
    values = np.asarray(values)
    axis = int(np.argmax(values.shape))
    lead = (slice(None),) * axis
    return np.array(
        _row_blocks(
            lambda rows: fn(values[lead + (rows,)]),
            values.shape[axis], values.nbytes, _SUB_BLOCK_BYTES,
        )
    )


def max_abs(values):
    """float(np.max(np.abs(values))) on the grid thread pool; nan if any value is nan.

    No values at all give 0.0.
    """
    # np.max, not the builtin max, over the blocks' maxima: max([1.0, nan]) is 1.0.
    return float(np.max(_reduce(lambda block: np.max(np.abs(block), initial=0.0), values)))


def all_finite(values):
    """bool(np.all(np.isfinite(values))) on the grid thread pool."""
    return bool(np.all(_reduce(lambda block: np.all(np.isfinite(block)), values)))


def _pass_order(grid, box, forward):
    """The grid axes in the order the 1-D passes of a transform with this box run.

    Without a box, last axis first, as numpy.fft.fftn runs them.  With one,
    by the share of its axis the box covers: a forward transform starts on
    the largest share, so each later pass skips the lines still all zero
    outside the box; an inverse one on the smallest, so each later pass
    runs only the lines the box needs.  Equal shares keep the last-axis-first
    order, so a whole-grid box runs as no box does.  The transform then has
    the bits of np.fft.fftn (or ifftn) with axes this order reversed, since
    fftn runs the last of its axes first.
    """
    order = list(reversed(range(grid.dim)))
    if box is None:
        return order
    # the box's length along each axis times the other axes' node counts:
    # the share it covers, times the grid size, in exact integers
    share = [len(range(n)[s]) * (grid.size // n) for n, s in zip(grid.counts, box)]
    # a stable sort: ties stay last axis first
    return sorted(order, key=lambda a: -share[a] if forward else share[a])


def _passes(transform, src, out, grid, box=None, forward=True):
    """fftn's 1-D passes of `transform` in _pass_order, from src into out.

    With a box (one slice per grid axis), a pass runs only on the lines
    whose indices lie in the box along the axes still untransformed, for a
    forward transform, or along the axes already transformed, for an
    inverse one.  Each pass splits its lines along the largest other axis;
    the passes after the first run in place on out.
    """
    lead = out.ndim - grid.dim
    passed = set()
    for a in _pass_order(grid, box, forward):
        lines = (slice(None),) * lead + tuple(
            box[i] if box is not None and i != a and (i not in passed if forward else i in passed)
            else slice(None)
            for i in range(grid.dim)
        )
        part_src, part_out = src[lines], out[lines]
        axis = lead + a
        split = max((x for x in range(out.ndim) if x != axis),
                    key=lambda x: part_out.shape[x])

        def task(block, part_src=part_src, part_out=part_out, axis=axis, split=split):
            index = (slice(None),) * split + (block,)
            transform(part_src[index], axis=axis, out=part_out[index])

        if part_out.size:
            _row_blocks(task, part_out.shape[split], part_out.nbytes, _BLOCK_BYTES)
        src = out
        passed.add(a)


def _product(*factors, out=None):
    """factors[0] * factors[1] * ..., broadcast and multiplied left to right."""
    product = factors[0]
    for factor in factors[1:-1]:
        product = product * factor
    return np.multiply(product, factors[-1], out=out)


def _centering(grid, scale):
    """Real per-axis factors whose broadcast product is scale * sign.

    sign = (-1)^m per axis: p_m x0 = (2 pi m / L)(-L/2) = -pi m, and n is
    even, so an FFT index and its fftfreq label have the same parity.
    """
    factors = [grid._bcast(np.where(np.arange(n) % 2, -1.0, 1.0), i)
               for i, n in enumerate(grid.counts)]
    factors[0] = scale * factors[0]
    return factors


def _weigh(values, grid, scale, out):
    # values * (scale * sign) into out; an exact real factor gives the same
    # product in either operand order.
    axis = out.ndim - grid.dim
    return blockwise(_product, out, *_centering(grid, scale), values, axis=axis)


def fft_values(values, grid, out=None, box=None):
    """Continuum-normalized forward transform of raw values (trailing grid axes).

    The result goes into out, a new array by default, or a complex array of
    values' shape that is either values itself (or a view of the same
    elements), which is then transformed in place with the same bits, or
    does not overlap it.  A box, one slice per grid axis as support_box
    returns it, says that the values are zero outside it, as nudft_values's
    box does: the passes then start on the axis the box covers the largest
    share of and skip the lines that are still all zero.  The result has
    the bits of np.fft.fftn with its axes in that pass order (_pass_order),
    times cell_volume * (-1)^m; without a box, or with the whole grid's,
    those of fftn's own order.
    """
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=complex)
    if box is not None and not np.may_share_memory(out, values):
        out.fill(0)  # the lines the passes skip
    _passes(np.fft.fft, values, out, grid, box)
    return _weigh(out, grid, grid.cell_volume, out)


def ifft_values(values, grid, out=None, box=None):
    """Inverse of :func:`fft_values` on raw values (trailing grid axes).

    The result goes into out, a new array by default; out may be values
    itself, a complex array, which is then transformed in place with the
    same bits.  A box, one slice per grid axis, says that only the values on
    it are wanted: the passes then start on the axis the box covers the
    smallest share of and skip the lines no value on the box needs.  Those
    values have the bits of np.fft.ifftn with its axes in that pass order
    (_pass_order), of the values times (-1)^m / cell_volume, and the rest
    of out holds partial transforms.  Without a box, or with the whole
    grid's, every value has the bits of ifftn's own order.
    """
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=complex)
    _weigh(values, grid, 1.0 / grid.cell_volume, out)
    _passes(np.fft.ifft, out, out, grid, box, forward=False)
    return out


def nudft_values(values, grid, points, box=None):
    """Direct Fourier sum of raw position values at arbitrary momenta.

    Evaluates sum_x exp(-i p.x) f(x) * prod(h_i) by exact per-axis phase
    contraction; no interpolation is involved.  `points` has shape (P, d) or (d,).
    values covers the whole grid, or only the nodes of box, one slice per
    grid axis as support_box returns it, when f is zero outside; the sum
    then runs over the box alone.  At the momentum nodes it equals
    fft_values, and its periodic node phases wrap momenta as the circular
    grid convolution does.
    """
    values = np.asarray(values)
    points = finite_rows(points, grid.dim, "points").reshape(-1, grid.dim)
    box = (slice(None),) * grid.dim if box is None else box
    axes = [grid.position_axis(i)[box[i]] for i in range(grid.dim)]
    if values.shape != tuple(len(axis) for axis in axes):
        raise ValueError(f"values of shape {values.shape} do not fill the box "
                         f"{tuple(len(axis) for axis in axes)}")
    phases = [np.exp(-1j * np.outer(points[:, i], axis)) for i, axis in enumerate(axes)]
    if grid.dim == 2:
        tmp = phases[0] @ values                      # (P, n2)
        out = np.einsum("pb,pb->p", tmp, phases[1])
    else:
        tmp = np.tensordot(phases[0], values, axes=(1, 0))   # (P, n2, n3)
        tmp = np.einsum("pb,pbc->pc", phases[1], tmp)
        out = np.einsum("pc,pc->p", phases[2], tmp)
    return out * grid.cell_volume


def support_box(values, dim):
    """Index box of the nodes where some component of values is nonzero.

    values has dim trailing grid axes, after any component axes.  Returns
    one slice per grid axis, bounding every node at which a component
    compares != 0 exactly, so the nodes outside hold only zeros: the whole
    grid when no node is zero, and an empty box (every slice empty) when
    every value is.
    """
    values = np.asarray(values)
    grid_shape = values.shape[values.ndim - dim:]
    # nonzero at a node: the component axes folded into one leading axis
    nonzero = (values != 0).reshape((-1,) + grid_shape).any(axis=0)
    box = []
    for _ in range(dim):
        # the leading axis's nodes hit, then that axis folded away: each
        # reduction reads whole rows
        hits = np.flatnonzero(nonzero.any(axis=tuple(range(1, nonzero.ndim))))
        if hits.size == 0:
            return (slice(0, 0),) * dim
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
        nonzero = nonzero.any(axis=0)
    return tuple(box)


def unit_vector(vector, name):
    """vector / |vector|, for a nonzero vector of finite length."""
    vector = np.asarray(vector, dtype=float)
    # |(1e308, 1e308)| overflows to inf, which the check below reports
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vector)
    if not 0 < norm < math.inf:
        raise ValueError(f"{name} must be a nonzero vector of finite length")
    return vector / norm


def positive_number(value, name):
    """value, for a positive finite number; nan and inf are rejected."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} = {value} must be positive and finite")
    return value


def whole_number(value, name, low, high=None):
    """int(value), for an integral number in [low, high), or at least low with no high.

    Integers, numpy integers and integral floats pass; a bool, a value that
    is not integral or not finite, and one out of range are rejected.
    """
    integral = not isinstance(value, (bool, np.bool_)) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if not (integral and low <= value and (high is None or value < high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} = {value} must be an integer {bounds}")
    return int(value)


def _checked(array, shape, name, form):
    # the one message form of the vector rule below
    if array.shape != shape or not all_finite(array):
        raise ValueError(f"{name} must be {form} of {shape[-1]} components, all finite; "
                         f"got shape {array.shape}")
    return array


def finite_vector(vector, width, name, dtype=float):
    """vector as an array of dtype and shape (width,), every entry finite."""
    return _checked(np.asarray(vector, dtype=dtype), (width,), name, "a vector")


def finite_rows(rows, width, name):
    """rows as a float array of shape (..., width), every entry finite; a vector is one row."""
    rows = np.asarray(rows, dtype=float)
    return _checked(rows, rows.shape[:-1] + (width,), name, "rows")


def transverse_basis(axis_vector):
    """Deterministic orthonormal complement of a unit vector.

    Returns one perpendicular vector in 2D (the +90 degree rotation) and a
    right-handed pair (e1, e2) with e2 = axis x e1 in 3D.
    """
    u = unit_vector(axis_vector, "axis vector")
    if u.shape == (2,):
        return (np.array([-u[1], u[0]]),)
    if u.shape != (3,):
        raise ValueError("axis vector must have 2 or 3 components")
    ref = np.array([0.0, 1.0, 0.0])
    if abs(u @ ref) > 0.9:
        ref = np.array([0.0, 0.0, 1.0])
    e1 = ref - (u @ ref) * u
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return (e1, e2)


@dataclass
class DirectionSet:
    """Unit scattering directions sharing one on-shell wavenumber.

    The one direction-row rule: at least one row of 2 or 3 components, each
    of unit norm.  `momenta` are the on-shell momenta k * unit_vectors.
    """

    k: float
    unit_vectors: np.ndarray

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.unit_vectors, dtype=float))
        if vecs.ndim != 2 or vecs.shape[0] == 0 or vecs.shape[1] not in (2, 3):
            raise ValueError("directions must be at least one row of 2 or 3 components "
                             f"per direction; got shape {vecs.shape}")
        # |(1e308, 1e308)| overflows to inf, which the check below reports
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(vecs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # a nan row fails too
            raise ValueError("direction vectors must have unit norm")
        positive_number(self.k, "k")
        self.unit_vectors = vecs

    @property
    def dim(self):
        return self.unit_vectors.shape[1]

    @property
    def count(self):
        return self.unit_vectors.shape[0]

    @property
    def momenta(self):
        return self.k * self.unit_vectors


def sphere_directions(dim, k, count, incident_direction):
    """Quasi-uniform on-shell directions starting at the incident one.

    2D: equally spaced angles beginning at the incident angle.  3D: a
    golden-angle spiral on the sphere, rotated so its first point is exactly
    the incident direction.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    count = whole_number(count, "direction_count", 1)
    inc = unit_vector(incident_direction, "incident direction")
    inc = finite_vector(inc, dim, "incident direction")

    if dim == 2:
        theta0 = math.atan2(inc[1], inc[0])
        angles = theta0 + 2.0 * np.pi * np.arange(count) / count
        vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vecs[0] = inc
    else:
        if count == 1:
            vecs = inc[None, :]
        else:
            s = np.arange(count)
            z = 1.0 - 2.0 * s / (count - 1)
            phi = s * np.pi * (3.0 - np.sqrt(5.0))
            rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
            e1, e2 = transverse_basis(inc)
            vecs = (
                rho[:, None] * np.cos(phi)[:, None] * e1[None, :]
                + rho[:, None] * np.sin(phi)[:, None] * e2[None, :]
                + z[:, None] * inc[None, :]
            )
            vecs[0] = inc
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return DirectionSet(k=float(k), unit_vectors=vecs)


def _axis_waves(grid, k_vec):
    """exp(i k_i x_i) along each axis; their product is exp(i k.x)."""
    k_vec = finite_vector(k_vec, grid.dim, "k_vec")
    return [np.exp(1j * (ki * grid.position_axis(i))) for i, ki in enumerate(k_vec)]


def plane_wave(grid, k_vec):
    """exp(i k.x) sampled on the grid."""
    waves = [grid._bcast(wave, i) for i, wave in enumerate(_axis_waves(grid, k_vec))]
    return blockwise(_product, np.empty(grid.shape, dtype=complex), *waves)


def plane_wave_at(grid, k_vec, nodes):
    """plane_wave(grid, k_vec)[node] for each row of node indices, shape (M, dim).

    Each index is an integer in [0, n_i) along its axis i; no index wraps.
    """
    waves = _axis_waves(grid, k_vec)
    nodes = np.asarray(nodes)
    if nodes.ndim != 2 or nodes.shape[1] != grid.dim:
        raise ValueError(f"nodes must have shape (M, {grid.dim})")
    if not (np.issubdtype(nodes.dtype, np.integer) and np.all((nodes >= 0) & (nodes < grid.counts))):
        raise ValueError(f"nodes must be integer indices in [0, n_i) for the counts {grid.counts}")
    return _product(*(wave[nodes[:, i]] for i, wave in enumerate(waves)))


def snap_to_momentum_lattice(grid, k_vec):
    """Round a wave vector to the nearest momentum grid node."""
    k_vec = finite_vector(k_vec, grid.dim, "k_vec")
    dp = np.asarray(grid.momentum_spacing)
    # a wave vector beyond every float node snaps to inf, which the callers' checks report
    with np.errstate(over="ignore"):
        return np.round(k_vec / dp) * dp


def save_field(path, sampled):
    """Write a field as a JSON header line plus little-endian (re, im) float64 pairs.

    The header has no component count, so a six-vector field is rejected.
    Its "space" is always "position": every stored field is a position sample.
    """
    if sampled.values.shape != sampled.grid.shape:
        raise ValueError("a field file holds one value per node, not a six-vector field")
    header = {
        "dim": sampled.grid.dim,
        "counts": list(sampled.grid.counts),
        "extents": list(sampled.grid.extents),
        "space": "position",
    }
    payload = np.ascontiguousarray(sampled.values).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def load_field(path):
    """Read a field written by :func:`save_field`; a malformed file raises ValueError.

    The header is read by the JSON-kind rule of bornscat.jsonkind, and its
    "space" must be "position".
    """
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    header = object_with(decode(line), "dim", "extents", "counts", "space")
    grid = make_grid(
        member(header, "dim", integer),
        member(header, "extents", array_of(number)),
        member(header, "counts", array_of(integer)),
    )
    if member(header, "space", string) != "position":
        raise ValueError(f'space: expected "position", got {json.dumps(header["space"])}')
    values = np.frombuffer(payload, dtype="<c16")
    if values.size != grid.size:
        raise ValueError(
            f"payload holds {values.size} values, expected {grid.size}"
        )
    values = values.astype(complex).reshape(grid.shape)
    return SampledField(grid, values)
