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
"""

import functools
import json
import math
import os
import queue
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsonkind import array_of, integer, kind_of, member, number, string

__all__ = [
    "Space",
    "Grid",
    "SampledField",
    "DirectionSet",
    "make_grid",
    "forward_ft",
    "inverse_ft",
    "fft_values",
    "ifft_values",
    "nudft",
    "nudft_values",
    "sphere_directions",
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


class Space(Enum):
    """Which representation a sampled field lives in."""

    POSITION = "position"
    MOMENTUM = "momentum"


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
            if not (math.isfinite(L) and L > 0):
                raise ValueError(f"extents must be positive, got {L}")
        for n in self.counts:
            if n != int(n) or n < 8:
                raise ValueError(f"counts must be integers >= 8, got {n}")
            if n % 2 != 0:
                raise ValueError(f"counts must be even, got {n}")
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))

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
        u = np.asarray(u, dtype=float)
        out = np.zeros(self.shape)
        for ui, p in zip(u, self.momentum_mesh()):
            out = out + ui * p
        return out


def make_grid(dim, extents, counts):
    """Build a Grid, rejecting inconsistent or under-resolved requests."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    extents = tuple(extents)
    counts = tuple(counts)
    if len(extents) != dim or len(counts) != dim:
        raise ValueError(
            f"a {dim}-component grid needs {dim} extents and {dim} counts, "
            f"got {len(extents)} and {len(counts)}"
        )
    return Grid(extents=extents, counts=counts)


@dataclass
class SampledField:
    """Complex field values sampled on a grid, in position or momentum space."""

    grid: Grid
    values: np.ndarray
    space: Space

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not all_finite(values):
            raise ValueError("field values must be finite")
        self.values = values

    def max_abs(self):
        return max_abs(self.values)

    def node_norms(self):
        """Magnitude at every node (the one-component case of SixField's)."""
        return blockwise(np.absolute, np.empty(self.grid.shape), self.values)


# The centering phase exp(-i p.x0), x0 = -L/2 the box corner, is exactly
# sign = (-1)^(m_1 + ... + m_d) at momentum node m.  fft_values and
# ifft_values compute, bit for bit, what the single-threaded
#     np.fft.fftn(values, axes) * (cell_volume * sign)
#     np.fft.ifftn(values * (sign / cell_volume), axes)
# compute, but on every usable CPU.  fftn is a chain of 1-D passes, last axis
# first; each pass transforms every line on its own and releases the GIL.  So
# each pass here runs the same 1-D transform on disjoint blocks of lines in a
# thread pool.  Every line passes through the same numpy kernel whatever the
# blocking, so the result does not depend on the number of threads.
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

    def walk(start, stop):
        return [task(slice(i, min(i + step, stop))) for i in range(start, stop, step)]

    bounds = [(n * i // spans, n * (i + 1) // spans) for i in range(spans)]
    return [result for span in _executor().map(walk, bounds) for result in span]


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
    """float(np.max(np.abs(values))) on the grid thread pool; nan if any value is nan."""
    # np.max, not the builtin max, over the blocks' maxima: max([1.0, nan]) is 1.0.
    return float(np.max(_reduce(lambda block: np.max(np.abs(block)), values)))


def all_finite(values):
    """bool(np.all(np.isfinite(values))) on the grid thread pool."""
    return bool(np.all(_reduce(lambda block: np.all(np.isfinite(block)), values)))


def _passes(transform, src, out, grid):
    """fftn's 1-D passes of `transform`, last grid axis first, from src into out.

    Each pass splits its lines along the largest other axis; the passes after
    the first run in place on out.
    """
    for axis in range(out.ndim - 1, out.ndim - 1 - grid.dim, -1):
        split = max((a for a in range(out.ndim) if a != axis), key=lambda a: out.shape[a])

        def task(block, src=src, axis=axis, split=split):
            index = (slice(None),) * split + (block,)
            transform(src[index], axis=axis, out=out[index])

        _row_blocks(task, out.shape[split], out.nbytes, _BLOCK_BYTES)
        src = out


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


def fft_values(values, grid):
    """Continuum-normalized forward transform of raw values (trailing grid axes)."""
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=complex)
    _passes(np.fft.fft, values, out, grid)
    return _weigh(out, grid, grid.cell_volume, out)


def ifft_values(values, grid):
    """Inverse of :func:`fft_values` on raw values (trailing grid axes)."""
    values = np.asarray(values)
    out = _weigh(values, grid, 1.0 / grid.cell_volume, np.empty(values.shape, dtype=complex))
    _passes(np.fft.ifft, out, out, grid)
    return out


def forward_ft(field):
    """Grid approximation of F(p) = integral exp(-i p.x) f(x) dx."""
    if field.space is not Space.POSITION:
        raise ValueError("forward_ft expects a position-space field")
    return SampledField(field.grid, fft_values(field.values, field.grid), Space.MOMENTUM)


def inverse_ft(field):
    """Grid approximation of f(x) = (2 pi)**-d integral exp(i p.x) F(p) dp."""
    if field.space is not Space.MOMENTUM:
        raise ValueError("inverse_ft expects a momentum-space field")
    return SampledField(field.grid, ifft_values(field.values, field.grid), Space.POSITION)


def nudft_values(values, grid, points):
    """Direct Fourier sum of raw position values at arbitrary momenta.

    Evaluates sum_x exp(-i p.x) f(x) * prod(h_i) by exact per-axis phase
    contraction; no interpolation is involved.  `points` has shape (P, d).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} components")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    phases = [
        np.exp(-1j * np.outer(points[:, i], grid.position_axis(i)))
        for i in range(grid.dim)
    ]
    if grid.dim == 2:
        tmp = phases[0] @ values                      # (P, n2)
        out = np.einsum("pb,pb->p", tmp, phases[1])
    else:
        tmp = np.tensordot(phases[0], values, axes=(1, 0))   # (P, n2, n3)
        tmp = np.einsum("pb,pbc->pc", phases[1], tmp)
        out = np.einsum("pc,pc->p", phases[2], tmp)
    return out * grid.cell_volume


def nudft(field, points):
    """Direct Fourier sum of a position-space field at arbitrary momenta.

    Agrees with forward_ft at momentum grid nodes and, through the
    periodicity of the node phases, evaluates wrapped momentum differences
    consistently with the circular grid convolution.
    """
    if field.space is not Space.POSITION:
        raise ValueError("nudft expects a position-space field")
    return nudft_values(field.values, field.grid, points)


def transverse_basis(axis_vector):
    """Deterministic orthonormal complement of a unit vector.

    Returns one perpendicular vector in 2D (the +90 degree rotation) and a
    right-handed pair (e1, e2) with e2 = axis x e1 in 3D.
    """
    u = np.asarray(axis_vector, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0 or not np.all(np.isfinite(u)):
        raise ValueError("axis vector must be nonzero and finite")
    u = u / norm
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

    The first direction is always the incident one; `momenta` are the
    on-shell momenta k * unit_vectors.
    """

    k: float
    unit_vectors: np.ndarray

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.unit_vectors, dtype=float))
        if vecs.shape[1] not in (2, 3):
            raise ValueError("directions must have 2 or 3 components")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("direction vectors must have unit norm")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError("k must be positive and finite")
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
    if count < 1:
        raise ValueError(f"direction_count must be at least 1, got {count}")
    inc = np.asarray(incident_direction, dtype=float)
    if inc.shape != (dim,):
        raise ValueError(f"incident direction must have {dim} components")
    norm = np.linalg.norm(inc)
    if norm == 0:
        raise ValueError("incident direction must be nonzero")
    inc = inc / norm

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
    k_vec = np.asarray(k_vec, dtype=float)
    if k_vec.shape != (grid.dim,):
        raise ValueError(f"wave vector must have {grid.dim} components, got shape {k_vec.shape}")
    return [np.exp(1j * (ki * grid.position_axis(i))) for i, ki in enumerate(k_vec)]


def plane_wave(grid, k_vec):
    """exp(i k.x) sampled on the grid."""
    waves = [grid._bcast(wave, i) for i, wave in enumerate(_axis_waves(grid, k_vec))]
    return blockwise(_product, np.empty(grid.shape, dtype=complex), *waves)


def plane_wave_at(grid, k_vec, nodes):
    """plane_wave(grid, k_vec)[node] for each row of node indices, shape (M, dim)."""
    waves = _axis_waves(grid, k_vec)
    nodes = np.asarray(nodes)
    if nodes.ndim != 2 or nodes.shape[1] != grid.dim:
        raise ValueError(f"nodes must have shape (M, {grid.dim})")
    return _product(*(wave[nodes[:, i]] for i, wave in enumerate(waves)))


def snap_to_momentum_lattice(grid, k_vec):
    """Round a wave vector to the nearest momentum grid node."""
    k_vec = np.asarray(k_vec, dtype=float)
    if k_vec.shape != (grid.dim,):
        raise ValueError(f"wave vector must have {grid.dim} components")
    dp = np.asarray(grid.momentum_spacing)
    return np.round(k_vec / dp) * dp


def save_field(path, sampled):
    """Write a field as a JSON header line plus little-endian (re, im) float64 pairs."""
    header = {
        "dim": sampled.grid.dim,
        "counts": list(sampled.grid.counts),
        "extents": list(sampled.grid.extents),
        "space": sampled.space.value,
    }
    payload = np.ascontiguousarray(sampled.values).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def load_field(path):
    """Read a field written by :func:`save_field`; a malformed file raises ValueError.

    The header is read by the JSON-kind rule of bornscat.jsonkind.
    """
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    header = kind_of(json.loads(line), dict)
    grid = make_grid(
        member(header, "dim", integer),
        member(header, "extents", array_of(number)),
        member(header, "counts", array_of(integer)),
    )
    space = member(header, "space", lambda value: Space(string(value)))
    values = np.frombuffer(payload, dtype="<c16")
    if values.size != grid.size:
        raise ValueError(
            f"payload holds {values.size} values, expected {grid.size}"
        )
    values = values.astype(complex).reshape(grid.shape)
    return SampledField(grid, values, space)
