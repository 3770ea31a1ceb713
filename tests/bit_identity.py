"""Helpers shared by the tests that check threaded passes bit for bit."""

import numpy as np

# Grids every threaded per-node pass is checked on: 2-D and 3-D grids on both
# sides of one block, and a tall thin grid.
GRID_SHAPES = [(16, 10), (128, 128), (512, 512), (3072, 64), (16, 128, 96), (144, 48, 48)]


def random_values(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def momentum_sq(grid):
    """|p|^2 at the grid's momentum nodes (FFT order), the squares added from zero in axis order."""
    out = np.zeros(grid.shape)
    for p in grid.momentum_mesh():
        out = out + p * p
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
