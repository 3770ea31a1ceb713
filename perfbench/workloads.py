"""Workload table and seed-driven input generation.

Standard library only: the parent harness imports this module, and keeping
numpy out of the parent keeps each child's ``ru_maxrss`` its own (on Linux
the peak RSS of the process image replaced by ``exec`` carries over).

Seed 0 gives the reference inputs below.  Any other seed draws every
requested wavenumber uniformly from +-5% around its reference value and
redraws when the snapped wavenumber would change the exactness order
N = floor(2k/alpha), so every seed runs the same grids and order counts.
"""

import copy
import math
import random

K_SPREAD = 0.05

POTENTIAL_2D = {
    "alpha": 1.0, "u": [1.0, 0.0], "a": 1.0, "m": 2,
    "coupling": {"re": 1.0, "im": 0.0}, "ell_y": 2.0,
}


def _family_3d(coupling):
    return {
        "alpha": 1.0, "u": [1.0, 0.0, 0.0], "a": 1.0, "m": 2,
        "coupling": coupling, "ell_y": 2.0, "ell_z": 2.0,
    }


def _entry(i, j, re, im=0.0):
    return {"i": i, "j": j, "spec": _family_3d({"re": re, "im": im})}


# Each workload: its inputs at seed 0, the exactness orders its sweep must
# cover, the call counts a traced run must reproduce exactly, and the
# wrappers that must fire at least once.  Why each workload is in the
# benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "farfield": {
        "inputs": {
            "kind": "farfield",
            "potential": POTENTIAL_2D,
            "coupling_per_k2": 0.05,
            "grid": {"extents": [480.0, 480.0], "counts": [3072, 3072]},
            "k_sweep": [0.8],
            "eps_cells": 1.5,
            "direction_count": 16,
            "series_tol": 1e-7,
            "order_cap": 16,
            "fit_radius": 97.4,
            "radius_ratio": 0.9,
            "max_fit_error": 0.05,
        },
        "exact_orders": [1],
        "counts": {
            "scalar.born_step": 6, "grids.fft": 6, "grids.ifft": 6,
            "scalar.green_factor": 6, "scalar.on_shell": 6, "grids.nudft": 6,
        },
        "fires": [
            "potentials.sample", "grids.plane_wave", "scalar.born_series",
            "oracle.converged_solution", "oracle.asymptotic_fit",
        ],
    },
    "sweep2d": {
        "inputs": {
            "kind": "cli",
            "config": {
                "schema_version": 1,
                "mode": "scalar2d",
                "potential": POTENTIAL_2D,
                "k_sweep": [0.45, 0.8, 1.3],
                "grid": {"extents": [60.0, 60.0], "counts": [512, 512]},
                "n_orders": 4,
                "direction_count": 64,
                "tol": 1e-3,
                "spectral_checks": True,
            },
        },
        "exact_orders": [0, 1, 2],
        "counts": {
            "scalar.born_step": 12, "grids.fft": 12, "grids.ifft": 12,
            "scalar.green_factor": 12, "scalar.on_shell": 24, "grids.nudft": 24,
        },
        "fires": [
            "potentials.sample", "grids.plane_wave", "scalar.born_series",
            "scalar.verify_exactness", "scalar.verify_spectral_floor",
            "scalar.verify_order_bands", "cli.run", "cli.csv",
        ],
    },
    "em3d": {
        "inputs": {
            "kind": "cli",
            "config": {
                "schema_version": 1,
                "mode": "em3d",
                "potential": _family_3d({"re": 1.0, "im": 0.0}),
                "materials": {"which": "eps"},
                "k_sweep": [0.8],
                "grid": {"extents": [14.0, 6.0, 6.0], "counts": [96, 96, 96]},
                "n_orders": 3,
                "direction_count": 64,
                "tol": 1e-2,
                "spectral_checks": False,
            },
        },
        "exact_orders": [1],
        "counts": {
            "em.born_step": 3, "grids.fft": 3, "grids.ifft": 3,
            "scalar.green_factor": 3, "em.on_shell": 6, "grids.nudft": 36,
        },
        "fires": [
            "potentials.sample", "grids.plane_wave", "em.materials",
            "em.apply_material", "em.kernel", "em.born_series",
            "em.verify_exactness", "cli.run", "cli.csv",
        ],
    },
    "em3d_aniso": {
        "inputs": {
            "kind": "cli",
            "config": {
                "schema_version": 1,
                "mode": "em3d",
                "materials": {
                    "eps_entries": [
                        _entry(0, 0, 1.0), _entry(1, 1, 0.8), _entry(2, 2, 0.6),
                        _entry(0, 1, 0.3, 0.1), _entry(1, 0, 0.3, -0.1),
                    ],
                    "mu_entries": [_entry(1, 1, 0.5), _entry(2, 1, 0.2, 0.2)],
                },
                "k_sweep": [0.45, 0.8],
                "grid": {"extents": [14.0, 6.0, 6.0], "counts": [144, 48, 48]},
                "n_orders": 3,
                "direction_count": 64,
                "tol": 1e-2,
                "spectral_checks": True,
            },
        },
        "exact_orders": [0, 1],
        "counts": {
            "em.born_step": 6, "grids.fft": 6, "grids.ifft": 6,
            "scalar.green_factor": 6, "em.on_shell": 12, "grids.nudft": 72,
        },
        "fires": [
            "potentials.sample", "grids.plane_wave", "em.materials",
            "em.apply_material", "em.kernel", "em.born_series",
            "em.verify_exactness", "em.verify_spectral_floor",
            "em.verify_order_bands", "cli.run", "cli.csv",
        ],
    },
}


def exactness_order(k, alpha):
    """floor(2k/alpha) with the same float nudge as bornscat.scalar."""
    return int(math.floor(2.0 * k / alpha + 1e-9))


def snapped_k(k, extent):
    """|k| after snapping to the momentum lattice of a box of this length.

    Every workload's incident direction lies along a grid axis, where
    bornscat's snap_to_momentum_lattice reduces to rounding k / (2 pi / L).
    """
    dp = 2.0 * math.pi / extent
    return abs(round(k / dp)) * dp


def _support(inputs):
    """(alpha, longitudinal box length) of a workload's interaction."""
    spec = inputs.get("potential") or inputs["config"].get("potential")
    if spec is None:
        spec = inputs["config"]["materials"]["eps_entries"][0]["spec"]
    grid = inputs.get("grid") or inputs["config"]["grid"]
    axis = max(range(len(spec["u"])), key=lambda i: abs(spec["u"][i]))
    return spec["alpha"], grid["extents"][axis]


def _draw_k(k0, alpha, extent, rng):
    target = exactness_order(snapped_k(k0, extent), alpha)
    for _ in range(1000):
        k = k0 * (1.0 + rng.uniform(-K_SPREAD, K_SPREAD))
        snapped = snapped_k(k, extent)
        if snapped > 0 and exactness_order(snapped, alpha) == target:
            return k
    raise RuntimeError(f"no k within {K_SPREAD:.0%} of {k0} keeps N = {target}")


def make_inputs(name, seed):
    """The inputs one run of workload `name` receives for this seed."""
    inputs = copy.deepcopy(WORKLOADS[name]["inputs"])
    if seed != 0:
        rng = random.Random(f"{name}/{seed}")
        alpha, extent = _support(inputs)
        holder = inputs if inputs["kind"] == "farfield" else inputs["config"]
        holder["k_sweep"] = [
            _draw_k(k0, alpha, extent, rng) for k0 in holder["k_sweep"]
        ]
    return inputs
