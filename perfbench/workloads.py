"""The benchmark's workloads and the configs they feed to ``qctl``.

Every workload keeps the default grid, time window, arrival window and
Wigner grid; the config is written out in full so the checks know every value
without reading the program's echo of it.  The workload seed moves the two
packet centres and scales their kicks slightly, well inside the ranges the
config loader accepts, so every check must hold for any seed.
"""

from __future__ import annotations

import copy

import numpy as np

DEFAULT_SEED = 1

# Largest centre shift (in sigma0) and relative kick change a seed applies.
CENTRE_SHIFT = 0.2
KICK_SCALE = 0.01

BASE_CONFIG = {
    "run": "density",
    "out_dir": "out",
    "epsilons": [1.0, 0.5, 0.1, 0.01],
    "hbar": 1.0,
    "mass": 1.0,
    "packets": {
        "sigma0": 1.0,
        "a": {"x0": -5.0, "p0": -2.0},
        "b": {"x0": -15.0, "p0": 2.0},
    },
    "grid": {"x_min": -60.0, "n_points": 2048},
    "time": {"t_max": 20.0, "n_times": 41},
    "detector_x": -30.0,
    "trajectories": {
        "t_end": 15.0,
        "dt": 0.001,
        "seeding": "uniform",
        "n_seeds": 20,
        "x_lo": -18.0,
        "x_hi": -2.0,
        "seeds": None,
        "record_every": 10,
    },
    "arrival": {"t_max": 40.0, "n_points": 4001},
    "wigner": {
        "times": [0.0, 7.0],
        "x_min": -40.0,
        "n_x": 161,
        "u_max": 8.0,
        "n_u": 161,
        "rel_span": 12.0,
        "n_rel": None,
    },
}

# Run kinds per workload, and the changes each makes to the default config.
# trajectories: one epsilon (the node-rich nearly classical regime, whose pure
# fan costs about 1.5x its mixed fan) and t_end = 8, just past the wall
# reflection of packet b at t = -x0/p0 = 7.5 (7.7 at the largest seed shift).
# Both fans at eps = 1 as well would double a round to about 75 s.
WORKLOADS = {
    "trajectories": (("trajectories",), {"epsilons": [0.01], "trajectories": {"t_end": 8.0}}),
    "wigner": (("wigner",), {}),
    "fields": (("density", "observables", "arrival"), {}),
}


def make_config(workload: str, seed: int) -> dict:
    """Full config document for ``workload`` with packets drawn from ``seed``."""
    kinds, changes = WORKLOADS[workload]
    config = copy.deepcopy(BASE_CONFIG)
    config["run"] = kinds[0]
    for key, value in changes.items():
        if isinstance(value, dict):
            config[key].update(value)
        else:
            config[key] = value
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT, size=2)
    kicks = 1.0 + rng.uniform(-KICK_SCALE, KICK_SCALE, size=2)
    for name, shift, kick in zip(("a", "b"), shifts, kicks):
        packet = config["packets"][name]
        packet["x0"] = float(packet["x0"] + shift)
        packet["p0"] = float(packet["p0"] * kick)
    return config


def run_kinds(workload: str) -> tuple[str, ...]:
    return WORKLOADS[workload][0]
