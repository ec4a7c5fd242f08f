"""Checks of each workload's CSVs against the oracles and physical properties.

An operation is one CSV: one run kind at one epsilon, plus the arrival
summary.  Each check returns the operation's name, whether it passed and the
measured margin, so a failure says what was off and by how much.  The
tolerances pass the program's current method and would also pass an exact
one; none compares against stored output.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

import oracles

DENSITY_TOL = 1e-9  # of the peak density
TRACE_TOL = 1e-6
# t = 0 moments against the free-packet formulas, relative; the wall image
# changes them by O(exp(-x0^2 / 2 sigma0^2)), below 1e-5 for |x0| >= 4.8 sigma0.
MOMENT_TOL = 1e-4
HEISENBERG_TOL = -1e-9
PDF_TOL = 1e-9  # of the peak pdf
PDF_NORM_TOL = 1e-6
CLASSICAL_MEAN_TOL = 0.05
EQUIVARIANCE_TOL = 1e-4
WIGNER_TOL = 1e-3  # of the peak of W
# A Wigner point is compared with free flight only where the terms free flight
# leaves out (wall images, the pure state's cross terms, the wall's cut of the
# relative coordinate) are bounded by this share of the peak.
WIGNER_NEGLIGIBLE = 1e-5


class Failed(Exception):
    pass


def eps_tag(eps: float) -> str:
    return f"{eps:g}"


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise Failed(f"{path.name}: {data.shape[1]} columns, header names {len(header)}")
    return header, data


def ensembles(config: dict, eps: float) -> dict[str, oracles.Ensemble]:
    packets = config["packets"]
    sigma0 = packets["sigma0"]
    a = oracles.Packet(packets["a"].get("sigma0", sigma0), packets["a"]["x0"], packets["a"]["p0"])
    b = oracles.Packet(packets["b"].get("sigma0", sigma0), packets["b"]["x0"], packets["b"]["p0"])
    hb = math.sqrt(eps) * config["hbar"]
    return {kind: oracles.Ensemble(kind, a, b, hb, config["mass"]) for kind in oracles.KINDS}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def _grid_match(values: np.ndarray, expected: np.ndarray, what: str) -> None:
    _require(values.shape == expected.shape, f"{what}: shape {values.shape} != {expected.shape}")
    err = float(np.max(np.abs(values - expected)))
    _require(err <= 1e-12 * max(1.0, float(np.max(np.abs(expected)))), f"{what} off by {err:.3e}")


def check_density(config: dict, path: Path, eps: float) -> str:
    _, data = read_csv(path)
    x = np.linspace(config["grid"]["x_min"], 0.0, config["grid"]["n_points"])
    times = np.linspace(0.0, config["time"]["t_max"], config["time"]["n_times"])
    _require(data.shape[0] == times.size * x.size, f"{data.shape[0]} rows")
    _grid_match(data[:, 0], np.repeat(times, x.size), "t column")
    _grid_match(data[:, 1], np.tile(x, times.size), "x column")
    worst, trace_err = 0.0, 0.0
    for column, (kind, ens) in zip((2, 3), ensembles(config, eps).items()):
        state = oracles.State(ens)
        expected = state.rho(x[None, :], times[:, None]).ravel()
        err = float(np.max(np.abs(data[:, column] - expected))) / float(np.max(expected))
        _require(err <= DENSITY_TOL, f"{kind} density off by {err:.3e} of peak")
        trace = float(np.trapezoid(data[: x.size, column], x))
        _require(abs(trace - 1.0) <= TRACE_TOL, f"{kind} t=0 trace {trace!r}")
        worst, trace_err = max(worst, err), max(trace_err, abs(trace - 1.0))
    return f"density err {worst:.2e} of peak, |trace0-1| {trace_err:.2e}"


def check_observables(config: dict, path: Path, eps: float) -> str:
    header, data = read_csv(path)
    times = np.linspace(0.0, config["time"]["t_max"], config["time"]["n_times"])
    _require(data.shape == (times.size, 15), f"shape {data.shape}")
    _grid_match(data[:, 0], times, "t column")
    col = {name.split(" ")[0]: i for i, name in enumerate(header)}
    margin = min(float(np.min(data[:, col[f"heisenberg_margin_{k}"]])) for k in oracles.KINDS)
    _require(margin >= HEISENBERG_TOL, f"Heisenberg margin {margin:.3e}")
    # A mixture of two free packets at t = 0: the mean of the centres and of
    # the kicks, and p variance = mean of p0^2 - mean p0 ^2 + hb^2 / (4 sigma0^2).
    ens = ensembles(config, eps)["mixed"]
    a, b = ens.packets
    mean_x = 0.5 * (a.x0 + b.x0)
    mean_p = 0.5 * (a.p0 + b.p0)
    sd_p = math.sqrt(0.5 * (a.p0**2 + b.p0**2) - mean_p**2 + ens.hb**2 / (4.0 * a.sigma0**2))
    errs = {
        "mean_x": abs(data[0, col["mean_x_mixed"]] - mean_x) / abs(mean_x),
        "mean_p": abs(data[0, col["mean_p_mixed"]] - mean_p) / sd_p,
        "sd_p": abs(data[0, col["sd_p_mixed"]] - sd_p) / sd_p,
    }
    for name, err in errs.items():
        _require(err <= MOMENT_TOL, f"mixed t=0 {name} off by {err:.3e} (relative)")
    return f"min Heisenberg margin {margin:.3e}, t=0 moments off by <= {max(errs.values()):.2e}"


def check_arrival(config: dict, path: Path, eps: float) -> str:
    _, data = read_csv(path)
    t = np.linspace(0.0, config["arrival"]["t_max"], config["arrival"]["n_points"])
    _require(data.shape == (t.size, 3), f"shape {data.shape}")
    _grid_match(data[:, 0], t, "t column")
    worst = 0.0
    for column, (kind, ens) in zip((1, 2), ensembles(config, eps).items()):
        pdf = data[:, column]
        norm = oracles.simpson(t, pdf)
        _require(abs(norm - 1.0) <= PDF_NORM_TOL, f"{kind} pdf integrates to {norm!r}")
        flux = np.abs(oracles.State(ens).current(config["detector_x"], t))
        expected = flux / oracles.simpson(t, flux)
        err = float(np.max(np.abs(pdf - expected))) / float(np.max(expected))
        _require(err <= PDF_TOL, f"{kind} pdf off the oracle current by {err:.3e} of peak")
        worst = max(worst, err)
    return f"pdf err {worst:.2e} of peak"


def check_arrival_summary(config: dict, path: Path) -> str:
    _, data = read_csv(path)
    epsilons = config["epsilons"]
    _require(data.shape == (len(epsilons), 5), f"shape {data.shape}")
    _grid_match(data[:, 0], np.asarray(epsilons, dtype=float), "epsilon column")
    order = np.argsort(data[:, 0])  # increasing epsilon
    for column, what in ((1, "mean_t_pure"), (2, "sd_t_pure"), (3, "mean_t_mixed"), (4, "sd_t_mixed")):
        _require(np.all(np.diff(data[order, column]) > 0.0), f"{what} not monotone in epsilon")
    smallest = order[0]
    ens = ensembles(config, float(data[smallest, 0]))["mixed"]
    classical = float(np.mean(oracles.classical_arrivals(ens, config["detector_x"])))
    off = max(abs(data[smallest, 1] - classical), abs(data[smallest, 3] - classical))
    _require(off <= CLASSICAL_MEAN_TOL, f"mean at eps={data[smallest, 0]:g} off classical by {off:.3e}")
    return f"monotone; mean at eps={data[smallest, 0]:g} within {off:.3e} of classical {classical:.4f}"


def check_trajectories(config: dict, path: Path, eps: float) -> str:
    _, data = read_csv(path)
    settings = config["trajectories"]
    n_steps = int(round(settings["t_end"] / settings["dt"]))
    steps = np.arange(0, n_steps + 1, settings["record_every"])
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    n = settings["n_seeds"]
    _require(data.shape == (steps.size, 1 + 2 * n), f"shape {data.shape}")
    _grid_match(data[:, 0], steps * settings["dt"], "t column")
    seeds = np.linspace(settings["x_lo"], settings["x_hi"], n)
    # Every 0.1 time units and the last sample.
    rows = np.unique(np.append(np.arange(0, steps.size, 10), steps.size - 1))
    worst = 0.0
    for offset, (kind, ens) in zip((1, 1 + n), ensembles(config, eps).items()):
        x = data[:, offset : offset + n]
        _grid_match(x[0], seeds, f"{kind} seeds")
        finite = np.isfinite(x)
        _require(bool(np.all(x[finite] <= 0.0)), f"{kind} trajectory beyond the wall")
        both = finite[:, 1:] & finite[:, :-1]
        _require(bool(np.all(np.diff(x, axis=1)[both] > 0.0)), f"{kind} trajectories cross")
        state = oracles.State(ens)
        m0 = state.mass_left(x[0], 0.0)
        for row in rows:
            live = finite[row]
            drift = np.abs(state.mass_left(x[row, live], float(data[row, 0])) - m0[live])
            if drift.size:
                worst = max(worst, float(np.max(drift)))
        _require(worst <= EQUIVARIANCE_TOL, f"{kind} mass left of a trajectory drifts {worst:.3e}")
    return f"no crossing, x <= 0, mass drift {worst:.2e}"


def check_wigner(config: dict, path: Path, eps: float) -> str:
    _, data = read_csv(path)
    settings = config["wigner"]
    R = np.linspace(settings["x_min"], 0.0, settings["n_x"])
    u = np.linspace(-settings["u_max"], settings["u_max"], settings["n_u"])
    times = settings["times"]
    _require(data.shape == (len(times) * R.size * u.size, 5), f"shape {data.shape}")
    _grid_match(data[:, 0], np.repeat(times, R.size * u.size), "t column")
    _grid_match(data[:, 1], np.tile(np.repeat(R, u.size), len(times)), "R column")
    _grid_match(data[:, 2], np.tile(u, len(times) * R.size), "u column")
    block = R.size * u.size
    RR, UU = np.meshgrid(R, u, indexing="ij")
    worst = 0.0
    for column, (kind, ens) in zip((3, 4), ensembles(config, eps).items()):
        state = oracles.State(ens)
        for k, t in enumerate(times):
            w = data[k * block : (k + 1) * block, column].reshape(R.shape + u.shape)
            free = [oracles.free_wigner(p, ens.hb, ens.mass, RR, UU, t) for p in ens.packets]
            model = 0.5 * (free[0] + free[1]) / state.norm
            peak = float(np.max(np.abs(w)))
            mask = oracles.neglected_wigner_bound(state, RR, UU, t) <= WIGNER_NEGLIGIBLE * peak
            _require(
                bool(np.any(model[mask] >= 1e-3 * peak)),
                f"{kind} t={t:g}: no free-flight region to compare",
            )
            err = float(np.max(np.abs(w[mask] - model[mask]))) / peak
            _require(err <= WIGNER_TOL, f"{kind} t={t:g}: W off free flight by {err:.3e} of peak")
            worst = max(worst, err)
    return f"W err {worst:.2e} of peak in the free-flight region"


PER_EPSILON = {
    "density": check_density,
    "observables": check_observables,
    "arrival": check_arrival,
    "trajectories": check_trajectories,
    "wigner": check_wigner,
}


def operations(kinds, config: dict) -> list[tuple[str, object]]:
    """(CSV name, check) for every CSV the run kinds write, in a fixed order."""
    ops = [
        (f"{kind}_eps{eps_tag(eps)}.csv", functools.partial(PER_EPSILON[kind], eps=eps))
        for kind in kinds
        for eps in config["epsilons"]
    ]
    if "arrival" in kinds:
        ops.append(("arrival_summary.csv", check_arrival_summary))
    return ops


def run_check(check, config: dict, path: Path) -> tuple[bool, str]:
    """Run one operation's check; (passed, margin or reason)."""
    try:
        return True, check(config, path)
    except (Failed, ValueError) as exc:
        return False, str(exc)
