"""Experiment configuration: JSON schema, validation, defaults, serialization.

A configuration document is a single JSON object.  The settings dataclasses
below are its schema: each key of a section is a field, checked against the
field's annotation, and an absent key takes the field's default.  Unknown keys
and non-finite numbers are rejected with the offending field path, and every
numeric invariant is checked at load time so the runner never starts from an
inconsistent state.  Only the ``packets`` section is mandatory.
"""

# No ``from __future__ import annotations``: the loader reads each settings
# field's type from its annotation, so annotations must be evaluated.
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

import numpy as np

from .ensembles import EnsembleSpec
from .errors import ConfigError, DomainError
from .hydrodynamics import step_count
from .packets import GaussianPacket
from .regime import Regime, make_regime

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "TrajectorySettings",
    "ArrivalSettings",
    "WignerSettings",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "RUN_KINDS",
]

RUN_KINDS = ("density", "trajectories", "arrival", "observables", "wigner")

_TAIL_MASS_LIMIT = 1e-10

# Samples a trajectory run holds, epsilons x 2 kinds x seeds x the
# len(hydrodynamics.record_times(t_end, dt, record_every)) recorded times
# (240,160 at the defaults; the budget is 200 MB of float64).
TRAJECTORY_SAMPLE_BUDGET = 25_000_000

# (R, u) points of one Wigner time, n_x x n_u (25,921 at the defaults).  A run
# holds both fields of one time, 16 bytes a point (18 measured as the peak RSS
# slope from 81 x 1001 to 161 x 6211 points), and evaluates the pair
# integrals in blocks of phase_space.BLOCK_POINTS points, so the budget is
# about 18 MB; it admits an 81 x 8001 marginal-check grid.
WIGNER_POINT_BUDGET = 1_000_000

# Points of the position grid (grid.n_points, which every run kind evaluates
# for the manifest's trace diagnostic) and of the arrival time grid
# (arrival.n_points).  The density and arrival runs peak at about 380 bytes a
# point (peak RSS slope from the defaults to 500,001 points), so each budget
# is about 190 MB.
GRID_POINT_BUDGET = 500_000
ARRIVAL_POINT_BUDGET = 500_000


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position grid on [x_min, 0] of the density run and the trace diagnostic."""

    x_min: float = -60.0
    n_points: int = 2048

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, 0.0, self.n_points)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = 20.0
    n_times: int = 41

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_times)


@dataclass(frozen=True)
class TrajectorySettings:
    """``dt`` is the sample spacing; the integrator chooses its own steps."""

    t_end: float = 15.0
    dt: float = 1e-3
    seeding: str = "uniform"
    n_seeds: int = 20
    x_lo: float = -18.0
    x_hi: float = -2.0
    seeds: tuple[float, ...] | None = None
    record_every: int = 10


@dataclass(frozen=True)
class ArrivalSettings:
    t_max: float = 40.0
    n_points: int = 4001


@dataclass(frozen=True)
class WignerSettings:
    times: tuple[float, ...] = (0.0, 7.0)
    x_min: float = -40.0
    n_x: int = 161
    u_max: float = 8.0
    n_u: int = 161
    # Settings of the former relative-coordinate quadrature.  Still accepted
    # and validated so existing configs load, but the closed-form transform
    # has no window or samples, so they do not affect results.
    rel_span: float = 12.0
    n_rel: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole run; the packets come from the ``packets`` and ``mass`` keys."""

    packet_a: GaussianPacket
    packet_b: GaussianPacket
    run_kind: str = field(default="density", metadata={"key": "run"})
    out_dir: str = "out"
    epsilons: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01)
    hbar: float = 1.0
    grid: SpatialGrid = SpatialGrid()
    time: TimeGrid = TimeGrid()
    detector_x: float = -30.0
    trajectories: TrajectorySettings = TrajectorySettings()
    arrival: ArrivalSettings = ArrivalSettings()
    wigner: WignerSettings = WignerSettings()

    def regimes(self) -> list[Regime]:
        return [make_regime(eps, self.hbar) for eps in self.epsilons]

    def ensemble(self, kind: str) -> EnsembleSpec:
        return EnsembleSpec(kind=kind, packet_a=self.packet_a, packet_b=self.packet_b)


# JSON types accepted for each scalar annotation, and their name in errors.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(value, path: str, keys) -> dict:
    """``value``, checked to be a JSON object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    for key in value:
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown key")
    return value


def _value(value, kind, path: str):
    """The JSON ``value`` checked against the field annotation ``kind``."""
    if is_dataclass(kind):
        return kind(**_settings(kind, value, path))
    if type(None) in get_args(kind):  # ``X | None``
        return None if value is None else _value(value, get_args(kind)[0], path)
    if get_origin(kind) is tuple:  # ``tuple[float, ...]``
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "must be a non-empty list of numbers")
        return tuple(_value(v, float, f"{path}[{i}]") for i, v in enumerate(value))
    types, noun = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(path, f"expected {noun}, got {value!r}")
    if kind is float:
        # Python's json reads NaN, Infinity, overflowing literals such as
        # 1e400 (as inf) and integers beyond the float range.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return float(value)
    return value


def _settings(cls, obj, path: str) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``obj``.

    The keys are the fields with defaults, renamed by a field's ``key``
    metadata; an absent key is left to the field default.
    """
    schema = {f.metadata.get("key", f.name): f for f in fields(cls) if f.default is not MISSING}
    values = {}
    for key, value in _object(obj, path, schema).items():
        values[schema[key].name] = _value(value, schema[key].type, _join(path, key))
    return values


def _gaussian_tail_mass(x_min: float, x0: float, sigma0: float) -> float:
    """Probability mass of a unit Gaussian N(x0, sigma0^2) below x_min."""
    z = (x_min - x0) / sigma0
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _parse_packets(doc: dict) -> list[GaussianPacket]:
    """Packets a and b; ``mass`` and ``packets.sigma0`` are shared by both."""
    shared = {}
    if "mass" in doc:
        shared["mass"] = _value(doc["mass"], float, "mass")
        if not shared["mass"] > 0.0:
            raise ConfigError("mass", f"must be positive, got {shared['mass']}")
    if "packets" not in doc:
        raise ConfigError("packets", "missing required section")
    packets = _object(doc["packets"], "packets", {"sigma0", "a", "b"})
    if "sigma0" in packets:
        shared["sigma0"] = _value(packets["sigma0"], float, "packets.sigma0")
    result = []
    for name in ("a", "b"):
        path = f"packets.{name}"
        if not isinstance(packets.get(name), dict):
            raise ConfigError(path, "missing packet object")
        obj = _object(packets[name], path, {"x0", "p0", "sigma0"})
        for key in ("x0", "p0"):
            if key not in obj:
                raise ConfigError(f"{path}.{key}", "missing required value")
        own = {key: _value(value, float, f"{path}.{key}") for key, value in obj.items()}
        try:
            result.append(GaussianPacket(**{**shared, **own}))
        except DomainError as exc:
            raise ConfigError(path, str(exc)) from exc
    return result


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top-level value must be an object")
    top = {key: value for key, value in doc.items() if key not in ("mass", "packets")}
    settings = _settings(ExperimentConfig, top, "")
    config = ExperimentConfig(*_parse_packets(doc), **settings)

    if config.run_kind not in RUN_KINDS:
        raise ConfigError("run", f"must be one of {RUN_KINDS}, got {config.run_kind!r}")
    if not config.out_dir:
        raise ConfigError("out_dir", "must be a non-empty string")
    if len(set(config.epsilons)) != len(config.epsilons):
        raise ConfigError("epsilons", "values must be distinct")
    for i, eps in enumerate(config.epsilons):
        try:
            make_regime(eps, config.hbar)
        except DomainError as exc:
            raise ConfigError(f"epsilons[{i}]", str(exc)) from exc

    grid = config.grid
    if not grid.x_min < 0.0:
        raise ConfigError("grid.x_min", f"must be negative, got {grid.x_min}")
    if grid.n_points < 64:
        raise ConfigError("grid.n_points", f"must be at least 64, got {grid.n_points}")
    if grid.n_points > GRID_POINT_BUDGET:
        raise ConfigError("grid.n_points", f"{grid.n_points} points exceed the budget of "
                          f"{GRID_POINT_BUDGET}")
    for name, packet in (("a", config.packet_a), ("b", config.packet_b)):
        tail = _gaussian_tail_mass(grid.x_min, packet.x0, packet.sigma0)
        if tail > _TAIL_MASS_LIMIT:
            raise ConfigError(
                "grid.x_min",
                f"packet {name} has tail mass {tail:.3e} beyond x_min at t=0 "
                f"(limit {_TAIL_MASS_LIMIT:.0e})",
            )

    if not config.time.t_max > 0.0:
        raise ConfigError("time.t_max", "must be positive")
    if config.time.n_times < 2:
        raise ConfigError("time.n_times", "must be at least 2")

    if not config.detector_x < 0.0:
        raise ConfigError("detector_x", f"must be negative, got {config.detector_x}")

    trajectories = config.trajectories
    seeds = trajectories.seeds
    if seeds is not None:
        if any(v >= 0.0 for v in seeds):
            raise ConfigError("trajectories.seeds", "all seeds must be negative")
        if any(b <= a for a, b in zip(seeds, seeds[1:])):
            raise ConfigError("trajectories.seeds", "seeds must be strictly increasing")
    seeding = trajectories.seeding
    if seeding not in ("uniform", "born"):
        raise ConfigError("trajectories.seeding", f"must be 'uniform' or 'born', got {seeding!r}")
    if not trajectories.dt > 0.0:
        raise ConfigError("trajectories.dt", "must be positive")
    if not trajectories.t_end > 0.0:
        raise ConfigError("trajectories.t_end", "must be positive")
    try:
        n_steps = step_count(trajectories.t_end, trajectories.dt)
    except DomainError as exc:
        raise ConfigError("trajectories.t_end", str(exc)) from exc
    if trajectories.record_every < 1:
        raise ConfigError("trajectories.record_every", "must be at least 1")
    if trajectories.n_seeds < 1:
        raise ConfigError("trajectories.n_seeds", "must be at least 1")
    n_seeds = trajectories.n_seeds if seeds is None else len(seeds)
    # len(record_times(...)), without building them: every record_every-th
    # step from 0, and the last step if it is not one of them.
    n_recorded = -(-n_steps // trajectories.record_every) + 1
    held = len(config.epsilons) * 2 * n_seeds * n_recorded
    if held > TRAJECTORY_SAMPLE_BUDGET:
        path = "trajectories.n_seeds" if seeds is None else "trajectories.seeds"
        raise ConfigError(path, f"epsilons x 2 kinds x seeds x recorded times = {held} "
                          f"samples exceed the budget of {TRAJECTORY_SAMPLE_BUDGET}")
    if not trajectories.x_lo < trajectories.x_hi < 0.0:
        raise ConfigError("trajectories.x_lo", "need x_lo < x_hi < 0")

    if not config.arrival.t_max > 0.0:
        raise ConfigError("arrival.t_max", "must be positive")
    if config.arrival.n_points < 3:
        raise ConfigError("arrival.n_points", "must be at least 3")
    if config.arrival.n_points > ARRIVAL_POINT_BUDGET:
        raise ConfigError("arrival.n_points", f"{config.arrival.n_points} points exceed the "
                          f"budget of {ARRIVAL_POINT_BUDGET}")

    wigner = config.wigner
    for i, t in enumerate(wigner.times):
        if t < 0.0:
            raise ConfigError(f"wigner.times[{i}]", "expected a non-negative number")
    if wigner.n_rel is not None and wigner.n_rel < 9:
        raise ConfigError("wigner.n_rel", "must be an integer >= 9 or null")
    if not wigner.x_min < 0.0:
        raise ConfigError("wigner.x_min", "must be negative")
    if wigner.n_x < 9:
        raise ConfigError("wigner.n_x", "must be at least 9")
    if wigner.n_u < 9:
        raise ConfigError("wigner.n_u", "must be at least 9")
    if wigner.n_x * wigner.n_u > WIGNER_POINT_BUDGET:
        raise ConfigError("wigner.n_u", f"n_x x n_u = {wigner.n_x * wigner.n_u} points exceed "
                          f"the budget of {WIGNER_POINT_BUDGET}")
    if not wigner.u_max > 0.0:
        raise ConfigError("wigner.u_max", "must be positive")
    if not wigner.rel_span > 0.0:
        raise ConfigError("wigner.rel_span", "must be positive")
    return config


def _plain(settings) -> dict:
    """A settings block as a JSON object, with lists for tuples."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(settings).items()}


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON representation; round-trips through :func:`parse_config`."""

    def packet(p: GaussianPacket) -> dict:
        return {"x0": p.x0, "p0": p.p0, "sigma0": p.sigma0}

    return {
        "run": config.run_kind,
        "out_dir": config.out_dir,
        "epsilons": list(config.epsilons),
        "hbar": config.hbar,
        "mass": config.packet_a.mass,
        "packets": {
            "sigma0": config.packet_a.sigma0,
            "a": packet(config.packet_a),
            "b": packet(config.packet_b),
        },
        "grid": _plain(config.grid),
        "time": _plain(config.time),
        "detector_x": config.detector_x,
        "trajectories": _plain(config.trajectories),
        "arrival": _plain(config.arrival),
        "wigner": _plain(config.wigner),
    }


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
