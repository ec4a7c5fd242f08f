"""Experiment configuration: JSON schema, validation, defaults, serialization.

A configuration document is a single JSON object.  Unknown keys are rejected
with the offending field path, and every numeric invariant is checked at load
time so the runner never starts from an inconsistent state.  Only the
``packets`` section is mandatory; everything else has validated defaults
(``trajectories.dt = 1e-3``, ``grid.n_points = 2048``, ``grid.x_min = -60``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

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


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position grid on [x_min, 0]."""

    x_min: float
    n_points: int
    x_max: float = 0.0

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    n_times: int

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
    packet_a: GaussianPacket
    packet_b: GaussianPacket
    run_kind: str = "density"
    out_dir: str = "out"
    epsilons: tuple[float, ...] = (1.0, 0.5, 0.1, 0.01)
    hbar: float = 1.0
    grid: SpatialGrid = field(default_factory=lambda: SpatialGrid(-60.0, 2048))
    time: TimeGrid = field(default_factory=lambda: TimeGrid(20.0, 41))
    detector_x: float = -30.0
    trajectories: TrajectorySettings = field(default_factory=TrajectorySettings)
    arrival: ArrivalSettings = field(default_factory=ArrivalSettings)
    wigner: WignerSettings = field(default_factory=WignerSettings)

    def regimes(self) -> list[Regime]:
        return [make_regime(eps, self.hbar) for eps in self.epsilons]

    def ensemble(self, kind: str) -> EnsembleSpec:
        return EnsembleSpec(kind=kind, packet_a=self.packet_a, packet_b=self.packet_b)


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    """The object ``doc[name]`` (empty if absent), checked for unknown keys."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(name, "must be an object")
    _require_keys(section, allowed, name)
    return section


def _typed(obj: dict, key: str, path: str, default, types, noun: str):
    name = f"{path}.{key}" if path else key
    if key not in obj:
        if default is None:
            raise ConfigError(name, "missing required value")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(name, f"expected {noun}, got {value!r}")
    return value


def _number(obj: dict, key: str, path: str, default=None) -> float:
    return float(_typed(obj, key, path, default, (int, float), "a number"))


def _integer(obj: dict, key: str, path: str, default=None) -> int:
    return _typed(obj, key, path, default, int, "an integer")


def _gaussian_tail_mass(x_min: float, x0: float, sigma0: float) -> float:
    """Probability mass of a unit Gaussian N(x0, sigma0^2) below x_min."""
    z = (x_min - x0) / sigma0
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _parse_packet(obj: dict, path: str, sigma0: float, mass: float) -> GaussianPacket:
    _require_keys(obj, {"x0", "p0", "sigma0"}, path)
    x0 = _number(obj, "x0", path)
    p0 = _number(obj, "p0", path)
    sigma = _number(obj, "sigma0", path, default=sigma0)
    try:
        return GaussianPacket(sigma0=sigma, x0=x0, p0=p0, mass=mass)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top-level value must be an object")
    _require_keys(
        doc,
        {
            "run",
            "out_dir",
            "epsilons",
            "hbar",
            "mass",
            "packets",
            "grid",
            "time",
            "detector_x",
            "trajectories",
            "arrival",
            "wigner",
        },
        "",
    )

    run_kind = doc.get("run", "density")
    if run_kind not in RUN_KINDS:
        raise ConfigError("run", f"must be one of {RUN_KINDS}, got {run_kind!r}")
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", "must be a non-empty string")

    eps_raw = doc.get("epsilons", [1.0, 0.5, 0.1, 0.01])
    if not isinstance(eps_raw, list) or not eps_raw:
        raise ConfigError("epsilons", "must be a non-empty list of numbers")
    epsilons = []
    for i, value in enumerate(eps_raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"epsilons[{i}]", f"expected a number, got {value!r}")
        epsilons.append(float(value))
    if len(set(epsilons)) != len(epsilons):
        raise ConfigError("epsilons", "values must be distinct")
    hbar = _number(doc, "hbar", "", default=1.0)
    mass = _number(doc, "mass", "", default=1.0)
    for i, eps in enumerate(epsilons):
        try:
            make_regime(eps, hbar)
        except DomainError as exc:
            raise ConfigError(f"epsilons[{i}]", str(exc)) from exc
    if not mass > 0.0:
        raise ConfigError("mass", f"must be positive, got {mass}")

    if "packets" not in doc:
        raise ConfigError("packets", "missing required section")
    packets = _section(doc, "packets", {"sigma0", "a", "b"})
    sigma0 = _number(packets, "sigma0", "packets", default=1.0)
    for name in ("a", "b"):
        if name not in packets or not isinstance(packets[name], dict):
            raise ConfigError(f"packets.{name}", "missing packet object")
    packet_a = _parse_packet(packets["a"], "packets.a", sigma0, mass)
    packet_b = _parse_packet(packets["b"], "packets.b", sigma0, mass)

    grid_doc = _section(doc, "grid", {"x_min", "n_points"})
    grid = SpatialGrid(
        x_min=_number(grid_doc, "x_min", "grid", default=-60.0),
        n_points=_integer(grid_doc, "n_points", "grid", default=2048),
    )
    if not grid.x_min < 0.0:
        raise ConfigError("grid.x_min", f"must be negative, got {grid.x_min}")
    if grid.n_points < 64:
        raise ConfigError("grid.n_points", f"must be at least 64, got {grid.n_points}")
    for name, packet in (("a", packet_a), ("b", packet_b)):
        tail = _gaussian_tail_mass(grid.x_min, packet.x0, packet.sigma0)
        if tail > _TAIL_MASS_LIMIT:
            raise ConfigError(
                "grid.x_min",
                f"packet {name} has tail mass {tail:.3e} beyond x_min at t=0 "
                f"(limit {_TAIL_MASS_LIMIT:.0e})",
            )

    time_doc = _section(doc, "time", {"t_max", "n_times"})
    time_grid = TimeGrid(
        t_max=_number(time_doc, "t_max", "time", default=20.0),
        n_times=_integer(time_doc, "n_times", "time", default=41),
    )
    if not time_grid.t_max > 0.0:
        raise ConfigError("time.t_max", "must be positive")
    if time_grid.n_times < 2:
        raise ConfigError("time.n_times", "must be at least 2")

    detector_x = _number(doc, "detector_x", "", default=-30.0)
    if not detector_x < 0.0:
        raise ConfigError("detector_x", f"must be negative, got {detector_x}")

    traj_doc = _section(
        doc,
        "trajectories",
        {"t_end", "dt", "seeding", "n_seeds", "x_lo", "x_hi", "seeds", "record_every"},
    )
    seeds_raw = traj_doc.get("seeds")
    seeds: tuple[float, ...] | None = None
    if seeds_raw is not None:
        if not isinstance(seeds_raw, list) or len(seeds_raw) == 0:
            raise ConfigError("trajectories.seeds", "must be a non-empty list or null")
        values = []
        for i, value in enumerate(seeds_raw):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"trajectories.seeds[{i}]", "expected a number")
            values.append(float(value))
        if any(v >= 0.0 for v in values):
            raise ConfigError("trajectories.seeds", "all seeds must be negative")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("trajectories.seeds", "seeds must be strictly increasing")
        seeds = tuple(values)
    seeding = traj_doc.get("seeding", "uniform")
    if seeding not in ("uniform", "born"):
        raise ConfigError("trajectories.seeding", f"must be 'uniform' or 'born', got {seeding!r}")
    trajectories = TrajectorySettings(
        t_end=_number(traj_doc, "t_end", "trajectories", default=15.0),
        dt=_number(traj_doc, "dt", "trajectories", default=1e-3),
        seeding=seeding,
        n_seeds=_integer(traj_doc, "n_seeds", "trajectories", default=20),
        x_lo=_number(traj_doc, "x_lo", "trajectories", default=-18.0),
        x_hi=_number(traj_doc, "x_hi", "trajectories", default=-2.0),
        seeds=seeds,
        record_every=_integer(traj_doc, "record_every", "trajectories", default=10),
    )
    if not trajectories.dt > 0.0:
        raise ConfigError("trajectories.dt", "must be positive")
    if not trajectories.t_end > 0.0:
        raise ConfigError("trajectories.t_end", "must be positive")
    try:
        step_count(trajectories.t_end, trajectories.dt)
    except DomainError as exc:
        raise ConfigError("trajectories.t_end", str(exc)) from exc
    if trajectories.n_seeds < 1:
        raise ConfigError("trajectories.n_seeds", "must be at least 1")
    if not trajectories.x_lo < trajectories.x_hi < 0.0:
        raise ConfigError("trajectories.x_lo", "need x_lo < x_hi < 0")
    if trajectories.record_every < 1:
        raise ConfigError("trajectories.record_every", "must be at least 1")

    arrival_doc = _section(doc, "arrival", {"t_max", "n_points"})
    arrival = ArrivalSettings(
        t_max=_number(arrival_doc, "t_max", "arrival", default=40.0),
        n_points=_integer(arrival_doc, "n_points", "arrival", default=4001),
    )
    if not arrival.t_max > 0.0:
        raise ConfigError("arrival.t_max", "must be positive")
    if arrival.n_points < 3:
        raise ConfigError("arrival.n_points", "must be at least 3")

    wigner_doc = _section(
        doc, "wigner", {"times", "x_min", "n_x", "u_max", "n_u", "rel_span", "n_rel"}
    )
    times_raw = wigner_doc.get("times", [0.0, 7.0])
    if not isinstance(times_raw, list) or not times_raw:
        raise ConfigError("wigner.times", "must be a non-empty list of times")
    times = []
    for i, value in enumerate(times_raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0.0:
            raise ConfigError(f"wigner.times[{i}]", "expected a non-negative number")
        times.append(float(value))
    n_rel = wigner_doc.get("n_rel")
    if n_rel is not None and (isinstance(n_rel, bool) or not isinstance(n_rel, int) or n_rel < 9):
        raise ConfigError("wigner.n_rel", "must be an integer >= 9 or null")
    wigner = WignerSettings(
        times=tuple(times),
        x_min=_number(wigner_doc, "x_min", "wigner", default=-40.0),
        n_x=_integer(wigner_doc, "n_x", "wigner", default=161),
        u_max=_number(wigner_doc, "u_max", "wigner", default=8.0),
        n_u=_integer(wigner_doc, "n_u", "wigner", default=161),
        rel_span=_number(wigner_doc, "rel_span", "wigner", default=12.0),
        n_rel=n_rel,
    )
    if not wigner.x_min < 0.0:
        raise ConfigError("wigner.x_min", "must be negative")
    if wigner.n_x < 9:
        raise ConfigError("wigner.n_x", "must be at least 9")
    if wigner.n_u < 9:
        raise ConfigError("wigner.n_u", "must be at least 9")
    if not wigner.u_max > 0.0:
        raise ConfigError("wigner.u_max", "must be positive")
    if not wigner.rel_span > 0.0:
        raise ConfigError("wigner.rel_span", "must be positive")

    return ExperimentConfig(
        packet_a=packet_a,
        packet_b=packet_b,
        run_kind=run_kind,
        out_dir=out_dir,
        epsilons=tuple(epsilons),
        hbar=hbar,
        grid=grid,
        time=time_grid,
        detector_x=detector_x,
        trajectories=trajectories,
        arrival=arrival,
        wigner=wigner,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON representation; round-trips through :func:`parse_config`."""

    def packet(p: GaussianPacket) -> dict:
        return {"x0": p.x0, "p0": p.p0, "sigma0": p.sigma0}

    trajectories = asdict(config.trajectories)
    seeds = config.trajectories.seeds
    trajectories["seeds"] = list(seeds) if seeds else None
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
        "grid": {"x_min": config.grid.x_min, "n_points": config.grid.n_points},
        "time": asdict(config.time),
        "detector_x": config.detector_x,
        "trajectories": trajectories,
        "arrival": asdict(config.arrival),
        "wigner": {**asdict(config.wigner), "times": list(config.wigner.times)},
    }


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
