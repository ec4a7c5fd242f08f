"""Experiment configuration: JSON schema, validation, defaults, serialization.

A configuration document is a single JSON object.  The settings dataclasses
below are its only schema: each key of a section is a field, checked against
the field's annotation and the bounds in its ``bounds`` metadata (negative,
positive, in (0, 1], at least n, one of a fixed set, non-empty) as it is
read.  An absent key takes the field's default; a field without one, such as
the ``packets`` section and each packet's ``x0`` and ``p0``, is required.
:func:`config_to_dict` writes the same fields back.  Unknown keys, missing
required values, non-finite numbers and values out of bounds are rejected
with the offending field path; :func:`parse_config` then checks what
combines several fields, the budgets of the configured run kind in one table
and each packet in one pass, so the runner never starts from an inconsistent
state.
"""

# No ``from __future__ import annotations``: the loader reads each settings
# field's type from its annotation, so annotations must be evaluated.
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import get_args, get_origin

import numpy as np

from .ensembles import EnsembleSpec
from .errors import ConfigError, DomainError
from .hydrodynamics import record_count
from .packets import GaussianPacket
from .regime import Regime, epsilon_in_range, epsilon_tag, make_regime

__all__ = [
    "PacketSettings",
    "PacketPair",
    "SpatialGrid",
    "TimeGrid",
    "TrajectorySettings",
    "ArrivalSettings",
    "WignerSettings",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "RUN_KINDS",
]

RUN_KINDS = ("density", "trajectories", "arrival", "observables", "wigner")

_TAIL_MASS_LIMIT = 1e-10

# Largest (x0 / sigma0)^2 2^-54 of a packet: how narrow a packet may be for
# its centre (the bound trips near |x0| = 1.34e5 sigma0).  The pair integrals,
# each taken about its own centre, need no such bound; it stays while the
# diagonal density's residue guard (ensembles._IMAG_FAIL) is absolute, since
# densities of order 1 / sigma0 round to a residue above it: sigma0 = 1e-9 at
# the default centres would load and then exit 3.
_PAIR_ERROR_LIMIT = 1e-6

# Largest packet phase p0 (x0 + x_t) / (2 hbar_tilde), in rad, that a run may
# evaluate (packets._coefficients): above 2^53 a float64 phase has no correct
# units digit.  The README default peaks near 9e2 rad.
PHASE_LIMIT = 2.0**53

# Each budget below bounds one run kind's whole run, every epsilon included;
# parse_config checks only the configured kind's.  The figures are from the
# command line on 2 CPUs, at the defaults but for the field named.

# Samples a trajectory run holds, epsilons x 2 kinds x seeds x the
# hydrodynamics.record_count(t_end, dt, record_every) recorded times
# (240,160 at the defaults; the budget is 200 MB of float64).  The run holds
# them once, in trajectory_fans' table, and writes each epsilon's CSV from a
# view of it.  At 24,000,160 samples (dt = 1e-4, record_every = 1) the run
# took 5.7-6.3 s, peaked at 224 MB (192 MB of samples) and wrote 489 MB of CSV.
TRAJECTORY_SAMPLE_BUDGET = 25_000_000

# (R, u) points of a Wigner run, epsilons x times x n_x x n_u (207,368 at the
# defaults): the 1,000,000 points a time that the budget was at the default 4
# epsilons x 2 times.  A run evaluates and writes them a block of whole R rows
# of about phase_space.BLOCK_POINTS points at a time, so no array it holds
# spans a time's grid: a writer peaked at about 31 MB at both 81 x 8001 and
# 121 x 8001 points.  At the budget (1000 x 1000) the run took 10.3 s (19.4 s
# of writer CPU), its writers peaked at 28.7 MB, and it wrote 696 MB of CSV,
# 87 bytes a point.
WIGNER_POINT_BUDGET = 8_000_000

# Points of the position grid (grid.n_points, which only the density run
# evaluates: the manifest's trace diagnostic is exact and reads only
# grid.x_min).  The density run evaluates it in blocks of one CSV formatter
# chunk that it writes as it goes, so what grows with the points is its x
# fields and grid, about 33 bytes a point (peak RSS slope from 100,001 to
# 500,000 points, one epsilon, two times): 43.6-43.7 MB at the budget.  Each
# epsilon's writer holds its own grid, so the budget counts one grid.
GRID_POINT_BUDGET = 500_000

# Times of the observables run (epsilons x time.n_times) and of the arrival
# run (epsilons x arrival.n_points), each evaluated in blocks of
# ensembles.FIELD_BLOCK_POINTS.  At one epsilon, 500,000 observables times
# took 6.2-6.9 s (5.9-6.5 s of writer CPU), 48.7-48.9 MB peak RSS and a 148 MB
# CSV; 500,000 arrival times took 1.1-1.3 s, 61.1-61.3 MB (its few float
# arrays and t fields, about 66 bytes a point) and a 31 MB CSV.  At 4 epsilons
# of 125,000 they took 3.6 s and 37.2 MB, and 0.9 s and 42.9 MB.
TIME_POINT_BUDGET = 500_000

# Rows of a density run's CSVs, epsilons x time.n_times x grid.n_points.  The
# density run writes each time's grid.n_points rows in turn.  At 19,996,672
# rows (4 epsilons x 2441 times x 2048 points) it took 8.4 s, 14.4 s of writer
# CPU (0.72 us a row), 30.4 MB peak RSS and 1.64 GB of CSV (82 bytes a row).
DENSITY_ROW_BUDGET = 20_000_000

# Single-field bounds, (test, requirement) pairs.  A settings field lists its
# own in its ``bounds`` metadata; the loader checks each value as it reads it,
# and each item of a list.
_NEGATIVE = (lambda v: v < 0.0, "must be negative")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_EMPTY = (bool, "must be non-empty")
_EPSILON = (epsilon_in_range, "must be in (0, 1]")


def _at_least(n: int) -> tuple:
    return (lambda v: v >= n, f"must be at least {n}")


def _one_of(*choices: str) -> tuple:
    return (lambda v: v in choices, f"must be one of {choices}")


def _field(default, *bounds, **metadata):
    """A settings field with ``default`` whose values must pass every one of ``bounds``.

    A ``MISSING`` default makes the field required.
    """
    return field(default=default, metadata={"bounds": bounds, **metadata})


@dataclass(frozen=True)
class PacketSettings:
    """One packet of the pair; ``sigma0`` None takes the pair's shared ``sigma0``."""

    x0: float = _field(MISSING, _NEGATIVE)
    p0: float
    sigma0: float | None = _field(None, _POSITIVE)


@dataclass(frozen=True)
class PacketPair:
    """The ``packets`` section: packets a and b, and the ``sigma0`` they share."""

    a: PacketSettings
    b: PacketSettings
    sigma0: float = _field(1.0, _POSITIVE)

    def __post_init__(self):
        # A packet without its own sigma0 takes the shared one here, so every
        # packet carries its width and the document written back names it.
        for name, packet in (("a", self.a), ("b", self.b)):
            if packet.sigma0 is None:
                object.__setattr__(self, name, replace(packet, sigma0=self.sigma0))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position grid on [x_min, 0] of the density run; the trace diagnostic reads x_min."""

    x_min: float = _field(-60.0, _NEGATIVE)
    n_points: int = _field(2048, _at_least(64))

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, 0.0, self.n_points)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = _field(20.0, _POSITIVE)
    n_times: int = _field(41, _at_least(2))

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_times)


@dataclass(frozen=True)
class TrajectorySettings:
    """``dt`` is the sample spacing; the integrator chooses its own steps."""

    t_end: float = _field(15.0, _POSITIVE)
    dt: float = _field(1e-3, _POSITIVE)
    seeding: str = _field("uniform", _one_of("uniform", "born"))
    n_seeds: int = _field(20, _at_least(1))
    x_lo: float = _field(-18.0, _NEGATIVE)
    x_hi: float = _field(-2.0, _NEGATIVE)
    seeds: tuple[float, ...] | None = _field(None, _NEGATIVE)
    record_every: int = _field(10, _at_least(1))


@dataclass(frozen=True)
class ArrivalSettings:
    t_max: float = _field(40.0, _POSITIVE)
    n_points: int = _field(4001, _at_least(3))


@dataclass(frozen=True)
class WignerSettings:
    times: tuple[float, ...] = _field((0.0, 7.0), _NON_NEGATIVE)
    x_min: float = _field(-40.0, _NEGATIVE)
    n_x: int = _field(161, _at_least(9))
    u_max: float = _field(8.0, _POSITIVE)
    n_u: int = _field(161, _at_least(9))
    # Settings of the former relative-coordinate quadrature.  Still accepted
    # and validated so existing configs load, but the closed-form transform
    # has no window or samples, so they do not affect results.
    rel_span: float = _field(12.0, _POSITIVE)
    n_rel: int | None = _field(None, _at_least(9))


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole run; ``packet_a`` and ``packet_b`` are the packets of ``packets`` at ``mass``."""

    packets: PacketPair
    run_kind: str = _field("density", _one_of(*RUN_KINDS), key="run")
    out_dir: str = _field("out", _NON_EMPTY)
    epsilons: tuple[float, ...] = _field((1.0, 0.5, 0.1, 0.01), _EPSILON)
    hbar: float = _field(1.0, _POSITIVE)
    grid: SpatialGrid = SpatialGrid()
    time: TimeGrid = TimeGrid()
    detector_x: float = _field(-30.0, _NEGATIVE)
    trajectories: TrajectorySettings = TrajectorySettings()
    arrival: ArrivalSettings = ArrivalSettings()
    wigner: WignerSettings = WignerSettings()
    mass: float = _field(1.0, _POSITIVE)

    @cached_property
    def packet_a(self) -> GaussianPacket:
        return GaussianPacket(**vars(self.packets.a), mass=self.mass)

    @cached_property
    def packet_b(self) -> GaussianPacket:
        return GaussianPacket(**vars(self.packets.b), mass=self.mass)

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


def _value(value, kind, path: str, bounds=()):
    """The JSON ``value`` checked against the field annotation ``kind`` and ``bounds``."""
    if is_dataclass(kind):
        return kind(**_settings(kind, value, path))
    if type(None) in get_args(kind):  # ``X | None``
        return None if value is None else _value(value, get_args(kind)[0], path, bounds)
    if get_origin(kind) is tuple:  # ``tuple[float, ...]``
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "must be a non-empty list of numbers")
        return tuple(_value(v, float, f"{path}[{i}]", bounds) for i, v in enumerate(value))
    types, noun = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(path, f"expected {noun}, got {value!r}")
    if kind is float:
        # Python's json reads NaN, Infinity, overflowing literals such as
        # 1e400 (as inf) and integers beyond the float range.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        value = float(value)
    for test, requirement in bounds:
        if not test(value):
            raise ConfigError(path, f"{requirement}, got {value!r}")
    return value


def _schema(cls) -> dict:
    """The fields of the dataclass ``cls``, by key: a field's ``key`` metadata or name."""
    return {f.metadata.get("key", f.name): f for f in fields(cls)}


def _settings(cls, obj, path: str) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``obj``.

    An absent key is left to the field default, and is an error if it has none.
    """
    schema = _schema(cls)
    obj = _object(obj, path, schema)
    for key, f in schema.items():
        if key not in obj and f.default is MISSING:
            raise ConfigError(_join(path, key), "missing required value")
    values = {}
    for key, value in obj.items():
        f = schema[key]
        values[f.name] = _value(value, f.type, _join(path, key), f.metadata.get("bounds", ()))
    return values


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse and validate a JSON configuration document.

    ``overrides`` maps top-level document keys to values that replace the
    document's before any check, so each is validated as that key would be.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top-level value must be an object")
    doc.update(overrides or {})
    config = ExperimentConfig(**_settings(ExperimentConfig, doc, ""))

    # Distinct by output name: two epsilons of one name would overwrite each other's CSV.
    if len(set(map(epsilon_tag, config.epsilons))) != len(config.epsilons):
        raise ConfigError("epsilons", "values must be distinct in 6 significant digits")

    trajectories = config.trajectories
    try:
        n_recorded = record_count(trajectories.t_end, trajectories.dt, trajectories.record_every)
    except DomainError as exc:
        raise ConfigError("trajectories.t_end", str(exc)) from exc
    seeds = trajectories.seeds
    if seeds is not None and any(b <= a for a, b in zip(seeds, seeds[1:])):
        raise ConfigError("trajectories.seeds", "seeds must be strictly increasing")
    if not trajectories.x_lo < trajectories.x_hi:
        raise ConfigError("trajectories.x_lo", "need x_lo < x_hi")

    # Each run kind's last evaluated time and budget rows: the field path a
    # row is reported at, what it counts over the whole run, the count and the
    # budget.  Only the configured kind's rows are checked.
    grid, time, arrival, wigner = config.grid, config.time, config.arrival, config.wigner
    n_eps = len(config.epsilons)
    n_seeds = trajectories.n_seeds if seeds is None else len(seeds)
    last_time, *budgets = {
        "density": (time.t_max, ("grid.n_points", "grid points", grid.n_points, GRID_POINT_BUDGET),
                    ("time.n_times", "density rows (epsilons x n_times x grid.n_points)",
                     n_eps * time.n_times * grid.n_points, DENSITY_ROW_BUDGET)),
        "observables": (time.t_max, ("time.n_times", "times (epsilons x n_times)",
                                     n_eps * time.n_times, TIME_POINT_BUDGET)),
        "arrival": (arrival.t_max, ("arrival.n_points", "arrival times (epsilons x n_points)",
                                    n_eps * arrival.n_points, TIME_POINT_BUDGET)),
        "trajectories": (trajectories.t_end, (
            "trajectories.n_seeds" if seeds is None else "trajectories.seeds",
            "samples (epsilons x 2 kinds x seeds x recorded times)",
            n_eps * 2 * n_seeds * n_recorded, TRAJECTORY_SAMPLE_BUDGET)),
        "wigner": (max(wigner.times), ("wigner.n_u", "Wigner points (epsilons x times x n_x x n_u)",
                                       n_eps * len(wigner.times) * wigner.n_x * wigner.n_u,
                                       WIGNER_POINT_BUDGET)),
    }[config.run_kind]
    for path, counted, count, budget in budgets:
        if count > budget:
            raise ConfigError(path, f"{count} {counted} exceed the budget of {budget}")

    # Every run kind's trace diagnostic evaluates time.t_max.  The phase
    # p0 (x0 + x_t) / (2 hbar_tilde), with x_t = x0 + p0 t / m, is linear in
    # t, so its modulus peaks at t = 0 or at the last time.
    t_end = max(last_time, time.t_max)
    hbar_tilde = min(regime.hbar_tilde for regime in config.regimes())
    for name in ("a", "b"):
        try:
            p = getattr(config, f"packet_{name}")
        except DomainError as exc:  # |x0| below 3 sigma0
            raise ConfigError(f"packets.{name}", str(exc)) from exc
        if (error := (p.x0 / p.sigma0) ** 2 * 2.0**-54) > _PAIR_ERROR_LIMIT:
            raise ConfigError(f"packets.{name}", f"(x0 / sigma0)^2 2^-54 = {error:.3g} exceeds "
                              f"{_PAIR_ERROR_LIMIT:.0e}: the packet is too narrow for its centre")
        # The mass of N(x0, sigma0^2) below x_min at t = 0.
        tail = 0.5 * math.erfc((p.x0 - grid.x_min) / p.sigma0 / math.sqrt(2.0))
        if tail > _TAIL_MASS_LIMIT:
            raise ConfigError("grid.x_min", f"packet {name} has tail mass {tail:.3e} beyond "
                              f"x_min at t=0 (limit {_TAIL_MASS_LIMIT:.0e})")
        phase = max(abs(p.p0 * (2.0 * p.x0 + p.p0 * t / p.mass)) for t in (0.0, t_end))
        phase /= 2.0 * hbar_tilde
        if not phase <= PHASE_LIMIT:
            raise ConfigError(f"packets.{name}.p0", f"packet phase {phase:.3g} rad at "
                              f"t = {t_end:g} and hbar_tilde = {hbar_tilde:.3g} exceeds 2^53 "
                              "rad, above which it has no correct units digit")
    return config


def config_to_dict(settings) -> dict:
    """A settings dataclass as a JSON object under its document keys, tuples kept as tuples.

    :func:`dataclasses.asdict` under the keys of :func:`_schema`: only the
    top-level ``run`` is renamed.  ``json.dump`` writes the tuples as lists, so
    for an :class:`ExperimentConfig` the text round-trips through :func:`parse_config`.
    """
    return dict(zip(_schema(type(settings)), asdict(settings).values()))


def load_config(path, overrides=None) -> ExperimentConfig:
    """The configuration in the file at ``path``, with :func:`parse_config`'s ``overrides``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), overrides)
