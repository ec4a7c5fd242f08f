"""Experiment orchestration: one CSV per (run kind, epsilon) plus a manifest.

Each run kind is a generator ``(config, specs, diagnostics)`` over the
regimes, ``specs`` being the pure and the mixed ensemble, that yields ``(file
name, header, axes, blocks)`` for every CSV.  The rows of a CSV are the
points of the grid of its 1-D ``axes`` in C order: (t, x) for density,
(t, R, u) for Wigner, (t,) for trajectories, arrival and observables, and
(epsilon,) for the arrival summary.  Each row's leading fields are its grid
point, and each block is a 2-D float array of the next rows' remaining
columns.  Only :func:`qctl.writers._write_csv` formats the axes, once per file
(:func:`qctl.csvtext.lead_fields`); :func:`qctl.csvtext.csv_chunks` picks
each row's leading fields by its grid index, a chunk of rows at a time, so
blocks need not line up with the axes, and formats the values of each block
by numpy, to the bytes that CPython's ``'%.17g' %`` writes.  A block smaller
than a chunk is formatted as one, so the density run sizes its blocks to a
chunk, :data:`qctl.csvtext.CHUNK_VALUES` values.

A run kind records its diagnostics in ``diagnostics`` as it yields its
files.  The work done while ``blocks`` is consumed, which may happen in
another process, is reported by ``blocks`` itself: a generator of blocks may
return a dict of manifest sections, each a dict of entries.  The writer of
the file hands it back, and once every file is written the run merges the
reports into ``diagnostics`` in file order, a section's entries after those
already there.

:func:`run_experiment` hands each file to :class:`qctl.writers.Writers`,
which owns the process model: which files a forked writer writes, how many
run at once, the order they are reaped in, which failure is raised, and the
cleanup on a failure, KeyboardInterrupt or SIGTERM, for a library call as
for the CLI.  This module holds no process code.  The manifest records, for
each file in file order under ``writers``, whether it was ``forked``, and
its writer's CPU seconds and peak RSS.  The trace drift is computed while
the writers run, so a failure there removes the CSVs too.

Outputs are deterministic: fixed evaluation and summation order, 17
significant digits, LF line endings, and no run-time data inside CSV bodies.
The manifest echoes the configuration, the wall clock and the diagnostics.
Mass lost beyond the density grid and arrival current cut off by the time
window bias those outputs, so both are flagged there, not rejected.
"""

from __future__ import annotations

import json
import time as _time
from collections import Counter
from pathlib import Path

import numpy as np

from .arrival import arrival_distribution
from .config import ExperimentConfig, config_to_dict
from .ensembles import EnsembleSpec, mass_below, point_blocks, position_densities
from .errors import ConfigError, NumericalGuardError
from .hydrodynamics import STATUS_COMPLETED, STATUS_NON_FINITE, record_times, trajectory_fans
from .observables import heisenberg_check, observable_record
from .phase_space import wigner_blocks
from .regime import Regime, epsilon_tag
from .writers import Writers

__all__ = ["run_experiment"]

# Mass missing from the grid at t_max, and |j| at the end of the arrival
# window relative to its peak, above which the manifest flags truncation.
SUPPORT_LOSS_FLAG = 1e-6
TAIL_FRACTION_FLAG = 1e-3

# Observables CSV columns per ensemble kind: ObservableRecord fields and units.
_OBSERVABLE_UNITS = {
    "mean_x": "length",
    "sd_x": "length",
    "mean_p": "momentum",
    "sd_p": "momentum",
    "uncertainty_product": "action",
    "f_nc": "force",
}


def _seed_positions(config: ExperimentConfig, spec: EnsembleSpec, regime: Regime) -> np.ndarray:
    settings = config.trajectories
    if settings.seeds is not None:
        return np.asarray(settings.seeds, dtype=float)
    if settings.seeding == "uniform":
        return np.linspace(settings.x_lo, settings.x_hi, settings.n_seeds)
    # Born-rule seeding: the quantile midpoints of the t = 0 density in [x_lo, x_hi].  The
    # exact CDF F_0 is interpolated on a grid, then one Newton step (F_0' = rho) refines it.
    x = np.linspace(settings.x_lo, settings.x_hi, 4001)
    cdf = mass_below(spec, regime, 0.0, x)
    mass = cdf[-1] - cdf[0]
    if not mass > 0.0:
        raise ConfigError("trajectories.x_lo", "Born seeding needs t = 0 mass in [x_lo, x_hi]")
    quantiles = (np.arange(settings.n_seeds) + 0.5) / settings.n_seeds
    # Normalized, so that no slope of the interpolation overflows.
    seeds = np.interp(quantiles, (cdf - cdf[0]) / mass, x)
    residual = mass_below(spec, regime, 0.0, seeds) - (cdf[0] + mass * quantiles)
    rho = position_densities([spec], regime, seeds, 0.0)[0]
    # Where rho underflows the interpolated seed stands; elsewhere |step| <= 1e300.
    return seeds - np.divide(residual, rho, out=np.zeros_like(rho), where=rho > 1e-300)


def _density(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    x = config.grid.points()
    times = config.time.points()
    header = ["t [time]", "x [length]"] + [f"density_{spec.kind} [1/length]" for spec in specs]

    def blocks(regime):
        # Each time's rows a formatter chunk of values at a time, written as
        # they are evaluated, so only one chunk's fields are held.
        from .csvtext import CHUNK_VALUES

        for t in times:
            for block in point_blocks(x.size, max(1, CHUNK_VALUES // len(specs))):
                yield np.column_stack(position_densities(specs, regime, x[block], t))

    for regime in config.regimes():
        yield f"density_eps{epsilon_tag(regime.epsilon)}.csv", header, (times, x), blocks(regime)


def _trajectories(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    settings = config.trajectories
    regimes = config.regimes()
    seeded = [(s, regime, _seed_positions(config, s, regime)) for regime in regimes for s in specs]
    for spec, regime, seeds in seeded:
        names = Counter(map(_seed_name, seeds.tolist()))
        if len(names) < seeds.size:
            shared = sorted(name for name, count in names.items() if count > 1)
            path = "trajectories.n_seeds" if settings.seeds is None else "trajectories.seeds"
            raise ConfigError(path, f"{spec.kind} seeds at epsilon {regime.epsilon:g} share the "
                              f"CSV column names {shared} (6 significant digits)")
    fans, diagnostics["trajectory_loop"], positions = trajectory_fans(
        seeded, settings.t_end, settings.dt, record_every=settings.record_every
    )
    for (spec, regime, _), fan in zip(seeded, fans):
        broken = sum(tr.status == STATUS_NON_FINITE for tr in fan)
        if broken:
            raise NumericalGuardError(f"{broken} {spec.kind} seeds at epsilon {regime.epsilon:g} "
                                      "stalled on a density or step that is not finite")
    times = record_times(settings.t_end, settings.dt, settings.record_every)

    start = 0
    for i, regime in enumerate(regimes):
        tag = epsilon_tag(regime.epsilon)
        group = fans[i * len(specs) : (i + 1) * len(specs)]
        header = ["t [time]"] + [f"x_{spec.kind}[{_seed_name(tr.initial_position)}] [length]"
                                 for spec, fan in zip(specs, group) for tr in fan]
        # The epsilon's fans are consecutive columns of the loop's table, written
        # from a view of them, so no sample is copied.
        block = positions[:, start : start + len(header) - 1]
        start += block.shape[1]
        yield f"trajectories_eps{tag}.csv", header, (times,), [block]
        counts = {spec.kind: _integrator_counts(fan) for spec, fan in zip(specs, group)}
        diagnostics.setdefault("integrator", {})[tag] = counts
        diagnostics[f"stalled_eps{tag}"] = {kind: c["stalled_seeds"] for kind, c in counts.items()}


def _seed_name(seed: float) -> str:
    """A seed as its trajectory column names it, in 6 significant digits."""
    return f"{seed:.6g}"


def _integrator_counts(fan) -> dict:
    """Work of one fan; every count is deterministic."""
    smallest = min(tr.min_step for tr in fan)
    return {
        "accepted_steps": sum(tr.accepted_steps for tr in fan),
        "rejected_steps": sum(tr.rejected_steps for tr in fan),
        # The calls that included a seed of this fan: as many as its
        # longest-running seed saw, and as a fan integrated alone would make.
        "evaluator_calls": max(tr.evaluations for tr in fan),
        "min_step": smallest if np.isfinite(smallest) else None,
        "stalled_seeds": sum(tr.status != STATUS_COMPLETED for tr in fan),
    }


def _arrival(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    t_grid = np.linspace(0.0, config.arrival.t_max, config.arrival.n_points)
    header = ["t [time]"] + [f"pdf_{spec.kind} [1/time]" for spec in specs]
    summary = ["epsilon [1]"] + [f"{m}_{s.kind} [time]" for s in specs for m in ("mean_t", "sd_t")]
    summary_rows = []
    tails = diagnostics.setdefault("arrival_tail", {})
    for regime in config.regimes():
        stats = [arrival_distribution(spec, regime, config.detector_x, t_grid) for spec in specs]
        tag = epsilon_tag(regime.epsilon)
        tails[tag] = {
            spec.kind: {"tail_fraction": f, "tail_flagged": f > TAIL_FRACTION_FLAG}
            for spec, f in zip(specs, (s.tail_fraction for s in stats))
        }
        yield f"arrival_eps{tag}.csv", header, (t_grid,), [np.column_stack([s.pdf for s in stats])]
        summary_rows.append([v for s in stats for v in (s.mean_t, s.sd_t)])
    yield "arrival_summary.csv", summary, (config.epsilons,), [np.array(summary_rows)]


def _observables(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    times = config.time.points()
    header = ["t [time]"]
    for spec in specs:
        header += [f"{name}_{spec.kind} [{unit}]" for name, unit in _OBSERVABLE_UNITS.items()]
        header.append(f"heisenberg_margin_{spec.kind} [action]")

    def blocks(regime):
        for block in point_blocks(times.size):
            columns = []
            for spec in specs:
                record = observable_record(spec, regime, times[block])
                columns += [getattr(record, name) for name in _OBSERVABLE_UNITS]
                columns.append(heisenberg_check(record, regime)[1])
            yield np.column_stack(columns)

    for regime in config.regimes():
        yield f"observables_eps{epsilon_tag(regime.epsilon)}.csv", header, (times,), blocks(regime)


def _wigner(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    settings = config.wigner
    R = np.linspace(settings.x_min, 0.0, settings.n_x)
    u = np.linspace(-settings.u_max, settings.u_max, settings.n_u)
    header = ["t [time]", "R [length]", "u [momentum]"] + [f"w_{s.kind} [1/action]" for s in specs]
    axes = (settings.times, R, u)

    def blocks(regime):
        # Each block of R rows formatted as it is evaluated, and the work
        # counted where it is done: the pair integrals of every time, on the
        # points of one, and the pair-points integrated at every time.
        pair_integrals = integrated_points = 0
        for t in settings.times:
            pairs, points, integrated = yield from wigner_blocks(specs, regime, t, R, u)
            pair_integrals += pairs
            integrated_points += integrated
        work = {"pair_integrals": pair_integrals, "points": points, "integrated_points": integrated_points}
        return {"wigner": {epsilon_tag(regime.epsilon): work}}

    for regime in config.regimes():
        yield f"wigner_eps{epsilon_tag(regime.epsilon)}.csv", header, axes, blocks(regime)


_RUNS = {"density": _density, "trajectories": _trajectories, "arrival": _arrival,
         "observables": _observables, "wigner": _wigner}


def _trace_drift(config: ExperimentConfig, specs: list[EnsembleSpec], regime: Regime) -> dict:
    """Exact mass on the grid [x_min, 0] at t = 0 and t_max, and the mass below x_min at t_max."""
    times, bounds = [[0.0], [config.time.t_max]], [config.grid.x_min, 0.0]
    masses = [mass_below(spec, regime, times, bounds) for spec in specs]
    if not np.isfinite(masses).all():
        raise NumericalGuardError(f"trace at epsilon {regime.epsilon:g} is not finite")
    return {
        spec.kind: {
            "trace_t0": total_t0 - lost_t0,
            "trace_t_end": total - lost,
            "support_loss": lost,
            "support_loss_flagged": lost > SUPPORT_LOSS_FLAG,
        }
        for spec, ((lost_t0, total_t0), (lost, total)) in zip(specs, np.array(masses).tolist())
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured experiment into ``config.out_dir``; returns the manifest dictionary.

    Any earlier manifest in the output directory is removed first, and
    partial outputs are removed if any stage fails.
    """
    target = Path(config.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    # A manifest left by an earlier run would describe outputs that a failure
    # of this one removes.
    (target / "manifest.json").unlink(missing_ok=True)
    started = _time.perf_counter()
    diagnostics: dict = {"trace": {}}
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    with Writers() as writers:
        for name, header, axes, blocks in _RUNS[config.run_kind](config, specs, diagnostics):
            writers.write(target / name, header, axes, blocks)
        for regime in config.regimes():
            diagnostics["trace"][epsilon_tag(regime.epsilon)] = _trace_drift(config, specs, regime)
    for file in writers.files.values():
        for section, entries in file.report.items():
            diagnostics.setdefault(section, {}).update(entries)

    manifest = {
        "config": config_to_dict(config),
        "outputs": sorted(writers.files),
        "diagnostics": diagnostics,
        "writers": {name: file.usage for name, file in writers.files.items()},
        "wall_clock_seconds": _time.perf_counter() - started,
    }
    with open(target / "manifest.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest
