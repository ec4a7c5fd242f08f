"""Experiment orchestration: one CSV per (run kind, epsilon) plus a manifest.

Each run kind is a generator ``(config, specs, diagnostics)`` over the
regimes, ``specs`` being the pure and the mixed ensemble, that yields ``(file
name, header, blocks)`` for every CSV and records its diagnostics;
:func:`run_experiment` alone writes the CSVs and removes them if any stage
fails.  Outputs are deterministic: fixed evaluation and summation order, 17
significant digits, LF line endings, and no run-time data inside CSV bodies.
The manifest echoes the configuration, the wall clock and the diagnostics.
Mass lost beyond the density grid and arrival current cut off by the time
window bias those outputs, so both are flagged there, not rejected.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path

import numpy as np

from .arrival import arrival_distribution
from .config import ExperimentConfig, config_to_dict
from .ensembles import EnsembleSpec, position_densities
from .errors import ConfigError
from .hydrodynamics import record_times, trajectory_fans
from .observables import heisenberg_check, observable_record
from .phase_space import wigner_transforms
from .quadrature import quad_integrate
from .regime import Regime

__all__ = ["run_experiment"]

# Mass missing from the grid at t_max, and |j| at the end of the arrival
# window relative to its peak, above which the manifest flags truncation.
SUPPORT_LOSS_FLAG = 1e-6
TAIL_FRACTION_FLAG = 1e-3

# Rows converted to Python floats at a time, which bounds the memory of a
# large block.
_CSV_CHUNK_ROWS = 64

# Observables CSV columns per ensemble kind: ObservableRecord fields and units.
_OBSERVABLE_UNITS = {
    "mean_x": "length",
    "sd_x": "length",
    "mean_p": "momentum",
    "sd_p": "momentum",
    "uncertainty_product": "action",
    "f_nc": "force",
}


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write the header, then the rows of each block, every float to 17 digits.

    A block is a 2-D array of floats, or a triple ``(head, leads, values)``
    for leading columns that repeat: row k is ``head + leads[k]`` followed by
    the floats of ``values[k]``, where ``head`` and ``leads`` are fields
    already formatted by :func:`_csv_fields`.  Each chunk of rows is written
    by one %-template.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        key = rows = None
        for block in blocks:
            head, leads = "", None
            if isinstance(block, tuple):
                head, leads, block = block
            row = ",".join(["%.17g"] * block.shape[1]) + "\n"
            if leads is not None and (leads, row) != key:
                # Blocks with the same leads and width share these row templates.
                key, rows = (leads, row), [lead + row for lead in leads]
            for start in range(0, len(block), _CSV_CHUNK_ROWS):
                chunk = block[start : start + _CSV_CHUNK_ROWS]
                if leads is None:
                    template = row * len(chunk)
                else:
                    template = head + head.join(rows[start : start + len(chunk)])
                handle.write(template % tuple(chunk.ravel().tolist()))


def _csv_fields(values) -> list[str]:
    """Each float formatted as one leading CSV field, with its comma."""
    return ["%.17g," % value for value in np.asarray(values, dtype=float).tolist()]


def _eps_tag(epsilon: float) -> str:
    return f"{epsilon:g}"


def _seed_positions(config: ExperimentConfig, spec: EnsembleSpec, regime: Regime) -> np.ndarray:
    settings = config.trajectories
    if settings.seeds is not None:
        return np.asarray(settings.seeds, dtype=float)
    if settings.seeding == "uniform":
        return np.linspace(settings.x_lo, settings.x_hi, settings.n_seeds)
    # Born-rule seeding: deterministic quantile midpoints of the t=0 density.
    x = np.linspace(settings.x_lo, settings.x_hi, 4001)
    rho = position_densities([spec], regime, x, 0.0)[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))))
    if not cdf[-1] > 0.0:
        raise ConfigError("trajectories.x_lo", "Born seeding needs t = 0 mass in [x_lo, x_hi]")
    cdf /= cdf[-1]
    quantiles = (np.arange(settings.n_seeds) + 0.5) / settings.n_seeds
    return np.interp(quantiles, cdf, x)


def _density(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    x = config.grid.points()
    times = config.time.points()
    header = ["t [time]", "x [length]"] + [f"density_{spec.kind} [1/length]" for spec in specs]

    def blocks(regime):
        x_fields = _csv_fields(x)
        for t, t_field in zip(times, _csv_fields(times)):
            yield t_field, x_fields, np.column_stack(position_densities(specs, regime, x, t))

    for regime in config.regimes():
        yield f"density_eps{_eps_tag(regime.epsilon)}.csv", header, blocks(regime)


def _trajectories(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    settings = config.trajectories
    regimes = config.regimes()
    seeded = [(s, regime, _seed_positions(config, s, regime)) for regime in regimes for s in specs]
    fans, diagnostics["trajectory_loop"] = trajectory_fans(
        seeded, settings.t_end, settings.dt, record_every=settings.record_every
    )
    times = record_times(settings.t_end, settings.dt, settings.record_every)

    for i, regime in enumerate(regimes):
        tag = _eps_tag(regime.epsilon)
        group = fans[i * len(specs) : (i + 1) * len(specs)]
        header, columns = ["t [time]"], [times]
        for spec, fan in zip(specs, group):
            header += [f"x_{spec.kind}[{tr.initial_position:.6g}] [length]" for tr in fan]
            for trajectory in fan:
                # A stalled trajectory has no samples past its stall: nan there.
                column = np.full(times.size, np.nan)
                column[: trajectory.positions.size] = trajectory.positions
                columns.append(column)
        yield f"trajectories_eps{tag}.csv", header, [np.column_stack(columns)]
        counts = {spec.kind: _integrator_counts(fan) for spec, fan in zip(specs, group)}
        diagnostics.setdefault("integrator", {})[tag] = counts
        diagnostics[f"stalled_eps{tag}"] = {kind: c["stalled_seeds"] for kind, c in counts.items()}


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
        "stalled_seeds": sum(tr.status != "completed" for tr in fan),
    }


def _arrival(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    t_grid = np.linspace(0.0, config.arrival.t_max, config.arrival.n_points)
    header = ["t [time]"] + [f"pdf_{spec.kind} [1/time]" for spec in specs]
    summary = ["epsilon [1]"] + [f"{m}_{s.kind} [time]" for s in specs for m in ("mean_t", "sd_t")]
    summary_rows = []
    tails = diagnostics.setdefault("arrival_tail", {})
    for regime in config.regimes():
        stats = [arrival_distribution(spec, regime, config.detector_x, t_grid) for spec in specs]
        tag = _eps_tag(regime.epsilon)
        tails[tag] = {
            spec.kind: {"tail_fraction": f, "tail_flagged": f > TAIL_FRACTION_FLAG}
            for spec, f in zip(specs, (s.tail_fraction for s in stats))
        }
        yield f"arrival_eps{tag}.csv", header, [np.column_stack([t_grid] + [s.pdf for s in stats])]
        summary_rows.append([regime.epsilon] + [v for s in stats for v in (s.mean_t, s.sd_t)])
    yield "arrival_summary.csv", summary, [np.array(summary_rows)]


def _observables(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    times = config.time.points()
    header = ["t [time]"]
    for spec in specs:
        header += [f"{name}_{spec.kind} [{unit}]" for name, unit in _OBSERVABLE_UNITS.items()]
        header.append(f"heisenberg_margin_{spec.kind} [action]")
    for regime in config.regimes():
        rows = []
        for t in times:
            row = [t]
            for spec in specs:
                record = observable_record(spec, regime, t)
                row += [getattr(record, name) for name in _OBSERVABLE_UNITS]
                row.append(heisenberg_check(record, regime)[1])
            rows.append(row)
        yield f"observables_eps{_eps_tag(regime.epsilon)}.csv", header, [np.array(rows)]


def _wigner(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    settings = config.wigner
    R = np.linspace(settings.x_min, 0.0, settings.n_x)
    u = np.linspace(-settings.u_max, settings.u_max, settings.n_u)
    header = ["t [time]", "R [length]", "u [momentum]"] + [f"w_{s.kind} [1/action]" for s in specs]

    def blocks(regime, work):
        R_fields, u_fields = _csv_fields(R), _csv_fields(u)
        for t, t_field in zip(settings.times, _csv_fields(settings.times)):
            fields = wigner_transforms(specs, regime, t, R, u)
            work["pair_integrals"] += fields[0].pair_integrals
            work["points"] = fields[0].pair_points
            # Row by row, so the fields are never copied whole.
            for R_field, *row in zip(R_fields, *(field.values for field in fields)):
                yield t_field + R_field, u_fields, np.column_stack(row)
            # Release this time's fields (``row`` views them) before the next
            # time's are computed, so only one time's fields are held.
            del fields, row

    for regime in config.regimes():
        work = {"pair_integrals": 0, "points": 0}
        diagnostics.setdefault("wigner", {})[_eps_tag(regime.epsilon)] = work
        yield f"wigner_eps{_eps_tag(regime.epsilon)}.csv", header, blocks(regime, work)


_RUNS = {"density": _density, "trajectories": _trajectories, "arrival": _arrival,
         "observables": _observables, "wigner": _wigner}


def _trace_drift(config: ExperimentConfig, specs: list[EnsembleSpec], regime: Regime) -> dict:
    x = config.grid.points()
    start = position_densities(specs, regime, x, 0.0)
    end = position_densities(specs, regime, x, config.time.t_max)
    drift = {}
    for spec, rho_start, rho_end in zip(specs, start, end):
        trace_end = float(quad_integrate(x, rho_end))
        drift[spec.kind] = {
            "trace_t0": float(quad_integrate(x, rho_start)),
            "trace_t_end": trace_end,
            "support_loss": 1.0 - trace_end,
            "support_loss_flagged": 1.0 - trace_end > SUPPORT_LOSS_FLAG,
        }
    return drift


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run the configured experiment; returns the manifest dictionary.

    Any earlier manifest in the output directory is removed first, and
    partial outputs are removed if any stage fails.
    """
    target = Path(out_dir if out_dir is not None else config.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    # A manifest left by an earlier run would describe outputs that a failure
    # of this one removes.
    (target / "manifest.json").unlink(missing_ok=True)
    started = _time.perf_counter()
    written: list[Path] = []
    diagnostics: dict = {"trace": {}}
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    try:
        for name, header, blocks in _RUNS[config.run_kind](config, specs, diagnostics):
            written.append(target / name)
            _write_csv(written[-1], header, blocks)
        for regime in config.regimes():
            diagnostics["trace"][_eps_tag(regime.epsilon)] = _trace_drift(config, specs, regime)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise

    manifest = {
        "config": config_to_dict(config),
        "outputs": sorted(p.name for p in written),
        "diagnostics": diagnostics,
        "wall_clock_seconds": _time.perf_counter() - started,
    }
    with open(target / "manifest.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest
