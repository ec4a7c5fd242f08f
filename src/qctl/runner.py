"""Experiment orchestration: one CSV per (run kind, epsilon) plus a manifest.

Outputs are deterministic: fixed evaluation and summation order, 17
significant digits, LF line endings, and no run-time data inside CSV bodies.
The manifest echoes the configuration and records the wall clock and the
diagnostics.  Mass lost beyond the density grid and arrival current cut off
by the time window bias those outputs, so both are flagged there, not
rejected.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path

import numpy as np

from .arrival import arrival_distribution
from .config import ExperimentConfig, config_to_dict
from .ensembles import EnsembleSpec, position_densities, position_density
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
    rho = np.asarray(position_density(spec, regime, x, 0.0))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))))
    cdf /= cdf[-1]
    quantiles = (np.arange(settings.n_seeds) + 0.5) / settings.n_seeds
    return np.interp(quantiles, cdf, x)


def _run_density(
    config: ExperimentConfig, regime: Regime, out_dir: Path, written: list[Path]
) -> None:
    x = config.grid.points()
    times = config.time.points()
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    path = out_dir / f"density_eps{_eps_tag(regime.epsilon)}.csv"
    written.append(path)

    def blocks():
        x_fields = _csv_fields(x)
        for t, t_field in zip(times, _csv_fields(times)):
            yield t_field, x_fields, np.column_stack(position_densities(specs, regime, x, t))

    _write_csv(
        path,
        ["t [time]", "x [length]", "density_pure [1/length]", "density_mixed [1/length]"],
        blocks(),
    )


def _run_trajectories(
    config: ExperimentConfig, out_dir: Path, written: list[Path], diagnostics: dict
) -> None:
    settings = config.trajectories
    regimes = config.regimes()
    specs = [(config.ensemble(kind), regime) for regime in regimes for kind in ("pure", "mixed")]
    seeded = [(spec, regime, _seed_positions(config, spec, regime)) for spec, regime in specs]
    fans, diagnostics["trajectory_loop"] = trajectory_fans(
        seeded, settings.t_end, settings.dt, record_every=settings.record_every
    )
    times = record_times(settings.t_end, settings.dt, settings.record_every)

    for regime, pair in zip(regimes, zip(fans[::2], fans[1::2])):
        tag = _eps_tag(regime.epsilon)
        path = out_dir / f"trajectories_eps{tag}.csv"
        written.append(path)
        header, columns = ["t [time]"], [times]
        for kind, fan in zip(("pure", "mixed"), pair):
            header += [f"x_{kind}[{tr.initial_position:.6g}] [length]" for tr in fan]
            for trajectory in fan:
                # A stalled trajectory has no samples past its stall: nan there.
                column = np.full(times.size, np.nan)
                column[: trajectory.positions.size] = trajectory.positions
                columns.append(column)

        _write_csv(path, header, [np.column_stack(columns)])
        counts = {kind: _integrator_counts(fan) for kind, fan in zip(("pure", "mixed"), pair)}
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


def _run_arrival(
    config: ExperimentConfig, out_dir: Path, written: list[Path], diagnostics: dict
) -> None:
    t_grid = np.linspace(0.0, config.arrival.t_max, config.arrival.n_points)
    summary_rows = []
    tails = diagnostics.setdefault("arrival_tail", {})
    for regime in config.regimes():
        eps = regime.epsilon
        stats = {
            kind: arrival_distribution(
                config.ensemble(kind), regime, config.detector_x, t_grid
            )
            for kind in ("pure", "mixed")
        }
        tails[_eps_tag(eps)] = {
            kind: {
                "tail_fraction": s.tail_fraction,
                "tail_flagged": s.tail_fraction > TAIL_FRACTION_FLAG,
            }
            for kind, s in stats.items()
        }
        path = out_dir / f"arrival_eps{_eps_tag(eps)}.csv"
        written.append(path)
        _write_csv(
            path,
            ["t [time]", "pdf_pure [1/time]", "pdf_mixed [1/time]"],
            [np.column_stack((t_grid, stats["pure"].pdf, stats["mixed"].pdf))],
        )
        summary_rows.append(
            (
                eps,
                stats["pure"].mean_t,
                stats["pure"].sd_t,
                stats["mixed"].mean_t,
                stats["mixed"].sd_t,
            )
        )
    summary = out_dir / "arrival_summary.csv"
    written.append(summary)
    _write_csv(
        summary,
        [
            "epsilon [1]",
            "mean_t_pure [time]",
            "sd_t_pure [time]",
            "mean_t_mixed [time]",
            "sd_t_mixed [time]",
        ],
        [np.array(summary_rows)],
    )


def _run_observables(
    config: ExperimentConfig, regime: Regime, out_dir: Path, written: list[Path]
) -> None:
    times = config.time.points()
    path = out_dir / f"observables_eps{_eps_tag(regime.epsilon)}.csv"
    written.append(path)
    header = ["t [time]"]
    for kind in ("pure", "mixed"):
        header += [f"{name}_{kind} [{unit}]" for name, unit in _OBSERVABLE_UNITS.items()]
        header.append(f"heisenberg_margin_{kind} [action]")

    rows = []
    for t in times:
        row = [t]
        for kind in ("pure", "mixed"):
            record = observable_record(config.ensemble(kind), regime, t)
            row += [getattr(record, name) for name in _OBSERVABLE_UNITS]
            row.append(heisenberg_check(record, regime)[1])
        rows.append(row)

    _write_csv(path, header, [np.array(rows)])


def _run_wigner(
    config: ExperimentConfig, regime: Regime, out_dir: Path, written: list[Path], diagnostics: dict
) -> None:
    settings = config.wigner
    R = np.linspace(settings.x_min, 0.0, settings.n_x)
    u = np.linspace(-settings.u_max, settings.u_max, settings.n_u)
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    path = out_dir / f"wigner_eps{_eps_tag(regime.epsilon)}.csv"
    written.append(path)
    work = {"pair_integrals": 0, "points": 0}
    diagnostics.setdefault("wigner", {})[_eps_tag(regime.epsilon)] = work

    def blocks():
        R_fields, u_fields = _csv_fields(R), _csv_fields(u)
        for t, t_field in zip(settings.times, _csv_fields(settings.times)):
            pure, mixed = wigner_transforms(specs, regime, t, R, u)
            work["pair_integrals"] += pure.pair_integrals
            work["points"] = pure.pair_points
            # Row by row, so the fields are never copied whole.
            for R_field, *row in zip(R_fields, pure.values, mixed.values):
                yield t_field + R_field, u_fields, np.column_stack(row)
            # Release this time's fields (``row`` views them) before the next
            # time's are computed, so only one time's fields are held.
            del pure, mixed, row

    _write_csv(
        path,
        [
            "t [time]",
            "R [length]",
            "u [momentum]",
            "w_pure [1/action]",
            "w_mixed [1/action]",
        ],
        blocks(),
    )


def _trace_drift(config: ExperimentConfig, regime: Regime) -> dict:
    x = config.grid.points()
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    start = position_densities(specs, regime, x, 0.0)
    end = position_densities(specs, regime, x, config.time.t_max)
    drift = {}
    for kind, rho_start, rho_end in zip(("pure", "mixed"), start, end):
        trace_start = float(quad_integrate(x, rho_start))
        trace_end = float(quad_integrate(x, rho_end))
        drift[kind] = {
            "trace_t0": trace_start,
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
    regimes = config.regimes()
    try:
        if config.run_kind == "arrival":
            _run_arrival(config, target, written, diagnostics)
        elif config.run_kind == "trajectories":
            _run_trajectories(config, target, written, diagnostics)
        else:
            for regime in regimes:
                if config.run_kind == "density":
                    _run_density(config, regime, target, written)
                elif config.run_kind == "observables":
                    _run_observables(config, regime, target, written)
                elif config.run_kind == "wigner":
                    _run_wigner(config, regime, target, written, diagnostics)
        for regime in regimes:
            diagnostics["trace"][_eps_tag(regime.epsilon)] = _trace_drift(config, regime)
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
