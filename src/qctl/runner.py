"""Experiment orchestration: one CSV per (run kind, epsilon) plus a manifest.

Each run kind is a generator ``(config, specs, diagnostics)`` over the
regimes, ``specs`` being the pure and the mixed ensemble, that yields ``(file
name, header, blocks)`` for every CSV.  It records its diagnostics in its own
body, never while ``blocks`` is consumed, since that happens in another
process.  Every block is one form, ``(head, rows, values)``: leading fields,
one row template per row, and the floats that fill them (:func:`_write_csv`).

:func:`run_experiment` alone writes the CSVs, one forked writer per CSV
(``os.fork``).  The parent iterates the generator; for each file a child
evaluates the blocks, formats the rows and exits.  At most as many writers
run at once as the process has CPUs (``os.sched_getaffinity``), while the
parent takes the next file.  The parent reaps every writer before it writes
the manifest, which records each writer's CPU seconds and peak RSS under
``writers``.  A failing writer sends its exception through a pipe, and the
parent raises it with the writer's class and message (a RuntimeError with
the writer's traceback if it cannot be rebuilt).  The run raises what one
process writing the files in order would: the failure of the earliest file
that fails, else the parent's own.  So on a failure the parent forks no
more, kills and reaps the writers of later files, lets those of earlier
files finish, removes every CSV of the run and raises.  Any other exit, such
as KeyboardInterrupt or the SystemExit that the CLI raises on SIGTERM,
kills and reaps every writer at once.  This is POSIX-only: it needs
``os.fork``, and ``os.sched_getaffinity``, which Linux has.

Outputs are deterministic: fixed evaluation and summation order, 17
significant digits, LF line endings, and no run-time data inside CSV bodies.
The manifest echoes the configuration, the wall clock and the diagnostics.
Mass lost beyond the density grid and arrival current cut off by the time
window bias those outputs, so both are flagged there, not rejected.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import time as _time
import traceback
from collections import Counter
from pathlib import Path
from signal import SIGKILL

import numpy as np

from .arrival import arrival_distribution
from .config import ExperimentConfig, config_to_dict
from .ensembles import EnsembleSpec, mass_below, point_blocks, position_densities
from .errors import ConfigError, NumericalGuardError
from .hydrodynamics import STATUS_NON_FINITE, record_times, trajectory_fans
from .observables import heisenberg_check, observable_record
from .phase_space import wigner_transforms, wigner_work
from .regime import Regime, epsilon_tag

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

    A block is a triple ``(head, rows, values)``: row k is ``head + rows[k]``
    with the floats of ``values[k]``, a 2-D array, in its fields.  ``head`` is
    leading fields of :func:`_csv_fields`, or empty, and ``rows`` are templates
    of :func:`_csv_rows` or :func:`_plain`.  Each chunk of rows is written by
    one %-template.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for head, rows, values in blocks:
            for start in range(0, len(values), _CSV_CHUNK_ROWS):
                chunk = values[start : start + _CSV_CHUNK_ROWS]
                template = head + head.join(rows[start : start + len(chunk)])
                handle.write(template % tuple(chunk.ravel().tolist()))


def _plain(values: np.ndarray) -> tuple:
    """The 2-D ``values`` as a block with no leading fields; its rows share one template."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return "", [row] * len(values), values


def _csv_fields(values) -> list[str]:
    """Each float formatted as one leading CSV field, with its comma."""
    return ["%.17g," % value for value in np.asarray(values, dtype=float).tolist()]


def _csv_rows(leads, width: int) -> list[str]:
    """A row template per float of ``leads``: that float as a leading field,
    then ``width`` float fields to fill.

    Built once, they serve every block that repeats these leads.
    """
    row = ",".join(["%.17g"] * width) + "\n"
    return ["%.17g,%s" % (lead, row) for lead in np.asarray(leads, dtype=float).tolist()]


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
    x_rows = _csv_rows(x, len(specs))

    def blocks(regime):
        # Each time's rows a block of positions at a time, written as they are
        # evaluated, so only one block's fields are held.
        for t, t_field in zip(times, _csv_fields(times)):
            for block in point_blocks(x.size):
                values = position_densities(specs, regime, x[block], t)
                yield t_field, x_rows[block], np.column_stack(values)

    for regime in config.regimes():
        yield f"density_eps{epsilon_tag(regime.epsilon)}.csv", header, blocks(regime)


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
    fans, diagnostics["trajectory_loop"] = trajectory_fans(
        seeded, settings.t_end, settings.dt, record_every=settings.record_every
    )
    for (spec, regime, _), fan in zip(seeded, fans):
        broken = sum(tr.status == STATUS_NON_FINITE for tr in fan)
        if broken:
            raise NumericalGuardError(f"{broken} {spec.kind} seeds at epsilon {regime.epsilon:g} "
                                      "stalled on a density or step that is not finite")
    times = record_times(settings.t_end, settings.dt, settings.record_every)

    for i, regime in enumerate(regimes):
        tag = epsilon_tag(regime.epsilon)
        group = fans[i * len(specs) : (i + 1) * len(specs)]
        header = ["t [time]"] + [f"x_{spec.kind}[{_seed_name(tr.initial_position)}] [length]"
                                 for spec, fan in zip(specs, group) for tr in fan]
        # One block, filled in place; a stalled trajectory has no samples past
        # its stall, so nan stays there.
        block = np.full((times.size, len(header)), np.nan)
        block[:, 0] = times
        for column, trajectory in enumerate((tr for fan in group for tr in fan), start=1):
            block[: trajectory.positions.size, column] = trajectory.positions
        yield f"trajectories_eps{tag}.csv", header, [_plain(block)]
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
        tag = epsilon_tag(regime.epsilon)
        tails[tag] = {
            spec.kind: {"tail_fraction": f, "tail_flagged": f > TAIL_FRACTION_FLAG}
            for spec, f in zip(specs, (s.tail_fraction for s in stats))
        }
        pdfs = np.column_stack([t_grid] + [s.pdf for s in stats])
        yield f"arrival_eps{tag}.csv", header, [_plain(pdfs)]
        summary_rows.append([regime.epsilon] + [v for s in stats for v in (s.mean_t, s.sd_t)])
    yield "arrival_summary.csv", summary, [_plain(np.array(summary_rows))]


def _observables(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    times = config.time.points()
    header = ["t [time]"]
    for spec in specs:
        header += [f"{name}_{spec.kind} [{unit}]" for name, unit in _OBSERVABLE_UNITS.items()]
        header.append(f"heisenberg_margin_{spec.kind} [action]")

    def blocks(regime):
        for block in point_blocks(times.size):
            columns = [times[block]]
            for spec in specs:
                record = observable_record(spec, regime, times[block])
                columns += [getattr(record, name) for name in _OBSERVABLE_UNITS]
                columns.append(heisenberg_check(record, regime)[1])
            yield _plain(np.column_stack(columns))

    for regime in config.regimes():
        yield f"observables_eps{epsilon_tag(regime.epsilon)}.csv", header, blocks(regime)


def _wigner(config: ExperimentConfig, specs: list[EnsembleSpec], diagnostics: dict):
    settings = config.wigner
    R = np.linspace(settings.x_min, 0.0, settings.n_x)
    u = np.linspace(-settings.u_max, settings.u_max, settings.n_u)
    header = ["t [time]", "R [length]", "u [momentum]"] + [f"w_{s.kind} [1/action]" for s in specs]

    def blocks(regime):
        R_fields, u_rows = _csv_fields(R), _csv_rows(u, len(specs))
        for t, t_field in zip(settings.times, _csv_fields(settings.times)):
            fields = wigner_transforms(specs, regime, t, R, u)
            # Row by row, so the fields are never copied whole.
            for R_field, *row in zip(R_fields, *(field.values for field in fields)):
                yield t_field + R_field, u_rows, np.column_stack(row)
            # Release this time's fields (``row`` views them) before the next
            # time's are computed, so only one time's fields are held.
            del fields, row

    for regime in config.regimes():
        pair_integrals, points = wigner_work(specs, regime, R, u)
        work = {"pair_integrals": pair_integrals * len(settings.times), "points": points}
        diagnostics.setdefault("wigner", {})[epsilon_tag(regime.epsilon)] = work
        yield f"wigner_eps{epsilon_tag(regime.epsilon)}.csv", header, blocks(regime)


_RUNS = {"density": _density, "trajectories": _trajectories, "arrival": _arrival,
         "observables": _observables, "wigner": _wigner}


def _fork_writer(path: Path, header: list[str], blocks) -> tuple[int, int]:
    """Fork a child that writes ``path`` from ``blocks`` and exits.

    Returns the child's pid and the read end of a pipe.  On success the child
    closes the pipe unused.  On failure it sends its traceback text and its
    exception, pickled (None if the exception cannot be), and exits 1.
    """
    pipe, child_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(pipe)
        os.close(child_end)
        raise
    if pid:
        os.close(child_end)
        return pid, pipe
    status = 1
    try:
        os.close(pipe)
        _write_csv(path, header, blocks)
        status = 0
    except BaseException as exc:
        try:
            raised = pickle.dumps(exc)
        except Exception:
            raised = None
        with open(child_end, "wb") as handle:
            handle.write(pickle.dumps((traceback.format_exc(), raised)))
    finally:
        # The child never returns into the caller's code, nor runs its exit handlers.
        os._exit(status)


def _writer_failure(name: str, status: int, payload: bytes) -> BaseException:
    """The exception that the writer of ``name`` sent, its traceback text as the cause.

    An exception that cannot be rebuilt, or a writer that ended without
    sending one whole, gives a RuntimeError.
    """
    try:
        text, raised = pickle.loads(payload)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        return RuntimeError(f"the writer of {name} exited with code {code}")
    try:
        exc = pickle.loads(raised)
    except Exception:
        return RuntimeError(f"the writer of {name} failed:\n{text}")
    exc.__cause__ = RuntimeError(f"in the writer of {name}:\n{text}")
    return exc


class _Writers:
    """The forked CSV writers of one run, at most one per available CPU at a time."""

    def __init__(self):
        self.slots = len(os.sched_getaffinity(0))
        # The CSVs of the writers forked, in order.
        self.paths: list[Path] = []
        # Read end of each running writer's pipe -> its file's index, its pid,
        # CSV name and bytes read.
        self.running: dict[int, tuple[int, int, str, bytearray]] = {}
        # CSV name -> CPU seconds and peak RSS of its writer, once reaped.
        self.usage: dict[str, dict | None] = {}
        # The index of the earliest file whose writer failed, and its failure.
        self.failure: tuple[int, BaseException] | None = None

    def start(self, path: Path, header: list[str], blocks) -> None:
        """Fork the writer of ``path`` once a CPU is free; raise an earlier writer's failure."""
        while len(self.running) >= self.slots:
            self._wait()
        if self.failure is not None:
            self.join()
        pid, pipe = _fork_writer(path, header, blocks)
        self.running[pipe] = len(self.paths), pid, path.name, bytearray()
        self.paths.append(path)
        self.usage[path.name] = None

    def join(self) -> None:
        """Reap every writer; raise the failure of the earliest file that failed."""
        while self.running:
            self._wait()
        if self.failure is not None:
            raise self.failure[1]

    def kill(self, after: int = -1) -> None:
        """Kill and reap the running writers of the files after index ``after``."""
        for pipe, (index, pid, _, _) in list(self.running.items()):
            if index > after:
                os.kill(pid, SIGKILL)
                del self.running[pipe]
                os.close(pipe)
                os.waitpid(pid, 0)

    def _wait(self) -> None:
        """Read one pipe that is ready; at its end of file, reap its writer.

        Each pipe is read to its end before its writer is waited for, so a
        failure larger than the pipe's buffer cannot block the writer's exit.
        A failure is kept if its file is the earliest yet to fail, and the
        writers of later files are killed: one process writing the files in
        order would not have reached them.
        """
        poller = select.poll()
        for pipe in self.running:
            poller.register(pipe, select.POLLIN)
        pipe = poller.poll()[0][0]
        chunk = os.read(pipe, 1 << 16)
        if chunk:
            self.running[pipe][3].extend(chunk)
            return
        index, pid, name, payload = self.running.pop(pipe)
        os.close(pipe)
        _, status, usage = os.wait4(pid, 0)
        self.usage[name] = {"cpu_s": usage.ru_utime + usage.ru_stime,
                            "peak_rss_mb": usage.ru_maxrss / 1024}  # Linux: kB
        if status and (self.failure is None or index < self.failure[0]):
            self.failure = index, _writer_failure(name, status, bytes(payload))
            self.kill(after=index)


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
    writers = _Writers()
    try:
        try:
            for name, header, blocks in _RUNS[config.run_kind](config, specs, diagnostics):
                writers.start(target / name, header, blocks)
        except Exception:
            # An earlier file's failure comes first, as it would in one process.
            writers.join()
            raise
        writers.join()
        for regime in config.regimes():
            diagnostics["trace"][epsilon_tag(regime.epsilon)] = _trace_drift(config, specs, regime)
    except BaseException:
        # No writer may outlive the run, nor write after its CSVs are removed.
        writers.kill()
        for path in writers.paths:
            path.unlink(missing_ok=True)
        raise

    manifest = {
        "config": config_to_dict(config),
        "outputs": sorted(p.name for p in writers.paths),
        "diagnostics": diagnostics,
        "writers": writers.usage,
        "wall_clock_seconds": _time.perf_counter() - started,
    }
    with open(target / "manifest.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest
