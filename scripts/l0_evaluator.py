"""Microseconds per call of the state evaluator (L0) or per trajectory-loop iteration (L1).

    python scripts/l0_evaluator.py [--repeat 200] [--src SRC]
    python scripts/l0_evaluator.py --l1 [--repeat 5] [--src SRC]

Every state evaluation runs through one term kernel,
``qctl.packets.term_fields``.  On the README default packets at epsilon =
0.01 and t = 3, with N positions evenly spread over [-18, -2], for N = 20,
80, 160 and 2048, this times its two callers and the exact mass integral:

- ``stage``: one stage of the trajectory loop, the velocity and density of N
  seeds, one kernel row per packet and seed (``hydrodynamics._Cohort.evaluate``);
- ``coeffs``: the term coefficients of those N seeds at the stage times of
  one step attempt (``hydrodynamics._Cohort.coefficients``), paid once per
  six stages;
- ``flux_and_density``: ``hydrodynamics._flux_and_density`` on the same N
  positions at one time, the kernel broadcast over the positions as the
  current and density fields call it;
- ``mass``: one ``ensembles.mass_below`` call with N Gaussian weights of width
  0.25 centred on the same N positions, as ``fringe_visibility`` smooths a
  block of its samples (it is not a call of the term kernel).

Each number is the median over ``--repeat`` timed batches of the time per
call.

With ``--l1`` the script prints the L1 layer instead: the microseconds of
one iteration of the trajectory loop, ``hydrodynamics.trajectory_fans`` on
one pure fan of N seeds at the midpoints of N equal cells of [-18, -2], for
N = 1, 20 and 160, on the same packets at epsilon = 0.01 from t = 0 to 1
(the node-rich fan; a mixed seed at -10 takes one step to t = 1).  Each
number is the median over ``--repeat`` runs of the run's process time
divided by its ``iterations`` (the longest-running seed's step attempts,
printed too).  Its first row also holds ``csv_ns_per_value``: the first file
of the density run on the same packets (epsilon = 1, the default 2048
positions and 41 times, 167,936 density values), its blocks evaluated first,
written through ``qctl.writers._write_csv`` to a temporary file; the median
over ``--repeat`` writes of the process time per density value (the other
rows print null).  It is timed last, under the malloc settings of the forked
writers that write every density file of a run (glibc's ``mallopt``, as
``qctl.writers._fork_writer`` sets them): with glibc's defaults the
formatter's temporaries of about 200 kB a chunk are unmapped or trimmed and
faulted in again for every chunk, which no writer pays.  A density file's
blocks are 2-D float arrays of density values, its t and x given by its
axes.  The first row also holds the cost of one forked writer against the
parent writing the file itself, on the smallest file of a run,
``arrival_summary.csv`` of the arrival run on the same packets (the
default epsilons, four rows), in wall-clock microseconds, each the median
over ``--repeat`` writes: ``writer_us`` from the fork to the reap of a
writer (``qctl.writers._fork_writer``, its pipe read to its end, then
``os.waitpid``), timed before this process has imported the formatter, as
in a run that forks every file; ``parent_write_us``, ``qctl.writers._write_csv``
of the same file in this process, the first write paying for the
formatter's import.

``--src`` names the ``src`` directory whose ``qctl`` is timed, by default
this repository's, so one copy of the script can time another tree.  The
numbers are timings only: the script checks nothing and always exits 0 once
it has run.
"""

import argparse
import ctypes
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

POINTS = (20, 80, 160, 2048)
T = 3.0
# Seeds of the L1 fans, and the end of their run.
L1_SEEDS = (1, 20, 160)
L1_T_END = 1.0
# The exponent factor of a Gaussian of width 0.25, fringe_visibility's default sigma_obs.
SMOOTHING = -0.5 / 0.25**2


def _per_call_us(call, repeat: int) -> float:
    """Median microseconds per call over ``repeat`` batches of about 1 ms."""
    start = time.perf_counter()
    call()
    number = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return 1e6 * statistics.median(samples)


def _writer_us(a, b, repeat: int) -> tuple[float, float]:
    """Wall microseconds of the arrival summary CSV by a forked writer, and written in-process."""
    from qctl import parse_config
    from qctl.runner import _arrival
    from qctl.writers import _fork_writer, _write_csv

    packets = {name: {"x0": p.x0, "p0": p.p0} for name, p in (("a", a), ("b", b))}
    config = parse_config(json.dumps({"run": "arrival", "packets": packets}))
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    *_, (name, *file) = _arrival(config, specs, {})
    forked, written = [], []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        for _ in range(repeat):
            start = time.perf_counter()
            pid, pipe = _fork_writer(path, *file)
            with open(pipe, "rb") as handle:
                handle.read()
            os.waitpid(pid, 0)
            forked.append(time.perf_counter() - start)
        for _ in range(repeat):
            start = time.perf_counter()
            _write_csv(path, *file)
            written.append(time.perf_counter() - start)
    return 1e6 * statistics.median(forked), 1e6 * statistics.median(written)


def _csv_ns_per_value(a, b, repeat: int) -> float:
    """Process-time nanoseconds per density value of the first density CSV, formatting only."""
    from qctl import parse_config
    from qctl.runner import _density
    from qctl.writers import _write_csv

    packets = {name: {"x0": p.x0, "p0": p.p0} for name, p in (("a", a), ("b", b))}
    config = parse_config(json.dumps({"run": "density", "packets": packets}))
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    _, *file = next(_density(config, specs, {}))
    blocks = list(file.pop())
    values = sum(block.size for block in blocks)
    samples = []
    with tempfile.TemporaryDirectory() as scratch:
        for _ in range(repeat):
            start = time.process_time()
            _write_csv(Path(scratch) / "density.csv", *file, blocks)
            samples.append((time.process_time() - start) / values)
    return 1e9 * statistics.median(samples)


def _l1(spec, regime, repeat: int) -> None:
    """Print the L1 table: microseconds of process time per trajectory-loop iteration."""
    from qctl.hydrodynamics import trajectory_fans

    # Before the formatter is imported here, so that each writer imports it.
    writer, parent_write = _writer_us(spec.packet_a, spec.packet_b, repeat)
    loops = []
    for n in L1_SEEDS:
        seeds = -18.0 + 16.0 * (np.arange(n) + 0.5) / n
        samples = []
        for _ in range(repeat):
            start = time.process_time()
            loop = trajectory_fans([(spec, regime, seeds)], L1_T_END, 1e-2)[1]
            samples.append((time.process_time() - start) / loop["iterations"])
        loops.append((n, loop["iterations"], 1e6 * statistics.median(samples)))
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    csv = _csv_ns_per_value(spec.packet_a, spec.packet_b, repeat)
    header = (("kind", 6), ("seeds", 6), ("iterations", 10), ("loop_us", 10), ("csv_ns_per_value", 17),
              ("writer_us", 10), ("parent_write_us", 16))
    print(*(name.rjust(width) for name, width in header))
    for n, iterations, us in loops:
        cells = [f"{csv:.1f}", f"{writer:.1f}", f"{parent_write:.1f}"] if n == L1_SEEDS[0] else ["null"] * 3
        print(f"{spec.kind:>6} {n:>6} {iterations:>10} {us:>10.1f} {cells[0]:>17} {cells[1]:>10} {cells[2]:>16}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed batches per number (default 200), or runs with --l1 (default 5)")
    parser.add_argument("--l1", action="store_true", help="time trajectory-loop iterations instead")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose qctl is timed")
    args = parser.parse_args(argv)
    repeat = args.repeat or (5 if args.l1 else 200)
    sys.path.insert(0, str(args.src.resolve()))
    from qctl import EnsembleSpec, GaussianPacket, make_regime
    from qctl.ensembles import mass_below
    from qctl.hydrodynamics import _NODES, _Cohort, _flux_and_density

    regime = make_regime(0.01)
    a = GaussianPacket(x0=-5.0, p0=-2.0)
    b = GaussianPacket(x0=-15.0, p0=2.0)
    if args.l1:
        _l1(EnsembleSpec("pure", a, b), regime, repeat)
        return 0
    header = (("kind", 6), ("points", 6), ("stage_us", 10), ("coeffs_us", 10),
              ("flux_and_density_us", 20), ("mass_us", 10))
    print(*(name.rjust(width) for name, width in header))
    for kind in ("pure", "mixed"):
        spec = EnsembleSpec(kind, a, b)
        for n in POINTS:
            x = np.linspace(-18.0, -2.0, n)
            cohort = _Cohort([(spec, regime, x)])
            stage_times = T + _NODES * np.full(n, 0.01)
            coefficients = cohort.coefficients(stage_times)
            stage = _per_call_us(lambda: cohort.evaluate(coefficients, 0, x), repeat)
            coeffs = _per_call_us(lambda: cohort.coefficients(stage_times), repeat)
            fields = _per_call_us(lambda: _flux_and_density(spec, regime, x, T), repeat)
            weight = (SMOOTHING, -2.0 * SMOOTHING * x, SMOOTHING * x * x)
            mass = _per_call_us(lambda: mass_below(spec, regime, T, 0.0, *weight), repeat)
            print(f"{kind:>6} {n:>6} {stage:>10.1f} {coeffs:>10.1f} {fields:>20.1f} {mass:>10.1f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
