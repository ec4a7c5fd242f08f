"""Benchmark of the qctl CLI: three workloads, each round in a fresh process.

    python3 perfbench/run.py --workload {trajectories,wigner,fields,all}
        [--seed 1] [--seconds 20] [--trace 0|1]

Run from the root of a qctl source tree.  A round starts ``worker.py``, which
imports ``qctl``, loads the generated config and calls ``qctl.cli.main`` for
each run kind of the workload.  Every CSV of the first round is checked
against the oracles; later rounds must be byte-identical to it.

``--trace 0`` runs rounds until ``--seconds`` would be exceeded (at least
one) and reports the median ``run_s`` (config loaded to last manifest
written), ``setup_s`` (process start to config loaded, over every round and
five extra set-up-only processes) and ``peak_rss_mb``.  ``--trace 1`` runs one
untraced and one traced round, requires their CSVs to be byte-identical and
reports the per-layer metrics of the traced one.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170.0
# One BLAS thread, within nproc (2 on the reference machine).
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, workdir: Path):
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.config = workloads.make_config(workload, seed)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.checks = dict(checks.operations(workloads.run_kinds(workload), self.config))
        self.reference: dict[str, str] = {}  # op -> digest of its first checked output
        self.verified: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.n_rounds = 0

    def spawn(self, tag: str, kinds=(), out: Path | None = None, spans: Path | None = None) -> dict:
        result = self.workdir / f"{tag}.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--src",
            str(self.root / "src"),
            "--config",
            str(self.config_path),
            "--result",
            str(result),
        ]
        if kinds:
            cmd += ["--kinds", ",".join(kinds), "--out", str(out)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, **THREADS)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker {tag} timed out after {WORKER_TIMEOUT_S:g} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{err.decode(errors='replace')}")
        data = json.loads(result.read_text(encoding="utf-8"))
        data["setup_s"] = data["t_loaded"] - t_spawn
        data["run_s"] = data["t_done"] - data["t_loaded"]
        data["stderr"] = err.decode(errors="replace")
        return data

    def round(self, traced: bool = False) -> tuple[dict, Path]:
        """One round: run the CLI, check or compare every CSV, count operations."""
        k = self.n_rounds
        self.n_rounds += 1
        out = self.workdir / f"round{k}"
        out.mkdir()
        spans = self.workdir / f"spans{k}.npz" if traced else None
        kinds = workloads.run_kinds(self.workload)
        data = self.spawn(f"round{k}", kinds, out, spans)
        data["spans"] = spans
        for op, check in self.checks.items():
            self.attempted += 1
            path = out / op
            exit_code = data["exit_codes"].get(op.split("_", 1)[0])
            if exit_code != 0 or not path.is_file():
                self.failed += 1
                _report(f"FAIL {op}: CLI exit {exit_code}\n{data['stderr']}")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if op not in self.reference:
                self.reference[op] = digest
                self.verified[op], detail = checks.run_check(check, self.config, path)
                print(f"{'ok  ' if self.verified[op] else 'FAIL'} {op}: {detail}")
            elif digest != self.reference[op]:
                _report(f"FAIL {op}: round {k} is not byte-identical to the first")
            if not (self.verified[op] and digest == self.reference[op]):
                self.failed += 1
                self.wrong += 1
        return data, out


def _report(message: str) -> None:
    print(message, file=sys.stderr)


def csv_counts(out: Path) -> tuple[int, int]:
    """Total bytes and number of values in the CSVs of one round."""
    n_bytes = n_values = 0
    for path in sorted(out.glob("*.csv")):
        raw = path.read_bytes()
        n_bytes += len(raw)
        header, _, body = raw.partition(b"\n")
        n_values += body.count(b"\n") * (header.count(b",") + 1)
    return n_bytes, n_values


def trajectory_samples(out: Path) -> int:
    """Seeds times recorded samples over the trajectory CSVs."""
    total = 0
    for path in out.glob("trajectories_*.csv"):
        header, _, body = path.read_bytes().partition(b"\n")
        total += body.count(b"\n") * header.count(b",")
    return total


def stalled_seeds(out: Path) -> int:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stalls = [v for k, v in manifest["diagnostics"].items() if k.startswith("stalled_")]
    return sum(sum(per_kind.values()) for per_kind in stalls)


def measure(bench: Bench, seconds: float) -> dict:
    t_begin = time.monotonic()
    bench.spawn("warmup")  # fills the page cache and writes bytecode
    setups = [bench.spawn(f"probe{i}")["setup_s"] for i in range(SETUP_PROBES)]
    runs, rss = [], []
    while True:
        t_round = time.monotonic()
        data, out = bench.round()
        shutil.rmtree(out)
        setups.append(data["setup_s"])
        runs.append(data["run_s"])
        rss.append(data["peak_rss_mb"])
        now = time.monotonic()
        if now - t_begin + (now - t_round) > seconds:
            break
    print(f"{bench.n_rounds} rounds, {len(setups)} set-ups")
    return {
        "run_s": {"value": statistics.median(runs), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def trace(bench: Bench) -> dict:
    plain, plain_out = bench.round()
    traced, traced_out = bench.round(traced=True)
    n_bytes, n_values = csv_counts(plain_out)
    extras = {
        "ensembles.norm_constant_misses": traced["norm_constant_misses"],
        "hydrodynamics.stalled_seeds": stalled_seeds(traced_out),
        "trajectory_samples": trajectory_samples(plain_out),
        "runner.csv_bytes": n_bytes,
        "runner.csv_values": n_values,
        "cli.import_s": traced["t_imported"] - traced["t_import"],
        "trace.overhead_s": traced["run_s"] - plain["run_s"],
    }
    metrics = layers.layer_metrics(traced["spans"], extras)
    print(f"run_s untraced {plain['run_s']:.3f} s, traced {traced['run_s']:.3f} s")
    return metrics


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    base = HERE / "out"
    base.mkdir(exist_ok=True)
    workdir = base / f"{workload}-seed{seed}-trace{int(traced)}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(root, workload, seed, workdir)
        metrics = trace(bench) if traced else measure(bench, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload}: {bench.attempted} operations attempted, {bench.failed} failed")
    return {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that workers are killed and scratch files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "qctl" / "cli.py").is_file():
        _report(f"no qctl source tree at {root / 'src'}; run from the repository root")
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except RuntimeError as exc:
        _report(str(exc))
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
