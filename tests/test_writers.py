"""The CSV writers of a run (``qctl.writers``): forking, reaping, failures and cleanup."""

import contextlib
import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qctl
import qctl.runner as runner
import qctl.writers as writers
from qctl import NumericalGuardError, errors, parse_config, run_experiment
from qctl.cli import main
from qctl.config import RUN_KINDS
from test_runner import raise_after, read_table, small_config


def test_csv_cached_leading_fields_match_the_plain_template(tmp_path, monkeypatch):
    import qctl.csvtext as csvtext

    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    t = np.array([0.0, -0.0, 7.0, np.nan])
    x = np.concatenate((special, np.linspace(-3.0, 3.0, 70)))
    values = np.random.default_rng(3).normal(size=(t.size, x.size, 2))
    values[0, : len(special)] = np.array(special)[:, None]
    values[1, : len(special), 1] = special[::-1]
    header = ["t", "x", "a", "b"]
    # Chunks of 16 values, so that every block spans several chunks.
    monkeypatch.setattr(csvtext, "CHUNK_VALUES", 16)

    def plain():
        # Every row in one block.
        yield values.reshape(-1, 2)

    def cached():
        # Each time's rows in two blocks, the second starting inside a chunk.
        for block in values:
            yield block[:37]
            yield block[37:]

    writers._write_csv(tmp_path / "plain.csv", header, (t, x), plain())
    writers._write_csv(tmp_path / "cached.csv", header, (t, x), cached())
    # The bytes of CPython's %-template.
    rows = "".join("%.17g,%.17g,%.17g,%.17g\n" % (t_k, x_i, *values[k, i])
                   for k, t_k in enumerate(t.tolist()) for i, x_i in enumerate(x.tolist()))
    expected = ("t,x,a,b\n" + rows).encode()
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes() == expected
    assert b"\nnan,inf," in expected

    # A (t, R, u) grid of 4 x 4 x 7 rows, its blocks ending mid-u-row and
    # inside a chunk of 8 rows, one of them spanning two times.
    R = np.array([-2.5, -0.0, 1e-300, 0.1])
    u = np.concatenate(([np.inf, -5e-324], np.linspace(-1.0, 1.0, 5)))
    w = np.random.default_rng(4).normal(size=(t.size * R.size * u.size, 2))
    w[:3, 0] = [np.nan, -np.inf, 0.0]
    cuts = [0, 5, 13, 27, 50, 111, len(w)]
    blocks = [w[start:stop] for start, stop in zip(cuts, cuts[1:])]
    writers._write_csv(tmp_path / "wigner.csv", ["t", "R", "u", "a", "b"], (t, R, u), blocks)
    points = [(t_k, R_j, u_i) for t_k in t.tolist() for R_j in R.tolist() for u_i in u.tolist()]
    rows = "".join("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (*point, *w[row])
                   for row, point in enumerate(points))
    assert (tmp_path / "wigner.csv").read_bytes() == ("t,R,u,a,b\n" + rows).encode()


def test_wigner_run_table(tmp_path, monkeypatch):
    config = parse_config(json.dumps(small_config("wigner", epsilons=[1.0])))
    # The writer that integrates the pairs counts them, forked or not: one
    # time, the 10 distinct term pairs of both kinds, on the 40 rows R < 0.
    for fork_fields in (0, 10**12):
        monkeypatch.setattr(writers, "_FORK_FIELDS", fork_fields)
        manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
        assert manifest["writers"]["wigner_eps1.csv"]["forked"] == (fork_fields == 0)
        assert manifest["diagnostics"]["wigner"] == {"1": {"pair_integrals": 10, "points": 40 * 41}}
    header, table = read_table(tmp_path / "wigner_eps1.csv")
    assert header == [
        "t [time]",
        "R [length]",
        "u [momentum]",
        "w_pure [1/action]",
        "w_mixed [1/action]",
    ]
    assert table.shape == (41 * 41, 5)
    total = np.sum(table[:, 3]) * (25.0 / 40) * (12.0 / 40)
    assert total == pytest.approx(1.0, abs=5e-3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_writer_outlives_the_run(tmp_path, monkeypatch):
    # After a run, and after a run whose first writer fails while the second
    # would sleep for a minute: that one is killed, not waited for.
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    manifest = run_experiment(config)
    assert_no_child_left()
    assert sorted(manifest["writers"]) == manifest["outputs"]
    for usage in manifest["writers"].values():
        assert usage["cpu_s"] >= 0.0 and usage["peak_rss_mb"] > 0.0

    def sleeper(blocks):
        time.sleep(60.0)
        yield from blocks

    def first_fails(config, specs, diagnostics):
        files = runner._density(config, specs, diagnostics)
        name, header, axes, blocks = next(files)
        yield name, header, axes, raise_after(blocks, NumericalGuardError("first"))
        for name, header, axes, blocks in files:
            yield name, header, axes, sleeper(blocks)

    monkeypatch.setitem(runner._RUNS, "density", first_fails)
    started = time.monotonic()
    with pytest.raises(NumericalGuardError, match="^first$"):
        run_experiment(config)
    assert time.monotonic() - started < 30.0
    assert_no_child_left()
    assert list(tmp_path.glob("*.csv")) == []


def test_writers_are_recorded_in_file_order(tmp_path, monkeypatch):
    # The first file's writer starts its blocks 0.3 s late, so on two CPUs
    # the second file's writer ends first.  The manifest still lists the
    # writers in the order their files were handed out, each with its usage.
    handed = []

    def first_late(config, specs, diagnostics):
        for name, header, axes, blocks in runner._density(config, specs, diagnostics):
            handed.append(name)
            yield name, header, axes, late(blocks) if len(handed) == 1 else blocks

    def late(blocks):
        time.sleep(0.3)
        yield from blocks

    monkeypatch.setitem(runner._RUNS, "density", first_late)
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    manifest = run_experiment(config)
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["writers"]) == list(stored["writers"]) == handed
    assert len(handed) == 2
    for usage in stored["writers"].values():
        assert usage["cpu_s"] >= 0.0 and usage["peak_rss_mb"] > 0.0


def test_no_writer_is_forked_after_a_failure(tmp_path, monkeypatch):
    # On one CPU each writer is reaped before the next is forked, so the
    # second file's failure is seen before a writer of the third is forked.
    run = runner._RUNS["arrival"]

    def second_fails(config, specs, diagnostics):
        for index, (name, header, axes, blocks) in enumerate(run(config, specs, diagnostics)):
            yield name, header, axes, raise_after(blocks, RuntimeError("boom")) if index == 1 else blocks

    forked = []
    fork_writer = writers._fork_writer

    def counted(path, header, axes, blocks):
        forked.append(path.name)
        return fork_writer(path, header, axes, blocks)

    monkeypatch.setitem(runner._RUNS, "arrival", second_fails)
    monkeypatch.setattr(writers, "_fork_writer", counted)
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = parse_config(json.dumps(small_config("arrival", out_dir=str(tmp_path))))
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(config)
    assert len(forked) == 2
    assert list(tmp_path.glob("*")) == []
    assert_no_child_left()


@pytest.mark.parametrize("second", ["writer", "parent", "parent-written"])
def test_the_earliest_file_failure_is_raised(tmp_path, monkeypatch, second):
    # The first file's writer fails last.  The second file's writer, or the
    # parent as it takes the second file or writes it, fails first.  The run
    # raises the first file's failure, as one process writing the files in
    # order would.
    def slow_failure(blocks):
        yield from blocks
        time.sleep(0.5)
        raise NumericalGuardError("first")

    def failing(config, specs, diagnostics):
        files = runner._density(config, specs, diagnostics)
        name, header, axes, blocks = next(files)
        yield name, header, axes, slow_failure(blocks)
        name, header, axes, blocks = next(files)
        if second == "parent":
            raise OSError(errno.EIO, "second")
        if second == "parent-written":
            # One time's rows, 4,100 fields: the parent writes this file.
            yield name, header, (axes[0][:1], axes[1]), raise_after([], OSError(errno.EIO, "second"))
        yield name, header, axes, raise_after(blocks, OSError(errno.EIO, "second"))

    monkeypatch.setitem(runner._RUNS, "density", failing)
    # The first file's 20,500 fields are forked in every case.
    monkeypatch.setattr(writers, "_FORK_FIELDS", 10_000 if second == "parent-written" else 0)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    with pytest.raises(NumericalGuardError, match="^first$"):
        run_experiment(config)
    assert list(tmp_path.glob("*")) == []
    assert_no_child_left()


# A wigner run of the config at argv[1] into argv[2], its writers stalled
# before their first block; the caller follows.
STALLED_WIGNER = """
import sys, time
import qctl.runner as runner
import qctl.writers as writers

def stalled(blocks):
    time.sleep(60.0)
    yield from blocks

def wigner(config, specs, diagnostics):
    for name, header, axes, blocks in runner._wigner(config, specs, diagnostics):
        yield name, header, axes, stalled(blocks)

runner._RUNS["wigner"] = wigner
writers._FORK_FIELDS = 0
"""


def assert_sigterm_leaves_nothing(tmp_path, caller):
    """SIGTERM ``caller``'s stalled wigner run alone, as `timeout` sends it, while its writers run.

    They are killed, their CSVs removed, and the run exits 128 + 15.
    """
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("wigner")))
    out_dir = tmp_path / "out"
    command = [sys.executable, "-c", STALLED_WIGNER + caller, str(config_path), str(out_dir)]
    src = str(Path(qctl.__file__).parents[1])
    # A session of its own, so that its process group holds the run and its writers.
    process = subprocess.Popen(command, env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    try:
        opened = min(2, len(os.sched_getaffinity(0)))
        deadline = time.monotonic() + 30.0
        while len(list(out_dir.glob("*.csv"))) < opened and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(out_dir.glob("*.csv"))) == opened
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30.0) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)
        assert list(out_dir.glob("*")) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()


def test_cli_sigterm_leaves_no_writer_and_no_csv(tmp_path):
    cli = 'from qctl.cli import main\nsys.exit(main(["wigner", "--config", sys.argv[1], "--out", sys.argv[2]]))\n'
    assert_sigterm_leaves_nothing(tmp_path, cli)


def test_library_sigterm_leaves_no_writer_and_no_csv(tmp_path):
    # A plain script that calls run_experiment on its main thread: the
    # writers set the SIGTERM handler, not the CLI.
    library = 'from qctl import load_config, run_experiment\nrun_experiment(load_config(sys.argv[1], {"out_dir": sys.argv[2]}))\n'
    assert_sigterm_leaves_nothing(tmp_path, library)


# The CLI, its wigner writers slowed to one row a block, 0.1 s a block.
SLOWED_WIGNER_CLI = """
import sys, time
import qctl.runner as runner
import qctl.writers as writers
from qctl.cli import main

def slowed(blocks):
    for block in blocks:
        for i in range(len(block)):
            time.sleep(0.1)
            yield block[i : i + 1]

def wigner(config, specs, diagnostics):
    for name, header, axes, blocks in runner._wigner(config, specs, diagnostics):
        yield name, header, axes, slowed(blocks)

runner._RUNS["wigner"] = wigner
writers._FORK_FIELDS = 0
sys.exit(main(sys.argv[1:]))
"""


def live_processes_of_session(session):
    """Pids of the processes of ``session`` that are not zombies, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except (OSError, ValueError):
            continue
        state, _, _, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            pids.append(int(entry))
    return pids


def test_cli_sigkill_leaves_no_writer(tmp_path):
    # SIGKILL leaves the CLI no time to kill its writers, which a whole run
    # would keep busy for minutes.  Each writer finds itself reparented at its
    # next block and exits, so the session is empty a few blocks' time later.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("wigner")))
    out_dir = tmp_path / "out"
    command = [sys.executable, "-c", SLOWED_WIGNER_CLI, "wigner",
               "--config", str(config_path), "--out", str(out_dir)]
    src = str(Path(qctl.__file__).parents[1])
    cli = subprocess.Popen(command, env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    try:
        opened = min(2, len(os.sched_getaffinity(0)))
        deadline = time.monotonic() + 30.0
        while len(list(out_dir.glob("*.csv"))) < opened and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(out_dir.glob("*.csv"))) == opened
        assert len(live_processes_of_session(cli.pid)) == 1 + opened
        cli.kill()
        assert cli.wait(timeout=30.0) == -signal.SIGKILL
        deadline = time.monotonic() + 5.0
        while live_processes_of_session(cli.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live_processes_of_session(cli.pid) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(cli.pid, signal.SIGKILL)
        cli.wait()


def test_reparented_writer_exits_inside_a_single_block(tmp_path, monkeypatch):
    # Trajectories and arrival hand a whole file to the writer as one block,
    # so a writer checks its parent before each chunk of rows it writes.
    import qctl.csvtext as csvtext

    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code)

    # Chunks of two rows: the first column is the file's axis, not a value.
    monkeypatch.setattr(csvtext, "CHUNK_VALUES", 2)
    parents = iter([100, 1])
    monkeypatch.setattr(writers.os, "getppid", lambda: next(parents))
    monkeypatch.setattr(writers.os, "_exit", exit_)
    values = np.arange(12.0).reshape(6, 2)
    with pytest.raises(Exited):
        writers._write_csv(tmp_path / "one.csv", ["a", "b"], (values[:, 0],), [values[:, 1:]], parent=100)
    assert (tmp_path / "one.csv").read_bytes() == b"a,b\n0,1\n2,3\n"


def test_cli_runs_off_the_main_thread(tmp_path):
    # No SIGTERM handler can be set there, so the CLI runs without one.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("arrival")))
    out_dir = tmp_path / "out"
    codes = []
    argv = ["arrival", "--config", str(config_path), "--out", str(out_dir)]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert codes == [0]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(p.name for p in out_dir.glob("*.csv")) == manifest["outputs"]
    assert len(manifest["outputs"]) == 3
    assert_no_child_left()


def test_cli_writer_io_error_exit_code(tmp_path, capsys, monkeypatch):
    # An OSError in a writer, such as a full disk, exits 4 as in the parent.
    def disk_full(config, specs, diagnostics):
        for name, header, axes, blocks in runner._density(config, specs, diagnostics):
            yield name, header, axes, raise_after(blocks, OSError(errno.ENOSPC, "No space left on device"))

    monkeypatch.setitem(runner._RUNS, "density", disk_full)
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density")))
    out_dir = tmp_path / "out"
    assert main(["density", "--config", str(config_path), "--out", str(out_dir)]) == 4
    assert "I/O error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert list(out_dir.glob("*")) == []
    assert_no_child_left()


class TwoArgumentError(Exception):
    # Pickles, but cannot be rebuilt from its args, which hold one string.
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_error_classes_survive_a_pickle_round_trip():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert {c.__name__ for c in classes} >= {"ConfigError", "DomainError", "NumericalGuardError"}
    for cls in classes:
        exc = cls("trajectories.dt", "must be positive") if cls is errors.ConfigError else cls("boom")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert (str(copy), copy.args) == (str(exc), exc.args)
        assert getattr(copy, "path", None) == getattr(exc, "path", None)


@pytest.mark.parametrize("local", [True, False])
def test_writer_failure_that_cannot_be_rebuilt(tmp_path, monkeypatch, local):
    # An exception that cannot be pickled, or rebuilt, arrives as a
    # RuntimeError carrying the writer's traceback text.
    class LocalError(Exception):
        pass

    exc = LocalError("unpicklable") if local else TwoArgumentError("what", "why")

    def failing(config, specs, diagnostics):
        for name, header, axes, blocks in runner._density(config, specs, diagnostics):
            yield name, header, axes, raise_after(blocks, exc)

    monkeypatch.setitem(runner._RUNS, "density", failing)
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    with pytest.raises(RuntimeError, match="the writer of density_eps.* failed") as raised:
        run_experiment(config)
    assert type(exc).__name__ in str(raised.value) and "raise_after" in str(raised.value)
    assert list(tmp_path.glob("*.csv")) == []
    assert_no_child_left()


def test_writer_failure_larger_than_a_pipe_buffer(tmp_path, monkeypatch):
    # A 1 MB message fills the pipe many times over, so it must be read while
    # the writer sends it.  Were it not, the alarm would end the test run.
    message = "x" * 2**20

    def failing(config, specs, diagnostics):
        for name, header, axes, blocks in runner._density(config, specs, diagnostics):
            yield name, header, axes, raise_after(blocks, NumericalGuardError(message))

    monkeypatch.setitem(runner._RUNS, "density", failing)
    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    signal.alarm(60)
    try:
        with pytest.raises(NumericalGuardError) as raised:
            run_experiment(config)
    finally:
        signal.alarm(0)
    assert str(raised.value) == message
    assert_no_child_left()


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_one_cpu_writes_the_same_csvs(tmp_path, monkeypatch, run_kind):
    def csvs(out_dir):
        run_experiment(parse_config(json.dumps(small_config(run_kind, out_dir=str(out_dir)))))
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


    monkeypatch.setattr(writers, "_FORK_FIELDS", 0)
    default = csvs(tmp_path / "default")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert csvs(tmp_path / "one") == default
    assert len(default) == (3 if run_kind == "arrival" else 2)


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_forked_and_parent_written_files_are_the_same(tmp_path, monkeypatch, run_kind):
    # Every file forked, then every file written by the parent: the same CSV
    # bytes and the same manifest, but for the timings and each file's writer.
    def run(fork_fields):
        out_dir = tmp_path / str(fork_fields)
        monkeypatch.setattr(writers, "_FORK_FIELDS", fork_fields)
        manifest = run_experiment(parse_config(json.dumps(small_config(run_kind, out_dir=str(out_dir)))))
        usages = manifest.pop("writers")
        assert sorted(usages) == manifest["outputs"]
        assert {usage["forked"] for usage in usages.values()} == {fork_fields == 0}
        del manifest["wall_clock_seconds"], manifest["config"]["out_dir"]
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}, manifest

    assert run(0) == run(10**12)
    assert_no_child_left()
