"""The CSV writers of a run: one process model, from the fork to the cleanup.

A run writes its CSVs inside one ``with Writers() as writers:`` block, one
:meth:`Writers.write` call per file, in file order.  A file of fewer than
:data:`_FORK_FIELDS` fields, counted from its axes and header before any
block is evaluated, is written by the calling process as it takes the file.
Each larger file gets a forked writer (``os.fork``): the caller goes on to
its next file, and a child evaluates the blocks, formats the rows and exits.
At most as many writers run at once as the process has CPUs
(``os.sched_getaffinity``).  The writers are reaped in the order of their
files: the oldest writer's pipe is read to its end, then that writer waited
for.  One is reaped whenever every CPU is taken, and all of them as the block
ends.

Every file's writer, the caller or a child, measures itself while it writes:
its process time and its peak RSS (``ru_maxrss``).  A child sends them
through its pipe, pickled, with the report of its blocks (the manifest
sections that the generator of its blocks returned); :attr:`Writers.files`
holds them, one record a file, in file order.  A failing child sends its
exception instead, and it is raised with the writer's class and message (a
RuntimeError with the writer's traceback if it cannot be rebuilt).  Reaped in
order, the first failure is the earliest forked file's, and every writer
still running belongs to a later file, so those are killed.  An exception in
the caller's block, from its generator or from a file it writes, is raised
only once the writers already forked are reaped.  So the block raises what
one process writing the files in order would: the failure of the earliest
file that fails, else the caller's own.

On any exception, KeyboardInterrupt included, the writers still running are
killed and reaped, every CSV of the block is removed, and the exception is
raised.  For the lifetime of the block SIGTERM raises ``SystemExit(143)``
(128 + SIGTERM), so it unwinds the same way, for a library call as for the
CLI.  Only the main thread may set a signal handler; a block on another
thread keeps the default.  A caller killed outright, by SIGKILL or the OOM
killer, cannot clean up: each writer compares its parent's pid with the one
it was forked from before it writes each chunk of about 4,096 values, at
least one a block, and exits once it has been reparented, leaving its CSV
partial.

The cost of the order: a CPU that a later file's writer frees stays idle
until the oldest writer ends.  One run kind's files cost about the same, so
the idle is short: on the benchmark's wigner config, four files of about
0.4 s each on two CPUs, the second writer ended up to 0.065 s before the
first.  This is POSIX-only: it needs ``os.fork``, and
``os.sched_getaffinity``, which Linux has.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import resource
import signal
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from types import SimpleNamespace

__all__ = ["Writers"]

# Fields of the smallest CSV that gets a forked writer; a smaller one is
# written by the caller.  A writer costs 11-16 ms of CPU for its fork, page
# faults and formatter start-up, about what the caller takes to format 2^16
# fields (~250 ns a field).
_FORK_FIELDS = 1 << 16


def _write_csv(path: Path, header: list[str], axes, blocks, parent: int | None = None) -> tuple[dict, dict]:
    """Write the header, then the rows of the grid of ``axes``, every float to 17 digits.

    The rows are the points of the grid of the 1-D ``axes`` in C order, each
    row's leading fields its point and its other fields the next row of
    ``blocks``, 2-D float arrays.  Each axis is formatted once.  A writer
    passes the pid of the ``parent`` it was forked from, and exits at the
    first chunk of about 4,096 values, at least one a block, that finds it
    reparented.  Returns this process's usage, its CPU seconds while writing,
    its peak RSS and whether it is a forked writer, and the manifest sections
    that ``blocks`` returned, if any.
    """
    started = time.process_time()
    # The formatter is imported by the first file written, so that it adds
    # nothing to the import time, nor to a parent that forks every file.
    from .csvtext import csv_chunks, lead_fields

    report = {}

    def taken():
        report.update((yield from blocks) or {})

    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        for chunk in csv_chunks([lead_fields(axis) for axis in axes], taken()):
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            handle.write(chunk)
    usage = {"cpu_s": time.process_time() - started,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # Linux: kB
             "forked": parent is not None}
    return usage, report


def _fork_writer(path: Path, header: list[str], axes, blocks) -> tuple[int, int]:
    """Fork a child that writes ``path`` from ``axes`` and ``blocks`` and exits.

    Returns the child's pid and the read end of a pipe.  On success the child
    sends the usage and report of :func:`_write_csv`, pickled, and exits 0.
    On failure it sends its traceback text and its exception, pickled (None
    if the exception cannot be), and exits 1.
    """
    pipe, child_end = os.pipe()
    parent = os.getpid()
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
        # By default glibc serves arrays of 128 kB and more by mmap and hands
        # the freed top of its heap back, so the numpy temporaries of every
        # block are faulted in afresh: a Wigner block's pair integrals free
        # about 1.4 MB per pair.  A writer is short-lived and peaks at its
        # largest block either way, so it keeps and reuses what it frees.
        ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        written = _write_csv(path, header, axes, blocks, parent)
        with open(child_end, "wb") as handle:
            handle.write(pickle.dumps(written))
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


class Writers:
    """The CSV writers of one run, as a context manager; see the module docstring.

    :attr:`files` maps each CSV name, in file order, to its record: its
    ``path``, and once it is written, its writer's ``usage`` (``cpu_s``,
    ``peak_rss_mb`` and ``forked``, the manifest's entry under ``writers``)
    and its blocks' ``report``.
    """

    def __init__(self):
        self.slots = len(os.sched_getaffinity(0))
        self.files: dict[str, SimpleNamespace] = {}
        # The record, pid and pipe read end of each running writer, oldest first.
        self.running: deque[tuple[SimpleNamespace, int, int]] = deque()
        # The SIGTERM handler that the block replaced, if it set one.
        self.previous = None

    def __enter__(self) -> Writers:
        if threading.current_thread() is threading.main_thread():
            self.previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        return self

    def __exit__(self, kind, exc, tb) -> None:
        clean = False
        try:
            # An earlier file's failure comes first, as it would in one process.
            while self.running and (kind is None or issubclass(kind, Exception)):
                self._reap()
            clean = kind is None
        finally:
            if not clean:
                # No writer may outlive the run, nor write after its CSVs are removed.
                self._kill()
                for file in self.files.values():
                    file.path.unlink(missing_ok=True)
            if self.previous is not None:
                signal.signal(signal.SIGTERM, self.previous)

    def write(self, path: Path, header: list[str], axes, blocks) -> None:
        """Write ``path``, or fork its writer once a CPU is free; raise an earlier writer's failure.

        A file of fewer than :data:`_FORK_FIELDS` fields, its rows the points
        of the grid of ``axes``, is written here, while the writers of
        earlier files run on.
        """
        file = self.files[path.name] = SimpleNamespace(path=path)
        if math.prod(map(len, axes)) * len(header) < _FORK_FIELDS:
            file.usage, file.report = _write_csv(path, header, axes, blocks)
            return
        while len(self.running) >= self.slots:
            self._reap()
        self.running.append((file, *_fork_writer(path, header, axes, blocks)))

    def _reap(self) -> None:
        """Read the oldest writer's pipe to its end, then reap that writer and take its usage and report.

        The pipe is read before the writer is waited for, so a report or a
        failure larger than the pipe's buffer cannot block the writer's exit.
        On a failure the writers of later files are killed, as one process
        writing the files in order would not have reached them, and the
        failure raised.
        """
        file, pid, pipe = self.running[0]
        with open(pipe, "rb", closefd=False) as handle:
            payload = handle.read()
        self.running.popleft()
        os.close(pipe)
        _, status = os.waitpid(pid, 0)
        if status:
            self._kill()
            raise _writer_failure(file.path.name, status, payload)
        file.usage, file.report = pickle.loads(payload)

    def _kill(self) -> None:
        """Kill and reap every running writer."""
        while self.running:
            _, pid, pipe = self.running.popleft()
            os.kill(pid, signal.SIGKILL)
            os.close(pipe)
            os.waitpid(pid, 0)
