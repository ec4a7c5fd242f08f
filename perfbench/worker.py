"""One workload round in a fresh interpreter: import, load the config, run the CLI.

    python3 perfbench/worker.py --src SRC --config CFG --result OUT.json
        [--out DIR --kinds density,observables] [--spans SPANS.npz]

With no ``--kinds`` it stops once the config is loaded: a set-up-only process.

Times are read from ``time.monotonic``, the clock the parent uses to stamp the
moment it started this process, so the parent can take set-up time from
process start.  The result file holds the clock readings, the exit code of
each CLI call, the peak resident memory and the ``norm_constant`` cache
misses; a traced round also writes its spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--kinds", default="")
    parser.add_argument("--spans")
    args = parser.parse_args()

    t_import = time.monotonic()
    sys.path.insert(0, args.src)
    import qctl.cli
    import qctl.config

    t_imported = time.monotonic()
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.install()
    qctl.config.load_config(args.config)
    t_loaded = time.monotonic()

    exit_codes = {}
    for kind in filter(None, args.kinds.split(",")):
        exit_codes[kind] = qctl.cli.main([kind, "--config", args.config, "--out", args.out])
    t_done = time.monotonic()

    result = {
        "t_import": t_import,
        "t_imported": t_imported,
        "t_loaded": t_loaded,
        "t_done": t_done,
        "exit_codes": exit_codes,
        "peak_rss_mb": _peak_rss_mb(),
        "norm_constant_misses": _norm_constant_misses(tracer),
    }
    if tracer is not None:
        tracer.save(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    ``VmHWM`` belongs to the memory map made at exec.  ``ru_maxrss`` also keeps
    the high-water mark of the map replaced at exec, which for a child
    started by vfork is the parent's, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _norm_constant_misses(tracer) -> int:
    import qctl.ensembles

    cached = qctl.ensembles.norm_constant
    if tracer is not None:
        cached = tracer.originals.get("ensembles.norm_constant", cached)
    info = getattr(cached, "cache_info", None)
    return info().misses if info is not None else 0


if __name__ == "__main__":
    sys.exit(main())
