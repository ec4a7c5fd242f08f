"""Command-line entry point.

    qctl <density|trajectories|arrival|observables|wigner> --config cfg.json
         [--epsilon 0.5] [--out results]

Exit codes: 0 success, 2 configuration error, 3 numerical-guard trip,
4 I/O error while running (e.g. an output directory that cannot be created),
143 (128 + SIGTERM) on SIGTERM, once the run's CSV writers are stopped and its CSVs
removed.  The SIGTERM handling belongs to the run's writers
(:class:`qctl.writers.Writers`), and is set only when the run is on the main
thread; this module parses the arguments and maps failures to exit codes.
"""

from __future__ import annotations

import argparse
import sys

from .config import RUN_KINDS, load_config
from .errors import ConfigError, DomainError, NumericalGuardError
from .runner import run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qctl",
        description="Quantum-to-classical transition simulations for Gaussian "
        "ensembles against a hard wall.",
    )
    parser.add_argument("run_kind", choices=RUN_KINDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="override the configured epsilon list with this single value",
    )
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Each flag replaces its document key before any check, so the loader
    # validates it as that key and every cross-field check sees it.
    overrides = {"run": args.run_kind}
    if args.epsilon is not None:
        overrides["epsilons"] = [args.epsilon]
    if args.out is not None:
        overrides["out_dir"] = args.out
    try:
        config = load_config(args.config, overrides)
    except (OSError, ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(config)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    for name in manifest["outputs"]:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
