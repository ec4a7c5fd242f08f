"""Command-line entry point.

    qctl <density|trajectories|arrival|observables|wigner> --config cfg.json
         [--epsilon 0.5] [--out results]

Exit codes: 0 success, 2 configuration error, 3 numerical-guard trip,
4 I/O error while running (e.g. an output directory that cannot be created).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import RUN_KINDS, check_packet_phase, load_config
from .errors import ConfigError, DomainError, LowDensityError, NumericalGuardError
from .regime import make_regime
from .runner import run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qctl",
        description="Quantum-to-classical transition simulations for Gaussian "
        "ensembles against a hard wall.",
    )
    subparsers = parser.add_subparsers(dest="run_kind", required=True)
    for kind in RUN_KINDS:
        sub = subparsers.add_parser(kind, help=f"run the {kind} experiment")
        sub.add_argument("--config", required=True, help="path to the JSON configuration")
        sub.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="override the configured epsilon list with this single value",
        )
        sub.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config = replace(config, run_kind=args.run_kind)
        if args.epsilon is not None:
            try:
                make_regime(args.epsilon, config.hbar)
            except DomainError as exc:
                raise ConfigError("--epsilon", str(exc)) from exc
            config = replace(config, epsilons=(args.epsilon,))
            check_packet_phase(config)
    except (OSError, ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(config, out_dir=args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalGuardError, LowDensityError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    for name in manifest["outputs"]:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
