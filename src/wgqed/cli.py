"""Command-line entry point.

    wgqed run <config.yaml> [--seed N] [--out DIR] [--threads N]
    wgqed validate <config.yaml>
    wgqed list-experiments

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Configuration errors print a machine-readable JSON report to stderr.
"""

import argparse
import json
import sys

from .config import EXPERIMENTS, load_config, resolve_config
from .errors import ConfigError, NumericalError
from .experiments import DESCRIPTIONS, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Collective-emission simulator for waveguide-coupled "
                    "emitters")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to the YAML experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; the "
                            "yield Monte Carlo uses one thread per CPU of "
                            "the process's affinity mask")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    sub.add_parser("list-experiments", help="list available experiments")
    return parser


def _config_error(exc):
    report = {"error": "config", "message": str(exc),
              "details": getattr(exc, "details", [])}
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return 2


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(f"{name:24s} {DESCRIPTIONS.get(name, '')}")
        return 0

    if args.command == "validate":
        try:
            resolve_config(load_config(args.config))
        except ConfigError as exc:
            return _config_error(exc)
        print("ok")
        return 0

    # run
    try:
        data = load_config(args.config)
        if args.seed is not None:
            data["seed"] = args.seed
        cfg = resolve_config(data)
        if args.out is not None:
            cfg.output = args.out
    except ConfigError as exc:
        return _config_error(exc)

    try:
        bundle = run_experiment(cfg)
        paths = bundle.write(cfg.output)
    except ConfigError as exc:
        return _config_error(exc)
    except NumericalError as exc:
        print(json.dumps({"error": "numerical", "experiment": cfg.experiment,
                          "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
