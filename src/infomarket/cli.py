"""Command-line interface: one subcommand per experiment plus config tools.

Exit codes: 0 success, 2 configuration error, 3 convergence failure.
Every simulation parameter is reachable as ``--<section.key> <value>``;
precedence is CLI > --config file > defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .config import SimParams, parse_config_file
from .errors import ConfigError, NoConvergence
from .harness import (
    EXPERIMENTS,
    RECORDED_EXPERIMENTS,
    RUN_KEYS,
    ExperimentConfig,
    RunRecord,
    Simulation,
    _json_text,
    load_overrides,
    run_experiment,
    summary_stats,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _common() -> argparse.ArgumentParser:
    """The flags every experiment takes, one parser that each experiment's
    subparser copies as a parent: adding them to each of nine subparsers
    made building the parser most of a short run's time."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=None,
                        help="master random seed")
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--ticks", dest="max_ticks", metavar="TICKS", type=int, default=None,
                        help="simulation horizon")
    parser.add_argument(
        "--jobs", type=int, default=None, help="parallel workers for multi-world experiments"
    )
    for key in sorted(SimParams().flatten()):
        parser.add_argument(f"--{key}", dest=key, default=None, metavar="V", help=argparse.SUPPRESS)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomarket",
        description="deterministic information-market simulator and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()
    for experiment in EXPERIMENTS:
        name = experiment.replace("_", "-")
        aliases = [experiment] if name != experiment else []
        p = sub.add_parser(name, aliases=aliases, parents=[common],
                           help=f"run the {experiment} experiment")
        p.set_defaults(experiment=experiment)
    v = sub.add_parser("validate-config", help="check a config file and exit")
    v.add_argument("--config", type=Path, required=True)
    r = sub.add_parser("report", help="recompute the summary for a finished run directory")
    r.add_argument("directory", type=Path)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    run, overrides = load_overrides(None, parse_config_file(args.config))
    cfg = ExperimentConfig(**run, overrides=overrides)
    # Build the world a run builds before tick 1 (populations and welfare
    # anchors), so that a config the run rejects there exits 2 here too.  A
    # world whose anchors fail to converge validates: that run exits 3.
    try:
        Simulation(cfg.params(), master_seed=cfg.master_seed)
    except NoConvergence:
        pass
    print(f"{args.config}: OK ({len(run) + len(overrides)} keys)")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    # An experiment that writes no record leaves any run.csv here stale.
    config = args.directory / "config.txt"
    if config.exists():
        experiment = parse_config_file(config).get("run.experiment", ExperimentConfig.experiment)
        if experiment not in RECORDED_EXPERIMENTS:
            raise ConfigError(f"{config}: run.experiment = {experiment} writes no run record "
                              f"(only {', '.join(RECORDED_EXPERIMENTS)} do)")
    record = RunRecord.from_csv(args.directory / "results" / "run.csv")
    stats = summary_stats(record)
    # As summary.json writes its stats block: undefined statistics as null.
    print(_json_text(asdict(stats)), end="")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cli_pairs = {
        key: getattr(args, key)
        for key in SimParams().flatten()
        if getattr(args, key, None) is not None
    }
    file_run, overrides = load_overrides(args.config, cli_pairs)
    # The subcommand and flags beat the file's run.* keys, which beat the defaults.
    run = {"max_ticks": EXPERIMENTS[args.experiment][1]} | file_run
    run |= {k: getattr(args, k) for k in RUN_KEYS if getattr(args, k) is not None}
    out = args.out if args.out is not None else Path("out") / args.experiment
    cfg = ExperimentConfig(**run, out_dir=out, overrides=overrides)
    run_experiment(cfg)
    summary = Path(out) / "summary.txt"
    if summary.exists():
        print(summary.read_text(encoding="utf-8"), end="")
    print(f"results written to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate-config":
            return _cmd_validate(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
