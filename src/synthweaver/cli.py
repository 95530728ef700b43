"""Command-line entry point: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__
from .config import RunConfig, load_config
from .errors import ConfigError, SchemaError, SynthweaverError
from .pipeline import run_collect, run_explore, run_export, run_refine, run_stats
from .runstore import RunStore

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthweaver",
        description=(
            "Synthesize web-agent training data: explore sites, collect "
            "trajectories with task refinement, judge them, and export SFT records."
        ),
    )
    parser.add_argument("--version", action="version", version=f"synthweaver {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument(
            "--run", default=None, help="run id under runs_dir (explore's default: timestamped)"
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument(
            "--mock",
            default=None,
            metavar="SCRIPT",
            help="use the scripted oracle from this mock JSON file",
        )

    p = sub.add_parser("explore", help="categorize pages, probe elements, synthesize tasks")
    common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("collect", help="collect trajectories with in-flight task refinement")
    common(p)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("refine", help="judge trajectories: keep, repair, or drop")
    common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("export", help="write the training dataset and its manifest")
    common(p)
    p.add_argument("--window", type=int, default=None, help="history window size")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("stats", help="write corpus statistics for the run")
    common(p)
    p.add_argument(
        "--judge-quality",
        action="store_true",
        help="score each refined trajectory with the quality judge",
    )
    p.add_argument(
        "--no-diversity",
        action="store_true",
        help="skip the task-diversity judge",
    )
    p.set_defaults(func=cmd_stats)
    return parser


def _setup(args: argparse.Namespace, *, existing: bool = True) -> tuple[RunConfig, RunStore]:
    """The config and the run's store; unless `existing` is False, the run
    directory must exist already, so a mistyped `--run` creates nothing."""
    overrides: dict[str, Any] = {"seed": args.seed, "workers": args.workers}
    if args.mock is not None:
        overrides["oracle"] = {"backend": "mock", "mock_script": str(Path(args.mock).resolve())}
    config = load_config(
        args.config, {key: value for key, value in overrides.items() if value is not None}
    )
    run_id = args.run or time.strftime("run-%Y%m%d-%H%M%S")
    root = Path(config.runs_dir) / run_id
    if existing and not root.is_dir():
        raise ConfigError(f"run directory {root} does not exist; explore creates it")
    return config, RunStore(root)


def cmd_explore(args: argparse.Namespace) -> int:
    config, store = _setup(args, existing=False)
    counts = run_explore(config, store)
    print(
        f"explored {counts['sites']} site(s): {counts['tasks']} tasks, "
        f"{counts['triplets']} triplets -> {store.root}"
    )
    return EXIT_OK


def cmd_collect(args: argparse.Namespace) -> int:
    config, store = _setup(args)
    counts = run_collect(config, store)
    print(
        f"collected {counts['trajectories']}/{counts['tasks']} trajectories -> {store.root}"
    )
    return EXIT_OK


def cmd_refine(args: argparse.Namespace) -> int:
    config, store = _setup(args)
    counts = run_refine(config, store)
    print(
        f"judged {counts['trajectories']} trajectories: {counts['kept']} kept, "
        f"{counts['refined']} repaired, {counts['dropped']} dropped -> {store.root}"
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    if args.window is not None and args.window < 0:
        raise ConfigError("--window must be at least 0")
    config, store = _setup(args)
    result = run_export(config, store, window=args.window)
    print(
        f"exported {result.n_records} records, {result.n_observations} observations, "
        f"content_hash {result.manifest['content_hash'][:16]} -> {store.dataset_dir()}"
    )
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    config, store = _setup(args)
    stats = run_stats(
        config,
        store,
        judge_quality=args.judge_quality,
        with_diversity=not args.no_diversity,
    )
    print(json.dumps(stats["overall"], indent=2, sort_keys=True))
    print(f"stats written -> {store.path('stats.json')}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SynthweaverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
