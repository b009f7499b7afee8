"""Command-line entry points: run, verify, sample, bestmatch.

Exit codes: 0 success, 2 configuration error (including unknown verify
suites and usage errors), 3 numerical abort mid-run, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, RedError, UnknownSuiteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="red",
        description="Relational entropic dynamics on periodic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON experiment configuration")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the config seed")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="override the config output directory")

    add_config_flags(sub.add_parser("run", help="evolve the configured system"))
    add_config_flags(sub.add_parser("sample", help="evolve a walker ensemble only"))
    add_config_flags(sub.add_parser("bestmatch", help="single-state best-matching query"))

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", help="suite name, or `all`")
    verify.add_argument("--out", default=None, metavar="DIR",
                        help="also write one JSON report per suite")
    return parser


def _load_config(args):
    from .config import load_config

    config = load_config(args.config)
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError([("/run/seed", "--seed must fit in an unsigned 64-bit integer")])
        config = config.with_overrides(seed=args.seed)
    if args.out is not None:
        config = config.with_overrides(outputs=args.out)
    return config


def _out_directory(args):
    """Create the --out directory before any work is done; None without --out."""
    if args.out is None:
        return None
    directory = Path(args.out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([("--out", f"cannot create the output directory: {exc}")]) from exc
    return directory


def _command_run(args) -> int:
    from .experiment import run_experiment

    out = run_experiment(_load_config(args))
    print(out)
    return EXIT_OK


def _command_sample(args) -> int:
    from .experiment import sample_experiment

    out = sample_experiment(_load_config(args))
    print(out)
    return EXIT_OK


def _command_bestmatch(args) -> int:
    from .experiment import bestmatch_report

    config = _load_config(args)
    directory = _out_directory(args)
    report = bestmatch_report(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if directory is not None:
        (directory / "bestmatch.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def _command_verify(args) -> int:
    from .io import write_json
    from .verify import run_suites

    directory = _out_directory(args)
    reports = run_suites(args.suite)
    for report in reports:
        for line in report.lines():
            print(line)
        if directory is not None:
            write_json(directory / f"verify_{report.suite}.json", report.as_dict())
    if all(report.passed for report in reports):
        return EXIT_OK
    return EXIT_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "sample": _command_sample,
        "bestmatch": _command_bestmatch,
        "verify": _command_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, UnknownSuiteError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except RedError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
