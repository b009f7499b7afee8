"""Command-line entry points: run, verify, sample, bestmatch.

Exit codes: 0 success, 2 configuration error (including unknown verify
suites and usage errors), 3 numerical abort mid-run, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

from .errors import ConfigError, RedError, UnknownSuiteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# mallopt parameter numbers of glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# The ceiling of glibc's own dynamic thresholds on 64-bit: the mmap threshold
# grows to at most 32 MiB, and the trim threshold follows it at twice that.
MMAP_THRESHOLD_BYTES = 32 * 2 ** 20
TRIM_THRESHOLD_BYTES = 64 * 2 ** 20


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

    return load_config(args.config, seed=args.seed, outputs=args.out)


def _out_directory(args):
    """Create the --out directory before any work is done; None without --out."""
    if args.out is None:
        return None
    if not args.out:
        raise ConfigError([("--out", "must be a non-empty path string")])
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
    report = bestmatch_report(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    directory = Path(config.outputs)  # which --out overrides, as for run and sample
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "bestmatch.json").write_text(text + "\n")
    except OSError as exc:
        where = "/outputs" if args.out is None else "--out"
        raise ConfigError([(where, f"cannot write the output directory: {exc}")]) from exc
    print(text)
    return EXIT_OK


def _command_verify(args) -> int:
    from .io import write_json
    from .verify import run_suites, suite_names

    suite_names(args.suite)  # an unknown suite exits 2 before --out is created
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


def _keep_freed_grids() -> None:
    """Pin glibc's heap thresholds so freed grid temporaries stay mapped.

    Every step allocates and frees the same full-grid arrays.  Under glibc's
    dynamic policy the heap top past twice the mmap threshold goes back to
    the kernel between steps, and the next step faults every page in again.
    Where the C library has no mallopt (macOS, Windows) or ignores it (musl
    returns 0), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows loads no library by None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    """The `red` command; the allocator policy is set here, never on import."""
    _keep_freed_grids()
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
    except (RedError, ArithmeticError) as exc:  # ArithmeticError: Python float arithmetic failed mid-run
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
