"""Command-line interface: run, sweep, and validate configurations.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .runio import ConfigError, echo_config, parse_config, parse_sweep, run, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasefrac",
        description="Phase-field brittle fracture benchmarks: run, sweep, validate.")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name, help=doc) for name, doc in (
        ("run", "execute one configuration and write artifacts"),
        ("sweep", "run a parameter sweep and write summary.csv"),
        ("validate", "parse a configuration and echo it fully resolved"))}
    for p in cmd.values():
        p.add_argument("config_file", help="path to the INI configuration")
    for name in ("run", "sweep"):
        cmd[name].add_argument("--output-dir", default=None,
                               help="override the [output] directory")
    cmd["run"].add_argument("--snapshot-stride", type=int, default=None,
                            help="override the snapshot stride (0 disables snapshots)")
    cmd["sweep"].add_argument("--threads", type=int, default=1,
                              help="worker processes for sweep rows")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = Path(args.config_file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.config_file}: {exc}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config_file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            cfg = parse_config(text)
            sys.stdout.write(echo_config(cfg))
            return 0
        if args.command == "run":
            cfg = parse_config(text)
            return run(cfg, output_dir=args.output_dir,
                       snapshot_stride=args.snapshot_stride)
        spec = parse_sweep(text)
        return sweep(spec, threads=args.threads, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
