"""Command line front door: run one scenario, or check a directory of them."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EngineError, ScenarioError
from .scenario import Transcript, run_text

_BOOKKEEPING = ("belief ", "rule ", "inferred ", "contribution ", "cstate ", "construction ")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="collabref",
        description="Simulate two agents negotiating a referring expression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", type=Path, help="path to a .scn file")
    p_run.add_argument(
        "--trace", action="store_true",
        help="also show belief changes, rule firings and inference verdicts",
    )
    p_run.add_argument(
        "--transcript", type=Path, default=None,
        help="write the full event log to this file",
    )

    p_check = sub.add_parser("check", help="run every .scn file in a directory")
    p_check.add_argument("directory", type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    transcript = _play(args.scenario)
    for line in transcript.lines:
        if args.trace or not line.startswith(_BOOKKEEPING):
            print(line)
    if args.transcript is not None:
        args.transcript.write_text(transcript.text(), encoding="utf-8")
    return 0 if transcript.ok else 1


def _play(path: Path) -> Transcript:
    """Read a scenario file as UTF-8, load it and run it; a failure in any
    of the three names the file."""
    try:
        return run_text(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, EngineError) as err:
        raise ScenarioError(f"{path}: {err}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    paths = sorted(args.directory.glob("*.scn"))
    if not paths:
        print(f"no .scn files under {args.directory}", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        transcript = _play(path)
        ending = "resolved" if transcript.resolution is not None else "unresolved"
        status = "ok" if transcript.ok else "FAIL"
        if not transcript.ok:
            failed += 1
        print(f"{status:4} {path.name} ({ending})")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
