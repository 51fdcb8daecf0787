"""Benchmark of the collabref engine: one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload describe --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: requests run back to back,
each one after the previous one ends, in whole passes of the seed's request
set until ``--seconds`` have passed. ``--trace 1`` measures the per-layer
metrics instead: it runs the seed's first pass once untraced, then the same
pass under the tracer, whole passes at a time, until ``--seconds`` have
passed. Every output is checked in both modes; a traced output must also be
byte-equal to the untraced one. The report goes to standard output; its
last line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Import cost is part of set-up, so a run must never leave cached bytecode
# in the checkout: every run then compiles the engine from source.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dialogue", "describe", "refuse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/collabref/__init__.py", "tests/worldgen.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a collabref checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
