"""Determinism self-check of the benchmark. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload it makes two traced runs with seed 1 and one with seed 2,
each one traced pass long, and checks that:

- every run is correct, with no failed request;
- the two seed-1 runs have the same request set, the same outputs and the
  same per-layer counts, to the last digit;
- seed 2 has a different request set (for ``dialogue``, a different order
  of the bundled scenarios), so a claim can be re-checked on a seed that was
  not used while making it.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dialogue", "describe", "refuse")


def traced(workload: str, seed: int) -> tuple[dict, dict, dict]:
    """One traced run: (final JSON, digest lines, count-valued metrics)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digests = dict(
        line.split(" ")[0].split("=", 1) for line in lines if "_sha256=" in line
    )
    counts = {
        name: m["value"] for name, m in result["metrics"].items()
        if not name.startswith("trace.") and m["unit"] in ("count/req", "ratio")
    }
    return result, digests, counts


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        runs = [traced(workload, 1), traced(workload, 1), traced(workload, 2)]
        for seed, (result, _, _) in zip((1, 1, 2), runs):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: {result['failed']} failed requests")
        (_, first, counts), (_, again, counts_again), (_, other, _) = runs
        if first != again:
            problems.append(f"{workload}: seed 1 digests differ: {first} vs {again}")
        for name in counts:
            if counts[name] != counts_again[name]:
                problems.append(
                    f"{workload}: {name} differs: {counts[name]!r} vs {counts_again[name]!r}")
        if other["requests_sha256"] == first["requests_sha256"]:
            problems.append(f"{workload}: seeds 1 and 2 give the same request set")
        print(f"{workload}: {len(counts)} per-layer counts compared, "
              f"requests {first['requests_sha256'][:12]} vs seed 2 {other['requests_sha256'][:12]}")
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
