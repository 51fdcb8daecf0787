"""Write ``perfbench/baseline.json``: one untraced and one traced run of each
workload, plus the untraced median time of each request kind. Run from the
root of a checkout:

    python3 perfbench/baseline.py --seed 1 --seconds 30

The per-kind medians come from three passes of the seed's request set, run
in this process after the benchmark runs; they are what ROADMAP's per-size
figures compare with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dialogue", "describe", "refuse")
KIND_PASSES = 3


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    report = [line for line in lines[:-1] if not line.startswith("  ")]
    return {"report": report, **json.loads(lines[-1])}


def kind_medians(bench, workload: str, seed: int) -> dict:
    """Median untraced ms per request kind (scenario, or world cell)."""
    b = bench.Bench(workload, seed)
    times: dict[str, list[float]] = {}
    for requests in b.passes[:KIND_PASSES]:
        for req in requests:
            began = perf_counter()
            ok, output = b.attempt(req, b.api.NameSource)
            if not ok:
                raise SystemExit(f"{req.key()} failed:\n{output}")
            times.setdefault(req.name, []).append((perf_counter() - began) * 1000)
    return {name: round(statistics.median(v), 2) for name, v in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import bench

    out = {
        "date": date.today().isoformat(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        untraced = bench_run(workload, args.seed, args.seconds, 0)
        traced = bench_run(workload, args.seed, args.seconds, 1)
        out["workloads"][workload] = {
            "untraced": untraced,
            "traced": traced,
            "median_ms_by_kind": kind_medians(bench, workload, args.seed),
        }
        print(f"{workload}: done", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
