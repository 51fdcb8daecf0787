"""Set-up, the timed run and the traced run; ``run.py`` is the command."""

from __future__ import annotations

import hashlib
import importlib
import json
import itertools
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer, counting_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SPANS_DIR = HERE / "out"


class Bench:
    """The engine module and the request set of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        for name in [n for n in sys.modules if n == "collabref" or n.startswith("collabref.")]:
            del sys.modules[name]
        self.api = importlib.import_module("collabref")
        self.workload = workload
        self.passes = workloads.make_passes(workload, seed)
        self.texts, self.golden = workloads.read_scenarios(ROOT)

    def attempt(self, req, new_names) -> tuple[bool, str]:
        """Run one request; any exception is a failed request, not a crash."""
        try:
            if self.workload == "dialogue":
                return workloads.run_dialogue(self.api, req, new_names, self.texts, self.golden)
            if self.workload == "describe":
                return workloads.run_describe(self.api, req, new_names)
            return workloads.run_refuse(self.api, req, new_names)
        except Exception:
            return False, traceback.format_exc()


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(bench: Bench, seconds: float, failures: list) -> tuple[dict, int, str]:
    new_names = bench.api.NameSource
    latencies: list[float] = []
    first_outputs: list[str] = []
    start = perf_counter()
    # whole passes only, so every run has the same mix of costs
    for done in itertools.count():
        for req in bench.passes[done % len(bench.passes)]:
            began = perf_counter()
            ok, output = bench.attempt(req, new_names)
            ended = perf_counter()
            # a failed request counts as over any latency limit
            latencies.append(ended - began if ok else math.inf)
            if not ok:
                failures.append((req, output))
            if done == 0:
                first_outputs.append(output)
        if ended - start >= seconds:
            break
    elapsed = ended - start
    ranked = sorted(latencies)
    metrics = {
        "requests_per_s": (len(latencies) / elapsed, "1/s"),
        "latency_p50_ms": (nearest_rank(ranked, 0.5) * 1000, "ms"),
        "latency_p90_ms": (nearest_rank(ranked, 0.9) * 1000, "ms"),
        "correct_ratio": ((len(latencies) - len(failures)) / len(latencies), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(latencies), digest(first_outputs)


def traced_run(bench: Bench, seconds: float, failures: list) -> tuple[dict, int, str]:
    first = bench.passes[0]
    began = perf_counter()
    reference = [bench.attempt(req, bench.api.NameSource) for req in first]
    untraced_per_request = (perf_counter() - began) / len(first)
    for req, (ok, output) in zip(first, reference):
        if not ok:
            failures.append((req, output))

    tracer = Tracer()
    tracer.install("collabref")
    new_names = counting_names(bench.api.NameSource)
    passes = rule_firings = 0
    start = perf_counter()
    while True:
        for req, (_, expected) in zip(first, reference):
            tracer.begin_request()
            ok, output = bench.attempt(req, new_names)
            if not ok or output != expected:
                failures.append((req, output))
            rule_firings += sum(line.startswith("rule ") for line in output.splitlines())
        tracer.end_pass(keep=passes == 0)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
    traced = passes * len(first)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = tracer.write_spans(SPANS_DIR / f"spans-{bench.workload}.tsv")
    print(f"spans kept from the first traced pass: {spans}, "
          f"written to {SPANS_DIR.relative_to(ROOT)}/spans-{bench.workload}.tsv")
    print(f"traced passes: {passes}, untraced reference pass: 1")
    metrics = tracer.metrics(
        traced, rule_firings, traced / elapsed, (elapsed / traced) / untraced_per_request
    )
    return metrics, len(first) + traced, digest(output for _, output in reference)


def run(args) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        bench = Bench(args.workload, args.seed)
        setups.append(perf_counter() - began)
    first = bench.passes[0]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"platform={platform.platform()}")
    sizes = sorted({len(r.world.objects) for r in first if r.world is not None})
    print(f"requests per pass={len(first)} passes={len(bench.passes)} "
          f"world sizes={sizes or '-'} setup repeats={SETUP_REPEATS}")
    print(f"requests_sha256={digest(r.key() for p in bench.passes for r in p)}")

    failures: list = []
    if args.trace:
        metrics, attempted, outputs = traced_run(bench, args.seconds, failures)
    else:
        measured, attempted, outputs = timed_run(bench, args.seconds, failures)
        measured["setup_s"] = (statistics.median(setups), "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in measured.items()}
    print(f"outputs_sha256={outputs} (first pass)")
    print(f"attempted={attempted} failed={len(failures)}")
    for req, output in failures[:3]:
        print(f"FAILED {req.key()}\n{output}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0
