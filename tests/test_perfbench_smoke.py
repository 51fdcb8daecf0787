"""Smoke test of the benchmark: one untimed pass of each workload.

`perfbench/run.py --seconds 0` runs a single whole pass of the seed's
request set and checks every output, so this catches an engine change
that breaks the harness or a workload's reference answers. It gates no
timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["dialogue", "describe", "refuse"])
def test_one_pass_of_each_workload_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
    assert report["attempted"] > 0
