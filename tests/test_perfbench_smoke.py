"""Smoke test of the benchmark: one untimed pass of each workload.

`perfbench/run.py --seconds 0` runs a single whole pass of the seed's
request set and checks every output, so this catches an engine change
that breaks the harness or a workload's reference answers. The digest of
the first pass's outputs is pinned too, so any change in what the engine
says on the benchmark's requests fails here. It gates no timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# seed 1, first pass
OUTPUTS_SHA256 = {
    "dialogue": "6062def051dc11f6c776d6a92bf88d502425218998310a2f68c648127572bc2a",
    "describe": "b8374f331a2b791e8afeb0c86d752975a7b967b68533b8ebdfcfca55b4f9fae4",
    "refuse": "1b2470f087f52f60537f81221b0106db3c02b9a2042bb4636dcdab911dacd6dc",
}


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
    assert f"outputs_sha256={OUTPUTS_SHA256[workload]} (first pass)" in proc.stdout.splitlines()
