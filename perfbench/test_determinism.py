"""The benchmark repeats itself exactly: run each workload twice with one
seed and compare the input digests, the output digests and the exact
counts (simulation counter deltas, cover and verification counts).

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    witness = {line.split(" ")[0]: line
               for line in lines if line.startswith(("input digest", "exact counts"))}
    return witness, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["cold_cover", "cold_sim", "campaign_warm", "serve_open"])
def test_same_seed_same_digests_and_counts(workload):
    first, result = run_once(workload, 7)
    second, again = run_once(workload, 7)
    assert result["correct"] and again["correct"]
    assert result["failed"] == again["failed"] == 0
    assert first == second
    assert "input" in first
    if workload != "serve_open":
        # Serving interleaves two worker threads over shared caches, so
        # only its reports, not its counter totals, are exact.
        assert "exact" in first


def test_another_seed_other_inputs():
    first, _ = run_once("cold_sim", 7)
    other, _ = run_once("cold_sim", 8)
    assert first["input"] != other["input"]
