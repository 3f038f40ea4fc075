"""Smoke test of the benchmark: one tiny pass of every workload.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced at the smallest sizes.
Both runs must check every output without a failure, and the traced run
must produce the same output digest as the untraced one.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest:"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_checks_every_output_and_traced_digest_matches(workload):
    plain, plain_digest = _run(workload, 0)
    traced, traced_digest = _run(workload, 1)
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] / result["attempted"] == 0
    assert traced_digest == plain_digest
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
