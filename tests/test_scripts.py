"""The experiments README documents run to completion on ``src/``.

``pipeline_demo.py`` exits 1 on a failing ledger line and ``u4_timing.py``
on a mismatch with the definition-chasing oracle, so exit status 0 is the
check.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["pipeline_demo.py"], ["rank_census.py"], ["u4_timing.py", "5"]])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
