"""The benchmark's smoke passes, run as the benchmark runs them: each
workload replays its tiny sequence, verifies the end state and prints a
result line that must read correct with no failed update.  Bytecode
writing is off, so the runs leave no file behind."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["star-churn", "sparse-large"])
def test_smoke_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
