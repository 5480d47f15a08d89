"""``tools/ab.py``, the paired in-process A/B: an A/A run at smoke size must
find identical fingerprints and equal tracemalloc peaks, and print each
phase's times and GC counts and the per-update percentiles; a usage error
exits 2, never 1, which means the fingerprints differ.  No timing is
asserted.  Bytecode writing is off, so the tests leave no file
behind."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def run_ab(a, b, workload, rounds="2"):
    return subprocess.run(
        [sys.executable, str(AB), str(a), str(b), "--workload", workload,
         "--smoke", "--rounds", rounds],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", ["star-churn", "sparse-large"])
def test_a_against_itself_has_identical_fingerprints(workload):
    proc = run_ab(ROOT, ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "fingerprints: identical" in lines
    peak = re.fullmatch(r"peak +A (\d+\.\d{4}) MiB +B (\d+\.\d{4}) MiB", lines[-6])
    assert peak and peak[1] == peak[2] and float(peak[1]) > 0, lines[-6]
    assert [line.split()[0] for line in lines[-5:-1]] == ["set-up"] * 2 + ["replay"] * 2
    for line in lines[-5:-1:2]:
        assert re.search(r" B/A \d", line), line
    for line in lines[-4:-1:2]:
        assert re.search(r" gc0/1/2 per pass +A [\d.]+(/[\d.]+){2} +B [\d.]+(/[\d.]+){2}$", line), line
    us = r"\d+\.\d\d us"
    assert re.fullmatch(rf"update +p50 A {us} +B {us} +p99\.9 A {us} +B {us}", lines[-1]), lines[-1]


@pytest.mark.parametrize("a, workload, rounds, message", [
    (ROOT, "nope", "2", "unknown workload 'nope'"),
    (ROOT / "tools", "star-churn", "2", "no dynmatch source under"),
    (ROOT, "star-churn", "1", "--rounds must be >= 2"),
], ids=["unknown-workload", "missing-tree", "one-round"])
def test_usage_errors_exit_2(a, workload, rounds, message):
    proc = run_ab(a, ROOT, workload, rounds)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""

