"""``tools/ab.py``, the paired in-process A/B: an A/A run at smoke size must
find identical fingerprints, and a usage error exits 2, never 1, which
means the fingerprints differ.  No timing is asserted.  Bytecode writing
is off, so the tests leave no file behind."""

import importlib.util
import os
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
    assert [line.split()[0] for line in lines[-2:]] == ["set-up", "replay"]


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


def test_sign_test_p_values():
    spec = importlib.util.spec_from_file_location("ab_tool", AB)
    ab = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(ab)
    finally:
        sys.dont_write_bytecode = dont_write
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2 / 1024
    assert ab.sign_test(9, 1) == 2 * 11 / 1024
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(0, 0) == 1.0
