"""``tools/ab.py``, the paired in-process A/B: an A/A run at smoke size must
find identical fingerprints.  No timing is asserted.  Bytecode writing is
off, so the tests leave no file behind."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


@pytest.mark.parametrize("workload", ["star-churn", "sparse-large"])
def test_a_against_itself_has_identical_fingerprints(workload):
    proc = subprocess.run(
        [sys.executable, str(AB), str(ROOT), str(ROOT), "--workload", workload,
         "--smoke", "--rounds", "2"],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "fingerprints: identical" in lines
    assert [line.split()[0] for line in lines[-2:]] == ["set-up", "replay"]


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
