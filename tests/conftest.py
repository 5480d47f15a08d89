import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def dmbench():
    """The benchmark's ``dmbench`` package, imported from ``perfbench/``
    with bytecode writing off, so nothing under it is written."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import dmbench.replay
        import dmbench.tracing
        import dmbench.workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return dmbench
