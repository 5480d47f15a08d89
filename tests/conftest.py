import sys
from pathlib import Path

import pytest

from dynmatch.core import EMPTY_SET

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_shared_set_empty():
    """Every state in the process shares EMPTY_SET, so a write into it
    corrupts every container that was never written."""
    assert not EMPTY_SET and EMPTY_SET._items == (), f"shared empty written: {EMPTY_SET!r}"


@pytest.fixture(autouse=True)
def shared_set_stays_empty():
    """Fail the test that writes into the shared empty container, and empty
    it again so that later tests run on an intact structure."""
    yield
    try:
        assert_shared_set_empty()
    finally:
        EMPTY_SET.clear()
        EMPTY_SET._items = ()


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
