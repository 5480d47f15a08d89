import sys
from pathlib import Path

import pytest

from dynmatch.core import EMPTY_FREE, EMPTY_OWNED, FreeNeighborIndex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def index_free(s, w, u):
    """Put u in F(w) as the engine does: w's first entry replaces the
    shared EMPTY_FREE with a fresh index."""
    fi = s.free_index[w]
    if fi is EMPTY_FREE:
        fi = s.free_index[w] = FreeNeighborIndex()
    fi.insert(u)


def assert_shared_empties_empty():
    """Every state in the process shares EMPTY_OWNED and EMPTY_FREE, so a
    write into either corrupts every vertex that was never written."""
    for empty in (EMPTY_OWNED, EMPTY_FREE):
        assert not empty and empty._items == (), f"shared empty written: {empty!r}"


@pytest.fixture(autouse=True)
def shared_empties_stay_empty():
    """Fail the test that writes into a shared empty container, and put the
    empties back so that later tests run on an intact structure."""
    yield
    try:
        assert_shared_empties_empty()
    finally:
        for empty in (EMPTY_OWNED, EMPTY_FREE):
            empty.clear()
            empty._items = ()


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
