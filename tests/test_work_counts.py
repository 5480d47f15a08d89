"""Deterministic work counts of the benchmark's smoke workloads.

Each smoke workload is replayed at seed 1 through the benchmark's own traced
pass, ``dmbench.tracing.traced_pass``, from the same serialized text and the
same fresh state the benchmark builds.  The traced pass wraps every layer's
public functions, the free index's ``insert``/``delete``/``get_free``
included, and writes no spans file; so this test also fails when a change
to the package breaks the benchmark's traced run (``--trace 1``).

The counts depend only on the engine's trajectory and on where it indexes a
free vertex, not on a timer, so they guard free-index upkeep against
regression on any box.  The same holds for the number of ownership lists and
free indexes a pass writes, each of which costs an allocation that a vertex
never written does not make.  A pin moves only with an intended change to
that work: such a change updates the constants below and says why.
"""

from array import array

import pytest

from conftest import PIN_CONTEXT
from dynmatch import workload
from dynmatch.core import EMPTY_SET

SEED = 1

# (free-index insert calls, free-index delete calls), taken on CPython
# 3.11.7: they rest on set iteration order (ROADMAP "Small: Set order"), so
# a failure names the interpreter it ran on
PINNED_FREE_INDEX_CALLS = {
    # an insert between two free vertices indexes neither
    "sparse-large": (2_283, 1_897),
    # a deleted matched edge settles its lower-degree endpoint first, so the
    # hub is no longer indexed at every spoke only to be unindexed at once
    "star-churn": (1_257, 1_257),
}


@pytest.mark.parametrize("name", sorted(PINNED_FREE_INDEX_CALLS))
def test_free_index_calls_pinned(name, dmbench):
    spec = dmbench.workloads.spec_for(name, smoke=True)
    seq = workload.parse(dmbench.workloads.make_text(spec, SEED))
    times = array("q", bytes(8 * len(seq.ops)))
    res, _, layer = dmbench.tracing.traced_pass(seq, SEED, times)
    assert res.failed == 0, res.error
    assert res.attempted == len(seq.ops)
    calls = (layer["core.free_index.insert.calls"], layer["core.free_index.delete.calls"])
    assert calls == PINNED_FREE_INDEX_CALLS[name], PIN_CONTEXT
    # every delete_from_f_list call erases an entry
    assert layer["engine.delete_from_f_list.noop_calls"] == 0


# (ownership lists, free indexes) written in a pass, the rest staying the
# shared empties; of n = 4096 and n = 256 vertices
PINNED_WRITTEN_CONTAINERS = {
    "sparse-large": (2_451, 1_363),
    "star-churn": (256, 256),
}


@pytest.mark.parametrize("name", sorted(PINNED_WRITTEN_CONTAINERS))
def test_written_containers_pinned(name, dmbench):
    spec = dmbench.workloads.spec_for(name, smoke=True)
    seq, state = dmbench.replay.parse_and_build(dmbench.workloads.make_text(spec, SEED), SEED)
    largest, checks = dmbench.workloads.checkpoints(seq.ops)
    times = array("q", bytes(8 * len(seq.ops)))
    res = dmbench.replay.replay(seq, state, checks, largest, times)
    assert res.failed == 0, res.error
    written = (
        sum(o is not EMPTY_SET for o in state.owners),
        sum(f is not EMPTY_SET for f in state.free_index),
    )
    assert written == PINNED_WRITTEN_CONTAINERS[name]
