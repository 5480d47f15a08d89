"""Deterministic work counts of the benchmark's smoke workloads.

Each smoke workload is replayed at seed 1, in-process and untimed, from the
same serialized text and the same fresh state the benchmark builds, with
``FreeNeighborIndex.insert`` and ``delete`` wrapped to count their calls.
The counts depend only on the engine's trajectory and on where it indexes a
free vertex, not on a timer, so they guard free-index upkeep against
regression on any box.  A pin moves only with an intended change to that
work: such a change updates the constants below and says why.
"""

import pytest

from dynmatch import FreeNeighborIndex, replay, workload

SEED = 1

# (FreeNeighborIndex.insert calls, FreeNeighborIndex.delete calls)
PINNED_FREE_INDEX_CALLS = {
    # an insert between two free vertices indexes neither
    "sparse-large": (2_283, 1_897),
    "star-churn": (2_015, 2_015),
}


@pytest.mark.parametrize("name", sorted(PINNED_FREE_INDEX_CALLS))
def test_free_index_calls_pinned(name, dmbench, monkeypatch):
    counts = {"insert": 0, "delete": 0}
    insert, delete = FreeNeighborIndex.insert, FreeNeighborIndex.delete

    def counted_insert(fi, u):
        counts["insert"] += 1
        insert(fi, u)

    def counted_delete(fi, u):
        counts["delete"] += 1
        delete(fi, u)

    monkeypatch.setattr(FreeNeighborIndex, "insert", counted_insert)
    monkeypatch.setattr(FreeNeighborIndex, "delete", counted_delete)
    spec = dmbench.workloads.spec_for(name, smoke=True)
    seq = workload.parse(dmbench.workloads.make_text(spec, SEED))
    result = replay(dmbench.replay.new_state(seq.n, SEED), seq.ops, verify_every=0)
    assert result.report is None, result.report.to_text()
    assert (counts["insert"], counts["delete"]) == PINNED_FREE_INDEX_CALLS[name]
