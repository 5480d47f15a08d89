import importlib
from collections import Counter

import pytest

from dynmatch import (
    Config,
    State,
    Violation,
    ViolationReport,
    apply_update,
    gen_named,
    gen_random,
    replay,
)

replay_mod = importlib.import_module("dynmatch.replay")  # the package's `replay` is the function
CLEAN = ViolationReport([])
DIRTY = ViolationReport([Violation("1a", (0,), "forced for test")])


def seven_ops():
    seq = gen_random(8, 7, 1.0, 0)
    assert len(seq.ops) == 7
    return seq


@pytest.fixture
def verified_at(monkeypatch):
    """Update indices at which replay calls check_invariants."""
    seen = []

    def check(state):
        seen.append(state.update_index)
        return CLEAN

    monkeypatch.setattr(replay_mod, "check_invariants", check)
    return seen


@pytest.mark.parametrize(
    "verify_every, expected",
    [
        (1, [0, 1, 2, 3, 4, 5, 6]),
        (3, [2, 5, 6]),  # the final state is checked off the stride
        (7, [6]),
        (9, [6]),
        (0, [6]),
        (None, []),
    ],
)
def test_verified_indices(verified_at, verify_every, expected):
    seq = seven_ops()
    result = replay(State(Config(n=seq.n)), seq.ops, verify_every=verify_every)
    assert verified_at == expected
    assert result.updates == 7 and result.dirty_at is None


def test_empty_sequence_checks_the_given_state(verified_at):
    assert replay(State(Config(n=4)), [], verify_every=5).updates == 0
    assert verified_at == [-1]


@pytest.mark.parametrize("verify_every, dirty_at", [(1, 3), (2, 3), (3, 5), (0, 6)])
def test_stops_at_first_dirty_report(monkeypatch, verify_every, dirty_at):
    monkeypatch.setattr(
        replay_mod, "check_invariants", lambda s: DIRTY if s.update_index >= 3 else CLEAN
    )
    seq = seven_ops()
    state = State(Config(n=seq.n))
    result = replay(state, seq.ops, verify_every=verify_every)
    assert result.dirty_at == dirty_at
    assert result.report is DIRTY
    assert result.updates == dirty_at + 1 == state.update_index + 1


def test_ratio_failure_stops_without_a_report(monkeypatch):
    monkeypatch.setattr(replay_mod, "check_ratio", lambda s: s.update_index < 2)
    seq = seven_ops()
    result = replay(State(Config(n=seq.n)), seq.ops, verify_every=1, oracle=True)
    assert (result.dirty_at, result.updates, result.report) == (2, 3, None)


def test_counts_match_an_explicit_loop():
    seq = gen_named("star-churn", 64, 0)
    state = State(Config(n=seq.n))
    traces = [apply_update(state, op.kind, op.u, op.v) for op in seq.ops]

    state = State(Config(n=seq.n))
    seen = []
    result = replay(
        state, iter(seq.ops), on_update=lambda i, op, calls, ns: seen.append((i, op, calls))
    )
    assert seen == list(zip(range(len(traces)), seq.ops, traces))
    assert result.updates == len(seq.ops)
    assert result.max_trace == max(map(len, traces))
    assert result.procedures == Counter(c[0] for t in traces for c in t)
    assert result.update_ns > 0
