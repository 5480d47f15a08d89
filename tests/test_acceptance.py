"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy by design (several hundred thousand verified updates); the whole
module runs in a few minutes.  Run `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines as they complete.
"""

import time

import pytest

from dynmatch import (
    Config,
    EpochTracker,
    RunStats,
    State,
    extend_with_teardown,
    gen_random,
    replay,
)
from dynmatch.engine import PROCEDURE_NAMES


def _verified_runs(count, n, t, gen_seed, engine_seed, *, threshold=None, oracle=False):
    """``count`` verified replays of random sequences, keyed by engine seed,
    and the wall time they took.  Each replay stops at its first violation."""
    t0 = time.perf_counter()
    runs = {}
    for s in range(count):
        state = State(Config(n=n, threshold=threshold, seed=engine_seed + s))
        seq = gen_random(n, t, 0.6, seed=gen_seed + s)
        runs[engine_seed + s] = replay(state, seq.ops, verify_every=1, oracle=oracle)
    return runs, time.perf_counter() - t0


def _dirty(runs):
    """One line per replay that stopped at a violation."""
    return [
        f"seed={seed} update={r.dirty_at}\n"
        + (r.report.to_text() if r.report is not None else "ratio violated")
        for seed, r in runs.items()
        if r.dirty_at is not None
    ]


@pytest.fixture(scope="module")
def crit1(request):
    return _verified_runs(100, 64, 5000, 0, 10_000)


@pytest.fixture(scope="module")
def crit2(request):
    return _verified_runs(200, 16, 2000, 500, 20_000, threshold=2)


@pytest.fixture(scope="module")
def crit3(request):
    return _verified_runs(500, 12, 120, 3000, 30_000, oracle=True)


@pytest.fixture(scope="module")
def crit56(request):
    """Extended (teardown) replays of the criterion-1 sequences, with epochs."""
    t0 = time.perf_counter()
    runs = []
    closure_failures = []
    for s in range(100):
        seq = gen_random(64, 5000, 0.6, seed=s)
        ext = extend_with_teardown(seq)
        if len(ext.ops) > 2 * len(seq.ops):
            closure_failures.append(f"seed {s}: extended length {len(ext.ops)}")
            continue
        state = State(Config(n=64, seed=10_000 + s))
        tracker = EpochTracker()
        state.observer = tracker
        replay(state, ext.ops)
        empty = (
            state.edge_count == 0
            and state.matching_size == 0
            and all(len(o) == 0 for o in state.owners)
            and all(len(f) == 0 for f in state.free_index)
        )
        if not empty:
            closure_failures.append(
                f"seed {s}: edges={state.edge_count} |M|={state.matching_size}"
            )
        runs.append((s, len(ext.ops), state.threshold, tracker))
    return runs, closure_failures, time.perf_counter() - t0


def test_criterion_1_invariants(crit1):
    runs, elapsed = crit1
    dirty = _dirty(runs)
    updates = sum(r.updates for r in runs.values())
    ok = not dirty
    print(
        f"\nACCEPTANCE 1 invariant suite: {'PASS' if ok else 'FAIL'} "
        f"({updates} verified updates, {len(dirty)} violations, "
        f"{elapsed:.0f}s)"
    )
    assert ok, dirty[0]


def test_criterion_2_small_threshold(crit2):
    runs, elapsed = crit2
    dirty = _dirty(runs)
    updates = sum(r.updates for r in runs.values())
    missing = set(PROCEDURE_NAMES).difference(*(r.procedures for r in runs.values()))
    ok = not dirty and not missing
    print(
        f"\nACCEPTANCE 2 small-threshold stress: {'PASS' if ok else 'FAIL'} "
        f"({updates} verified updates, {len(dirty)} violations, "
        f"procedures missing: {sorted(missing) or 'none'}, {elapsed:.0f}s)"
    )
    assert not dirty, dirty[0]
    assert not missing, f"never exercised: {missing}"


def test_criterion_3_approximation_ratio(crit3):
    runs, elapsed = crit3
    dirty = _dirty(runs)
    # every applied update is ratio-checked: the oracle answers at any size
    updates = sum(r.updates for r in runs.values())
    violations = sum(r.report is not None for r in runs.values())
    failed = len(dirty) - violations
    ok = not dirty and updates == 500 * 120
    print(
        f"\nACCEPTANCE 3 approximation ratio: {'PASS' if ok else 'FAIL'} "
        f"({updates} oracle comparisons, {failed} ratio failures, "
        f"{violations} invariant violations, {elapsed:.0f}s)"
    )
    assert not dirty, dirty[0]
    assert updates == 500 * 120, f"{updates} of {500 * 120} updates checked"


def test_criterion_4_procedure_call_bound(crit1, crit2, crit3):
    worst = max(r.max_trace for c in (crit1, crit2, crit3) for r in c[0].values())
    ok = worst <= 30
    print(
        f"\nACCEPTANCE 4 procedure-call bound: {'PASS' if ok else 'FAIL'} "
        f"(max trace length {worst} <= 30)"
    )
    assert ok, f"trace of length {worst} exceeds the 30-call bound"


def test_criterion_5_teardown_closure(crit56):
    runs, closure_failures, elapsed = crit56
    ok = not closure_failures and len(runs) == 100
    print(
        f"\nACCEPTANCE 5 teardown closure: {'PASS' if ok else 'FAIL'} "
        f"({len(runs)} extended runs, {len(closure_failures)} failures, "
        f"{elapsed:.0f}s)"
    )
    assert ok, closure_failures[:3]


def test_criterion_6_good_epoch_set_bound(crit56):
    runs, _, _ = crit56
    over = []
    good_total = bad_total = 0
    for s, t_ext, threshold, tracker in runs:
        counts = tracker.set_counts()
        assert counts["live"] == 0  # teardown ends with an empty matching
        good_total += counts["good"]
        bad_total += counts["bad"]
        bound = 3 * t_ext / threshold
        if counts["good"] > bound:
            over.append(f"seed {s}: {counts['good']} good sets > {bound:.0f}")
    done = good_total + bad_total
    frac = bad_total / done if done else 0.0
    ok = not over
    print(
        f"\nACCEPTANCE 6 good-epoch-set bound: {'PASS' if ok else 'FAIL'} "
        f"({good_total} good / {bad_total} bad sets over 100 runs; "
        f"observed bad fraction {frac:.3f} vs 1/3 per-set bound, informational)"
    )
    assert ok, over[:3]


def test_criterion_7_scaling_informational():
    cells = []
    for n in (4096, 16384, 65536):
        t = 10 * n
        seq = gen_random(n, t, 0.6, seed=7)
        state = State(Config(n=n, seed=77))
        cells.append((n, replay(state, seq.ops).update_ns / 1e9 / t))
    factors = [b / a for (_, a), (_, b) in zip(cells, cells[1:])]
    within = all(f <= 3.0 for f in factors)
    detail = ", ".join(f"n={n}: {1e6 * a:.1f}us" for n, a in cells)
    print(
        f"\nACCEPTANCE 7 scaling (informational): "
        f"{'consistent with sqrt(n)' if within else 'trend exceeded 3x per 4x n'} "
        f"({detail}; growth factors {[f'{f:.2f}' for f in factors]})"
    )
    assert len(cells) == 3 and all(a > 0 for _, a in cells)


def test_criterion_8_determinism():
    seq = gen_random(64, 5000, 0.6, seed=0)
    trajectories = []
    docs = []
    for _ in range(2):
        state = State(Config(n=64, seed=10_000))
        tracker = EpochTracker()
        state.observer = tracker
        stats = RunStats(n=64, threshold=state.threshold, seed=10_000, tracker=tracker)
        record = stats.recorder(state)
        mates = []

        def on_update(i, op, calls, elapsed_ns):
            record(i, op, calls, elapsed_ns)
            mates.append(hash(tuple(state.mate)))

        replay(state, seq.ops, on_update=on_update)
        doc = stats.to_dict()
        del doc["timing"]
        trajectories.append(mates)
        docs.append(doc)
    ok = trajectories[0] == trajectories[1] and docs[0] == docs[1]
    print(f"\nACCEPTANCE 8 determinism: {'PASS' if ok else 'FAIL'} "
          f"(identical matching trajectory and metrics across replays)")
    assert ok
