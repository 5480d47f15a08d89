"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy by design (several hundred thousand verified updates); the whole
module runs in a few minutes.  Run `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines as they complete.
"""

import time
from collections import Counter
from dataclasses import dataclass, field

import pytest

from dynmatch import (
    Config,
    EpochTracker,
    State,
    brute_force_mcm,
    check_invariants,
    extend_with_teardown,
    gen_random,
)
from dynmatch.engine import PROCEDURE_NAMES, apply_update


@dataclass
class Aggregate:
    updates: int = 0
    violations: int = 0
    first_failure: str | None = None
    max_trace: int = 0
    procedures: Counter = field(default_factory=Counter)
    elapsed: float = 0.0


def _replay_checked(seq, *, seed, threshold=None, verify_every=1, agg=None):
    """Replay with per-update verification, accumulating into ``agg``."""
    agg = agg if agg is not None else Aggregate()
    state = State(Config(n=seq.n, threshold=threshold, seed=seed))
    t0 = time.perf_counter()
    for i, op in enumerate(seq.ops):
        calls = apply_update(state, op.kind, op.u, op.v)
        if len(calls) > agg.max_trace:
            agg.max_trace = len(calls)
        for entry in calls:
            agg.procedures[entry[0]] += 1
        if verify_every and (i + 1) % verify_every == 0:
            rep = check_invariants(state)
            if not rep.ok:
                agg.violations += 1
                if agg.first_failure is None:
                    agg.first_failure = (
                        f"seed={seed} update={i} op={op}\n{rep.to_text()}"
                    )
    agg.updates += len(seq.ops)
    agg.elapsed += time.perf_counter() - t0
    return agg, state


@pytest.fixture(scope="module")
def crit1(request):
    agg = Aggregate()
    for s in range(100):
        seq = gen_random(64, 5000, 0.6, seed=s)
        _replay_checked(seq, seed=10_000 + s, verify_every=1, agg=agg)
    return agg


@pytest.fixture(scope="module")
def crit2(request):
    agg = Aggregate()
    for s in range(200):
        seq = gen_random(16, 2000, 0.6, seed=500 + s)
        _replay_checked(seq, seed=20_000 + s, threshold=2, verify_every=1, agg=agg)
    return agg


@pytest.fixture(scope="module")
def crit3(request):
    agg = Aggregate()
    ratio_failures = 0
    t0 = time.perf_counter()
    for s in range(500):
        seq = gen_random(12, 120, 0.6, seed=3000 + s)
        state = State(Config(n=12, seed=30_000 + s))
        for i, op in enumerate(seq.ops):
            trace = apply_update(state, op.kind, op.u, op.v)
            if len(trace) > agg.max_trace:
                agg.max_trace = len(trace)
            for entry in trace:
                agg.procedures[entry[0]] += 1
            rep = check_invariants(state)
            if not rep.ok:
                agg.violations += 1
                if agg.first_failure is None:
                    agg.first_failure = f"seed {s} update {i}: {rep.to_text()}"
            optimum = brute_force_mcm(state.adj)
            size = state.matching_size
            if 2 * optimum > 3 * size or size < -(-2 * optimum // 3):
                ratio_failures += 1
                if agg.first_failure is None:
                    agg.first_failure = (
                        f"seed {s} update {i}: optimum={optimum} |M|={size}"
                    )
            agg.updates += 1
    agg.elapsed = time.perf_counter() - t0
    return agg, ratio_failures


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
        for op in ext.ops:
            apply_update(state, op.kind, op.u, op.v)
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
    ok = crit1.violations == 0
    print(
        f"\nACCEPTANCE 1 invariant suite: {'PASS' if ok else 'FAIL'} "
        f"({crit1.updates} verified updates, {crit1.violations} violations, "
        f"{crit1.elapsed:.0f}s)"
    )
    assert ok, crit1.first_failure


def test_criterion_2_small_threshold(crit2):
    missing = set(PROCEDURE_NAMES) - set(crit2.procedures)
    ok = crit2.violations == 0 and not missing
    print(
        f"\nACCEPTANCE 2 small-threshold stress: {'PASS' if ok else 'FAIL'} "
        f"({crit2.updates} verified updates, {crit2.violations} violations, "
        f"procedures missing: {sorted(missing) or 'none'}, {crit2.elapsed:.0f}s)"
    )
    assert crit2.violations == 0, crit2.first_failure
    assert not missing, f"never exercised: {missing}"


def test_criterion_3_approximation_ratio(crit3):
    agg, ratio_failures = crit3
    ok = ratio_failures == 0 and agg.violations == 0
    print(
        f"\nACCEPTANCE 3 approximation ratio: {'PASS' if ok else 'FAIL'} "
        f"({agg.updates} oracle comparisons, {ratio_failures} ratio failures, "
        f"{agg.violations} invariant violations, {agg.elapsed:.0f}s)"
    )
    assert ok, agg.first_failure


def test_criterion_4_procedure_call_bound(crit1, crit2, crit3):
    worst = max(crit1.max_trace, crit2.max_trace, crit3[0].max_trace)
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
        t0 = time.perf_counter()
        for op in seq.ops:
            apply_update(state, op.kind, op.u, op.v)
        amortized = (time.perf_counter() - t0) / t
        cells.append((n, amortized))
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
    fingerprints = []
    docs = []
    for _ in range(2):
        state = State(Config(n=64, seed=10_000))
        tracker = EpochTracker()
        state.observer = tracker
        from dynmatch.metrics import RunStats

        stats = RunStats(n=64, threshold=state.threshold, seed=10_000, tracker=tracker)
        fp = 0
        for i, op in enumerate(seq.ops):
            trace = apply_update(state, op.kind, op.u, op.v)
            stats.record_update(
                i, op.kind, op.u, op.v, [c[0] for c in trace], state.matching_size, 0
            )
            fp = hash((fp, tuple(state.mate)))
        stats.final_edge_count = state.edge_count
        stats.final_matching_size = state.matching_size
        doc = stats.to_dict()
        del doc["timing"]
        fingerprints.append(fp)
        docs.append(doc)
    ok = fingerprints[0] == fingerprints[1] and docs[0] == docs[1]
    print(f"\nACCEPTANCE 8 determinism: {'PASS' if ok else 'FAIL'} "
          f"(identical matching trajectory and metrics across replays)")
    assert ok
