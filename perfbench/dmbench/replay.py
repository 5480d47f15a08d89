"""The replay loop shared by every pass, and the end-to-end metrics.

A pass applies every op in order to a fresh ``State`` from one caller, each
after the previous one returns (a closed loop with one client and no
threads).  Each update is timed on its own; the verifier runs at the
checkpoints between updates, outside the timed intervals.  A pass also
returns its deterministic outputs, which must repeat exactly across passes
and runs with the same seed.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

from dynmatch import core, engine, verifier, workload

from .workloads import checkpoints

SETUP_MIN_S = 0.25
SETUP_MAX_REPS = 5


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    error: str | None = None
    matching_sum: int = 0
    final_matching: int = 0
    final_edges: int = 0
    procedures: dict[str, int] = field(default_factory=dict)
    trace_len_hist: dict[int, int] = field(default_factory=dict)
    verify_ns: list[int] = field(default_factory=list)

    def fingerprint(self) -> dict:
        """Outputs that depend only on the code, the workload and the seed."""
        return {
            "attempted": self.attempted,
            "final_matching_size": self.final_matching,
            "final_edge_count": self.final_edges,
            "matching_size_sum": self.matching_sum,
            "procedure_calls": dict(sorted(self.procedures.items())),
            "trace_len_hist": {str(k): v for k, v in sorted(self.trace_len_hist.items())},
        }


def new_state(n: int, seed: int) -> core.State:
    return core.State(core.Config(n=n, seed=seed))


def parse_and_build(text: str, seed: int):
    """What a user waits for before the first update: parse plus State()."""
    seq = workload.parse(text)
    return seq, new_state(seq.n, seed)


def replay(seq, state, checks, largest, times, hooks=None) -> Pass:
    """Apply ``seq.ops`` to ``state``, timing each update into ``times``.

    ``checks`` holds the op indices after which ``check_invariants`` runs;
    at ``largest`` it is also timed.  A raised update or a failed
    checkpoint counts as failed and ends the pass.  ``hooks``, used by the
    traced run, is told about every update.
    """
    res = Pass()
    if hooks is not None:
        hooks.attach(state)
    perf = time.perf_counter_ns
    apply = engine.apply_update
    procs = res.procedures
    hist = res.trace_len_hist
    msum = 0
    i = -1
    try:
        for i, op in enumerate(seq.ops):
            k, u, v = op.kind, op.u, op.v
            if hooks is not None:
                hooks.begin(i)
            t0 = perf()
            trace = apply(state, k, u, v)
            dt = perf() - t0
            times[i] = dt
            # apply_update returns the update's procedure calls, as a
            # ProcedureTrace or as a plain list of call tuples.
            calls = getattr(trace, "calls", trace)
            hist[len(calls)] = hist.get(len(calls), 0) + 1
            for c in calls:
                procs[c[0]] = procs.get(c[0], 0) + 1
            msum += state.matching_size
            if hooks is not None:
                hooks.end(i, k, u, v, calls, dt)
            if i in checks:
                report = verifier.check_invariants(state)
                if i == largest:
                    res.verify_ns = _time_verify(state)
                if not report.ok:
                    res.attempted = i + 1
                    res.failed = 1
                    res.error = f"invariants fail after op {i}:\n" + report.to_text()
                    return res
    except Exception as exc:  # a raised update is a counted failure, not a crash
        res.attempted = i + 1
        res.failed = 1
        res.error = f"op {i} raised {exc!r}"
        return res
    res.attempted = len(seq.ops)
    res.matching_sum = msum
    res.final_matching = state.matching_size
    res.final_edges = state.edge_count
    return res


def _time_verify(state) -> list[int]:
    """ns per check_invariants call on the largest state.

    The call is repeated 300k / (n + m) times (3 to 15), the same count in
    every pass, traced or not: tens of samples over a run, so that their
    mean, like the update times, spans the box's slow and fast stretches.
    """
    reps = max(3, min(15, 300_000 // (state.n + state.edge_count)))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        verifier.check_invariants(state)
        samples.append(time.perf_counter_ns() - t0)
    return samples


def memory_pass(seq, seed) -> tuple[float, Pass]:
    """tracemalloc peak (MiB) over State construction plus a full replay.

    Unchecked while tracing: the verifier's own sets would count.  The
    trajectory is the one the checked passes verified.
    """
    times = array("q", bytes(8 * len(seq.ops)))
    gc.collect()
    tracemalloc.start()
    try:
        res = replay(seq, new_state(seq.n, seed), set(), -1, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, res


def _probe_ns() -> int:
    """A few milliseconds of fixed dict and set work; returns ns taken."""
    t0 = time.perf_counter_ns()
    d: dict[int, int] = {}
    s: set[int] = set()
    for i in range(20000):
        d[i & 1023] = i
        s.add(d.get((i * 7) & 1023, 0) & 4095)
    return time.perf_counter_ns() - t0


def pin_to_fastest_cpu(allowed) -> None:
    """Move this process to the CPU in ``allowed`` that runs a probe fastest.

    On a shared 2-vCPU box one CPU was seen running the same Python loop
    1.5-2x slower than the other for tens of seconds, and the scheduler has
    no reason to move a lone process off it.  Calling this before each pass
    keeps that placement from deciding the figures.
    """
    speeds = []
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_probe_ns() for _ in range(4)), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def timed_phase(text: str, seed: int, seconds: float, min_passes: int = 3):
    """Set up and replay full passes until ``seconds`` have passed.

    Each pass starts from the serialized text: parse plus State() is timed
    as the pass's set-up (repeated until SETUP_MIN_S are spent, so a short
    set-up gets several samples), then the replay is timed update by update.
    Spreading the set-ups over the whole phase, like the replays, keeps one
    burst of machine noise from deciding the set-up figure.  The first pass
    warms the interpreter and allocator and is checked but not timed.
    Returns the set-up seconds and update times (ns) of every timed pass,
    the Pass of every pass, and the last parsed sequence.
    """
    setups, passes, pass_times = [], [], []
    times = seq = None
    allowed = os.sched_getaffinity(0)
    start = time.perf_counter()
    while True:
        pin_to_fastest_cpu(allowed)
        spent = 0.0
        for _ in range(SETUP_MAX_REPS):
            seq = state = None
            gc.collect()
            t0 = time.perf_counter()
            seq, state = parse_and_build(text, seed)
            dt = time.perf_counter() - t0
            spent += dt
            if passes:
                setups.append(dt)
            if spent >= SETUP_MIN_S:
                break
        if times is None:
            times = array("q", bytes(8 * len(seq.ops)))
            largest, checks = checkpoints(seq.ops)
        res = replay(seq, state, checks, largest, times)
        del state
        if passes:
            pass_times.append(array("q", times[: res.attempted]))
        passes.append(res)
        if res.failed:
            break
        if len(passes) >= min_passes and time.perf_counter() - start >= seconds:
            break
    os.sched_setaffinity(0, allowed)
    return setups, passes, pass_times, seq


def latency_metrics(pass_times, is_insert) -> dict[str, float]:
    """End-to-end timings (us) over the timed passes.

    Passes replay the same trajectory, so update i does the same work in
    each.  On a shared box the same Python loop runs up to 2x slower for
    stretches of seconds, and how much of a run they cover moves from run
    to run.  The means are over every timed update of every pass, so they
    move in proportion to that share; a per-update median or minimum over
    a few passes can jump between the fast and the slow speed, and spread
    up to 2x more over sets of 10 runs.  The percentiles are over each
    update's median across the passes, which drops a stall that hit one
    pass only, while a slow update in every pass stays.
    """
    per_update = [statistics.median(ts) for ts in zip(*pass_times)]
    mean = [sum(ts) / len(ts) for ts in zip(*pass_times)]
    ordered = sorted(per_update)
    ins = [t for t, f in zip(mean, is_insert) if f]
    dels = [t for t, f in zip(mean, is_insert) if not f]
    return {
        "amortized_us": sum(mean) / len(mean) / 1e3,
        "update_p50_us": _pct(ordered, 0.50) / 1e3,
        "update_p999_us": _pct(ordered, 0.999) / 1e3,
        "insert_amortized_us": sum(ins) / len(ins) / 1e3 if ins else 0.0,
        "delete_amortized_us": sum(dels) / len(dels) / 1e3 if dels else 0.0,
    }


def _pct(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
