"""The replay loop: apply a fixed update sequence to a state, with checks.

The paper's guarantees hold for any sequence an oblivious adversary fixes in
advance, so every claim here is checked by replaying such a sequence.  This
module is the one place that times each update, verifies the state, checks
the 3/2 ratio against the exact optimum and counts procedure calls.  The caller builds the
:class:`~dynmatch.core.State` (seed, threshold, observer) and passes any
iterable of :class:`~dynmatch.workload.UpdateOp`; anything else it wants to
see per update goes through the ``on_update`` callback.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import State
from .engine import apply_update
from .verifier import ViolationReport, check_invariants, check_ratio
from .workload import UpdateOp


@dataclass
class ReplayResult:
    report: ViolationReport | None = None  # the first dirty report, if any
    dirty_at: int | None = None  # index of the update after which a check failed
    updates: int = 0  # updates applied
    update_ns: int = 0  # wall time inside apply_update, summed over the updates
    max_trace: int = 0
    procedures: Counter = field(default_factory=Counter)


def replay(
    state: State,
    ops: Iterable[UpdateOp],
    *,
    verify_every: int | None = None,
    oracle: bool = False,
    on_update: Callable[[int, UpdateOp, list, int], None] | None = None,
) -> ReplayResult:
    """Apply ``ops`` to ``state`` in order, stopping at the first failed check.

    ``verify_every``: 1 runs :func:`check_invariants` after every update, k
    after every k-th, 0 only at the end, None never; unless it is None the
    final state is always checked.  With ``oracle``, :func:`check_ratio`
    runs after every update; a failure stops the loop with no report.
    ``on_update(i, op, calls, elapsed_ns)`` runs
    after each update, before its checks.
    """
    result = ReplayResult()
    procedures = result.procedures
    perf = time.perf_counter_ns
    i = -1
    verified = None  # index of the last update the loop verified
    for i, op in enumerate(ops):
        t0 = perf()
        calls = apply_update(state, op.kind, op.u, op.v)
        elapsed = perf() - t0
        result.update_ns += elapsed
        if len(calls) > result.max_trace:
            result.max_trace = len(calls)
        procedures.update([c[0] for c in calls])
        if on_update is not None:
            on_update(i, op, calls, elapsed)
        if verify_every and (i + 1) % verify_every == 0:
            verified = i
            report = check_invariants(state)
            if not report.ok:
                result.report, result.dirty_at = report, i
                break
        if oracle and not check_ratio(state):
            result.dirty_at = i
            break
    result.updates = i + 1
    if verify_every is not None and result.dirty_at is None and verified != i:
        report = check_invariants(state)
        if not report.ok:
            result.report, result.dirty_at = report, i
    return result
