"""The traced run: spans around each layer's public functions.

Nothing in ``src/`` is edited.  For the length of a traced pass the
benchmark replaces the public functions of each layer with wrappers and puts
the originals back afterwards:

* engine: ``insert_edge``, ``delete_edge``, the eight procedures and the
  macros (free-list maintenance, ownership transfers, the augmenting-path
  probe) are looked up as module globals on every call, so patching the
  module catches the engine's own calls;
* verifier: ``check_invariants``;
* metrics: the hooks of the attached ``EpochTracker``;
* core: ``State.check_vertex``/``own_add``/``own_remove`` and
  ``FreeNeighborIndex.insert``/``delete``/``get_free``.

Each engine, verifier and metrics call becomes one span (name, start, end,
parent, update id), kept in memory and written out when the run ends.  Core
calls are far too many to keep one by one (star-churn makes ~7M free-index
deletes a pass), so their wrappers count calls and time at the boundary and
charge the time to the enclosing span; core calls are leaves, so that time
is their self time.  A span's self time is its duration minus its child
spans and the core time charged to it.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

from dynmatch import core, engine, metrics, verifier, workload

from .replay import new_state, replay
from .workloads import checkpoints

MACROS = (
    "check_3_aug_path",
    "transfer_ownership_from",
    "transfer_ownership_to",
    "take_ownership",
    "insert_to_f_list",
    "delete_from_f_list",
)
TRANSFERS = ("transfer_ownership_from", "transfer_ownership_to", "take_ownership")
LEAVES = (  # (metric stem, class, method)
    ("core.free_index.insert", core.FreeNeighborIndex, "insert"),
    ("core.free_index.delete", core.FreeNeighborIndex, "delete"),
    ("core.get_free", core.FreeNeighborIndex, "get_free"),
    ("core.check_vertex", core.State, "check_vertex"),
    ("core.own_add", core.State, "own_add"),
    ("core.own_remove", core.State, "own_remove"),
)


class Tracer:
    """Span store for one traced pass, in parallel columns."""

    COLUMNS = ("name", "start", "end", "parent", "update", "core_ns")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # int64 columns: a pass can hold millions of spans.
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.update = array("q")
        self.core_ns = array("q")
        self.stack: list[int] = []
        self.current_update = -1
        self.leaf_calls = [0] * len(LEAVES)
        self.leaf_ns = [0] * len(LEAVES)
        self.counts = {
            "free_index.delete.useful": 0,
            "delete_from_f_list.visits": 0,
            "delete_from_f_list.noop_calls": 0,
            "insert_to_f_list.visits": 0,
            "check_3_aug_path.hits": 0,
            "ownership_transfer.moves": 0,
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.update.append(self.current_update)
        self.core_ns.append(0)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> int:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()
        return self.end[idx] - self.start[idx]

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a span; returns (result, duration in ns)."""
        idx = self.open(name)
        result = fn(*args)
        return result, self.close(idx)

    def span(self, fn, name, pre=None, post=None):
        """Wrapper recording each call of fn as a span.

        ``pre(args)`` runs before the clock starts and its value goes to
        ``post(args, result, token)``, which runs after it stops.
        """
        nid = self._id(name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        update, core_ns, stack = self.update, self.core_ns, self.stack
        perf = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            update.append(tracer.current_update)
            core_ns.append(0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf()
            result = fn(*args, **kwargs)
            t1 = perf()
            stack.pop()
            start[idx] = t0
            end[idx] = t1
            if post is not None:
                post(args, result, token)
            return result

        return wrapper

    def leaf(self, fn, slot, useful=None):
        """Wrapper counting and timing a core call, charged to the open span."""
        calls, ns, core_ns, stack = self.leaf_calls, self.leaf_ns, self.core_ns, self.stack
        perf = time.perf_counter_ns
        if useful is None:
            def wrapper(*args):
                t0 = perf()
                result = fn(*args)
                dt = perf() - t0
                calls[slot] += 1
                ns[slot] += dt
                core_ns[stack[-1]] += dt
                return result
        else:
            counts = self.counts

            def wrapper(fi, u):
                hit = u in fi
                t0 = perf()
                result = fn(fi, u)
                dt = perf() - t0
                calls[slot] += 1
                ns[slot] += dt
                core_ns[stack[-1]] += dt
                if hit:
                    counts[useful] += 1
                return result
        return wrapper

    # -- analysis ------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i] - self.core_ns[i]
        return out

    def leaves(self) -> dict[str, dict[str, int]]:
        return {
            stem: {"calls": self.leaf_calls[i], "self_ns": self.leaf_ns[i]}
            for i, (stem, _, _) in enumerate(LEAVES)
        }

    def header(self) -> dict:
        """Everything but the span columns, which ``write_spans`` appends."""
        return {
            "names": self.names,
            "spans": len(self.name),
            "core": self.leaves(),
            "counts": self.counts,
        }


def write_spans(path, meta: dict, tracers: list[Tracer]) -> None:
    """One JSON header line, then each tracer's columns as raw int64.

    The header lists the tracers in order with their span counts; a reader
    takes ``spans`` values of each column in ``columns`` order, per tracer.
    """
    doc = dict(meta, columns=list(Tracer.COLUMNS), byteorder=sys.byteorder,
               tracers=[t.header() for t in tracers])
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(json.dumps(doc).encode() + b"\n")
        for t in tracers:
            for col in Tracer.COLUMNS:
                fh.write(getattr(t, col).tobytes())


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every traced layer function for the duration of the block."""
    counts = tracer.counts
    own_add_slot = next(i for i, (stem, _, _) in enumerate(LEAVES) if stem == "core.own_add")

    def visits_pre(key):
        def pre(args):
            state, u = args[0], args[1]
            counts[key] += len(state.adj[u])
            return counts["free_index.delete.useful"]
        return pre

    def dfl_post(args, result, useful_before):
        if counts["free_index.delete.useful"] == useful_before:
            counts["delete_from_f_list.noop_calls"] += 1

    def c3_post(args, result, token):
        if result is not None:
            counts["check_3_aug_path.hits"] += 1

    def transfer_pre(args):
        return tracer.leaf_calls[own_add_slot]

    def transfer_post(args, result, adds_before):
        counts["ownership_transfer.moves"] += tracer.leaf_calls[own_add_slot] - adds_before

    hooks = {
        "delete_from_f_list": (visits_pre("delete_from_f_list.visits"), dfl_post),
        "insert_to_f_list": (visits_pre("insert_to_f_list.visits"), None),
        "check_3_aug_path": (None, c3_post),
        **{name: (transfer_pre, transfer_post) for name in TRANSFERS},
    }
    patches = []  # (owner, attribute, original)
    for name in ("insert_edge", "delete_edge") + tuple(engine.PROCEDURE_NAMES) + MACROS:
        orig = getattr(engine, name)
        pre, post = hooks.get(name, (None, None))
        patches.append((engine, name, orig))
        setattr(engine, name, tracer.span(orig, f"engine.{name}", pre, post))
    orig = verifier.check_invariants
    patches.append((verifier, "check_invariants", orig))
    verifier.check_invariants = tracer.span(orig, "verifier.check_invariants")
    for slot, (stem, cls, attr) in enumerate(LEAVES):
        orig = cls.__dict__[attr]
        useful = "free_index.delete.useful" if stem == "core.free_index.delete" else None
        patches.append((cls, attr, orig))
        setattr(cls, attr, tracer.leaf(orig, slot, useful))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


class Hooks:
    """Per-update hooks of a traced pass: the tracker and RunStats that
    ``dynmatch run --metrics`` attaches, and the current update id."""

    OBSERVER_HOOKS = ("on_update_begin", "on_update_end", "on_match_set",
                      "on_match_unset", "on_edge_deleted")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.state = None
        self.stats: metrics.RunStats | None = None

    def attach(self, state) -> None:
        tracker = metrics.EpochTracker()
        for hook in self.OBSERVER_HOOKS:
            setattr(tracker, hook,
                    self.tracer.span(getattr(tracker, hook), f"metrics.observer.{hook}"))
        state.observer = tracker
        self.state = state
        self.stats = metrics.RunStats(
            n=state.n, threshold=state.threshold, seed=state.config.seed, tracker=tracker
        )

    def begin(self, i: int) -> None:
        self.tracer.current_update = i

    def end(self, i, kind, u, v, calls, dt) -> None:
        self.stats.record_update(i, kind, u, v, [c[0] for c in calls],
                                 self.state.matching_size, dt)
        self.tracer.current_update = -1

    def export_ms(self) -> float:
        """Milliseconds to export the pass as ``dynmatch run --metrics
        --format csv`` does.  (The JSON export builds ~350 MB of string
        pieces on sparse-large, more than this run should hold.)"""
        self.stats.final_edge_count = self.state.edge_count
        self.stats.final_matching_size = self.state.matching_size
        t0 = time.perf_counter()
        metrics.export(self.stats, "csv")
        return (time.perf_counter() - t0) * 1e3


class GcMonitor:
    """Cyclic-GC pauses and collections while active (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.collections = 0
        self._t0 = 0

    def _cb(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)


def traced_setup(text: str, seed: int) -> tuple[dict[str, float], Tracer]:
    """Parse and State() as spans, with GC pauses; then State()'s memory."""
    tracer = Tracer()
    with GcMonitor() as gcm:
        seq, parse_ns = tracer.call("workload.parse", workload.parse, text)
        config = core.Config(n=seq.n, seed=seed)
        state, init_ns = tracer.call("core.State.__init__", core.State, config)
    del state
    gc.collect()
    tracemalloc.start()
    try:
        state = core.State(config)
        state_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del state
    return {
        "core.state_init_s": init_ns / 1e9,
        "core.state_mib": state_bytes / 2**20,
        "workload.parse_s": parse_ns / 1e9,
        "workload.parse.us_per_op": parse_ns / 1e3 / max(1, len(seq.ops)),
        "gc.setup.pause_ms": gcm.pause_ns / 1e6,
    }, tracer


def traced_pass(seq, seed, times):
    """One replay with every layer wrapped and an EpochTracker attached.

    Returns (Pass, Tracer, per-layer metrics of this pass).
    """
    tracer = Tracer()
    hooks = Hooks(tracer)
    largest, checks = checkpoints(seq.ops)
    gc.collect()
    with instrumented(tracer):
        root = tracer.open("bench.pass")
        res = replay(seq, new_state(seq.n, seed), checks, largest, times, hooks)
        tracer.close(root)
    layer = layer_metrics(tracer)
    layer["metrics.export_ms"] = hooks.export_ms()
    layer["traced_amortized_us"] = sum(times[: res.attempted]) / max(1, res.attempted) / 1e3
    return res, tracer, layer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in us unless named)."""
    spans = tracer.by_name()
    leaves = tracer.leaves()
    counts = tracer.counts
    none = {"calls": 0, "ns": 0, "self_ns": 0}

    def span(name):
        return spans.get(name, none)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stem in ("core.free_index.insert", "core.free_index.delete", "core.get_free"):
        m[f"{stem}.calls"] = leaves[stem]["calls"]
        m[f"{stem}.self_us"] = leaves[stem]["self_ns"] / 1e3
    m["core.free_index.delete.useful_ratio"] = ratio(
        counts["free_index.delete.useful"], leaves["core.free_index.delete"]["calls"])
    m["core.check_vertex.calls"] = leaves["core.check_vertex"]["calls"]
    own = (leaves["core.own_add"], leaves["core.own_remove"])
    m["core.ownership.moves"] = sum(x["calls"] for x in own)
    m["core.ownership.self_us"] = sum(x["self_ns"] for x in own) / 1e3
    for name in tuple(engine.PROCEDURE_NAMES) + ("insert_edge", "delete_edge") + MACROS:
        m[f"engine.{name}.calls"] = span(f"engine.{name}")["calls"]
        m[f"engine.{name}.self_us"] = span(f"engine.{name}")["self_ns"] / 1e3
    m["engine.delete_from_f_list.visits"] = counts["delete_from_f_list.visits"]
    m["engine.delete_from_f_list.noop_calls"] = counts["delete_from_f_list.noop_calls"]
    m["engine.insert_to_f_list.visits"] = counts["insert_to_f_list.visits"]
    m["engine.check_3_aug_path.hit_ratio"] = ratio(
        counts["check_3_aug_path.hits"], m["engine.check_3_aug_path.calls"])
    transfers = [span(f"engine.{name}") for name in TRANSFERS]
    m["engine.ownership_transfer.calls"] = sum(x["calls"] for x in transfers)
    m["engine.ownership_transfer.moves"] = counts["ownership_transfer.moves"]
    m["engine.ownership_transfer.self_us"] = sum(x["self_ns"] for x in transfers) / 1e3
    ver = span("verifier.check_invariants")
    m["verifier.check_invariants.calls"] = ver["calls"]
    m["verifier.check_invariants.ms"] = ratio(ver["ns"], ver["calls"]) / 1e6
    obs = [row for name, row in spans.items() if name.startswith("metrics.observer.")]
    m["metrics.observer.calls"] = sum(x["calls"] for x in obs)
    m["metrics.observer.self_us"] = sum(x["self_ns"] for x in obs) / 1e3
    return m
