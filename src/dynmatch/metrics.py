"""Epoch tracking and run statistics.

An *epoch* is the maximal interval during which one edge stays matched.
:class:`EpochTracker` alone defines it, from the matches, unmatches and
edge deletions the engine reports and the state each report comes with.
A level raise of a matched edge restarts its epoch at level 1.

A *random* epoch is one a random settle creates: level 1, and owned by the
settling vertex.  Each random epoch heads an *epoch-set*, joined by the
deterministic level-1 epochs created after it in the same update (before
the next random one), as ``created_at`` and record order show.  A set is
*good* if its random epoch outlived deletion of at least a third of its
owner's initial edge list, otherwise *bad*.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class EpochRecord:
    edge: tuple[int, int]
    created_at: int
    level: int
    cls: str  # "random" | "deterministic"
    creator: str
    terminated_at: int | None = None
    owner: int | None = None
    owner_init_size: int | None = None
    deletions_from_init: int = 0

    @property
    def live(self) -> bool:
        return self.terminated_at is None


def classify_epoch_set(rep: EpochRecord) -> str:
    """"good" or "bad" for the epoch-set headed by the terminated random
    epoch ``rep``.

    Bad means ``rep`` died before the workload deleted the first third
    (rounded up) of the edges its owner held at creation.
    """
    if rep.live or rep.cls != "random":
        raise ValueError("an epoch-set is classified by its terminated random epoch")
    needed = (rep.owner_init_size + 2) // 3
    return "bad" if rep.deletions_from_init < needed else "good"


class EpochTracker:
    """Observer that turns the engine's five hooks, each handed the state
    first, into epoch records.

    ``on_match_set`` derives every record field: the update index, the
    higher endpoint level, the creator (the last trace entry) and, when
    ``owned_init`` is given, the random class and the owner u.  ``_watching``
    keeps one watch per live random epoch, keyed by its owner, which is
    matched in it: the snapshot neighbors not yet deleted, each counted once.
    """

    def __init__(self) -> None:
        self.epochs: list[EpochRecord] = []
        self._live: dict[tuple[int, int], EpochRecord] = {}
        self._watching: dict[int, tuple[EpochRecord, set[int]]] = {}

    # -- engine hooks --------------------------------------------------

    def on_update_begin(self, state, kind: str, u: int, v: int) -> None:
        """Nothing to open: each hook reads the update index from the state."""

    def on_update_end(self, state) -> None:
        """Nothing to close: each hook reads the update index from the state."""

    def on_match_set(self, state, u: int, v: int, owned_init) -> None:
        edge = (u, v) if u < v else (v, u)
        if edge in self._live:
            raise ValueError(f"epoch for {edge} already open")
        rec = EpochRecord(
            edge=edge,
            created_at=state.update_index,
            level=max(state.level[u], state.level[v]),
            cls="deterministic" if owned_init is None else "random",
            creator=state.trace[-1][0],
        )
        if owned_init is not None:
            if u in self._watching:
                raise ValueError(f"vertex {u} already owns a live random epoch")
            rec.owner = u
            rec.owner_init_size = len(owned_init)
            self._watching[u] = (rec, set(owned_init))
        self.epochs.append(rec)
        self._live[edge] = rec

    def on_match_unset(self, state, u: int, v: int) -> None:
        edge = (u, v) if u < v else (v, u)
        rec = self._live.pop(edge, None)
        if rec is None:
            raise ValueError(f"unset without an open epoch for {edge}")
        rec.terminated_at = state.update_index
        if rec.owner is not None:
            del self._watching[rec.owner]

    def on_edge_deleted(self, state, u: int, v: int) -> None:
        watching = self._watching
        if not watching:
            return
        for owner, w in ((u, v), (v, u)):
            rec, left = watching.get(owner, (None, ()))
            if w in left:
                left.remove(w)
                rec.deletions_from_init += 1

    # -- summaries ------------------------------------------------------

    @property
    def opened(self) -> int:
        return len(self.epochs)

    @property
    def closed(self) -> int:
        return len(self.epochs) - len(self._live)

    @property
    def live_count(self) -> int:
        return len(self._live)

    def epoch_counts(self) -> dict[str, int]:
        c = {"level0": 0, "level1_random": 0, "level1_deterministic": 0}
        for rec in self.epochs:
            if rec.level == 0:
                c["level0"] += 1
            elif rec.cls == "random":
                c["level1_random"] += 1
            else:
                c["level1_deterministic"] += 1
        return c

    def set_counts(self) -> dict[str, int | float | None]:
        """Epoch-sets by class: one per random epoch."""
        heads = [rec for rec in self.epochs if rec.cls == "random"]
        live = sum(rec.live for rec in heads)
        bad = sum(classify_epoch_set(rec) == "bad" for rec in heads if not rec.live)
        done = len(heads) - live
        return {
            "total": len(heads),
            "good": done - bad,
            "bad": bad,
            "live": live,
            "bad_fraction": (bad / done) if done else None,
        }


CSV_COLUMNS = ("index", "op", "u", "v", "trace_len", "matching_size", "wall_ns")


@dataclass
class RunStats:
    """Per-run record: configuration, per-update rows, and epoch summaries.

    Each row is one tuple in :data:`CSV_COLUMNS` order.  Its ``wall_ns`` is
    the run's only wall-clock number, exported under the JSON ``timing``
    key, so determinism checks can diff everything else byte for byte.
    """

    n: int
    threshold: int
    seed: int
    gen: str | None = None
    gen_seed: int | None = None
    rows: list[tuple] = field(default_factory=list)
    procedures: Counter = field(default_factory=Counter)
    tracker: EpochTracker | None = None
    final_edge_count: int = 0
    final_matching_size: int = 0

    def record_update(
        self, index: int, kind: str, u: int, v: int,
        trace_names: list[str], matching_size: int, wall_ns: int,
    ) -> None:
        self.rows.append((index, kind, u, v, len(trace_names), matching_size, wall_ns))
        self.procedures.update(trace_names)

    def recorder(self, state):
        """An ``on_update`` callback for :func:`dynmatch.replay.replay` that
        records each update of ``state`` and keeps the final counts current."""

        def on_update(i, op, calls, elapsed_ns):
            self.record_update(
                i, op.kind, op.u, op.v, [c[0] for c in calls], state.matching_size, elapsed_ns
            )
            self.final_edge_count = state.edge_count
            self.final_matching_size = state.matching_size

        return on_update

    def sections(self) -> dict:
        """The export's deterministic sections in document order: config,
        workload and totals, then the epoch and epoch-set counts when a
        tracker is attached.  Builds no per-update structure."""
        rows = self.rows
        inserts = sum(1 for r in rows if r[1] == "+")
        d = {
            "config": {"n": self.n, "threshold": self.threshold, "seed": self.seed},
            "workload": {"gen": self.gen, "seed": self.gen_seed},
            "totals": {
                "updates": len(rows),
                "inserts": inserts,
                "deletes": len(rows) - inserts,
                "final_matching_size": self.final_matching_size,
                "final_edge_count": self.final_edge_count,
                "max_trace_len": max((r[4] for r in rows), default=0),
                "procedure_calls": dict(sorted(self.procedures.items())),
            },
        }
        if self.tracker is not None:
            d["epochs"] = {
                "opened": self.tracker.opened,
                "closed": self.tracker.closed,
                **self.tracker.epoch_counts(),
            }
            d["epoch_sets"] = self.tracker.set_counts()
        return d

    def to_dict(self) -> dict:
        """The JSON document: :meth:`sections` with ``per_update`` after
        ``totals`` and ``timing`` last."""
        d = {"schema": "dynmatch.run_stats/1"}
        for name, section in self.sections().items():
            d[name] = section
            if name == "totals":
                d["per_update"] = [dict(zip(CSV_COLUMNS[:-1], r)) for r in self.rows]
        wall_ns = [r[-1] for r in self.rows]
        total_ns = sum(wall_ns)
        d["timing"] = {
            "total_ns": total_ns,
            "amortized_ns_per_update": (total_ns // len(self.rows)) if self.rows else 0,
            "per_update_ns": wall_ns,
        }
        return d

    def summary_table(self) -> str:
        """One aligned ``section.key  value`` line per scalar field of
        :meth:`sections`, the value as the JSON export writes it; dict
        fields such as ``totals.procedure_calls`` are JSON-only."""
        rows = [
            (f"{name}.{key}", json.dumps(value))
            for name, section in self.sections().items()
            for key, value in section.items()
            if not isinstance(value, dict)
        ]
        width = max(len(k) for k, _ in rows)
        return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)


def export(stats: RunStats, format: str) -> str:
    """Serialize a finished run; ``format`` is "json" or "csv".

    JSON carries the full document described by :meth:`RunStats.to_dict`.
    CSV is one row per update with the columns in :data:`CSV_COLUMNS`
    (``wall_ns`` is the sole timing column).
    """
    if format == "json":
        return json.dumps(stats.to_dict(), indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(stats.rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")
