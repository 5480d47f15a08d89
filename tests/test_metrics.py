import csv
import dataclasses
import hashlib
import io
import json

import pytest

from conftest import PIN_CONTEXT
from dynmatch import (
    Config,
    EpochRecord,
    EpochTracker,
    IndexableSet,
    RunStats,
    State,
    classify_epoch_set,
    export,
    extend_with_teardown,
    gen_named,
    gen_random,
    replay,
)
from dynmatch.engine import apply_update, delete_edge, insert_edge


def tracked_state(n, threshold=None, seed=0):
    s = State(Config(n=n, threshold=threshold, seed=seed))
    tracker = EpochTracker()
    tracker.attach(s)
    return s, tracker


class TestEpochEvents:
    def test_first_insert_opens_level0_epoch(self):
        s, tr = tracked_state(4)
        insert_edge(s, 0, 1)
        assert tr.opened == 1 and tr.closed == 0
        rec = tr.epochs[0]
        assert rec.edge == (0, 1) and rec.level == 0
        assert rec.cls == "deterministic" and rec.live

    def test_path_fix_closes_one_opens_two_same_index(self):
        s, tr = tracked_state(8)
        insert_edge(s, 1, 2)
        insert_edge(s, 0, 1)
        insert_edge(s, 2, 3)
        closed = [e for e in tr.epochs if not e.live]
        opened_now = [e for e in tr.epochs if e.created_at == 2]
        assert len(closed) == 1 and closed[0].edge == (1, 2)
        assert closed[0].terminated_at == 2
        assert {e.edge for e in opened_now} == {(0, 1), (2, 3)}

    def test_delete_closes_epoch_at_that_index(self):
        s, tr = tracked_state(4)
        insert_edge(s, 0, 1)
        delete_edge(s, 0, 1)
        assert tr.epochs[0].terminated_at == 1
        assert tr.live_count == 0

    def test_random_settle_records_owner_snapshot(self):
        s, tr = tracked_state(6, threshold=2, seed=1)
        insert_edge(s, 0, 1)
        insert_edge(s, 2, 3)
        insert_edge(s, 0, 2)
        random_epochs = [e for e in tr.epochs if e.cls == "random"]
        assert len(random_epochs) == 1
        rec = random_epochs[0]
        assert rec.level == 1
        assert rec.owner == 0
        assert rec.owner_init_size >= s.threshold

    def test_conservation_open_minus_closed_is_matching_size(self):
        s, tr = tracked_state(12, seed=3)
        live = []
        replay(s, gen_random(12, 300, 0.6, 5).ops,
               on_update=lambda *_: live.append(tr.live_count - s.matching_size))
        assert live == [0] * 300

    def test_expensive_deterministic_epochs_follow_a_random_one(self):
        # deterministic-raise, the deterministic path-fix variant and every
        # flag-1 settle only run after a randomized settle in the same update
        s, _ = tracked_state(16, threshold=2, seed=9)
        seq = gen_random(16, 1500, 0.6, 21)
        seen = set()
        for op in seq.ops:
            trace = apply_update(s, op.kind, op.u, op.v)
            for k, call in enumerate(trace):
                name = call[0]
                if name in ("deterministic_raise_level_to_1", "fix_3_aug_path_d") or (
                    name in ("naive_settle_augmented", "handle_delete_level1") and call[2] == 1
                ):
                    seen.add(name)
                    assert any(c[0] == "random_settle_augmented" for c in trace[:k]), trace
        assert seen == {"deterministic_raise_level_to_1", "fix_3_aug_path_d",
                        "naive_settle_augmented", "handle_delete_level1"}


class TestWatch:
    """A live random epoch counts each edge of its owner's initial list at
    that edge's first deletion, and nothing once the epoch has ended."""

    def opened(self, tr, s, u, v, init):
        """A random settle of u matching v, drawn from u's list ``init``:
        the state holds the list as the settle leaves it, without v."""
        for w in init:
            if w != v:
                s.own_add(u, w)
        s.trace = [("random_settle_augmented", u)]
        s.level[u] = s.level[v] = 1
        tr.on_match_set(s, u, v)
        return tr.epochs[-1]

    def test_redeleted_snapshot_edge_counts_once(self):
        s, tr = tracked_state(6)
        rec = self.opened(tr, s, 0, 1, (1, 2, 3))
        tr.on_edge_deleted(s, 0, 2)
        tr.on_edge_deleted(s, 2, 0)  # after a re-insert
        assert rec.deletions_from_init == 1

    def test_deletion_after_epoch_ends_counts_nothing(self):
        s, tr = tracked_state(6)
        rec = self.opened(tr, s, 0, 1, (1, 2, 3))
        tr.on_match_unset(s, 1, 0)
        tr.on_edge_deleted(s, 0, 2)
        assert rec.deletions_from_init == 0 and not tr._watching

    def test_own_edge_deleted_after_unset_counts_nothing(self):
        s, tr = tracked_state(6)
        rec = self.opened(tr, s, 0, 1, (1, 2, 3))
        tr.on_match_unset(s, 0, 1)
        tr.on_edge_deleted(s, 0, 1)
        assert rec.deletions_from_init == 0

    def test_shared_edge_counts_for_both_owners(self):
        s, tr = tracked_state(6)
        a = self.opened(tr, s, 0, 1, (1, 2))
        b = self.opened(tr, s, 2, 3, (3, 0))
        tr.on_edge_deleted(s, 2, 0)
        assert (a.deletions_from_init, b.deletions_from_init) == (1, 1)

    def test_second_live_watch_for_an_owner_rejected(self):
        s, tr = tracked_state(6)
        self.opened(tr, s, 0, 1, (1, 2))
        with pytest.raises(ValueError):
            self.opened(tr, s, 0, 2, (1, 2))

    @pytest.mark.parametrize("seq, threshold", [
        (gen_named("star-churn", 256, 0), None),
        (gen_random(16, 1200, 0.6, 8), 2),
    ], ids=["star-churn-256", "random-16-threshold-2"])
    def test_one_watch_per_live_random_epoch(self, seq, threshold, monkeypatch):
        """One watch per live random epoch, and each opens on exactly the
        list its random settle drew from: the tracker's derivation of the
        initial list from the state agrees with the draw."""
        s, tr = tracked_state(seq.n, threshold, seed=4)
        watched = []
        drawn, opened = [], []
        sample = IndexableSet.sample

        def recorded_sample(owned, rng):
            drawn.append(set(owned))
            return sample(owned, rng)

        monkeypatch.setattr(IndexableSet, "sample", recorded_sample)
        on_match_set = tr.on_match_set

        def recorded_match_set(state, u, v):
            on_match_set(state, u, v)
            if tr.epochs[-1].cls == "random":
                opened.append(set(tr._watching[u][1]))

        tr.on_match_set = recorded_match_set

        def check(*_):
            live = {rec.owner: id(rec) for rec in tr._live.values() if rec.cls == "random"}
            assert {owner: id(rec) for owner, (rec, _) in tr._watching.items()} == live
            watched.append(len(live))

        replay(s, seq.ops, verify_every=0, on_update=check)
        assert max(watched) > 0
        assert any(rec.cls == "random" and not rec.live for rec in tr.epochs)
        assert opened == drawn
        assert [rec.owner_init_size for rec in tr.epochs if rec.cls == "random"] == [
            len(d) for d in drawn
        ]

    def test_late_attach_raises_and_attaches_nothing(self):
        """``attach`` refuses a state that has run an update, naming the
        contract, and leaves the state without an observer."""
        s = State(Config(n=4))
        insert_edge(s, 0, 1)
        with pytest.raises(ValueError, match=r"state has run 1 updates: "
                           "attach the EpochTracker before the first update"):
            EpochTracker().attach(s)
        assert s.observer is None

    def test_tracker_attached_after_a_match_names_the_attach_contract(self):
        """A tracker misses the matches made before it is attached, so the
        first unmatch of such a pair raises, and the message says when to
        attach it."""
        s = State(Config(n=4))
        for u, v in ((0, 1), (1, 2), (2, 3)):
            insert_edge(s, u, v)
        assert s.mate == [1, 0, 3, 2]
        s.observer = EpochTracker()
        with pytest.raises(ValueError, match=r"unset without an open epoch for \(0, 1\): "
                           "attach the EpochTracker before the first update"):
            delete_edge(s, 0, 1)


class TestEpochSets:
    def test_classification_thresholds(self):
        rep = EpochRecord(
            edge=(0, 1), created_at=0, level=1, cls="random",
            creator="random_settle_augmented", owner=0, owner_init_size=9,
        )
        rep.terminated_at = 5
        rep.deletions_from_init = 2
        assert classify_epoch_set(rep) == "bad"
        rep.deletions_from_init = 3
        assert classify_epoch_set(rep) == "good"

    def test_live_representative_rejected(self):
        rep = EpochRecord(
            edge=(0, 1), created_at=0, level=1, cls="random",
            creator="random_settle_augmented", owner=0, owner_init_size=4,
        )
        with pytest.raises(ValueError):
            classify_epoch_set(rep)

    def test_deterministic_epoch_rejected(self):
        rec = EpochRecord(
            edge=(0, 1), created_at=0, level=1, cls="deterministic",
            creator="fix_3_aug_path_d", terminated_at=3,
        )
        with pytest.raises(ValueError):
            classify_epoch_set(rec)

    def test_teardown_deleting_whole_init_set_is_good(self):
        s, tr = tracked_state(6, threshold=2, seed=2)
        insert_edge(s, 0, 1)
        insert_edge(s, 2, 3)
        insert_edge(s, 0, 2)  # random epoch at 0
        (ridx,) = [i for i, e in enumerate(tr.epochs) if e.cls == "random"]
        # delete the matched edge last so the epoch survives the rest
        for v in sorted(s.adj[0], key=lambda w: (w == s.mate[0], w)):
            delete_edge(s, 0, v)
        rep = tr.epochs[ridx]
        assert not rep.live
        assert classify_epoch_set(rep) == "good"
        assert tr.set_counts() == {"total": 1, "good": 1, "bad": 0, "live": 0,
                                   "bad_fraction": 0.0}

    def test_sets_group_same_update_deterministic_level1(self):
        s, tr = tracked_state(16, threshold=2, seed=4)
        seq = gen_random(16, 1200, 0.6, 8)
        for op in seq.ops:
            apply_update(s, op.kind, op.u, op.v)
        # a set is a random epoch and the deterministic level-1 epochs
        # created after it in the same update, before the next random one
        sets: dict[int, list[EpochRecord]] = {}
        head = None
        for eid, rec in enumerate(tr.epochs):
            if head is not None and rec.created_at != tr.epochs[head].created_at:
                head = None
            if rec.cls == "random":
                assert rec.level == 1
                head = eid
                sets[eid] = []
            elif rec.level == 1 and head is not None:
                sets[head].append(rec)
        assert sets, "no random epochs at threshold 2 is implausible"
        assert len(sets) == tr.set_counts()["total"]
        assert any(sets.values()), "no set has a deterministic member"
        assert all(len(members) + 1 <= 63 for members in sets.values())


class TestExport:
    def run_stats(self, t=40):
        s, tr = tracked_state(8, seed=5)
        stats = RunStats(n=8, threshold=s.threshold, seed=5, tracker=tr)
        replay(s, gen_random(8, t, 0.6, 3).ops, verify_every=0, on_update=stats.recorder(s))
        return stats

    def test_empty_run_valid(self):
        stats = RunStats(n=4, threshold=2, seed=0, tracker=EpochTracker())
        doc = json.loads(export(stats, "json"))
        assert doc["totals"]["updates"] == 0
        assert doc["epochs"]["opened"] == 0
        rows = list(csv.reader(io.StringIO(export(stats, "csv"))))
        assert len(rows) == 1  # header only

    def test_csv_row_per_update(self):
        stats = self.run_stats(t=37)
        rows = list(csv.reader(io.StringIO(export(stats, "csv"))))
        assert len(rows) == 1 + 37

    def test_json_csv_share_totals(self):
        stats = self.run_stats()
        doc = json.loads(export(stats, "json"))
        rows = list(csv.DictReader(io.StringIO(export(stats, "csv"))))
        assert doc["totals"]["updates"] == len(rows)
        assert doc["totals"]["inserts"] == sum(1 for r in rows if r["op"] == "+")
        assert doc["totals"]["max_trace_len"] == max(int(r["trace_len"]) for r in rows)
        assert doc["totals"]["final_matching_size"] == int(rows[-1]["matching_size"])
        assert doc["timing"]["total_ns"] == sum(int(r["wall_ns"]) for r in rows)

    def test_timing_segregated_under_one_key(self):
        stats = self.run_stats()
        doc = json.loads(export(stats, "json"))
        without_timing = {k: v for k, v in doc.items() if k != "timing"}
        assert "wall" not in json.dumps(without_timing)
        assert "per_update_ns" in doc["timing"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(self.run_stats(), "xml")

    def test_summary_table_is_the_exports_scalar_fields(self):
        stats = self.run_stats()
        doc = json.loads(export(stats, "json"))
        expected = {
            f"{name}.{key}": value
            for name, section in doc.items()
            if name not in ("schema", "per_update", "timing")
            for key, value in section.items()
            if not isinstance(value, dict)
        }
        table, columns = {}, set()
        for line in stats.summary_table().splitlines():
            key, value = line.split(maxsplit=1)
            table[key] = json.loads(value)
            columns.add(len(line) - len(value))
        assert list(table) == list(expected)
        assert table == expected
        assert "epoch_sets.bad_fraction" in table
        assert columns == {max(map(len, table)) + 2}  # one aligned value column

    def test_amortized_field_scriptable(self):
        stats = self.run_stats()
        doc = json.loads(export(stats, "json"))
        t = doc["timing"]
        assert t["amortized_ns_per_update"] == t["total_ns"] // doc["totals"]["updates"]


# sha256 over a run's metrics export: the JSON document without ``timing``,
# the CSV without its ``wall_ns`` column, and the summary table.  These pin
# what the export says, however RunStats and EpochTracker store it.  A key
# is (generator, n, threshold); every run uses seed 7 and ends with a
# teardown.  Taken on CPython 3.11.7, like the epoch-record pins below: both
# rest on set iteration order (ROADMAP "Small: Set order"), so a failure
# names the interpreter it ran on.  Re-pinned when a deleted matched edge's
# lower-degree endpoint began to settle first, which moves the trajectories.
PINNED_EXPORT_DIGESTS = {
    ("random", 16, 2):
        "48df868db76d1320399e4a79f1c772c8639346053e8088c7de71f73834891b28",
    ("random", 64, None):
        "62d69d3aeda301f46ca4400df941b34cc7c8315003fea8d367f8d004d362a75b",
    ("random", 40, 3):
        "d4e080fd15a549e881f711ac75350700953fa120f319f48c98295546b17c5bcd",
    ("star-churn", 64, None):
        "9850dead81500932613f2dcb15f2b699fb285bf7fe09b2a40dc2c24f5329a8d2",
    ("path-zipper", 64, None):
        "d3da05e5e539dc9b2d78ba4e1556015238efebcebd64289cb9e93c2e8c8ec29c",
}

# sha256 over every field of every EpochRecord of the same runs.
PINNED_EPOCH_RECORD_DIGESTS = {
    ("random", 16, 2):
        "b420626c34fe252de42db6fd84670d6ca50e8b54af6fcd6eeb70c93f393dec9f",
    ("random", 64, None):
        "2c1bf013fc2cb6ee0084fb8ab8cb5c78802d8db4322a14136e884e3dbfaea88b",
    ("random", 40, 3):
        "f3310cde891ab205502074dbe7bf53bda0c29633ae16090cbafb9ef454e4f43e",
    ("star-churn", 64, None):
        "0604e38ba618b1584f8e5fbc345413d732d957a1f08c40145c5e41024e09f730",
    ("path-zipper", 64, None):
        "4b05361ef9d82f865cc9e74610594f7d9bf68b8ffd3c4c5daacf3d623d665425",
}


def _pinned_run(gen, n, threshold, seed=7):
    if gen == "random":
        seq = gen_random(n, 600, 0.6, seed)
    else:
        seq = gen_named(gen, n, seed)
    seq = extend_with_teardown(seq)
    s, tr = tracked_state(n, threshold, seed)
    stats = RunStats(n=n, threshold=s.threshold, seed=seed,
                     gen=seq.gen, gen_seed=seq.seed, tracker=tr)
    replay(s, seq.ops, verify_every=0, on_update=stats.recorder(s))
    return stats


def _export_digest(*key):
    stats = _pinned_run(*key)
    h = hashlib.sha256()
    doc = json.loads(export(stats, "json"))
    del doc["timing"]
    h.update(json.dumps(doc, indent=2).encode())
    for row in csv.reader(io.StringIO(export(stats, "csv"))):
        assert row[-1] == "wall_ns" or row[-1].isdigit()
        h.update(repr(row[:-1]).encode())
    h.update(stats.summary_table().encode())
    return h.hexdigest()


def _epoch_record_digest(*key):
    h = hashlib.sha256()
    for rec in _pinned_run(*key).tracker.epochs:
        h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(PINNED_EXPORT_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_export_digest_pinned(key):
    assert _export_digest(*key) == PINNED_EXPORT_DIGESTS[key], PIN_CONTEXT


@pytest.mark.parametrize("key", list(PINNED_EPOCH_RECORD_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_epoch_record_digest_pinned(key):
    assert _epoch_record_digest(*key) == PINNED_EPOCH_RECORD_DIGESTS[key], PIN_CONTEXT
