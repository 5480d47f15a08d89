import csv
import dataclasses
import hashlib
import io
import json

import pytest

from dynmatch import (
    Config,
    EpochRecord,
    EpochSetRecord,
    EpochTracker,
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
    s.observer = tracker
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
        # deterministic-raise and the deterministic path-fix variant only
        # run after a randomized settle in the same update
        s, tr = tracked_state(16, threshold=2, seed=9)
        seq = gen_random(16, 1500, 0.6, 21)
        for op in seq.ops:
            apply_update(s, op.kind, op.u, op.v)
        flagged = [
            e
            for e in tr.epochs
            if e.creator in ("deterministic_raise_level_to_1", "fix_3_aug_path_d")
        ]
        assert flagged, "workload never exercised the deterministic variants"
        assert all(e.preceded_by_random for e in flagged)


class TestEpochSets:
    def test_classification_thresholds(self):
        tr = EpochTracker()
        rep = EpochRecord(
            edge=(0, 1), created_at=0, level=1, cls="random",
            creator="random_settle_augmented", preceded_by_random=False,
            owner=0, owner_init_size=9,
        )
        tr.epochs.append(rep)
        srec = EpochSetRecord(representative=0)
        rep.terminated_at = 5
        rep.deletions_from_init = 2
        assert classify_epoch_set(tr, srec) == "bad"
        rep.deletions_from_init = 3
        assert classify_epoch_set(tr, srec) == "good"

    def test_live_representative_rejected(self):
        tr = EpochTracker()
        tr.epochs.append(
            EpochRecord(
                edge=(0, 1), created_at=0, level=1, cls="random",
                creator="random_settle_augmented", preceded_by_random=False,
                owner=0, owner_init_size=4,
            )
        )
        with pytest.raises(ValueError):
            classify_epoch_set(tr, EpochSetRecord(representative=0))

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
        sets = [x for x in tr.epoch_sets if x.representative == ridx]
        assert len(sets) == 1
        assert classify_epoch_set(tr, sets[0]) == "good"

    def test_sets_group_same_update_deterministic_level1(self):
        s, tr = tracked_state(16, threshold=2, seed=4)
        seq = gen_random(16, 1200, 0.6, 8)
        for op in seq.ops:
            apply_update(s, op.kind, op.u, op.v)
        assert tr.epoch_sets, "no random epochs at threshold 2 is implausible"
        for srec in tr.epoch_sets:
            rep = tr.epochs[srec.representative]
            assert rep.cls == "random" and rep.level == 1
            for eid in srec.members:
                member = tr.epochs[eid]
                assert member.cls == "deterministic"
                assert member.level == 1
                assert member.created_at == rep.created_at
                assert eid > srec.representative
        assert all(len(srec.members) + 1 <= 63 for srec in tr.epoch_sets)


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
# the CSV without its ``wall_ns`` column, the summary table, and every field
# of every EpochRecord and EpochSetRecord.  These pin what the export says,
# however RunStats and EpochTracker store it.  A key is (generator, n,
# threshold); every run uses seed 7 and ends with a teardown.
PINNED_EXPORT_DIGESTS = {
    ("random", 16, 2):
        "fc4a4855fc86dc461b5b8ceb6f0095337d5cc7de06cfbec44433de2e2320d621",
    ("random", 64, None):
        "ae73b9baba5fe50361eb9cf5559c7ac478fb0918049b85a037563a4c2982ff9b",
    ("random", 40, 3):
        "1b80e27f0d35659d79e6e33e63bf0189f3aa21302aa33c12b480a558ed3d1fca",
    ("star-churn", 64, None):
        "177eca3f8b5324d7a309a62357948ea459cd149dbc459bfe26d7f2f7355f355f",
    ("path-zipper", 64, None):
        "f793c3127ce4d227832c3637f2223c7d95289cdbf1f12108c96b931d03b05fb6",
}


def _export_digest(gen, n, threshold, seed=7):
    if gen == "random":
        seq = gen_random(n, 600, 0.6, seed)
    else:
        seq = gen_named(gen, n, seed)
    seq = extend_with_teardown(seq)
    s, tr = tracked_state(n, threshold, seed)
    stats = RunStats(n=n, threshold=s.threshold, seed=seed,
                     gen=seq.gen, gen_seed=seq.seed, tracker=tr)
    replay(s, seq.ops, verify_every=0, on_update=stats.recorder(s))
    h = hashlib.sha256()
    doc = json.loads(export(stats, "json"))
    del doc["timing"]
    h.update(json.dumps(doc, indent=2).encode())
    for row in csv.reader(io.StringIO(export(stats, "csv"))):
        assert row[-1] == "wall_ns" or row[-1].isdigit()
        h.update(repr(row[:-1]).encode())
    h.update(stats.summary_table().encode())
    for rec in tr.epochs + tr.epoch_sets:
        h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(PINNED_EXPORT_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_export_digest_pinned(key):
    assert _export_digest(*key) == PINNED_EXPORT_DIGESTS[key]
