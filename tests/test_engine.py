import ast
import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import dynmatch.engine as eng
from conftest import PIN_CONTEXT, assert_shared_set_empty
from dynmatch import (
    Config,
    IndexableSet,
    State,
    check_invariants,
    check_ratio,
    find_3_aug_path,
    gen_named,
    gen_random,
    replay,
)
from dynmatch.core import EMPTY_ADJ, EMPTY_SET
from dynmatch.engine import (
    apply_update,
    check_3_aug_path,
    delete_edge,
    deterministic_raise_level_to_1,
    fix_3_aug_path,
    fix_3_aug_path_d,
    handle_delete_level1,
    insert_edge,
    insert_to_f_list,
    naive_settle_augmented,
    random_settle_augmented,
    randomised_raise_level_to_1,
    take_ownership,
    transfer_ownership_from,
    transfer_ownership_to,
)


def make_state(n, threshold=None, seed=0):
    s = State(Config(n=n, threshold=threshold, seed=seed))
    s.trace = []
    return s


def add_owned(s, owner, other):
    s.add_edge(owner, other)
    s.own_add(owner, other)


def match(s, u, v):
    eng._match(s, u, v)


def matched_edges(s):
    return [(u, v) for u, v in enumerate(s.mate) if v is not None and u < v]


class HookRecorder:
    """An observer that lists each hook call's name and pair."""

    def __init__(self):
        self.calls = []

    def on_match_set(self, state, u, v):
        self.calls.append(("on_match_set", u, v))

    def on_match_unset(self, state, u, v):
        self.calls.append(("on_match_unset", u, v))

    def on_edge_deleted(self, state, u, v):
        self.calls.append(("on_edge_deleted", u, v))


def matched_path_0123(threshold=None):
    """Path 0-1-2-3 with (1, 2) matched at level 0 and 0, 3 free."""
    s = make_state(4, threshold=threshold)
    add_owned(s, 0, 1)
    add_owned(s, 1, 2)
    add_owned(s, 3, 2)
    match(s, 1, 2)
    s.free_add(1, 0)
    s.free_add(2, 3)
    return s


class TestMacros:
    def test_check_3_aug_path_finds_far_end(self):
        s = matched_path_0123()
        assert check_3_aug_path(s, 3, 2) == 0
        # the probe only reads the index
        assert 0 in s.free_index[1]

    def test_check_3_aug_path_writes_nothing(self):
        # u = 0 is in F(mate(2)) = F(1) but not its last member; the probe
        # answers the other member and leaves every index as it was
        s = make_state(6)
        for a, b in ((0, 2), (2, 1), (1, 5), (0, 1)):
            add_owned(s, a, b)
        match(s, 1, 2)
        s.free_add(1, 0)
        s.free_add(1, 5)
        fi = s.free_index[1]
        indexes = [dict(f) for f in s.free_index]
        assert check_3_aug_path(s, 0, 2) == 5
        assert list(fi) == [0, 5]
        assert [dict(f) for f in s.free_index] == indexes

    def test_check_3_aug_path_rejects_self(self):
        # triangle: u is y's only free neighbor, so no usable endpoint
        s = make_state(3)
        add_owned(s, 1, 2)
        add_owned(s, 0, 1)
        add_owned(s, 0, 2)
        match(s, 1, 2)
        s.free_add(1, 0)
        s.free_add(2, 0)
        assert check_3_aug_path(s, 0, 1) is None
        assert list(s.free_index[2]) == [0]

    def test_check_3_aug_path_empty_index(self):
        s = make_state(3)
        add_owned(s, 0, 1)
        match(s, 0, 1)
        assert check_3_aug_path(s, 2, 0) is None

    def test_check_3_aug_path_unmatched_raises(self):
        # the probe trusts its caller: an unmatched v fails on the index
        # lookup with the native error
        s = make_state(2)
        add_owned(s, 0, 1)
        with pytest.raises(TypeError):
            check_3_aug_path(s, 0, 1)

    def test_transfer_from_moves_only_level1(self):
        s = make_state(4)
        add_owned(s, 0, 1)
        add_owned(s, 0, 2)
        s.level[1] = 1
        transfer_ownership_from(s, 0)
        assert 0 in s.owners[1]
        assert 2 in s.owners[0]

    @staticmethod
    def _owner_of_seven():
        """0 at level 1 owns 1..7 in dense order [1, 7, 3, 4, 5, 6, 2]; 1, 3
        and 7 sit at level 1, and so does 8, which 0 does not own."""
        s = make_state(9)
        for w in range(1, 8):
            add_owned(s, 0, w)
        s.own_remove(0, 2)
        s.own_add(0, 2)
        for x in (0, 1, 3, 7, 8):
            s.level[x] = 1
        return s

    def test_transfer_from_target_set_matches_full_scan(self):
        """Slot order 1, 7, 3 gives another layout than id or reverse order."""
        scanned = self._owner_of_seven()
        transfer_ownership_from(scanned, 0)
        assert list(scanned.owners[0]) == [2, 6, 5, 4]
        cached = self._owner_of_seven()
        cached.level1_owned[0] = {1, 3, 4, 7, 8}  # 4 is at level 0, 8 not owned
        transfer_ownership_from(cached, 0)
        assert [list(o) for o in cached.owners] == [list(o) for o in scanned.owners]
        assert cached.level1_owned == {}

    def test_transfer_from_receiver_records_giver(self):
        s = self._owner_of_seven()
        s.level1_owned[3] = set()
        transfer_ownership_from(s, 0)
        assert s.level1_owned == {3: {0}}

    def test_transfer_to_records_rising_vertex_at_holder(self):
        s = make_state(3)
        add_owned(s, 1, 0)
        add_owned(s, 2, 0)
        s.level[1] = s.level[2] = 1
        s.level1_owned[1] = set()
        transfer_ownership_to(s, 0)
        assert s.level1_owned == {1: {0}}

    def test_transfer_to_pulls_level0_owned(self):
        s = make_state(4)
        add_owned(s, 1, 0)
        add_owned(s, 2, 0)
        s.level[2] = 1
        transfer_ownership_to(s, 0)
        assert 1 in s.owners[0]       # was owned by level-0 neighbor
        assert 0 in s.owners[2]       # level-1 neighbor keeps its edge

    def test_take_ownership_idempotent(self):
        s = make_state(4)
        add_owned(s, 1, 0)
        add_owned(s, 0, 2)
        take_ownership(s, 0)
        assert set(s.owners[0]) == {1, 2}
        take_ownership(s, 0)
        assert set(s.owners[0]) == {1, 2}

    def test_empty_transfers_no_change(self):
        s = make_state(3)
        transfer_ownership_from(s, 0)
        transfer_ownership_to(s, 0)
        take_ownership(s, 0)
        assert len(s.owners[0]) == 0

    def test_f_list_roundtrip(self):
        s = make_state(4)
        s.add_edge(0, 1)
        s.add_edge(0, 2)
        insert_to_f_list(s, 0)
        assert 0 in s.free_index[1] and 0 in s.free_index[2]
        eng.delete_from_f_list(s, 0)
        assert not s.free_index[1] and not s.free_index[2]


class TestNaiveSettle:
    def test_matches_free_neighbor_small_degrees(self):
        s = make_state(4)
        add_owned(s, 0, 1)
        s.free_add(0, 1)
        s.free_add(1, 0)
        naive_settle_augmented(s, 0, 0)
        assert s.mate[0] == 1
        assert s.level[0] == s.level[1] == 0
        assert not s.free_index[0] and not s.free_index[1]

    def test_isolated_vertex_stays_free(self):
        s = make_state(3)
        naive_settle_augmented(s, 0, 0)
        assert s.mate[0] is None
        assert all(not f for f in s.free_index)

    def test_settles_along_augmenting_path(self):
        s = matched_path_0123(threshold=3)
        naive_settle_augmented(s, 3, 0)
        assert matched_edges(s) == [(0, 1), (2, 3)]
        assert check_invariants(s).ok

    def test_no_path_inserts_into_f_lists(self):
        s = make_state(3)
        add_owned(s, 1, 2)
        add_owned(s, 0, 1)
        match(s, 1, 2)
        naive_settle_augmented(s, 0, 0)
        assert s.mate[0] is None
        assert 0 in s.free_index[1]


class TestRandomSettle:
    def test_forced_choice_unmatched_pick(self):
        s = make_state(2, threshold=1, seed=3)
        add_owned(s, 0, 1)
        s.free_add(0, 1)
        s.free_add(1, 0)
        assert random_settle_augmented(s, 0) is None
        assert s.mate[0] == 1
        assert s.level[0] == s.level[1] == 1
        assert check_invariants(s).ok

    def test_forced_choice_displaces_mate(self):
        # the pick 1 leaves its mate 2 free; the settle settles 2 itself
        s = make_state(3, threshold=1, seed=3)
        add_owned(s, 0, 1)
        add_owned(s, 1, 2)
        match(s, 1, 2)
        assert random_settle_augmented(s, 0) is None
        assert s.mate[0] == 1 and s.mate[2] is None
        assert ("naive_settle_augmented", 2, 1) in s.trace
        assert 2 in s.free_index[1]
        assert check_invariants(s).ok

    def test_seeded_replay_identical(self):
        mates = []
        for _ in range(2):
            s = make_state(5, threshold=2, seed=11)
            for v in (1, 2, 3, 4):
                add_owned(s, 0, v)
            random_settle_augmented(s, 0)
            mates.append(s.mate[0])
        assert mates[0] == mates[1]

    def test_probe_retries_near_side_when_far_side_is_taken(self, monkeypatch):
        # u=2 picks y=3, its only owned edge.  Once the pair leaves the
        # indexes, F(2) reads [4, 1] and get_free hands back the last member,
        # 1, which is also the only free neighbor of y.  The far-side probe
        # 1-2-3-? fails, so the near side is retried: the surviving path
        # 4-2-3-1 must still be found and exchanged.
        s = make_state(5, threshold=1, seed=0)
        add_owned(s, 2, 3)
        add_owned(s, 1, 2)
        add_owned(s, 3, 1)
        add_owned(s, 4, 2)
        # every free vertex in every neighbor's index, F(2) in order 4, 3, 1
        for free, of in ((4, 2), (3, 2), (1, 2), (1, 3), (2, 1), (3, 1), (2, 3), (2, 4)):
            s.free_add(of, free)
        probes = []
        probe = eng.check_3_aug_path

        def recorded(state, u, v):
            z = probe(state, u, v)
            probes.append((u, v, z))
            return z

        monkeypatch.setattr(eng, "check_3_aug_path", recorded)
        random_settle_augmented(s, 2)
        assert probes == [(1, 2, None), (1, 3, 4)]
        assert ("fix_3_aug_path_d", 4, 2, 3, 1) in s.trace
        assert matched_edges(s) == [(1, 3), (2, 4)]
        assert find_3_aug_path(s.adj, s.mate) is None
        assert check_invariants(s).ok


class TestDeterministicRaise:
    def build(self):
        s = make_state(6, threshold=2)
        add_owned(s, 0, 1)
        add_owned(s, 2, 0)
        add_owned(s, 3, 1)
        match(s, 0, 1)
        s.free_add(0, 2)
        s.free_add(1, 3)
        return s

    def test_levels_raised_matching_unchanged(self):
        s = self.build()
        deterministic_raise_level_to_1(s, 0)
        assert s.level[0] == s.level[1] == 1
        assert s.mate[0] == 1

    def test_raised_vertices_own_their_level0_edges(self):
        s = self.build()
        deterministic_raise_level_to_1(s, 0)
        for u in (0, 1):
            for w in s.adj[u]:
                if s.level[w] == 0:
                    assert w in s.owners[u]


class TestRandomisedRaise:
    def star(self, seed):
        s = make_state(6, threshold=2, seed=seed)
        add_owned(s, 0, 1)
        for leaf in (2, 3, 4):
            add_owned(s, leaf, 0)
            s.free_add(0, leaf)
        match(s, 0, 1)
        return s

    @pytest.mark.parametrize("seed", range(6))
    def test_star_center_rematched_clean(self, seed):
        s = self.star(seed)
        randomised_raise_level_to_1(s, 0)
        assert s.level[0] == 1 and s.mate[0] is not None
        assert check_invariants(s).ok

    def test_take_ownership_meets_sample_precondition(self):
        s = self.star(0)
        assert len(s.adj[0]) == 4
        take_ownership(s, 0)
        assert len(s.owners[0]) == len(s.adj[0]) >= s.threshold

    def test_previous_mate_resettled(self):
        # give the old mate its own free neighbor so the trailing settle bites
        s = self.star(1)
        add_owned(s, 5, 1)
        s.free_add(1, 5)
        randomised_raise_level_to_1(s, 0)
        if s.mate[0] != 1:
            assert s.mate[1] is not None
        assert check_invariants(s).ok


def path_for_fix(level_v, threshold=None):
    s = make_state(4, threshold=threshold)
    if level_v:
        add_owned(s, 1, 0)
        add_owned(s, 1, 2)
        add_owned(s, 2, 3)
        s.level[1] = s.level[2] = 1
    else:
        add_owned(s, 0, 1)
        add_owned(s, 1, 2)
        add_owned(s, 3, 2)
    match(s, 1, 2)
    s.free_add(1, 0)
    s.free_add(2, 3)
    return s


class TestFix3AugPathD:
    def test_level1_input_swaps_matching(self):
        s = path_for_fix(level_v=1)
        fix_3_aug_path_d(s, 0, 1, 2, 3)
        assert matched_edges(s) == [(0, 1), (2, 3)]
        assert [s.level[v] for v in range(4)] == [1, 1, 1, 1]
        assert check_invariants(s).ok

    def test_level0_input_raises_all_four(self):
        s = path_for_fix(level_v=0)
        fix_3_aug_path_d(s, 0, 1, 2, 3)
        assert [s.level[v] for v in range(4)] == [1, 1, 1, 1]
        assert check_invariants(s).ok

    @pytest.mark.parametrize("level_v", [0, 1])
    def test_matching_grows_by_one(self, level_v):
        s = path_for_fix(level_v=level_v)
        before = s.matching_size
        fix_3_aug_path_d(s, 0, 1, 2, 3)
        assert s.matching_size == before + 1


class TestFix3AugPath:
    def test_level0_small_degrees_stays_level0(self):
        s = path_for_fix(level_v=0, threshold=3)
        fix_3_aug_path(s, 0, 1, 2, 3)
        assert matched_edges(s) == [(0, 1), (2, 3)]
        assert [s.level[v] for v in range(4)] == [0, 0, 0, 0]
        assert all(not f for f in s.free_index)
        assert check_invariants(s).ok

    def test_level1_small_degrees_raises_endpoints(self):
        s = path_for_fix(level_v=1, threshold=3)
        fix_3_aug_path(s, 0, 1, 2, 3)
        assert matched_edges(s) == [(0, 1), (2, 3)]
        assert [s.level[v] for v in range(4)] == [1, 1, 1, 1]
        assert check_invariants(s).ok

    @pytest.mark.parametrize("level_v,threshold", [(0, 3), (1, 3), (0, 2), (1, 2)])
    def test_matching_grows_by_one(self, level_v, threshold):
        s = path_for_fix(level_v=level_v, threshold=threshold)
        before = s.matching_size
        fix_3_aug_path(s, 0, 1, 2, 3)
        assert s.matching_size == before + 1
        if level_v == 1 or threshold > 2:
            # at threshold 2 the level-0 input pair is itself over-degree,
            # which is the caller's violation, not this procedure's
            assert check_invariants(s).ok


class TestHandleDeleteLevel1:
    def test_isolated_drops_to_level_0(self):
        s = make_state(3)
        s.level[0] = 1
        handle_delete_level1(s, 0, 0)
        assert s.level[0] == 0 and s.mate[0] is None
        assert check_invariants(s).ok

    def test_large_ownership_rematches_at_level_1(self):
        s = make_state(4, threshold=2, seed=5)
        s.level[0] = 1
        for leaf in (1, 2):
            add_owned(s, 0, leaf)
            s.free_add(0, leaf)
        handle_delete_level1(s, 0, 0)
        assert s.level[0] == 1 and s.mate[0] is not None
        assert 0 in s.level1_owned
        assert check_invariants(s).ok

    def test_small_ownership_settles_naively(self):
        s = make_state(4, threshold=3)
        s.level[0] = 1
        add_owned(s, 0, 1)
        s.free_add(0, 1)
        handle_delete_level1(s, 0, 0)
        assert s.level[0] == 0
        assert s.mate[0] == 1
        assert s.level1_owned == {}
        assert check_invariants(s).ok


class TestInsert:
    def test_first_edge_matches_level0(self):
        s = make_state(4)
        insert_edge(s, 0, 1)
        assert matched_edges(s) == [(0, 1)]
        assert s.level[0] == s.level[1] == 0
        assert check_invariants(s).ok

    def test_zipper_fixes_augmenting_path(self):
        s = make_state(8, seed=1)
        insert_edge(s, 1, 2)
        insert_edge(s, 0, 1)
        trace = insert_edge(s, 2, 3)
        assert matched_edges(s) == [(0, 1), (2, 3)]
        assert "fix_3_aug_path" in [c[0] for c in trace]
        assert check_invariants(s).ok

    def test_self_loop_rejected(self):
        s = make_state(4)
        with pytest.raises(ValueError):
            insert_edge(s, 0, 0)

    def test_duplicate_rejected(self):
        s = make_state(4)
        insert_edge(s, 0, 1)
        with pytest.raises(ValueError):
            insert_edge(s, 1, 0)

    def test_ownership_threshold_triggers_random_rematch(self):
        for seed in range(5):
            s = make_state(6, threshold=2, seed=seed)
            insert_edge(s, 0, 1)
            insert_edge(s, 2, 3)
            trace = insert_edge(s, 0, 2)
            assert "random_settle_augmented" in [c[0] for c in trace]
            assert s.level[0] == 1 and s.mate[0] is not None
            assert check_invariants(s).ok

    def test_insert_between_matched_level0_fixes_path(self):
        s = make_state(8, seed=2)
        insert_edge(s, 1, 2)
        insert_edge(s, 0, 1)
        # 3 is free next to matched (2, 1), whose 1 has free neighbor 0
        assert insert_edge(s, 2, 3) == [
            ("handle_insert_level0", 2, 3),
            ("fix_3_aug_path", 3, 2, 1, 0),
        ]
        assert matched_edges(s) == [(0, 1), (2, 3)]
        insert_edge(s, 4, 5)
        mates = list(s.mate)
        # matched level-0 endpoints: no path to fix, no mate changes
        assert insert_edge(s, 3, 4) == [("handle_insert_level0", 3, 4)]
        assert s.mate == mates
        assert check_invariants(s).ok

    def test_level1_level0_insert_cases(self):
        # grow a level-1 star, then touch it with free and matched vertices
        for seed in range(4):
            s = make_state(8, threshold=2, seed=seed)
            insert_edge(s, 0, 1)
            insert_edge(s, 0, 2)  # raises 0 to level 1
            assert s.level[0] == 1
            insert_edge(s, 0, 3)  # (1,0) case, 3 free
            assert check_invariants(s).ok
            insert_edge(s, 4, 5)  # level-0 match elsewhere
            insert_edge(s, 0, 4)  # (1,0) case, 4 matched
            assert check_invariants(s).ok


    def test_insert_between_two_free_vertices_indexes_neither(self, monkeypatch):
        """4 and 5 are free and indexed at their matched neighbors 1 and 3.
        Joining them writes no free-index entry, and leaves every dense list
        as indexing both up front and unindexing them in _match does."""
        ops = [(0, 1), (1, 4), (1, 6), (1, 7), (2, 3), (3, 5), (4, 5)]
        s = make_state(8, threshold=8)
        ref = make_state(8, threshold=8)
        for u, v in ops[:-1]:
            insert_edge(s, u, v)
            insert_indexing_up_front(ref, u, v)
        assert s.free_index[1]._items == [4, 6, 7]
        assert s.free_index[3]._items == [5]
        inserted = []
        insert = IndexableSet.insert

        def counted(fi, u):
            inserted.append(u)
            insert(fi, u)

        monkeypatch.setattr(IndexableSet, "insert", counted)
        insert_edge(s, 4, 5)
        monkeypatch.undo()
        insert_indexing_up_front(ref, 4, 5)
        assert inserted == []
        assert s.mate[4] == 5
        assert s.free_index[1]._items == [7, 6]
        assert [f._items for f in s.free_index] == [f._items for f in ref.free_index]
        assert check_invariants(s).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_level0_replay_keeps_up_front_dense_lists(self, seed):
        """With every vertex held at level 0, each update leaves every dense
        list as indexing both endpoints up front does."""
        s = make_state(64, threshold=64, seed=seed)
        ref = make_state(64, threshold=64, seed=seed)
        for op in gen_random(64, 2000, 0.6, seed).ops:
            if op.kind == "+":
                insert_edge(s, op.u, op.v)
                insert_indexing_up_front(ref, op.u, op.v)
            else:
                delete_edge(s, op.u, op.v)
                delete_edge(ref, op.u, op.v)
            assert [f._items for f in s.free_index] == [f._items for f in ref.free_index]
            assert s.mate == ref.mate


def insert_indexing_up_front(s, u, v):
    """A level-0 insert that indexes each free endpoint at the other before
    any repair, both endpoints of a free pair included, as the engine did
    before it left such a pair unindexed."""
    assert s.level[u] == s.level[v] == 0
    s.update_index += 1
    s.trace = []
    s.add_edge(u, v)
    if s.mate[u] is None:
        s.free_add(v, u)
    if s.mate[v] is None:
        s.free_add(u, v)
    eng.handle_insert_level0(s, u, v)


class TestDelete:
    def test_delete_only_matched_edge(self):
        s = make_state(4)
        insert_edge(s, 0, 1)
        delete_edge(s, 0, 1)
        assert s.matching_size == 0
        assert s.edge_count == 0
        assert check_invariants(s).ok

    def test_delete_unmatched_edge_zero_procedures(self):
        s = make_state(4)
        insert_edge(s, 0, 1)
        insert_edge(s, 2, 3)
        insert_edge(s, 0, 2)  # unmatched edge between two matched pairs
        before = matched_edges(s)
        trace = delete_edge(s, 0, 2)
        assert len(trace) == 0
        assert matched_edges(s) == before
        assert check_invariants(s).ok

    def test_delete_level1_edge_rematches_big_endpoint(self):
        for seed in range(6):
            s = make_state(6, threshold=2, seed=seed)
            insert_edge(s, 0, 1)
            insert_edge(s, 0, 2)  # 0 raised to level 1
            insert_edge(s, 0, 3)
            insert_edge(s, 0, 4)
            center_mate = s.mate[0]
            assert s.level[0] == 1
            delete_edge(s, 0, center_mate)
            assert s.mate[0] is not None and s.level[0] == 1
            assert check_invariants(s).ok

    @pytest.mark.parametrize("u, v", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("low_degree", [1, 2])
    def test_matched_delete_settles_lower_degree_endpoint_first(self, u, v, low_degree):
        """Hub 0 (degree 3 after the delete) and its mate 1 (degree
        ``low_degree``): 1 settles first whichever way the edge is given,
        and the observer still sees the edge as given."""
        s = make_state(12, threshold=12)
        insert_edge(s, 0, 1)
        for a in range(2, 12, 2):
            insert_edge(s, a, a + 1)
        for w in (2, 4, 6):
            insert_edge(s, 0, w)
        for w in (8, 10)[:low_degree]:
            insert_edge(s, 1, w)
        s.observer = recorder = HookRecorder()
        trace = delete_edge(s, u, v)
        assert trace == [("naive_settle_augmented", 1, 0), ("naive_settle_augmented", 0, 0)]
        assert recorder.calls == [("on_match_unset", u, v), ("on_edge_deleted", u, v)]
        assert check_invariants(s).ok

    @pytest.mark.parametrize("u, v", [(0, 1), (1, 0)])
    def test_matched_delete_equal_degrees_settles_u_first(self, u, v):
        s = make_state(6, threshold=6)
        for a, b in ((0, 1), (2, 3), (4, 5), (0, 2), (1, 4)):
            insert_edge(s, a, b)
        trace = delete_edge(s, u, v)
        assert trace == [("naive_settle_augmented", u, 0), ("naive_settle_augmented", v, 0)]
        assert check_invariants(s).ok

    def test_delete_absent_edge_rejected(self):
        s = make_state(4)
        with pytest.raises(ValueError):
            delete_edge(s, 0, 1)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 10),
    threshold=st.none() | st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
)
def test_random_interleavings_stay_clean(n, threshold, seed, picks):
    """Apply an arbitrary replayable op sequence; every boundary is clean."""
    s = State(Config(n=n, threshold=threshold, seed=seed))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = set()
    for pick in picks:
        u, v = pairs[pick % len(pairs)]
        if (u, v) in present:
            trace = delete_edge(s, u, v)
            present.remove((u, v))
        else:
            trace = insert_edge(s, u, v)
            present.add((u, v))
        assert len(trace) <= 30
        rep = check_invariants(s)
        assert rep.ok, rep.to_text()
        assert_indexed_all_or_none(s, boundary=True)
    assert find_3_aug_path(s.adj, s.mate) is None


def assert_indexed_all_or_none(s, boundary):
    """Each vertex sits in all of its neighbors' free indexes or in none,
    and in none while matched.  At an update boundary every free vertex
    sits in all of them; within an update a displaced vertex may still
    wait, unindexed, for its settle."""
    for x in range(s.n):
        holders = {w for w in range(s.n) if x in s.free_index[w]}
        if s.mate[x] is not None:
            assert not holders, (x, "matched", holders)
        elif boundary:
            assert holders == s.adj[x], (x, "free", holders)
        else:
            assert holders in (set(), s.adj[x]), (x, "partly indexed", holders)


def assert_level1_targets_covered(s):
    """Each level1_owned holder is at level 1, and its set holds every
    target it owns at level 1 (stale extra entries are allowed)."""
    for x, targets in s.level1_owned.items():
        assert s.level[x] == 1, x
        missing = [w for w in s.owners[x] if s.level[w] == 1 and w not in targets]
        assert not missing, (x, missing)


def assert_no_repeated_settle(trace):
    """A displaced vertex is settled once: no naive_settle_augmented call
    directly repeats the one before it."""
    for prev, call in zip(trace, trace[1:]):
        assert not (call == prev and call[0] == "naive_settle_augmented"), trace


def fingerprint(s):
    """Everything an update may touch, in layout order."""
    return (
        [list(a) for a in s.adj],
        list(s.mate),
        list(s.level),
        [list(o) for o in s.owners],
        [list(f) for f in s.free_index],
        [(x, sorted(t)) for x, t in s.level1_owned.items()],
        s.edge_count,
        s.matching_size,
        s.update_index,
        list(s.trace),
        s.rng.getstate(),
    )


@pytest.mark.parametrize("seed", range(4))
def test_rejected_update_leaves_state_unchanged(seed):
    n = 8
    s = State(Config(n=n, threshold=2, seed=seed))

    def probe_rejections(i, op, calls, elapsed_ns):
        if i % 10:
            return
        present = next((u, v) for u in range(n) for v in s.adj[u])
        absent = next(
            (u, v) for u in range(n) for v in range(u + 1, n) if v not in s.adj[u]
        )
        rejected = [
            ("+", 3, 3),
            ("+", *present),
            ("-", *absent),
            ("+", 0, n),
            ("-", 0, n),
            ("+", -1, 0),
            ("-", -1, 0),
            ("+", 0, -1),
            ("+", -n, 0),
            ("-", 0, -n),
            ("+", absent[0], absent[1] + 0.5),
            ("+", float(absent[0]), absent[1]),
            ("-", present[0], float(present[1])),
            ("-", present[0] + 0.5, present[1]),
            ("+", str(absent[0]), absent[1]),
            ("-", present[0], str(present[1])),
            ("*", *absent),
        ]
        for kind, u, v in rejected:
            before = fingerprint(s)
            with pytest.raises(ValueError):
                apply_update(s, kind, u, v)
            assert fingerprint(s) == before, (kind, u, v)
            rep = check_invariants(s)
            assert rep.ok, rep.to_text()

    replay(s, gen_random(n, 60, 0.6, seed=seed).ops, on_update=probe_rejections)


class UnindexedOnMatch:
    """An observer that checks, as each pair is matched, that neither
    endpoint nor any other matched vertex sits in a free index, and that
    every free vertex sits in all its neighbors' indexes or in none: the
    rule ``_match`` relies on to test one index."""

    def on_match_set(self, state, u, v):
        assert_indexed_all_or_none(state, boundary=False)

    def _ignore(self, *args):
        pass

    on_match_unset = on_edge_deleted = _ignore


class UpdateMachine(RuleBasedStateMachine):
    """Any interleaving of inserts, deletes and rejected updates keeps the
    state clean and within 3/2 of the maximum matching, leaves a rejected
    update's state untouched, keeps every empty container in its
    allocation-free form, never writes into the shared empty nor puts it
    back in place of a written container, writes every container as an
    IndexableSet, and indexes each vertex in all or none of its neighbors'
    free indexes: none while matched, and all when free at an update
    boundary."""

    EMPTY_SIZE = sys.getsizeof(IndexableSet())

    @initialize(
        n=st.integers(2, 12),
        threshold=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def build(self, n, threshold, seed):
        self.s = State(Config(n=n, threshold=threshold, seed=seed))
        self.s.observer = UnindexedOnMatch()
        # vertex -> its written ownership list, and its written free index:
        # once written, a container keeps its object for good
        self.written = ({}, {})

    def _edges(self, present):
        s = self.s
        return [
            (u, v)
            for u in range(s.n)
            for v in range(u + 1, s.n)
            if (v in s.adj[u]) == present
        ]

    def _draw_pair(self, data, present):
        """An edge (or non-edge), endpoints in either order."""
        pair = data.draw(st.sampled_from(self._edges(present)))
        return data.draw(st.permutations(pair))

    @precondition(lambda self: self._edges(present=False))
    @rule(data=st.data())
    def insert(self, data):
        u, v = self._draw_pair(data, present=False)
        trace = insert_edge(self.s, u, v)
        assert len(trace) <= 30
        assert_no_repeated_settle(trace)

    @precondition(lambda self: self.s.edge_count)
    @rule(data=st.data())
    def delete(self, data):
        u, v = self._draw_pair(data, present=True)
        trace = delete_edge(self.s, u, v)
        assert len(trace) <= 30
        assert_no_repeated_settle(trace)

    @rule(data=st.data())
    def rejected(self, data):
        s = self.s
        n = s.n
        vertex = st.integers(0, n - 1)
        outside = st.sampled_from([-n, -1, n])
        update = st.sampled_from("+-")
        ops = [
            st.tuples(update, vertex).map(lambda t: (t[0], t[1], t[1])),
            st.tuples(update, outside, vertex),
            st.tuples(update, vertex, outside),
            st.tuples(st.just("*"), vertex, vertex),
        ]
        for kind, present in (("+", True), ("-", False)):
            edges = self._edges(present)
            if edges:
                ops.append(st.sampled_from(edges).map(lambda e, k=kind: (k, *e)))
        kind, u, v = data.draw(st.one_of(ops))
        before = fingerprint(s)
        with pytest.raises(ValueError):
            apply_update(s, kind, u, v)
        assert fingerprint(s) == before

    @invariant()
    def clean(self):
        rep = check_invariants(self.s)
        assert rep.ok, rep.to_text()

    @invariant()
    def within_three_halves_of_optimum(self):
        assert check_ratio(self.s)

    @invariant()
    def level1_targets_covered(self):
        assert_level1_targets_covered(self.s)

    @invariant()
    def indexed_all_or_none(self):
        assert_indexed_all_or_none(self.s, boundary=True)

    @invariant()
    def empty_containers_allocate_nothing(self):
        s = self.s
        for v in range(s.n):
            if not s.adj[v]:
                assert s.adj[v] is EMPTY_ADJ
            for c in (s.owners[v], s.free_index[v]):
                if not c:
                    assert c._items == ()
                    assert sys.getsizeof(c) == self.EMPTY_SIZE

    @invariant()
    def shared_empty_stays_shared_and_empty(self):
        assert_shared_set_empty()
        s = self.s
        for written, containers in zip(self.written, (s.owners, s.free_index)):
            for v, c in written.items():
                assert containers[v] is c, f"container of {v} replaced"
            written.update((v, c) for v, c in enumerate(containers) if c is not EMPTY_SET)
            # one set type: every written container of either list
            assert all(type(c) is IndexableSet for c in written.values())


TestUpdateMachine = UpdateMachine.TestCase
TestUpdateMachine.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None
)


@pytest.mark.parametrize("threshold", [None, 3])
@pytest.mark.parametrize(
    "pattern", ["star-churn", "clique-build-teardown", "path-zipper"]
)
def test_named_pattern_replays_clean(pattern, threshold):
    """Every update of a named pattern verifies clean within the trace
    bound, and a second replay yields the same traces."""
    seq = gen_named(pattern, 64, 0)
    runs = []
    for verify_every in (1, None):
        s = State(Config(n=seq.n, threshold=threshold, seed=9))
        traces = []

        def on_update(i, op, calls, elapsed_ns):
            traces.append(calls)
            assert_no_repeated_settle(calls)
            if verify_every:
                assert_level1_targets_covered(s)

        result = replay(s, seq.ops, verify_every=verify_every, on_update=on_update)
        assert result.report is None, f"update {result.dirty_at}: {result.report.to_text()}"
        assert result.max_trace <= 30
        runs.append(traces)
    assert runs[0] == runs[1]


def test_random_settle_records_its_raised_picker():
    """The pick of random_settle_augmented pulls (pick, u) and u rises
    without a scan, so a holder pick must record u itself.  Without that
    record this replay misses a target at update 30, ``+ 2 4``."""
    seq = gen_named("clique-build-teardown", 16, 11)
    s = State(Config(n=seq.n, seed=11))
    replay(s, seq.ops, on_update=lambda *_: assert_level1_targets_covered(s))


# sha256 over repr((trace, matching_size, mate)) after every update.  These
# pin the trajectories: any change to the procedure calls, the matching or
# the rng draws changes a digest.  An intentional trajectory change must
# update the constants and say why.  A key is (generator, seed, threshold),
# plus n where it is not 64.  Taken on CPython 3.11.7, like every table
# below: they rest on set iteration order (ROADMAP "Small: Set order"), so
# a failure names the interpreter it ran on.  Re-pinned when a deleted
# matched edge's lower-degree endpoint began to settle first.
PINNED_DIGESTS = {
    ("random", 0, None): "8ae93e0128989f9c8921cb3c28db192bbbae925f4510fa50728c6e4db00ab361",
    ("random", 0, 3): "a2b19b2414511f226cc5237c7ea6db82af4967f8c2e15ee5ee3b46d8426f03dd",
    ("random", 1, None): "1127b21fe1a1c4badb0a09456df3e42ada273fab7e11571a429359a90f6e0b44",
    ("random", 1, 3): "415664ae7f874235541e426374cad41435b919d2e6564c0dd16de8362eb5e8b8",
    ("random", 2, None): "1a427dea06853ea8b4c93e4a0cda3f1c87e1e7d9f99e4349f58852bd877c2f85",
    ("random", 2, 3): "3118a55d04031bc0683eefb20d7ba3f889a555b81605d14f24f0801f2839f675",
    ("star-churn", 0, None): "9faaf3784fab8db129ce36960209cbb5e11d4283d80e815625b739dfee0d3f6d",
    ("star-churn", 0, 3): "de64f42a0a5b36bb71a5b219d140f24ffa93b4f1805a69f7686a96a39e5cc5f7",
    # the hub re-rises after most drops here, so its level-1 target set
    # serves most of its ownership hand-overs
    ("star-churn", 0, None, 256): "888fee4549d5b633dff41065bde4ea42a09d6fd610b9ca0913f6089e4c0c69c7",
    # sparse-large's shape: every vertex stays at level 0
    ("random", 0, None, 4096, 8192): "6f7c011b40bf3ee31b47c5d5e8257c7fda9e1d4f6562e1a6ef6e447265a39f09",
}


# sha256 over repr((matching_size, mate, level)) after every update, one per
# PINNED_DIGESTS key.  These pin the states alone: a change that only drops
# or reorders procedure calls must leave them as they are.  Settling the
# lower-degree endpoint first moved all but the last two.
PINNED_STATE_DIGESTS = {
    ("random", 0, None): "06ad35030eb65c10f03d67af1fa73c7ccf29fa1c39dcfc8988afd0b5377c40bc",
    ("random", 0, 3): "7e550935726b259cb4733f8897d6c7bd106025f4557be18f3acbb0867393539b",
    ("random", 1, None): "9ed2a32e28110fac9c1a95d6f9631133f0330730a35336169d235a1fe73a77da",
    ("random", 1, 3): "18a6d95d02e340b5e1dc0a396a81993e5b55bdca3b59690e0163eddea2a39e6a",
    ("random", 2, None): "b491a52a252f48b6211701d0d344baaa56ef2e20af7765efce408e8d6e861c64",
    ("random", 2, 3): "0105f400a9a7b62e0f20b688d8700ad9487e22739c31b47efd2b1b5c3de97920",
    ("star-churn", 0, None): "668fbf0f988b7a0be1d63706786a0265e7d91d3ce02c772434190e0b6e04ad74",
    ("star-churn", 0, 3): "19c3d2e96991748ddc2f5ba36c07cd8d5f336dc405167517297641f4c3c858c6",
    ("star-churn", 0, None, 256): "f01091b756bbb083ba56fb1a94050eb6d2708562787831a8321eeb83692020dc",
    ("random", 0, None, 4096, 8192): "e581c8f89450bb64f74793be296c69d3518aeba2428022b4e69db09dcefa88ce",
}


# sha256 over every observer event (hook name and arguments), one per
# PINNED_DIGESTS key.  These pin the epoch stream the metrics see: a change
# to how an event is produced must leave them as they are.  Re-pinned with
# the settle order, as the matches it makes come in another order.
PINNED_EVENT_DIGESTS = {
    ("random", 0, None): "a5503a69689b61ee5de1c64f264147f225ac473a2094f583b233f0082be81728",
    ("random", 0, 3): "453adf01ad87ec15c14ec1b0c4fea6918e2aec0a86e552990daee946977c20c5",
    ("random", 1, None): "01076b85a135e8138d75584b02b784f1a2e30bddbcc25f2ff0f3b46a867b6961",
    ("random", 1, 3): "ee7879389a5b41898cbfa56e6bb0a93647a637efaef6e915ea48bf8c3cee7027",
    ("random", 2, None): "9445a7005c02d03ba49f96f2bb4c5dea1d702f93e922d2393d7beb48d281d337",
    ("random", 2, 3): "a986f11550560b604f0cb252114cb7761f89f64a797b3544c1590ee67f5a4a59",
    ("star-churn", 0, None): "0afcf0faf5df4695d47e5e739fdb219c88c6f6317b182b09c2db9d1927652716",
    ("star-churn", 0, 3): "d7e75a0f3a5fb801c46e2e7dff5151191a676b24e1633e152a36c6c009789c12",
    ("star-churn", 0, None, 256): "37a06fdc02d350b07872ad807a1db6e6d56886ad9effeee6aceeb943adb0a15f",
    ("random", 0, None, 4096, 8192): "fed99f3af59643feff395a7ff5fec8f743f5c260a40f0a26489be1438f3e176c",
}


def _pinned_id(key):
    gen, seed, threshold, *shape = key
    return "-".join(map(str, (gen, *shape, seed, threshold)))


def _trace_fields(calls, s):
    return calls, s.matching_size, s.mate


def _state_fields(calls, s):
    return s.matching_size, s.mate, s.level


def _pinned_run(key):
    """The fresh state and the update ops of a pinned ``key``."""
    gen, seed, threshold, *shape = key
    n = shape[0] if shape else 64
    t = shape[1] if len(shape) > 1 else 4000
    if gen == "random":
        seq = gen_random(n, t, 0.6, seed)
    else:
        seq = gen_named(gen, n, seed)
    return State(Config(n=seq.n, threshold=threshold, seed=seed)), seq.ops


def _replay_digest(key, fields=_trace_fields):
    """sha256 over repr(fields(calls, state)) after every update of ``key``."""
    s, ops = _pinned_run(key)
    h = hashlib.sha256()

    def on_update(i, op, calls, elapsed_ns):
        h.update(repr(fields(calls, s)).encode())

    replay(s, ops, on_update=on_update)
    return h.hexdigest()


def _edge(u, v):
    return (u, v) if u < v else (v, u)


class EventRecorder:
    """An observer with the engine's three hooks that hashes, in the order
    the engine makes them, each call's hook name and the facts it stands
    for, read from the state it is handed: the update index, the normalised
    edge and, for a match, its level, class, creator, owner and the sorted
    snapshot of the owner's initial edges.  A random settle's match is
    random, owned by u, and u's initial edges are its list plus v."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def _record(self, *event):
        self.sha.update(repr(event).encode())

    def on_match_set(self, state, u, v):
        creator = state.trace[-1][0]
        random = creator == "random_settle_augmented"
        self._record(
            "on_match_set", state.update_index, _edge(u, v),
            max(state.level[u], state.level[v]),
            "random" if random else "deterministic", creator,
            u if random else None,
            tuple(_edge(u, w) for w in sorted({*state.owners[u], v})) if random else None,
        )

    def on_match_unset(self, state, u, v):
        self._record("on_match_unset", state.update_index, _edge(u, v))

    def on_edge_deleted(self, state, u, v):
        self._record("on_edge_deleted", state.update_index, _edge(u, v))


def _event_digest(key):
    """sha256 over the observer event stream of the replay of ``key``."""
    s, ops = _pinned_run(key)
    s.observer = recorder = EventRecorder()
    replay(s, ops)
    return recorder.sha.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr), ids=_pinned_id)
def test_trajectory_digest_pinned(key):
    assert _replay_digest(key) == PINNED_DIGESTS[key], PIN_CONTEXT


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr), ids=_pinned_id)
def test_state_digest_pinned(key):
    assert _replay_digest(key, _state_fields) == PINNED_STATE_DIGESTS[key], PIN_CONTEXT


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr), ids=_pinned_id)
def test_event_digest_pinned(key):
    assert _event_digest(key) == PINNED_EVENT_DIGESTS[key], PIN_CONTEXT


def test_each_procedure_names_itself_once():
    """A procedure's name is written in the engine twice: in
    PROCEDURE_NAMES and at the head of its own trace entry.  ``_match``
    takes an epoch's creator from the trace, so no call site repeats it."""
    tree = ast.parse(Path(eng.__file__).read_text(encoding="utf-8"))
    literals = Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    heads = {
        fn.name: call.args[0].elts[0].value
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "state.trace.append"
    }
    assert heads == {name: name for name in eng.PROCEDURE_NAMES}
    assert {name: literals[name] for name in eng.PROCEDURE_NAMES} == {
        name: 2 for name in eng.PROCEDURE_NAMES
    }


def test_engine_holds_no_epoch_vocabulary():
    """Epochs are defined by the metrics tracker alone: the engine names no
    epoch class, never reads back its trace (it only appends to it), and
    calls only the three hooks an epoch is made of, each with exactly
    ``(state, u, v)``.  ``_match`` takes the pair and nothing else, and the
    observer is read only in the three ``is not None`` guards around the
    hook calls, so the engine computes nothing for it.  Container
    allocation is the state's: the engine names neither the shared empty
    set nor its type, and reads no dense list."""
    tree = ast.parse(Path(eng.__file__).read_text(encoding="utf-8"))
    classes = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("random", "deterministic")
    ]
    assert classes == []
    trace_reads = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "state.trace"
    ]
    assert trace_reads == []
    hooks = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr.startswith("on_")
    ]
    assert {call.func.attr for call in hooks} == {
        "on_match_set", "on_match_unset", "on_edge_deleted",
    }
    for call in hooks:
        assert len(call.args) == 3 and not call.keywords, ast.unparse(call)
        assert ast.unparse(call.args[0]) == "state", ast.unparse(call)
    (match,) = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_match"
    ]
    assert ast.unparse(match.args) == "state, u, v"
    guards = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "state.observer is not None"
    ]
    assert len(guards) == 3
    guarded = {id(node) for guard in guards for node in ast.walk(guard)}
    observer_reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "state.observer"
    ]
    assert [ast.unparse(node) for node in observer_reads if id(node) not in guarded] == []
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert names & {"EMPTY_SET", "IndexableSet"} == set()
    dense_reads = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_items"
    ]
    assert dense_reads == []


# Every pinned key, plus the named patterns the pins leave out.
EXACT_INDEX_KEYS = sorted(PINNED_DIGESTS, key=repr) + [
    (pattern, 0, threshold)
    for pattern in ("clique-build-teardown", "path-zipper")
    for threshold in (None, 3)
]


@pytest.mark.parametrize("key", EXACT_INDEX_KEYS, ids=_pinned_id)
def test_every_free_index_call_does_work(key, monkeypatch):
    """The engine inserts into a free index only members it lacks and
    deletes only members it holds: no index call is a no-op."""
    calls = {"insert": 0, "delete": 0}
    insert, delete = IndexableSet.insert, IndexableSet.delete

    def exact_insert(fi, u):
        assert u not in fi, u
        calls["insert"] += 1
        insert(fi, u)

    def exact_delete(fi, u):
        assert u in fi, u
        calls["delete"] += 1
        delete(fi, u)

    monkeypatch.setattr(IndexableSet, "insert", exact_insert)
    monkeypatch.setattr(IndexableSet, "delete", exact_delete)
    s, ops = _pinned_run(key)
    result = replay(s, ops, verify_every=len(ops))
    assert result.report is None, result.report.to_text()
    assert calls["insert"] and calls["delete"]


def test_hub_transfers_served_from_target_set(monkeypatch):
    """On star-churn n=256 most of the hub's hand-overs use its level-1
    target set, and the replay still matches its pinned digest."""
    key = ("star-churn", 0, None, 256)
    calls = served = 0
    scan = eng.transfer_ownership_from

    def counted(state, u):
        nonlocal calls, served
        if u == 0:
            calls += 1
            served += u in state.level1_owned
        scan(state, u)

    monkeypatch.setattr(eng, "transfer_ownership_from", counted)
    assert _replay_digest(key) == PINNED_DIGESTS[key], PIN_CONTEXT
    assert calls > 50
    assert 2 * served > calls


def test_no_settle_indexes_the_hub_that_its_update_unindexes(monkeypatch):
    """A deleted matched edge's lower-degree endpoint settles first, so a
    failed naive settle of the star-churn hub (vertex 0) never indexes it
    at every spoke only for the same update to match it and erase those
    entries again.  Settling the hub first made 508 such pairs here."""
    key = ("star-churn", 0, None, 256)
    s, ops = _pinned_run(key)
    insert, delete = IndexableSet.insert, IndexableSet.delete
    f_list = eng.insert_to_f_list
    settling = False
    indexed = {}  # id(index) -> the update whose settle indexed the hub there
    settles = hub_deletes = pairs = 0

    def settle_insert(state, u):
        nonlocal settling, settles
        settles += 1
        settling = u == 0
        try:
            f_list(state, u)
        finally:
            settling = False

    def tagged_insert(fi, u):
        if settling:
            indexed[id(fi)] = s.update_index
        insert(fi, u)

    def tagged_delete(fi, u):
        nonlocal hub_deletes, pairs
        if u == 0:
            hub_deletes += 1
            pairs += indexed.pop(id(fi), None) == s.update_index
        delete(fi, u)

    monkeypatch.setattr(eng, "insert_to_f_list", settle_insert)
    monkeypatch.setattr(IndexableSet, "insert", tagged_insert)
    monkeypatch.setattr(IndexableSet, "delete", tagged_delete)
    result = replay(s, ops, verify_every=len(ops))
    assert result.report is None, result.report.to_text()
    assert settles and hub_deletes
    assert pairs == 0
