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
from conftest import assert_shared_set_empty, index_free
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


def matched_path_0123(threshold=None):
    """Path 0-1-2-3 with (1, 2) matched at level 0 and 0, 3 free."""
    s = make_state(4, threshold=threshold)
    add_owned(s, 0, 1)
    add_owned(s, 1, 2)
    add_owned(s, 3, 2)
    match(s, 1, 2)
    index_free(s, 1, 0)
    index_free(s, 2, 3)
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
        index_free(s, 1, 0)
        index_free(s, 1, 5)
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
        index_free(s, 1, 0)
        index_free(s, 2, 0)
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
        index_free(s, 0, 1)
        index_free(s, 1, 0)
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
        index_free(s, 0, 1)
        index_free(s, 1, 0)
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
            index_free(s, of, free)
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
        index_free(s, 0, 2)
        index_free(s, 1, 3)
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
            index_free(s, 0, leaf)
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
        index_free(s, 1, 5)
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
    index_free(s, 1, 0)
    index_free(s, 2, 3)
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
            index_free(s, 0, leaf)
        handle_delete_level1(s, 0, 0)
        assert s.level[0] == 1 and s.mate[0] is not None
        assert 0 in s.level1_owned
        assert check_invariants(s).ok

    def test_small_ownership_settles_naively(self):
        s = make_state(4, threshold=3)
        s.level[0] = 1
        add_owned(s, 0, 1)
        index_free(s, 0, 1)
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
        index_free(s, v, u)
    if s.mate[v] is None:
        index_free(s, u, v)
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

    def on_match_set(self, state, u, v, owned_init):
        assert_indexed_all_or_none(state, boundary=False)

    def _ignore(self, *args):
        pass

    on_update_begin = on_update_end = on_match_unset = on_edge_deleted = _ignore


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
# plus n where it is not 64.
PINNED_DIGESTS = {
    ("random", 0, None): "136aa407fb1beb83a2cbaf4ee65c725af17791e930a19b3f854adb3101e83a31",
    ("random", 0, 3): "345d75fcd9b1dd1c7925d97655634e52e816957ab2bda4ac56d6a3b1d2d2b876",
    ("random", 1, None): "fdf1ade4b4113d6c8f8cb0e93905bca36977b7563367a6a7bc5da143ee2321db",
    ("random", 1, 3): "c2520d7c04c26534040e3e2c413df7904310ef3beedc5fdef0912affe0c1b926",
    ("random", 2, None): "1cc648ecddecd5e44362b03adff906131d18ab3c0068a8df4f83c5fc6e447274",
    ("random", 2, 3): "1aa187b7388cc2bc91ae0c061dd31ac75ed59092cee82c262c7f6085a8c029b6",
    ("star-churn", 0, None): "0b6a36deef8d82f8b5fe00741cbfbd89255f720320fc554a1e1702b4d0d1836a",
    ("star-churn", 0, 3): "2262c3c63fcda80f37b23ffe9c36acd0df17c8739cdb3d8d60a4dffcb073581b",
    # the hub re-rises after most drops here, so its level-1 target set
    # serves most of its ownership hand-overs
    ("star-churn", 0, None, 256): "bd2c47c983d258bebfaff8656f1678f4b2c45d515060536e21e80a83544ebcc1",
    # sparse-large's shape: every vertex stays at level 0
    ("random", 0, None, 4096, 8192): "27ea5091cf245733066e3595474d832c056b3c63357859a4ff446c2153c9952f",
}


# sha256 over repr((matching_size, mate, level)) after every update, one per
# PINNED_DIGESTS key.  These pin the states alone: a change that only drops
# or reorders procedure calls must leave them as they are.
PINNED_STATE_DIGESTS = {
    ("random", 0, None): "58d8a1dfe27846f3476c7b9fcc17c2f408f4ab4db501c08a2f26151bcb67a20e",
    ("random", 0, 3): "f736aa292cee358f522e70413e5bbded35acfb8b82a0cbe06664c7c7d809f278",
    ("random", 1, None): "51e382e5a1fdb430bcbef6fa46b1c987659992fbe66ca4b80458173e95dbbafb",
    ("random", 1, 3): "314f01313b87f4d18868c79bb71a8de72e78a1995737efcd106d0ff8e6f859d7",
    ("random", 2, None): "9b4a9f2b9367e33e5107e8aeb1c4bdf77c5a164e364d5562ebaa2def7073a254",
    ("random", 2, 3): "dd1806a1f70e216afc05b4f34f7d0161a692c901765df3b35dc24ca58b9e4a7f",
    ("star-churn", 0, None): "b1be923860bce02dbe0f7d179e7e9fb05c7d8aa917be23ff0a96187e7fcbbd3e",
    ("star-churn", 0, 3): "44f787be552e241f33c16ff5c5d36863db6ea4e258167e3a5ce0b4f63322096e",
    ("star-churn", 0, None, 256): "f01091b756bbb083ba56fb1a94050eb6d2708562787831a8321eeb83692020dc",
    ("random", 0, None, 4096, 8192): "e581c8f89450bb64f74793be296c69d3518aeba2428022b4e69db09dcefa88ce",
}


# sha256 over every observer event (hook name and arguments), one per
# PINNED_DIGESTS key.  These pin the epoch stream the metrics see: a change
# to how an event is produced must leave them as they are.
PINNED_EVENT_DIGESTS = {
    ("random", 0, None): "1daac2639b3eaf5e614a4ac21ff9899a58363d4a768caf8d5c2b26ba2ea59f1f",
    ("random", 0, 3): "a90e1c9b310b6a7e2d89c153ad0f409f8a277d24b66d415634a8e4a9b288d32e",
    ("random", 1, None): "c1bdc19c528bb217d9f5b8ce692aee4a01a11f1ddce7c553a1dc73663f81b466",
    ("random", 1, 3): "e9689a078b1aa7e2e053c7f51da098a7f129a4124b6f85b6426fbb051da14ef2",
    ("random", 2, None): "700966e4cb966a3e14b658d48814623af06cb8a31a5f58e8df8bb2b3a4b44d11",
    ("random", 2, 3): "b1a8f8a30d781a9b4e096a08d5d28817026f2250d6dc2a37089163e1428eeb4b",
    ("star-churn", 0, None): "211f81f3bd50fa0caba061b79cc0e4748296fd2d3029a7f83f0d4b0549006676",
    ("star-churn", 0, 3): "e70bdd118491a33d597e4956cad5a53f1465fe33b8b0276029748e7fdff69c37",
    ("star-churn", 0, None, 256): "327ea8edd105f64b7c0e55561cf087f3299ad5c4d4b9262848d662d6379ebd1b",
    ("random", 0, None, 4096, 8192): "95a790a98becc9d89a63c73e74849b625e31cc4eb233aecf805c6214f5e4a732",
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
    """An observer with all five hooks that hashes, in the order the engine
    makes them, each call's hook name and the facts it stands for, read
    from the state it is handed: the update index, the normalised edge
    and, for a match, its level, class, creator, owner and the sorted
    snapshot of the owner's edges."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def _record(self, *event):
        self.sha.update(repr(event).encode())

    def on_update_begin(self, state, kind, u, v):
        self._record("on_update_begin", state.update_index, kind, u, v)

    def on_update_end(self, state):
        self._record("on_update_end", state.update_index, state.matching_size)

    def on_match_set(self, state, u, v, owned_init):
        random = owned_init is not None
        self._record(
            "on_match_set", state.update_index, _edge(u, v),
            max(state.level[u], state.level[v]),
            "random" if random else "deterministic", state.trace[-1][0],
            u if random else None,
            tuple(_edge(u, w) for w in sorted(owned_init)) if random else None,
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
    assert _replay_digest(key) == PINNED_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr), ids=_pinned_id)
def test_state_digest_pinned(key):
    assert _replay_digest(key, _state_fields) == PINNED_STATE_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS, key=repr), ids=_pinned_id)
def test_event_digest_pinned(key):
    assert _event_digest(key) == PINNED_EVENT_DIGESTS[key]


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
    hands each observer hook the state first."""
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
        "on_update_begin", "on_update_end", "on_match_set", "on_match_unset",
        "on_edge_deleted",
    }
    for call in hooks:
        assert call.args and ast.unparse(call.args[0]) == "state", ast.unparse(call)


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
    assert _replay_digest(key) == PINNED_DIGESTS[key]
    assert calls > 50
    assert 2 * served > calls
