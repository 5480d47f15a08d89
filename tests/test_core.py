import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dynmatch
from dynmatch import (
    Config,
    IndexableSet,
    State,
    check_invariants,
    default_threshold,
)
from dynmatch.core import EMPTY_ADJ, EMPTY_SET, FreeNeighborIndex
from dynmatch.engine import _match, _unmatch, delete_edge, insert_edge


def make_state(n, threshold=None, seed=0):
    return State(Config(n=n, threshold=threshold, seed=seed))


def match(s, u, v):
    _match(s, u, v)


def details(s):
    """(invariant, detail) of every violation the verifier reports on s."""
    return {(v.invariant, v.detail) for v in check_invariants(s).violations}


class TestConfig:
    def test_default_threshold_is_ceil_sqrt(self):
        assert default_threshold(1) == 1
        assert default_threshold(4) == 2
        assert default_threshold(8) == 3
        assert default_threshold(9) == 3
        assert default_threshold(64) == 8
        assert default_threshold(65) == 9

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            Config(n=0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            Config(n=4, threshold=0)

    @pytest.mark.parametrize("n", (4.0, 4.5, "4", None))
    def test_non_int_n_rejected(self, n):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            Config(n=n)

    @pytest.mark.parametrize("threshold", (2.0, 2.5, "2"))
    def test_non_int_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be an int"):
            Config(n=8, threshold=threshold)

    def test_new_state_empty(self):
        s = make_state(4, seed=1)
        assert s.edge_count == 0
        assert s.matching_size == 0
        assert all(m is None for m in s.mate)
        assert all(lv == 0 for lv in s.level)

    def test_single_vertex(self):
        s = make_state(1)
        assert s.mate[0] is None
        assert s.level[0] == 0


class TestEmptyContainers:
    """A container that holds nothing allocates nothing."""

    def test_large_state_is_small(self):
        # About 2.5 MiB: the per-vertex lists, whose slots all point at
        # shared empties.  Any object allocated per vertex (an empty
        # ownership list or free index is about 80 B) breaks the bound.
        tracemalloc.start()
        try:
            s = State(Config(n=65536))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.n == 65536
        assert size <= 4 * 2**20

    def test_untouched_adjacency_is_shared_sentinel(self):
        s = make_state(4)
        s.add_edge(0, 1)
        assert s.adj[2] is EMPTY_ADJ and s.adj[3] is EMPTY_ADJ
        assert s.adj[0] == {1} and s.adj[1] == {0}
        assert EMPTY_ADJ == frozenset()

    def test_containers_are_shared_empties_until_written(self):
        s = make_state(4)
        # one empty serves every slot of both lists
        assert type(EMPTY_SET) is IndexableSet
        assert all(c is EMPTY_SET for c in s.owners + s.free_index)
        insert_edge(s, 0, 1)
        insert_edge(s, 1, 2)  # 2 is free at matched 1: F(1)'s first entry
        owners = [v for v in range(4) if s.owners[v] is not EMPTY_SET]
        assert owners == [v for v in range(4) if s.owners[v]]
        assert [v for v in range(4) if s.free_index[v] is not EMPTY_SET] == [1]
        written = list(s.owners), list(s.free_index)
        delete_edge(s, 1, 2)
        delete_edge(s, 0, 1)
        # an emptied container keeps its object: no shared empty comes back
        for before, after in zip(written, (s.owners, s.free_index)):
            assert all(b is a for b, a in zip(before, after))

    def test_emptied_containers_drop_their_storage(self):
        s = make_state(4)
        insert_edge(s, 0, 1)
        insert_edge(s, 1, 2)
        delete_edge(s, 1, 2)
        delete_edge(s, 0, 1)
        fresh = sys.getsizeof(IndexableSet())
        for v in (0, 1, 2):
            assert s.owners[v]._items == () and s.free_index[v]._items == ()
            assert sys.getsizeof(s.owners[v]) == fresh
            assert sys.getsizeof(s.free_index[v]) == fresh
            # the last edge's removal puts the shared sentinel back
            assert s.adj[v] is EMPTY_ADJ
        insert_edge(s, 0, 2)
        assert s.adj[0] == {2} and s.adj[1] is EMPTY_ADJ


class TestFreeNeighborIndex:
    """An :class:`IndexableSet` in its free-index role: ``insert``,
    ``delete`` and ``get_free``."""

    def test_empty_has_free_false(self):
        s = make_state(4)
        assert not s.free_index[0]
        assert s.free_index[0].get_free() is None

    def test_get_free_returns_member(self):
        fni = IndexableSet()
        fni.insert(7)
        fni.insert(3)
        assert fni.get_free() in {3, 7}
        fni.delete(fni.get_free())
        assert fni.get_free() in {3, 7}
        fni.delete(fni.get_free())
        assert fni.get_free() is None
        assert not fni

    @pytest.mark.parametrize(
        "members, skip, expected",
        [
            ((4, 6), 1, 6),  # skip absent
            ((4,), 4, None),  # skip the only member
            ((4, 6), 6, 4),  # skip last of two
            ((2, 4, 6), 4, 6),  # skip not last
        ],
    )
    def test_get_free_skip(self, members, skip, expected):
        fni = IndexableSet()
        for x in members:
            fni.insert(x)
        assert fni.get_free(skip) == expected
        # a read: the dense list and the position map stay as they were
        assert list(fni) == list(members)
        assert dict(fni) == {x: i for i, x in enumerate(members)}

    def test_delete_absent_raises(self):
        fni = FreeNeighborIndex()
        fni.insert(5)
        assert len(fni) == 1 and 5 in fni
        fni.delete(5)
        assert len(fni) == 0 and 5 not in fni
        # every call does work: a second delete finds nothing and raises,
        # leaving the index empty
        with pytest.raises(KeyError):
            fni.delete(5)
        with pytest.raises(KeyError):
            fni.delete(3)
        assert fni._items == () and not fni

    def test_total_and_has_free_exact(self):
        s = make_state(9)
        s.free_add(4, 0)
        s.free_add(4, 3)
        assert len(s.free_index[4]) == 2
        assert s.free_index[4]
        # an entry lives in one index only
        assert [v for v in range(9) if 0 in s.free_index[v]] == [4]
        s.free_index[4].delete(0)
        s.free_index[4].delete(3)
        assert len(s.free_index[4]) == 0
        assert not s.free_index[4]
        assert not any(s.free_index)

    def test_get_free_deterministic_for_same_history(self):
        a = IndexableSet()
        b = IndexableSet()
        for fni in (a, b):
            for x in (9, 2, 14):
                fni.insert(x)
            fni.delete(2)
        assert a.get_free() == b.get_free()

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 30)),
            max_size=200,
        )
    )
    def test_matches_reference_set(self, ops):
        n = 31
        indexes = [FreeNeighborIndex() for _ in range(4)]
        reference = [set() for _ in indexes]
        for i, insert, u in ops:
            fni, ref = indexes[i], reference[i]
            # the exact contract: insert an absent member, delete a present
            # one; a delete of an absent member raises and changes nothing
            if insert and u not in ref:
                fni.insert(u)
                ref.add(u)
            elif not insert and u in ref:
                fni.delete(u)
                ref.remove(u)
            elif not insert:
                with pytest.raises(KeyError):
                    fni.delete(u)
            assert set(fni) == ref
            assert len(fni) == len(fni._items) == len(ref)
            assert bool(fni) == bool(ref)
            assert (u in fni) == (u in ref)
            if ref:
                assert fni.get_free() in ref
            else:
                assert fni.get_free() is None
                assert fni._items == ()
            if ref - {u}:
                assert fni.get_free(u) in ref - {u}
            else:
                assert fni.get_free(u) is None
            assert fni == {x: i for i, x in enumerate(fni._items)}
        for u in range(n):
            assert all((u in fni) == (u in ref) for fni, ref in zip(indexes, reference))


class TestIndexableSet:
    def test_swap_remove_keeps_items_sampleable(self):
        s = IndexableSet()
        for x in (4, 7, 9):
            s.add(x)
        s.remove(7)
        assert set(s) == {4, 9}
        rng = random.Random(0)
        seen = {s.sample(rng) for _ in range(50)}
        assert seen == {4, 9}

    def test_add_duplicate_raises(self):
        """add trusts its caller; the verifier reports a duplicate add."""
        s = make_state(2)
        insert_edge(s, 0, 1)
        assert 1 in s.owners[0] and check_invariants(s).ok
        s.owners[0].add(1)
        assert details(s) == {("OWN", "dense list and position map differ in length")}

    def test_remove_absent_raises(self):
        s = IndexableSet()
        with pytest.raises(KeyError):
            s.remove(3)

    def test_sample_empty_raises(self):
        s = IndexableSet()
        with pytest.raises(ValueError):
            s.sample(random.Random(0))

    def test_iteration_follows_dense_list_after_swap_remove(self):
        s = IndexableSet()
        for x in (1, 2, 3, 4):
            s.add(x)
        s.remove(2)  # the last member, 4, moves into 2's slot
        assert list(s) == [1, 4, 3]
        s.remove(3)
        s.add(2)
        assert list(s) == [1, 4, 2]

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9))), st.integers(0, 2**16))
    def test_mirrors_a_plain_set(self, ops, seed):
        s = IndexableSet()
        ref = set()
        order = []  # the dense list, swap-remove included
        rng = random.Random(seed)
        for is_add, x in ops:
            if is_add:
                if x not in ref:
                    s.add(x)
                    ref.add(x)
                    order.append(x)
            elif x in ref:
                s.remove(x)
                ref.remove(x)
                i = order.index(x)
                last = order.pop()
                if last != x:
                    order[i] = last
            assert len(s) == len(ref)
            assert bool(s) == bool(ref)
            assert all((y in s) == (y in ref) for y in range(10))
            assert list(s) == order
            if ref:
                assert s.sample(rng) in ref
            else:
                assert s._items == ()


class TestProtocol:
    """Membership and size must stay the dict's C-level slots: a Python
    ``__contains__`` or ``__len__`` here would add a call to every ownership
    test and free-index probe on the update path."""

    @pytest.mark.parametrize(
        "cls", [IndexableSet, FreeNeighborIndex], ids=["IndexableSet", "FreeNeighborIndex"]
    )
    def test_membership_and_size_are_dict_slots(self, cls):
        assert cls.__contains__ is dict.__contains__
        assert cls.__len__ is dict.__len__
        assert not hasattr(cls, "__bool__")

    def test_one_set_type_under_both_names(self):
        """Ownership lists and free indexes are one class.  The free-index
        names are aliases, not copies, so no method body is duplicated;
        ``FreeNeighborIndex`` is a module alias and no public name."""
        assert IndexableSet.insert is IndexableSet.add
        assert IndexableSet.delete is IndexableSet.remove
        assert dynmatch.core.FreeNeighborIndex is IndexableSet
        assert "FreeNeighborIndex" not in dynmatch.__all__


class TestOwnership:
    def test_add_remove_roundtrip(self):
        s = make_state(4)
        s.add_edge(0, 1)
        s.own_add(0, 1)
        assert 1 in s.owners[0]
        s.own_remove(0, 1)
        assert len(s.owners[0]) == 0

    def test_double_ownership_rejected(self):
        """own_add trusts its caller; the verifier reports a second owner."""
        s = make_state(4)
        s.add_edge(0, 1)
        s.own_add(0, 1)
        s.own_add(1, 0)
        assert ("OWN", "edge owned by both endpoints") in details(s)

    def test_own_add_requires_edge(self):
        """own_add trusts its caller; the verifier reports a non-edge."""
        s = make_state(4)
        s.own_add(0, 1)
        assert ("OWN", "owned entry is not an edge") in details(s)

    def test_remove_middle_keeps_rest_sampleable(self):
        s = make_state(5)
        for v in (1, 2, 3):
            s.add_edge(0, v)
            s.own_add(0, v)
        s.own_remove(0, 2)
        seen = {s.owners[0].sample(s.rng) for _ in range(60)}
        assert seen == {1, 3}

    def test_sample_single_forced(self):
        s = make_state(3, seed=99)
        s.add_edge(0, 2)
        s.own_add(0, 2)
        assert s.owners[0].sample(s.rng) == 2

    def test_sample_empty_raises(self):
        s = make_state(3)
        with pytest.raises(ValueError):
            s.owners[0].sample(s.rng)


class TestSamplingUniformity:
    def test_two_elements_frequency(self):
        # 1e5 fresh-seeded draws from a 2-element list: each side 0.5 +/- 0.02.
        s = make_state(3)
        s.add_edge(0, 1)
        s.add_edge(0, 2)
        s.own_add(0, 1)
        s.own_add(0, 2)
        draws = 100_000
        hits = 0
        for seed in range(draws):
            s.rng = random.Random(seed)
            if s.owners[0].sample(s.rng) == 1:
                hits += 1
        assert abs(hits / draws - 0.5) < 0.02

    @pytest.mark.parametrize("k", [3, 5])
    def test_k_elements_within_bound(self, k):
        s = make_state(k + 1)
        for v in range(1, k + 1):
            s.add_edge(0, v)
            s.own_add(0, v)
        draws = 20_000
        counts = [0] * (k + 1)
        rng = random.Random(12345)
        s.rng = rng
        for _ in range(draws):
            counts[s.owners[0].sample(s.rng)] += 1
        bound = 4 * math.sqrt(math.log(k) / draws)
        for v in range(1, k + 1):
            assert abs(counts[v] / draws - 1 / k) < bound

    def test_replay_determinism(self):
        outcomes = []
        for _ in range(2):
            s = make_state(4, seed=7)
            for v in (1, 2, 3):
                s.add_edge(0, v)
                s.own_add(0, v)
            outcomes.append([s.owners[0].sample(s.rng) for _ in range(20)])
        assert outcomes[0] == outcomes[1]


class TestMatching:
    """The matching writers trust their callers; a pair they should not
    have written or cleared shows up in the verifier's SYM check."""

    def test_set_and_unset(self):
        s = make_state(4)
        s.add_edge(0, 1)
        match(s, 0, 1)
        assert s.mate[0] == 1 and s.mate[1] == 0
        assert s.matching_size == 1
        _unmatch(s, 0, 1)
        assert s.mate[0] is None and s.mate[1] is None
        assert s.matching_size == 0

    def test_set_match_on_matched_rejected(self):
        s = make_state(4)
        s.add_edge(0, 1)
        s.add_edge(1, 2)
        match(s, 0, 1)
        match(s, 1, 2)
        assert ("SYM", "mate(1) is 2, not 0") in details(s)

    def test_set_match_requires_edge(self):
        s = make_state(4)
        match(s, 0, 1)
        assert ("SYM", "matched pair is not an edge") in details(s)

    def test_unset_requires_matched_pair(self):
        s = make_state(4)
        s.add_edge(0, 1)
        s.add_edge(0, 2)
        match(s, 0, 1)
        _unmatch(s, 0, 2)
        assert ("SYM", "mate(0) is None, not 1") in details(s)
