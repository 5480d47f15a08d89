import ast
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dynmatch.verifier
from conftest import index_free
from dynmatch import (
    Config,
    State,
    check_invariants,
    check_ratio,
    find_3_aug_path,
    gen_random,
    maximum_matching_size,
    replay,
)


def adj_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def path_edges(k):
    return [(i, i + 1) for i in range(k - 1)]


def cycle_edges(k):
    return path_edges(k) + [(k - 1, 0)]


def match(s, u, v):
    s.mate[u] = v
    s.mate[v] = u
    s.matching_size += 1


PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def greedy_mate(adj):
    mate = [None] * len(adj)
    for u in range(len(adj)):
        if mate[u] is None:
            for v in sorted(adj[u]):
                if mate[v] is None:
                    mate[u], mate[v] = v, u
                    break
    return mate


def greedy_maximal_matching(adj):
    return sum(m is not None for m in greedy_mate(adj)) // 2


def draw_adj(data, n, max_edges):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_edges))
    return adj_from_edges(n, edges)


def brute_force_mcm(adj):
    """Exact maximum-matching size by exhaustive branching: an independent
    reference for small graphs, exponential in the number of vertices.

    Branches on the lowest-id active vertex (skip it, or match it to each
    neighbor), memoizing on the active-vertex bitmask.
    """
    verts = [v for v in range(len(adj)) if adj[v]]
    index = {v: i for i, v in enumerate(verts)}
    nb = [sum(1 << index[w] for w in adj[v]) for v in verts]
    memo = {}

    def best(mask):
        if not mask:
            return 0
        if mask not in memo:
            u_bit = mask & -mask
            rest = mask ^ u_bit
            cand = nb[u_bit.bit_length() - 1] & rest
            result = best(rest)
            while cand:
                v_bit = cand & -cand
                cand ^= v_bit
                result = max(result, 1 + best(rest ^ v_bit))
            memo[mask] = result
        return memo[mask]

    return best((1 << len(verts)) - 1)


class TestBruteForceMcm:
    """Closed forms of the maximum-matching size.  Here they check the
    exhaustive reference; TestMaximumMatchingSize inherits every one and
    runs it on the package's oracle."""

    size = staticmethod(brute_force_mcm)

    def test_triangle(self):
        assert self.size(adj_from_edges(3, cycle_edges(3))) == 1

    def test_path_five_vertices(self):
        assert self.size(adj_from_edges(5, path_edges(5))) == 2

    def test_petersen(self):
        assert self.size(adj_from_edges(10, PETERSEN)) == 5

    @pytest.mark.parametrize("k", range(2, 12))
    def test_path_closed_form(self, k):
        assert self.size(adj_from_edges(k, path_edges(k))) == k // 2

    @pytest.mark.parametrize("k", range(4, 13, 2))
    def test_even_cycle_closed_form(self, k):
        assert self.size(adj_from_edges(k, cycle_edges(k))) == k // 2

    def test_many_vertices_few_edges_allowed(self):
        # 24 non-isolated vertices on 12 disjoint edges
        edges = [(2 * i, 2 * i + 1) for i in range(12)]
        assert self.size(adj_from_edges(24, edges)) == 12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_at_least_greedy(self, n, data):
        adj = draw_adj(data, n, max_edges=14)
        assert self.size(adj) >= greedy_maximal_matching(adj)


def mates_to_start_from(adj, garbage):
    """An empty, a greedy maximal and a garbage ``mate`` for ``adj``."""
    return [None] * len(adj), greedy_mate(adj), garbage


class TestMaximumMatchingSize(TestBruteForceMcm):
    size = staticmethod(lambda adj: maximum_matching_size(adj, [None] * len(adj)))
    # a hypothesis test runs under one class only; equality with the
    # exhaustive reference, below, implies the greedy bound
    test_at_least_greedy = None

    @pytest.mark.parametrize("k", [41, 151])
    def test_odd_cycle_beyond_exhaustive_search(self, k):
        adj = adj_from_edges(k, cycle_edges(k))
        for mate in mates_to_start_from(adj, [(v + 1) % k for v in range(k)]):
            assert maximum_matching_size(adj, mate) == k // 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_matches_brute_force_from_any_mate(self, n, data):
        adj = draw_adj(data, n, max_edges=20)
        # garbage: non-edges, one-sided pairs, self-pointers, ids out of range
        garbage = data.draw(st.lists(st.none() | st.integers(-1, n), min_size=n, max_size=n))
        expected = brute_force_mcm(adj)
        for mate in mates_to_start_from(adj, garbage):
            assert maximum_matching_size(adj, mate) == expected

    def test_matches_networkx_beyond_exhaustive_search(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(22)
        for _ in range(1000):
            n = rng.randint(20, 150)
            graph = nx.gnp_random_graph(n, rng.uniform(1, 6) / n, seed=rng.randrange(2**32))
            adj = [set(graph[u]) for u in range(n)]
            expected = len(nx.max_weight_matching(graph, maxcardinality=True))
            garbage = [rng.choice((None, rng.randrange(n))) for _ in range(n)]
            for mate in mates_to_start_from(adj, garbage):
                assert maximum_matching_size(adj, mate) == expected


class TestFind3AugPath:
    def test_path_of_four(self):
        adj = adj_from_edges(4, path_edges(4))
        mate = [None, 2, 1, None]
        assert find_3_aug_path(adj, mate) == (0, 1, 2, 3)

    def test_triangle_endpoints_must_differ(self):
        adj = adj_from_edges(3, cycle_edges(3))
        mate = [1, 0, None]
        assert find_3_aug_path(adj, mate) is None

    def test_maximal_star(self):
        adj = adj_from_edges(5, [(0, i) for i in range(1, 5)])
        mate = [1, 0, None, None, None]
        assert find_3_aug_path(adj, mate) is None

    def test_no_matching_no_path(self):
        adj = adj_from_edges(4, path_edges(4))
        assert find_3_aug_path(adj, [None] * 4) is None

    @staticmethod
    def brute_force_first_path(adj, mate):
        """The least (v, y, u, z) over every length-3 augmenting path
        u-v-y-z, returned as (u, v, y, z); None when there is none."""
        paths = [
            (v, y, u, z)
            for v, y in enumerate(mate)
            if y is not None
            for u in adj[v]
            if mate[u] is None
            for z in adj[y]
            if mate[z] is None and z != u
        ]
        if not paths:
            return None
        v, y, u, z = min(paths)
        return (u, v, y, z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_matches_brute_force(self, n, data):
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True))
        # any set of disjoint edges, not only a matching the engine keeps
        picks = data.draw(st.permutations(edges)) if edges else []
        mate = [None] * n
        for u, v in picks[: data.draw(st.integers(0, len(picks)))]:
            if mate[u] is None and mate[v] is None:
                mate[u], mate[v] = v, u
        adj = adj_from_edges(n, edges)
        assert find_3_aug_path(adj, mate) == self.brute_force_first_path(adj, mate)


class TestCheckInvariants:
    def test_fresh_state_clean(self):
        assert check_invariants(State(Config(n=6))).ok

    def test_free_level1_vertex_reported(self):
        s = State(Config(n=4))
        s.level[2] = 1
        rep = check_invariants(s)
        assert "1a" in rep.ids()

    def test_injected_3_aug_path_reported(self):
        s = State(Config(n=4))
        for u, v in path_edges(4):
            s.add_edge(u, v)
            s.own_add(u, v)
        match(s, 1, 2)
        index_free(s, 1, 0)
        index_free(s, 2, 3)
        rep = check_invariants(s)
        assert "5" in rep.ids()
        assert "MAX" not in rep.ids()

    def test_both_endpoints_free_edge_reported(self):
        s = State(Config(n=2))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        index_free(s, 0, 1)
        index_free(s, 1, 0)
        rep = check_invariants(s)
        assert "MAX" in rep.ids()
        assert "1b" in rep.ids()

    def test_double_ownership_reported(self):
        s = State(Config(n=2))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        s.own_add(1, 0)
        rep = check_invariants(s)
        assert "OWN" in rep.ids()

    def test_unowned_edge_reported(self):
        s = State(Config(n=2))
        s.add_edge(0, 1)
        index_free(s, 0, 1)
        index_free(s, 1, 0)
        rep = check_invariants(s)
        assert "OWN" in rep.ids()

    def test_cross_level_ownership_reported(self):
        s = State(Config(n=3, threshold=2))
        s.add_edge(0, 1)
        s.add_edge(1, 2)
        s.own_add(0, 1)  # 0 stays level 0, 1 raised below: wrong owner side
        s.own_add(1, 2)
        match(s, 1, 2)
        s.level[1] = 1
        s.level[2] = 1
        index_free(s, 1, 0)
        rep = check_invariants(s)
        assert "OWN" in rep.ids()

    def test_stale_free_index_reported(self):
        s = State(Config(n=3))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        index_free(s, 0, 1)
        index_free(s, 1, 0)
        index_free(s, 2, 1)  # 1 is not a neighbor of 2
        rep = check_invariants(s)
        assert "F" in rep.ids()

    @staticmethod
    def _matched_path_012():
        """Path 0-1-2 with (0, 1) matched and 2 recorded free in F(1)."""
        s = State(Config(n=3, threshold=3))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        s.add_edge(1, 2)
        s.own_add(1, 2)
        match(s, 0, 1)
        index_free(s, 1, 2)
        assert check_invariants(s).ok
        return s

    def test_free_index_length_mismatch_reported(self):
        s = self._matched_path_012()
        s.free_index[1]._items.append(2)
        rep = check_invariants(s)
        assert rep.ids() == {"F"}
        assert [v.subject for v in rep.violations] == [(1,)]

    def test_ownership_length_mismatch_reported(self):
        s = self._matched_path_012()
        s.owners[0]._items.append(1)
        rep = check_invariants(s)
        assert rep.ids() == {"OWN"}
        assert [v.subject for v in rep.violations] == [(0,)]

    @staticmethod
    def _level1_pairs_0123():
        """Matched level-1 pairs (0, 1) and (2, 3) joined by 1-2, owned by 1,
        with 1 holding a level-1 target set; 4 is isolated at level 0."""
        s = State(Config(n=5, threshold=2))
        for u, v in ((0, 1), (1, 2), (2, 3)):
            s.add_edge(u, v)
            s.own_add(u, v)
        match(s, 0, 1)
        match(s, 2, 3)
        for u in range(4):
            s.level[u] = 1
        s.level1_owned[1] = {2}
        assert check_invariants(s).ok
        return s

    def test_level1_target_set_may_hold_stale_entries(self):
        s = self._level1_pairs_0123()
        s.level1_owned[1].update((0, 3, 4))
        assert check_invariants(s).ok

    def test_level1_target_set_missing_target_reported(self):
        s = self._level1_pairs_0123()
        s.level1_owned[1].clear()
        rep = check_invariants(s)
        assert rep.ids() == {"OWN"}
        assert [v.subject for v in rep.violations] == [(1, 2)]

    def test_level1_target_set_held_at_level_0_reported(self):
        s = self._level1_pairs_0123()
        s.level1_owned[4] = set()
        rep = check_invariants(s)
        assert rep.ids() == {"OWN"}
        assert [v.subject for v in rep.violations] == [(4,)]

    def test_mate_asymmetry_reported(self):
        s = State(Config(n=3))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        s.mate[0] = 1
        rep = check_invariants(s)
        assert "SYM" in rep.ids()

    def test_degree_rule_reported(self):
        s = State(Config(n=4, threshold=2))
        for v in (1, 2, 3):
            s.add_edge(0, v)
            s.own_add(0, v)
        match(s, 0, 1)
        index_free(s, 0, 2)
        index_free(s, 0, 3)
        rep = check_invariants(s)
        assert "3" in rep.ids()  # deg(0)=3 >= 2, matched at level 0
        assert "2" in rep.ids()  # |O_0|=3 >= 2 at level 0

    def test_self_matched_vertex_still_checked_for_rule_2(self):
        s = State(Config(n=3, threshold=1))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        index_free(s, 0, 1)
        s.mate[0] = 0
        rep = check_invariants(s)
        assert rep.ids() == {"SYM", "2"}  # |O_0|=1 >= 1 at level 0
        # one matched vertex: no matching size counts it
        assert [v.subject for v in rep.violations] == [(0,), (0,), ()]

    def test_level_mismatch_reported(self):
        s = State(Config(n=2))
        s.add_edge(0, 1)
        s.own_add(0, 1)
        match(s, 0, 1)
        s.level[0] = 1
        rep = check_invariants(s)
        assert "4" in rep.ids()

    def test_report_serialization(self):
        s = State(Config(n=4))
        s.level[2] = 1
        text = check_invariants(s).to_text()
        assert "1a" in text and text.endswith("\n")
        assert check_invariants(State(Config(n=2))).to_text() == "clean\n"


def _free(s):
    return [u for u, m in enumerate(s.mate) if m is None]


def _matched(s):
    return [u for u, m in enumerate(s.mate) if m is not None]


def _owned(s):
    return [(u, w) for u in range(s.n) for w in s.owners[u]]


def _matched_in_neighborhood(s):
    return [(u, w) for u in _matched(s) for w in s.adj[u]]


def _index_entries(s):
    return [(w, f) for w in range(s.n) for f in s.free_index[w]]


def _raise_free(s, u):
    s.level[u] = 1


def _forget_mate(s, u):
    s.mate[s.mate[u]] = None


def _drop_owned(s, uw):
    s.owners[uw[0]].remove(uw[1])


def _add_reverse_owned(s, uw):
    s.own_add(uw[1], uw[0])


def _index_matched(s, uw):
    index_free(s, uw[1], uw[0])


def _drop_index_entry(s, wf):
    s.free_index[wf[0]].delete(wf[1])


def _drop_owned_and_count(s, uw):
    """Forget the edge in its owner's list and in ``edge_count``, but not
    in the adjacency: the owned entries still cover the count."""
    _drop_owned(s, uw)
    s.edge_count -= 1


def _miscounts(s):
    return [-1, 1, 5]


def _miscount_matching(s, k):
    s.matching_size += k


def _free_at_non_neighbors(s):
    return [
        (w, f)
        for f in _free(s)
        for w in range(s.n)
        if w != f and w not in s.adj[f]
    ]


def _index_at_non_neighbor(s, wf):
    index_free(s, wf[0], wf[1])


# name: (targets in a state, corruption of one target, the invariant broken)
CORRUPTIONS = {
    "free vertex at level 1": (_free, _raise_free, "1a"),
    "asymmetric mate": (_matched, _forget_mate, "SYM"),
    "owned entry dropped": (_owned, _drop_owned, "OWN"),
    # caught only by the engine's counters against the adjacency and mates
    "owned entry and edge count dropped": (_owned, _drop_owned_and_count, "OWN"),
    "matching size miscounted": (_miscounts, _miscount_matching, "SYM"),
    "reverse owned entry added": (_owned, _add_reverse_owned, "OWN"),
    "matched vertex indexed": (_matched_in_neighborhood, _index_matched, "F"),
    "index entry removed": (_index_entries, _drop_index_entry, "F"),
    # caught only by the total of index sizes
    "free vertex indexed at a non-neighbor": (
        _free_at_non_neighbors, _index_at_non_neighbor, "F"
    ),
}


class TestFaultInjection:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(10, 60),
        st.integers(0, 999),
        st.sampled_from(sorted(CORRUPTIONS)),
        st.data(),
    )
    def test_corruption_reported(self, n, t, seed, name, data):
        s = State(Config(n=n, threshold=2, seed=seed))
        replay(s, gen_random(n, t, 0.6, seed).ops, verify_every=0)
        assert check_invariants(s).ok
        targets, corrupt, invariant = CORRUPTIONS[name]
        candidates = targets(s)
        assume(candidates)
        corrupt(s, data.draw(st.sampled_from(candidates)))
        assert invariant in check_invariants(s).ids()


def _engine_imports(source):
    """Modules named by the imports in ``source`` (a module of the
    ``dynmatch`` package) that are the engine or inside it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "dynmatch" + (f".{base}" if base else "")
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found += [m for m in names if m == "dynmatch.engine" or m.startswith("dynmatch.engine.")]
    return found


class TestIndependence:
    def test_verifier_does_not_import_the_engine(self):
        source = Path(dynmatch.verifier.__file__).read_text()
        assert _engine_imports(source) == []

    @pytest.mark.parametrize(
        "line",
        [
            "import dynmatch.engine",
            "import dynmatch.engine as eng",
            "from dynmatch.engine import insert_edge",
            "from dynmatch import engine",
            "from .engine import insert_edge",
            "from . import core, engine",
        ],
    )
    def test_guard_catches_engine_imports(self, line):
        assert _engine_imports(line)


class TestCheckRatio:
    def test_empty_graph_true(self):
        assert check_ratio(State(Config(n=3)))

    def test_engine_states_always_pass(self):
        seq = gen_random(10, 150, 0.6, 3)
        result = replay(State(Config(n=10, seed=4)), seq.ops, oracle=True)
        assert result.updates == 150 and result.dirty_at is None

    def test_half_matching_fails(self):
        # 4-path with only the middle edge matched: optimum 2, 2*2 > 3*1.
        s = State(Config(n=4))
        for u, v in path_edges(4):
            s.add_edge(u, v)
            s.own_add(u, v)
        match(s, 1, 2)
        assert not check_ratio(s)

    @pytest.mark.parametrize("step, expected", [(2, True), (4, False)])
    def test_forty_vertex_path(self, step, expected):
        # optimum 20: a perfect matching (20 pairs) passes, one middle edge
        # of every 4-vertex block (10 pairs) fails, as 2 * 20 > 3 * 10
        s = State(Config(n=40))
        for u, v in path_edges(40):
            s.add_edge(u, v)
            s.own_add(u, v)
        for u in range(step // 2 - 1, 40, step):
            match(s, u, u + 1)
        assert check_ratio(s) is expected
