"""Independent checker for the dynamic matching state.

Everything here recomputes freeness, degrees, and augmenting paths from the
adjacency and mate map alone, and checks the engine's cached counters
against them; nothing trusts the engine's cached views.
The exact-optimum oracle is an exponential search restricted to small
instances and exists purely to validate matching quality in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import State

INVARIANT_IDS = ("1a", "1b", "2", "3", "4", "5", "OWN", "F", "SYM", "MAX")

ORACLE_MAX_VERTICES = 20
ORACLE_MAX_EDGES = 28


class OracleLimitError(ValueError):
    """Instance exceeds the exponential-search guard of the oracle."""


@dataclass
class Violation:
    invariant: str
    subject: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}\t{self.subject}\t{self.detail}"


@dataclass
class ViolationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def ids(self) -> set[str]:
        return {v.invariant for v in self.violations}

    def to_text(self) -> str:
        if not self.violations:
            return "clean\n"
        return "".join(f"{v}\n" for v in self.violations)


def _first_3_aug_path(
    adj: list[set[int]], mate: list[int | None], free: set[int]
) -> tuple[int, int, int, int] | None:
    """First length-3 augmenting path (u, v, y, z), given the free vertices.

    A path u-v-y-z exists exactly when its reverse z-y-v-u does, so each
    matched pair is visited once, at its lower endpoint; a vertex whose
    mate does not point back is visited on its own.
    """
    for v, y in enumerate(mate):
        if y is None or (y < v and mate[y] == v):
            continue
        av = adj[v]
        if free.isdisjoint(av):
            continue
        ay = adj[y]
        if free.isdisjoint(ay):
            continue
        fy = sorted(ay & free)
        for u in sorted(av & free):
            for z in fy:
                if z != u:
                    return (u, v, y, z)
    return None


def find_3_aug_path(
    adj: list[set[int]], mate: list[int | None]
) -> tuple[int, int, int, int] | None:
    """First length-3 augmenting path (u, v, y, z), scanning matched edges.

    u is a free neighbor of v, z a free neighbor of y = mate(v), z != u.
    Candidates are visited in ascending (v, y, u, z) order, so the result
    is deterministic for a given graph and matching.
    """
    return _first_3_aug_path(adj, mate, {u for u, m in enumerate(mate) if m is None})


def check_invariants(state: State) -> ViolationReport:
    """Evaluate all ten structural checks; empty report means clean.

    O(n * threshold + m) in one pass over the vertices: each vertex's
    matching, levels, neighborhood, ownership list and free index are
    checked together, and the augmenting-path search reuses the pass's set
    of free vertices.  Each free vertex must sit in every neighbor's free
    index, and the total of index sizes must equal the number of
    (vertex, free neighbor) pairs, so every F(w) is exactly w's free
    neighbors: a free vertex sits in all its neighbors' indexes and a
    matched one in none.  The engine's counters are checked too:
    ``edge_count`` against the adjacency and the owned entries (OWN), and
    twice ``matching_size`` against the matched vertices (SYM).  Set
    operations are guarded by ``isdisjoint`` or ``<=``, so a set is built
    only to name a violation.
    """
    n = state.config.n
    threshold = state.threshold
    adj = state.adj
    mate = state.mate
    level = state.level
    owners = state.owners
    free_index = state.free_index
    out: list[Violation] = []
    add = out.append

    free = {u for u, m in enumerate(mate) if m is None}
    level1 = {u for u, lv in enumerate(level) if lv == 1}
    total_owned = 0
    expected_pairs = 0
    actual_pairs = 0
    for u, v, lu, nbrs, owned, fi in zip(range(n), mate, level, adj, owners, free_index):
        if v is None:
            if lu != 0:
                if lu == 1:
                    add(Violation("1a", (u,), "free vertex at level 1"))
                add(Violation("1b", (u,), f"free vertex at level {lu}"))
            if nbrs:
                if not free.isdisjoint(nbrs):
                    for w in nbrs & free:
                        if u < w:
                            add(Violation("MAX", (u, w), "edge with both endpoints free"))
                        add(Violation("1b", (u, w), "free vertex with free neighbor"))
                # Free-neighbor indexes: u is in the index of each neighbor.
                # With the totals below this makes every F(w) exactly w's
                # free neighbors, without intersecting every neighborhood.
                for w in nbrs:
                    if u not in free_index[w]:
                        add(Violation("F", (w, u), f"free neighbor {u} missing from index of {w}"))
                expected_pairs += len(nbrs)
        else:
            if v == u:
                add(Violation("SYM", (u,), "vertex matched to itself"))
            else:
                if mate[v] != u:
                    add(Violation("SYM", (u, v), f"mate({v}) is {mate[v]}, not {u}"))
                if v not in nbrs:
                    add(Violation("SYM", (u, v), "matched pair is not an edge"))
                if lu != level[v]:
                    add(Violation("4", (u, v), f"levels {lu} vs {level[v]}"))
                if lu == 0 and len(nbrs) >= threshold:
                    add(Violation("3", (u,), f"matched at level 0 with degree {len(nbrs)}"))

        # Ownership: every owned entry is a real edge, no edge is owned
        # from both sides, the totals cover every edge exactly once, and a
        # level-0 vertex owns fewer than threshold edges, none into level 1.
        if owned or owned._items:
            k = len(owned)
            total_owned += k
            if len(owned._items) != k:
                add(Violation("OWN", (u,), "dense list and position map differ in length"))
            if lu == 0 and k >= threshold:
                add(Violation("2", (u,), f"level-0 vertex owns {k} edges"))
            keys = owned.keys()
            if not keys <= nbrs:
                for w in keys - nbrs:
                    add(Violation("OWN", (u, w), "owned entry is not an edge"))
            if lu == 0 and level1 and not keys.isdisjoint(level1):
                for w in keys & level1:
                    add(Violation("OWN", (u, w), "level-0 endpoint owns cross-level edge"))
            for w in keys:
                if u in owners[w] and u < w:
                    add(Violation("OWN", (u, w), "edge owned by both endpoints"))
        if fi or fi._items:
            actual_pairs += len(fi)
            if len(fi._items) != len(fi):
                add(Violation("F", (u,), "dense list and position map differ in length"))

    path = _first_3_aug_path(adj, mate, free)
    if path is not None:
        add(Violation("5", path, "length-3 augmenting path"))
    # The engine's two counters against what they count.
    edge_count = state.edge_count
    edges = sum(map(len, adj)) // 2
    if edge_count != edges:
        add(Violation("OWN", (), f"edge count {edge_count}, adjacency holds {edges} edges"))
    if total_owned != edge_count:
        add(Violation("OWN", (), f"{total_owned} owned entries for {edge_count} edges"))
    size, matched = state.matching_size, n - len(free)
    if 2 * size != matched:
        add(Violation("SYM", (), f"matching size {size}, {matched} matched vertices"))
    if actual_pairs != expected_pairs:
        add(
            Violation(
                "F",
                (),
                f"{actual_pairs} indexed free-neighbor pairs, expected {expected_pairs}",
            )
        )
    # Level-1 target sets: a holder sits at level 1, and its set covers
    # every owned target at level 1.
    for x, targets in state.level1_owned.items():
        if level[x] != 1:
            add(Violation("OWN", (x,), f"level-1 target set held at level {level[x]}"))
        for w in owners[x].keys():
            if level[w] == 1 and w not in targets:
                add(Violation("OWN", (x, w), "owned level-1 target missing from target set"))

    return ViolationReport(out)


def brute_force_mcm(adj: list[set[int]]) -> int:
    """Exact maximum-cardinality matching size by exhaustive branching.

    Guarded: requires at most 20 non-isolated vertices or at most 28 edges.
    Branches on the lowest-id active vertex (skip it, or match it to each
    neighbor), memoizing on the active-vertex bitmask.
    """
    verts = [v for v in range(len(adj)) if adj[v]]
    m = sum(len(adj[v]) for v in verts) // 2
    if len(verts) > ORACLE_MAX_VERTICES and m > ORACLE_MAX_EDGES:
        raise OracleLimitError(
            f"instance too large for oracle: {len(verts)} vertices, {m} edges"
        )
    index = {v: i for i, v in enumerate(verts)}
    nb = [0] * len(verts)
    for v in verts:
        for w in adj[v]:
            nb[index[v]] |= 1 << index[w]
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if not mask:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        u_bit = mask & -mask
        u = u_bit.bit_length() - 1
        rest = mask ^ u_bit
        cand = nb[u] & rest
        if not cand:
            result = best(rest)
        else:
            result = best(rest)
            while cand:
                v_bit = cand & -cand
                cand ^= v_bit
                r = 1 + best(rest ^ v_bit)
                if r > result:
                    result = r
        memo[mask] = result
        return result

    return best((1 << len(verts)) - 1)


def check_ratio(state: State) -> bool:
    """True iff the maintained matching is a 3/2-approximation.

    Integer comparison 2 * optimum <= 3 * |M|; raises
    :class:`OracleLimitError` beyond the oracle guard.
    """
    optimum = brute_force_mcm(state.adj)
    return 2 * optimum <= 3 * state.matching_size
