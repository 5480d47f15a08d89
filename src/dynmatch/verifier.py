"""Independent checker for the dynamic matching state.

Everything here recomputes freeness, degrees, and augmenting paths from the
adjacency and mate map alone; nothing trusts the engine's cached views.
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


def find_3_aug_path(
    adj: list[set[int]], mate: list[int | None]
) -> tuple[int, int, int, int] | None:
    """First length-3 augmenting path (u, v, y, z), scanning matched edges.

    u is a free neighbor of v, z a free neighbor of y = mate(v), z != u.
    Candidates are visited in ascending (v, y, u, z) order, so the result
    is deterministic for a given graph and matching.
    """
    free = {u for u, m in enumerate(mate) if m is None}
    for v, y in enumerate(mate):
        if y is None:
            continue
        fv = adj[v] & free
        if not fv:
            continue
        fy = adj[y] & free
        if not fy:
            continue
        for u in sorted(fv):
            for z in sorted(fy):
                if z != u:
                    return (u, v, y, z)
    return None


def check_invariants(state: State) -> ViolationReport:
    """Evaluate all ten structural checks; empty report means clean.

    O(n * threshold + m): single passes over vertices, matched pairs,
    owned-edge entries, and free vertices' neighborhoods.
    """
    n = state.config.n
    threshold = state.threshold
    adj = state.adj
    mate = state.mate
    level = state.level
    owners = state.owners
    out: list[Violation] = []
    add = out.append

    free = {u for u, m in enumerate(mate) if m is None}
    level1 = {u for u in range(n) if level[u] == 1}

    for u in range(n):
        v = mate[u]
        if v is not None:
            if v == u:
                add(Violation("SYM", (u,), "vertex matched to itself"))
                continue
            if mate[v] != u:
                add(Violation("SYM", (u, v), f"mate({v}) is {mate[v]}, not {u}"))
            if v not in adj[u]:
                add(Violation("SYM", (u, v), "matched pair is not an edge"))
            if level[u] != level[v]:
                add(Violation("4", (u, v), f"levels {level[u]} vs {level[v]}"))
            if level[u] == 0 and len(adj[u]) >= threshold:
                add(Violation("3", (u,), f"matched at level 0 with degree {len(adj[u])}"))
        else:
            if level[u] == 1:
                add(Violation("1a", (u,), "free vertex at level 1"))
            if level[u] != 0:
                add(Violation("1b", (u,), f"free vertex at level {level[u]}"))
            bad = adj[u] & free
            for w in bad:
                if u < w:
                    add(Violation("MAX", (u, w), "edge with both endpoints free"))
                add(Violation("1b", (u, w), "free vertex with free neighbor"))
        if level[u] == 0 and len(owners[u]) >= threshold:
            add(Violation("2", (u,), f"level-0 vertex owns {len(owners[u])} edges"))

    path = find_3_aug_path(adj, mate)
    if path is not None:
        add(Violation("5", path, "length-3 augmenting path"))

    # Ownership: every owned entry is a real edge, no edge is owned from
    # both sides, the totals cover every edge exactly once, and a level-0
    # vertex never owns an edge into level 1.
    total_owned = 0
    for u in range(n):
        owned = owners[u]
        total_owned += len(owned)
        if len(owned._items) != len(owned):
            add(Violation("OWN", (u,), "dense list and position map differ in length"))
        if not owned.keys() <= adj[u]:
            for w in owned.keys() - adj[u]:
                add(Violation("OWN", (u, w), "owned entry is not an edge"))
        if level[u] == 0:
            for w in owned.keys() & level1:
                add(Violation("OWN", (u, w), "level-0 endpoint owns cross-level edge"))
        for w in owned.keys():
            if u in owners[w]:
                if u < w:
                    add(Violation("OWN", (u, w), "edge owned by both endpoints"))
    if total_owned != state.edge_count:
        add(
            Violation(
                "OWN",
                (),
                f"{total_owned} owned entries for {state.edge_count} edges",
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

    # Free-neighbor indexes: every F(v) is exactly v's free neighbors.
    # Totals plus presence of every true (free, neighbor) pair imply set
    # equality without intersecting every neighborhood.
    free_index = state.free_index
    expected_pairs = 0
    for f in free:
        expected_pairs += len(adj[f])
        for w in adj[f]:
            if f not in free_index[w]:
                add(Violation("F", (w, f), f"free neighbor {f} missing from index of {w}"))
    actual_pairs = 0
    for v in range(n):
        fi = free_index[v]
        actual_pairs += len(fi)
        if len(fi._items) != len(fi):
            add(Violation("F", (v,), "dense list and position map differ in length"))
    if actual_pairs != expected_pairs:
        add(
            Violation(
                "F",
                (),
                f"{actual_pairs} indexed free-neighbor pairs, expected {expected_pairs}",
            )
        )

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
