"""Core state for the dynamic matching structure.

Holds the graph adjacency, the matching (mate map), the two-level vertex
partition, per-vertex ownership lists, and per-vertex free-neighbor indexes.
Both per-vertex containers are one type, :class:`IndexableSet`: a dict
mapping each member to its slot in a dense list, so membership and size are
C-level dict operations.  All update-time operations here are O(1),
``sample`` and ``get_free`` included.  Update logic lives in
:mod:`dynmatch.engine`.

A vertex with nothing allocates nothing.  A vertex with no edge has the
shared :data:`EMPTY_ADJ` as its adjacency, and a vertex whose ownership
list or free index was never written has the one shared :data:`EMPTY_SET`.
The first write to a vertex's container replaces the shared empty with a
fresh one, which keeps its object from then on: a container that empties
again holds ``()`` as its dense list and no dict key table.  So a fresh
state costs three list slots per vertex and no object.

The free indexes follow one rule, which the engine keeps: a vertex sits in
all of its neighbors' indexes or in none.  So one membership test says
whether a vertex is indexed, and no count of its entries is kept.

Inputs are validated once, at the update boundary: ``apply_update``,
``insert_edge`` and ``delete_edge`` in :mod:`dynmatch.engine` reject bad
ids, self-loops, duplicate inserts and absent deletes before any mutation.
The primitives here trust their callers and re-check nothing;
:func:`dynmatch.verifier.check_invariants` is the safety net that reports
any state a wrong call leaves behind.
"""

from __future__ import annotations

import math
import random
from collections.abc import Hashable
from dataclasses import dataclass

# Adjacency of every vertex with no edge.  Shared and immutable: swapped for
# a real set by ``State.add_edge`` and back by ``State.remove_edge``.
EMPTY_ADJ: frozenset[int] = frozenset()


def default_threshold(n: int) -> int:
    """Ceiling of sqrt(n): the cutoff separating the two vertex levels."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


@dataclass
class Config:
    """Construction parameters for a :class:`State`.

    ``threshold`` defaults to ceil(sqrt(n)); tests override it to reach the
    high-level machinery on tiny graphs.
    """

    n: int
    threshold: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValueError(f"vertex count must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        if self.threshold is None:
            self.threshold = default_threshold(self.n)
        elif type(self.threshold) is not int:
            raise ValueError(f"threshold must be an int, got {self.threshold!r}")
        elif self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")


class IndexableSet(dict):
    """Set of hashable members with O(1) add/remove/contains and O(1) draws:
    ``sample`` draws a uniform member, ``get_free`` any member.

    The one per-vertex set type: ownership lists use ``add``/``remove``/
    ``sample``, and free-neighbor indexes ``insert``/``delete``/``get_free``.
    The dict maps each member to its slot in the dense list ``_items``, so
    ``in``, ``len`` and truthiness are the dict's own C-level operations.
    The list backs the draws; removal swaps the victim with the last list
    element so both structures stay consistent without shifting.  Iteration
    yields the members in dense-list order.

    An empty set holds ``()`` as its dense list and no key table: the first
    member binds a fresh list, and the removal that empties the set drops
    both (a dict keeps its key table through ``pop``, so it is cleared).

    ``add`` takes an absent member and is not checked; ``remove`` of an
    absent member raises ``KeyError``, and ``sample`` of an empty set
    ``ValueError``.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[Hashable] | tuple[()] = ()

    def __iter__(self):
        return iter(self._items)

    def add(self, x: Hashable) -> None:
        items = self._items
        if items:
            self[x] = len(items)
            items.append(x)
        else:
            self[x] = 0
            self._items = [x]

    def remove(self, x: Hashable) -> None:
        pos = self.pop(x)
        items = self._items
        last = items.pop()
        if last != x:
            items[pos] = last
            self[last] = pos
        elif not items:
            self._items = ()
            self.clear()

    # The free-index names of add/remove: the benchmark's tracer and its
    # pinned call counts count free-index calls under these names, apart
    # from the ownership lists' add/remove.
    insert = add
    delete = remove

    def sample(self, rng: random.Random) -> Hashable:
        return self._items[rng.randrange(len(self))]

    def get_free(self, skip: int | None = None) -> int | None:
        """The last member of the dense list other than ``skip``, or None:
        the analysis only needs *some* free neighbor."""
        items = self._items
        if items and items[-1] != skip:
            return items[-1]
        return items[-2] if len(items) > 1 else None


# Not a public name: kept only because the benchmark's tracer looks up the
# free index's methods on this attribute.
FreeNeighborIndex = IndexableSet

# Ownership list and free index of every vertex whose container was never
# written.  Shared by both lists of every state in the process, so nothing
# may write into it: a writer swaps in a fresh set first (``State.own_add``,
# and the engine's ``insert_to_f_list`` and ``insert_edge``).
EMPTY_SET: IndexableSet = IndexableSet()


class State:
    """Complete algorithm state over a fixed vertex set [0, n).

    Starts as the empty graph: every vertex free, at level 0, owning
    nothing, with the shared :data:`EMPTY_ADJ` as its adjacency and the
    shared :data:`EMPTY_SET` as its ownership list and free index until the
    first write to each.  Readers take a shared empty as the empty container
    it is.  ``trace`` collects the procedure calls of the current update.
    """

    def __init__(self, config: Config) -> None:
        n = config.n
        self.config = config
        self.threshold = config.threshold
        self.adj: list[set[int] | frozenset[int]] = [EMPTY_ADJ] * n
        self.mate: list[int | None] = [None] * n
        self.level: list[int] = [0] * n
        self.owners: list[IndexableSet] = [EMPTY_SET] * n
        self.free_index: list[IndexableSet] = [EMPTY_SET] * n
        # Level-1 target sets: only a vertex that handle_delete_level1
        # re-raised at once holds one, a superset of its owned targets at
        # level 1, so its next drop skips the scan of its whole list.
        self.level1_owned: dict[int, set[int]] = {}
        self.rng = random.Random(config.seed)
        self.edge_count = 0
        self.matching_size = 0
        self.update_index = -1
        self.trace: list[tuple] = []
        self.observer = None

    @property
    def n(self) -> int:
        return self.config.n

    def check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise ValueError(f"vertex id must be an int, got {v!r}")
        if not 0 <= v < self.config.n:
            raise ValueError(f"vertex {v} out of range [0, {self.config.n})")

    # -- adjacency ---------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Record edge (u, v); a vertex's first edge replaces EMPTY_ADJ."""
        adj = self.adj
        a = adj[u]
        if a is EMPTY_ADJ:
            adj[u] = {v}
        else:
            a.add(v)
        a = adj[v]
        if a is EMPTY_ADJ:
            adj[v] = {u}
        else:
            a.add(u)
        self.edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Drop edge (u, v); a vertex's last edge restores EMPTY_ADJ."""
        adj = self.adj
        adj[u].remove(v)
        adj[v].remove(u)
        if not adj[u]:
            adj[u] = EMPTY_ADJ
        if not adj[v]:
            adj[v] = EMPTY_ADJ
        self.edge_count -= 1

    # -- ownership ---------------------------------------------------------

    def own_add(self, owner: int, other: int) -> None:
        """Charge edge (owner, other), which has no owner yet, to owner;
        owner's first owned edge replaces EMPTY_SET."""
        owned = self.owners[owner]
        if owned is EMPTY_SET:
            owned = self.owners[owner] = IndexableSet()
        owned.add(other)

    def own_remove(self, owner: int, other: int) -> None:
        self.owners[owner].remove(other)
