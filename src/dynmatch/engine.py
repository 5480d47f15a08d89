"""Update engine: edge insertion and deletion with full invariant repair.

The two entry points, :func:`insert_edge` and :func:`delete_edge`, restore
the structure's working rules before returning:

  1a. every level-1 vertex is matched;
  1b. every free vertex is at level 0 and has only matched neighbors;
  2.  every level-0 vertex owns fewer than ``threshold`` edges;
  3.  every matched level-0 vertex has degree below ``threshold``;
  4.  matched partners share a level;
  5.  no length-3 augmenting path survives.

The repair procedures come in deterministic/randomized pairs.  ``flag`` is
1 only for a vertex that a randomized repair displaced, and makes its naive
settle raise and exchange paths deterministically.  Every other settle, both
endpoints of a deleted matched edge included, has flag 0, so one deletion
may run :func:`random_settle_augmented` once per endpoint.

A procedure that displaces a vertex settles it before returning.  The
vertex is settled by its level (:func:`handle_delete_level1` at level 1,
:func:`naive_settle_augmented` at level 0) through ``_settle``, the one
place that dispatches on it, so no caller re-settles what a callee left
free.

Inline macros (ownership transfers, free-list maintenance, the augmenting
path probe) are plain loops and are not recorded in the per-update trace;
the eight named procedures are.

Inputs are validated once: :func:`apply_update` rejects an unknown kind,
and :func:`insert_edge`/:func:`delete_edge` reject an out-of-range id, a
self-loop, a duplicate insert and an absent delete before any mutation.
Below them nothing is re-checked: the procedures, the macros and the
:mod:`dynmatch.core` primitives trust their callers, and ``_match`` and
``_unmatch`` are the only writers of the matching.  The verifier is the
safety net.

An attached observer gets three calls, each handed the state first plus
only what the engine alone knows: ``on_match_set`` with the pair matched
and the owned neighbors a random settle starts from, ``on_match_unset``
with the pair unmatched, and ``on_edge_deleted`` with the deleted edge.

All or none, and matched means unindexed: a vertex sits in every
neighbor's free index or in none, and in none while matched.  ``_match``
unindexes an endpoint only if its partner's index holds it, which, the
pair being an edge, says whether any index does.  A vertex is indexed
only as the free endpoint of a new edge whose other endpoint is matched,
or by a naive settle that finds no match and no path, so no index call is
a no-op.  A new edge between two free vertices indexes neither:
:func:`insert_edge` unindexes both before the edge joins their adjacency,
and ``handle_insert_level0`` matches them.
"""

from __future__ import annotations

from .core import State

PROCEDURE_NAMES = (
    "naive_settle_augmented",
    "random_settle_augmented",
    "deterministic_raise_level_to_1",
    "randomised_raise_level_to_1",
    "fix_3_aug_path_d",
    "fix_3_aug_path",
    "handle_delete_level1",
    "handle_insert_level0",
)


def _match(state, u, v, *, init=None):
    """Match u and v, and report it to the observer with ``init``, the
    owned neighbors a random settle started u from.  Both endpoints leave
    the free indexes first, each only if its partner's index holds it
    (all or none, and (u, v) is an edge): for a new edge between two free
    vertices :func:`insert_edge` has already done so.
    """
    free_index = state.free_index
    if u in free_index[v]:
        delete_from_f_list(state, u)
    if v in free_index[u]:
        delete_from_f_list(state, v)
    mate = state.mate
    mate[u] = v
    mate[v] = u
    state.matching_size += 1
    if state.observer is not None:
        state.observer.on_match_set(state, u, v, init)


def _unmatch(state, u, v):
    mate = state.mate
    mate[u] = None
    mate[v] = None
    state.matching_size -= 1
    if state.observer is not None:
        state.observer.on_match_unset(state, u, v)


# ---------------------------------------------------------------------------
# Macros (inline helpers, not traced)
# ---------------------------------------------------------------------------


def check_3_aug_path(state: State, u: int, v: int) -> int | None:
    """Free endpoint of a length-3 augmenting path u-v-mate(v)-z, if any.

    Reads a free neighbor of mate(v) other than u; ``v`` must be matched.
    Writes nothing; O(1).
    """
    return state.free_index[state.mate[v]].get_free(u)


def _note_level1(state: State, x: int, w: int) -> None:
    """Record level-1 target w in x's ``level1_owned`` set, if x holds one."""
    targets = state.level1_owned.get(x)
    if targets is not None:
        targets.add(w)


def transfer_ownership_from(state: State, u: int) -> None:
    """Hand u's edges whose other endpoint sits at level 1 to that endpoint.

    Consumes u's ``state.level1_owned`` set when it holds one: only its
    candidates still owned and at level 1 move, in ascending slot order,
    which is the order a scan of the whole list moves them in.  Without a
    set the whole list is scanned.  Each receiver records u, which is still
    at level 1 here and may rise again without a scan.
    """
    level = state.level
    owned = state.owners[u]
    targets = state.level1_owned.pop(u, None)
    if targets is None:
        moving = [w for w in owned if level[w]]
    else:
        moving = sorted(
            [w for w in targets if level[w] and w in owned], key=owned.__getitem__
        )
    for w in moving:
        state.own_remove(u, w)
        state.own_add(w, u)
        _note_level1(state, w, u)


def transfer_ownership_to(state: State, u: int) -> None:
    """Pull in u's edges currently owned by level-0 neighbors.

    Called before u rises to level 1, so a level-1 neighbor that owns its
    edge to u and holds a ``level1_owned`` set records u there.
    """
    level = state.level
    owners = state.owners
    level1_owned = state.level1_owned
    for w in state.adj[u]:
        if level[w] == 0:
            if u in owners[w]:
                state.own_remove(w, u)
                state.own_add(u, w)
        elif w in level1_owned and u in owners[w]:
            level1_owned[w].add(u)


def take_ownership(state: State, u: int) -> None:
    """Pull in every edge incident on u that u does not own yet."""
    owners = state.owners
    for w in state.adj[u]:
        if u in owners[w]:
            state.own_remove(w, u)
            state.own_add(u, w)


def insert_to_f_list(state: State, u: int) -> None:
    """Record u as free in every neighbor's index."""
    for w in state.adj[u]:
        state.free_add(w, u)


def delete_from_f_list(state: State, u: int) -> None:
    """Erase u, which every neighbor's free index holds, from each of them.

    ``_match`` is the caller, and :func:`insert_edge` for the endpoints of a
    new edge between two free vertices, before the edge is added.  Both
    test first whether u is indexed, so no call is a no-op.
    """
    free_index = state.free_index
    for w in state.adj[u]:
        free_index[w].delete(u)


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------


def _settle(state: State, x: int, flag: int) -> None:
    """Settle a vertex left free by a repair, according to its level.

    Not traced itself: the procedure it dispatches to is, and both are
    looked up as module globals at call time.
    """
    if state.level[x] == 1:
        handle_delete_level1(state, x, flag)
    else:
        naive_settle_augmented(state, x, flag)


def naive_settle_augmented(state: State, u: int, flag: int) -> None:
    """Settle a free level-0 vertex u by direct search.

    Matches u to a recorded free neighbor when one exists, raising
    whichever endpoint then exceeds the degree cutoff (deterministically
    when ``flag`` is set, randomly otherwise).  With no free neighbor, u
    scans its neighborhood for a length-3 augmenting path and fixes the
    first one found.  Only when no path is found is u recorded in its
    neighbors' free indexes: a fix that leaves u free has displaced it,
    and whoever displaced it has settled it.
    """
    state.trace.append(("naive_settle_augmented", u, flag))
    mate = state.mate
    adj = state.adj
    threshold = state.threshold
    w = state.free_index[u].get_free()
    if w is not None:
        _match(state, u, w)
        p = u if len(adj[u]) >= threshold else w
        if len(adj[p]) >= threshold:
            if flag:
                deterministic_raise_level_to_1(state, p)
            else:
                randomised_raise_level_to_1(state, p)
    else:
        for x in adj[u]:
            if mate[x] is None:
                continue
            z = check_3_aug_path(state, u, x)
            if z is not None:
                if flag:
                    fix_3_aug_path_d(state, u, x, mate[x], z)
                else:
                    fix_3_aug_path(state, u, x, mate[x], z)
                break
        else:
            insert_to_f_list(state, u)


def random_settle_augmented(state: State, u: int) -> None:
    """Match a free level-0 vertex u to a uniform pick from its owned edges.

    Raises the new pair to level 1 and probes for a fresh length-3
    augmenting path through u, fixing it.  A procedure that displaces a
    vertex settles it before returning: the pick's previous mate, if
    any, is settled here by its level, deterministically.
    """
    state.trace.append(("random_settle_augmented", u))
    # taken now: transfer_ownership_to(y) may move (u, y) away from u
    init = None if state.observer is None else tuple(state.owners[u])
    y = state.owners[u].sample(state.rng)
    transfer_ownership_to(state, y)
    # y now owns (y, u), and u rises below without a scan.
    _note_level1(state, y, u)
    x = state.mate[y]
    if x is not None:
        _unmatch(state, x, y)
    level = state.level
    level[u] = 1
    level[y] = 1
    _match(state, u, y, init=init)
    w = state.free_index[u].get_free()
    if w is not None:
        z = check_3_aug_path(state, w, u)
        if z is not None:
            fix_3_aug_path_d(state, w, u, y, z)
        elif w in state.free_index[y]:
            # F(y) is exactly {w}: any surviving path must end at w on
            # y's side, so retry the near side with a different free
            # neighbor of u (mate(y) is u, so this probes F(u) without w).
            x2 = check_3_aug_path(state, w, y)
            if x2 is not None:
                fix_3_aug_path_d(state, x2, u, y, w)
    if x is not None:
        _settle(state, x, 1)


def deterministic_raise_level_to_1(state: State, u: int) -> None:
    """Raise a matched level-0 pair to level 1, keeping the matching.

    u takes every incident edge; its mate collects the edges owned by its
    own level-0 neighbors.  The pair is unmatched and matched again at
    level 1, so an observer sees the match made again at its new level.
    """
    state.trace.append(("deterministic_raise_level_to_1", u))
    v = state.mate[u]
    take_ownership(state, u)
    transfer_ownership_to(state, v)
    level = state.level
    level[u] = 1
    level[v] = 1
    _unmatch(state, u, v)
    _match(state, u, v)


def randomised_raise_level_to_1(state: State, u: int) -> None:
    """Raise an over-degree matched level-0 vertex u via a random re-match.

    Dissolves u's current match, takes ownership of all incident edges and
    re-settles u randomly at level 1.  A procedure that displaces a vertex
    settles it before returning: the random settle settles the pick's
    previous mate, and u's own previous mate, if still free, is settled
    here by its level.
    """
    state.trace.append(("randomised_raise_level_to_1", u))
    mate = state.mate
    v = mate[u]
    _unmatch(state, u, v)
    take_ownership(state, u)
    random_settle_augmented(state, u)
    if mate[v] is None:
        _settle(state, v, 1)


def fix_3_aug_path_d(state: State, u: int, v: int, y: int, z: int) -> None:
    """Exchange the augmenting path u-v-y-z, raising all four to level 1.

    Deterministic leaf: makes no further procedure calls.  u is free at
    level 0, (v, y) is matched, z is a free neighbor of y distinct from u,
    and neither u nor z has a free neighbor.
    """
    state.trace.append(("fix_3_aug_path_d", u, v, y, z))
    level = state.level
    transfer_ownership_to(state, u)
    transfer_ownership_to(state, z)
    if level[v] == 0:
        transfer_ownership_to(state, v)
        transfer_ownership_to(state, y)
        level[v] = 1
        level[y] = 1
    _unmatch(state, v, y)
    _match(state, u, v)
    _match(state, y, z)
    level[u] = 1
    level[z] = 1


def fix_3_aug_path(state: State, u: int, v: int, y: int, z: int) -> None:
    """Exchange the augmenting path u-v-y-z, then restore levels case-wise.

    Same entry contract as :func:`fix_3_aug_path_d`, but reached with flag
    0 (see the module docstring), so over-degree endpoints are raised
    through the randomized path.
    """
    state.trace.append(("fix_3_aug_path", u, v, y, z))
    mate = state.mate
    level = state.level
    adj = state.adj
    threshold = state.threshold
    _unmatch(state, v, y)
    _match(state, u, v)
    _match(state, y, z)
    if level[v] == 1:
        # q is the endpoint over the cutoff, if either is; p rises in place
        p, q = (z, u) if len(adj[u]) >= threshold else (u, z)
        transfer_ownership_to(state, p)
        level[p] = 1
        if len(adj[q]) >= threshold:
            randomised_raise_level_to_1(state, q)
        else:
            transfer_ownership_to(state, q)
            level[q] = 1
    else:
        if len(adj[u]) >= threshold:
            randomised_raise_level_to_1(state, u)
        if len(adj[z]) >= threshold and mate[z] is not None and level[z] == 0:
            randomised_raise_level_to_1(state, z)


def handle_delete_level1(state: State, u: int, flag: int) -> None:
    """Re-settle a vertex left free at level 1.

    u first sheds the edges belonging at its level-1 neighbors and drops to
    level 0.  A still-large ownership list forces a randomized re-match,
    and u starts a ``level1_owned`` set so that its next drop visits only
    the level-1 targets it gains from here on; otherwise u settles naively.
    """
    state.trace.append(("handle_delete_level1", u, flag))
    transfer_ownership_from(state, u)
    state.level[u] = 0
    if len(state.owners[u]) >= state.threshold:
        state.level1_owned[u] = set()
        random_settle_augmented(state, u)
    else:
        naive_settle_augmented(state, u, flag)


def handle_insert_level0(state: State, u: int, v: int) -> None:
    """Insertion casework when both endpoints sit at level 0.

    The new edge is charged to ``u``, the endpoint with the larger
    ownership list (ties to the first argument); two free endpoints are
    matched on the spot.  If u's list reaches the threshold, u is
    re-matched randomly and its displaced mate settled.  Otherwise ``p``
    is a matched endpoint (v when v is matched) and ``q`` the other: an
    over-degree p is raised randomly, a free q probes for the augmenting
    path q-p-mate(p)-z, and an over-degree matched q is raised randomly.
    """
    state.trace.append(("handle_insert_level0", u, v))
    mate = state.mate
    level = state.level
    adj = state.adj
    threshold = state.threshold
    owners = state.owners
    if len(owners[u]) < len(owners[v]):
        u, v = v, u
    state.own_add(u, v)
    both_free = mate[u] is None and mate[v] is None
    if both_free:
        _match(state, u, v)
    if len(owners[u]) >= threshold:
        transfer_ownership_to(state, u)
        old_mate = mate[u]
        if old_mate is not None:
            _unmatch(state, u, old_mate)
        random_settle_augmented(state, u)
        if old_mate is not None and mate[old_mate] is None:
            _settle(state, old_mate, 1)
        if not both_free:
            if mate[v] is not None and len(adj[v]) >= threshold and level[v] == 0:
                deterministic_raise_level_to_1(state, v)
    else:
        p, q = (v, u) if mate[v] is not None else (u, v)
        if len(adj[p]) >= threshold:
            randomised_raise_level_to_1(state, p)
            if mate[q] is not None and len(adj[q]) >= threshold and level[q] == 0:
                deterministic_raise_level_to_1(state, q)
        elif mate[q] is None:
            z = check_3_aug_path(state, q, p)
            if z is not None:
                fix_3_aug_path(state, q, p, mate[p], z)
        elif len(adj[q]) >= threshold:
            randomised_raise_level_to_1(state, q)


# ---------------------------------------------------------------------------
# Update entry points
# ---------------------------------------------------------------------------


def insert_edge(state: State, u: int, v: int) -> list[tuple]:
    """Insert edge (u, v) and restore every working rule.

    Rejects self-loops and already-present edges.  A free endpoint whose
    other endpoint is matched is indexed there before any repair runs, so
    the repair procedures see the new adjacency; a repair that matches it
    takes it out of every index in ``_match``.  Two free endpoints are
    unindexed instead, before the edge joins their adjacency: the repair
    matches them at once.
    """
    state.check_vertex(u)
    state.check_vertex(v)
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) rejected")
    if v in state.adj[u]:
        raise ValueError(f"edge ({u}, {v}) already present")
    state.update_index += 1
    trace = state.trace = []
    mate = state.mate
    free_u = mate[u] is None
    free_v = mate[v] is None
    if free_u and free_v:
        # Both free, so both at level 0 with no free neighbor: the only
        # repair is handle_insert_level0's _match(u, v).  Unindex them now,
        # while the new edge is not yet in either adjacency; a vertex free
        # at the start of an update is indexed exactly when it has an edge.
        adj = state.adj
        if adj[u]:
            delete_from_f_list(state, u)
        if adj[v]:
            delete_from_f_list(state, v)
    state.add_edge(u, v)
    if free_u != free_v:
        # index the free endpoint x at its matched neighbor y
        x, y = (u, v) if free_u else (v, u)
        state.free_add(y, x)
    lu, lv = state.level[u], state.level[v]
    if lu == 1 and lv == 1:
        owner, other = (u, v) if u < v else (v, u)
        state.own_add(owner, other)
        _note_level1(state, owner, other)
    elif lu == 1 or lv == 1:
        if lu == 1:
            u, v = v, u
        # v is the level-1 endpoint and owns the edge
        state.own_add(v, u)
        if mate[u] is None:
            z = check_3_aug_path(state, u, v)
            if z is not None:
                fix_3_aug_path(state, u, v, mate[v], z)
        elif len(state.adj[u]) >= state.threshold:
            randomised_raise_level_to_1(state, u)
    else:
        handle_insert_level0(state, u, v)
    return trace


def delete_edge(state: State, u: int, v: int) -> list[tuple]:
    """Delete edge (u, v) and restore every working rule.

    Drops the edge from the adjacency, its owner's list, and the free
    endpoint, if any, from the other endpoint's free index.  Deleting an
    unmatched edge makes no procedure calls; a matched edge dissolves and
    both endpoints are re-settled according to their level.
    """
    state.check_vertex(u)
    state.check_vertex(v)
    if v not in state.adj[u]:
        raise ValueError(f"edge ({u}, {v}) not present")
    state.update_index += 1
    trace = state.trace = []
    state.remove_edge(u, v)
    if v in state.owners[u]:
        state.own_remove(u, v)
    else:
        state.own_remove(v, u)
    mate = state.mate
    if mate[v] is None:
        state.free_index[u].delete(v)
    if mate[u] is None:
        state.free_index[v].delete(u)
    was_matched = mate[u] == v
    if was_matched:
        _unmatch(state, u, v)
    # Fired after the unset, so an observer sees a matched edge's deletion
    # after the unmatch it caused.
    if state.observer is not None:
        state.observer.on_edge_deleted(state, u, v)
    if was_matched:
        _settle(state, u, 0)
        if mate[v] is None:
            _settle(state, v, 0)
    return trace


def apply_update(state: State, kind: str, u: int, v: int) -> list[tuple]:
    """Dispatch one update op; ``kind`` is "+" (insert) or "-" (delete)."""
    if kind == "+":
        return insert_edge(state, u, v)
    if kind == "-":
        return delete_edge(state, u, v)
    raise ValueError(f"unknown update kind {kind!r}")
