"""Update-sequence generation, validation, and (de)serialization.

A sequence is replayable when every insert targets an absent edge and every
delete a present one, with no self-loops; generators produce replayable
sequences by construction.  :func:`parse` and
:meth:`UpdateSequence.final_edges` enforce it with one rule, :func:`_replay`.
Generator randomness is independent of the algorithm's randomness: the
sequences never depend on how the structure responds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import IndexableSet

INSERT = "+"
DELETE = "-"

PATTERNS = ("star-churn", "clique-build-teardown", "path-zipper")


class SequenceFormatError(ValueError):
    """Malformed or non-replayable sequence.  ``line_no`` is :func:`parse`'s
    text line, or None for a built sequence, whose message names the op."""

    def __init__(self, line_no: int | None, message: str) -> None:
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class UpdateOp(NamedTuple):
    kind: str  # INSERT or DELETE
    u: int
    v: int

    def edge(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass
class UpdateSequence:
    n: int
    ops: list[UpdateOp] = field(default_factory=list)
    gen: str | None = None
    seed: int | None = None

    def final_edges(self) -> list[tuple[int, int]]:
        """Edge set left after replaying all ops from empty, ascending.

        Raises :class:`SequenceFormatError` at the first op that is
        malformed or not replayable.
        """
        keys, fault = _replay(self.n, self.ops)
        if fault:
            raise SequenceFormatError(None, f"op {fault[0] + 1}: {fault[1]}")
        return [divmod(key, self.n) for key in sorted(keys)]


def _replay(n: int, ops: list[UpdateOp]) -> tuple[set[int], tuple[int, str] | None]:
    """Replay ``ops`` from empty on edge keys ``u * n + v`` (u < v).  Returns
    (final keys, None), or (keys so far, (index, reason)) at the first op
    that cannot apply.  Ids are range-checked before a key is formed, so an
    out-of-range pair cannot alias a real edge."""
    keys: set[int] = set()
    add, remove = keys.add, keys.remove
    for i, (kind, u, v) in enumerate(ops):
        if u == v:
            return keys, (i, f"self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            return keys, (i, f"vertex out of range in ({u}, {v})")
        key = u * n + v if u < v else v * n + u
        if kind == INSERT:
            if key in keys:
                return keys, (i, f"insert of present edge {divmod(key, n)}")
            add(key)
        elif kind == DELETE:
            if key not in keys:
                return keys, (i, f"delete of absent edge {divmod(key, n)}")
            remove(key)
        else:
            return keys, (i, f"unknown op kind {kind!r}")
    return keys, None


def gen_random(n: int, t: int, p_insert: float, seed: int) -> UpdateSequence:
    """t ops: insert a uniform absent pair w.p. ``p_insert``, else delete a
    uniform present edge.  Falls back to the other action when the graph is
    complete or empty, so the requested length is always met.  p_insert = 1
    yields a pure insertion stream.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not 0.0 < p_insert <= 1.0:
        raise ValueError(f"p_insert must be in (0, 1], got {p_insert}")
    if n < 2 and t > 0:
        raise ValueError("need at least 2 vertices to generate updates")
    rng = random.Random(seed)
    complete = n * (n - 1) // 2
    present = IndexableSet()
    ops: list[UpdateOp] = []
    for _ in range(t):
        do_insert = rng.random() < p_insert
        if do_insert and len(present) == complete:
            do_insert = False
        elif not do_insert and not present:
            do_insert = True
        if do_insert:
            while True:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                e = (u, v) if u < v else (v, u)
                if e not in present:
                    break
            present.add(e)
            ops.append(UpdateOp(INSERT, e[0], e[1]))
        else:
            e = present.sample(rng)
            present.remove(e)
            ops.append(UpdateOp(DELETE, e[0], e[1]))
    return UpdateSequence(n=n, ops=ops, gen="random", seed=seed)


def gen_named(pattern: str, n: int, seed: int) -> UpdateSequence:
    """Deterministic stress patterns.

    star-churn: pair the spokes up, then build a maximum star on vertex 0
    and churn the pair and star edges -- the paired spokes own the hub's
    edges, so the hub's degree outruns its ownership list and the
    high-degree re-match paths fire, at both levels.
    clique-build-teardown: insert all pairs ascending, then delete them
    all -- hammers matched-edge deletions at both levels.
    path-zipper: grow a path inserting each 4-block's middle edge first --
    manufactures a length-3 augmenting path at every block.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    ops: list[UpdateOp] = []
    if pattern == "star-churn":
        if n < 2:
            raise ValueError("star-churn needs n >= 2")
        # ring the spokes first: the ring edges land in spoke ownership
        # lists, so the hub's star edges do too, and the hub's degree can
        # reach the cutoff while its own list stays small
        for i in range(1, n - 1):
            ops.append(UpdateOp(INSERT, i, i + 1))
        if n - 1 >= 3:
            ops.append(UpdateOp(INSERT, n - 1, 1))
        for i in range(1, n):
            ops.append(UpdateOp(INSERT, 0, i))
        for _ in range(2):
            for i in range(1, n - 1, 2):
                ops.append(UpdateOp(DELETE, i, i + 1))
                ops.append(UpdateOp(INSERT, i, i + 1))
                ops.append(UpdateOp(DELETE, 0, i))
                ops.append(UpdateOp(INSERT, 0, i))
                ops.append(UpdateOp(DELETE, 0, i + 1))
                ops.append(UpdateOp(INSERT, 0, i + 1))
            if n % 2 == 0 and n > 2:  # odd spoke count: one spoke unpaired
                ops.append(UpdateOp(DELETE, 0, n - 1))
                ops.append(UpdateOp(INSERT, 0, n - 1))
    elif pattern == "clique-build-teardown":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        ops.extend(UpdateOp(INSERT, u, v) for u, v in pairs)
        ops.extend(UpdateOp(DELETE, u, v) for u, v in pairs)
    elif pattern == "path-zipper":
        if n == 2:
            ops.append(UpdateOp(INSERT, 0, 1))
        for b in range(0, n - 2, 4):
            ops.append(UpdateOp(INSERT, b + 1, b + 2))
            ops.append(UpdateOp(INSERT, b, b + 1))
            if b + 3 < n:
                ops.append(UpdateOp(INSERT, b + 2, b + 3))
            if b + 4 < n:
                ops.append(UpdateOp(INSERT, b + 3, b + 4))
    else:
        raise ValueError(f"unknown pattern {pattern!r}; known: {PATTERNS}")
    seq = UpdateSequence(n=n, ops=ops, gen=pattern, seed=seed)
    seq.final_edges()  # raises if a pattern emits a non-replayable op
    return seq


def extend_with_teardown(seq: UpdateSequence) -> UpdateSequence:
    """Append deletes of every remaining edge, ascending (u, v).

    Raises :class:`SequenceFormatError` if ``seq`` is not replayable.
    """
    extra = [UpdateOp(DELETE, u, v) for u, v in seq.final_edges()]
    return UpdateSequence(
        n=seq.n, ops=list(seq.ops) + extra, gen=seq.gen, seed=seq.seed
    )


def serialize(seq: UpdateSequence) -> str:
    """Text form: `n=<int>` header, optional metadata comment, one op per
    line as `+ u v` / `- u v`."""
    lines = [f"n={seq.n}"]
    meta = []
    if seq.seed is not None:
        meta.append(f"seed={seq.seed}")
    if seq.gen is not None:
        meta.append(f"gen={seq.gen}")
    if meta:
        lines.append("# " + " ".join(meta))
    for op in seq.ops:
        lines.append(f"{op.kind} {op.u} {op.v}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> UpdateSequence:
    """Inverse of :func:`serialize`.  Each later line is split once: blank, a
    ``#`` comment or ``<+|-> <u> <v>``.  The ops are then checked by
    :func:`_replay`, and the first fault, in syntax or replay, raised at its line."""
    lines = text.splitlines()
    if not lines:
        raise SequenceFormatError(1, "empty input, expected n=<int> header")
    header = lines[0].strip()
    if not header.startswith("n="):
        raise SequenceFormatError(1, f"expected n=<int> header, got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise SequenceFormatError(1, f"bad vertex count {header[2:]!r}") from None
    if n < 1:
        raise SequenceFormatError(1, f"vertex count must be >= 1, got {n}")
    seq = UpdateSequence(n=n)
    append = seq.ops.append
    new = tuple.__new__  # skips UpdateOp's Python-level __new__
    syntax_error = None
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            parts = raw.split()
            if not parts:
                continue
            kind = parts[0]
            if kind[0] == "#":
                parts[0] = kind[1:]
                for token in parts:
                    if token.startswith("seed="):
                        try:
                            seq.seed = int(token[5:])
                        except ValueError:
                            raise SequenceFormatError(line_no, f"bad seed {token!r}") from None
                    elif token.startswith("gen="):
                        seq.gen = token[4:]
                continue
            if len(parts) != 3 or (kind != INSERT and kind != DELETE):
                raise SequenceFormatError(line_no, f"expected '<+|-> <u> <v>', got {raw!r}")
            try:
                append(new(UpdateOp, (kind, int(parts[1]), int(parts[2]))))
            except ValueError:
                raise SequenceFormatError(line_no, f"non-integer vertex in {raw!r}") from None
    except SequenceFormatError as exc:
        syntax_error = exc
    fault = _replay(n, seq.ops)[1]
    if fault:  # its op precedes any syntax error; ops are the lines that are not blank or comments
        op_lines = [line_no for line_no, raw in enumerate(lines[1:], start=2)
                    if raw.lstrip()[:1] not in ("", "#")]
        raise SequenceFormatError(op_lines[fault[0]], fault[1])
    if syntax_error:
        raise syntax_error
    return seq
