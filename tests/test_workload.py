import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch import (
    DELETE,
    INSERT,
    SequenceFormatError,
    UpdateOp,
    UpdateSequence,
    extend_with_teardown,
    gen_named,
    gen_random,
    parse,
    serialize,
)


# A test-only reference: the per-line parser and per-op rule that
# ``parse`` and ``UpdateSequence.final_edges`` replaced.  Both must agree
# with it on every text and every built sequence, faults included.
def _reference_apply_op(n, edges, op):
    """Apply ``op`` to ``edges``, or leave them and say why it cannot apply."""
    if op.u == op.v:
        return f"self-loop {op.u}"
    if not (0 <= op.u < n and 0 <= op.v < n):
        return f"vertex out of range in ({op.u}, {op.v})"
    e = op.edge()
    if op.kind == INSERT:
        if e in edges:
            return f"insert of present edge {e}"
        edges.add(e)
    elif op.kind == DELETE:
        if e not in edges:
            return f"delete of absent edge {e}"
        edges.remove(e)
    else:
        return f"unknown op kind {op.kind!r}"
    return None


def reference_final_edges(seq):
    edges = set()
    for i, op in enumerate(seq.ops, start=1):
        fault = _reference_apply_op(seq.n, edges, op)
        if fault:
            raise SequenceFormatError(None, f"op {i}: {fault}")
    return sorted(edges)


def reference_parse(text):
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
    edges = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("seed="):
                    try:
                        seq.seed = int(token[5:])
                    except ValueError:
                        raise SequenceFormatError(line_no, f"bad seed {token!r}") from None
                elif token.startswith("gen="):
                    seq.gen = token[4:]
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in (INSERT, DELETE):
            raise SequenceFormatError(line_no, f"expected '<+|-> <u> <v>', got {raw!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise SequenceFormatError(line_no, f"non-integer vertex in {raw!r}") from None
        op = UpdateOp(parts[0], u, v)
        fault = _reference_apply_op(n, edges, op)
        if fault:
            raise SequenceFormatError(line_no, fault)
        seq.ops.append(op)
    return seq


def outcome(fn, arg):
    """What ``fn(arg)`` gives: its value, or its SequenceFormatError's text
    and line."""
    try:
        return fn(arg)
    except SequenceFormatError as exc:
        return ("error", str(exc), exc.line_no)


def parse_outcome(fn, text):
    """``outcome`` of ``fn(text)``, with a parsed sequence as its fields."""
    seq = outcome(fn, text)
    if isinstance(seq, tuple):
        return seq
    assert all(type(op) is UpdateOp for op in seq.ops)
    return (seq.n, seq.ops, seq.seed, seq.gen)


# Lines that keep a text valid, and lines that each break it one way.
NOISE_LINES = ["", "   ", "\t", "# note", "#seed=5", "# seed=7 gen=zip", "  #gen=a b",
               "\t# seed=-3"]
FAULT_LINES = ["* 0 1", "+ 0", "+ 0 1 2", "- x 1", "+ 1.5 0", "+ 1 1", "+ 0 {n}", "- -1 0",
               "# seed=bad", "+0 1", "n=3", "+ 0 1 # inline"]


@st.composite
def texts(draw):
    """A serialized random sequence with lines inserted anywhere, spaces
    turned to tabs and either line ending: valid texts and texts with a
    fault of every kind, in syntax (kind, token count, integer ids, seed)
    and in replay (self-loop, range, present insert, absent delete)."""
    n = draw(st.integers(1, 6))
    seq = gen_random(n, draw(st.integers(0, 25)), 0.6, draw(st.integers(0, 99))) if n > 1 \
        else UpdateSequence(n=1)
    lines = serialize(seq).splitlines()
    ids = st.integers(0, n - 1)
    op_lines = st.builds("{} {} {}".format, st.sampled_from([INSERT, DELETE]), ids, ids)
    extra = st.one_of(st.sampled_from(NOISE_LINES), st.sampled_from(FAULT_LINES), op_lines)
    for _ in range(draw(st.integers(0, 4))):
        # now and then before the header, otherwise after it
        at = 0 if draw(st.integers(0, 9)) == 9 else draw(st.integers(1, len(lines)))
        lines.insert(at, draw(extra).format(n=n))
    lines = [line.replace(" ", "\t") if draw(st.booleans()) else line for line in lines]
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


class TestReferenceParser:
    @settings(max_examples=400, deadline=None)
    @given(texts())
    def test_parse_matches_the_reference(self, text):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.lists(st.tuples(st.sampled_from([INSERT, DELETE, INSERT, "*"]),
                                                 st.integers(-1, 7), st.integers(-1, 7)),
                                       max_size=25))
    def test_final_edges_matches_the_reference(self, n, ops):
        seq = UpdateSequence(n=n, ops=[UpdateOp(*op) for op in ops])
        assert outcome(UpdateSequence.final_edges, seq) == outcome(reference_final_edges, seq)

    def test_sparse_large_round_trip(self):
        # the benchmark's sparse-large shape at a seed it does not use
        seq = gen_random(65536, 131072, 0.6, 31)
        text = serialize(seq)
        again = parse(text)
        assert (again.n, again.ops, again.seed, again.gen) == (seq.n, seq.ops, seq.seed, seq.gen)
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text)
        assert again.final_edges() == reference_final_edges(seq)


class TestGenRandom:
    def test_empty(self):
        assert gen_random(4, 0, 0.5, 0).ops == []

    def test_all_inserts_when_deletes_impossible(self):
        seq = gen_random(3, 3, 1.0, seed=4)
        assert [op.kind for op in seq.ops] == [INSERT] * 3
        assert {op.edge() for op in seq.ops} <= {(0, 1), (0, 2), (1, 2)}
        seq.final_edges()

    def test_fixed_seed_identical(self):
        a = gen_random(10, 200, 0.6, seed=42)
        b = gen_random(10, 200, 0.6, seed=42)
        assert a.ops == b.ops
        assert serialize(a) == serialize(b)

    def test_different_seeds_differ(self):
        assert gen_random(10, 50, 0.6, 1).ops != gen_random(10, 50, 0.6, 2).ops

    def test_requested_length_met_despite_saturation(self):
        # tiny graph saturates fast; fallbacks keep producing ops
        seq = gen_random(3, 50, 0.9, seed=7)
        assert len(seq.ops) == 50
        seq.final_edges()

    def test_replayable(self):
        for seed in range(5):
            gen_random(8, 300, 0.55, seed).final_edges()

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_random(4, -1, 0.5, 0)
        with pytest.raises(ValueError):
            gen_random(4, 5, 0.0, 0)
        with pytest.raises(ValueError):
            gen_random(4, 5, 1.2, 0)

    def test_empty_vertex_set_rejected(self):
        # parse rejects n=0, so the generator must not emit it
        with pytest.raises(ValueError, match="vertex count must be >= 1"):
            gen_random(0, 0, 0.5, 1)


# sha256 over serialize(gen_random(n, t, p_insert, seed)), keyed by the
# arguments.  The two large keys are the benchmark's sparse-large and
# dense-level1 shapes; the small ones saturate the graph or empty it, so the
# fallback to the other action runs.
PINNED_GEN_RANDOM_DIGESTS = {
    (65536, 131072, 0.6, 31):
        "553d0c4cbc1b21fa54aaee8503f2a16fd28d192d9971803a007e3b364d626ed6",
    (1024, 160000, 0.6, 31):
        "a1a781456de440b2d63c65c5b0cbfc26550ea190e5f41590dcac48a5159b3ae6",
    (2, 40, 0.3, 1):
        "b0b195086892b019d48f71d833681673f43ec2fbd7b74c19dabe258cd10e1f38",
    (2, 40, 1.0, 1):
        "b0b195086892b019d48f71d833681673f43ec2fbd7b74c19dabe258cd10e1f38",
    (3, 60, 0.3, 2):
        "3d7a2c30ac9852980fb5e70800e6fdc2275f2b28ba15742fefe754d2f7b3f29b",
    (3, 60, 1.0, 2):
        "3818f53225518ffba13de4b6c3d31067bddd4b1193acbd4d6287de9c82feb65a",
    (4, 80, 0.3, 3):
        "ecda72e08f8be001a906ccd59799aec6c091bb6e83bf697b5f86f0869cb3d4f0",
    (4, 80, 1.0, 3):
        "5fe8f9f6b4c67b5cb0e4d04ae3c53fa203cad4b2eb30bd13d4d6fd0734beb235",
    (5, 120, 0.3, 4):
        "5bff9e04d88ccf520e20204e60987f2a31081716e96ca5eaafcd9c45599bb592",
    (5, 120, 1.0, 4):
        "472e501e8c2702db172d194d6b23e11ec0e372ef5e297557e559bc2515ea2f21",
}


@pytest.mark.parametrize("key", list(PINNED_GEN_RANDOM_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_gen_random_digest_pinned(key):
    text = serialize(gen_random(*key))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_GEN_RANDOM_DIGESTS[key]


class TestGenNamed:
    def test_path_zipper_contains_fix_subsequence(self):
        seq = gen_named("path-zipper", 4, 0)
        ops = [(op.kind, op.u, op.v) for op in seq.ops]
        want = [(INSERT, 1, 2), (INSERT, 0, 1), (INSERT, 2, 3)]
        idx = [ops.index(w) for w in want]
        assert idx == sorted(idx)

    def test_clique_n4(self):
        seq = gen_named("clique-build-teardown", 4, 0)
        assert len(seq.ops) == 12
        assert [op.kind for op in seq.ops] == [INSERT] * 6 + [DELETE] * 6
        assert seq.final_edges() == []

    def test_star_churn_replayable(self):
        for n in (2, 5, 9):
            gen_named("star-churn", n, 0).final_edges()

    @pytest.mark.parametrize("threshold", [2, 3, 4, 5])
    def test_star_churn_exercises_randomised_raise(self, threshold):
        # holds for every cutoff from 2 up to the hub degree n-1
        # (at threshold 1 the randomized raise is structurally unreachable:
        # every matched vertex is already at level 1)
        from dynmatch import Config, State, replay

        seq = gen_named("star-churn", 6, 0)
        state = State(Config(n=6, threshold=threshold, seed=1))
        assert "randomised_raise_level_to_1" in replay(state, seq.ops).procedures

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            gen_named("nope", 4, 0)

    @pytest.mark.parametrize("pattern, n", [("path-zipper", 0), ("clique-build-teardown", -1)])
    def test_empty_vertex_set_rejected(self, pattern, n):
        with pytest.raises(ValueError, match="vertex count must be >= 1"):
            gen_named(pattern, n, 0)

    @pytest.mark.parametrize("pattern", ["star-churn", "clique-build-teardown", "path-zipper"])
    def test_deterministic(self, pattern):
        assert gen_named(pattern, 9, 3).ops == gen_named(pattern, 9, 3).ops


class TestTeardown:
    def test_appends_deletes_of_final_edges(self):
        seq = UpdateSequence(n=4, ops=[UpdateOp(INSERT, 0, 1), UpdateOp(INSERT, 2, 3), UpdateOp(INSERT, 1, 2)])
        ext = extend_with_teardown(seq)
        assert len(ext.ops) == 6
        assert ext.final_edges() == []
        tail = ext.ops[3:]
        assert [op.kind for op in tail] == [DELETE] * 3
        assert [op.edge() for op in tail] == sorted(op.edge() for op in seq.ops)

    def test_rejects_a_delete_of_an_absent_edge(self):
        seq = UpdateSequence(n=4, ops=[UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, 2, 3)])
        with pytest.raises(SequenceFormatError, match=r"^op 2: delete of absent edge \(2, 3\)$"):
            extend_with_teardown(seq)

    def test_a_bad_op_reads_as_its_line_when_parsed_and_its_position_when_built(self):
        # op k is line k + 2, after the header and the metadata comment
        n, good = 4, UpdateOp(INSERT, 1, 2)
        for bad, reason in [
            (UpdateOp(DELETE, 2, 3), "delete of absent edge (2, 3)"),
            (UpdateOp(INSERT, 2, 1), "insert of present edge (1, 2)"),
            (UpdateOp(INSERT, 3, 3), "self-loop 3"),
            (UpdateOp(INSERT, 0, 4), "vertex out of range in (0, 4)"),
            (UpdateOp(DELETE, -1, 2), "vertex out of range in (-1, 2)"),
            # 0 * 4 + 6 is the key of (1, 2): the range check runs first
            (UpdateOp(DELETE, 0, 6), "vertex out of range in (0, 6)"),
        ]:
            seq = UpdateSequence(n=n, ops=[good, bad], gen="random", seed=1)
            with pytest.raises(SequenceFormatError) as built:
                seq.final_edges()
            with pytest.raises(SequenceFormatError) as parsed:
                parse(serialize(seq))
            assert (str(built.value), built.value.line_no) == (f"op 2: {reason}", None)
            assert (str(parsed.value), parsed.value.line_no) == (f"line 4: {reason}", 4)
        # an unknown kind has no text form: it reads as a malformed line
        seq = UpdateSequence(n=n, ops=[good, UpdateOp("*", 0, 1)], gen="random", seed=1)
        with pytest.raises(SequenceFormatError, match=r"^op 2: unknown op kind '\*'$"):
            seq.final_edges()
        with pytest.raises(SequenceFormatError, match=r"^line 4: expected '<\+\|-> <u> <v>', "):
            parse(serialize(seq))

    def test_already_empty_unchanged(self):
        seq = UpdateSequence(n=3, ops=[UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, 0, 1)])
        assert extend_with_teardown(seq).ops == seq.ops

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 60), st.integers(0, 999))
    def test_extended_length_bound_and_empty_end(self, n, t, seed):
        seq = gen_random(n, t, 0.6, seed) if t else UpdateSequence(n=n)
        ext = extend_with_teardown(seq)
        assert len(ext.ops) <= 2 * len(seq.ops)
        assert ext.final_edges() == []


class TestSerialization:
    def test_basic_text_form(self):
        seq = parse("n=4\n+ 0 1\n- 0 1\n")
        assert seq.n == 4
        assert seq.ops == [UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, 0, 1)]

    def test_metadata_comment(self):
        seq = parse("n=6\n# seed=17 gen=random\n+ 2 3\n")
        assert seq.seed == 17
        assert seq.gen == "random"

    def test_self_loop_rejected(self):
        with pytest.raises(SequenceFormatError) as exc:
            parse("n=4\n+ 0 0\n")
        assert exc.value.line_no == 2

    def test_delete_absent_rejected(self):
        with pytest.raises(SequenceFormatError) as exc:
            parse("n=4\n- 0 1\n")
        assert exc.value.line_no == 2

    def test_insert_present_rejected(self):
        with pytest.raises(SequenceFormatError):
            parse("n=4\n+ 0 1\n+ 1 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(SequenceFormatError):
            parse("n=4\n+ 0 7\n")

    def test_bad_header(self):
        with pytest.raises(SequenceFormatError):
            parse("vertices=4\n")

    def test_garbage_line(self):
        with pytest.raises(SequenceFormatError):
            parse("n=4\n* 1 2\n")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 50), st.integers(0, 99))
    def test_round_trip(self, n, t, seed):
        seq = gen_random(n, t, 0.6, seed)
        again = parse(serialize(seq))
        assert again.n == seq.n
        assert again.ops == seq.ops
        assert again.seed == seq.seed
        assert again.gen == seq.gen
