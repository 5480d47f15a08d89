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
        seq = UpdateSequence(n=4, ops=[UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, 2, 3)],
                             gen="random", seed=1)
        with pytest.raises(SequenceFormatError) as built:
            seq.final_edges()
        with pytest.raises(SequenceFormatError) as parsed:
            parse(serialize(seq))  # header and metadata comment come first
        assert (str(built.value), built.value.line_no) == (
            "op 2: delete of absent edge (2, 3)", None)
        assert (str(parsed.value), parsed.value.line_no) == (
            "line 4: delete of absent edge (2, 3)", 4)

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
