import importlib
import json

import pytest

from dynmatch import gen_named, parse, serialize
from dynmatch.cli import main
from dynmatch.verifier import Violation, ViolationReport
from dynmatch.workload import PATTERNS

replay_mod = importlib.import_module("dynmatch.replay")  # the package's `replay` is the function
DIRTY = ViolationReport([Violation("1a", (0,), "forced for test")])


def write_zipper(tmp_path, n=4):
    path = tmp_path / "zipper.seq"
    path.write_text(serialize(gen_named("path-zipper", n, 0)))
    return path


class TestGen:
    def test_gen_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "w.seq"
        rc = main(["gen", "--pattern", "random", "--n", "8", "--t", "50",
                   "--p-insert", "0.6", "--seed", "3", "--out", str(out)])
        assert rc == 0
        seq = parse(out.read_text())
        assert seq.n == 8 and len(seq.ops) == 50 and seq.seed == 3

    def test_gen_named_pattern(self, tmp_path):
        out = tmp_path / "s.seq"
        rc = main(["gen", "--pattern", "star-churn", "--n", "6", "--out", str(out)])
        assert rc == 0
        parse(out.read_text()).validate()

    def test_gen_random_requires_t(self, tmp_path):
        rc = main(["gen", "--pattern", "random", "--n", "8",
                   "--out", str(tmp_path / "x.seq")])
        assert rc == 2

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("extra", (["--t", "3"], ["--p-insert", "0.9"]))
    def test_named_pattern_rejects_random_only_args(self, tmp_path, capsys, pattern, extra):
        out = tmp_path / "x.seq"
        rc = main(["gen", "--pattern", pattern, "--n", "5", *extra, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"gen: {extra[0]} applies to --pattern random only" in capsys.readouterr().err

    def test_gen_random_p_insert_defaults_to_0_6(self, tmp_path):
        outs = [tmp_path / "default.seq", tmp_path / "explicit.seq"]
        for out, extra in zip(outs, ([], ["--p-insert", "0.6"])):
            rc = main(["gen", "--n", "8", "--t", "50", *extra, "--out", str(out)])
            assert rc == 0
        assert outs[0].read_text() == outs[1].read_text()

    @pytest.mark.parametrize("pattern", ("random",) + PATTERNS)
    def test_zero_vertices_is_exit_2(self, tmp_path, capsys, pattern):
        out = tmp_path / "x.seq"
        rc = main(["gen", "--pattern", pattern, "--n", "0", "--t", "0",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "--n: must be >= 1, got 0" in capsys.readouterr().err


class TestRun:
    def test_zipper_run_clean(self, tmp_path, capsys):
        path = write_zipper(tmp_path)
        rc = main(["run", "--input", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "|M|=2" in captured.err

    def test_run_teardown_metrics_report_empty_graph(self, tmp_path):
        path = write_zipper(tmp_path, n=8)
        metrics = tmp_path / "m.json"
        rc = main(["run", "--input", str(path), "--teardown",
                   "--metrics", str(metrics), "--format", "json"])
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["totals"]["final_edge_count"] == 0
        assert doc["totals"]["final_matching_size"] == 0

    def test_run_csv_metrics(self, tmp_path):
        path = write_zipper(tmp_path)
        metrics = tmp_path / "m.csv"
        rc = main(["run", "--input", str(path), "--metrics", str(metrics),
                   "--format", "csv"])
        assert rc == 0
        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_missing_file_is_exit_2(self, tmp_path):
        rc = main(["run", "--input", str(tmp_path / "absent.seq")])
        assert rc == 2

    def test_negative_verify_every_is_exit_2(self, tmp_path, capsys):
        path = write_zipper(tmp_path)
        rc = main(["run", "--input", str(path), "--verify-every", "-1"])
        assert rc == 2
        assert "--verify-every: must be >= 0, got -1" in capsys.readouterr().err


class TestVerify:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.seq"
        bad.write_text("n=4\n- 0 1\n")
        rc = main(["verify", "--input", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_verify_clean_run(self, tmp_path, capsys):
        path = write_zipper(tmp_path)
        rc = main(["verify", "--input", str(path), "--seed", "1"])
        assert rc == 0
        assert "ratio checks" in capsys.readouterr().err

    def test_verify_reports_skips_beyond_oracle_guard(self, tmp_path, capsys):
        seq = tmp_path / "big.seq"
        rc = main(["gen", "--pattern", "random", "--n", "40", "--t", "120",
                   "--p-insert", "0.9", "--seed", "1", "--out", str(seq)])
        assert rc == 0
        rc = main(["verify", "--input", str(seq), "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipped" in captured.err
        assert "0 skipped" not in captured.err


class TestBench:
    def test_bench_emits_table(self, capsys):
        rc = main(["bench", "--n-list", "64,256", "--updates-per-n", "2",
                   "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "n,updates,total_s,amortized_us"
        assert len(lines) == 3
        assert lines[1].startswith("64,128,")

    def test_zero_updates_per_n_is_exit_2(self, capsys):
        rc = main(["bench", "--n-list", "64", "--updates-per-n", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--updates-per-n: must be >= 1, got 0" in captured.err

    @pytest.mark.parametrize("n_list, bad", [("4,-3", -3), ("0", 0), ("1", 1)])
    def test_bad_vertex_count_is_exit_2_before_any_cell(self, capsys, n_list, bad):
        rc = main(["bench", "--n-list", n_list, "--updates-per-n", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "bench n=" not in captured.err
        assert f"--n-list: must be >= 2, got {bad}" in captured.err


class TestViolationExitCode:
    # the engine never produces a dirty state, so force one to pin the
    # fail-fast reporting path and exit code
    def test_dirty_state_is_exit_1(self, tmp_path, capsys, monkeypatch):
        path = write_zipper(tmp_path)
        monkeypatch.setattr(replay_mod, "check_invariants", lambda s: DIRTY)
        rc = main(["run", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "dirty state after update 0" in captured.err
        assert "1a" in captured.err

    def test_final_state_verified_off_the_stride(self, tmp_path, capsys, monkeypatch):
        # 3 updates with a stride of 5: only the final check can see it
        path = write_zipper(tmp_path)
        monkeypatch.setattr(replay_mod, "check_invariants", lambda s: DIRTY)
        rc = main(["run", "--input", str(path), "--verify-every", "5"])
        assert rc == 1
        assert "dirty state after update 2" in capsys.readouterr().err


class TestReplayDeterminism:
    def test_same_inputs_same_trajectory_and_metrics(self, tmp_path):
        path = tmp_path / "clique.seq"
        path.write_text(serialize(gen_named("clique-build-teardown", 8, 0)))
        docs = []
        for k in range(2):
            metrics = tmp_path / f"m{k}.json"
            rc = main(["run", "--input", str(path), "--seed", "9", "--verify-every", "0",
                       "--metrics", str(metrics)])
            assert rc == 0
            doc = json.loads(metrics.read_text())
            del doc["timing"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_usage_error_exit_code(self):
        assert main(["run"]) == 2  # missing --input
