"""The benchmark's own tests: definition grammar, reproducible inputs, smoke
runs of every workload, and the correctness gate.

    python -m pytest perfbench/tests -q
"""

import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dmbench import definition, main as bench_main, workloads  # noqa: E402
from dynmatch import engine, verifier  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def smoke(name, trace, seed=1, env=None):
    proc = subprocess.run(
        RUN + ["--workload", name, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    return proc, proc.stdout.strip().splitlines()


def test_names_units_and_bounds_follow_the_grammar():
    names = [r[0] for r in definition.END_TO_END + definition.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *bound in definition.END_TO_END + definition.PER_LAYER:
        assert definition.NAME_RE.fullmatch(name), name
        assert definition.UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher")
        if bound:
            assert 0 < bound[0] <= 0.25
    assert ("setup_s", "s", "lower", 0.25) in definition.END_TO_END
    assert len(definition.PER_LAYER) <= 128


def test_benchmark_json_is_the_rendered_definition():
    committed = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert committed == definition.benchmark_json()
    doc = json.loads(committed)
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert definition.NAME_RE.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_predictions_cite_defined_names():
    doc = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    layer = {r[0] for r in definition.PER_LAYER}
    e2e = {r[0] for r in definition.END_TO_END}
    for row in doc["rows"]:
        assert set(row["layer"]) <= layer
        assert set(row["moves"]) <= e2e
        assert set(row["on"] + row["unchanged_on"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_the_same_sequence(name):
    spec = workloads.spec_for(name, smoke=True)
    assert workloads.make_text(spec, 7) == workloads.make_text(spec, 7)
    if spec.gen == "random":
        assert workloads.make_text(spec, 7) != workloads.make_text(spec, 8)


def test_largest_state_is_just_before_the_teardown():
    spec = workloads.spec_for("dense-level1", smoke=True)
    full = workloads.generate(spec, 3)
    build_len = spec.t  # the teardown follows the t generated ops
    counts, m = [], 0
    for op in full.ops:
        m += 1 if op.kind == "+" else -1
        counts.append(m)
    largest, checks = workloads.checkpoints(full.ops)
    assert largest < build_len and counts[largest] == max(counts)
    assert {largest, len(full.ops) - 1} <= checks


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(name, trace):
    proc, lines = smoke(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(definition.units(bool(trace)))
    for key, m in result["metrics"].items():
        assert m["unit"] == definition.units(bool(trace))[key]
    if trace:
        with gzip.open(ROOT / "perfbench" / "out" / f"{name}.spans.gz", "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        spans = sum(t["spans"] for t in header["tracers"])
        assert len(body) == 8 * len(header["columns"]) * spans
        calls = {p: result["metrics"][f"engine.{p}.calls"]["value"]
                 for p in engine.PROCEDURE_NAMES}
        if name == "dense-level1":
            assert all(calls.values()), calls
        if name == "sparse-large":
            ran = {p for p, c in calls.items() if c}
            assert ran <= {"handle_insert_level0", "naive_settle_augmented", "fix_3_aug_path"}
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_deterministic_outputs_repeat_across_processes():
    outs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc, lines = smoke("dense-level1", 0, seed=5, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append([ln for ln in lines if ln.startswith("deterministic outputs:")])
    assert outs[0] and outs[0] == outs[1]


def test_raised_update_fails_the_run(monkeypatch, capsys):
    real = engine.apply_update
    count = [0]

    def flaky(state, kind, u, v):
        count[0] += 1
        if count[0] == 100:
            raise RuntimeError("injected")
        return real(state, kind, u, v)

    monkeypatch.setattr(engine, "apply_update", flaky)
    rc = bench_main.main(["--workload", "star-churn", "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 1


def test_checkpoint_violation_fails_the_run(monkeypatch, capsys):
    real = verifier.check_invariants

    def dirty(state):
        report = real(state)
        report.violations.append(verifier.Violation("MAX", (0, 1), "injected"))
        return report

    monkeypatch.setattr(verifier, "check_invariants", dirty)
    rc = bench_main.main(["--workload", "dense-level1", "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
