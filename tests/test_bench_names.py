"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps engine and
core functions looked up by name and drives the metrics classes by name, so
renaming one would break it without any test of the package failing.  These
tests read its name lists and check that every name still resolves, drive
its metrics hooks over a short sequence and run one traced pass; nothing
under ``perfbench/`` is written.
"""

import dataclasses
import json
from array import array
from pathlib import Path

import pytest

from dynmatch import Config, State, core, engine, gen_random, metrics, replay

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing(dmbench):
    return dmbench.tracing


def test_wrapped_macros_are_engine_functions(tracing):
    assert tracing.MACROS
    for name in tracing.MACROS:
        assert callable(getattr(engine, name, None)), name
    assert set(tracing.TRANSFERS) <= set(tracing.MACROS)


def test_wrapped_leaves_are_own_methods_of_core_classes(tracing):
    assert tracing.LEAVES
    for stem, cls, attr in tracing.LEAVES:
        assert getattr(core, cls.__name__) is cls, stem
        # the tracer patches cls.__dict__[attr]; an inherited method is missed
        assert callable(cls.__dict__.get(attr)), stem


def test_procedures_and_entry_points_exist():
    assert len(engine.PROCEDURE_NAMES) == 8
    for name in engine.PROCEDURE_NAMES + ("insert_edge", "delete_edge"):
        assert callable(getattr(engine, name, None)), name
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    for name in engine.PROCEDURE_NAMES:
        assert f"engine.{name}.calls" in per_layer, name


def test_metrics_names_used_by_the_traced_run(tracing):
    hooks = tracing.Hooks.OBSERVER_HOOKS
    assert hooks
    tracker = metrics.EpochTracker()
    for hook in hooks:
        assert callable(getattr(tracker, hook, None)), hook
    fields = {f.name for f in dataclasses.fields(metrics.RunStats)}
    # the keywords Hooks.attach passes and the counts export_ms sets
    assert {"n", "threshold", "seed", "tracker",
            "final_edge_count", "final_matching_size"} <= fields
    assert callable(getattr(metrics.RunStats, "record_update", None))
    assert callable(getattr(metrics, "export", None))


def test_traced_run_drives_the_metrics_classes(tracing):
    """Hooks as a traced pass drives them: one RunStats row per update and
    a CSV export of one line per row after the header."""
    seq = gen_random(16, 300, 0.6, 4)
    state = State(Config(n=seq.n, threshold=2, seed=4))
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    root = tracer.open("bench.pass")
    hooks.attach(state)
    for i, op in enumerate(seq.ops):
        hooks.begin(i)
        calls = engine.apply_update(state, op.kind, op.u, op.v)
        hooks.end(i, op.kind, op.u, op.v, calls, 0)
    hooks.export_ms()  # also sets the final counts
    tracer.close(root)
    stats = hooks.stats
    assert len(stats.rows) == len(seq.ops)
    assert len(metrics.export(stats, "csv").splitlines()) == len(seq.ops) + 1
    assert stats.final_matching_size == state.matching_size
    assert stats.tracker.live_count == state.matching_size


def test_traced_pass_runs_the_wrapped_probes(tracing):
    """A traced pass at the default threshold runs the wrappers around
    check_3_aug_path and get_free, and the wrapped engine makes the same
    procedure calls as an unwrapped replay of the same sequence."""
    seq = gen_random(32, 800, 0.6, 1)
    times = array("q", bytes(8 * len(seq.ops)))
    res, _, layer = tracing.traced_pass(seq, 1, times)
    assert res.error is None and not res.failed
    assert layer["engine.check_3_aug_path.calls"] > 0
    assert layer["core.get_free.calls"] > 0
    assert res.procedures["random_settle_augmented"] > 0
    plain = replay(State(Config(n=seq.n, seed=1)), seq.ops)
    assert res.procedures == plain.procedures
