"""Run one workload at one seed and print its metrics.

``--trace 0`` (end-to-end): full passes for ``--seconds``, each a timed
set-up (parse plus State()) and a replay timed update by update, with no
tracing and no observer, after one untimed warm-up pass; then one
tracemalloc pass for peak memory.
``--trace 1`` (per layer): one traced set-up, one untraced unchecked pass
with GC callbacks, then two passes with every layer wrapped (see
:mod:`dmbench.tracing`); its length is set by the workload, not
``--seconds``.

Every checked pass runs the verifier at fixed checkpoints, outside the timed
intervals, and every pass must reproduce the same deterministic outputs.
The last line of stdout is the JSON result; the exit code is 0 only when
every update succeeded, every checkpoint was clean and the outputs repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from dynmatch import engine, workload

from . import definition, replay, tracing
from .workloads import WORKLOADS, make_text, spec_for

TRACED_PASSES = 2
OUT_DIR = Path(__file__).resolve().parent.parent / "out"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=definition.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload sizes, for the benchmark's own tests")
    p.add_argument("--write-definition", action="store_true",
                   help="write BENCHMARK.json from dmbench.definition and exit")
    return p


_T0 = time.perf_counter()


def log(msg: str) -> None:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    print(f"[{time.perf_counter() - _T0:6.1f}s {rss:5d}MiB] {msg}", file=sys.stderr, flush=True)


class Run:
    """Failures and fingerprints collected over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: list[dict] = []

    def add(self, res: replay.Pass) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        if res.error:
            self.errors.append(res.error)
        else:
            self.fingerprints.append(res.fingerprint())

    def check_same(self, what: str, values: list) -> None:
        if any(v != values[0] for v in values[1:]):
            self.errors.append(f"determinism: {what} differ between passes")

    @property
    def ok(self) -> bool:
        return not self.failed and not self.errors


def end_to_end(run: Run, text: str, seed: int, seconds: int) -> dict[str, float]:
    setups, passes, pass_times, seq = replay.timed_phase(text, seed, seconds)
    for res in passes:
        run.add(res)
    if not run.ok:
        return {}
    for i, t in enumerate(pass_times, 1):
        log(f"pass {i}: amortized {sum(t) / len(t) / 1e3:.3f} us")
    mem_mib, mem_res = replay.memory_pass(seq, seed)
    run.add(mem_res)
    log(f"memory pass: peak {mem_mib:.2f} MiB")
    run.check_same("replay outputs", run.fingerprints)
    is_insert = [op.kind == workload.INSERT for op in seq.ops]
    metrics = replay.latency_metrics(pass_times, is_insert)
    metrics["matching_size_mean"] = passes[0].matching_sum / len(seq.ops)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_mem_mib"] = mem_mib
    timed = passes[1:]  # the first pass is the untimed warm-up
    metrics["verify_s"] = statistics.fmean(ns for r in timed for ns in r.verify_ns) / 1e9
    log(f"update latency samples: {len(seq.ops)} updates, each timed in "
        f"{len(timed)} passes after a warm-up; error_rate {run.failed / max(1, run.attempted):.6g} "
        f"({run.failed} failed of {run.attempted} attempted)")
    return metrics


def per_layer(run: Run, text: str, seed: int, name: str) -> dict[str, float]:
    setup, setup_tracer = tracing.traced_setup(text, seed)
    log("traced set-up")
    seq = workload.parse(text)
    times = array("q", bytes(8 * len(seq.ops)))
    allowed = os.sched_getaffinity(0)
    replay.pin_to_fastest_cpu(allowed)
    state = replay.new_state(seq.n, seed)
    with tracing.GcMonitor() as gcm:
        ref = replay.replay(seq, state, set(), -1, times)
    del state
    run.add(ref)
    log(f"untraced pass: {len(seq.ops)} updates")
    untraced_us = sum(times[: ref.attempted]) / max(1, ref.attempted) / 1e3
    layers, tracers = [], []
    for _ in range(TRACED_PASSES):
        if not run.ok:
            break
        replay.pin_to_fastest_cpu(allowed)
        res, tracer, layer = tracing.traced_pass(seq, seed, times)
        run.add(res)
        log(f"traced pass: {len(tracer.name)} spans")
        layers.append(layer)
        tracers.append(tracer)
    os.sched_setaffinity(0, allowed)
    if not run.ok:
        return {}
    run.check_same("replay outputs", run.fingerprints)
    counted = [{k: v for k, v in layer.items() if k.endswith(definition.COUNT_SUFFIXES)}
               for layer in layers]
    run.check_same("traced work counts", counted)
    # Procedure calls seen by the wrappers must match the engine's own trace.
    procs = engine.PROCEDURE_NAMES
    run.check_same("wrapped vs traced procedure calls",
                   [{p: layers[0][f"engine.{p}.calls"] for p in procs},
                    {p: ref.procedures.get(p, 0) for p in procs}])
    metrics = replay.median_of(layers)
    metrics.update(counted[0])
    metrics.update(setup)
    hist = ref.trace_len_hist
    metrics["engine.trace_len.mean"] = sum(k * v for k, v in hist.items()) / sum(hist.values())
    metrics["engine.trace_len.max"] = max(hist)
    metrics["gc.replay.pause_ms"] = gcm.pause_ns / 1e6
    metrics["gc.replay.collections"] = gcm.collections
    metrics["trace.overhead_ratio"] = metrics.pop("traced_amortized_us") / untraced_us
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.spans.gz"
    tracing.write_spans(path, {"workload": name, "seed": seed}, [setup_tracer] + tracers)
    log(f"spans: {sum(len(t.name) for t in tracers)} in {len(tracers)} traced passes -> {path}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_definition:
        path = OUT_DIR.parent.parent / "BENCHMARK.json"
        path.write_text(definition.benchmark_json(), encoding="utf-8")
        log(f"wrote {path}")
        return 0
    if args.workload is None or args.seconds < 1:
        build_parser().error("--workload is required and --seconds must be >= 1")
    spec = spec_for(args.workload, args.smoke)
    log(f"workload {args.workload}: {spec} seed={args.seed}")
    text = make_text(spec, args.seed)
    run = Run()
    if args.trace:
        values = per_layer(run, text, args.seed, args.workload)
    else:
        values = end_to_end(run, text, args.seed, args.seconds)
    units = definition.units(bool(args.trace))
    metrics = {}
    if run.ok:
        missing = sorted(set(units) - set(values))
        if missing:
            run.errors.append(f"metrics not measured: {missing}")
        for name, unit in units.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name} = {values[name]:.6g} {unit}")
    for err in run.errors:
        log(f"FAILED: {err}")
    if run.fingerprints:
        # Equal seeds must print this line identically, run after run.
        print("deterministic outputs: " + json.dumps(run.fingerprints[0]))
    result = {"correct": run.ok, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if run.ok else 1
