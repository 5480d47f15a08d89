"""Paired in-process A/B timing of two dynmatch source trees.

    python3 tools/ab.py A B --workload NAME [--seed S] [--rounds K] [--smoke]

A and B are checkouts (or any directories holding ``src/dynmatch``); the
parent tree can come from ``git archive HEAD~1 | tar -x -C DIR``.  Each
side's package is imported from its tree under its own module name, so both
live in this one process.  The workload text is built once, by
``perfbench/dmbench/workloads.py`` run against side A's package, and both
sides read that same text.

Each side first replays the workload untimed, which warms it up and yields
its deterministic fingerprint: the final mates and the procedure-call
counts.  A second untimed replay per side gives its tracemalloc peak in MiB
over ``State()`` plus the replay, the span of ``perfbench/run.py``'s
``peak_mem_mib``.  Then K rounds run one pass per side, A first in even
rounds and B first in odd ones, with ``gc.collect()`` before each pass.  A
pass times its set-up (``parse`` plus ``State()``) and its replay
(``apply_update`` for every op, each update timed on its own) separately.
For each phase the tool prints both medians, the median per-round B/A ratio
with its quartiles and B's wins out of K, and under it each side's median
gen0, gen1 and gen2 collections per pass, read from ``gc.get_stats()``
around the phase: a full collection that lands in one side's pass and not
the other's shows up there as a count, not only as time.  A last line gives
each side's p50 and p99.9 per-update time, over each update's median across
that side's rounds, as ``perfbench/run.py`` takes them.  It exits 1 when
the fingerprints differ, and 2 on a usage error: a tree without
``src/dynmatch``, an unknown workload or fewer than two rounds.

The rounds are not independent: a shared host's speed can drift over
minutes, so one run can read a B/A well off 1 for identical trees, and no
p-value is printed.  Repeat the run with the trees swapped (``tools/ab.py
B A``) and quote both runs; a real effect reads as B/A in one and about
its inverse in the other.

Caveat: both sides share one interpreter, allocator and garbage collector.
An effect that lives in GC timing or memory layout reads differently here
than in a process of its own, so set-up as the benchmark reports it is
still measured by ``perfbench/run.py``, one process a run.  The
tracemalloc peak counts only the Python allocations the replay makes, so
it reads within a few KiB of the benchmark's.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import statistics
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "dmbench" / "workloads.py"


def load_package(name: str, tree: Path):
    """Import ``tree/src/dynmatch`` as a package called ``name``."""
    pkg = tree / "src" / "dynmatch"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(dynmatch):
    """perfbench's workload table, its ``dynmatch`` import bound to ``dynmatch``."""
    saved = sys.modules.get("dynmatch")
    sys.modules["dynmatch"] = dynmatch
    try:
        spec = importlib.util.spec_from_file_location("ab_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["dynmatch"]
        else:
            sys.modules["dynmatch"] = saved
    return module


def fingerprint(dm, text: str, seed: int) -> tuple:
    """Final mates and procedure counts of one untimed replay."""
    seq = dm.parse(text)
    state = dm.State(dm.Config(n=seq.n, seed=seed))
    res = dm.replay(state, seq.ops)
    return list(state.mate), dict(sorted(res.procedures.items()))


def peak_mib(dm, text: str, seed: int) -> float:
    """tracemalloc peak (MiB) over State() plus one replay."""
    seq = dm.parse(text)
    apply = dm.apply_update
    gc.collect()
    tracemalloc.start()
    try:
        state = dm.State(dm.Config(n=seq.n, seed=seed))
        for op in seq.ops:
            apply(state, op.kind, op.u, op.v)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def gc_counts() -> list[int]:
    """Collections so far, per generation."""
    return [g["collections"] for g in gc.get_stats()]


def timed_pass(dm, text: str, seed: int, times: array) -> tuple[tuple[float, float], tuple[list, list]]:
    """Seconds for set-up (parse plus State()) and for the replay, and the
    collections per generation during each; each update's ns go to ``times``."""
    gc.collect()
    c0 = gc_counts()
    t0 = time.perf_counter()
    seq = dm.parse(text)
    state = dm.State(dm.Config(n=seq.n, seed=seed))
    t1 = time.perf_counter()
    c1 = gc_counts()
    apply = dm.apply_update
    perf = time.perf_counter_ns
    for i, op in enumerate(seq.ops):
        u0 = perf()
        apply(state, op.kind, op.u, op.v)
        times[i] = perf() - u0
    t2 = time.perf_counter()
    c2 = gc_counts()
    return (t1 - t0, t2 - t1), ([y - x for x, y in zip(c0, c1)], [y - x for x, y in zip(c1, c2)])


def summarize(a: list[float], b: list[float]) -> str:
    ratios = [y / x for x, y in zip(a, b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(y < x for x, y in zip(a, b))
    return (f"A {statistics.median(a) * 1e3:9.2f} ms   B {statistics.median(b) * 1e3:9.2f} ms   "
            f"B/A {median:.3f} [{q1:.3f}, {q3:.3f}]   B wins {wins}/{len(ratios)}")


def summarize_gc(a: list[list[int]], b: list[list[int]]) -> str:
    """Each side's median collections per pass, per generation."""
    def medians(passes):
        return "/".join(f"{statistics.median(gen):g}" for gen in zip(*passes))
    return f"gc0/1/2 per pass   A {medians(a)}   B {medians(b)}"


def percentiles_us(rounds: list[array]) -> tuple[float, float]:
    """p50 and p99.9 (us, nearest rank) of each update's median across rounds."""
    ordered = sorted(statistics.median(ts) for ts in zip(*rounds))
    return tuple(ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3 for q in (0.5, 0.999))


def summarize_updates(a: list[array], b: list[array]) -> str:
    (a50, a999), (b50, b999) = percentiles_us(a), percentiles_us(b)
    return (f"p50 A {a50:.2f} us   B {b50:.2f} us   "
            f"p99.9 A {a999:.2f} us   B {b999:.2f} us")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tools/ab.py", description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="baseline source tree")
    p.add_argument("b", type=Path, help="changed source tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--smoke", action="store_true", help="perfbench's smoke sizes")
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be >= 2")
    for tree in (args.a, args.b):
        if not (tree / "src" / "dynmatch" / "__init__.py").is_file():
            p.error(f"no dynmatch source under {tree}")
    sys.dont_write_bytecode = True  # leave both trees and perfbench/ as they are
    side_a = load_package("ab_side_a", args.a.resolve())
    side_b = load_package("ab_side_b", args.b.resolve())
    workloads = load_workloads(side_a)
    try:
        spec = workloads.spec_for(args.workload, args.smoke)
    except ValueError as e:
        p.error(str(e))
    text = workloads.make_text(spec, args.seed)
    print(f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}, "
          f"{args.rounds} rounds\nA = {args.a}\nB = {args.b}")
    fa, fb = fingerprint(side_a, text, args.seed), fingerprint(side_b, text, args.seed)
    differ = [what for what, x, y in zip(("final mates", "procedure counts"), fa, fb) if x != y]
    print("fingerprints: " + (f"DIFFER in {', '.join(differ)}" if differ else "identical"))
    print(f"peak    A {peak_mib(side_a, text, args.seed):.4f} MiB   "
          f"B {peak_mib(side_b, text, args.seed):.4f} MiB")
    times = {side_a: [], side_b: []}
    updates = {side_a: [], side_b: []}
    n_ops = len(side_a.parse(text).ops)
    for r in range(args.rounds):
        for dm in (side_a, side_b) if r % 2 == 0 else (side_b, side_a):
            updates[dm].append(array("q", bytes(8 * n_ops)))
            times[dm].append(timed_pass(dm, text, args.seed, updates[dm][-1]))
    for i, phase in enumerate(("set-up", "replay")):
        a = [t[i] for t, _ in times[side_a]]
        b = [t[i] for t, _ in times[side_b]]
        print(f"{phase:7s} {summarize(a, b)}")
        a = [c[i] for _, c in times[side_a]]
        b = [c[i] for _, c in times[side_b]]
        print(f"{phase:7s} {summarize_gc(a, b)}")
    print(f"update  {summarize_updates(updates[side_a], updates[side_b])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
