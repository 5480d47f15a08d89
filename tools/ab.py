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
counts.  Then K rounds run one pass per side, A first in even rounds and B
first in odd ones, with ``gc.collect()`` before each pass.  A pass times
its set-up (``parse`` plus ``State()``) and its replay (``apply_update``
for every op) separately.  For each phase the tool prints both medians,
the median per-round B/A ratio with its quartiles, B's wins out of K and a
two-sided sign-test p-value.  It exits 1 when the fingerprints differ, and
2 on a usage error: a tree without ``src/dynmatch``, an unknown workload or
fewer than two rounds.

Caveat: both sides share one interpreter, allocator and garbage collector.
An effect that lives in GC timing or memory layout reads differently here
than in a process of its own, so memory, and set-up as the benchmark
reports it, are still measured by ``perfbench/run.py``, one process a run.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import statistics
import sys
import time
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


def timed_pass(dm, text: str, seed: int) -> tuple[float, float]:
    """Seconds for set-up (parse plus State()) and for the replay."""
    gc.collect()
    t0 = time.perf_counter()
    seq = dm.parse(text)
    state = dm.State(dm.Config(n=seq.n, seed=seed))
    t1 = time.perf_counter()
    apply = dm.apply_update
    for op in seq.ops:
        apply(state, op.kind, op.u, op.v)
    return t1 - t0, time.perf_counter() - t1


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value; ties are left out by the caller."""
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def summarize(a: list[float], b: list[float]) -> str:
    ratios = [y / x for x, y in zip(a, b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(y < x for x, y in zip(a, b))
    losses = sum(y > x for x, y in zip(a, b))
    return (f"A {statistics.median(a) * 1e3:9.2f} ms   B {statistics.median(b) * 1e3:9.2f} ms   "
            f"B/A {median:.3f} [{q1:.3f}, {q3:.3f}]   B wins {wins}/{len(ratios)}   "
            f"sign p {sign_test(wins, losses):.3g}")


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
    times = {side_a: [], side_b: []}
    for r in range(args.rounds):
        for dm in (side_a, side_b) if r % 2 == 0 else (side_b, side_a):
            times[dm].append(timed_pass(dm, text, args.seed))
    for i, phase in enumerate(("set-up", "replay")):
        a = [t[i] for t in times[side_a]]
        b = [t[i] for t in times[side_b]]
        print(f"{phase:7s} {summarize(a, b)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
