"""Command-line front end.

Subcommands: ``gen`` writes workload files, ``run`` replays one through the
engine with optional verification and metrics, ``verify`` is a run with
per-update verification plus the 3/2 ratio check against the exact optimum,
and ``bench`` measures amortized update time across graph sizes.

Exit codes: 0 clean, 1 invariant/ratio violation, 2 usage or input error.
Diagnostics go to stderr; requested data goes to stdout or files.
"""

from __future__ import annotations

import argparse
import sys

from . import metrics as metrics_mod
from . import workload
from .core import Config, State
from .replay import replay


def _cmd_gen(args) -> int:
    if args.pattern == "random":
        if args.t is None:
            print("gen: --t is required for --pattern random", file=sys.stderr)
            return 2
        p_insert = 0.6 if args.p_insert is None else args.p_insert
        seq = workload.gen_random(args.n, args.t, p_insert, args.seed)
    else:
        for flag, value in (("--t", args.t), ("--p-insert", args.p_insert)):
            if value is not None:
                print(f"gen: {flag} applies to --pattern random only", file=sys.stderr)
                return 2
        seq = workload.gen_named(args.pattern, args.n, args.seed)
    text = workload.serialize(seq)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"gen: wrote {len(seq.ops)} ops (n={seq.n}) to {args.out}", file=sys.stderr)
    return 0


def _load_sequence(path: str) -> workload.UpdateSequence:
    if path == "-":
        return workload.parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return workload.parse(fh.read())


def _run_or_verify(args, *, oracle: bool) -> int:
    seq = _load_sequence(args.input)
    if args.teardown:
        seq = workload.extend_with_teardown(seq)
    state = State(Config(n=seq.n, threshold=args.threshold, seed=args.seed))
    stats = on_update = None
    if args.metrics is not None:
        tracker = metrics_mod.EpochTracker()
        tracker.attach(state)
        stats = metrics_mod.RunStats(
            n=seq.n,
            threshold=state.threshold,
            seed=args.seed,
            gen=seq.gen,
            gen_seed=seq.seed,
            tracker=tracker,
        )
        on_update = stats.recorder(state)
    result = replay(
        state,
        seq.ops,
        verify_every=1 if oracle else args.verify_every,
        oracle=oracle,
        on_update=on_update,
    )
    if stats is not None:
        text = metrics_mod.export(stats, args.format)
        if args.metrics == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                fh.write(text)
            sys.stdout.write(stats.summary_table())
    print(
        f"replayed {result.updates} ops: "
        f"|M|={state.matching_size} edges={state.edge_count}",
        file=sys.stderr,
    )
    if result.dirty_at is not None:
        print(f"dirty state after update {result.dirty_at}:", file=sys.stderr)
        if result.report is not None:
            sys.stderr.write(result.report.to_text())
        else:
            print("approximation ratio violated", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    rows = []
    for n in args.n_list:
        t = args.updates_per_n * n
        seq = workload.gen_random(n, t, args.p_insert, args.seed)
        state = State(Config(n=n, threshold=args.threshold, seed=args.seed + 1))
        total = replay(state, seq.ops).update_ns / 1e9
        rows.append((n, t, total, 1e6 * total / t))
        print(
            f"bench n={n} t={t} total={total:.2f}s amortized={1e6 * total / t:.2f}us",
            file=sys.stderr,
        )
    print("n,updates,total_s,amortized_us")
    for n, t, total, amort in rows:
        print(f"{n},{t},{total:.6f},{amort:.3f}")
    for (n0, _, _, a0), (n1, _, _, a1) in zip(rows, rows[1:]):
        print(f"# growth {n0}->{n1}: x{a1 / a0:.2f}", file=sys.stderr)
    return 0


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="Dynamic 3/2-approximate matching: workloads, replay, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a workload file")
    p_gen.add_argument("--pattern", default="random",
                       choices=("random",) + workload.PATTERNS)
    p_gen.add_argument("--n", type=_int_at_least(1), required=True)
    p_gen.add_argument("--t", type=int, default=None,
                       help="number of ops (random pattern only)")
    p_gen.add_argument("--p-insert", type=float, default=None,
                       help="insert probability (random pattern only; default 0.6)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")

    for name, oracle in (("run", False), ("verify", True)):
        p = sub.add_parser(
            name,
            help="replay a workload"
            + (" with per-update verification and exact ratio checks" if oracle else ""),
        )
        p.add_argument("--input", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threshold", type=int, default=None)
        if not oracle:
            p.add_argument("--verify-every", type=_int_at_least(0), default=1,
                           help="verify after every k-th update; 0 only at the end. "
                                "The final state is always verified")
        p.add_argument("--teardown", action="store_true",
                       help="append deletes of all remaining edges")
        p.add_argument("--metrics", default=None, help="write run metrics to this path")
        p.add_argument("--format", default="json", choices=("json", "csv"))

    p_bench = sub.add_parser("bench", help="amortized update-time scaling")
    # a single vertex has no edge to insert, so each count must be >= 2
    vertex_count = _int_at_least(2)
    p_bench.add_argument("--n-list", type=lambda s: [vertex_count(x) for x in s.split(",")],
                         required=True)
    p_bench.add_argument("--updates-per-n", type=_int_at_least(1), default=10,
                         help="updates per vertex: t = factor * n")
    p_bench.add_argument("--p-insert", type=float, default=0.6)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--threshold", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _run_or_verify(args, oracle=False)
        if args.command == "verify":
            return _run_or_verify(args, oracle=True)
        return _cmd_bench(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
