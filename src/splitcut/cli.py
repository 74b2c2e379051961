"""Command-line surface: solve, decide, recognize, reduce, oracle, generate, bench.

Exit codes are 0 for success (or a "yes" answer), 1 for a "no" answer
(cut below threshold, graph not split), and 2 for errors such as
unreadable files, malformed instances, or an oracle cap violation.
All commands are single-threaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .dimacs import ParseError, format_instance, parse_instance
from .generate import bench_rows, generate_split
from .graph import Graph
from .oracle import InstanceTooLargeError, brute_force_maxcut
from .recognition import NotSplitGraphError, recognize_split
from .reduction import build_split_instance, maxcut_via_reduction
from .solver import CutReport, decide_maxcut_report, maxcut_split


def _print_report(instance: str, g: Graph, rep: CutReport, start: float, as_json: bool) -> None:
    """Print a solve report timed from ``start``; the fields are in the documented order."""
    wall_ms = round((time.perf_counter() - start) * 1000.0, 3)
    report = {
        "instance": instance,
        "n": g.n,
        "m": g.m,
        "algorithm": rep.algorithm,
        "size": rep.size,
        "side1": sorted(v + 1 for v in rep.cut.side1),
        "subsets_enumerated": rep.subsets_enumerated,
        "wall_ms": wall_ms,
    }
    if as_json:
        print(json.dumps(report))
        return
    report["side1"] = " ".join(map(str, report["side1"]))
    for key, value in report.items():
        print(f"{'max cut' if key == 'size' else key.replace('_', ' ')}: {value}")


def _load(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load(args.instance)
    start = time.perf_counter()
    if args.force_reduction:
        rep = maxcut_via_reduction(g)
    else:
        try:
            rep = maxcut_split(g)
        except NotSplitGraphError:
            rep = maxcut_via_reduction(g)
    _print_report(args.instance, g, rep, start, args.json)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    g = _load(args.instance)
    report = decide_maxcut_report(g, args.k)
    print("yes" if report.answer else "no")
    return 0 if report.answer else 1


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load(args.instance)
    part = recognize_split(g)
    if part is None:
        print("not split")
        return 1
    print("clique:", " ".join(str(v + 1) for v in sorted(part.clique)))
    print("independent:", " ".join(str(v + 1) for v in sorted(part.independent)))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.instance)
    rmap = build_split_instance(g)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_instance(rmap.image, comment=f"split image of {args.instance}"))
    map_path = args.output + ".map"
    with open(map_path, "w", encoding="utf-8") as fh:
        for (u, v), aux in rmap.nonedge_vertex.items():
            fh.write(f"a {aux + 1} {u + 1} {v + 1}\n")
    print(
        f"wrote {args.output} (n={rmap.image.n}, m={rmap.image.m}) "
        f"and {map_path} ({rmap.nonedge_count} auxiliary vertices)"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args.instance)
    start = time.perf_counter()
    rep = brute_force_maxcut(g, cap=args.cap)
    _print_report(args.instance, g, rep, start, args.json)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate_split(args.clique, args.is_size, args.prob, args.seed)
    comment = (
        f"generate_split clique={args.clique} is={args.is_size} "
        f"prob={args.prob} seed={args.seed}"
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_instance(g, comment=comment))
    print(f"wrote {args.output} (n={g.n}, m={g.m})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_rows(args.min_t, args.max_t, args.prob, args.seed)
    print("t,n,subsets,size,millis")
    for t, n, subsets, size, millis in rows:
        print(f"{t},{n},{subsets},{size},{millis:.2f}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitcut",
        description="Exact maximum-cut solver for split graphs, with a reduction for arbitrary graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximum cut (split engine; reduction fallback)")
    p.add_argument("instance", help="DIMACS instance file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--force-reduction",
        action="store_true",
        help="route through the split-graph reduction even for split inputs",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="is there a cut of size at least k?")
    p.add_argument("instance", help="DIMACS instance file (must be split)")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("recognize", help="print a clique/independent-set partition")
    p.add_argument("instance", help="DIMACS instance file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("reduce", help="write the split-graph image and a .map sidecar")
    p.add_argument("instance", help="DIMACS instance file")
    p.add_argument("-o", "--output", required=True, help="path for the image instance")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force maximum cut (small instances)")
    p.add_argument("instance", help="DIMACS instance file")
    p.add_argument("--cap", type=int, default=20, help="largest n the oracle will attempt")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("generate", help="write a seeded random split instance")
    p.add_argument("--clique", type=int, required=True, help="clique size")
    p.add_argument("--is", dest="is_size", type=int, required=True, metavar="IS", help="independent-set size")
    p.add_argument("--prob", type=float, required=True, help="clique-to-IS edge probability")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="path for the instance")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="CSV work/timing table over balanced split instances")
    p.add_argument("--min-t", type=int, required=True, help="smallest side size")
    p.add_argument("--max-t", type=int, required=True, help="largest side size")
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NotSplitGraphError, InstanceTooLargeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
