"""splitcut benchmark: one closed-loop client driving the ``splitcut`` CLI.

Run from the root of a splitcut checkout:

    python3 benchmark/run.py --workload alg1_balanced --seed 1 --seconds 10 --trace 0

The workload's instances are generated from ``--seed`` and written as
DIMACS files under ``.splitcut_bench/``; the program sees only those
files, through in-process ``splitcut.cli.main([...])`` calls with stdout
captured, each starting when the previous one ends. Every output is
checked. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics from the spans (see ``spans.py`` and
``predictions.json``). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--size tiny``
shrinks every workload for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".splitcut_bench"

# numpy's BLAS would otherwise start one thread per core at import, in the
# benchmark and in every timed child process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("alg1_balanced", "nonsplit_reduction", "small_batch")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_PROCESSES = 2
PROCESS_SHARE = 0.3
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10
# The console script's body, so a child runs exactly what `splitcut` runs.
CLI_ENTRY = "import sys; from splitcut.cli import entrypoint; sys.argv[0] = 'splitcut'; entrypoint()"

COUNT_METRICS = (
    "solver.subsets", "solver.subset_efficiency", "solver.alg1_calls", "solver.alg2_calls",
    "solver.trivial_calls", "solver.decide_early_yes", "reduction.calls", "reduction.aux_vertices",
    "graph.build_calls", "graph.components", "recognition.calls", "recognition.not_split",
    "dimacs.parse_bytes",
)


class Bench:
    """Runs operations through the CLI entry point and tallies checked outcomes."""

    def __init__(self, cli, workloads) -> None:
        self.cli = cli
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def execute(self, op, op_id: int = -1) -> float:
        """Run one operation, check its output, and return its latency in seconds."""
        if self.tracer is not None:
            self.tracer.op_id, self.tracer.op_kind = op_id, op.kind
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        self.record(self.workloads.check(op, code, buf.getvalue()))
        return elapsed

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.fail(error)

    def run_pass(self, ops, latencies: list[float] | None = None) -> float:
        total = 0.0
        for op_id, op in enumerate(ops):
            elapsed = self.execute(op, op_id)
            total += elapsed
            if latencies is not None:
                latencies.append(elapsed)
        return total


def source_digest() -> str:
    """Short hash of the program's and the benchmark's sources.

    Work counts are compared only between runs of the same code.
    """
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "splitcut").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    """The benchmark's environment (thread pins included) with only ``src`` on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_process(bench: Bench, op) -> float | None:
    """Wall time of one whole ``splitcut solve --json`` process, its output checked."""
    cmd = [sys.executable, "-c", CLI_ENTRY, *op.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        bench.record(f"solve {op.inst.name}: process still running after 60 s")
        return None
    elapsed = time.perf_counter() - start
    bench.record(bench.workloads.check(op, proc.returncode, proc.stdout))
    return elapsed


def import_times(samples: int) -> tuple[list[float], list[float]]:
    """Cumulative import ms of splitcut and of numpy, one pair per ``python -X importtime`` child."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import splitcut.cli"]
    ours, numpy_ms = [], []
    for _ in range(samples):
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120, check=True)
        rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
        # rows[0] is the column header; a name's indent is its nesting depth.
        entries = [(int(cum), name) for _, cum, name in rows[1:]]
        top = min(len(name) - len(name.lstrip()) for _, name in entries)
        ours.append(sum(
            cum for cum, name in entries
            if len(name) - len(name.lstrip()) == top and name.strip().split(".")[0] == "splitcut"
        ) / 1000.0)
        numpy_ms.append(next(cum for cum, name in entries if name.strip() == "numpy") / 1000.0)
    return ours, numpy_ms


def environment() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(bench: Bench, ops, process_op, seconds: float, report: dict) -> dict[str, float]:
    """Passes of the workload with whole processes in between, over the whole window.

    Both kinds of sample are spread evenly over the run, so a slow minute
    of the host weighs on every metric alike instead of on whichever was
    timed last; whole processes take about PROCESS_SHARE of the window.
    """
    latencies: list[float] = []
    passes: list[float] = []
    process: list[float] = []
    time_process(bench, process_op)  # warm-up: file cache and first-exec costs
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(bench.run_pass(ops, latencies))
        while len(process) < MIN_PROCESSES or sum(process) < PROCESS_SHARE * (sum(passes) + sum(process)):
            elapsed = time_process(bench, process_op)
            if elapsed is None:
                break
            process.append(elapsed)
    wall = statistics.median(passes)
    tail_s, tail_pct = tail(latencies)
    useful = sum(op.inst.useful_splits for op in ops if op.kind == "solve")

    largest = max((op for op in ops if op.kind == "solve"), key=lambda op: (op.inst.useful_splits, op.inst.n))
    bench.execute(largest)
    tracemalloc.start()
    bench.execute(largest)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    report["samples"] = {
        "wall_s": f"median of {len(passes)} passes of {len(ops)} operations",
        "solve_ms_p50": f"median of {len(latencies)} calls",
        "solve_ms_tail": f"p{tail_pct:.2f} of {len(latencies)} calls ({TAIL_BEYOND} beyond it)",
        "splits_per_s": f"{useful} useful splits per pass / wall_s",
        "cli_process_ms_p50": f"median of {len(process)} processes after 1 warm-up, between the passes",
        "peak_traced_mib": f"one solve of {largest.inst.name}",
        "setup_s": f"median of {IMPORT_SAMPLES} child imports + median of {SETUP_REPEATS} set-ups",
    }
    return {
        "wall_s": wall,
        "solve_ms_p50": statistics.median(latencies) * 1000.0,
        "solve_ms_tail": tail_s * 1000.0,
        "splits_per_s": useful / wall,
        "cli_process_ms_p50": statistics.median(process or [0.0]) * 1000.0,
        "peak_traced_mib": peak / (1 << 20),
    }


def layer_metrics(self_ms: dict[str, float], calls: Counter, counts: Counter, useful: int) -> dict[str, float]:
    def ms(*names):
        return sum(self_ms.get(name, 0.0) for name in names)

    def ns_per_subset(name):
        subsets = counts[f"{name}.subsets"]
        return ms(name) * 1e6 / subsets if subsets else 0.0

    return {
        "solver.scan_ms": ms("solver.alg1", "solver.alg2"),
        "solver.alg1_ns_per_subset": ns_per_subset("solver.alg1"),
        "solver.alg2_ns_per_subset": ns_per_subset("solver.alg2"),
        "solver.subsets": counts["solver.alg1.subsets"] + counts["solver.alg2.subsets"],
        "solver.subset_efficiency": useful / counts["solve_subsets"] if counts["solve_subsets"] else 0.0,
        "solver.witness_ms": ms("solver.greedy_extend_is", "solver.clique_prefix_partition"),
        "solver.merge_ms": ms("solver.maxcut_split"),
        "solver.alg1_calls": calls["solver.alg1"],
        "solver.alg2_calls": calls["solver.alg2"],
        "solver.trivial_calls": counts["trivial"],
        "solver.decide_early_yes": counts["early_yes"],
        "reduction.build_ms": ms("reduction.build"),
        "reduction.lift_ms": ms("reduction.lift"),
        "reduction.calls": calls["reduction.build"],
        "reduction.aux_vertices": counts["aux_vertices"],
        "graph.build_ms": ms("graph.build"),
        "graph.build_calls": calls["graph.build"],
        "graph.components_ms": ms("graph.components"),
        "graph.components": counts["components"],
        "graph.induced_ms": ms("graph.induced"),
        "graph.complement_ms": ms("graph.complement"),
        "recognition.recognize_ms": ms("recognition.recognize"),
        "recognition.calls": calls["recognition.recognize"],
        "recognition.not_split": counts["not_split"],
        "dimacs.parse_ms": ms("dimacs.parse"),
        "dimacs.parse_bytes": counts["parse_bytes"],
        "dimacs.format_ms": ms("dimacs.format"),
        "cli.main_self_ms": ms("cli.main"),
    }


def per_layer(bench: Bench, ops, imports, args, report: dict) -> dict[str, float]:
    from spans import Tracer

    tracer = Tracer()
    useful = sum(op.inst.useful_splits for op in ops if op.kind == "solve")
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(bench.run_pass(ops))
        tracer.counts = Counter()
        tracer.pass_index = len(traced)
        first = len(tracer.spans)
        bench.tracer = tracer
        with tracer.installed():
            traced.append(bench.run_pass(ops))
        bench.tracer = None
        self_ms, calls = tracer.pass_summary(first)
        per_pass.append(layer_metrics(self_ms, calls, tracer.counts, useful))

    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                bench.fail(f"count {name} differs between traced passes: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_ms"] = statistics.median(imports[0])
    metrics["cli.import_numpy_ms"] = statistics.median(imports[1])
    metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0

    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    for name in predictions["nonzero"][args.workload]:
        if not metrics[name] > 0:
            bench.fail(f"{name} is 0 on {args.workload}, where its spans must fire")

    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    counts = {name: metrics[name] for name in COUNT_METRICS}
    counts_path = OUT / "counts" / f"{tag}-{source_digest()}.json"
    if counts_path.is_file():
        before = json.loads(counts_path.read_text(encoding="utf-8"))
        for name, value in counts.items():
            if before.get(name) != value:
                bench.fail(f"count {name} is {value}, an earlier run of this code saw {before.get(name)}")
    else:
        counts_path.parent.mkdir(parents=True, exist_ok=True)
        counts_path.write_text(json.dumps(counts, indent=1), encoding="utf-8")
    spans_path = OUT / "trace" / f"{tag}.jsonl"
    tracer.write(spans_path)
    report["samples"] = {
        "per_layer": f"median over {len(traced)} traced passes; counts per pass",
        "trace.overhead_pct": f"median of {len(traced)} traced vs {len(untraced)} untraced passes",
        "spans": f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    }
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the smoke test's sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitcut" / "__init__.py").is_file():
        print(f"error: no splitcut sources under {SRC}; run from a splitcut checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import splitcut.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported splitcut from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tiny = args.size == "tiny"
    bench = Bench(cli, workloads)
    work = OUT / f"work-{os.getpid()}"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "environment": environment()}
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            ops = workloads.build(args.workload, args.seed, tiny, work)
            warm_up(cli, ops)
            setups.append(time.perf_counter() - start)
        imports = import_times(IMPORT_SAMPLES)
        setup_s = statistics.median(imports[0]) / 1000.0 + statistics.median(setups)

        process_op = workloads.solve_op(workloads.tiny_instance(args.seed), work)
        for error in workloads.resolve_expected([*ops, process_op]):
            bench.fail(error)
        bench.run_pass(ops)  # checked once before anything is timed
        if args.trace:
            metrics = per_layer(bench, ops, imports, args, report)
            units = metric_units("per_layer")
        else:
            metrics = end_to_end(bench, ops, process_op, args.seconds, report)
            metrics["setup_s"] = setup_s
            units = metric_units("end_to_end")
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["error_rate"] = {"value": bench.failed / bench.attempted, "unit": "ratio"}
    report["errors"] = bench.errors
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.6f} {unit:6s} {report['samples'].get(name, '')}")
    print(f"error_rate {bench.failed}/{bench.attempted}; errors: {bench.errors[:3]}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def warm_up(cli, ops) -> None:
    """One unchecked call per operation kind, so first-call costs land in set-up."""
    seen = set()
    for op in ops:
        if op.kind in seen:
            continue
        seen.add(op.kind)
        argv = ["decide", op.inst.path, "0"] if op.kind == "decide" else op.argv
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
