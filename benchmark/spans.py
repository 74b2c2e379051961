"""Spans around splitcut's public functions, recorded from outside the package.

``Tracer.installed()`` rebinds each function in ``TRACED`` to a wrapper in
every ``splitcut`` module that holds it by name (and on the class for
``Graph.from_edges``), and restores the originals on exit. A span records
name, start, end, parent span and the id of the benchmark operation that
caused it; spans stay in memory until ``write`` saves them. A target that
no longer exists raises ``LookupError``, so a renamed function fails the
traced run instead of reading as zero.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute) for every traced function.
TRACED = (
    ("cli.main", "splitcut.cli", "main"),
    ("dimacs.parse", "splitcut.dimacs", "parse_instance"),
    ("dimacs.format", "splitcut.dimacs", "format_instance"),
    ("graph.build", "splitcut.graph", "Graph.from_edges"),
    ("graph.components", "splitcut.graph", "connected_components"),
    ("graph.induced", "splitcut.graph", "induced_subgraph"),
    ("graph.complement", "splitcut.graph", "complement"),
    ("recognition.recognize", "splitcut.recognition", "recognize_split"),
    ("solver.maxcut_split", "splitcut.solver", "maxcut_split"),
    ("solver.alg1", "splitcut.solver", "maxcut_given_is"),
    ("solver.alg2", "splitcut.solver", "maxcut_given_clique"),
    ("solver.greedy_extend_is", "splitcut.solver", "greedy_extend_is"),
    ("solver.clique_prefix_partition", "splitcut.solver", "clique_prefix_partition"),
    ("solver.decide", "splitcut.solver", "decide_maxcut_report"),
    ("reduction.solve", "splitcut.reduction", "maxcut_via_reduction"),
    ("reduction.build", "splitcut.reduction", "build_split_instance"),
    ("reduction.lift", "splitcut.reduction", "lift_cut"),
)


def _count_result(counts: Counter, name: str, args, result, op_kind: str) -> None:
    """Work counts read off a finished call's arguments and result."""
    if name == "dimacs.parse":
        counts["parse_bytes"] += len(args[0].encode())
    elif name == "graph.components":
        counts["components"] += len(result)
    elif name == "recognition.recognize":
        counts["not_split"] += result is None
    elif name in ("solver.alg1", "solver.alg2"):
        counts[f"{name}.subsets"] += result.subsets_enumerated
        if op_kind == "solve":
            counts["solve_subsets"] += result.subsets_enumerated
    elif name == "solver.maxcut_split":
        counts["trivial"] += result.algorithm == "trivial"
    elif name == "solver.decide":
        counts["early_yes"] += result.early_yes
    elif name == "reduction.build":
        counts["aux_vertices"] += result.nonedge_count


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index, operation id, pass index)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.op_kind = ""
        self.pass_index = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, self.pass_index)
            _count_result(self.counts, name, args, result, self.op_kind)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        undo = []
        try:
            for name, module_name, attr in TRACED:
                module = sys.modules.get(module_name)
                if module is None:
                    raise LookupError(f"traced module {module_name} is not loaded")
                if attr == "Graph.from_edges":
                    cls = getattr(module, "Graph", None)
                    original = cls.__dict__.get("from_edges") if cls else None
                    if not isinstance(original, classmethod):
                        raise LookupError("traced classmethod Graph.from_edges not found")
                    cls.from_edges = classmethod(self._wrap(name, original.__func__))
                    undo.append((cls, "from_edges", original))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    raise LookupError(f"traced function {module_name}.{attr} not found")
                wrapper = self._wrap(name, original)
                for holder_name, holder in list(sys.modules.items()):
                    if holder_name != "splitcut" and not holder_name.startswith("splitcut."):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def pass_summary(self, first_span: int) -> tuple[dict[str, float], Counter]:
        """Self time in ms and call count per span name, over spans from ``first_span`` on."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, *_ in self.spans[first_span:]:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, *_rest) in enumerate(self.spans[first_span:], first_span):
            self_ms[name] += (end - start - child_time[index]) * 1000.0
            calls[name] += 1
        return dict(self_ms), calls

    def write(self, path: Path) -> None:
        """Save every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, pass_index in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1), "parent": parent,
                    "op": op_id, "pass": pass_index,
                }) + "\n")
