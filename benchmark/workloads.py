"""Seeded instance sets for the splitcut benchmark, and the checks on their answers.

Every instance is built from the workload seed, with
``splitcut.generate_split`` or with the small builders below, and the
program receives it only as a DIMACS file. Each instance records the
shape of its connected components, from which the benchmark derives its
own lower bound on the subsets an exact solver has to scan
(``useful_splits``): 2^min(|C|, |I|) for a split component, 2^min(n_c,
non-edges_c) for a non-split one (the per-component reduction) and 0 for
a component that needs no scan.

Expected answers come from the brute-force oracle on components of at
most 20 vertices, from a closed form where the builder knows one, or
from forced alg1 and forced alg2 agreeing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from splitcut import Graph, brute_force_maxcut, generate_split, maxcut_split

ORACLE_MAX_N = 20
SOLVE_FIELDS = ["instance", "n", "m", "algorithm", "size", "side1", "subsets_enumerated", "wall_ms"]


@dataclass
class Instance:
    name: str
    n: int
    edges: list[tuple[int, int]]
    # One (kind, a, b) per component: ("split", |C|, |I|), ("nonsplit",
    # n_c, non-edges_c) or ("trivial", n_c, 0).
    parts: list[tuple[str, int, int]]
    # "oracle", "agree", or "formula" with ``expected`` preset.
    strategy: str
    expected: int | None = None
    path: str = ""

    @property
    def useful_splits(self) -> int:
        return sum(1 << min(a, b) for kind, a, b in self.parts if kind != "trivial")


@dataclass
class Op:
    kind: str  # "solve", "decide" or "reduce"
    inst: Instance
    argv: list[str]
    # decide only: a threshold, or "opt" / "opt+1" until resolve_expected.
    k: int | str | None = None
    out_path: str = ""


# --- graph builders -------------------------------------------------------


def _shift(edges, offset):
    return [(u + offset, v + offset) for u, v in edges]


def split_component(rng: random.Random, c: int, i: int) -> list[tuple[int, int]]:
    """A connected split graph with clique 0..c-1 whose only split sides are c and i.

    generate_split draws the edges; an independent vertex left without a
    clique neighbor gets one, and one adjacent to the whole clique loses
    one. Then every clique holds at most c vertices and the graph is
    connected and neither edgeless nor complete.
    """
    if c < 2 or i < 1:
        raise ValueError("split components need |C| >= 2 and |I| >= 1")
    g = generate_split(c, i, 0.5, rng.randrange(1 << 30))
    clique = [(u, v) for u, v in g.edges() if v < c]
    cross = {w: [u for u, v in g.edges() if v == w] for w in range(c, c + i)}
    for w, nbrs in cross.items():
        if not nbrs:
            nbrs.append(rng.randrange(c))
        elif len(nbrs) == c:
            nbrs.remove(rng.choice(nbrs))
    return clique + [(u, w) for w, nbrs in cross.items() for u in sorted(nbrs)]


def cycle(length: int) -> list[tuple[int, int]]:
    return [(j, j + 1) for j in range(length - 1)] + [(0, length - 1)]


def components(n: int, edges) -> list[list[int]]:
    """Connected components in order of their smallest vertex."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            for v in nbrs[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def is_split(n: int, edges) -> bool:
    """Hammer-Simeone degree-sequence test."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    d = sorted(deg, reverse=True)
    m = 0
    while m < n and d[m] >= m:
        m += 1
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


def gnp_nonsplit(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A connected non-split G(n, 1/2), redrawn until it is both."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if len(components(n, edges)) == 1 and not is_split(n, edges):
            return edges


def complete_minus_matching(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """K_n without k disjoint random pairs (k >= 2, so an induced C4 makes it non-split).

    Its maximum cut is floor(n/2) * ceil(n/2) whenever 2k <= n - 2: no cut
    of K_n is larger, and a balanced cut keeping each missing pair on one
    side reaches it.
    """
    if not 2 <= k <= (n - 2) // 2:
        raise ValueError("need 2 <= k <= (n - 2) / 2")
    verts = rng.sample(range(n), 2 * k)
    missing = {tuple(sorted(verts[2 * j : 2 * j + 2])) for j in range(k)}
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing]


def _nonedges(n: int, m: int) -> int:
    return n * (n - 1) // 2 - m


# --- instance shapes ------------------------------------------------------


def split_instance(rng, name, c, i, strategy) -> Instance:
    return Instance(name, c + i, split_component(rng, c, i), [("split", c, i)], strategy)


def union_instance(rng, name, shapes, cycle_len=0, isolated=0) -> Instance:
    """Split components, then an optional odd cycle, then isolated vertices."""
    edges, parts, offset = [], [], 0
    for c, i in shapes:
        edges += _shift(split_component(rng, c, i), offset)
        parts.append(("split", c, i))
        offset += c + i
    if cycle_len:
        edges += _shift(cycle(cycle_len), offset)
        parts.append(("nonsplit", cycle_len, _nonedges(cycle_len, cycle_len)))
        offset += cycle_len
    parts += [("trivial", 1, 0)] * isolated
    return Instance(name, offset + isolated, edges, parts, "oracle")


def gnp_instance(rng, name, n) -> Instance:
    edges = gnp_nonsplit(rng, n)
    return Instance(name, n, edges, [("nonsplit", n, _nonedges(n, len(edges)))], "oracle")


def dense_instance(rng, name, n, k) -> Instance:
    return Instance(
        name, n, complete_minus_matching(rng, n, k), [("nonsplit", n, k)], "formula",
        expected=(n // 2) * (n - n // 2),
    )


def complete_instance(name, n) -> Instance:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Instance(name, n, edges, [("trivial", n, 0)], "formula", expected=(n // 2) * (n - n // 2))


def edgeless_instance(name, n) -> Instance:
    return Instance(name, n, [], [("trivial", 1, 0)] * n, "formula", expected=0)


# --- workloads --------------------------------------------------------------


def _alg1_balanced(rng, tiny):
    ts = (6, 7, 8) if tiny else (18, 19, 20)
    insts = [split_instance(rng, f"balanced-t{t}-{j}", t, t, "agree") for t in ts for j in range(2)]
    return [("solve", inst, None) for inst in insts]


def _nonsplit_reduction(rng, tiny):
    if tiny:
        gnp, dense, unions = (6, 7), ((10, 3), (12, 4)), (([(2, 2)], 5), ([(3, 3)], 5))
    else:
        gnp = (10, 12, 14, 16)
        dense = ((30, 10), (36, 12), (40, 14))
        unions = (
            ([(4, 4)], 5), ([(5, 5)], 5), ([(3, 3), (3, 3)], 5), ([(6, 6)], 5), ([(5, 5)], 7),
        )
    insts = [gnp_instance(rng, f"gnp-n{n}", n) for n in gnp]
    insts += [dense_instance(rng, f"dense-n{n}-k{k}", n, k) for n, k in dense]
    insts += [
        union_instance(rng, f"union-{'-'.join(f'{c}x{i}' for c, i in shapes)}-c{L}", shapes, L)
        for shapes, L in unions
    ]
    return [("solve", inst, None) for inst in insts]


def _small_batch(rng, tiny):
    # Every shape below is fixed; the seed draws only the edges, so two
    # seeds ask for the same amount of work.
    scale = 10 if tiny else 1
    ops = []
    connected = [
        split_instance(rng, f"split-{j}", 2 + j % 11, 1 + 7 * j % 14, "oracle")
        for j in range(60 // scale)
    ]
    for inst in connected:
        if inst.n > ORACLE_MAX_N:
            inst.strategy = "agree"
    # Two clearly slower solves, so the latency tail is set by real work
    # rather than by scheduling hiccups among thousands of ~2 ms calls.
    t = 8 if tiny else 17
    big = [split_instance(rng, f"split-big-{j}", t, t, "agree") for j in range(2)]
    unions = [
        union_instance(
            rng, f"union-{j}",
            [(2 + (j + 3 * q) % 5, 1 + (j + 2 * q) % 6) for q in range(2 + j % 2)],
            isolated=j % 3,
        )
        for j in range(30 // scale)
    ]
    nonsplit = [gnp_instance(rng, f"gnp-{j}", 5 + j % 5) for j in range(30 // scale)]
    nonsplit += [union_instance(rng, f"cycle-{L}", [], L) for L in (5, 7, 9)]
    trivial = [complete_instance(f"complete-{n}", n) for n in (3, 4, 7, 8)]
    trivial += [edgeless_instance(f"edgeless-{n}", n) for n in (3, 6)]
    for inst in connected + big + unions + nonsplit + trivial:
        ops.append(("solve", inst, None))
    for inst in connected[: 20 // scale + 1]:
        c = inst.parts[0][1]
        # k at the early-yes threshold, then at and just above the optimum,
        # which the clique-side scan settles.
        ops += [("decide", inst, c * c // 4), ("decide", inst, "opt"), ("decide", inst, "opt+1")]
    for inst in nonsplit[: 20 // scale + 1]:
        ops.append(("reduce", inst, None))
    return ops


_BUILDERS = {
    "alg1_balanced": _alg1_balanced,
    "nonsplit_reduction": _nonsplit_reduction,
    "small_batch": _small_batch,
}


def tiny_instance(seed: int) -> Instance:
    """The instance timed as a whole ``splitcut solve`` process."""
    return split_instance(random.Random(f"process:{seed}"), "process-tiny", 4, 4, "oracle")


# --- files ------------------------------------------------------------------


def dimacs_text(inst: Instance) -> str:
    lines = [f"c splitcut benchmark instance {inst.name}", f"p edge {inst.n} {len(inst.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.edges]
    return "\n".join(lines) + "\n"


def write_instance(inst: Instance, directory: Path) -> None:
    path = directory / f"{inst.name}.col"
    path.write_text(dimacs_text(inst), encoding="ascii")
    inst.path = str(path)


def solve_op(inst: Instance, directory: Path) -> Op:
    write_instance(inst, directory)
    return Op("solve", inst, ["solve", inst.path, "--json"])


def build(workload: str, seed: int, tiny: bool, directory: Path) -> list[Op]:
    """The workload's operations in their fixed order, with instance files written."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for j, (kind, inst, k) in enumerate(_BUILDERS[workload](rng, tiny)):
        if kind == "solve":
            ops.append(solve_op(inst, directory))
        elif kind == "decide":
            ops.append(Op(kind, inst, [], k=k))
        else:
            out = str(directory / f"reduce-{j}.col")
            ops.append(Op(kind, inst, ["reduce", inst.path, "-o", out], out_path=out))
    return ops


# --- expected answers ---------------------------------------------------------


def _oracle_size(inst: Instance) -> int:
    total = 0
    for comp in components(inst.n, inst.edges):
        index = {v: j for j, v in enumerate(comp)}
        sub = [(index[u], index[v]) for u, v in inst.edges if u in index]
        total += brute_force_maxcut(Graph.from_edges(len(comp), sub), cap=ORACLE_MAX_N).size
    return total


def resolve_expected(ops: list[Op]) -> list[str]:
    """Fill in expected sizes and decide thresholds; return disagreements found."""
    errors = []
    for inst in {op.inst.name: op.inst for op in ops}.values():
        if inst.strategy == "oracle":
            inst.expected = _oracle_size(inst)
        elif inst.strategy == "agree":
            g = Graph.from_edges(inst.n, inst.edges)
            a1, a2 = maxcut_split(g, "alg1").size, maxcut_split(g, "alg2").size
            if a1 != a2:
                errors.append(f"{inst.name}: forced alg1 gives {a1}, forced alg2 gives {a2}")
            inst.expected = a1
    for op in ops:
        inst = op.inst
        if op.kind == "decide":
            if op.k == "opt":
                op.k = inst.expected
            elif op.k == "opt+1":
                op.k = inst.expected + 1
            op.argv = ["decide", inst.path, str(op.k)]
    return errors


# --- output checks -------------------------------------------------------------


def _cut_size(edges, side1: set[int]) -> int:
    return sum((u in side1) != (v in side1) for u, v in edges)


def check(op: Op, code: int, out: str) -> str | None:
    """None if the operation's exit code and output are right, else the reason."""
    inst = op.inst
    if op.kind == "decide":
        want = inst.expected >= op.k
        if (code, out) != ((0, "yes\n") if want else (1, "no\n")):
            return f"decide {inst.name} k={op.k}: exit {code}, printed {out!r}, want {want}"
        return None
    if code != 0:
        return f"{op.kind} {inst.name}: exit code {code}"
    if op.kind == "reduce":
        return _check_reduce(op)
    try:
        report = json.loads(out)
    except ValueError:
        return f"solve {inst.name}: output is not JSON: {out[:80]!r}"
    if list(report) != SOLVE_FIELDS:
        return f"solve {inst.name}: fields {list(report)}"
    if (report["instance"], report["n"], report["m"]) != (inst.path, inst.n, len(inst.edges)):
        return f"solve {inst.name}: wrong instance, n or m"
    side1 = report["side1"]
    if side1 != sorted(set(side1)) or any(not 1 <= v <= inst.n for v in side1):
        return f"solve {inst.name}: side1 is not an ascending list of labels"
    witnessed = _cut_size(inst.edges, {v - 1 for v in side1})
    if witnessed != report["size"]:
        return f"solve {inst.name}: side1 cuts {witnessed} edges, report says {report['size']}"
    if report["size"] != inst.expected:
        return f"solve {inst.name}: size {report['size']}, expected {inst.expected}"
    return None


def _check_reduce(op: Op) -> str | None:
    inst = op.inst
    present = set(inst.edges)
    nonedges = [(u, v) for u in range(inst.n) for v in range(u + 1, inst.n) if (u, v) not in present]
    want_image = {(u, v) for u in range(inst.n) for v in range(u + 1, inst.n)}
    want_map = []
    for j, (u, v) in enumerate(nonedges):
        aux = inst.n + j
        want_image |= {(u, aux), (v, aux)}
        want_map.append(f"a {aux + 1} {u + 1} {v + 1}")
    image_path, map_path = Path(op.out_path), Path(op.out_path + ".map")
    try:
        image = image_path.read_text(encoding="ascii").splitlines()
        mapping = map_path.read_text(encoding="ascii").splitlines()
        # Remove both, so the next call has to write them again.
        image_path.unlink()
        map_path.unlink()
        edges = {
            tuple(sorted((int(a) - 1, int(b) - 1)))
            for _, a, b in (line.split() for line in image if line.startswith("e "))
        }
    except (OSError, ValueError) as exc:
        return f"reduce {inst.name}: {exc}"
    header = [line for line in image if line.startswith("p ")]
    if header != [f"p edge {inst.n + len(nonedges)} {len(want_image)}"] or edges != want_image:
        return f"reduce {inst.name}: image is not the expected split graph"
    if mapping != want_map:
        return f"reduce {inst.name}: .map sidecar differs from the expected pairs"
    return None
