"""Exact maximum-cut engine for split graphs.

Two complementary enumeration strategies share the work bound. The
clique-side strategy ("alg1") walks every bipartition of C = V \\ I and
places each independent vertex greedily on the side opposite the
majority of its neighbors. The independent-side strategy ("alg2") walks
every bipartition of I = V \\ C, sorts the clique by how much each
vertex prefers side 1, and takes the best prefix. Dispatching on the
smaller side caps the work at 2^(n/2) subsets for any split graph.

Subsets are enumerated as a plain binary counter 0..2^t-1 (lowest
vertex ID of the enumerated side = least-significant bit) and the first
maximum in that order wins. Evaluation is vectorized over fixed-size
chunks of counter values, so memory stays constant in 2^t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import (
    Cut,
    Graph,
    VertexSet,
    as_vertex_set,
    connected_components,
    induced_subgraph,
    is_clique,
    is_independent_set,
    iter_bits,
    mask_of,
)
from .recognition import NotSplitGraphError, recognize_split

ALG1 = "alg1"
ALG2 = "alg2"
TRIVIAL = "trivial"
COMPONENT_MERGE = "component-merge"

# Most counter values per numpy pass, and the entry budget of one chunk's
# (rows, width) working arrays; see _scan for the memory this costs.
_CHUNK = 1 << 14
_TABLE = 1 << 17

# Beyond 62 bits the counter would overflow uint64; 2^62 subsets is far
# out of reach anyway.
_MAX_SIDE = 62


@dataclass(frozen=True)
class CutReport:
    """A cut, its size, the strategy that found it, and the work done."""

    cut: Cut
    size: int
    algorithm: str
    subsets_enumerated: int


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the threshold decision, with the path taken."""

    answer: bool
    early_yes: bool
    clique_size: int
    subsets_enumerated: int


def _require_sides(g: Graph, clique=frozenset(), independent=frozenset()) -> None:
    """Raise ValueError, naming the side, unless both sides have their shape."""
    if not is_independent_set(g, independent):
        raise ValueError("independent side: vertices do not form an independent set")
    if not is_clique(g, clique):
        raise ValueError("clique side: vertices do not form a clique")


def _side_masks(g: Graph, side: list[int], of: list[int]) -> list[int]:
    """For each vertex in ``of``, its neighborhood as a bitmask over ``side``."""
    return [sum(1 << i for i, u in enumerate(side) if g.adj_mask[v] >> u & 1) for v in of]


def greedy_extend_is(g: Graph, independent, c1, c2) -> tuple[VertexSet, VertexSet]:
    """Place each independent vertex against the fixed split (c1, c2).

    A vertex goes to side 1 when it has at least as many neighbors in c2
    as in c1 (ties to side 1), which maximizes the cut over all 2^|I|
    placements for this particular (c1, c2).
    """
    ind = as_vertex_set(g, independent, "independent set")
    _require_sides(g, independent=ind)
    s1 = as_vertex_set(g, c1, "c1")
    s2 = as_vertex_set(g, c2, "c2")
    m1 = mask_of(s1)
    m2 = mask_of(s2)
    if m1 & m2 or (m1 | m2) != g.full_mask ^ mask_of(ind):
        raise ValueError("(c1, c2) must partition the vertices outside the independent set")
    i1 = frozenset(
        v
        for v in ind
        if (g.adj_mask[v] & m2).bit_count() >= (g.adj_mask[v] & m1).bit_count()
    )
    return i1, ind - i1


def clique_prefix_partition(g: Graph, clique, i1, i2, m: int) -> tuple[VertexSet, VertexSet]:
    """Split the clique into the m vertices that most prefer side 1, and the rest.

    Vertices are ordered by |N(v) & i2| - |N(v) & i1|, non-increasing,
    ties by ascending vertex ID. For the fixed (i1, i2) and fixed m, the
    returned prefix maximizes the cut over all m-subsets of the clique.
    """
    cl = as_vertex_set(g, clique, "clique")
    s1 = as_vertex_set(g, i1, "i1")
    s2 = as_vertex_set(g, i2, "i2")
    m1 = mask_of(s1)
    m2 = mask_of(s2)
    if m1 & m2 or (m1 | m2) != g.full_mask ^ mask_of(cl):
        raise ValueError("(i1, i2) must partition the vertices outside the clique")
    if not 0 <= m <= len(cl):
        raise ValueError(f"m={m} out of range 0..{len(cl)}")
    order = sorted(
        cl,
        key=lambda v: (
            (g.adj_mask[v] & m1).bit_count() - (g.adj_mask[v] & m2).bit_count(),
            v,
        ),
    )
    return frozenset(order[:m]), frozenset(order[m:])


def _scan(g: Graph, side: list[int], other: list[int], score, width: int) -> tuple[int, int]:
    """Walk all 2^|side| subsets of ``side`` and return the first maximum.

    Counter bit i selects side[i] into side 1. For each chunk of
    counters, ``score(counters, masks)`` gets every vertex of ``other``
    as a neighborhood bitmask over ``side``, and returns one int64 cut
    size per counter, edges inside ``side`` included: k(t - k) for alg1's
    clique, none for alg2's independent side. Returns (size, counter) of
    the first maximum in counter order.

    ``width`` is how many entries per counter the scorer works on (1 for
    alg1, |C| + 1 for alg2). Memory does not grow with 2^|side|: a chunk
    has min(2^14, 2^17 // width) rows, but at least 256, and each chunk's
    arrays are freed before the next chunk starts. tracemalloc peaks per
    solve are about 550 KiB for alg1 at |C| = |I| = 22 and 1.1 MiB for
    alg2 at |C| = 60, |I| = 16.
    """
    t = len(side)
    if t > _MAX_SIDE:
        raise ValueError(f"enumerated side has {t} vertices; walking 2^{t} subsets is not tractable")
    masks = np.array(_side_masks(g, side, other), dtype=np.uint64)
    rows = max(256, min(_CHUNK, _TABLE // width))
    best = -1
    best_at = 0
    for lo in range(0, 1 << t, rows):
        values = score(np.arange(lo, min(lo + rows, 1 << t), dtype=np.uint64), masks)
        at = int(values.argmax())
        if values[at] > best:
            best = int(values[at])
            best_at = lo + at
        del values
    return best, best_at


def _greedy_values(counters: np.ndarray, masks: np.ndarray, clique_size: int) -> np.ndarray:
    """alg1: k(|C| - k) clique edges, each independent vertex opposite most of its neighbors."""
    k = np.bitwise_count(counters).astype(np.int64)
    total = k * (clique_size - k)  # int64: k(|C| - k) reaches 961 at |C| = 62
    # Counts stay in uint8 (bitwise_count's type): with_side1 <= degree <= 62.
    for mask, degree in zip(masks, np.bitwise_count(masks).tolist()):
        with_side1 = np.bitwise_count(mask & counters)
        total += np.maximum(with_side1, degree - with_side1)
    return total


def _prefix_values(counters: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """alg2: each counter's cut with its best prefix of the sorted clique on side 1.

    f(m) moves the m clique vertices that most prefer side 1 there. That
    gains degree_v - 2 * with_side1_v = -loss_v per vertex and m(|C| - m)
    clique edges, so with the losses sorted ascending, f(m + 1) - f(m) =
    |C| - 1 - 2m - losses[m]. These increments strictly decrease, so f is
    concave: its maximum adds the positive increments, and its first best
    m counts them. clique_prefix_partition rebuilds the vertex order.
    """
    size = len(masks)
    # |increment| <= |C| + 61 (with_side1 <= degree <= 62): int16 holds it up to
    # |C| = 32706 and sorts ~3x as fast as int64; wider cliques get a wider type.
    dtype = np.promote_types(np.int16, np.min_scalar_type(-(size + _MAX_SIDE)))
    with_side1 = np.bitwise_count(counters[:, None] & masks)
    losses = 2 * with_side1 - np.bitwise_count(masks).astype(dtype)  # 2 * 62 fits uint8
    losses.sort(axis=1)
    gains = np.maximum(np.arange(size - 1, -size, -2, dtype=dtype) - losses, 0)
    return with_side1.sum(axis=1, dtype=np.int64) + gains.sum(axis=1, dtype=np.int64)


def maxcut_given_is(g: Graph, independent) -> CutReport:
    """Maximum cut of a split graph with independent side I and clique V \\ I.

    Enumerates all 2^|V \\ I| splits of the clique; memory stays
    polynomial in n. Arbitrary graphs go through maxcut_via_reduction.
    """
    ind = as_vertex_set(g, independent, "independent set")
    cverts = sorted(set(range(g.n)) - ind)
    _require_sides(g, frozenset(cverts), ind)
    score = functools.partial(_greedy_values, clique_size=len(cverts))
    best, subset = _scan(g, cverts, sorted(ind), score, 1)
    c1 = frozenset(cverts[i] for i in iter_bits(subset))
    c2 = frozenset(cverts) - c1
    i1, i2 = greedy_extend_is(g, ind, c1, c2)
    return CutReport(
        cut=Cut(side1=c1 | i1, side2=c2 | i2),
        size=best,
        algorithm=ALG1,
        subsets_enumerated=1 << len(cverts),
    )


def maxcut_given_clique(g: Graph, clique) -> CutReport:
    """Maximum cut of a split graph with clique side C and independent set V \\ C.

    Enumerates all 2^|V \\ C| splits of the independent side and, for
    each, the best prefix of the sorted clique (the shortest, on ties).
    """
    cl = as_vertex_set(g, clique, "clique")
    iverts = sorted(set(range(g.n)) - cl)
    _require_sides(g, cl, frozenset(iverts))
    best, subset = _scan(g, iverts, sorted(cl), _prefix_values, len(cl) + 1)
    i1 = frozenset(iverts[j] for j in iter_bits(subset))
    i2 = frozenset(iverts) - i1
    # The first best prefix length counts the positive increments (see _prefix_values).
    m1, m2 = mask_of(i1), mask_of(i2)
    losses = sorted((g.adj_mask[v] & m1).bit_count() - (g.adj_mask[v] & m2).bit_count() for v in cl)
    m = sum(loss < len(cl) - 1 - 2 * a for a, loss in enumerate(losses))
    c1, c2 = clique_prefix_partition(g, cl, i1, i2, m)
    return CutReport(
        cut=Cut(side1=c1 | i1, side2=c2 | i2),
        size=best,
        algorithm=ALG2,
        subsets_enumerated=1 << len(iverts),
    )


def _trivial_report(g: Graph) -> CutReport | None:
    """Edgeless and complete graphs are solved without enumeration."""
    if g.m == 0:
        return CutReport(
            cut=Cut(side1=frozenset(range(g.n)), side2=frozenset()),
            size=0,
            algorithm=TRIVIAL,
            subsets_enumerated=0,
        )
    if g.is_complete():
        half = g.n // 2
        return CutReport(
            cut=Cut(side1=frozenset(range(half)), side2=frozenset(range(half, g.n))),
            size=half * (g.n - half),
            algorithm=TRIVIAL,
            subsets_enumerated=0,
        )
    return None


def _solve_connected(g: Graph, algorithm: str) -> CutReport:
    part = recognize_split(g)
    if part is None:
        raise NotSplitGraphError("a connected component is not a split graph")
    if algorithm == ALG1 or (
        algorithm == "auto" and len(part.clique) <= len(part.independent)
    ):
        return maxcut_given_is(g, part.independent)
    return maxcut_given_clique(g, part.clique)


def maxcut_split(g: Graph, algorithm: str = "auto") -> CutReport:
    """Maximum cut of a graph whose connected components are split graphs.

    Edgeless and complete graphs are answered directly; otherwise each
    component is recognized and solved by whichever strategy enumerates
    its smaller side (at most 2^(n/2) subsets per component), and the
    component cuts are concatenated.

    ``algorithm`` may force "alg1" or "alg2" on every non-trivial
    component; the achieved size must not depend on the choice.

    Raises NotSplitGraphError when some component is not split.
    """
    if algorithm not in ("auto", ALG1, ALG2):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    report = _trivial_report(g)
    if report is not None:
        return report
    comps = connected_components(g)
    if len(comps) == 1:
        return _solve_connected(g, algorithm)
    side1: set[int] = set()
    size = 0
    subsets = 0
    for comp in comps:
        sub, verts = induced_subgraph(g, comp)
        rep = _trivial_report(sub) or _solve_connected(sub, algorithm)
        side1.update(verts[i] for i in rep.cut.side1)
        size += rep.size
        subsets += rep.subsets_enumerated
    return CutReport(
        cut=Cut(side1=frozenset(side1), side2=frozenset(range(g.n)) - side1),
        size=size,
        algorithm=COMPONENT_MERGE,
        subsets_enumerated=subsets,
    )


def decide_maxcut_report(g: Graph, k: int) -> DecisionReport:
    """Decide whether a split graph has a cut of size at least ``k``.

    Splitting the clique into halves already crosses floor(|C|^2/4)
    edges, so 4k <= |C|^2 answers yes with no enumeration at all.
    Otherwise |C| < 2*sqrt(k) and the exact maximum is computed by the
    clique-side scan, keeping the total work under 2^(2*sqrt(k)) subsets.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    part = recognize_split(g)
    if part is None:
        raise NotSplitGraphError("not a split graph")
    c = len(part.clique)
    if 4 * k <= c * c:
        return DecisionReport(answer=True, early_yes=True, clique_size=c, subsets_enumerated=0)
    exact = maxcut_given_is(g, part.independent)
    return DecisionReport(
        answer=exact.size >= k,
        early_yes=False,
        clique_size=c,
        subsets_enumerated=exact.subsets_enumerated,
    )
