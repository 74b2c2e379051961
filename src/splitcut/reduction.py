"""Solving maximum cut on arbitrary graphs through the split-graph engine.

Any graph becomes a split graph by completing its vertex set into a
clique and compensating each added edge {u, v} with a fresh degree-2
vertex adjacent to exactly u and v. Every cut of the image then exceeds
the corresponding cut of the original by exactly twice the number of
added edges, so one subtraction recovers the original optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Cut, Graph, complement
from .solver import CutReport, maxcut_split


@dataclass(frozen=True)
class ReductionMap:
    """A graph, its split-graph image, and the bookkeeping between them.

    ``nonedge_vertex`` maps each non-adjacent pair (u, v) with u < v of
    the original graph to the auxiliary vertex standing in for it.
    Auxiliary IDs start at ``original.n`` and follow the lexicographic
    order of the pairs.
    """

    original: Graph
    image: Graph
    nonedge_vertex: dict[tuple[int, int], int]

    @property
    def nonedge_count(self) -> int:
        return len(self.nonedge_vertex)


def build_split_instance(g: Graph) -> ReductionMap:
    """Embed ``g`` in a split graph whose maximum cut is larger by 2 per non-edge.

    The image keeps vertices 0..n-1 (now a clique), and appends one
    vertex per non-edge of ``g``, adjacent to both endpoints of that
    non-edge. A cut gains 2 per auxiliary vertex by placing it opposite
    the side holding both its neighbors, or opposite either neighbor
    when they disagree; no placement gains more, so optima shift in
    lockstep.
    """
    if g.n < 1:
        raise ValueError("reduction needs at least one vertex")
    nonedges = complement(g).edges()
    nonedge_vertex = {pair: g.n + i for i, pair in enumerate(nonedges)}
    edges: list[tuple[int, int]] = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n)
    ]
    for (u, v), aux in nonedge_vertex.items():
        edges.append((u, aux))
        edges.append((v, aux))
    image = Graph.from_edges(g.n + len(nonedges), edges)
    return ReductionMap(original=g, image=image, nonedge_vertex=nonedge_vertex)


def lift_cut(rmap: ReductionMap, cut: Cut) -> Cut:
    """Restrict a cut of the image to the original vertices."""
    full = frozenset(range(rmap.image.n))
    if (cut.side1 | cut.side2) != full or cut.side1 & cut.side2:
        raise ValueError("cut does not partition the image's vertices")
    original = frozenset(range(rmap.original.n))
    return Cut(side1=cut.side1 & original, side2=cut.side2 & original)


def maxcut_via_reduction(g: Graph) -> CutReport:
    """Maximum cut of an arbitrary graph, via its split-graph image.

    The report carries the lifted cut and the original graph's optimum;
    algorithm tag and subset count come from the run on the image.
    """
    if g.n == 0:
        return maxcut_split(g)
    rmap = build_split_instance(g)
    inner = maxcut_split(rmap.image)
    return CutReport(
        cut=lift_cut(rmap, inner.cut),
        size=inner.size - 2 * rmap.nonedge_count,
        algorithm=inner.algorithm,
        subsets_enumerated=inner.subsets_enumerated,
    )
