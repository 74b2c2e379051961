"""Immutable undirected simple graphs with bitmask adjacency rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

VertexSet = frozenset[int]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex IDs into an integer bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is one bitmask row per vertex (bit u of ``adj_mask[v]`` is
    set iff u and v are adjacent), so ``|N(v) & S|`` is a single popcount
    on the intersection of two masks.
    """

    n: int
    adj_mask: tuple[int, ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, rejecting self-loops, duplicates and bad endpoints."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        return cls(n=n, adj_mask=tuple(rows), m=m)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, in ascending order."""
        return tuple(
            (u, v) for u in range(self.n) for v in iter_bits(self.adj_mask[u] >> (u + 1) << (u + 1))
        )

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class Cut:
    """A two-sided vertex partition; its size is the number of crossing edges."""

    side1: VertexSet
    side2: VertexSet

    @classmethod
    def of(cls, side1: Iterable[int], side2: Iterable[int]) -> "Cut":
        return cls(frozenset(side1), frozenset(side2))


def as_vertex_set(g: Graph, vertices: Iterable[int], what: str = "vertex set") -> VertexSet:
    """Normalize to a frozenset and range-check against ``g``."""
    s = frozenset(vertices)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"{what} contains vertex {v}, outside 0..{g.n - 1}")
    return s


def check_partition(g: Graph, cut: Cut) -> None:
    """Raise ValueError unless ``cut`` is a partition of g's vertices."""
    m1 = mask_of(cut.side1)
    m2 = mask_of(cut.side2)
    if (m1 | m2) & ~g.full_mask:
        stray = min(v for v in cut.side1 | cut.side2 if not 0 <= v < g.n)
        raise ValueError(f"cut contains vertex {stray}, outside 0..{g.n - 1}")
    if m1 & m2:
        overlap = sorted(cut.side1 & cut.side2)
        raise ValueError(f"cut sides overlap on vertices {overlap}")
    if m1 | m2 != g.full_mask:
        raise ValueError("cut sides do not cover the vertex set exactly")


def cut_size(g: Graph, cut: Cut) -> int:
    """Number of edges with one endpoint on each side of ``cut``."""
    check_partition(g, cut)
    m2 = mask_of(cut.side2)
    return sum((g.adj_mask[u] & m2).bit_count() for u in cut.side1)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly g's non-edges."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in iter_bits(~g.adj_mask[u] & (g.full_mask >> (u + 1) << (u + 1)))
    ]
    return Graph.from_edges(g.n, edges)


def connected_components(g: Graph) -> list[VertexSet]:
    """Components as vertex sets, ordered by their smallest member."""
    comps: list[VertexSet] = []
    rest = g.full_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= g.adj_mask[v]
            frontier = reach & ~comp
            comp |= frontier
        rest ^= comp
        comps.append(frozenset(iter_bits(comp)))
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vertices``.

    Returns the subgraph (relabeled 0..k-1 in ascending original-ID
    order) together with the tuple mapping new IDs back to originals.
    """
    verts = tuple(sorted(as_vertex_set(g, vertices)))
    keep = mask_of(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u in verts
        for v in iter_bits(g.adj_mask[u] & (keep >> (u + 1) << (u + 1)))
    ]
    return Graph.from_edges(len(verts), edges), verts


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise adjacent (empty/singleton: True)."""
    s = as_vertex_set(g, vertices)
    mask = mask_of(s)
    return all(g.adj_mask[v] & mask == mask ^ (1 << v) for v in s)


def is_independent_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two of the vertices are adjacent (empty/singleton: True)."""
    s = as_vertex_set(g, vertices)
    mask = mask_of(s)
    return all(g.adj_mask[v] & mask == 0 for v in s)
