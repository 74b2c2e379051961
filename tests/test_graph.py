"""Graph container, cut arithmetic, and subgraph machinery."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitcut import Cut, Graph, cut_size
from splitcut.graph import (
    check_partition,
    complement,
    connected_components,
    induced_subgraph,
    is_clique,
    is_independent_set,
    iter_bits,
    mask_of,
)

from .conftest import complete_graph, cycle_graph, empty_graph, graphs, path_graph


def naive_cut_size(g: Graph, side1: frozenset[int]) -> int:
    return sum(1 for u, v in g.edges() if (u in side1) != (v in side1))


class TestConstruction:
    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph.from_edges(-1, [])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_counts_vertices_and_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 1)])
        assert g.n == 4
        assert g.m == 2
        assert g.degree(1) == 2
        assert g.degree(3) == 0
        assert g.has_edge(1, 0) and g.has_edge(1, 2)
        assert not g.has_edge(0, 2)

    def test_edges_ascending_normalized(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (3, 0)])
        assert g.edges() == ((0, 1), (0, 3), (2, 3))

    def test_is_complete(self):
        assert complete_graph(4).is_complete()
        assert empty_graph(0).is_complete()
        assert empty_graph(1).is_complete()
        assert not path_graph(3).is_complete()


class TestMasks:
    def test_mask_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(iter_bits(0b100101)) == [0, 2, 5]
        assert list(iter_bits(0)) == []

    @given(st.sets(st.integers(min_value=0, max_value=40)))
    def test_mask_of_inverts_iter_bits(self, vertices):
        assert set(iter_bits(mask_of(vertices))) == vertices


class TestCuts:
    def test_known_cut_sizes(self):
        g = cycle_graph(4)
        assert cut_size(g, Cut.of([0, 2], [1, 3])) == 4
        assert cut_size(g, Cut.of([0, 1], [2, 3])) == 2
        assert cut_size(g, Cut.of([], [0, 1, 2, 3])) == 0

    def test_rejects_overlapping_sides(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="overlap"):
            check_partition(g, Cut.of([0, 1], [1, 2]))

    def test_rejects_non_covering_sides(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="cover"):
            check_partition(g, Cut.of([0], [2]))
        with pytest.raises(ValueError, match="vertex 3"):
            cut_size(g, Cut.of([0, 3], [1, 2]))

    @given(graphs(max_n=8), st.integers(min_value=0, max_value=255))
    def test_cut_size_matches_edge_by_edge_count(self, g, picks):
        side1 = frozenset(v for v in range(g.n) if picks >> v & 1)
        cut = Cut(side1=side1, side2=frozenset(range(g.n)) - side1)
        assert cut_size(g, cut) == naive_cut_size(g, side1)

    @given(graphs(max_n=8), st.integers(min_value=0, max_value=255))
    def test_cut_size_symmetric_in_sides(self, g, picks):
        side1 = frozenset(v for v in range(g.n) if picks >> v & 1)
        side2 = frozenset(range(g.n)) - side1
        assert cut_size(g, Cut(side1, side2)) == cut_size(g, Cut(side2, side1))


class TestComplement:
    def test_known_complements(self):
        assert complement(empty_graph(4)).is_complete()
        assert complement(complete_graph(4)).m == 0
        assert complement(cycle_graph(4)).edges() == ((0, 2), (1, 3))

    @given(graphs(max_n=8))
    def test_involution_and_edge_count(self, g):
        gc = complement(g)
        assert g.m + gc.m == g.n * (g.n - 1) // 2
        assert complement(gc).edges() == g.edges()


class TestComponents:
    def test_connected_graph_is_one_component(self):
        assert connected_components(path_graph(5)) == [frozenset(range(5))]

    def test_components_ordered_by_smallest_member(self):
        g = Graph.from_edges(6, [(0, 4), (1, 3)])
        assert connected_components(g) == [
            frozenset({0, 4}),
            frozenset({1, 3}),
            frozenset({2}),
            frozenset({5}),
        ]

    @given(graphs(max_n=8))
    def test_components_partition_vertices(self, g):
        comps = connected_components(g)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == set(range(g.n))
        for u, v in g.edges():
            assert any(u in comp and v in comp for comp in comps)

    @given(graphs(max_n=10))
    def test_components_match_union_find(self, g):
        parent = list(range(g.n))

        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in g.edges():
            parent[find(u)] = find(v)
        groups: dict[int, set[int]] = {}
        for v in range(g.n):
            groups.setdefault(find(v), set()).add(v)
        assert connected_components(g) == sorted(map(frozenset, groups.values()), key=min)


class TestInducedSubgraph:
    def test_relabels_ascending(self):
        g = Graph.from_edges(6, [(1, 4), (4, 5), (0, 2)])
        sub, verts = induced_subgraph(g, [5, 1, 4])
        assert verts == (1, 4, 5)
        assert sub.n == 3
        assert sub.edges() == ((0, 1), (1, 2))

    @given(graphs(max_n=8), st.integers(min_value=0, max_value=255))
    def test_preserves_adjacency(self, g, picks):
        chosen = [v for v in range(g.n) if picks >> v & 1]
        sub, verts = induced_subgraph(g, chosen)
        assert sub.n == len(chosen)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                assert sub.has_edge(i, j) == g.has_edge(verts[i], verts[j])


class TestVertexSetPredicates:
    def test_clique_and_independent(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 0)])
        assert is_clique(g, [0, 1, 2])
        assert not is_clique(g, [0, 1, 3])
        assert is_clique(g, [])
        assert is_clique(g, [4])
        assert is_independent_set(g, [3, 4, 1])
        assert not is_independent_set(g, [0, 3])
