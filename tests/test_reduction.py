"""Clique-completion reduction: structure, size identity, cut lifting."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from splitcut import (
    Cut,
    brute_force_maxcut,
    build_split_instance,
    cut_size,
    lift_cut,
    maxcut_split,
    maxcut_via_reduction,
    recognize_split,
    verify_partition,
)
from splitcut.graph import is_clique, is_independent_set, mask_of
from splitcut.recognition import SplitPartition

from .conftest import complete_graph, cycle_graph, empty_graph, graphs, path_graph


@pytest.fixture
def pentagon_chord_map(pentagon_chord_graph):
    return build_split_instance(pentagon_chord_graph)


class TestConstruction:
    def test_pentagon_chord_image_counts(self, pentagon_chord_map):
        rmap = pentagon_chord_map
        assert rmap.nonedge_count == 4
        assert rmap.image.n == 9
        assert rmap.image.m == 18

    def test_auxiliary_ids_follow_lexicographic_nonedge_order(self, pentagon_chord_map):
        assert pentagon_chord_map.nonedge_vertex == {
            (0, 2): 5,
            (0, 3): 6,
            (1, 3): 7,
            (2, 4): 8,
        }

    def test_image_structure(self, pentagon_chord_map):
        rmap = pentagon_chord_map
        n = rmap.original.n
        assert is_clique(rmap.image, range(n))
        assert is_independent_set(rmap.image, range(n, rmap.image.n))
        for (u, v), aux in rmap.nonedge_vertex.items():
            assert rmap.image.adj_mask[aux] == mask_of([u, v])

    def test_image_is_recognized_split(self, pentagon_chord_map):
        part = recognize_split(pentagon_chord_map.image)
        assert part is not None
        assert verify_partition(pentagon_chord_map.image, part)

    def test_complete_graph_maps_to_itself(self):
        rmap = build_split_instance(complete_graph(3))
        assert rmap.nonedge_count == 0
        assert rmap.image.edges() == complete_graph(3).edges()

    def test_four_cycle_image(self):
        rmap = build_split_instance(cycle_graph(4))
        assert rmap.image.n == 6
        assert rmap.nonedge_vertex == {(0, 2): 4, (1, 3): 5}
        assert rmap.image.adj_mask[4] == mask_of([0, 2])
        assert rmap.image.adj_mask[5] == mask_of([1, 3])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            build_split_instance(empty_graph(0))

    @settings(max_examples=60)
    @given(graphs(max_n=7))
    def test_invariants_on_random_graphs(self, g):
        if g.n == 0:
            return
        rmap = build_split_instance(g)
        assert rmap.image.n == g.n + rmap.nonedge_count
        assert rmap.image.m == g.n * (g.n - 1) // 2 + 2 * rmap.nonedge_count
        assert is_clique(rmap.image, range(g.n))
        assert is_independent_set(rmap.image, range(g.n, rmap.image.n))
        assert verify_partition(
            rmap.image,
            SplitPartition(
                clique=frozenset(range(g.n)),
                independent=frozenset(range(g.n, rmap.image.n)),
            ),
        )
        assert recognize_split(rmap.image) is not None


class TestLiftCut:
    def test_restricts_to_original_vertices(self, pentagon_chord_map):
        rmap = pentagon_chord_map
        lifted = lift_cut(rmap, Cut.of([0, 2, 4, 7], [1, 3, 5, 6, 8]))
        assert lifted == Cut.of([0, 2, 4], [1, 3])
        assert cut_size(rmap.original, lifted) == 5

    def test_identity_on_auxiliary_free_image(self):
        rmap = build_split_instance(complete_graph(3))
        cut = Cut.of([0], [1, 2])
        assert lift_cut(rmap, cut) == cut

    def test_rejects_non_partition(self, pentagon_chord_map):
        with pytest.raises(ValueError, match="partition"):
            lift_cut(pentagon_chord_map, Cut.of([0, 1], [2, 3]))

    def test_lifted_solver_cut_is_maximum(self, pentagon_chord_map):
        rmap = pentagon_chord_map
        inner = maxcut_split(rmap.image)
        assert inner.size == 13
        lifted = lift_cut(rmap, inner.cut)
        assert cut_size(rmap.original, lifted) == inner.size - 2 * rmap.nonedge_count == 5

    def test_four_cycle_lift(self):
        rmap = build_split_instance(cycle_graph(4))
        inner = maxcut_split(rmap.image)
        assert inner.size == 8
        assert cut_size(rmap.original, lift_cut(rmap, inner.cut)) == 4


class TestEndToEnd:
    def test_pentagon_chord(self, pentagon_chord_graph):
        report = maxcut_via_reduction(pentagon_chord_graph)
        assert report.size == 5
        assert cut_size(pentagon_chord_graph, report.cut) == 5

    def test_four_cycle(self):
        assert maxcut_via_reduction(cycle_graph(4)).size == 4

    def test_edgeless_graph(self):
        assert maxcut_via_reduction(empty_graph(4)).size == 0
        assert maxcut_via_reduction(empty_graph(0)).size == 0

    def test_already_split_input_still_reduces(self):
        g = path_graph(3)
        report = maxcut_via_reduction(g)
        assert report.size == 2
        assert cut_size(g, report.cut) == 2

    @settings(max_examples=60)
    @given(graphs(max_n=7))
    def test_size_identity_and_oracle_agreement(self, g):
        if g.n == 0:
            return
        rmap = build_split_instance(g)
        # The image must stay inside the oracle's exhaustive budget.
        assume(rmap.image.n <= 18)
        want = brute_force_maxcut(g).size
        assert brute_force_maxcut(rmap.image).size == want + 2 * rmap.nonedge_count
        report = maxcut_via_reduction(g)
        assert report.size == want
        assert cut_size(g, report.cut) == want
