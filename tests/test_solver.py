"""Enumeration cores, dispatcher, and the threshold decision procedure."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcut import (
    Cut,
    Graph,
    NotSplitGraphError,
    brute_force_maxcut,
    clique_prefix_partition,
    cut_size,
    decide_maxcut_report,
    generate_split,
    greedy_extend_is,
    maxcut_given_clique,
    maxcut_given_is,
    maxcut_split,
    recognize_split,
)
from splitcut.graph import is_clique
from splitcut.solver import _prefix_values

from .conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graphs_with_independent_set,
    path_graph,
    split_graphs,
    star_graph,
)


def small_split_instances() -> st.SearchStrategy[Graph]:
    return split_graphs(max_side=5)


class TestGreedyExtension:
    def test_fixed_attachment_example(self, k5_fan_split_graph):
        i1, i2 = greedy_extend_is(
            k5_fan_split_graph, range(5, 10), c1=[0, 1], c2=[2, 3, 4]
        )
        assert i1 == frozenset({7, 8, 9})
        assert i2 == frozenset({5, 6})

    def test_empty_c1_sends_everything_to_side1(self, k5_fan_split_graph):
        i1, i2 = greedy_extend_is(k5_fan_split_graph, range(5, 10), c1=[], c2=range(5))
        assert i1 == frozenset(range(5, 10))
        assert i2 == frozenset()

    def test_star_center_alone_repels_leaves(self):
        g = star_graph(3)
        i1, i2 = greedy_extend_is(g, [1, 2, 3], c1=[0], c2=[])
        assert i1 == frozenset()
        assert i2 == frozenset({1, 2, 3})
        assert cut_size(g, Cut.of([0], i2)) == 3

    def test_tie_goes_to_side1(self):
        # Vertex 2 sees one neighbor on each side; the tie sends it to side 1.
        g = complete_graph(3)
        i1, _ = greedy_extend_is(g, [2], c1=[0], c2=[1])
        assert i1 == frozenset({2})

    def test_rejects_non_independent_set(self, k5_fan_split_graph):
        with pytest.raises(ValueError, match="independent"):
            greedy_extend_is(k5_fan_split_graph, [0, 1], c1=[2, 3, 4], c2=range(5, 10))

    def test_rejects_bad_complement_partition(self, k5_fan_split_graph):
        with pytest.raises(ValueError, match="partition"):
            greedy_extend_is(k5_fan_split_graph, range(5, 10), c1=[0], c2=[2, 3, 4])

    @settings(max_examples=60)
    @given(split_graphs(max_side=4), st.integers(min_value=0, max_value=2**32))
    def test_beats_every_exhaustive_placement(self, g, seed):
        part = recognize_split(g)
        ind = sorted(part.independent)
        cverts = sorted(part.clique)
        rng = random.Random(seed)
        c1 = frozenset(v for v in cverts if rng.random() < 0.5)
        c2 = frozenset(cverts) - c1
        i1, i2 = greedy_extend_is(g, ind, c1, c2)
        achieved = cut_size(g, Cut(c1 | i1, c2 | i2))
        for bits in range(1 << len(ind)):
            j1 = frozenset(ind[i] for i in range(len(ind)) if bits >> i & 1)
            j2 = frozenset(ind) - j1
            assert achieved >= cut_size(g, Cut(c1 | j1, c2 | j2))


class TestCliquePrefix:
    def test_sorted_prefix_example(self, k5_fan_split_graph):
        c1, c2 = clique_prefix_partition(
            k5_fan_split_graph, range(5), i1=[7, 8, 9], i2=[5, 6], m=2
        )
        assert c1 == frozenset({0, 1})
        assert c2 == frozenset({2, 3, 4})

    def test_m_zero_returns_empty_prefix(self, k5_fan_split_graph):
        c1, c2 = clique_prefix_partition(
            k5_fan_split_graph, range(5), i1=[5, 6, 7], i2=[8, 9], m=0
        )
        assert c1 == frozenset()
        assert c2 == frozenset(range(5))

    def test_all_ties_break_by_ascending_id(self):
        g = complete_graph(3)
        c1, c2 = clique_prefix_partition(g, range(3), i1=[], i2=[], m=1)
        assert c1 == frozenset({0})
        assert cut_size(g, Cut(c1, c2)) == 2

    def test_rejects_m_out_of_range(self, k5_fan_split_graph):
        with pytest.raises(ValueError, match="out of range"):
            clique_prefix_partition(k5_fan_split_graph, range(5), [5, 6, 7], [8, 9], 6)

    @settings(max_examples=60)
    @given(split_graphs(max_side=4), st.integers(min_value=0, max_value=2**32))
    def test_beats_every_same_size_subset(self, g, seed):
        part = recognize_split(g)
        cverts = sorted(part.clique)
        ind = sorted(part.independent)
        rng = random.Random(seed)
        i1 = frozenset(v for v in ind if rng.random() < 0.5)
        i2 = frozenset(ind) - i1
        for m in range(len(cverts) + 1):
            c1, c2 = clique_prefix_partition(g, cverts, i1, i2, m)
            assert len(c1) == m
            achieved = cut_size(g, Cut(c1 | i1, c2 | i2))
            for combo in itertools.combinations(cverts, m):
                chosen = frozenset(combo)
                other = cut_size(g, Cut(chosen | i1, (frozenset(cverts) - chosen) | i2))
                assert achieved >= other


class TestEnumerationCores:
    def test_single_edge_with_fixed_independent_vertex(self):
        report = maxcut_given_is(complete_graph(2), [1])
        assert report.size == 1
        assert report.algorithm == "alg1"
        assert report.subsets_enumerated == 2

    def test_k4_with_full_clique(self):
        report = maxcut_given_clique(complete_graph(4), range(4))
        assert report.size == 4
        assert report.algorithm == "alg2"
        assert report.subsets_enumerated == 1

    def test_fixed_split_graph_both_cores(self, k5_fan_split_graph):
        by_is = maxcut_given_is(k5_fan_split_graph, range(5, 10))
        by_clique = maxcut_given_clique(k5_fan_split_graph, range(5))
        assert by_is.size == by_clique.size == 14
        assert by_is.subsets_enumerated == by_clique.subsets_enumerated == 32
        assert cut_size(k5_fan_split_graph, by_is.cut) == 14
        assert cut_size(k5_fan_split_graph, by_clique.cut) == 14

    def test_split_image_with_auxiliary_independent_set(self, pentagon_chord_split_image):
        report = maxcut_given_is(pentagon_chord_split_image, [5, 6, 7, 8])
        assert report.size == 13

    def test_empty_independent_set_degenerates_to_full_enumeration(self):
        with pytest.raises(ValueError, match="clique side"):
            maxcut_given_is(cycle_graph(5), [])
        report = maxcut_given_is(complete_graph(5), [])
        assert report.size == brute_force_maxcut(complete_graph(5)).size == 6
        assert report.subsets_enumerated == 32

    def test_empty_clique_degenerates_to_full_enumeration(self):
        with pytest.raises(ValueError, match="independent side"):
            maxcut_given_clique(cycle_graph(5), [])
        report = maxcut_given_clique(empty_graph(5), [])
        assert report.size == 0
        assert report.subsets_enumerated == 32

    def test_wide_clique_prefix_values_do_not_wrap(self):
        # Past |C| = 32706 the increments can leave int16; compare with an int64
        # table of every prefix length, built the way the definition reads.
        rng = np.random.default_rng(5)
        size = 32_760
        masks = rng.integers(0, 1 << 62, size, dtype=np.uint64)
        counters = rng.integers(0, 1 << 62, 4, dtype=np.uint64)
        values = _prefix_values(counters, masks)
        with_side1 = np.bitwise_count(counters[:, None] & masks).astype(np.int64)
        losses = np.sort(2 * with_side1 - np.bitwise_count(masks).astype(np.int64), axis=1)
        m = np.arange(size + 1)
        table = with_side1.sum(axis=1, keepdims=True) + m * (size - m)
        table[:, 1:] -= losses.cumsum(axis=1)
        assert values.tolist() == table.max(axis=1).tolist()

    def test_rejects_non_independent_input(self):
        with pytest.raises(ValueError, match="independent"):
            maxcut_given_is(path_graph(3), [0, 1])

    def test_rejects_non_clique_input(self):
        with pytest.raises(ValueError, match="clique"):
            maxcut_given_clique(path_graph(3), [0, 2])

    def test_refuses_oversized_enumeration_side(self):
        # A valid split partition whose 63-vertex independent side is too wide.
        with pytest.raises(ValueError, match="not tractable"):
            maxcut_given_clique(empty_graph(63), [])

    @settings(max_examples=75)
    @given(small_split_instances())
    def test_both_cores_match_oracle(self, g):
        part = recognize_split(g)
        want = brute_force_maxcut(g).size
        by_is = maxcut_given_is(g, part.independent)
        by_clique = maxcut_given_clique(g, part.clique)
        assert by_is.size == want
        assert by_clique.size == want
        assert cut_size(g, by_is.cut) == want
        assert cut_size(g, by_clique.cut) == want

    @settings(max_examples=40)
    @given(graphs_with_independent_set())
    def test_alg1_handles_non_split_graphs(self, pair):
        # The core needs V \ I to be a clique; other graphs go through the reduction.
        g, ind = pair
        if not is_clique(g, set(range(g.n)) - ind):
            with pytest.raises(ValueError, match="clique side"):
                maxcut_given_is(g, ind)
            return
        report = maxcut_given_is(g, ind)
        assert report.size == brute_force_maxcut(g).size
        assert cut_size(g, report.cut) == report.size


class TestPinnedWitnesses:
    """Exact reports, fixed before the two scan kernels became one scan loop.

    The alg1 witness is counter 28160, in the second 2^14-counter chunk;
    the alg2 one is counter 7878, in the third of six 3196-row chunks
    (alg2 chunks at |C| = 40 are sized for 41 entries per counter). The
    two empty-side cases walk every split of K5 and of the edgeless
    5-vertex graph, the only graphs on which an empty side is a split
    partition.
    """

    ALG1_T16_SIDE1 = [9, 10, 11, 13, 14, 16, *range(18, 32)]
    ALG2_C40_I14_SIDE1 = [
        2, 3, 4, 7, 10, 11, 12, 14, 17, 18, 20, 24, 26, 28, 33, 34, 35, 36, 37,
        41, 42, 46, 47, 49, 50, 51, 52,
    ]

    @pytest.mark.parametrize(
        "make, solve, want",
        [
            (
                lambda: generate_split(16, 16, 0.5, 8),
                lambda g: maxcut_split(g, algorithm="alg1"),
                ("alg1", 160, ALG1_T16_SIDE1, 2**16),
            ),
            (
                lambda: generate_split(40, 14, 0.5, 11),
                lambda g: maxcut_split(g, algorithm="alg2"),
                ("alg2", 580, ALG2_C40_I14_SIDE1, 2**14),
            ),
            (lambda: complete_graph(5), lambda g: maxcut_given_is(g, []), ("alg1", 6, [0, 1], 32)),
            (lambda: empty_graph(5), lambda g: maxcut_given_clique(g, []), ("alg2", 0, [], 32)),
        ],
        ids=["alg1-t16", "alg2-c40-i14", "is-k5-empty", "clique-e5-empty"],
    )
    def test_report_is_bit_for_bit(self, make, solve, want):
        g = make()
        report = solve(g)
        got = (report.algorithm, report.size, sorted(report.cut.side1), report.subsets_enumerated)
        assert got == want
        assert cut_size(g, report.cut) == report.size


def _first_strict_maximum(g: Graph, candidates) -> tuple[int, list[int]]:
    """(size, sorted side1) of the first maximum cut in ``candidates``."""
    best, side1 = -1, []
    for c1, c2 in candidates:
        size = cut_size(g, Cut(side1=c1, side2=c2))
        if size > best:
            best, side1 = size, sorted(c1)
    return best, side1


def _splits(verts: list[int]):
    """Every (part1, part2) of ``verts`` in counter order, verts[0] the lowest bit."""
    for counter in range(1 << len(verts)):
        part1 = frozenset(v for j, v in enumerate(verts) if counter >> j & 1)
        yield part1, frozenset(verts) - part1


class TestDeterminismContract:
    """Both cores against a naive walk of the README's determinism contract.

    The walk tries counters in order and, for alg2, prefix lengths
    m = 0..|C| of each counter, scores every cut with cut_size, and keeps
    the first strict maximum.
    """

    @pytest.mark.parametrize("clique_size", range(7))
    def test_cores_keep_the_first_maximum(self, clique_size):
        clique = list(range(clique_size))
        for is_size, seed in itertools.product(range(7), range(12)):
            g = generate_split(clique_size, is_size, [0.3, 0.5, 0.7][seed % 3], seed)
            independent = list(range(clique_size, clique_size + is_size))
            alg1_cuts = (
                (c1 | i1, c2 | i2)
                for c1, c2 in _splits(clique)
                for i1, i2 in [greedy_extend_is(g, independent, c1, c2)]
            )
            alg2_cuts = (
                (c1 | i1, c2 | i2)
                for i1, i2 in _splits(independent)
                for m in range(clique_size + 1)
                for c1, c2 in [clique_prefix_partition(g, clique, i1, i2, m)]
            )
            for report, cuts in (
                (maxcut_given_is(g, independent), alg1_cuts),
                (maxcut_given_clique(g, clique), alg2_cuts),
            ):
                assert (report.size, sorted(report.cut.side1)) == _first_strict_maximum(g, cuts)


class TestDispatcher:
    def test_fixed_split_graph(self, k5_fan_split_graph):
        report = maxcut_split(k5_fan_split_graph)
        assert report.size == 14
        assert report.subsets_enumerated == 32
        assert report.algorithm in ("alg1", "alg2")
        assert cut_size(k5_fan_split_graph, report.cut) == 14

    def test_complete_graph_trivial_path(self):
        report = maxcut_split(complete_graph(5))
        assert report.size == 6
        assert report.algorithm == "trivial"
        assert report.subsets_enumerated == 0
        assert cut_size(complete_graph(5), report.cut) == 6

    def test_edgeless_and_tiny_graphs_trivial_path(self):
        for g in (empty_graph(0), empty_graph(1), empty_graph(4)):
            report = maxcut_split(g)
            assert report.size == 0
            assert report.algorithm == "trivial"
            assert report.subsets_enumerated == 0

    def test_two_paths_merge_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        report = maxcut_split(g)
        assert report.size == 4
        assert report.algorithm == "component-merge"
        assert cut_size(g, report.cut) == 4

    def test_small_side_is_enumerated(self):
        # Star: recognized clique has 2 vertices, independent side 2,
        # so either way 4 subsets; grow the independent side and the
        # clique stays the enumerated side.
        g = star_graph(6)
        report = maxcut_split(g)
        assert report.size == 6
        assert report.algorithm == "alg1"
        assert report.subsets_enumerated == 4
        # K5 plus two pendant vertices: clique side larger, alg2 runs.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(0, 5), (1, 6)]
        g = Graph.from_edges(7, edges)
        report = maxcut_split(g)
        assert report.algorithm == "alg2"
        assert report.subsets_enumerated == 4
        assert report.size == brute_force_maxcut(g).size

    def test_rejects_non_split_graph(self):
        with pytest.raises(NotSplitGraphError):
            maxcut_split(cycle_graph(5))
        with pytest.raises(NotSplitGraphError):
            maxcut_split(cycle_graph(4))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            maxcut_split(path_graph(3), algorithm="alg3")

    @settings(max_examples=75)
    @given(small_split_instances())
    def test_matches_oracle(self, g):
        report = maxcut_split(g)
        assert report.size == brute_force_maxcut(g).size
        assert cut_size(g, report.cut) == report.size

    @settings(max_examples=50)
    @given(small_split_instances())
    def test_forced_dispatch_does_not_change_size(self, g):
        auto = maxcut_split(g)
        forced1 = maxcut_split(g, algorithm="alg1")
        forced2 = maxcut_split(g, algorithm="alg2")
        assert auto.size == forced1.size == forced2.size
        assert cut_size(g, forced1.cut) == cut_size(g, forced2.cut) == auto.size

    @settings(max_examples=50)
    @given(small_split_instances())
    def test_work_bound_on_connected_dispatched_graphs(self, g):
        part = recognize_split(g)
        report = maxcut_split(g)
        if report.algorithm in ("alg1", "alg2"):
            assert report.subsets_enumerated == 2 ** min(
                len(part.clique), len(part.independent)
            )
            assert report.subsets_enumerated ** 2 <= 2**g.n

    @settings(max_examples=50)
    @given(small_split_instances())
    def test_balanced_clique_bipartition_lower_bound(self, g):
        part = recognize_split(g)
        c = len(part.clique)
        assert maxcut_split(g).size >= (c * c) // 4


class TestDecision:
    def test_fixed_split_graph_threshold(self, k5_fan_split_graph):
        assert decide_maxcut_report(k5_fan_split_graph, 14).answer
        assert not decide_maxcut_report(k5_fan_split_graph, 15).answer

    def test_single_edge(self):
        assert decide_maxcut_report(complete_graph(2), 1).answer
        assert not decide_maxcut_report(complete_graph(2), 2).answer

    def test_zero_threshold_is_always_yes(self):
        report = decide_maxcut_report(empty_graph(3), 0)
        assert report.answer and report.early_yes
        assert report.subsets_enumerated == 0

    def test_early_yes_from_wide_clique(self):
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        edges += [(0, 10), (1, 11), (2, 12)]
        g = Graph.from_edges(13, edges)
        report = decide_maxcut_report(g, 25)
        assert report.clique_size == 10
        assert report.answer and report.early_yes
        assert report.subsets_enumerated == 0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decide_maxcut_report(path_graph(3), -1)

    def test_rejects_non_split_graph(self):
        with pytest.raises(NotSplitGraphError):
            decide_maxcut_report(cycle_graph(5), 3)

    @settings(max_examples=40)
    @given(split_graphs(max_side=4))
    def test_agrees_with_oracle_for_every_threshold(self, g):
        want = brute_force_maxcut(g).size
        part = recognize_split(g)
        c = len(part.clique)
        for k in range(g.m + 2):
            report = decide_maxcut_report(g, k)
            assert report.answer == (want >= k)
            if 4 * k <= c * c:
                assert report.early_yes
                assert report.subsets_enumerated == 0
            else:
                assert not report.early_yes
