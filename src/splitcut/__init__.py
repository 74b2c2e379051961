"""Exact maximum-cut solving for split graphs.

The engine enumerates bipartitions of whichever side of the split
partition is smaller, so a split graph on n vertices costs at most
2^(n/2) subset evaluations. Arbitrary graphs are handled through a
reduction that completes the vertex set into a clique and pads each
added edge with a degree-2 vertex.
"""

from .dimacs import ParseError, format_instance, parse_instance
from .generate import generate_split
from .graph import Cut, Graph, cut_size
from .oracle import (
    InstanceTooLargeError,
    brute_force_decision,
    brute_force_maxcut,
    brute_force_split_check,
)
from .recognition import NotSplitGraphError, SplitPartition, recognize_split, verify_partition
from .reduction import ReductionMap, build_split_instance, lift_cut, maxcut_via_reduction
from .solver import (
    CutReport,
    DecisionReport,
    clique_prefix_partition,
    decide_maxcut_report,
    greedy_extend_is,
    maxcut_given_clique,
    maxcut_given_is,
    maxcut_split,
)

__all__ = [
    "Cut",
    "CutReport",
    "DecisionReport",
    "Graph",
    "InstanceTooLargeError",
    "NotSplitGraphError",
    "ParseError",
    "ReductionMap",
    "SplitPartition",
    "brute_force_decision",
    "brute_force_maxcut",
    "brute_force_split_check",
    "build_split_instance",
    "clique_prefix_partition",
    "cut_size",
    "decide_maxcut_report",
    "format_instance",
    "generate_split",
    "greedy_extend_is",
    "lift_cut",
    "maxcut_given_clique",
    "maxcut_given_is",
    "maxcut_split",
    "maxcut_via_reduction",
    "parse_instance",
    "recognize_split",
    "verify_partition",
]
