"""Brute-force reference answers for small instances.

Everything here recomputes from the definition of a cut: walk every
bipartition, count every edge that crosses, keep the best. Nothing is
shared with the optimized engine beyond the Graph type, so agreement
between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import numpy as np

from .graph import Cut, Graph
from .solver import CutReport

ORACLE = "oracle"

_ORACLE_CHUNK = 1 << 16


class InstanceTooLargeError(ValueError):
    """The instance exceeds the oracle's exhaustive-search budget."""


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise InstanceTooLargeError(
            f"oracle refuses n={g.n} (cap {cap}); raise the cap explicitly if you mean it"
        )


def brute_force_maxcut(g: Graph, cap: int = 20) -> CutReport:
    """Exhaustive maximum cut over all 2^(n-1) bipartitions.

    Vertex 0 is pinned to side 1 (swapping sides never changes a cut),
    and assignment bit j-1 sends vertex j to side 2. The first
    assignment in counter order attaining the maximum wins.
    """
    _check_cap(g, cap)
    if g.n == 0:
        return CutReport(
            cut=Cut(side1=frozenset(), side2=frozenset()),
            size=0,
            algorithm=ORACLE,
            subsets_enumerated=1,
        )
    edges = g.edges()
    best = -1
    best_assignment = 0
    for lo in range(0, 1 << (g.n - 1), _ORACLE_CHUNK):
        hi = min(lo + _ORACLE_CHUNK, 1 << (g.n - 1))
        assignments = np.arange(lo, hi, dtype=np.uint64)
        crossing = np.zeros(hi - lo, dtype=np.int64)
        for u, v in edges:
            side_v = (assignments >> np.uint64(v - 1)) & np.uint64(1)
            if u == 0:
                crossing += side_v.astype(np.int64)
            else:
                side_u = (assignments >> np.uint64(u - 1)) & np.uint64(1)
                crossing += (side_u ^ side_v).astype(np.int64)
        chunk_best = int(crossing.max())
        if chunk_best > best:
            best = chunk_best
            best_assignment = lo + int(crossing.argmax())
    side2 = frozenset(v for v in range(1, g.n) if (best_assignment >> (v - 1)) & 1)
    return CutReport(
        cut=Cut(side1=frozenset(range(g.n)) - side2, side2=side2),
        size=best,
        algorithm=ORACLE,
        subsets_enumerated=1 << (g.n - 1),
    )


def brute_force_decision(g: Graph, k: int, cap: int = 20) -> bool:
    """True iff some bipartition cuts at least ``k`` edges."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return brute_force_maxcut(g, cap=cap).size >= k


def brute_force_split_check(g: Graph, cap: int = 20) -> bool:
    """True iff V splits into a clique and an independent set.

    Tries every subset of V as the clique candidate; deliberately
    ignorant of degree sequences and recognition shortcuts.
    """
    _check_cap(g, cap)
    masks = g.adj_mask
    for candidate in range(1 << g.n):
        rest = ((1 << g.n) - 1) ^ candidate
        ok = True
        for v in range(g.n):
            bit = 1 << v
            if candidate & bit:
                if masks[v] & candidate != candidate ^ bit:
                    ok = False
                    break
            elif masks[v] & rest:
                ok = False
                break
        if ok:
            return True
    return False
