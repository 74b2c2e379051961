"""Reproducible random split-graph instances.

The generator is deterministic in its arguments: vertices 0..K-1 form a
complete clique, vertices K..K+M-1 an independent set, and each
clique-to-independent pair is made an edge with the given probability.
Draws come from ``random.Random(seed)`` in row-major order (all
candidates of clique vertex 0 first, then clique vertex 1, and so on),
so a (seed, sizes, probability) tuple always names the same graph.
"""

from __future__ import annotations

import random
import time

from .graph import Graph, connected_components
from .recognition import recognize_split
from .solver import maxcut_split


def generate_split(clique_size: int, is_size: int, edge_prob: float, seed: int) -> Graph:
    """A random split graph on clique_size + is_size vertices."""
    if clique_size < 0 or is_size < 0:
        raise ValueError("sizes must be nonnegative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(clique_size) for v in range(u + 1, clique_size)
    ]
    for u in range(clique_size):
        for v in range(clique_size, clique_size + is_size):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return Graph.from_edges(clique_size + is_size, edges)


def balanced_bench_instance(t: int, prob: float, seed: int) -> Graph:
    """A connected split graph whose solve enumerates exactly 2^t subsets.

    A raw draw can leave an independent vertex isolated, or can admit a
    partition with a larger clique that recognition prefers; either way
    the enumerated side would shrink below t. Such draws are discarded
    and redrawn deterministically.
    """
    if t < 2:
        raise ValueError("balanced instances need t >= 2")
    for attempt in range(1000):
        g = generate_split(t, t, prob, seed + 7919 * t + attempt)
        if len(connected_components(g)) != 1:
            continue
        part = recognize_split(g)
        if part is not None and min(len(part.clique), len(part.independent)) == t:
            return g
    raise ValueError(f"no balanced instance found for t={t} at prob={prob}")


def bench_rows(
    min_t: int, max_t: int, prob: float, seed: int
) -> list[tuple[int, int, int, int, float]]:
    """One (t, n, subsets, size, millis) row per t in min_t..max_t."""
    if min_t < 2 or max_t < min_t:
        raise ValueError("need 2 <= min_t <= max_t")
    rows = []
    for t in range(min_t, max_t + 1):
        g = balanced_bench_instance(t, prob, seed)
        start = time.perf_counter()
        rep = maxcut_split(g)
        millis = (time.perf_counter() - start) * 1000.0
        rows.append((t, g.n, rep.subsets_enumerated, rep.size, millis))
    return rows
