"""Rebuild tests/data/golden_reports.json, the bit-for-bit report corpus.

The corpus pins every field the README determinism contract fixes:
for each cut report the algorithm tag, the size, subsets_enumerated and
side 1 as a vertex bitmask; for each decision report the answer,
early_yes, clique_size and subsets_enumerated. tests/test_golden_reports.py
rebuilds every report and compares it with the file.

Run this only when a change of that contract is intended (a new witness
rule, tag or subset count), never to make a failing comparison pass:

    PYTHONPATH=src python tests/make_golden_reports.py

and say in CHANGES.md why the file was regenerated. No size may move.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from splitcut import (
    Graph,
    decide_maxcut_report,
    generate_split,
    maxcut_given_clique,
    maxcut_given_is,
    maxcut_split,
    maxcut_via_reduction,
    recognize_split,
)
from splitcut.graph import mask_of

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

# Sides 0..14 cross the 2^14-counter alg1 chunk and several alg2 chunks.
MAX_SIDE = 14
MAX_REDUCTION_N = 9
REDUCTION_SEEDS = 30
# Wider instances whose scans span many chunks: (|C|, |I|, seed) at p = 0.5.
WIDE = [(16, 16, 8), (40, 14, 11), (60, 16, 3)]


def _cut(rep) -> list:
    return [rep.algorithm, rep.size, rep.subsets_enumerated, mask_of(rep.cut.side1)]


def _decision(rep) -> list:
    return [rep.answer, rep.early_yes, rep.clique_size, rep.subsets_enumerated]


def _split_reports(g: Graph) -> dict:
    part = recognize_split(g)
    auto = maxcut_split(g)
    opt = auto.size
    return {
        "auto": _cut(auto),
        "alg1": _cut(maxcut_split(g, algorithm="alg1")),
        "alg2": _cut(maxcut_split(g, algorithm="alg2")),
        "is": _cut(maxcut_given_is(g, part.independent)),
        "clique": _cut(maxcut_given_clique(g, part.clique)),
        "decide": {
            str(k): _decision(decide_maxcut_report(g, k))
            for k in sorted({0, opt - 1, opt, opt + 1})
            if k >= 0
        },
    }


def _random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
    )


def build_reports() -> dict:
    """Every pinned report, keyed by instance, in a JSON-ready form."""
    split = {}
    for c in range(MAX_SIDE + 1):
        for i in range(MAX_SIDE + 1):
            seed = 100 * c + i
            g = generate_split(c, i, [0.3, 0.5, 0.7][seed % 3], seed)
            split[f"c{c}-i{i}-s{seed}"] = _split_reports(g)
    reduction = {}
    for n in range(MAX_REDUCTION_N + 1):
        for seed in range(REDUCTION_SEEDS):
            g = _random_graph(n, [0.2, 0.4, 0.6][seed % 3], 1000 * n + seed)
            reduction[f"n{n}-s{seed}"] = _cut(maxcut_via_reduction(g))
    wide = {}
    for c, i, seed in WIDE:
        g = generate_split(c, i, 0.5, seed)
        # Forced alg1 walks 2^|C| subsets, so it is pinned on the narrow clique only.
        algorithms = ["auto", "alg1", "alg2"] if c <= 16 else ["auto", "alg2"]
        wide[f"c{c}-i{i}-s{seed}"] = {a: _cut(maxcut_split(g, algorithm=a)) for a in algorithms}
    return {"split": split, "wide": wide, "reduction": reduction}


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_reports(), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
