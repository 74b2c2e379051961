"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines. Each criterion states its own sample sizes and time budget;
failures carry the measured numbers.
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

from splitcut import (
    Cut,
    Graph,
    brute_force_maxcut,
    brute_force_split_check,
    build_split_instance,
    clique_prefix_partition,
    cut_size,
    decide_maxcut_report,
    generate_split,
    greedy_extend_is,
    maxcut_given_clique,
    maxcut_given_is,
    maxcut_split,
    maxcut_via_reduction,
    recognize_split,
    verify_partition,
)
from splitcut.generate import balanced_bench_instance, bench_rows

from .conftest import random_graph


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_fixed_instance_fidelity(
    k5_fan_split_graph, pentagon_chord_graph
):
    start = time.perf_counter()
    split_size = maxcut_split(k5_fan_split_graph).size
    general_size = maxcut_via_reduction(pentagon_chord_graph).size
    rmap = build_split_instance(pentagon_chord_graph)
    image_size = maxcut_split(rmap.image).size
    elapsed = time.perf_counter() - start
    ok = (
        split_size == 14
        and general_size == 5
        and image_size == 13 == general_size + 2 * rmap.nonedge_count
        and elapsed < 1.0
    )
    _verdict(
        "criterion 1 (fixed-instance fidelity)",
        ok,
        f"split=14?{split_size} general=5?{general_size} "
        f"image=13?{image_size} in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    shapes = [(1, 12), (2, 11), (3, 10), (4, 9), (5, 7), (6, 6), (7, 5),
              (9, 4), (10, 3), (11, 2), (12, 1), (13, 1), (1, 13), (7, 7)]
    probs = [0.2, 0.5, 0.8]
    checked = 0
    for i in range(504):
        clique_size, is_size = shapes[i % len(shapes)]
        prob = probs[i % len(probs)]
        g = generate_split(clique_size, is_size, prob, seed=1000 + i)
        assert g.n <= 14
        want = brute_force_maxcut(g).size
        part = recognize_split(g)
        got_split = maxcut_split(g).size
        got_is = maxcut_given_is(g, part.independent).size
        got_clique = maxcut_given_clique(g, part.clique).size
        if not (want == got_split == got_is == got_clique):
            _verdict(
                "criterion 2 (oracle equivalence)",
                False,
                f"instance {i}: oracle={want} split={got_split} "
                f"alg1={got_is} alg2={got_clique}",
            )
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2 (oracle equivalence)",
        checked >= 500 and elapsed < 60.0,
        f"{checked} instances, all four sizes equal, in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_inner_step_optimality():
    rng = random.Random(31)
    greedy_checked = 0
    prefix_checked = 0
    for i in range(200):
        clique_size = rng.randint(0, 10)
        is_size = rng.randint(0, 10)
        g = generate_split(clique_size, is_size, rng.choice([0.3, 0.5, 0.8]), seed=i)
        part = recognize_split(g)
        cverts = sorted(part.clique)
        ind = sorted(part.independent)

        for _ in range(2):
            c1 = frozenset(v for v in cverts if rng.random() < 0.5)
            c2 = frozenset(cverts) - c1
            i1, i2 = greedy_extend_is(g, ind, c1, c2)
            achieved = cut_size(g, Cut(c1 | i1, c2 | i2))
            best = max(
                cut_size(
                    g,
                    Cut(
                        c1 | frozenset(itertools.compress(ind, bits)),
                        c2 | (frozenset(ind) - frozenset(itertools.compress(ind, bits))),
                    ),
                )
                for bits in itertools.product([0, 1], repeat=len(ind))
            )
            if achieved != best:
                _verdict(
                    "criterion 3 (inner-step optimality)",
                    False,
                    f"greedy placement {achieved} < exhaustive {best} on instance {i}",
                )
            greedy_checked += 1

        i1 = frozenset(v for v in ind if rng.random() < 0.5)
        i2 = frozenset(ind) - i1
        for m in range(len(cverts) + 1):
            c1, c2 = clique_prefix_partition(g, cverts, i1, i2, m)
            achieved = cut_size(g, Cut(c1 | i1, c2 | i2))
            best = max(
                cut_size(
                    g,
                    Cut(
                        frozenset(combo) | i1,
                        (frozenset(cverts) - frozenset(combo)) | i2,
                    ),
                )
                for combo in itertools.combinations(cverts, m)
            )
            if achieved != best:
                _verdict(
                    "criterion 3 (inner-step optimality)",
                    False,
                    f"prefix m={m} gives {achieved} < exhaustive {best} on instance {i}",
                )
            prefix_checked += 1
    _verdict(
        "criterion 3 (inner-step optimality)",
        greedy_checked >= 400 and prefix_checked >= 200,
        f"{greedy_checked} greedy placements and {prefix_checked} prefix "
        "choices match exhaustive search",
    )


def test_criterion_4_reduction_identity():
    start = time.perf_counter()
    rng = random.Random(47)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        n = rng.randint(1, 9)
        g = random_graph(n, rng.choice([0.4, 0.6, 0.8]), seed=attempts)
        rmap = build_split_instance(g)
        if rmap.image.n > 18:
            continue
        want = brute_force_maxcut(g).size
        image_size = brute_force_maxcut(rmap.image).size
        via = maxcut_via_reduction(g)
        ok = (
            image_size == want + 2 * rmap.nonedge_count
            and via.size == want
            and cut_size(g, via.cut) == want
        )
        if not ok:
            _verdict(
                "criterion 4 (reduction identity)",
                False,
                f"n={n} oracle={want} image_oracle={image_size} "
                f"nonedges={rmap.nonedge_count} via={via.size}",
            )
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 4 (reduction identity)",
        checked >= 200 and elapsed < 60.0,
        f"{checked} graphs, both identities exact, in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_decision_soundness():
    rng = random.Random(59)
    instances = 0
    thresholds = 0
    early = 0
    for i in range(200):
        clique_size = rng.randint(0, 7)
        is_size = rng.randint(0, 7)
        g = generate_split(clique_size, is_size, rng.choice([0.2, 0.5, 0.8]), seed=i)
        assert g.n <= 14
        want = brute_force_maxcut(g).size
        part = recognize_split(g)
        c = len(part.clique)
        for k in range(g.m + 1):
            report = decide_maxcut_report(g, k)
            sound = report.answer == (want >= k)
            if 4 * k <= c * c:
                sound = sound and report.early_yes and report.subsets_enumerated == 0
                early += 1
            if not sound:
                _verdict(
                    "criterion 5 (decision soundness)",
                    False,
                    f"instance {i} k={k}: answer={report.answer} oracle max={want} "
                    f"early={report.early_yes} subsets={report.subsets_enumerated}",
                )
            thresholds += 1
        instances += 1
    _verdict(
        "criterion 5 (decision soundness)",
        instances >= 200,
        f"{instances} split graphs, {thresholds} thresholds "
        f"({early} early-yes with zero subsets) all agree with the oracle",
    )


def test_criterion_6_work_bound():
    start = time.perf_counter()
    rows = bench_rows(8, 20, prob=0.5, seed=1)
    elapsed = time.perf_counter() - start
    exact = all(
        subsets == 2**t and n == 2 * t for t, n, subsets, size, millis in rows
    )
    _verdict(
        "criterion 6 (work bound, subsets = 2^(n/2))",
        exact and len(rows) == 13 and elapsed < 120.0,
        f"t=8..20 all rows have subsets exactly 2^t, in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_7_recognition_correctness():
    checked = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(
                n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            )
            part = recognize_split(g)
            if (part is not None) != brute_force_split_check(g):
                _verdict(
                    "criterion 7 (recognition correctness)",
                    False,
                    f"disagreement on n={n} edge set {g.edges()}",
                )
            if part is not None and not verify_partition(g, part):
                _verdict(
                    "criterion 7 (recognition correctness)",
                    False,
                    f"invalid partition on n={n} edge set {g.edges()}",
                )
            checked += 1
    sampled = 0
    rng = random.Random(71)
    for n in (6, 7):
        for i in range(10_000):
            g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), seed=i * 2 + n)
            part = recognize_split(g)
            if (part is not None) != brute_force_split_check(g):
                _verdict(
                    "criterion 7 (recognition correctness)",
                    False,
                    f"disagreement on n={n} edge set {g.edges()}",
                )
            if part is not None and not verify_partition(g, part):
                _verdict(
                    "criterion 7 (recognition correctness)",
                    False,
                    f"invalid partition on n={n} edge set {g.edges()}",
                )
            sampled += 1
    _verdict(
        "criterion 7 (recognition correctness)",
        checked == 1 + 1 + 2 + 8 + 64 + 1024 and sampled == 20_000,
        f"exhaustive n<=5 ({checked} graphs) plus {sampled} random graphs "
        "at n=6,7 all agree with the exhaustive checker",
    )


def _solve_peak(g: Graph):
    """A solve of ``g`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    report = maxcut_split(g)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return report, peak


def test_criterion_8_polynomial_space():
    # Build the instances and warm the solver before tracing, so the
    # measurement sees only per-solve allocations. The t=22 instance is
    # solved by alg1; the |C| = 60, |I| = 16 one dispatches to alg2,
    # whose chunks hold (rows, |C|) per-vertex counts and sorted losses.
    g1 = balanced_bench_instance(22, prob=0.5, seed=1)
    g2 = generate_split(60, 16, 0.5, 3)
    maxcut_split(balanced_bench_instance(10, prob=0.5, seed=1))
    rep1, peak1 = _solve_peak(g1)
    rep2, peak2 = _solve_peak(g2)
    budget = 4 * 1024 * 1024
    ok = (
        rep1.subsets_enumerated == 2**22
        and rep2.algorithm == "alg2"
        and rep2.subsets_enumerated == 2**16
        and max(peak1, peak2) < budget
    )
    _verdict(
        "criterion 8 (polynomial space)",
        ok,
        f"t=22 alg1 solve walked {rep1.subsets_enumerated} subsets with peak "
        f"{peak1 / 1024:.0f} KiB; |C|=60 |I|=16 {rep2.algorithm} solve walked "
        f"{rep2.subsets_enumerated} subsets with peak {peak2 / 1024:.0f} KiB "
        f"(budget {budget // 1024} KiB; a 2^22-entry table would not fit)",
    )
