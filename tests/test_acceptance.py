"""Acceptance suite: every criterion runs at full scale and prints one
pass/fail line. Shared corpora are built once per session.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import math
import os
import random
import statistics

import pytest

from maxsat import (Formula, SolverConfig, brute_force_maxcut,
                    brute_force_optimum, check_equivalence, encode_3coloring,
                    encode_maxcut, gen_random_connected_graph,
                    gen_random_kcolorable_graph, gen_random_maxksat, solve,
                    underestimation)
from maxsat.cli import main as cli_main
from maxsat.solver import SearchStats

from formulas import THREE_DISJOINT, CHAIN_THEN_SECOND, FORK_THEN_SECOND, ORDER_HIDES_PAIR, build, random_clauses
from schema_helpers import instantiate

VARIANTS = ("0", "12", "1234", "z")
CONFIGS = {name: SolverConfig.variant(name) for name in VARIANTS}
JOBS = max(1, os.cpu_count() or 1)


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------- corpora (built once) ----------

@pytest.fixture(scope="module")
def corpus_results():
    """Criterion 3/4 corpus: per instance the oracle optimum and the
    optimum/status from all four solver variants."""
    instances = []
    for i in range(100):
        instances.append((f"2sat-60-{i}", gen_random_maxksat(15, 60, 2, 10_000 + i)))
        instances.append((f"2sat-120-{i}", gen_random_maxksat(15, 120, 2, 20_000 + i)))
        instances.append((f"3sat-60-{i}", gen_random_maxksat(15, 60, 3, 30_000 + i)))
        instances.append((f"3sat-90-{i}", gen_random_maxksat(15, 90, 3, 40_000 + i)))
    rng = random.Random(555)
    for i in range(50):
        v = rng.randint(6, 12)
        e = rng.randint(v - 1, v * (v - 1) // 2)
        g = gen_random_connected_graph(v, e, 50_000 + i)
        instances.append((f"maxcut-{i}", encode_maxcut(g)))
    for i in range(50):
        v = rng.randint(3, 5)
        g = gen_random_kcolorable_graph(v, rng.uniform(0.3, 0.9), 60_000 + i)
        instances.append((f"color3-{i}", encode_3coloring(g)))
    results = []
    for name, formula in instances:
        expected = brute_force_optimum(formula)[0]
        per_variant = {}
        for variant in VARIANTS:
            res = solve(formula.copy(), CONFIGS[variant])
            per_variant[variant] = (res.optimum, res.status)
        results.append((name, expected, per_variant))
    return results


@pytest.fixture(scope="module")
def trend_csvs(tmp_path_factory):
    """Criterion 7/8 harness: the 50-instance n=25/m=500 corpus through the
    bench CLI, twice, with identical seeds."""
    tmp = tmp_path_factory.mktemp("bench")
    manifest = tmp / "manifest.txt"
    manifest.write_text("".join(
        f"gen ksat n=25 m=500 k=2 seed={seed}\n" for seed in range(1, 51)))
    paths = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp / name
        rc = cli_main(["bench", str(manifest), "--variants", "12,1234,z",
                       "--out", str(out), "--jobs", str(JOBS)])
        assert rc == 0
        paths.append(out)
    return paths


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------- criteria ----------

def test_criterion_1_rule_soundness():
    """Rules 1-6 plus the weighted linear rules: 500 random embeddings each,
    equivalence must hold in every single case."""
    rng = random.Random(1)
    checked = failures = 0
    suites = [(r, False) for r in ("r1", "r2", "r3", "r4", "r5", "r6")]
    suites += [("r3", True), ("r4", True)]  # the weighted rule statements
    for rule_id, weighted in suites:
        for _ in range(500):
            original, transformed = instantiate(rule_id, rng, rng.randint(4, 12),
                                                weighted=weighted)
            checked += 1
            if check_equivalence(original, transformed) is not None:
                failures += 1
    report(1, failures == 0,
           f"{checked} schema instantiations, {failures} equivalence failures")


def test_criterion_2_worked_examples():
    failures = []
    f = build(5, THREE_DISJOINT)
    if underestimation(f, math.inf, None) != 3:
        failures.append("underestimation example")

    def lower_bound(clauses, n, variant):
        f = build(n, clauses)
        u = underestimation(f, math.inf, CONFIGS[variant])
        return f.empty_weight + u

    if lower_bound(CHAIN_THEN_SECOND, 4, "1234") != 2:
        failures.append("linear-rule example with rules 3-4")
    if lower_bound(CHAIN_THEN_SECOND, 4, "12") != 1:
        failures.append("linear-rule example without rules 3-4")
    if lower_bound(FORK_THEN_SECOND, 4, "z") != 2:
        failures.append("forked-rule example with rule 5")
    if lower_bound(FORK_THEN_SECOND, 4, "1234") != 1:
        failures.append("forked-rule example without rule 5")
    f = build(4, ORDER_HIDES_PAIR)
    stats = SearchStats()
    u = underestimation(f, math.inf, CONFIGS["z"], stats=stats)
    if u != 1 or any(stats.rule_apps.values()) \
            or f.as_multiset() != build(4, ORDER_HIDES_PAIR).as_multiset():
        failures.append("pinned incompleteness example")
    report(2, not failures, f"worked examples exact; failures: {failures or 'none'}")


def test_criterion_3_oracle_agreement(corpus_results):
    bad = [name for name, expected, per_variant in corpus_results
           if per_variant["z"] != (expected, "optimal")]
    report(3, not bad,
           f"{len(corpus_results)} instances solved at variant z against the "
           f"oracle; mismatches: {bad or 'none'}")


def test_criterion_4_variant_agreement(corpus_results):
    bad = [name for name, expected, per_variant in corpus_results
           if len({per_variant[v] for v in VARIANTS}) != 1]
    report(4, not bad,
           f"all four variants agree on {len(corpus_results)} instances; "
           f"mismatches: {bad or 'none'}")


def test_criterion_5_lower_bound_admissibility():
    rng = random.Random(99)
    bad = 0
    for i in range(500):
        n = rng.randint(3, 10)
        f0 = build(n, random_clauses(rng, n, rng.randint(3, 4 * n)))
        optimum = brute_force_optimum(f0)[0]
        for variant in VARIANTS:
            f = f0.copy()
            u = underestimation(f, math.inf, CONFIGS[variant])
            if f.empty_weight + u > optimum:
                bad += 1
    report(5, bad == 0,
           f"500 random formulas x 4 variants, root lower bound inadmissible "
           f"in {bad} cases")


def test_criterion_6_maxcut_correspondence():
    rng = random.Random(4242)
    bad = 0
    for i in range(100):
        v = rng.randint(2, 6)
        e = rng.randint(v - 1, v * (v - 1) // 2)
        g = gen_random_connected_graph(v, e, 70_000 + i)
        expected = len(g.edges) - brute_force_maxcut(g)
        if solve(encode_maxcut(g)).optimum != expected:
            bad += 1
    report(6, bad == 0,
           f"100 random connected graphs, optimum = edges - maxcut failed "
           f"{bad} times")


def test_criterion_7_branch_count_trend(trend_csvs):
    rows = read_rows(trend_csvs[0])
    assert all(row["status"] == "optimal" for row in rows)
    branches = {v: [] for v in ("12", "1234", "z")}
    for row in rows:
        branches[row["variant"]].append(int(row["branches"]))
    medians = {v: statistics.median(b) for v, b in branches.items()}
    ok = medians["z"] < medians["1234"] < medians["12"]
    report(7, ok,
           f"median branches over 50 instances (n=25, m=500): "
           f"z={medians['z']} < 1234={medians['1234']} < 12={medians['12']}: {ok}")


def test_criterion_8_harness_determinism(trend_csvs):
    key_cols = ("instance", "variant", "optimum", "branches")
    runs = [[tuple(row[c] for c in key_cols) for row in read_rows(path)]
            for path in trend_csvs]
    ok = runs[0] == runs[1]
    report(8, ok, "identical optimum and branch columns across harness reruns")


def test_criterion_9_rule_application_termination(corpus_results, trend_csvs):
    # every rule firing in all runs above passed the strict-decrease audit,
    # which raises on a non-shrinking application; one more instrumented
    # run checks that audited firings happen at all
    f = gen_random_maxksat(20, 300, 2, 77)
    res = solve(f, CONFIGS["z"])
    applications = sum(res.stats.rule_apps.values())
    ok = applications > 0
    report(9, ok,
           f"{applications} audited rule applications in the instrumented "
           f"run, none failed the size-decrease audit")
