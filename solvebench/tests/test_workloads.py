"""Workload inputs: the weighted generator, corpus draws and references."""

import pytest

import maxsat
from workloads import WORKLOADS, draw_corpus, gen_wpms, instance_text, load_reference


def test_wpms_generator_is_deterministic_per_seed():
    a = gen_wpms(20, 400, 24, 10, seed=5)
    b = gen_wpms(20, 400, 24, 10, seed=5)
    c = gen_wpms(20, 400, 24, 10, seed=6)
    assert a == b
    assert a[0] != c[0]


@pytest.mark.parametrize("seed", range(20))
def test_wpms_hard_part_is_satisfied_by_the_hidden_assignment(seed):
    text, hidden = gen_wpms(20, 400, 24, 10, seed=seed)
    formula = maxsat.parse_wcnf(text).formula
    soft = [c for c in formula.clauses() if not formula.is_top(c.weight)]
    hard = [c for c in formula.clauses() if formula.is_top(c.weight)]
    assert len(soft) == 400 and len(hard) == 24
    assert formula.top == sum(c.weight for c in soft) + 1
    assert all(1 <= c.weight <= 10 and c.size == 2 for c in soft)
    for c in hard:
        assert c.size == 3
        assert any((lit > 0) == hidden[abs(lit)] for lit in c.active())


def test_corpus_draw_takes_one_instance_per_stratum():
    reference = load_reference()
    for w in WORKLOADS.values():
        pool = reference[w.name]
        ranked = sorted(pool, key=lambda s: (pool[s][1], s))
        corpus = draw_corpus(w, 11, pool)
        assert corpus == draw_corpus(w, 11, pool)
        assert corpus != draw_corpus(w, 12, pool)
        assert len(corpus) == w.corpus_size
        for j, s in enumerate(corpus):
            assert s in ranked[j * w.stratum:(j + 1) * w.stratum]


def test_reference_pools_cover_every_workload():
    reference = load_reference()
    for w in WORKLOADS.values():
        assert sorted(reference[w.name]) == list(range(w.pool_size))


def test_max2sat_z_branches_match_the_bench_cli():
    from build_reference import bench_cli_branches
    w = WORKLOADS["max2sat-z"]
    pool = load_reference()["max2sat-z"]
    seeds = [0, 1, 2]
    cli = bench_cli_branches(w.params["n"], w.params["m"], w.params["k"], seeds)
    assert cli == {s: pool[s] for s in seeds}


def test_solve_check_rejects_a_wrong_optimum():
    from run import Bench
    bench = Bench(maxsat, WORKLOADS["wpms-z"], seed=0)
    bench.texts = bench.texts[:2]
    bench.multisets = [bench.parse(t).as_multiset() for t in bench.texts]
    optimum, branches = bench.expected[1]
    bench.expected[1] = (optimum + 1, branches)
    assert bench.solve_one(0) is not None
    assert bench.solve_one(1) is None
    assert bench.failures and "reference" in bench.failures[0]


def test_instance_text_is_what_the_generator_writes():
    w = WORKLOADS["max2sat-0"]
    p = w.params
    expected = maxsat.gen_random_maxksat(p["n"], p["m"], p["k"], 4)
    assert instance_text(w, 4) == maxsat.write_cnf(expected)
