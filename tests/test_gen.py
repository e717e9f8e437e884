import itertools
import random
import tracemalloc

import pytest

from maxsat import (GeneratorSpec, brute_force_maxcut, brute_force_optimum,
                    encode_3coloring, encode_maxcut, gen_from_spec,
                    gen_random_connected_graph, gen_random_kcolorable_graph,
                    gen_random_maxksat, solve, write_cnf)
from maxsat.gen import GraphInstance, _connected


def test_ksat_empty():
    f = gen_random_maxksat(5, 0, 2, 1)
    assert f.clause_count() == 0 and f.num_vars == 5


def test_ksat_shape():
    f = gen_random_maxksat(10, 40, 3, 9)
    assert f.clause_count() == 40
    for c in f.clauses():
        assert c.size == 3
        assert len({abs(lit) for lit in c.active()}) == 3


def test_ksat_duplicates_appear_by_pigeonhole():
    # only 12 distinct clauses exist over 2 variables at length 2
    f = gen_random_maxksat(2, 40, 2, 3)
    assert any(count > 1 for count in f.as_multiset().values())


def test_ksat_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_random_maxksat(2, 5, 3, 0)
    with pytest.raises(ValueError):
        gen_random_maxksat(3, -1, 2, 0)


def test_ksat_golden_optimum():
    # frozen oracle value for this seed
    f = gen_random_maxksat(15, 90, 2, 7)
    assert brute_force_optimum(f)[0] == 9
    assert solve(f).optimum == 9


def test_determinism_byte_identical():
    spec = GeneratorSpec("ksat", seed=21, n=12, m=50, k=2)
    assert write_cnf(gen_from_spec(spec)) == write_cnf(gen_from_spec(spec))
    spec = GeneratorSpec("maxcut", seed=4, vertices=8, edges=14)
    assert write_cnf(gen_from_spec(spec)) == write_cnf(gen_from_spec(spec))
    spec = GeneratorSpec("color3", seed=5, vertices=7, density=0.5)
    assert write_cnf(gen_from_spec(spec)) == write_cnf(gen_from_spec(spec))


def test_connected_graph_trivial_cases():
    g = gen_random_connected_graph(2, 1, 0)
    assert g.edges == [(1, 2)]
    g = gen_random_connected_graph(4, 3, 11)
    assert len(g.edges) == 3 and _connected(4, g.edges)


def list_drawn_connected_graph(v, m, seed):
    """Reference: the earlier draw, from the list of every vertex pair."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)]
    while True:
        edges = rng.sample(pairs, m)
        if _connected(v, edges):
            return GraphInstance(v, sorted(edges))


def test_connected_graph_matches_the_list_draw():
    # sampling positions from a range draws what sampling the list did
    for v, m in ((1, 0), (2, 1), (5, 4), (12, 30), (40, 200), (60, 120),
                 (9, 36)):
        for seed in range(30):
            assert gen_random_connected_graph(v, m, seed) == \
                list_drawn_connected_graph(v, m, seed), (v, m, seed)


def test_connected_graph_builds_no_pair_list():
    # drawn from a list of all 79,800 vertex pairs, the peak was 6.8 MB
    tracemalloc.start()
    try:
        g = gen_random_connected_graph(400, 2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 2000 and _connected(400, g.edges)
    assert peak < 2_000_000, peak


def test_connected_graph_rejects_infeasible():
    with pytest.raises(ValueError):
        gen_random_connected_graph(4, 2, 0)
    with pytest.raises(ValueError):
        gen_random_connected_graph(3, 4, 0)


def test_connected_graph_always_connected():
    for seed in range(200):
        g = gen_random_connected_graph(7, 8, seed)
        assert _connected(g.vertex_count, g.edges)
        assert len(set(g.edges)) == len(g.edges)


def test_maxcut_encoding_shape():
    g = gen_random_connected_graph(6, 9, 2)
    f = encode_maxcut(g)
    assert f.clause_count() == 2 * len(g.edges)
    assert f.num_vars == 6


def test_maxcut_triangle_correspondence():
    triangle = GraphInstance(3, [(1, 2), (2, 3), (1, 3)])
    f = encode_maxcut(triangle)
    assert f.clause_count() == 6
    assert brute_force_optimum(f)[0] == 1  # m - maxcut = 3 - 2


def test_maxcut_single_edge_and_empty():
    f = encode_maxcut(GraphInstance(2, [(1, 2)]))
    assert brute_force_optimum(f)[0] == 0
    assert encode_maxcut(GraphInstance(3, [])).clause_count() == 0


def test_maxcut_correspondence_random():
    for seed in range(15):
        g = gen_random_connected_graph(6, 9, 100 + seed)
        expected = len(g.edges) - brute_force_maxcut(g)
        assert brute_force_optimum(encode_maxcut(g))[0] == expected


def test_coloring_encoding_counts():
    g = gen_random_kcolorable_graph(7, 0.6, 1)
    f = encode_3coloring(g)
    assert f.num_vars == 21
    assert f.clause_count() == 4 * 7 + 3 * len(g.edges)


def test_coloring_k3_and_k4():
    k3 = GraphInstance(3, [(1, 2), (2, 3), (1, 3)])
    assert brute_force_optimum(encode_3coloring(k3))[0] == 0
    k4 = GraphInstance(4, list(itertools.combinations(range(1, 5), 2)))
    assert brute_force_optimum(encode_3coloring(k4))[0] >= 1


def test_coloring_single_vertex():
    f = encode_3coloring(GraphInstance(1, []))
    assert f.clause_count() == 4
    assert brute_force_optimum(f)[0] == 0


def test_kcolorable_graph_density_extremes():
    g = gen_random_kcolorable_graph(6, 1.0, 0)
    # complete tripartite on balanced classes of two
    assert len(g.edges) == 12
    assert all((a - 1) % 3 != (b - 1) % 3 for a, b in g.edges)
    assert gen_random_kcolorable_graph(6, 0.0, 0).edges == []


def test_kcolorable_encoding_always_satisfiable():
    for seed in range(10):
        g = gen_random_kcolorable_graph(5, 0.7, seed)
        assert brute_force_optimum(encode_3coloring(g))[0] == 0


def test_balanced_classes_differ_by_at_most_one():
    g = gen_random_kcolorable_graph(7, 1.0, 0)
    sizes = [len([v for v in range(1, 8) if (v - 1) % 3 == c]) for c in range(3)]
    assert max(sizes) - min(sizes) <= 1
