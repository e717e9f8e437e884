"""Seeded benchmark generators: random Max-kSAT, Max-Cut and graph
3-coloring encodings.

All randomness comes from a Mersenne Twister seeded per call, so every
generator is a pure function of its parameters: the same spec always
yields the same instance (and byte-identical DIMACS output).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formula import Formula

CONNECT_RETRY_LIMIT = 10 ** 6
FAMILIES = ("ksat", "maxcut", "color3")


@dataclass
class GraphInstance:
    """An undirected graph on vertices 1..vertex_count."""
    vertex_count: int
    edges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class GeneratorSpec:
    family: str  # one of FAMILIES
    seed: int = 0
    n: int = 0
    m: int = 0
    k: int = 0
    vertices: int = 0
    edges: int = 0
    density: float = 0.0


def gen_random_maxksat(n: int, m: int, k: int, seed: int) -> Formula:
    """m clauses of k distinct variables each, signs fair coin flips.

    Duplicate clauses across the formula are allowed (multiset semantics).
    """
    if k > n:
        raise ValueError(f"clause length {k} exceeds variable count {n}")
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    rng = random.Random(seed)
    variables = range(1, n + 1)
    clauses = [[v if rng.getrandbits(1) else -v for v in rng.sample(variables, k)]
               for _ in range(m)]
    return Formula.from_clauses(n, clauses)


def _connected(vertex_count: int, edges) -> bool:
    adj = {v: [] for v in range(1, vertex_count + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertex_count


def gen_random_connected_graph(v: int, m: int, seed: int) -> GraphInstance:
    """m edges sampled uniformly without replacement; disconnected draws
    are discarded and resampled from the same stream."""
    if v < 1:
        raise ValueError("need at least one vertex")
    max_edges = v * (v - 1) // 2
    if m < v - 1 or m > max_edges:
        raise ValueError(f"edge count {m} infeasible for a connected graph on {v} vertices")
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)]
    for _ in range(CONNECT_RETRY_LIMIT):
        edges = rng.sample(pairs, m)
        if _connected(v, edges):
            return GraphInstance(v, sorted(edges))
    raise RuntimeError("no connected graph found within the retry limit")


def gen_random_kcolorable_graph(v: int, density: float, seed: int) -> GraphInstance:
    """IID random graph that is 3-colorable by construction: vertices are
    split into three balanced color classes and only cross-class pairs are
    drawn, each independently with the given probability."""
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    if v < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    edges = []
    for a in range(1, v + 1):
        for b in range(a + 1, v + 1):
            if (a - 1) % 3 != (b - 1) % 3 and rng.random() < density:
                edges.append((a, b))
    return GraphInstance(v, edges)


def encode_maxcut(graph: GraphInstance) -> Formula:
    """Two binary clauses per edge; a cut of weight k satisfies m + k
    clauses, so the Max-SAT optimum is m minus the maximum cut."""
    clauses = []
    for a, b in graph.edges:
        clauses += [[a, b], [-a, -b]]
    return Formula.from_clauses(graph.vertex_count, clauses)


def _color_var(vertex: int, color: int) -> int:
    return 3 * (vertex - 1) + color


def encode_3coloring(graph: GraphInstance) -> Formula:
    """Per vertex: one at-least-one-color ternary clause and the three
    at-most-one binaries; per edge: three clauses forbidding equal colors.
    3v variables, 4v + 3|E| clauses."""
    clauses = []
    for i in range(1, graph.vertex_count + 1):
        c1, c2, c3 = (_color_var(i, c) for c in (1, 2, 3))
        clauses += [[c1, c2, c3], [-c1, -c2], [-c1, -c3], [-c2, -c3]]
    for a, b in graph.edges:
        for c in (1, 2, 3):
            clauses.append([-_color_var(a, c), -_color_var(b, c)])
    return Formula.from_clauses(3 * graph.vertex_count, clauses)


def gen_from_spec(spec: GeneratorSpec) -> Formula:
    if spec.family == "ksat":
        return gen_random_maxksat(spec.n, spec.m, spec.k, spec.seed)
    if spec.family == "maxcut":
        graph = gen_random_connected_graph(spec.vertices, spec.edges, spec.seed)
        return encode_maxcut(graph)
    if spec.family == "color3":
        graph = gen_random_kcolorable_graph(spec.vertices, spec.density, spec.seed)
        return encode_3coloring(graph)
    raise ValueError(f"unknown generator family {spec.family!r}")
