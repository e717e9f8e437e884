"""Brute-force reference implementations.

Exhaustive optimum computation and assignment-wise equivalence checking.
Assignment space is enumerated with vectorized numpy sweeps; assignment i
encodes variable v as bit v-1 of i. Results are independent of the solver
code paths and serve as the verification oracle throughout the test suite.
numpy is imported inside the functions that use it, so `import maxsat`
does not load it.
"""

from __future__ import annotations

from .formula import Formula

DEFAULT_CAP = 22


class OracleCapExceeded(ValueError):
    pass


def _cost_vector(formula: Formula) -> np.ndarray:
    """Weight of unsatisfied clauses for every complete assignment.

    Mandatory weights saturate: any total at or above the TOP threshold
    is clamped to it, mirroring the infinity arithmetic TOP + w = TOP.
    The sums are ``int64`` while the total weight (the empty weight plus
    every clause) stays below 2^62, and exact Python integers otherwise,
    so no weight can overflow them.
    """
    import numpy as np
    n = formula.num_vars
    size = 1 << n
    total = formula.empty_weight + sum(c.weight for c in formula.clauses())
    exact = total >= 1 << 62
    # truth value of variable v across all assignments
    idx = np.arange(size, dtype=np.uint64)
    cost = np.full(size, formula.empty_weight,
                   dtype=object if exact else np.int64)
    for c in formula.clauses():
        falsified = np.ones(size, dtype=bool)
        for lit in c.active():
            bit = (idx >> np.uint64(abs(lit) - 1)) & np.uint64(1)
            if lit > 0:
                falsified &= bit == 0
            else:
                falsified &= bit == 1
        cost[falsified] += c.weight
    # no entry exceeds the total, so a TOP at or above it clamps nothing
    if formula.top is not None and formula.top < total:
        cost[cost > formula.top] = formula.top
    return cost


def _assignment_from_index(i: int, n: int) -> dict[int, bool]:
    return {v: bool((i >> (v - 1)) & 1) for v in range(1, n + 1)}


def brute_force_optimum(formula: Formula, cap: int = DEFAULT_CAP):
    """Minimum total weight of unsatisfied clauses, with a witness assignment.

    Enumerates all 2^n complete assignments; refuses formulas beyond the
    variable cap rather than running silently for hours.
    """
    n = formula.num_vars
    if n > cap:
        raise OracleCapExceeded(f"{n} variables exceeds enumeration cap {cap}")
    cost = _cost_vector(formula)
    best = int(cost.argmin())
    return int(cost[best]), _assignment_from_index(best, n)


def check_equivalence(f1: Formula, f2: Formula, cap: int = DEFAULT_CAP):
    """None if the formulas unsatisfy equal weight under every complete
    assignment; otherwise a counterexample assignment."""
    if f1.num_vars != f2.num_vars:
        raise ValueError("formulas range over different variable sets")
    if f1.num_vars > cap:
        raise OracleCapExceeded(f"{f1.num_vars} variables exceeds cap {cap}")
    c1 = _cost_vector(f1)
    c2 = _cost_vector(f2)
    diff = (c1 != c2).nonzero()[0]
    if diff.size == 0:
        return None
    return _assignment_from_index(int(diff[0]), f1.num_vars)


def brute_force_maxcut(graph, cap: int = 20) -> int:
    """Maximum cut weight over all bipartitions of an undirected graph."""
    v = graph.vertex_count
    if v > cap:
        raise OracleCapExceeded(f"{v} vertices exceeds enumeration cap {cap}")
    import numpy as np
    size = 1 << v
    idx = np.arange(size, dtype=np.uint64)
    cut = np.zeros(size, dtype=np.int64)
    for (a, b) in graph.edges:
        sa = (idx >> np.uint64(a - 1)) & np.uint64(1)
        sb = (idx >> np.uint64(b - 1)) & np.uint64(1)
        cut += (sa != sb)
    return int(cut.max()) if size else 0
