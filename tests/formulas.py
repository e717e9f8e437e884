"""Worked formulas and helpers shared by the test modules (imported as
``from formulas import ...``; the ``rng`` fixture stays in conftest)."""

import os
import random
import subprocess
import sys
import textwrap

import maxsat
from maxsat import Formula

# Worked formulas used across the suite (clause order matters for the
# propagation pins, keep as listed).
THREE_DISJOINT = [[1], [2], [3], [4], [-1, -2, -3], [-4], [5], [-5, -2], [-5, 2]]
CHAIN_THEN_SECOND = [[1], [-1, -2], [3], [-3, 2], [4], [-1, -4], [-3, -4]]
FORK_THEN_SECOND = [[1], [-1, 2], [-1, 3], [-2, -3], [4], [1, -4], [-2, -4], [-3, -4]]
WIDE_GRAPH = [[1], [1], [-1, 2], [-1, 3], [-2, -3, 4],
       [5], [-5, 6], [-5, 7], [-6, -7, -4], [-5, 8]]
TWO_UNIT_CHAINS = [[1], [-1, 2], [-2, 3], [-3, 4], [5], [-5, 6], [-6, -4]]
SHARED_PREFIX_FORK = [[1], [-1, 2], [-2, 3], [-2, 4], [-3, -4]]
ORDER_HIDES_PAIR = [[1], [3], [4], [-1, -3, -4], [-1, -2], [2]]

UP_NOT_EQUIVALENT = [[1], [-1, 2], [-1, -2], [-1, 3], [-1, -3]]  # unit propagation motivator


def build(n, clauses, weights=None, top=None):
    return Formula.from_clauses(n, clauses, weights=weights, top=top)


def reference_resize(self, c, old: int, new: int) -> None:
    """The reference count update, once ``Formula._resize``: account for
    c's active length going from old to new literals, 0 standing for not
    counted (removed, or not added yet).

    ``lits[:old]`` leave the old size bucket and ``lits[:new]`` enter
    the new one, each literal ``x`` at index ``x + num_vars`` of the
    bucket's array, so a 2->1 hide touches three counters. Only a clause
    that stops or starts being a unit leaves or enters the unit
    registry, so no other unit changes its position there.
    """
    w = c.weight
    n = self.num_vars
    if old:
        cnt = self._buckets[old if old < 3 else 3]
        for x in c.lits[:old]:
            cnt[x + n] -= w
    if new:
        cnt = self._buckets[new if new < 3 else 3]
        for x in c.lits[:new]:
            cnt[x + n] += w
    if old == 1:
        self.units.pop(c, None)
    elif new == 1:
        self.units[c] = None


def random_clauses(rng: random.Random, n: int, m: int, max_len: int = 3):
    out = []
    for _ in range(m):
        k = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), k)
        out.append([v if rng.random() < 0.5 else -v for v in vs])
    return out


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a script under ``python -O`` (asserts stripped) with this
    checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(maxsat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)
