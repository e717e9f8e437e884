"""Workload definitions of the solve benchmark and the corpus each seed draws.

Every workload owns a pool of instances, one per generator seed
``0 .. pool_size - 1``, whose optimum and seed-commit branch count are
stored in ``reference.json``. A benchmark seed draws a corpus from that
pool by stratified sampling: the pool is ranked by seed-commit branch
count, cut into ``corpus_size`` strata of ``stratum`` instances each, and
one instance is picked from every stratum. Different seeds therefore
solve different instances of the same difficulty profile, which keeps
the run-to-run spread of summed metrics small without fixing the inputs.

The solver only ever sees the DIMACS/WCNF text made here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from maxsat.dimacs import write_cnf
from maxsat.gen import gen_random_maxksat

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # "ksat" (maxsat.gen) or "wpms" (gen_wpms below)
    variant: str         # SolverConfig variant the benchmark solves with
    params: dict
    corpus_size: int
    stratum: int
    reference: str      # where the stored optimum comes from
    why: str

    @property
    def pool_size(self) -> int:
        return self.corpus_size * self.stratum


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "max2sat-z", "ksat", "z", {"n": 25, "m": 500, "k": 2},
            corpus_size=80, stratum=4,
            reference="variants 0 and z agree",
            why="Random Max-2SAT n=25 m=500 with every rule on, the paper's "
                "headline setting: the simplify fixpoint and rule firing "
                "dominate."),
        Workload(
            "max2sat-0", "ksat", "0", {"n": 16, "m": 320, "k": 2},
            corpus_size=48, stratum=4,
            reference="brute-force oracle",
            why="Random Max-2SAT n=16 m=320 with no rules: underestimation "
                "(propagation, subset extraction, classification) dominates "
                "and the rules layer is bypassed."),
        Workload(
            "wpms-z", "wpms", "z",
            {"n": 20, "soft": 400, "hard": 24, "max_weight": 10},
            corpus_size=56, stratum=4,
            reference="brute-force oracle",
            why="Weighted partial Max-2SAT n=20, 400 soft weights 1-10, 24 "
                "planted hard ternaries at TOP: residual-weight firings and "
                "the WCNF parser."),
    )
}


def gen_wpms(n: int, soft: int, hard: int, max_weight: int, seed: int):
    """Weighted partial instance as WCNF text, plus its hidden assignment.

    ``soft`` binary clauses on distinct variables with weights drawn from
    1..max_weight, then ``hard`` ternary clauses at TOP = (sum of soft
    weights) + 1. Each hard clause that the hidden assignment would
    falsify gets one literal flipped, so the hard part is satisfiable by
    construction and the optimum stays below TOP.
    """
    rng = random.Random(seed)
    hidden = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1)}
    variables = range(1, n + 1)
    soft_clauses = []
    for _ in range(soft):
        lits = [v if rng.getrandbits(1) else -v for v in rng.sample(variables, 2)]
        soft_clauses.append((rng.randint(1, max_weight), lits))
    top = sum(w for w, _ in soft_clauses) + 1
    hard_clauses = []
    for _ in range(hard):
        lits = [v if rng.getrandbits(1) else -v for v in rng.sample(variables, 3)]
        if not any((lit > 0) == hidden[abs(lit)] for lit in lits):
            i = rng.randrange(3)
            lits[i] = -lits[i]
        hard_clauses.append(lits)
    lines = [f"p wcnf {n} {soft + hard} {top}"]
    lines += [f"{w} " + " ".join(map(str, lits)) + " 0" for w, lits in soft_clauses]
    lines += [f"{top} " + " ".join(map(str, lits)) + " 0" for lits in hard_clauses]
    return "\n".join(lines) + "\n", hidden


def instance_text(workload: Workload, gen_seed: int) -> str:
    p = workload.params
    if workload.family == "ksat":
        return write_cnf(gen_random_maxksat(p["n"], p["m"], p["k"], gen_seed))
    text, _ = gen_wpms(p["n"], p["soft"], p["hard"], p["max_weight"], gen_seed)
    return text


def load_reference() -> dict:
    """Per workload: {gen seed: (optimum, seed-commit branches)}."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return {name: {seed: (opt, br) for seed, opt, br in entry["pool"]}
            for name, entry in data["workloads"].items()}


def draw_corpus(workload: Workload, seed: int, pool: dict) -> list[int]:
    """Generator seeds of the corpus a benchmark seed selects."""
    if len(pool) != workload.pool_size:
        raise ValueError(f"{workload.name}: reference pool has {len(pool)} "
                         f"instances, expected {workload.pool_size}")
    ranked = sorted(pool, key=lambda s: (pool[s][1], s))
    rng = random.Random(f"{workload.name}/{seed}")
    k = workload.stratum
    return [ranked[j * k + rng.randrange(k)] for j in range(workload.corpus_size)]
