"""Randomized rule-schema instantiation shared by the rule tests and the
acceptance suite: build a pattern embedded in a random side formula, apply
the rule, and let the oracle compare against the untouched copy. Rules 3-6
are applied through `apply_conflict_rule`, the solver's classify-and-fire
path.
"""

import random

from maxsat import Formula, apply_conflict_rule, apply_rule1, apply_rule2

TOP = 1000


def _signed(rng, variables):
    return [v if rng.random() < 0.5 else -v for v in variables]


def make_pattern(rule_id: str, rng: random.Random, n: int):
    """Pattern clause list for one rule schema over distinct variables."""
    if rule_id == "r1":
        k = rng.randint(2, min(3, n))
        lits = _signed(rng, rng.sample(range(1, n + 1), k))
        return [lits, [-lits[0]] + lits[1:]]
    if rule_id == "r2":
        (l,) = _signed(rng, rng.sample(range(1, n + 1), 1))
        return [[l], [-l]]
    if rule_id == "r3":
        l1, l2 = _signed(rng, rng.sample(range(1, n + 1), 2))
        return [[l1], [-l1, -l2], [l2]]
    if rule_id == "r4":
        k = rng.randint(1, min(3, n - 1))
        lits = _signed(rng, rng.sample(range(1, n + 1), k + 1))
        chain = [[lits[0]]]
        chain += [[-lits[i], lits[i + 1]] for i in range(k)]
        chain.append([-lits[-1]])
        return chain
    if rule_id == "r5":
        l1, l2, l3 = _signed(rng, rng.sample(range(1, n + 1), 3))
        return [[l1], [-l1, l2], [-l1, l3], [-l2, -l3]]
    if rule_id == "r6":
        k = rng.randint(1, min(2, n - 3))
        lits = _signed(rng, rng.sample(range(1, n + 1), k + 3))
        chain = [[lits[0]]]
        chain += [[-lits[i], lits[i + 1]] for i in range(k)]
        a, b = lits[k + 1], lits[k + 2]
        chain += [[-lits[k], a], [-lits[k], b], [-a, -b]]
        return chain
    raise ValueError(rule_id)


APPLIERS = {
    "r1": lambda f, cs: apply_rule1(f, cs[0], cs[1]),
    "r2": lambda f, cs: apply_rule2(f, cs[0], cs[1]),
    "r3": apply_conflict_rule,
    "r4": apply_conflict_rule,
    "r5": apply_conflict_rule,
    "r6": apply_conflict_rule,
}


def instantiate(rule_id: str, rng: random.Random, n: int, weighted: bool = False):
    """(original copy, transformed formula) for one random embedding."""
    pattern = make_pattern(rule_id, rng, n)
    top = TOP if weighted else None
    weights = [rng.choice([1, 2, 3, 5, 10, TOP]) if weighted else 1
               for _ in pattern]
    if weighted and all(w == TOP for w in weights):
        weights[rng.randrange(len(weights))] = rng.randint(1, 10)
    f = Formula(n, top=top)
    pattern_clauses = [f.add_clause(list(lits), w)
                       for lits, w in zip(pattern, weights)]
    # random side formula the rule must not disturb
    for _ in range(rng.randint(0, 8)):
        k = rng.randint(1, min(3, n))
        lits = _signed(rng, rng.sample(range(1, n + 1), k))
        f.add_clause(lits, rng.randint(1, 10) if weighted else 1)
    original = f.copy()
    app = APPLIERS[rule_id](f, pattern_clauses)
    # rule 4 at k=1, {l1, -l1 v l2, -l2}, is rule 3 after renaming l2
    expected = "r3" if rule_id == "r4" and len(pattern) == 3 else rule_id
    assert app.rule_id == expected, (rule_id, pattern, app.rule_id)
    return original, f
