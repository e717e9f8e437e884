"""How the unit-propagation lower bound works, and what the inference
rules add to it.

Walks the propagation machinery on small formulas: the implication graph,
the inconsistent subsets it finds, and the lower-bound difference between
counting a conflict and transforming it with a rule.
"""

import math

from maxsat import (Formula, SolverConfig, build_implication_graph,
                    classify_conflict, extract_inconsistent_subset,
                    underestimation, write_cnf)


def show(f):
    return " ".join("(" + " ".join(map(str, c.active())) + ")" for c in f.clauses())


# --- 1. the implication graph -------------------------------------------
clauses = [[1], [1], [-1, 2], [-1, 3], [-2, -3, 4],
           [5], [-5, 6], [-5, 7], [-6, -7, -4], [-5, 8]]
f = Formula.from_clauses(8, clauses)
graph = build_implication_graph(f)
print("Implication graph nodes (literal <- forcing clause):")
for lit in graph.nodes:
    preds = graph.predecessors(lit)
    arrow = f" from {preds}" if preds else " (unit clause)"
    print(f"  {lit:>3}{arrow}")
print(f"conflict pair: {graph.conflict}")

analysis = extract_inconsistent_subset(graph)
print(f"inconsistent subset has {len(analysis.subset)} clauses "
      f"(one clause of the ten contributes nothing)")
print(f"rule classification: {classify_conflict(analysis, graph)!r}\n")

# --- 2. counting disjoint conflicts -------------------------------------
lb_formula = [[1], [2], [3], [4], [-1, -2, -3], [-4], [5], [-5, -2], [-5, 2]]
f = Formula.from_clauses(5, lb_formula)
u = underestimation(f, math.inf, None)
print(f"Underestimation without any rules: {u} disjoint inconsistent subsets")

# --- 3. a rule makes the contradiction explicit and pays twice ----------
chain = [[1], [-1, -2], [3], [-3, 2], [4], [-1, -4], [-3, -4]]
for variant, label in (("12", "rules 3/4 disabled"), ("1234", "rules 3/4 enabled")):
    f = Formula.from_clauses(4, chain)
    u = underestimation(f, math.inf, SolverConfig.variant(variant))
    print(f"{label:>22}: lower bound {f.empty_weight + u} "
          f"(explicit contradictions {f.empty_weight}, counted subsets {u})")

f = Formula.from_clauses(4, chain)
underestimation(f, math.inf, SolverConfig.variant("1234"))
print(f"transformed formula: {show(f)}  plus {f.empty_weight} empty clause(s)")
print()

# --- 4. the single-unit rules do the same with one unit clause ----------
fork = [[1], [-1, 2], [-1, 3], [-2, -3], [4], [1, -4], [-2, -4], [-3, -4]]
for variant, label in (("1234", "rule 5 disabled"), ("z", "rule 5 enabled")):
    f = Formula.from_clauses(4, fork)
    u = underestimation(f, math.inf, SolverConfig.variant(variant))
    print(f"{label:>22}: lower bound {f.empty_weight + u}")

# --- 5. incompleteness: detection follows propagation order -------------
sneaky = [[1], [3], [4], [-1, -3, -4], [-1, -2], [2]]
f = Formula.from_clauses(4, sneaky)
u = underestimation(f, math.inf, SolverConfig.variant("z"))
print(f"\nA rule pattern can hide behind the first-detected subset: "
      f"count {u}, formula left untouched:")
print(write_cnf(f))
