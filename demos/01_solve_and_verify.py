"""Solving a Max-SAT instance and checking the answer three ways.

Builds a small over-constrained formula, proves its optimum with every
solver variant, and confirms the result against the brute-force oracle
and by evaluating the witness assignment directly.
"""

from maxsat import (Formula, SolverConfig, brute_force_optimum, parse_cnf,
                    solve, write_cnf)

# A formula in which some clause must always break: x1 forces a cascade
# that contradicts the units on x4 and the pair on x2.
clauses = [[1], [2], [3], [4], [-1, -2, -3], [-4], [5], [-5, -2], [-5, 2]]
formula = Formula.from_clauses(5, clauses)

print("The instance, in DIMACS form:")
print(write_cnf(formula))

opt, witness = brute_force_optimum(formula)
print(f"Brute force over 2^5 assignments: optimum = {opt}, witness = {witness}")

for variant in ("0", "12", "1234", "z"):
    result = solve(formula.copy(), SolverConfig.variant(variant))
    print(f"variant {variant:>4}: optimum={result.optimum} "
          f"branches={result.stats.branches} status={result.status}")
    assert result.optimum == opt

# The returned assignment really does unsatisfy exactly `opt` clauses.
result = solve(formula.copy())
cost = formula.cost(result.best_assignment)
print(f"\nWitness re-evaluated on the original formula: {cost} unsatisfied")
assert cost == result.optimum

# The same workflow works from DIMACS text.
text = "p cnf 2 3\n1 0\n-1 2 0\n-2 0\n"
parsed = parse_cnf(text)
print(f"\nParsed instance with {parsed.formula.clause_count()} clauses; "
      f"optimum = {solve(parsed.formula).optimum}")
