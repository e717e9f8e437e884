"""Graph problems as Max-SAT: the Max-Cut and 3-coloring encodings.

Generates random graphs, encodes them, and confirms the combinatorial
correspondences with brute force on both sides.
"""

from maxsat import (brute_force_maxcut, brute_force_optimum, encode_3coloring,
                    encode_maxcut, gen_random_connected_graph,
                    gen_random_kcolorable_graph, solve, write_cnf)

# --- Max-Cut: 2 clauses per edge; optimum = |E| - maxcut -----------------
graph = gen_random_connected_graph(v=8, m=16, seed=11)
formula = encode_maxcut(graph)
print(f"random connected graph: {graph.vertex_count} vertices, "
      f"{len(graph.edges)} edges")
print(f"encoding: {formula.num_vars} variables, {formula.clause_count()} clauses")

cut = brute_force_maxcut(graph)
optimum = solve(formula).optimum
print(f"max cut {cut}  ->  minimum unsatisfied {len(graph.edges)} - {cut} "
      f"= {optimum}")
assert optimum == len(graph.edges) - cut == brute_force_optimum(formula)[0]

# --- 3-coloring: 4 clauses per vertex + 3 per edge -----------------------
graph = gen_random_kcolorable_graph(v=6, density=0.8, seed=3)
formula = encode_3coloring(graph)
print(f"\n3-colorable graph: {graph.vertex_count} vertices, "
      f"{len(graph.edges)} edges")
print(f"encoding: {formula.num_vars} variables "
      f"(= 3v), {formula.clause_count()} clauses (= 4v + 3|E|)")
result = solve(formula)
print(f"optimum {result.optimum} (0 = properly 3-colorable, by construction)")
assert result.optimum == 0

colors = {v: [c for c in (1, 2, 3)
              if result.best_assignment[3 * (v - 1) + c]]
          for v in range(1, graph.vertex_count + 1)}
print("a coloring read off the witness:", colors)

# --- a triangle plus one chord is not 3-colorable as K4 ------------------
from maxsat.gen import GraphInstance
k4 = GraphInstance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
print(f"\nK4 needs four colors: minimum violations = "
      f"{solve(encode_3coloring(k4)).optimum}")

print("\nDIMACS output of the K4 encoding starts with:")
print("\n".join(write_cnf(encode_3coloring(k4)).splitlines()[:5]))
