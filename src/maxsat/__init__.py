"""Branch-and-bound Max-SAT solver toolkit.

A weighted CNF data model, a unit-propagation lower bound driven by
implication graphs, six equivalence-preserving inference rules with
weighted variants, benchmark generators, a brute-force oracle, and a
CLI with a variant-comparison harness.
"""

from .dimacs import (DimacsError, ParsedInstance, parse_cnf, parse_wcnf,
                     write_cnf, write_wcnf)
from .formula import Clause, Formula
from .gen import (GeneratorSpec, GraphInstance, encode_3coloring, encode_maxcut,
                  gen_from_spec, gen_random_connected_graph,
                  gen_random_kcolorable_graph, gen_random_maxksat)
from .oracle import (OracleCapExceeded, brute_force_maxcut, brute_force_optimum,
                     check_equivalence)
from .propagate import (ConflictAnalysis, ImplicationGraph, NoConflictError,
                        apply_conflict_rule, build_implication_graph,
                        classify_conflict, extract_inconsistent_subset,
                        underestimation)
from .rules import (MandatoryConflictError, NO_RULE, PatternError, R1, R2, R3,
                    R4, R5, R6, RULE_IDS, RuleApplication, SolverConfig,
                    VARIANT_NAMES, apply_rule1, apply_rule2)
from .solver import (MANDATORY_CONFLICT, OPTIMAL, TIMED_OUT, SearchStats,
                     SolveResult, Solver, initial_upper_bound,
                     repair_incumbent, select_value, select_variable, solve)

__version__ = "0.1.0"
