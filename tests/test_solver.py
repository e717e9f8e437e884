import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsat import (Formula, OPTIMAL, MANDATORY_CONFLICT, TIMED_OUT,
                    SolverConfig, brute_force_optimum, formula_cost,
                    gen_random_maxksat, initial_upper_bound, select_value,
                    select_variable, solve)
import maxsat.solver as solver_mod
from maxsat.solver import Solver

from formulas import THREE_DISJOINT, build, random_clauses, run_optimized

VARIANTS = ("0", "12", "1234", "z")


# ---------- heuristics ----------

def test_select_variable_weighted_product():
    f = build(3, [[1, 2], [-1, 2], [-2, 3]])
    # scores: x2 = 4*8, x1 = 4*4, x3 = 0*4
    assert select_variable(f) == 2


def test_select_variable_single_variable():
    assert select_variable(build(1, [[1]])) == 1


def test_select_variable_tie_breaks_low_index():
    f = build(2, [[1, 2], [-1, -2]])
    assert select_variable(f) == 1


def test_select_variable_requires_occurrence():
    with pytest.raises(ValueError):
        select_variable(Formula(3))


def test_select_value_examples():
    f = build(3, [[-1, 2], [-1, 3]])
    assert select_value(f, 1) is False  # neg score 8 > pos score 0
    f = build(1, [[1], [1]])
    assert select_value(f, 1) is True   # 0 < 2
    assert select_value(Formula(2), 1) is False  # all-zero tie


# ---------- node simplifications ----------

def test_pure_literal_deletes_whole_formula():
    f = build(2, [[1, 2], [1, -2]])
    s = Solver(f)
    s.ub = math.inf
    assert s._pure_literal_pass() is True
    assert f.clause_count() == 0
    assert f.assignment[1] is True


def test_pure_literal_noop():
    f = build(1, [[1], [-1]])
    s = Solver(f)
    s.ub = math.inf
    assert s._pure_literal_pass() is False


def test_pure_literal_cascade_in_simplify():
    f = build(3, [[1, 2], [1, -2], [-2, 3]])
    opt = brute_force_optimum(f)[0]
    s = Solver(f, SolverConfig.variant("0"))
    s.ub = math.inf
    assert s._simplify() is True
    assert f.clause_count() == 0
    assert f.empty_weight == opt == 0


def test_duc_assigns_false_when_units_dominate():
    f = build(2, [[-1], [-1], [1, 2]])
    s = Solver(f)
    s.ub = math.inf
    assert s._duc_pass() is True
    assert f.assignment[1] is False


def test_duc_assigns_true():
    f = build(2, [[1], [-1, 2]])
    s = Solver(f)
    s.ub = math.inf
    assert s._duc_pass() is True
    assert f.assignment[1] is True


def test_duc_balanced_no_forcing():
    f = build(2, [[1, 2], [-1, -2]])
    s = Solver(f)
    s.ub = math.inf
    assert s._duc_pass() is False
    assert f.assignment == {}


def test_empty_unit_forces_assignment():
    f = build(2, [[1], [2, -1]])
    f.add_empty(1)
    s = Solver(f)
    s.ub = 2
    alive, fired = s._empty_unit_pass()
    assert alive and fired
    assert f.assignment[1] is True


def test_empty_unit_never_fires_without_bound():
    f = build(1, [[1]])
    s = Solver(f)
    s.ub = math.inf
    alive, fired = s._empty_unit_pass()
    assert alive and not fired


def test_empty_unit_both_sides_prune():
    f = build(1, [[1], [-1]])
    f.add_empty(1)
    s = Solver(f)
    s.ub = 2
    alive, _ = s._empty_unit_pass()
    assert alive is False


# ---------- initial upper bound ----------

def test_greedy_ub_satisfiable_formula():
    f = build(3, [[1, 2], [-1, 3], [2, 3]])
    cost, assignment = initial_upper_bound(f)
    assert cost == 0
    assert formula_cost(f, assignment) == 0
    res = solve(f)
    assert res.optimum == 0 and res.stats.nodes == 0


def test_greedy_ub_complementary_pair():
    cost, _ = initial_upper_bound(build(1, [[1], [-1]]))
    assert cost == 1


def test_greedy_ub_reaches_optimum_bound():
    f = build(5, THREE_DISJOINT)
    cost, assignment = initial_upper_bound(f)
    assert cost >= 3
    assert formula_cost(f, assignment) == cost
    assert cost <= f.total_weight()
    assert solve(f).optimum == 3


# ---------- solve ----------

def test_solve_complementary_pair():
    res = solve(build(1, [[1], [-1]]))
    assert res.optimum == 1 and res.status == OPTIMAL


def test_solve_three_disjoint():
    for variant in VARIANTS:
        res = solve(build(5, THREE_DISJOINT), SolverConfig.variant(variant))
        assert res.optimum == 3
        assert formula_cost(build(5, THREE_DISJOINT), res.best_assignment) == 3


def test_solve_golden_random_max2sat():
    # oracle optimum for this seed frozen at 5
    f = gen_random_maxksat(15, 60, 2, 7)
    assert brute_force_optimum(f)[0] == 5
    res = solve(f)
    assert res.optimum == 5


def test_solve_empty_formula():
    res = solve(Formula(0))
    assert res.optimum == 0 and res.status == OPTIMAL
    assert res.best_assignment == {}


def test_solve_restores_formula(rng):
    f = build(6, random_clauses(rng, 6, 20))
    before = f.as_multiset()
    solve(f)
    assert f.as_multiset() == before
    assert f.assignment == {} and f.empty_weight == 0
    f.audit()


def test_solve_variant_agreement_and_oracle(rng):
    for _ in range(12):
        n = rng.randint(4, 9)
        f = build(n, random_clauses(rng, n, rng.randint(5, 30)))
        expected = brute_force_optimum(f)[0]
        for variant in VARIANTS:
            res = solve(f.copy(), SolverConfig.variant(variant))
            assert res.optimum == expected
            assert formula_cost(f, res.best_assignment) == expected


def test_solve_deterministic_branch_counts():
    f = gen_random_maxksat(12, 70, 2, 3)
    runs = [solve(f.copy(), SolverConfig.variant("z")) for _ in range(2)]
    assert runs[0].stats.branches == runs[1].stats.branches
    assert runs[0].optimum == runs[1].optimum


def test_solve_with_injected_upper_bound():
    f = build(5, THREE_DISJOINT)
    opt = 3
    res = solve(f, initial_ub=opt)
    assert res.optimum == opt
    if res.best_assignment is not None:
        assert formula_cost(f, res.best_assignment) == opt
    # a bound below the optimum truncates the search and leaves no witness
    res = solve(f, initial_ub=2)
    assert res.optimum == 2 and res.best_assignment is None


def test_solve_timeout_anytime_soundness():
    f = gen_random_maxksat(14, 80, 2, 11)
    res = solve(f, SolverConfig.variant("0"), timeout=0.0)
    assert res.status == TIMED_OUT
    assert res.best_assignment is not None
    assert formula_cost(f, res.best_assignment) == res.optimum


def test_solve_timeout_overshoot_is_bounded():
    # the deadline is checked at every node: a search whose nodes cost
    # milliseconds stops close to the limit, with a valid witness
    f = gen_random_maxksat(40, 800, 2, 3)
    limit = 0.5
    start = time.perf_counter()
    res = solve(f, SolverConfig.variant("0"), timeout=limit)
    elapsed = time.perf_counter() - start
    assert res.status == TIMED_OUT
    assert elapsed <= 2 * limit + 0.2, f"stopped after {elapsed:.2f} s"
    assert formula_cost(f, res.best_assignment) == res.optimum


def test_solve_weighted_matches_oracle(rng):
    for _ in range(8):
        n = rng.randint(3, 7)
        clauses = random_clauses(rng, n, rng.randint(4, 16))
        weights = [rng.randint(1, 9) for _ in clauses]
        f = build(n, clauses, weights=weights)
        expected = brute_force_optimum(f)[0]
        res = solve(f.copy())
        assert res.optimum == expected


def test_solve_weighted_with_mandatory_clauses(rng):
    # mixed soft/mandatory instances: optima compare in saturating
    # arithmetic and the status tracks feasibility
    top = 200
    for _ in range(25):
        n = rng.randint(3, 7)
        clauses = random_clauses(rng, n, rng.randint(4, 18))
        weights = [rng.choice([1, 2, 3, 8, top]) for _ in clauses]
        f0 = build(n, clauses, weights=weights, top=top)
        expected = brute_force_optimum(f0)[0]
        for variant in VARIANTS:
            res = solve(f0.copy(), SolverConfig.variant(variant))
            assert min(res.optimum, top) == expected
            assert (res.status == MANDATORY_CONFLICT) == (expected >= top)
            if res.status == OPTIMAL:
                assert formula_cost(f0, res.best_assignment) == res.optimum


def test_solve_mandatory_conflict():
    f = build(1, [[1], [-1]], weights=[10, 10], top=10)
    res = solve(f)
    assert res.status == MANDATORY_CONFLICT
    assert res.optimum >= 10


def test_solve_mandatory_clauses_satisfiable():
    f = build(2, [[1], [-1, 2], [-2]], weights=[10, 1, 10], top=10)
    res = solve(f)
    # both mandatory units force their literals, the soft middle one breaks
    assert res.status == OPTIMAL and res.optimum == 1


def test_incumbent_cost_check_survives_optimize_flag():
    # the post-search cross-check of the incumbent is an explicit raise, so
    # python -O (which strips asserts) still reports a misreported cost
    out = run_optimized("""
        import maxsat.solver as s
        from maxsat import Formula
        if __debug__:
            raise SystemExit("not running under -O")
        # claims cost 0 for an assignment that falsifies one clause
        s.initial_upper_bound = lambda f: (0, {1: True})
        try:
            s.solve(Formula.from_clauses(1, [[1], [-1]]))
        except RuntimeError as e:
            print("raised:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:"), out.stdout


def test_simplify_exhausts_almost_common_binary_pairs(rng):
    # after the node simplification no binary pair {l v r, -l v r} survives
    for _ in range(15):
        n = rng.randint(3, 8)
        f = build(n, random_clauses(rng, n, rng.randint(5, 25)))
        s = Solver(f, SolverConfig.variant("12"))
        s.ub = math.inf
        s._simplify()
        binaries = {tuple(sorted(c.active()))
                    for c in f.clauses() if c.size == 2}
        for a, b in binaries:
            assert tuple(sorted((-a, b))) not in binaries
            assert tuple(sorted((a, -b))) not in binaries


class FullScanSolver(Solver):
    """Reference search: every rule-1 pass runs the full slot scan."""

    def _pair_possible(self) -> bool:
        return True


def _rule1_gate_instances():
    """60 seeded formulas: Max-2SAT and Max-3SAT with n 8-14, every third
    one weighted (soft binaries of weight 1-9 plus TOP ternaries)."""
    rng = random.Random(0x51DE)
    for i in range(60):
        n = rng.randint(8, 14)
        if i % 3 == 0:
            top = 1000
            soft = [c.active() for c in
                    gen_random_maxksat(n, 6 * n, 2, i).clauses()]
            hard = [c.active() for c in
                    gen_random_maxksat(n, n // 2, 3, 1000 + i).clauses()]
            weights = [rng.randint(1, 9) for _ in soft] + [top] * len(hard)
            yield Formula.from_clauses(n, soft + hard, weights=weights, top=top)
        else:
            k = rng.choice((2, 3))
            yield gen_random_maxksat(n, rng.randint(3, 8) * n, k, i)


def test_rule1_gate_matches_full_scan():
    # skipping rule-1 passes that cannot fire changes nothing the search
    # does: same optimum, branches, nodes and every rule firing in order
    for f in _rule1_gate_instances():
        for variant in ("12", "1234", "z"):
            config = SolverConfig.variant(variant)
            runs = []
            for cls in (Solver, FullScanSolver):
                trace = []
                res = cls(f.copy(), config, trace=trace).solve()
                runs.append((res.optimum, res.status, res.stats.branches,
                             res.stats.nodes, res.stats.rule_apps, trace))
            assert runs[0] == runs[1], f"variant {variant} diverged"


def test_solve_twice_restores_slots_and_repeats_trace():
    # undo pops the slots that rule firings appended, so a second solve of
    # the same formula sees the same slots and fires with the same ids
    for f in list(_rule1_gate_instances())[::3]:
        slots = len(f.slots)
        runs = []
        for _ in range(2):
            trace = []
            res = solve(f, SolverConfig.variant("z"), trace=trace)
            assert len(f.slots) == slots
            runs.append((res.optimum, res.stats.branches, trace))
        assert runs[0] == runs[1]


def test_stats_counters_monotone_and_populated():
    f = gen_random_maxksat(12, 80, 2, 5)
    res = solve(f, SolverConfig.variant("z"))
    stats = res.stats
    assert stats.nodes >= stats.branches >= 0
    assert stats.elapsed >= 0
    assert stats.peak_depth >= 0
    d = stats.as_dict()
    assert set(("branches", "nodes", "pruned", "peak_depth", "elapsed_ms",
                "r1", "r2", "r3", "r4", "r5", "r6")) <= set(d)


def _over_constrained_instances():
    """40 weighted formulas whose TOP ternaries often leave no feasible
    assignment, so rules meet all-mandatory patterns below the root."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(6, 10)
        soft = [c.active() for c in gen_random_maxksat(n, 3 * n, 2, seed).clauses()]
        hard = [c.active() for c in
                gen_random_maxksat(n, rng.randint(2, 5) * n, 3, 1000 + seed).clauses()]
        weights = [rng.randint(1, 9) for _ in soft] + [50] * len(hard)
        yield Formula.from_clauses(n, soft + hard, weights=weights, top=50)


# per variant: nodes, branches, pruned, MandatoryConflictErrors raised
PINNED_SEARCH_COUNTS = {
    "0": (1643, 814, 633, 0),
    "12": (876, 429, 270, 52),
    "1234": (822, 409, 239, 46),
    "z": (793, 399, 219, 45),
}


def test_search_counts_pinned(monkeypatch):
    # the exact tree of the gate corpus and of the over-constrained corpus;
    # a change here moves branch counts and must say why
    raised = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except solver_mod.MandatoryConflictError:
                raised[0] += 1
                raise
        return wrapper

    monkeypatch.setattr(solver_mod, "underestimation",
                        counting(solver_mod.underestimation))
    monkeypatch.setattr(Solver, "_simplify", counting(Solver._simplify))
    corpus = list(_rule1_gate_instances()) + list(_over_constrained_instances())
    for variant in VARIANTS:
        raised[0] = 0
        totals = [0, 0, 0]
        for f in corpus:
            stats = solve(f, SolverConfig.variant(variant)).stats
            totals[0] += stats.nodes
            totals[1] += stats.branches
            totals[2] += stats.pruned
        assert (*totals, raised[0]) == PINNED_SEARCH_COUNTS[variant], variant


def _small_instances():
    """60 seeded formulas with n 6-10: unweighted, weighted, and weighted
    with TOP clauses."""
    rng = random.Random(0xAD41)
    for i in range(60):
        n = rng.randint(6, 10)
        clauses = random_clauses(rng, n, rng.randint(4, 8) * n)
        if i % 3 == 0:
            yield build(n, clauses)
        elif i % 3 == 1:
            yield build(n, clauses, weights=[rng.randint(1, 9) for _ in clauses])
        else:
            yield build(n, clauses, weights=[rng.choice([1, 2, 5, 30])
                                             for _ in clauses], top=30)


def test_search_bound_admissible_at_every_node(monkeypatch):
    # the bound exactly as the search computes it: every underestimation
    # call of Solver._search, at the root and below, stays at or under the
    # optimum of the formula it was called on (TOP saturates)
    inner = solver_mod.underestimation
    interior = [0]

    def checked(formula, *args, **kwargs):
        optimum, _ = brute_force_optimum(formula)
        u = inner(formula, *args, **kwargs)
        lb = formula.empty_weight + u
        if formula.top is not None:
            lb = min(lb, formula.top)
        assert lb <= optimum, f"bound {lb} above the node optimum {optimum}"
        interior[0] += bool(formula.assignment)
        return u

    monkeypatch.setattr(solver_mod, "underestimation", checked)
    for f in _small_instances():
        for variant in VARIANTS:
            solve(f, SolverConfig.variant(variant))
    assert interior[0] > 0


def test_carried_subsets_valid_at_every_node(monkeypatch):
    # without rules 3-6 each node's bound starts from the subsets its
    # parent set aside; every subset a call hands on was live at entry, is
    # disjoint from the call's other subsets and inconsistent on its own,
    # and the call's bound is the sum of their minima at current weights
    inner = solver_mod.underestimation
    carried = [0]

    def checked(formula, *args, **kwargs):
        live = set(formula.clauses())
        prior = kwargs["prior"]
        u = inner(formula, *args, **kwargs)
        found = kwargs["found"]
        seen = set()
        for subset in found:
            assert all(c in live for c in subset), "a subset was not live"
            assert seen.isdisjoint(subset), "subsets share a clause"
            seen.update(subset)
            alone = Formula.from_clauses(
                formula.num_vars, [c.active() for c in subset])
            assert brute_force_optimum(alone)[0] > 0, subset
        assert u == sum(min(c.weight for c in s) for s in found)
        carried[0] += sum(any(s is p for p in prior) for s in found)
        return u

    monkeypatch.setattr(solver_mod, "underestimation", checked)
    corpus = list(_rule1_gate_instances()) + list(_small_instances())
    for variant in ("0", "12"):
        for f in corpus:
            solve(f, SolverConfig.variant(variant))
    assert carried[0] > 0


@st.composite
def weighted_formulas(draw):
    """2n-6n clauses of length 1-3 over n = 4-9 variables, with soft
    weights 1-9, or weights from {1, 2, 5, TOP} with TOP = 20."""
    n = draw(st.integers(4, 9))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(
        st.lists(lit, min_size=1, max_size=3, unique_by=abs),
        min_size=2 * n, max_size=6 * n))
    top = draw(st.sampled_from([None, 20]))
    weights = draw(st.lists(st.integers(1, 9) if top is None
                            else st.sampled_from([1, 2, 5, 20]),
                            min_size=len(clauses), max_size=len(clauses)))
    return n, clauses, weights, top


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_formulas())
@example((1, [[1], [-1]], [20, 20], 20))  # infeasible at exactly TOP
def test_solve_weighted_and_top_properties(spec):
    # every variant agrees with the oracle, leaves the formula as it was,
    # and repeats its statistics and rule firings on a second solve
    n, clauses, weights, top = spec
    f = build(n, clauses, weights=weights, top=top)
    before = f.as_multiset()
    expected = brute_force_optimum(f)[0]
    for variant in VARIANTS:
        runs = []
        for _ in range(2):
            trace = []
            res = solve(f, SolverConfig.variant(variant), trace=trace)
            f.audit()
            assert f.as_multiset() == before
            stats = res.stats.as_dict()
            del stats["elapsed_ms"]
            runs.append((res.optimum, res.status, stats, trace))
        assert runs[0] == runs[1], variant
        if top is not None and expected >= top:
            assert res.status == MANDATORY_CONFLICT and res.optimum >= top
        else:
            assert res.status == OPTIMAL and res.optimum == expected
            assert formula_cost(f, res.best_assignment) == expected
