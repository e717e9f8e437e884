import hashlib
import math
import random
import sys
import time

import pytest
from hypothesis import example, find, given, settings, strategies as st

from maxsat import (Formula, OPTIMAL, MANDATORY_CONFLICT, TIMED_OUT,
                    SolverConfig, brute_force_optimum, gen_random_maxksat,
                    initial_upper_bound, repair_incumbent, select_value,
                    select_variable, solve)
import maxsat.propagate as propagate
import maxsat.solver as solver_mod
from maxsat.rules import MandatoryConflictError, apply_rule1
from maxsat.solver import REPAIR_FLIPS, Solver

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
    s._pure_literal_pass()
    assert f.clause_count() == 0
    assert f.assignment[1] is True


def test_pure_literal_noop():
    f = build(1, [[1], [-1]])
    s = Solver(f)
    s.ub = math.inf
    s._pure_literal_pass()
    assert f.assignment == {}


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
    s._duc_pass()
    assert f.assignment[1] is False


def test_duc_assigns_true():
    f = build(2, [[1], [-1, 2]])
    s = Solver(f)
    s.ub = math.inf
    s._duc_pass()
    assert f.assignment[1] is True


def test_duc_balanced_no_forcing():
    f = build(2, [[1, 2], [-1, -2]])
    s = Solver(f)
    s.ub = math.inf
    s._duc_pass()
    assert f.assignment == {}


def test_empty_unit_forces_assignment():
    f = build(2, [[1], [2, -1]])
    f.add_empty(1)
    s = Solver(f)
    s.ub = 2
    assert s._empty_unit_pass() is True
    assert f.assignment[1] is True


def test_empty_unit_never_fires_without_bound():
    f = build(1, [[1]])
    s = Solver(f)
    s.ub = math.inf
    assert s._empty_unit_pass() is True
    assert f.assignment == {}


def test_empty_unit_both_sides_prune():
    f = build(1, [[1], [-1]])
    f.add_empty(1)
    s = Solver(f)
    s.ub = 2
    assert s._empty_unit_pass() is False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_pass_grows_the_trail_exactly_when_it_changes_the_formula(data):
    # Solver._simplify reads "the pass changed the formula" from the trail
    # length alone. On random weighted states with a finite bound, each
    # pass writes a trail record exactly when it changes the live clauses,
    # their weights, the empty weight or the assignment
    n = data.draw(st.integers(2, 7), label="n")
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lit, min_size=1, max_size=3, unique_by=abs)
    clauses = data.draw(st.lists(clause, min_size=1, max_size=16),
                        label="clauses")
    top = data.draw(st.sampled_from([None, 40]), label="top")
    weights = data.draw(st.lists(st.sampled_from([1, 2, 3, 40]),
                                 min_size=len(clauses), max_size=len(clauses)),
                        label="weights")
    if top is None:
        weights = [min(w, 3) for w in weights]
    f = Formula.from_clauses(n, clauses, weights=weights, top=top)
    s = Solver(f, SolverConfig.variant("12"))
    s.ub = data.draw(st.integers(1, sum(weights) + 1), label="ub")
    if data.draw(st.booleans(), label="first rule-1 pass"):
        s._rule1_pass()
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        free = [v for v in range(1, n + 1) if v not in f.assignment]
        if not free:
            break
        vs = data.draw(st.lists(st.sampled_from(free), min_size=1,
                                max_size=3, unique=True), label="vars")
        signs = data.draw(st.lists(st.booleans(), min_size=len(vs),
                                   max_size=len(vs)), label="signs")
        lits = [v if sign else -v for v, sign in zip(vs, signs)]
        if data.draw(st.booleans(), label="assign"):
            f.assign_literal(lits[0])
        else:
            f.add_clause(lits, data.draw(st.sampled_from([1, 2]), label="w"))
    name = data.draw(st.sampled_from(
        ["_rule1_pass", "_rule2_pass", "_pure_literal_pass", "_duc_pass",
         "_empty_unit_pass"]), label="pass")
    mark = len(f.trail)
    before = (f.as_multiset(), f.empty_weight, dict(f.assignment))
    out = getattr(s, name)()
    assert out is None or name == "_empty_unit_pass"
    records = f.trail[mark:]
    changed = (f.as_multiset(), f.empty_weight, f.assignment) != before
    assert bool(records) == changed, name


# ---------- initial upper bound ----------

def test_greedy_ub_satisfiable_formula():
    f = build(3, [[1, 2], [-1, 3], [2, 3]])
    cost, assignment = initial_upper_bound(f)
    assert cost == 0
    assert f.cost(assignment) == 0
    res = solve(f)
    assert res.optimum == 0 and res.stats.nodes == 0


def test_greedy_ub_complementary_pair():
    cost, _ = initial_upper_bound(build(1, [[1], [-1]]))
    assert cost == 1


def test_greedy_ub_reaches_optimum_bound():
    f = build(5, THREE_DISJOINT)
    cost, assignment = initial_upper_bound(f)
    assert cost >= 3
    assert f.cost(assignment) == cost
    assert cost <= sum(c.weight for c in f.clauses())
    assert solve(f).optimum == 3


# ---------- incumbent repair ----------

def test_repair_makes_an_infeasible_greedy_incumbent_feasible():
    # greedy sets x1 False (its negative binary occurrence outscores the
    # unit) and breaks the hard unit; no single flip helps, so the repair
    # walks x1 and then flips x2
    f = build(2, [[2, -1], [1]], weights=[10, 10], top=10)
    greedy = initial_upper_bound(f)
    assert greedy[0] == 10
    cost, assignment = repair_incumbent(f, greedy[1], greedy[0])
    assert cost == 0 == f.cost(assignment)
    res = solve(f)
    assert (res.stats.greedy_ub, res.stats.start_ub) == (10, 0)
    assert res.status == OPTIMAL and res.optimum == 0


def test_repair_with_a_past_deadline_returns_its_input():
    f = build(2, [[2, -1], [1]], weights=[10, 10], top=10)
    assignment = {1: False, 2: False}
    out = repair_incumbent(f, assignment, 10, time.monotonic() - 1)
    assert out[0] == 10 and out[1] is assignment


def test_repair_with_a_past_deadline_copies_no_clause(monkeypatch):
    # the incumbent breaks a hard clause, so the repair would run; with the
    # deadline already passed it returns before reading any clause
    f = build(2, [[2, -1], [1]], weights=[10, 10], top=10)
    inner = f.clauses
    reads = [0]

    def counted():
        reads[0] += 1
        return inner()

    monkeypatch.setattr(f, "clauses", counted)
    assignment = {1: False, 2: False}
    out = repair_incumbent(f, assignment, 10, time.monotonic() - 1)
    assert out[0] == 10 and out[1] is assignment
    assert reads[0] == 0


def _partial_instance(seed):
    """8 variables: 32 soft binaries of weight 1-9 and 8 TOP ternaries."""
    rng = random.Random(seed)
    n = 8
    soft = [c.active() for c in gen_random_maxksat(n, 4 * n, 2, seed).clauses()]
    hard = [c.active() for c in
            gen_random_maxksat(n, n, 3, 1000 + seed).clauses()]
    weights = [rng.randint(1, 9) for _ in soft] + [100] * len(hard)
    return Formula.from_clauses(n, soft + hard, weights=weights, top=100)


def test_repair_improves_a_feasible_greedy_incumbent():
    # seed 0 is the first of a scan over seeds 0, 1, ... whose greedy
    # incumbent breaks no hard clause and which the repair improves
    # (greedy 23, repaired 15, optimum 5); the search starts from the
    # repaired incumbent and still proves the optimum
    f = _partial_instance(0)
    res = solve(f)
    assert res.stats.start_ub < res.stats.greedy_ub < f.top
    assert res.status == OPTIMAL
    assert res.optimum == brute_force_optimum(f)[0]
    assert f.cost(res.best_assignment) == res.optimum


@st.composite
def repair_inputs(draw):
    """Up to 8 variables, 1-5n clauses of length 1-3, weights from
    {1, 2, 5, TOP} with TOP = 20 or soft 1-9 with no TOP, and any
    complete assignment."""
    n = draw(st.integers(1, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3, unique_by=abs),
                            min_size=1, max_size=5 * n))
    top = draw(st.sampled_from([None, 20]))
    weights = draw(st.lists(st.integers(1, 9) if top is None
                            else st.sampled_from([1, 2, 5, 20]),
                            min_size=len(clauses), max_size=len(clauses)))
    values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, clauses, weights, top, dict(enumerate(values, 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(repair_inputs())
def test_repair_incumbent_properties(spec):
    # the repair prices what it returns, never returns worse, repeats
    # itself, leaves the formula as it was, and runs only on a formula
    # with a TOP whose incumbent costs more than 0
    n, clauses, weights, top, assignment = spec
    f = build(n, clauses, weights=weights, top=top)
    before = (f.as_multiset(), len(f.slots), len(f.trail))
    cost = f.cost(assignment)
    out = repair_incumbent(f, assignment, cost)
    assert out[0] == f.cost(out[1]) and out[0] <= cost
    assert repair_incumbent(f, assignment, cost) == out
    assert (f.as_multiset(), len(f.slots), len(f.trail)) == before
    f.audit()
    if top is None or cost == 0:
        assert out[0] == cost and out[1] is assignment


def reference_repair_incumbent(formula, assignment, cost, deadline=None):
    """The repair as it was before it walked the formula's own clauses:
    it copies every live clause into private literal, weight and
    occurrence arrays and keeps its per-clause state by copy index."""
    if formula.top is None or cost == 0:
        return cost, assignment
    if deadline is not None and time.monotonic() > deadline:
        return cost, assignment
    n = formula.num_vars
    value = [False] + [assignment[v] for v in range(1, n + 1)]
    lits: list[list[int]] = []
    weights: list[int] = []
    occ: list[list[int]] = [[] for _ in range(2 * n + 1)]  # clause ids by lit
    for c in formula.clauses():
        active = c.lits[:c.size]
        for lit in active:
            occ[lit + n].append(len(lits))
        lits.append(active)
        weights.append(c.weight)
    # per clause: its true literals' count and the sum of their variables,
    # which is the one true variable when the count is 1
    ntrue = [0] * len(lits)
    truesum = [0] * len(lits)
    # per variable: weight its flip makes true minus weight it falsifies
    score = [0] * (n + 1)
    falsified: dict[int, None] = {}  # clause ids, in the order they fell
    for i, cl in enumerate(lits):
        for lit in cl:
            if value[abs(lit)] == (lit > 0):
                ntrue[i] += 1
                truesum[i] += abs(lit)
        if ntrue[i] == 0:
            falsified[i] = None
            for lit in cl:
                score[abs(lit)] += weights[i]
        elif ntrue[i] == 1:
            score[truesum[i]] -= weights[i]

    rng = random.Random(0)
    current = best_cost = cost
    best = None
    for _ in range(REPAIR_FLIPS):
        if not falsified:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
        v = max(range(1, n + 1), key=score.__getitem__)
        if score[v] <= 0:
            cl = lits[list(falsified)[rng.randrange(len(falsified))]]
            v = abs(cl[rng.randrange(len(cl))])
        current -= score[v]
        value[v] = not value[v]
        made = v if value[v] else -v
        for i in occ[made + n]:
            w = weights[i]
            if ntrue[i] == 0:
                # satisfied by v alone: no literal makes it, v breaks it
                del falsified[i]
                for lit in lits[i]:
                    score[abs(lit)] -= w
                score[v] -= w
            elif ntrue[i] == 1:
                score[truesum[i]] += w
            ntrue[i] += 1
            truesum[i] += v
        for i in occ[n - made]:
            w = weights[i]
            ntrue[i] -= 1
            truesum[i] -= v
            if ntrue[i] == 0:
                # v was its one true literal: now every literal makes it
                falsified[i] = None
                score[v] += w
                for lit in lits[i]:
                    score[abs(lit)] += w
            elif ntrue[i] == 1:
                score[truesum[i]] -= w
        if current < best_cost:
            best_cost = current
            best = value[:]
    if best is None:
        return cost, assignment
    repaired = {v: best[v] for v in range(1, n + 1)}
    return formula.cost(repaired), repaired


def unskipped_repair_incumbent(formula, assignment, cost):
    """Negative control: ``repair_incumbent`` walking every slot and every
    occurrence-list entry, dead or live, as if no clause had died."""
    if formula.top is None or cost == 0:
        return cost, assignment
    n = formula.num_vars
    slots = formula.slots
    occ = formula.occ
    value = [False] + [assignment[v] for v in range(1, n + 1)]
    ntrue = [0] * len(slots)
    truesum = [0] * len(slots)
    score = [0] * (n + 1)
    falsified: dict[int, None] = {}
    for c in slots:
        i = c.cid
        for lit in c.lits[:c.size]:
            if value[abs(lit)] == (lit > 0):
                ntrue[i] += 1
                truesum[i] += abs(lit)
        if ntrue[i] == 0:
            falsified[i] = None
            for lit in c.lits[:c.size]:
                score[abs(lit)] += c.weight
        elif ntrue[i] == 1:
            score[truesum[i]] -= c.weight
    rng = random.Random(0)
    current = best_cost = cost
    best = None
    for _ in range(REPAIR_FLIPS):
        if not falsified:
            break
        v = max(range(1, n + 1), key=score.__getitem__)
        if score[v] <= 0:
            c = slots[list(falsified)[rng.randrange(len(falsified))]]
            v = abs(c.lits[rng.randrange(c.size)])
        current -= score[v]
        value[v] = not value[v]
        made = v if value[v] else -v
        for c in occ[made + n]:
            i = c.cid
            if ntrue[i] == 0:
                del falsified[i]
                for lit in c.lits[:c.size]:
                    score[abs(lit)] -= c.weight
                score[v] -= c.weight
            elif ntrue[i] == 1:
                score[truesum[i]] += c.weight
            ntrue[i] += 1
            truesum[i] += v
        for c in occ[n - made]:
            i = c.cid
            ntrue[i] -= 1
            truesum[i] -= v
            if ntrue[i] == 0:
                falsified[i] = None
                score[v] += c.weight
                for lit in c.lits[:c.size]:
                    score[abs(lit)] += c.weight
            elif ntrue[i] == 1:
                score[truesum[i]] -= c.weight
        if current < best_cost:
            best_cost = current
            best = value[:]
    if best is None:
        return cost, assignment
    repaired = {v: best[v] for v in range(1, n + 1)}
    return formula.cost(repaired), repaired


@st.composite
def edited_repair_inputs(draw):
    """``repair_inputs`` plus trailed edits made before the repair: maybe
    the removal of one clause, then maybe the assignment of one variable
    to its incumbent value, so ``occ`` holds dead entries and hidden
    literals."""
    n, clauses, weights, top, assignment = draw(repair_inputs())
    removed = draw(st.none() | st.integers(0, len(clauses) - 1))
    assigned = draw(st.none() | st.integers(1, n))
    return n, clauses, weights, top, assignment, removed, assigned


def _edited_repair_differs(spec, repair) -> bool:
    """Whether ``repair`` returns another (cost, assignment) than the
    reference on the edited formula; each run must leave the formula's
    clauses, slots and trail as they were."""
    n, clauses, weights, top, assignment, removed, assigned = spec
    f = build(n, clauses, weights=weights, top=top)
    if removed is not None:
        f.remove_clause(f.slots[removed])
    if assigned is not None:
        f.assign_literal(assigned if assignment[assigned] else -assigned)
    before = (f.as_multiset(), list(f.slots), list(f.trail))
    cost = f.cost(assignment)
    ref = reference_repair_incumbent(f, assignment, cost)
    out = repair(f, assignment, cost)
    assert (f.as_multiset(), list(f.slots), list(f.trail)) == before
    f.audit()
    return out != ref


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_repair_inputs())
def test_repair_matches_the_copying_reference(spec):
    # the per-slot repair over the formula's own occurrence lists returns
    # what the repair over private copies of the live clauses returned
    assert not _edited_repair_differs(spec, repair_incumbent)


def test_repair_reference_rejects_a_repair_that_reads_dead_clauses():
    # the negative control: counting the dead clauses' entries as live
    # changes the result on some edited formula, and the comparison above
    # must see it
    find(edited_repair_inputs(),
         lambda spec: _edited_repair_differs(spec, unskipped_repair_incumbent),
         settings=settings(max_examples=300, derandomize=True, database=None))


# ---------- solve ----------

def test_solve_complementary_pair():
    res = solve(build(1, [[1], [-1]]))
    assert res.optimum == 1 and res.status == OPTIMAL


def test_solve_three_disjoint():
    for variant in VARIANTS:
        res = solve(build(5, THREE_DISJOINT), SolverConfig.variant(variant))
        assert res.optimum == 3
        assert build(5, THREE_DISJOINT).cost(res.best_assignment) == 3


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
            assert f.cost(res.best_assignment) == expected


def test_solve_deterministic_branch_counts():
    f = gen_random_maxksat(12, 70, 2, 3)
    runs = [solve(f.copy(), SolverConfig.variant("z")) for _ in range(2)]
    assert runs[0].stats.branches == runs[1].stats.branches
    assert runs[0].optimum == runs[1].optimum


def test_solve_timeout_anytime_soundness():
    f = gen_random_maxksat(14, 80, 2, 11)
    res = solve(f, SolverConfig.variant("0"), timeout=0.0)
    assert res.status == TIMED_OUT
    assert res.best_assignment is not None
    assert f.cost(res.best_assignment) == res.optimum


@pytest.mark.parametrize("timeout", [float("nan"), -1])
def test_solver_rejects_nan_and_negative_timeout(timeout):
    # a NaN deadline never passes, so it would disable the limit
    f = Formula.from_clauses(2, [[1], [-1]])
    with pytest.raises(ValueError, match="timeout"):
        solve(f, timeout=timeout)


def test_solver_accepts_zero_and_infinite_timeout():
    f = Formula.from_clauses(2, [[1], [-1]])
    assert solve(f, timeout=math.inf).status == OPTIMAL
    res = solve(f, timeout=0.0)
    assert res.status in (OPTIMAL, TIMED_OUT)
    assert res.optimum == 1 == f.cost(res.best_assignment)


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
    assert f.cost(res.best_assignment) == res.optimum


def test_solve_timeout_holds_during_greedy_bound():
    # the greedy bound alone takes about a second on this instance; it
    # stops at the deadline, and the solve ends with its witness. The
    # slack covers one greedy step plus building and costing the witness
    # over 40,000 clauses
    f = gen_random_maxksat(2000, 40000, 2, 1)
    limit = 0.2
    for variant in ("0", "z"):
        start = time.perf_counter()
        res = solve(f, SolverConfig.variant(variant), timeout=limit)
        elapsed = time.perf_counter() - start
        assert res.status == TIMED_OUT
        assert f.cost(res.best_assignment) == res.optimum
        assert elapsed <= limit + 0.3, f"{variant} stopped after {elapsed:.2f} s"


def test_solve_timeout_holds_at_the_root_node():
    # under z the root node's first rule-1 pass and its underestimation
    # each take a large share of the greedy bound's time on this instance,
    # so a limit just above the greedy time falls inside the root node.
    # Both check the deadline as they go; the slack is the greedy test's
    f = gen_random_maxksat(1000, 20000, 2, 1)
    start = time.monotonic()
    initial_upper_bound(f)
    limit = 1.05 * (time.monotonic() - start)
    start = time.perf_counter()
    res = solve(f, SolverConfig.variant("z"), timeout=limit)
    elapsed = time.perf_counter() - start
    assert res.status == TIMED_OUT
    assert f.cost(res.best_assignment) == res.optimum
    assert elapsed <= limit + 0.3, \
        f"stopped after {elapsed:.2f} s with a {limit:.2f} s limit"


def test_solve_timeout_holds_during_repair(monkeypatch):
    # a hard unit pair leaves no feasible assignment, so the repair would
    # take all its flips, each scanning 100,000 scores. The greedy bound is
    # replaced by the all-False assignment, so the deadline falls inside
    # the repair. The slack covers one flip plus costing the witness
    n = 100_000
    f = Formula(n, top=1000)
    for c in gen_random_maxksat(n, 5000, 2, 1).clauses():
        f.add_clause(c.active())
    f.add_clause([1], 1000)
    f.add_clause([-1], 1000)
    all_false = dict.fromkeys(range(1, n + 1), False)
    monkeypatch.setattr(solver_mod, "initial_upper_bound",
                        lambda f, deadline: (f.cost(all_false), all_false))
    repair = solver_mod.repair_incumbent
    calls = []

    def timed(*args):
        entered = time.monotonic()
        out = repair(*args)
        calls.append((entered, time.monotonic()))
        return out

    monkeypatch.setattr(solver_mod, "repair_incumbent", timed)
    limit = 0.2
    solver = Solver(f, timeout=limit)
    start = time.perf_counter()
    res = solver.solve()
    elapsed = time.perf_counter() - start
    [(entered, left)] = calls
    assert entered < solver.deadline < left
    assert res.status == TIMED_OUT
    assert res.optimum == f.cost(res.best_assignment) >= f.top
    assert elapsed <= limit + 0.3, f"stopped after {elapsed:.2f} s"


def test_solve_again_starts_fresh_counters_and_clock():
    # a second solve counts only its own search, and the timeout runs from
    # solve(), not from the constructor
    f = gen_random_maxksat(12, 60, 2, 1)
    solver = Solver(f)
    first = solver.solve()
    second = solver.solve()
    assert second.stats is not first.stats
    assert second.stats.as_dict() | {"elapsed_ms": 0} == \
        first.stats.as_dict() | {"elapsed_ms": 0}
    assert (second.optimum, second.status) == (first.optimum, OPTIMAL)
    assert f.trail == [] and solver.pairs == {} and solver.pair_adds == []
    solver = Solver(f, timeout=0.5)
    time.sleep(0.6)
    res = solver.solve()
    assert (res.optimum, res.status) == (first.optimum, OPTIMAL)
    assert res.stats.nodes == first.stats.nodes


def test_solve_restores_recursion_limit():
    # solve raises the limit to 2n + 512 for its search and puts the
    # caller's limit back
    f = gen_random_maxksat(400, 400, 2, 1)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert solve(f).status == OPTIMAL
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


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
                assert f0.cost(res.best_assignment) == res.optimum


def test_solve_mandatory_conflict():
    f = build(1, [[1], [-1]], weights=[10, 10], top=10)
    res = solve(f)
    assert res.status == MANDATORY_CONFLICT
    assert res.optimum >= 10
    # a conflict among mandatory clauses at the root is one pruned node
    f = build(2, [[1], [-1], [1, 2], [-2]], weights=[20, 20, 3, 1], top=20)
    for variant in VARIANTS:
        res = solve(f, SolverConfig.variant(variant))
        assert res.status == MANDATORY_CONFLICT
        assert (res.stats.nodes, res.stats.branches, res.stats.pruned) == (1, 0, 1)


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
        s.initial_upper_bound = lambda f, *_: (0, {1: True})
        try:
            s.solve(Formula.from_clauses(1, [[1], [-1]]))
        except RuntimeError as e:
            print("raised:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:"), out.stdout


def _assert_no_almost_common_binaries(f):
    binaries = {tuple(sorted(c.active())) for c in f.clauses() if c.size == 2}
    for a, b in binaries:
        assert tuple(sorted((-a, b))) not in binaries
        assert tuple(sorted((a, -b))) not in binaries


def test_simplify_exhausts_almost_common_binary_pairs(rng, monkeypatch):
    # after the node simplification no binary pair {l v r, -l v r} survives
    for _ in range(15):
        n = rng.randint(3, 8)
        f = build(n, random_clauses(rng, n, rng.randint(5, 25)))
        s = Solver(f, SolverConfig.variant("12"))
        s.ub = math.inf
        s._simplify()
        _assert_no_almost_common_binaries(f)
    # nor after any rule-1 pass of a search: a later pass visits only the
    # binaries made since the last one, which is sound only while this holds
    inner = Solver._rule1_pass
    passes = [0]

    def checked(self):
        inner(self)
        _assert_no_almost_common_binaries(self.f)
        passes[0] += 1

    monkeypatch.setattr(Solver, "_rule1_pass", checked)
    for f in _rule1_gate_instances():
        for variant in ("12", "1234", "z"):
            solve(f, SolverConfig.variant(variant))
    assert passes[0] > 0


class FullScanSolver(Solver):
    """Reference search: every rule-1 pass scans every slot. The scan and
    its partner lookup are the earlier solver's, kept verbatim."""

    def _rule1_pass(self) -> None:
        f = self.f
        sig: dict[tuple, list] = {}
        for i in range(len(f.slots)):
            c = f.slots[i]
            if c is None or not c.live or c.size != 2:
                continue
            while c.live:
                partner = self._find_partner(sig, c)
                if partner is None:
                    break
                self._record(apply_rule1(f, c, partner))
            if c.live:
                sig.setdefault(tuple(sorted(c.active())), []).append(c)

    @staticmethod
    def _find_partner(sig, c):
        """The latest live binary {-a, b}, else {a, -b}, for c = {a, b}, a < b."""
        a, b = sorted(c.active())
        for key in (tuple(sorted((-a, b))), tuple(sorted((a, -b)))):
            stack = sig.get(key)
            while stack:
                cand = stack[-1]
                if cand.live and cand.size == 2:
                    return cand
                stack.pop()
        return None


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
    # visiting only the binaries that can fire changes nothing the search
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


class FullRoundSolver(Solver):
    """Reference search: every round of the simplify fixpoint runs every
    pass. The fixpoint is the earlier solver's, with a round's change read
    from the trail length at its start."""

    def _simplify(self) -> bool:
        f = self.f
        r12 = self.config.enable_r12
        check = self._check_deadline
        while True:
            start = len(f.trail)
            if r12:
                self._rule1_pass()
                check()
                self._rule2_pass()
            if f.empty_weight >= self.ub:
                return False
            check()
            self._pure_literal_pass()
            check()
            self._duc_pass()
            check()
            if not self._empty_unit_pass():
                return False
            if f.empty_weight >= self.ub:
                return False
            if len(f.trail) == start:
                return True


class WrongSkipSolver(Solver):
    """Negative control: ``Solver._simplify`` with each sweep's mark taken
    after its run, so a sweep is also skipped after a run that assigned."""

    def _simplify(self) -> bool:
        f = self.f
        trail = f.trail
        r12 = self.config.enable_r12
        check = self._check_deadline
        r2_done = pure_idle = duc_idle = eu_idle = -1
        while True:
            start = len(trail)
            if r12:
                self._rule1_pass()
                if len(trail) != r2_done:
                    check()
                    self._rule2_pass()
                    r2_done = len(trail)
            if f.empty_weight >= self.ub:
                return False
            if len(trail) != pure_idle:
                check()
                self._pure_literal_pass()
                pure_idle = len(trail)
            if len(trail) != duc_idle:
                check()
                self._duc_pass()
                duc_idle = len(trail)
            if len(trail) != eu_idle:
                check()
                if not self._empty_unit_pass():
                    return False
                eu_idle = len(trail)
            if f.empty_weight >= self.ub:
                return False
            if len(trail) == start:
                return True


def _search_record(cls, f, variant):
    trace = []
    res = cls(f.copy(), SolverConfig.variant(variant), trace=trace).solve()
    return (res.optimum, res.status, res.stats.branches, res.stats.nodes,
            res.stats.rule_apps, trace)


def test_simplify_matches_full_rounds():
    # skipping a pass on a formula it left unchanged changes nothing the
    # search does, while skipping a sweep after it assigned does
    corpus = list(_rule1_gate_instances()) + list(_over_constrained_instances())
    wrong = 0
    for variant in VARIANTS:
        for f in corpus:
            ref = _search_record(FullRoundSolver, f, variant)
            assert _search_record(Solver, f, variant) == ref, variant
            wrong += _search_record(WrongSkipSolver, f, variant) != ref
    assert wrong > 0


# an over-constrained instance on which the negative control branches
# more under z, and (branches, nodes) of the reference and of the control
WRONG_SKIP_INSTANCE = 7
WRONG_SKIP_COUNTS = ((3, 6), (4, 8))


def test_wrong_skip_changes_a_pinned_search():
    # the negative control on one instance: the skipped sweep leaves an
    # assignment to a later node, which then branches differently
    f = list(_over_constrained_instances())[WRONG_SKIP_INSTANCE]
    ref = _search_record(FullRoundSolver, f, "z")
    assert _search_record(Solver, f, "z") == ref
    wrong = _search_record(WrongSkipSolver, f, "z")
    assert (ref[2:4], wrong[2:4]) == WRONG_SKIP_COUNTS


def _partners(s, c) -> list:
    """The live binaries almost common with c = {a, b}, a < b, in the
    order rule 1 takes them: every {-a, b} before every {a, -b}, each
    group from the highest slot down. Each group is one list of the
    solver's pair index, read backwards; a shrunk old ternary joins
    its list after newer rule products, so a group of more than one
    clause is sorted by slot. (The earlier solver's ``Solver._partners``,
    kept verbatim but for taking the solver as an argument.)"""
    pairs = s.pairs
    a, b = c.lits[0], c.lits[1]
    if b < a:
        a, b = b, a
    out = []
    for key in ((-a, b) if -a < b else (b, -a),
                (a, -b) if a < -b else (-b, a)):
        lst = pairs.get(key)
        if lst is None:
            continue
        group = [d for d in reversed(lst) if d.live and d.size == 2]
        if len(group) > 1:
            group.sort(key=lambda d: d.cid, reverse=True)
        out += group
    return out


def test_lower_partner_is_the_first_lower_partner(monkeypatch):
    # at every call of a gate-corpus search, _lower_partner picks what a
    # scan of the listed partners would
    inner = Solver._lower_partner
    calls = [0, 0]

    def checked(self, c):
        got = inner(self, c)
        assert got is next(
            (d for d in _partners(self, c) if d.cid < c.cid), None)
        calls[0] += 1
        calls[1] += got is not None
        return got

    monkeypatch.setattr(Solver, "_lower_partner", checked)
    for f in _rule1_gate_instances():
        for variant in ("12", "1234", "z"):
            solve(f, SolverConfig.variant(variant))
    assert calls[0] > calls[1] > 0


def _pair_index_fault(s):
    """What is wrong with the solver's pair index, or None: every live
    binary must be listed under its own sorted pair, and no listed live
    binary under another."""
    listed = set()
    for key, lst in s.pairs.items():
        for c in lst:
            if c.live and c.size == 2:
                if tuple(sorted(c.active())) != key:
                    return (f"clause {c.cid} {c.lits} listed under {key} "
                            f"while a binary on {sorted(c.active())}")
                listed.add(c)
    for c in s.f.clauses():
        if c.size == 2 and c not in listed:
            return f"binary clause {c.cid} {c.active()} is not listed"
    return None


class StalePairsSolver(Solver):
    """Negative control: ``Solver._search`` with a node's exit dropping
    its pair-index log entries (``del adds[added:]``) without popping the
    index lists they name, so an entry outlives the binary it indexed."""

    def _search(self, depth: int, prior: list) -> None:
        stats = self.stats
        stats.nodes += 1
        if depth > stats.peak_depth:
            stats.peak_depth = depth
        self._check_deadline()
        f = self.f
        mark = f.mark()
        r1_mark = self.r1_mark
        adds = self.pair_adds
        added = len(adds)
        try:
            try:
                alive = self._simplify()
                if depth == 0:
                    stats.root_lb = min(f.empty_weight, self.ub)
                if not alive:
                    stats.pruned += 1
                    return
                if f.is_empty():
                    cost = f.empty_weight
                    if cost < self.ub:
                        self.ub = cost
                        self.incumbent = solver_mod._complete_assignment(f)
                    return
                found: list = []
                u = solver_mod.underestimation(
                    f, self.ub, self.config, record=self._record,
                    prior=prior, found=found,
                    deadline=self.deadline)
            except MandatoryConflictError:
                stats.pruned += 1
                return
            lb = f.empty_weight + u
            if depth == 0:
                stats.root_lb = min(lb, self.ub)
            if lb >= self.ub:
                stats.pruned += 1
                return
            if depth == 0:
                f.compact_occ()
            var = select_variable(f)
            first = var if select_value(f, var) else -var
            stats.branches += 1
            for lit in (first, -first):
                child = f.mark()
                f.assign_literal(lit)
                self._search(depth + 1, found)
                f.undo_to(child)
                if lb >= self.ub:
                    break
        finally:
            f.undo_to(mark)
            self.r1_mark = r1_mark
            del adds[added:]


def _pair_index_faults(cls, monkeypatch):
    """Per gate-corpus search (``_rule1_gate_instances`` and
    ``_over_constrained_instances`` under 12, 1234 and z) by ``cls``, the
    first fault ``_pair_index_fault`` finds at a ``_lower_partner`` call,
    or None; and the number of calls checked."""
    inner = Solver._lower_partner
    calls = [0]
    fault = []

    def checked(self, c):
        if not fault:
            calls[0] += 1
            found = _pair_index_fault(self)
            if found is not None:
                fault.append(found)
        return inner(self, c)

    monkeypatch.setattr(Solver, "_lower_partner", checked)
    faults = []
    corpus = list(_rule1_gate_instances()) + list(_over_constrained_instances())
    for f in corpus:
        for variant in ("12", "1234", "z"):
            fault.clear()
            cls(f, SolverConfig.variant(variant)).solve()
            faults.append(fault[0] if fault else None)
    return faults, calls[0]


def test_pair_index_lists_every_live_binary_under_its_pair(monkeypatch):
    # at every partner lookup of the gate corpora, every live binary is
    # listed in Solver.pairs under its own pair and none under another
    faults, calls = _pair_index_faults(Solver, monkeypatch)
    assert calls > 0
    assert [x for x in faults if x is not None] == []


def test_stale_pair_index_entries_are_caught(monkeypatch):
    # the negative control: a node that forgets its entries without
    # popping them leaves a clause listed under a pair it no longer has
    faults, _ = _pair_index_faults(StalePairsSolver, monkeypatch)
    assert any(x is not None for x in faults)


def test_solve_twice_restores_slots_and_repeats_trace():
    # every rule product takes a fresh slot and undo pops it, so a second
    # solve of the same formula sees the same slots and fires with the
    # same ids
    for f in list(_rule1_gate_instances())[::3]:
        slots = len(f.slots)
        runs = []
        for _ in range(2):
            trace = []
            res = solve(f, SolverConfig.variant("z"), trace=trace)
            assert len(f.slots) == slots
            assert all(cid >= slots for app in trace for cid in app.produced)
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


def test_root_lb_is_capped_at_the_upper_bound(monkeypatch):
    # the greedy incumbent is optimal (cost 9), so the empty-unit rule
    # fixes x5 False at the root against the only optimal assignment; the
    # root's bound then reads 12 on the rest, and root_lb keeps ub
    f = build(5, [[-5], [-4, -1], [2, -1], [5, -2], [5, 1, -2], [-2, 4, -1],
                  [4, 1, -3], [2, 1, 5], [2], [-3], [2, -5], [5, -4], [4, 5],
                  [2, -1], [4, -5, -3]],
              weights=[9, 7, 8, 7, 6, 9, 6, 1, 7, 7, 1, 5, 8, 7, 7])
    inner = solver_mod.underestimation
    bounds = []

    def spy(formula, *args, **kwargs):
        u = inner(formula, *args, **kwargs)
        bounds.append(formula.empty_weight + u)
        return u

    monkeypatch.setattr(solver_mod, "underestimation", spy)
    stats = solve(f, SolverConfig.variant("0")).stats
    assert brute_force_optimum(f)[0] == 9
    assert bounds == [12]
    assert (stats.start_ub, stats.root_lb) == (9, 9)


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


def test_assigned_variables_have_zero_counts(monkeypatch):
    # the sweeps (select_variable, pure literal, dominating unit clause,
    # empty-unit) tell free variables by their counts alone: a variable the
    # search assigned occurs in no live clause, before and after every
    # simplification and at every branching choice
    def check(f):
        n = f.num_vars
        for v in f.assignment:
            counts = tuple(w[n + s * v] for w in (f.w1, f.w2, f.w3)
                           for s in (1, -1))
            assert counts == (0,) * 6, f"assigned variable {v}: {counts}"

    simplify = Solver._simplify
    select = solver_mod.select_variable
    calls = [0, 0]

    def checked_simplify(self):
        check(self.f)
        alive = simplify(self)
        check(self.f)
        calls[0] += 1
        return alive

    def checked_select(f):
        check(f)
        calls[1] += 1
        return select(f)

    monkeypatch.setattr(Solver, "_simplify", checked_simplify)
    monkeypatch.setattr(solver_mod, "select_variable", checked_select)
    corpus = list(_rule1_gate_instances()) + list(_over_constrained_instances())
    for variant in VARIANTS:
        for f in corpus:
            solve(f, SolverConfig.variant(variant))
    assert calls[0] > 0 and calls[1] > 0


# per group of gate formulas, then per variant: nodes, branches, pruned,
# MandatoryConflictErrors raised. "no_top" is the 40 formulas without a
# TOP, the unweighted two thirds of the rule-1 gate corpus, which the
# incumbent repair leaves alone; "top" is its weighted third plus the 40
# over-constrained formulas
PINNED_SEARCH_COUNTS = {
    "no_top": {
        "0": (423, 231, 135, 0),
        "12": (276, 152, 70, 0),
        "1234": (270, 150, 67, 0),
        "z": (264, 148, 63, 0),
    },
    "top": {
        "0": (978, 460, 488, 0),
        "12": (404, 173, 206, 40),
        "1234": (267, 109, 133, 21),
        "z": (259, 105, 129, 21),
    },
}


# per group and variant: sha256 over each solve's optimum, branches, nodes
# and trace, in corpus order, so a reordered firing with equal totals shows
PINNED_SEARCH_DIGEST = {
    "no_top": {
        "0": "da767339000e504e96fc1ba8575e5a0b57cef0ff49fb7b2ec9ee38cf0b56bccc",
        "12": "ac2ce4c8bd33282a29e99458fa7aa86955ae46b594cdb437238b91a3e3b89be7",
        "1234": "f7f4339c2b4582584e3a74d0b43d56ba16c8aecd2a8b3447a82a6f28fe13d38a",
        "z": "2e1bbb89c392f3c4b767acaec754550de01907ad17c878fe2f1d1249373cb72d",
    },
    "top": {
        "0": "33945a659b00548163384196916266db0b6794228cb9dd3e2c887fafd4ff8ed4",
        "12": "750b6a90c00d5f448c9cee4289a92553b51735928477a6fd2b26deb52a8ba787",
        "1234": "fc0d15a1fb2a050cf06dfabefb9c1b785257f232887c4d221862403f6e66a14c",
        "z": "364b46fd06ecd10eaa5f4b76a099962bc5b387b4c5403089c79133d9276f9a91",
    },
}


def test_search_counts_pinned(monkeypatch):
    # the exact tree of the gate corpus and of the over-constrained corpus,
    # and every firing in it; a change here moves the search and must say
    # why. The formulas without a TOP are pinned apart, so a change that
    # moves only searches with hard clauses shows that it does
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
    groups = {"no_top": [f for f in corpus if f.top is None],
              "top": [f for f in corpus if f.top is not None]}
    assert (len(groups["no_top"]), len(groups["top"])) == (40, 60)
    for group, formulas in groups.items():
        for variant in VARIANTS:
            raised[0] = 0
            totals = [0, 0, 0]
            digest = hashlib.sha256()
            for f in formulas:
                trace = []
                res = solve(f, SolverConfig.variant(variant), trace=trace)
                stats = res.stats
                totals[0] += stats.nodes
                totals[1] += stats.branches
                totals[2] += stats.pruned
                digest.update(repr((
                    res.optimum, stats.branches, stats.nodes,
                    [(app.rule_id, app.consumed, app.produced, app.weight)
                     for app in trace])).encode())
            got = (*totals, raised[0])
            assert got == PINNED_SEARCH_COUNTS[group][variant], (group, variant)
            assert digest.hexdigest() == PINNED_SEARCH_DIGEST[group][variant], \
                (group, variant)


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


def _wpms_shaped_instances():
    """Six formulas of the wpms-z shape, small enough for the oracle at
    every node: n 10-12, 5n soft binaries of weight 1-10 and n // 3 hard
    ternaries at TOP, the sum of the soft weights plus 1."""
    rng = random.Random(0x3471)
    for i in range(6):
        n = rng.randint(10, 12)
        soft = [c.active() for c in gen_random_maxksat(n, 5 * n, 2, 70 + i).clauses()]
        hard = [c.active() for c in
                gen_random_maxksat(n, n // 3, 3, 1070 + i).clauses()]
        weights = [rng.randint(1, 10) for _ in soft]
        top = sum(weights) + 1
        yield Formula.from_clauses(n, soft + hard, weights=weights + [top] * len(hard),
                                   top=top)


def test_residual_bound_admissible_at_every_node_on_wpms_shapes(monkeypatch):
    # the check of test_search_bound_admissible_at_every_node under the
    # variants that keep residual weights, on the shape where subsets mix
    # weights and hold TOP clauses; some subset set aside must leave a
    # clause live that gave weight to it
    inner = solver_mod.underestimation
    take = propagate._take
    kept = [0]

    def checked(formula, *args, **kwargs):
        optimum, _ = brute_force_optimum(formula)
        u = inner(formula, *args, **kwargs)
        lb = min(formula.empty_weight + u, formula.top)
        assert lb <= optimum, f"bound {lb} above the node optimum {optimum}"
        return u

    def counting(formula, subset, aside, touched):
        w = take(formula, subset, aside, touched)
        kept[0] += any(c.live and c.taken for c in subset)
        return w

    monkeypatch.setattr(solver_mod, "underestimation", checked)
    monkeypatch.setattr(propagate, "_take", counting)
    for f in _wpms_shaped_instances():
        for variant in ("1234", "z"):
            solve(f, SolverConfig.variant(variant))
    assert kept[0] > 0


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
            assert f.cost(res.best_assignment) == expected
