import dataclasses
import math
from collections import deque
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

import maxsat.propagate as propagate
from maxsat import (Formula, MandatoryConflictError, NoConflictError, NO_RULE,
                    R3, R4, R5, R6, SolverConfig, brute_force_optimum,
                    build_implication_graph, check_equivalence,
                    classify_conflict, extract_inconsistent_subset,
                    underestimation)
from maxsat.solver import solve

from formulas import THREE_DISJOINT, CHAIN_THEN_SECOND, FORK_THEN_SECOND, WIDE_GRAPH, TWO_UNIT_CHAINS, SHARED_PREFIX_FORK, ORDER_HIDES_PAIR, audit_graph, build, random_clauses, reference_resize
from test_solver import VARIANTS, _rule1_gate_instances

ALL_RULES = SolverConfig.variant("z")
NO_RULES = None
R34_ONLY = SolverConfig(enable_r12=True, enable_r34=True, enable_r56=False)


def clause_sets(clauses):
    return sorted(tuple(sorted(c.active())) for c in clauses)


# ---------- graph construction ----------

def test_graph_bystander_clause_excluded():
    # the no-good clause -5 v 8 stays out of the conflict; the duplicated
    # unit clause contributes a single node
    f = build(8, WIDE_GRAPH)
    g = build_implication_graph(f)
    assert g.conflict is not None
    lit, nlit = g.conflict
    assert abs(lit) == abs(nlit)
    analysis = extract_inconsistent_subset(g)
    assert clause_sets(analysis.subset) == clause_sets(
        [c for c in build(8, WIDE_GRAPH).clauses()
         if tuple(sorted(c.active())) not in ((-5, 8),)][1:])
    audit_graph(g)


def test_graph_no_units_is_empty():
    f = build(3, [[1, 2], [-2, 3]])
    g = build_implication_graph(f)
    assert len(g) == 0 and g.conflict is None


def test_graph_duplicate_units_single_node():
    f = build(1, [[1], [1]])
    g = build_implication_graph(f)
    assert len(g) == 1 and 1 in g.nodes and g.conflict is None


def test_graph_complementary_unit_pair_is_a_conflict():
    # the second unit seeds the conflict's last node; each side is one unit
    f = build(1, [[1], [-1]])
    g = build_implication_graph(f)
    assert g.conflict == (-1, 1)
    analysis = extract_inconsistent_subset(g)
    assert clause_sets(analysis.subset) == [(-1,), (1,)]


def test_graph_reasons_force_their_nodes():
    # each node's reason is a live clause that holds the node literal and
    # whose every other active literal is falsified by an earlier node
    f = build(8, WIDE_GRAPH)
    g = build_implication_graph(f)
    audit_graph(g)
    earlier = set()
    for lit, reason in g.nodes.items():
        assert reason.live
        active = reason.lits[:reason.size]
        assert lit in active
        assert all(-x in earlier for x in active if x != lit), lit
        earlier.add(lit)
    # the pass stops when -7 is forced while 7 waits in Q2, before the
    # bystander 8 is taken
    assert list(g.nodes) == [1, 2, 3, 4, 5, 6, 7, -7]


def test_graph_audit_rejects_missing_predecessor():
    g = build_implication_graph(build(2, [[1], [-1, 2]]))
    assert g.predecessors(1) == () and g.predecessors(2) == (1,)
    del g.nodes[1]
    with pytest.raises(AssertionError, match="predecessor 1 of 2"):
        audit_graph(g)


def test_graph_does_not_mutate_formula():
    f = build(8, WIDE_GRAPH)
    before = f.as_multiset()
    build_implication_graph(f)
    assert f.as_multiset() == before


# ---------- conflict extraction and classification ----------

def test_extract_requires_conflict():
    g = build_implication_graph(build(2, [[1, 2]]))
    with pytest.raises(NoConflictError):
        extract_inconsistent_subset(g)


def test_extract_small_chain():
    f = build(2, [[1], [-1, 2], [-2]])
    g = build_implication_graph(f)
    analysis = extract_inconsistent_subset(g)
    assert clause_sets(analysis.subset) == [(-2,), (-1, 2), (1,)]


def test_classify_two_unit_chains_rule4():
    g = build_implication_graph(build(6, TWO_UNIT_CHAINS))
    analysis = extract_inconsistent_subset(g)
    assert classify_conflict(analysis, g) == R4
    # the consumed clauses are exactly the seven of the example
    assert clause_sets(analysis.consumed) == clause_sets(build(6, TWO_UNIT_CHAINS).clauses())


def test_classify_shared_prefix_fork_rule6():
    g = build_implication_graph(build(4, SHARED_PREFIX_FORK))
    analysis = extract_inconsistent_subset(g)
    assert classify_conflict(analysis, g) == R6


def test_classify_rule3_pattern():
    g = build_implication_graph(build(2, [[1], [-1, -2], [2]]))
    analysis = extract_inconsistent_subset(g)
    assert classify_conflict(analysis, g) == R3


def test_classify_rule5_pattern():
    g = build_implication_graph(build(3, [[1], [-1, 2], [-1, 3], [-2, -3]]))
    analysis = extract_inconsistent_subset(g)
    assert classify_conflict(analysis, g) == R5


def test_classify_all_binary_fork_no_rule():
    # both sides meet at the unit with two nodes outside each: every reason
    # is unit or binary, yet four nodes lie outside the shared part
    g = build_implication_graph(build(4, [[1], [-1, 2], [-1, 3], [-2, 4], [-3, -4]]))
    analysis = extract_inconsistent_subset(g)
    assert set(analysis.s_lit) & set(analysis.s_neg) == {1}
    assert len(analysis.s_lit) + len(analysis.s_neg) == 6
    assert classify_conflict(analysis, g) == NO_RULE
    assert analysis.consumed == [] and analysis.produced == []


def test_classify_ternary_subset_no_rule():
    # the ternary clause blocks every rule
    g = build_implication_graph(build(4, [[1], [3], [4], [-1, -3, -4]]))
    analysis = extract_inconsistent_subset(g)
    assert classify_conflict(analysis, g) == NO_RULE


# ---------- underestimation ----------

def test_underestimation_three_disjoint_subsets():
    f = build(5, THREE_DISJOINT)
    assert underestimation(f, math.inf, NO_RULES) == 3
    assert f.as_multiset() == build(5, THREE_DISJOINT).as_multiset()


def test_underestimation_no_units_zero():
    f = build(3, [[1, 2], [-1, 3], [-2, -3]])
    before = f.as_multiset()
    assert underestimation(f, math.inf, ALL_RULES) == 0
    assert f.as_multiset() == before


def test_underestimation_chain_with_and_without_rules34():
    f = build(4, CHAIN_THEN_SECOND)
    u = underestimation(f, math.inf, R34_ONLY)
    assert f.empty_weight + u == 2
    f = build(4, CHAIN_THEN_SECOND)
    u = underestimation(f, math.inf, SolverConfig.variant("12"))
    assert f.empty_weight + u == 1


def test_underestimation_fork_with_and_without_rule5():
    f = build(4, FORK_THEN_SECOND)
    u = underestimation(f, math.inf, ALL_RULES)
    assert f.empty_weight + u == 2
    f = build(4, FORK_THEN_SECOND)
    u = underestimation(f, math.inf, SolverConfig.variant("1234"))
    assert f.empty_weight + u == 1


def test_underestimation_order_dependent_incompleteness():
    # the first detected subset contains the ternary clause, so no rule
    # fires even though a rule 3 pattern hides in the formula
    f = build(4, ORDER_HIDES_PAIR)
    fired = []
    u = underestimation(f, math.inf, ALL_RULES, record=fired.append)
    assert u == 1
    assert fired == []
    assert f.as_multiset() == build(4, ORDER_HIDES_PAIR).as_multiset()


def test_underestimation_early_exit_at_ub():
    f = build(5, THREE_DISJOINT)
    assert underestimation(f, 1, NO_RULES) == 1
    assert underestimation(f, 2, NO_RULES) == 2
    assert f.as_multiset() == build(5, THREE_DISJOINT).as_multiset()


def test_underestimation_carries_live_prior_subsets():
    # a prior subset is set aside before any propagation, counted at its
    # clauses' current weights, and only while every clause of it is live
    f = build(5, THREE_DISJOINT, weights=[3] * 9)
    found = []
    assert underestimation(f, math.inf, NO_RULES, found=found) == 9
    assert [len(s) for s in found] == [4, 2, 3]
    carried = []
    assert underestimation(f, math.inf, NO_RULES, prior=found,
                           found=carried) == 9
    assert carried == found
    f.reduce_weight(found[1][0], 1)
    f.detach_clause([found[0][-1]])
    carried = []
    assert underestimation(f, math.inf, NO_RULES, prior=found,
                           found=carried) == 2 + 3
    assert carried == [found[1], found[2]]
    f.attach_clause([found[0][-1]])
    # the early exit at ub also stops the carried subsets
    carried = []
    assert underestimation(f, 3, NO_RULES, prior=found, found=carried) == 3
    assert carried == [found[0]]
    f.audit()


# [1] (weight 2) is in both subsets of a residual call: {[1], [-1]} at
# w = 1, then {[1], [-1, 2], [-2]} at the 1 that [1] has left
SHARED_UNIT = [[1], [-1], [-1, 2], [-2]]
SHARED_UNIT_WEIGHTS = [2, 1, 1, 1]


def test_residual_set_aside_raises_the_bound_without_rules(monkeypatch):
    # set aside whole at w = 1, the first subset takes [1] along and no
    # second conflict is left; the residual set-aside leaves [1] at 1 for
    # the second subset. The optimum is 2
    bounds = []
    for take in (whole_take, propagate._take):
        monkeypatch.setattr(propagate, "_take", take)
        f = build(2, SHARED_UNIT, weights=SHARED_UNIT_WEIGHTS)
        bounds.append(underestimation(f, math.inf, SolverConfig.variant("0")))
        f.audit()
    assert bounds == [1, 2]
    assert brute_force_optimum(
        build(2, SHARED_UNIT, weights=SHARED_UNIT_WEIGHTS))[0] == 2


def test_carried_subsets_sharing_a_clause_are_taken_at_what_is_left():
    # a child call takes each carried subset again at the weight its
    # clauses have left: with the weights unchanged it counts the parent's
    # residual sum; once [1] is lowered to 1, the first subset spends it
    # and the second is skipped, where the sum of the two subsets' least
    # weights, 2, would pass the optimum, 1
    f = build(2, SHARED_UNIT, weights=SHARED_UNIT_WEIGHTS)
    found = []
    assert underestimation(f, math.inf, NO_RULES, found=found) == 2
    assert [clause_sets(s) for s in found] == [[(-1,), (1,)],
                                               [(-2,), (-1, 2), (1,)]]
    unit = next(c for c in found[0] if c.active() == [1])
    assert unit in found[1]
    carried = []
    assert underestimation(f, math.inf, NO_RULES, prior=found,
                           found=carried) == 2
    assert carried == found
    assert brute_force_optimum(f)[0] == 2
    f.reduce_weight(unit, 1)
    carried = []
    assert underestimation(f, math.inf, NO_RULES, prior=found,
                           found=carried) == 1
    assert carried == found[:1]
    assert brute_force_optimum(f)[0] == 1
    assert sum(min(c.weight for c in s) for s in found) == 2
    f.audit()


def test_underestimation_determinism(rng):
    for _ in range(15):
        n = rng.randint(3, 8)
        clauses = random_clauses(rng, n, rng.randint(4, 20))
        runs = []
        for _ in range(2):
            f = build(n, clauses)
            u = underestimation(f, math.inf, ALL_RULES)
            runs.append((u, f.empty_weight, sorted(f.as_multiset().items())))
        assert runs[0] == runs[1]


def test_underestimation_preserves_equivalence(rng):
    for variant in ("0", "12", "1234", "z"):
        cfg = SolverConfig.variant(variant)
        for _ in range(25):
            n = rng.randint(3, 9)
            f = build(n, random_clauses(rng, n, rng.randint(3, 22)))
            orig = f.copy()
            underestimation(f, math.inf, cfg)
            assert check_equivalence(orig, f) is None


def test_underestimation_admissible(rng):
    for variant in ("0", "12", "1234", "z"):
        cfg = SolverConfig.variant(variant)
        for _ in range(25):
            n = rng.randint(3, 9)
            f = build(n, random_clauses(rng, n, rng.randint(3, 22)))
            optimum, _ = brute_force_optimum(f)
            u = underestimation(f, math.inf, cfg)
            assert f.empty_weight + u <= optimum


def test_queue_discipline_never_pops_q1_while_q2_pending(monkeypatch):
    # checked from outside on every graph the underestimation builds: when
    # a unit clause seeds a node, no clause of length >= 2 may be a derived
    # unit of the earlier nodes (all but one literal falsified) whose last
    # literal is still missing from the graph
    inner = propagate.build_implication_graph
    seeded_after_derived = 0

    def checked(formula):
        nonlocal seeded_after_derived
        g = inner(formula)
        links = [c.active() for c in formula.clauses() if c.size > 1]
        order = list(g.nodes)
        for k, lit in enumerate(order):
            if g.predecessors(lit):
                continue
            prefix = set(order[:k])
            for lits in links:
                open_lits = [x for x in lits if -x not in prefix]
                assert len(open_lits) != 1 or open_lits[0] in prefix, \
                    f"unit {lit} seeded while {lits} forces {open_lits[0]}"
            seeded_after_derived += any(g.predecessors(x) for x in prefix)
        return g

    monkeypatch.setattr(propagate, "build_implication_graph", checked)
    for clauses, n in ((THREE_DISJOINT, 5), (CHAIN_THEN_SECOND, 4), (FORK_THEN_SECOND, 4), (WIDE_GRAPH, 8), (ORDER_HIDES_PAIR, 4)):
        underestimation(build(n, clauses), math.inf, ALL_RULES)
    assert seeded_after_derived > 0


def test_underestimation_admissible_at_interior_nodes(rng):
    # the bound stays below the residual optimum after branching decisions
    for _ in range(20):
        n = rng.randint(4, 9)
        f = build(n, random_clauses(rng, n, rng.randint(6, 24)))
        for v in rng.sample(range(1, n + 1), rng.randint(1, n - 2)):
            f.assign_literal(v if rng.random() < 0.5 else -v)
        optimum, _ = brute_force_optimum(f)
        u = underestimation(f, math.inf, ALL_RULES)
        assert f.empty_weight + u <= optimum


def test_underestimation_weighted_counts_min_weight():
    f = build(1, [[1], [-1]], weights=[3, 5], top=100)
    assert underestimation(f, math.inf, NO_RULES) == 3
    assert f.as_multiset() == build(1, [[1], [-1]], weights=[3, 5],
                                    top=100).as_multiset()


def whole_take(formula, subset, aside, touched):
    """`propagate._take` as it was: the whole subset set aside at its
    minimum weight, whatever its clauses weigh."""
    formula.detach_clause(subset)
    aside.extend(subset)
    return min(c.weight for c in subset)


def test_residual_set_aside_raises_the_bound(monkeypatch):
    # the first subset holds the ternary and [1] (weight 3) and no rule
    # matches it; set aside whole at w = 1 it takes [1] along, while the
    # residual set-aside leaves [1] at 2 for the rule-3 pattern
    # {[1], [-1, -2], [2]}, which moves 2 into the empty weight
    weights = [3, 1, 1, 1, 2, 2]
    bounds = []
    for take in (whole_take, propagate._take):
        monkeypatch.setattr(propagate, "_take", take)
        f = build(4, ORDER_HIDES_PAIR, weights=weights)
        u = underestimation(f, math.inf, ALL_RULES)
        bounds.append(f.empty_weight + u)
        f.audit()
    assert bounds == [1, 3]
    optimum, _ = brute_force_optimum(build(4, ORDER_HIDES_PAIR, weights=weights))
    assert optimum >= bounds[1]


def test_residual_set_aside_keeps_a_top_clause_live(monkeypatch):
    # the subset {[3], [-1, -2, -3], [2], [1]} is set aside at w = 1: the
    # units [2] and [3] go, the ternary keeps 1 and the TOP unit [1] stays
    # live (TOP - 1 = TOP), so [1] still forces 4 against [-4] and rule 3
    # adds 3; the optimum is 4, the bound is 1 + 3
    clauses = [[1], [2], [3], [-4], [-1, -2, -3], [-1, 4]]
    weights = [10, 1, 1, 3, 2, 3]
    inner = propagate._take
    after = []

    def spying(formula, subset, aside, touched):
        w = inner(formula, subset, aside, touched)
        after.append((w, {tuple(sorted(c.active())): (c.live, c.taken)
                               for c in subset}))
        return w

    monkeypatch.setattr(propagate, "_take", spying)
    f = build(4, clauses, weights=weights, top=10)
    fired = []
    u = underestimation(f, math.inf, ALL_RULES, record=fired.append)
    assert after == [(1, {(3,): (False, 1), (-3, -2, -1): (True, 1),
                          (2,): (False, 1), (1,): (True, 0)})]
    assert [(app.rule_id, app.weight) for app in fired] == [(R3, 3)]
    assert (u, f.empty_weight) == (1, 3)
    f.audit()
    assert brute_force_optimum(build(4, clauses, weights=weights, top=10))[0] == 4


# ---------- exactness against the counter-only propagation ----------

class ReferenceGraph(propagate.ImplicationGraph):
    """An implication graph that also records its insertion order and each
    derived node's predecessors as the node is added."""

    def __init__(self):
        super().__init__()
        self.order: list[int] = []
        self.preds: dict[int, tuple[int, ...]] = {}


def reference_propagate(formula):
    """The propagation loop before the binary fast path: every clause
    counts its falsified literals and Q2 may hold duplicates."""
    occ = formula.occ
    n = formula.num_vars
    formula.prop_stamp += 1
    stamp = formula.prop_stamp
    g = ReferenceGraph()
    nodes, preds, order = g.nodes, g.preds, g.order
    q1 = list(formula.units)
    q2 = deque()
    i1 = 0
    while True:
        if q2:
            lit, reason = q2.popleft()
        elif i1 < len(q1):
            c = q1[i1]
            i1 += 1
            if not c.live or c.size != 1:
                continue
            lit, reason = c.lits[0], c
        else:
            return g
        if lit in nodes:
            continue
        nodes[lit] = reason
        order.append(lit)
        if reason.size > 1:
            preds[lit] = tuple(-x for x in reason.lits[: reason.size] if x != lit)
        if -lit in nodes:
            g.conflict = (lit, -lit)
            return g
        for c in occ[n - lit]:
            if not c.live:
                continue
            if c.stamp != stamp:
                c.stamp = stamp
                c.nfalse = 1
            else:
                c.nfalse += 1
            if c.nfalse == c.size - 1:
                r = 0
                for x in c.lits[: c.size]:
                    if -x not in nodes:
                        r = x
                        break
                if r and r not in nodes:
                    q2.append((r, c))


def reference_detach(formula, clauses):
    """Detach that also unregisters each clause's counts and unit entry."""
    for c in clauses:
        c.live = False
        reference_resize(formula, c, c.size, 0)


def reference_attach(formula, clauses):
    """Reattach that registers each clause again, so a unit goes to the end
    of the registry."""
    for c in clauses:
        c.live = True
        reference_resize(formula, c, 0, c.size)


@contextmanager
def reference_semantics():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "build_implication_graph", reference_propagate)
        mp.setattr(Formula, "detach_clause", reference_detach)
        mp.setattr(Formula, "attach_clause", reference_attach)
        yield


@st.composite
def weighted_states(draw):
    """Clauses of length 1-4, weights (with TOP clauses or all soft),
    literals to assign and indices of clauses to detach."""
    n = draw(st.integers(2, 9))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(
        st.lists(lit, min_size=1, max_size=min(4, n), unique_by=abs),
        min_size=1, max_size=24))
    top = draw(st.sampled_from([None, 50]))
    weights = draw(st.lists(st.integers(1, 6) if top is None
                            else st.sampled_from([1, 2, 3, 50]),
                            min_size=len(clauses), max_size=len(clauses)))
    assign = draw(st.lists(lit, max_size=max(0, n - 2), unique_by=abs))
    detach = draw(st.sets(st.integers(0, len(clauses) - 1),
                          max_size=len(clauses) // 6 + 1))
    return n, clauses, weights, top, assign, detach


def state_formula(n, clauses, weights, top, assign):
    f = build(n, clauses, weights=weights, top=top)
    for lit in assign:
        f.assign_literal(lit)
    return f


def graph_signature(g):
    """Order, predecessors, reason slots and conflict; the reference graph
    supplies its recorded order and predecessors, the solver's graph the
    ones derived from ``nodes``."""
    if isinstance(g, ReferenceGraph):
        order, preds = g.order, g.preds
    else:
        order = list(g.nodes)
        preds = {lit: g.predecessors(lit) for lit in g.nodes
                 if g.predecessors(lit)}
    return (order, preds, {lit: c.cid for lit, c in g.nodes.items()}, g.conflict)


def assert_same_pass(g, ref) -> bool:
    """The solver's pass against the reference pass on the same state.

    A conflict-free graph is the reference graph exactly. A conflict graph
    has the same conflict and the same two sides, subset and side reasons;
    its nodes are the reference's up to the push that determined the
    conflict, followed by ``conflict[1], conflict[0]``, or all of the
    reference's when a unit taken from Q1 met its negation. Returns
    whether the pass stopped before the reference did."""
    audit_graph(g)
    if ref.conflict is None:
        assert graph_signature(g) == graph_signature(ref)
        return False
    assert g.conflict == ref.conflict
    sides = []
    for graph in (g, ref):
        a = extract_inconsistent_subset(graph)
        sides.append((a.s_lit, a.s_neg, [c.cid for c in a.subset],
                      {v: graph.nodes[v].cid for v in a.s_lit + a.s_neg}))
    assert sides[0] == sides[1]
    order = list(g.nodes)
    lit, nlit = g.conflict
    if g.predecessors(lit):
        assert order == ref.order[:len(order) - 2] + [nlit, lit]
    else:
        assert order == ref.order
    return len(order) < len(ref.order)


def reference_pair(n, clauses, weights, top, assign, detach):
    """The solver's graph and the reference graph of one state, each built
    after detaching the clauses in the slots listed in ``detach``."""
    graphs = []
    for reference in (False, True):
        f = state_formula(n, clauses, weights, top, assign)
        with reference_semantics() if reference else nullcontext():
            f.detach_clause([f.slots[i] for i in sorted(detach)
                             if f.slots[i].live])
            graphs.append(propagate.build_implication_graph(f))
    return graphs


EXACTNESS = settings(max_examples=400, deadline=None, derandomize=True)


@EXACTNESS
@given(weighted_states())
def test_propagate_matches_counter_only_reference(state):
    assert_same_pass(*reference_pair(*state))


def conflict_rich_state(rng):
    """Mostly units and binaries over few variables, some ternaries,
    assignments and detached clauses, as a `weighted_states` tuple."""
    n = rng.randint(3, 9)
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), k)]
               for k in [1] * rng.randint(1, 3) + [2] * rng.randint(n, 3 * n)
               + [3] * rng.randint(0, 3)]
    rng.shuffle(clauses)
    weights = [rng.randint(1, 4) for _ in clauses]
    assign = [v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
    detach = set(rng.sample(range(len(clauses)),
                            rng.randint(0, len(clauses) // 5)))
    return n, clauses, weights, None, assign, detach


def test_propagate_stops_early_with_the_reference_conflict(rng):
    early = conflicts = 0
    for _ in range(1500):
        g, ref = reference_pair(*conflict_rich_state(rng))
        early += assert_same_pass(g, ref)
        conflicts += g.conflict is not None
    assert early >= 100 and conflicts > early, (early, conflicts)


# ---------- the conflict walk against the stack walk ----------

def reference_closure(graph, lit: int) -> list[int]:
    """lit plus every node with a path to it, in deterministic DFS order:
    the stack walk that pushes every predecessor of each node."""
    out: dict[int, None] = {}
    stack = [lit]
    nodes = graph.nodes
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out[v] = None
        reason = nodes[v]
        for x in reason.lits[:reason.size]:
            if x != v:
                stack.append(-x)
    return list(out)


def reference_extract(graph) -> propagate.ConflictAnalysis:
    """Both sides by the stack walk, then the subset by a second pass."""
    lit, nlit = graph.conflict
    s_lit = reference_closure(graph, lit)
    s_neg = reference_closure(graph, nlit)
    nodes = graph.nodes
    subset = list(dict.fromkeys([nodes[v] for v in s_lit + s_neg]))
    return propagate.ConflictAnalysis(s_lit=s_lit, s_neg=s_neg, subset=subset)


def first_predecessor_closure(nodes, lit, reasons):
    """A walk that goes on with the first predecessor of a long reason,
    not the last: the same nodes, in another order."""
    out: dict[int, None] = {}
    stack = [lit]
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out[v] = None
        reason = nodes[v]
        reasons[reason] = None
        preds = [-x for x in reason.lits[:reason.size] if x != v]
        stack += reversed(preds)
    return list(out)


def walk_differs(state) -> bool | None:
    """Whether the solver's extraction of the state's conflict graph
    differs from the reference's in either side or the subset's clause
    ids, each in order; None for a conflict-free graph."""
    n, clauses, weights, top, assign, detach = state
    f = state_formula(n, clauses, weights, top, assign)
    f.detach_clause([f.slots[i] for i in sorted(detach) if f.slots[i].live])
    g = build_implication_graph(f)
    if g.conflict is None:
        return None
    sides = [(a.s_lit, a.s_neg, [c.cid for c in a.subset])
             for a in (extract_inconsistent_subset(g), reference_extract(g))]
    return sides[0] != sides[1]


@EXACTNESS
@given(weighted_states())
def test_conflict_walk_matches_stack_walk_reference(state):
    assert not walk_differs(state)


def test_conflict_walk_matches_stack_walk_on_conflict_rich_states(rng):
    long_reasons = 0
    for _ in range(1500):
        state = conflict_rich_state(rng)
        assert not walk_differs(state)
        long_reasons += any(len(c) == 3 for c in state[1])
    assert long_reasons > 500


def test_conflict_walk_reference_rejects_a_first_predecessor_walk(
        rng, monkeypatch):
    # the negative control: continuing with the first predecessor of a
    # ternary reason reaches the same nodes in another order, and the
    # comparison above must see it
    monkeypatch.setattr(propagate, "_closure", first_predecessor_closure)
    differ = sum(bool(walk_differs(conflict_rich_state(rng)))
                 for _ in range(1500))
    assert differ >= 20, differ


@EXACTNESS
@given(weighted_states(),
       st.sampled_from([None, SolverConfig(enable_r34=False, enable_r56=True)]
                       + [SolverConfig.variant(v) for v in ("0", "12", "1234", "z")]),
       st.sampled_from([math.inf, 1, 3]))
def test_underestimation_matches_unregistering_reference(state, config, ub):
    n, clauses, weights, top, assign, _ = state
    sides = []
    for reference in (False, True):
        f = state_formula(n, clauses, weights, top, assign)
        trace = []
        with reference_semantics() if reference else nullcontext():
            try:
                u = underestimation(f, ub, config, record=trace.append)
            except MandatoryConflictError:
                u = "mandatory conflict"
        f.audit()
        sides.append((u, [c.cid for c in f.units], f.empty_weight,
                      f.as_multiset(), trace))
    assert sides[0] == sides[1]


@EXACTNESS
@given(weighted_states(), st.sampled_from(VARIANTS),
       st.sampled_from([math.inf, 1, 3]), st.sampled_from([math.inf, 0.0]))
def test_underestimation_gives_taken_weight_back_on_every_exit(
        state, variant, ub, deadline):
    # the call carries the subsets of a first call under 0 (used under 0
    # and 12 only), so it may also return with weight taken from them as
    # soon as they reach ub. A deadline of 0.0 has passed before the call,
    # so the call ends in SearchTimeout after its first conflict. On every
    # exit each taken weight is 0 again; undoing the call's trail restores
    # every weight, live flag and the multiset, and the units that left
    # the registry during the call (set aside or removed by a rule) come
    # back after the units that stayed, which keep their order
    n, clauses, weights, top, assign, _ = state
    f = state_formula(n, clauses, weights, top, assign)
    prior = []
    underestimation(f, math.inf, SolverConfig.variant("0"), found=prior)
    mark = f.mark()
    entry = [(c.weight, c.live) for c in f.slots]
    before = f.as_multiset()
    registry = list(f.units)
    left = set()

    def leaving(method):
        def wrapper(formula, arg):
            left.update(arg if isinstance(arg, list) else [arg])
            return method(formula, arg)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Formula, "detach_clause", leaving(Formula.detach_clause))
        mp.setattr(Formula, "remove_clause", leaving(Formula.remove_clause))
        try:
            underestimation(f, ub, SolverConfig.variant(variant),
                            prior=prior, deadline=deadline)
        except (propagate.SearchTimeout, MandatoryConflictError):
            pass
    assert all(c.taken == 0 for c in f.slots)
    f.audit()
    f.undo_to(mark)
    assert [(c.weight, c.live) for c in f.slots] == entry
    assert f.as_multiset() == before
    stayed = [c for c in registry if c not in left]
    assert sorted(c.cid for c in f.units) == sorted(c.cid for c in registry)
    assert list(f.units)[:len(stayed)] == stayed
    f.audit()


def reference_carried_underestimation(formula, ub, prior, found) -> int:
    """`underestimation` with no rule 3-6 group, taking one subset at a
    time, carried ones first, with the weight each clause has given kept
    in a local dict: a subset with a clause that is not live counts 0;
    otherwise it counts w, its least weight left, and each clause gives w
    (a TOP clause nothing under a soft w) and is detached, in subset
    order, once it has nothing left."""
    given = {}
    aside = []

    def take(subset):
        if not all(c.live for c in subset):
            return 0
        w = min(c.weight - given.get(c, 0) for c in subset)
        for c in subset:
            if formula.is_top(c.weight) and not formula.is_top(w):
                continue
            given[c] = given.get(c, 0) + w
            if formula.is_top(w) or given[c] == c.weight:
                formula.detach_clause([c])
                aside.append(c)
        return w

    count = 0
    try:
        for subset in prior:
            w = take(subset)
            if not w:
                continue
            count += w
            found.append(subset)
            if count + formula.empty_weight >= ub:
                return count
        while True:
            graph = build_implication_graph(formula)
            if graph.conflict is None:
                break
            subset = extract_inconsistent_subset(graph).subset
            count += take(subset)
            found.append(subset)
            if count + formula.empty_weight >= ub:
                break
    finally:
        formula.attach_clause(aside)
    return count


@EXACTNESS
@given(weighted_states(), st.sampled_from(["0", "12"]),
       st.sampled_from([math.inf, 1, 3]), st.integers(0, 1000))
def test_carried_subsets_match_one_at_a_time_reference(state, variant, ub, pick):
    # the subsets of a first call are carried into a second one, after an
    # assignment that kills every subset holding its variable
    n, clauses, weights, top, assign, _ = state
    config = SolverConfig.variant(variant)
    sides = []
    for reference in (False, True):
        f = state_formula(n, clauses, weights, top, assign)
        prior = []
        underestimation(f, math.inf, config, found=prior)
        lits = sorted({x for s in prior for c in s for x in c.active()})
        if lits:
            f.assign_literal(lits[pick % len(lits)])
        found = []
        if reference:
            u = reference_carried_underestimation(f, ub, prior, found)
        else:
            u = underestimation(f, ub, config, prior=prior, found=found)
        f.audit()
        sides.append((u, [[c.cid for c in s] for s in found],
                      [c.cid for c in f.units], f.as_multiset()))
    assert sides[0] == sides[1]


# ---------- exactness against the chain-walking classifier ----------

def _chain_from(graph, endpoint: int, side: set[int]):
    """Walk predecessors from the endpoint; the chain in unit-to-endpoint
    order, or None if the side is not a single implication chain."""
    chain = [endpoint]
    v = endpoint
    while True:
        ps = graph.predecessors(v)
        if not ps:
            break
        if len(ps) != 1:
            return None
        v = ps[0]
        chain.append(v)
    if len(chain) != len(side) or any(x not in side for x in chain):
        return None
    chain.reverse()
    return chain


def reference_classify_conflict(analysis, graph) -> str:
    """Match the conflict against the rule-detection shapes.

    Linear shape (both sides disjoint chains, one unit clause each) fires
    rule 3 or 4; single-unit shape with a shared chain prefix and a
    three-node fork fires rule 5 or 6. Anything else: no rule. On a match
    the analysis is filled with the consumed clauses and the replacement
    clause literals.
    """
    nodes = graph.nodes
    lit, nlit = graph.conflict
    set_l = set(analysis.s_lit)
    set_n = set(analysis.s_neg)
    inter = set_l & set_n

    analysis.consumed = []
    analysis.produced = []

    if not inter:
        # rules 3/4 shape: each side one unit and a chain of binaries
        for side_set, endpoint in ((set_l, lit), (set_n, nlit)):
            units = [v for v in side_set if nodes[v].size == 1]
            if len(units) != 1:
                return NO_RULE
            if any(nodes[v].size > 2 for v in side_set):
                return NO_RULE
            if _chain_from(graph, endpoint, side_set) is None:
                return NO_RULE
        consumed = [nodes[v] for v in analysis.s_lit] + \
                   [nodes[v] for v in analysis.s_neg]
        produced = [[-x for x in c.active()] for c in consumed if c.size == 2]
        total = len(set_l) + len(set_n)
        analysis.consumed = consumed
        analysis.produced = produced
        return R3 if total <= 3 else R4

    # rules 5/6 shape: one unit overall, all else binary, the shared
    # part a chain, and exactly three nodes outside it
    union = list(dict.fromkeys(analysis.s_lit + analysis.s_neg))
    units = [v for v in union if nodes[v].size == 1]
    if len(units) != 1 or any(nodes[v].size > 2 for v in union):
        return NO_RULE
    unit = units[0]
    if unit not in inter:
        return NO_RULE
    diff = [v for v in union if v not in inter]
    if len(diff) != 3 or lit not in diff or nlit not in diff:
        return NO_RULE
    third = next(v for v in diff if v != lit and v != nlit)
    # shared prefix must be a chain starting at the unit clause
    succ: dict[int, int] = {}
    for v in inter:
        if v == unit:
            continue
        p = graph.predecessors(v)[0]
        if p in succ:
            return NO_RULE
        succ[p] = v
    chain = [unit]
    while chain[-1] in succ:
        chain.append(succ[chain[-1]])
    if len(chain) != len(inter) or any(v not in inter for v in chain):
        return NO_RULE
    lk = chain[-1]
    # fork: lk implies the third literal and one conflict literal directly,
    # the third implies the other conflict literal
    if graph.predecessors(third) != (lk,):
        return NO_RULE
    pl, pn = graph.predecessors(lit), graph.predecessors(nlit)
    if pl == (lk,) and pn == (third,):
        z = lit
    elif pn == (lk,) and pl == (third,):
        z = nlit
    else:
        return NO_RULE
    chain_clauses = [nodes[v] for v in chain[1:]]
    consumed = [nodes[unit]] + chain_clauses + \
        [nodes[third], nodes[z], nodes[-z]]
    produced = [[-x for x in c.active()] for c in chain_clauses]
    produced.append([lk, -third, -z])
    produced.append([-lk, third, z])
    analysis.consumed = consumed
    analysis.produced = produced
    return R5 if len(chain) == 1 else R6


def diagnosis(rule, analysis):
    """The rule, the consumed slot ids and the products; a rule 5/6
    consumed list holds the shared chain's clauses in order."""
    return (rule, [c.cid for c in analysis.consumed], analysis.produced)


@contextmanager
def classify_against_reference():
    """Every `classify_conflict` call the underestimation makes is checked
    against the chain-walking classifier; yields the per-rule call counts."""
    inner = propagate.classify_conflict
    calls = {}

    def checked(analysis, graph):
        ref = dataclasses.replace(analysis)
        expected = diagnosis(reference_classify_conflict(ref, graph), ref)
        rule = inner(analysis, graph)
        assert diagnosis(rule, analysis) == expected, (analysis.s_lit, analysis.s_neg)
        calls[rule] = calls.get(rule, 0) + 1
        return rule

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "classify_conflict", checked)
        yield calls


@st.composite
def unit_rich_formulas(draw):
    """n 2-8: 1-5 units, 2-16 binaries and up to 4 clauses of length 3-4,
    in a drawn order; soft weights 1-6, or weights with TOP clauses."""
    n = draw(st.integers(2, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    units = draw(st.lists(lit.map(lambda x: [x]), min_size=1, max_size=5))
    binaries = draw(st.lists(st.lists(lit, min_size=2, max_size=2, unique_by=abs),
                             min_size=2, max_size=16))
    longer = draw(st.lists(
        st.lists(lit, min_size=3, max_size=4, unique_by=abs), max_size=4)
        if n >= 3 else st.just([]))
    clauses = draw(st.permutations(units + binaries + longer))
    top = draw(st.sampled_from([None, 50]))
    weights = draw(st.lists(st.integers(1, 6) if top is None
                            else st.sampled_from([1, 2, 3, 50]),
                            min_size=len(clauses), max_size=len(clauses)))
    return n, clauses, weights, top


CLASSIFYING = [SolverConfig.variant("z"), R34_ONLY,
               SolverConfig(enable_r12=True, enable_r34=False, enable_r56=True)]


@EXACTNESS
@given(unit_rich_formulas())
def test_classify_matches_chain_walking_reference(formula):
    # every root conflict, before and after the rules each config fires
    n, clauses, weights, top = formula
    for config in CLASSIFYING:
        f = build(n, clauses, weights=weights, top=top)
        with classify_against_reference():
            try:
                underestimation(f, math.inf, config)
            except MandatoryConflictError:
                pass
        f.audit()


def test_classify_matches_reference_inside_solve():
    # every classification met while solving the rule-1 gate corpus
    with classify_against_reference() as calls:
        for f in _rule1_gate_instances():
            for variant in ("1234", "z"):
                solve(f.copy(), SolverConfig.variant(variant))
    assert all(calls.get(rule, 0) > 0 for rule in (NO_RULE, R3, R4, R5, R6)), calls
