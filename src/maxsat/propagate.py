"""Simulated unit propagation and the lower-bound underestimation.

Propagation never commits assignments: it grows an implication graph
whose nodes are literals and stops at the first complementary pair.
The clauses labeling the nodes that reach the conflict form an
inconsistent subset; its shape decides whether an inference rule fires
(making the contradiction explicit as empty-clause weight) or the subset
is set aside and the underestimation counter grows.

Unit clauses are consumed through two FIFO queues: propagation starts
from the formula's unit clauses (Q1, in registry order) but never takes
one while a derived unit (Q2) is pending, which biases inconsistent
subsets toward containing few original unit clauses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .formula import Clause, Formula
from .rules import (NO_RULE, R3, R4, R5, R6, PatternError, RuleApplication,
                    SolverConfig, _check_live, _fire)


class NoConflictError(ValueError):
    pass


class SearchTimeout(Exception):
    """The solver's deadline passed; raised by the search and by
    `underestimation`, and caught by ``Solver.solve``."""


class ImplicationGraph:
    """DAG of forced literals; each node carries the clause that forced it.

    ``nodes`` maps each literal to its reason clause, in propagation order;
    a node's incoming edges come from the negations of the reason's other
    literals, so they are derived, not stored. A graph is therefore valid
    only until one of its reason clauses changes: a rule fires on it or an
    assignment hides one of its literals. A conflict-free graph is the
    complete propagation; a conflict graph holds the nodes taken before
    the conflict was determined, then the conflicting pair.
    """

    def __init__(self):
        self.nodes: dict[int, Clause] = {}      # literal -> associated clause
        self.conflict: tuple[int, int] | None = None  # (last added, its negation)

    def predecessors(self, lit: int) -> tuple[int, ...]:
        """The nodes with an edge to lit; empty for a unit-seeded node."""
        reason = self.nodes[lit]
        return tuple(-x for x in reason.lits[:reason.size] if x != lit)

    def __len__(self) -> int:
        return len(self.nodes)


def build_implication_graph(formula: Formula) -> ImplicationGraph:
    """One construction pass; stops as soon as its conflict is determined.

    Units seed the graph from Q1 in registry order; Q2 holds the literals
    forced since, and Q1 is read only while Q2 is empty. A binary clause
    forces its other literal as soon as one of its literals is falsified;
    longer clauses count their falsified literals in the ``nfalse`` /
    ``stamp`` scratch fields. ``queued`` maps every literal ever seeded or
    queued to its reason, so each literal is queued at most once, with its
    first reason. A forced literal that is already queued, or whose
    negation is already a node, is skipped. A seeded unit whose negation
    is a node is a conflict (so a complementary unit pair is an ordinary
    conflict, each side one unit clause). A forced literal ``r`` whose
    negation is queued but not yet a node ends the pass: ``-r`` becomes a
    node with its queued reason, then ``r`` with the forcing clause, and
    the conflict is ``(r, -r)``.

    This is the graph of the pass that checks for conflicts only when it
    takes a literal off a queue, cut short. Q2 is FIFO and Q1 waits while
    Q2 holds anything, so literals leave Q2 in the order they entered it,
    each with its first reason; a literal queued while its negation waits
    would be found in conflict when it is taken, and no earlier take can
    conflict, since a conflict at a take means the negation was already
    waiting at the literal's push. So the same pair is found, with the
    same two reasons, and the nodes are that pass's nodes up to the push
    followed by ``-r, r``. `_closure`, `extract_inconsistent_subset` and
    `classify_conflict` read only reasons reachable from the pair, so the
    subset and the rule are the same; a conflict-free pass builds exactly
    the same graph.
    """
    occ = formula.occ
    n = formula.num_vars
    formula.prop_stamp += 1
    stamp = formula.prop_stamp
    g = ImplicationGraph()
    nodes = g.nodes
    queued: dict[int, Clause] = {}
    # the registry holds only live units; propagation does not edit it
    for unit in formula.units:
        lit = unit.lits[0]
        if lit in queued:
            continue
        if -lit in queued:      # Q2 is empty: every queued literal is a node
            nodes[lit] = unit
            g.conflict = (lit, -lit)
            return g
        queued[lit] = unit
        q2 = [lit]
        # Q2: the loop takes the literals appended while it runs, in order
        for lit in q2:
            nodes[lit] = queued[lit]
            # every clause holding -lit loses one candidate literal
            nl = -lit
            for c in occ[n + nl]:
                if not c.live:
                    continue
                k = c.size
                if k == 2:
                    lits = c.lits
                    r = lits[0] + lits[1] + lit     # c holds nl = -lit
                elif k > 2:
                    if c.stamp != stamp:
                        c.stamp = stamp
                        c.nfalse = 1
                        continue
                    c.nfalse += 1
                    if c.nfalse != k - 1:
                        continue
                    # the one literal whose negation is not a node
                    for r in c.lits[:k]:
                        if -r not in nodes:
                            break
                else:           # the unit -lit: Q1 meets it
                    continue
                if r in queued:
                    continue
                if -r in queued:
                    if -r in nodes:
                        continue
                    nodes[-r] = queued[-r]
                    nodes[r] = c
                    g.conflict = (r, -r)
                    return g
                queued[r] = c
                q2.append(r)
    return g


@dataclass
class ConflictAnalysis:
    """The two sides of a propagation conflict and, once `classify_conflict`
    matches a rule, the clauses it consumes and the literals it produces."""

    s_lit: list[int]                 # conflict[0] and the nodes reaching it
    s_neg: list[int]                 # the same for conflict[1]
    subset: list[Clause]             # reasons of s_lit then s_neg, deduplicated
    consumed: list[Clause] = field(default_factory=list)
    produced: list[list[int]] = field(default_factory=list)


def _closure(nodes: dict[int, Clause], lit: int,
             reasons: dict[Clause, None]) -> list[int]:
    """lit plus every node with a path to it, in deterministic DFS order;
    each node's reason enters ``reasons`` as the node is reached.

    The order is that of a stack walk that pushes a node's predecessors in
    literal order and pops the last one first. A unit reason has no
    predecessor, and a binary {a, b} forcing v has the one predecessor
    v - a - b, followed with no push; a longer reason pushes every
    predecessor but its last and goes on with the last."""
    out: dict[int, None] = {}
    stack: list[int] = []
    v = lit
    while True:
        if v not in out:
            out[v] = None
            reason = nodes[v]
            reasons[reason] = None
            k = reason.size
            if k == 2:
                lits = reason.lits
                v = v - lits[0] - lits[1]
                continue
            if k > 2:
                preds = [-x for x in reason.lits[:k] if x != v]
                v = preds.pop()
                stack += preds
                continue
        if not stack:
            return list(out)
        v = stack.pop()


def extract_inconsistent_subset(graph: ImplicationGraph) -> ConflictAnalysis:
    """Reverse reachability from both conflict literals, one walk a side.

    The subset lists each reason once, first seen first: the reasons of
    s_lit's nodes in order, then those of s_neg's. The analysis is not
    classified: `classify_conflict` fills in the rule shape, and
    `underestimation` runs it only when a rule group is on.
    """
    if graph.conflict is None:
        raise NoConflictError("graph has no complementary node pair")
    lit, nlit = graph.conflict
    nodes = graph.nodes
    # detach order decides reattach order, and so the unit order Q1 follows
    reasons: dict[Clause, None] = {}
    s_lit = _closure(nodes, lit, reasons)
    s_neg = _closure(nodes, nlit, reasons)
    return ConflictAnalysis(s_lit=s_lit, s_neg=s_neg, subset=list(reasons))


def classify_conflict(analysis: ConflictAnalysis, graph: ImplicationGraph) -> str:
    """Match the conflict against the rule-detection shapes.

    Every rule 3-6 shape is made of unit and binary clauses, so a reason
    with more than two active literals rules them all out. Once every
    reason is unit or binary, each node has at most one predecessor, and
    `_closure` returns each side as a path from its conflict literal down
    to the one unit-seeded node it starts from. Two such paths that meet
    share everything below the meeting node, so the sides are either
    disjoint or end in the same suffix. Neither conflict literal is on the
    other's side: the last node added has no successor, and propagation
    never forces r through a binary while -r is a node.

    Disjoint sides fire rule 3 (at most three clauses) or rule 4. Sides
    sharing a suffix fire rule 5 (one shared node) or rule 6 when exactly
    three nodes lie outside it: the endpoint z alone on one side, the
    other endpoint behind a third node on the other. On a match the
    analysis is filled with the consumed clauses and the replacement
    clause literals.
    """
    nodes = graph.nodes
    s_lit, s_neg = analysis.s_lit, analysis.s_neg
    analysis.consumed = []
    analysis.produced = []
    for c in analysis.subset:
        if c.size > 2:
            return NO_RULE
    k = len(set(s_lit).intersection(s_neg))
    if k == 0:
        consumed = [nodes[v] for v in s_lit + s_neg]
        produced = [[-x for x in c.active()] for c in consumed if c.size == 2]
        cls = R3 if len(consumed) <= 3 else R4
    elif len(s_lit) + len(s_neg) - 2 * k == 3:
        alone, forked = (s_lit, s_neg) if len(s_lit) == k + 1 else (s_neg, s_lit)
        z, third = alone[0], forked[1]
        chain = alone[:0:-1]            # the shared suffix, unit first
        lk = chain[-1]
        chain_clauses = [nodes[v] for v in chain[1:]]
        consumed = [nodes[chain[0]]] + chain_clauses + \
            [nodes[third], nodes[z], nodes[-z]]
        produced = [[-x for x in c.active()] for c in chain_clauses]
        produced.append([lk, -third, -z])
        produced.append([-lk, third, z])
        cls = R5 if k == 1 else R6
    else:
        return NO_RULE
    analysis.consumed = consumed
    analysis.produced = produced
    return cls


def apply_conflict_rule(formula: Formula, clauses) -> RuleApplication:
    """Fire rule 3, 4, 5 or 6 on a pattern through the solver's own path.

    The pattern is propagated in a scratch formula and its conflict
    classified by `classify_conflict`; the pattern must be exactly the
    consumed clauses. The matching caller clauses are then rewritten by
    `_fire` with the classifier's rule id and replacement literals.
    """
    clauses = list(clauses)
    _check_live(clauses)
    scratch = Formula(formula.num_vars, top=formula.top)
    scratch.add_clauses_unchecked([c.active() for c in clauses],
                                  [c.weight for c in clauses])
    origin = dict(zip(scratch.slots, clauses))
    graph = build_implication_graph(scratch)
    if graph.conflict is None:
        raise PatternError("pattern propagates to no conflict")
    analysis = extract_inconsistent_subset(graph)
    cls = classify_conflict(analysis, graph)
    if cls == NO_RULE:
        raise PatternError("conflict matches no rule 3-6 shape")
    if len(analysis.consumed) != len(clauses):
        raise PatternError("the rule consumes only part of the pattern")
    return _fire(formula, cls,
                 [origin[c] for c in analysis.consumed], analysis.produced)


def _live_weight(subset) -> int:
    """The minimum weight of a subset's clauses, or 0 if one is not live."""
    w = subset[0].weight
    for c in subset:
        if not c.live:
            return 0
        if c.weight < w:
            w = c.weight
    return w


def _take(formula: Formula, subset, aside: list, touched: list) -> int:
    """Set a subset aside at w, the least of its clauses' weights net of
    ``taken``, and return w. Each soft clause gives w to its ``taken``
    (clauses giving for the first time go to ``touched``), and those left
    with nothing are detached and appended to ``aside``; a TOP clause
    gives nothing under a soft w, as TOP - w = TOP. When every clause
    holds exactly w, or w is TOP, the whole subset goes in one detach."""
    c = subset[0]
    w = c.weight - c.taken
    equal = True
    for c in subset:
        v = c.weight - c.taken
        if v != w:
            equal = False
            if v < w:
                w = v
    top = formula.top
    if equal or (top is not None and w >= top):
        formula.detach_clause(subset)
        aside.extend(subset)
        return w
    spent = []
    for c in subset:
        v = c.weight
        if top is not None and v >= top:
            continue
        if not c.taken:
            touched.append(c)
        c.taken += w
        if c.taken == v:
            spent.append(c)
    formula.detach_clause(spent)
    aside.extend(spent)
    return w


def underestimation(formula: Formula, ub, config: SolverConfig | None = None,
                    *, record=None, prior=(), found=None,
                    deadline: float = math.inf) -> int:
    """Lower-bound underestimation via repeated propagation conflicts.

    Each conflict either fires an enabled inference rule (the formula is
    transformed in place on the trail and the contradiction moves into
    empty-clause weight) or its inconsistent subset is set aside and the
    count grows by the subset's minimum weight w. Conflicts are classified
    only when rule group 3/4 or 5/6 is enabled. Stops early once
    count + empty_weight reaches ub. Clauses set aside are reattached on
    exit, so apart from rule transformations the formula is unchanged.
    Each firing's `RuleApplication` is passed to ``record``, when given.

    With rule group 3/4 or 5/6 on, a subset set aside gives w from each
    of its clauses and keeps the rest in the bound's formula (`_take`):
    w goes to the clause's untrailed ``taken``, a clause left with
    nothing is detached, and a TOP clause stays live under a soft w. So
    every clause counts up to its weight over all the subsets that hold
    it, the standard weighted form of this bound. `_fire` reads weights
    net of ``taken``, and a clause that a firing leaves with nothing is
    detached too. Every ``taken`` is 0 again, and every detached clause
    reattached, on any exit. The trail keeps the true weights, so undo
    and the rest of the search never see ``taken``. With rules 3-6 off
    (variants ``0`` and ``12``) each subset is set aside whole, because
    the carried subsets described below must share no clause.

    ``prior`` holds subsets set aside at an ancestor node. It is ignored
    when rule group 3/4 or 5/6 is on: carried subsets take the clauses
    those rules fire on, and with them on the search branched more in
    measurements. Otherwise, before any propagation, each one whose
    clauses are all ``live`` is set aside again, counted at the minimum
    of its clauses' current weights (rules 1 and 2 may have lowered them
    since); the survivors, in ``prior`` order up to the one that reaches
    ub, go aside in one `detach_clause` call. Liveness is the whole test:
    every variable of a propagation subset occurs in both polarities
    among its active literals (a node's reason holds the node literal,
    and a successor's reason or the other conflict side holds its
    negation), so any assignment that touches the subset satisfies one of
    its clauses and kills it. A subset whose clauses are all live thus
    has no assigned variable, its literals are unchanged, and it is still
    inconsistent. Every subset set aside, carried or new, is appended to
    ``found``.

    Between propagation passes, ``SearchTimeout`` is raised once
    ``time.monotonic()`` has passed ``deadline`` (``inf``: never); the
    clauses set aside are reattached as on any other exit.
    """
    r34 = config is not None and config.enable_r34
    r56 = config is not None and config.enable_r56
    residual = r34 or r56
    if residual:
        prior = ()
    if found is None:
        found = []
    aside: list[Clause] = []      # detached by this call, in detach order
    touched: list[Clause] = []    # clauses whose ``taken`` this call raised
    count = 0
    try:
        # carried subsets are disjoint: setting one aside leaves the
        # others' liveness as it was, so the survivors go in one call
        limit = ub - formula.empty_weight
        survivors = []
        for subset in prior:
            w = _live_weight(subset)
            if not w:
                continue
            count += w
            survivors.append(subset)
            if count >= limit:
                break
        if survivors:
            aside = [c for s in survivors for c in s]
            formula.detach_clause(aside)
            found.extend(survivors)
            # the count grows with each survivor, so the loop broke at the
            # last one; with none set aside, propagation decides
            if count >= limit:
                return count
        while True:
            graph = build_implication_graph(formula)
            if graph.conflict is None:
                break
            analysis = extract_inconsistent_subset(graph)
            subset = analysis.subset
            if residual:
                cls = classify_conflict(analysis, graph)
                if (r34 and cls in (R3, R4)) or (r56 and cls in (R5, R6)):
                    app = _fire(formula, cls, analysis.consumed,
                                analysis.produced)
                    if record is not None:
                        record(app)
                    # with nothing taken, every clause a firing keeps
                    # has weight left for the bound
                    if touched:
                        spent = [c for c in analysis.consumed
                                 if c.taken == c.weight]
                        if spent:
                            formula.detach_clause(spent)
                            aside += spent
                else:
                    count += _take(formula, subset, aside, touched)
                    found.append(subset)
            else:
                count += _live_weight(subset)
                formula.detach_clause(subset)
                aside += subset
                found.append(subset)
            if count + formula.empty_weight >= ub:
                break
            if time.monotonic() > deadline:
                raise SearchTimeout
    finally:
        formula.attach_clause(aside)
        for c in touched:
            c.taken = 0
    return count
