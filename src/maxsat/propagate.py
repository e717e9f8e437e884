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

from collections import deque
from dataclasses import dataclass, field

from .formula import Clause, Formula
from .rules import (NO_RULE, R3, R4, R5, R6, PatternError, RuleApplication,
                    SolverConfig, _check_live, _fire)


class ComplementaryUnitsError(ValueError):
    """The formula still holds a complementary unit pair (rule 2 work)."""


class NoConflictError(ValueError):
    pass


class ImplicationGraph:
    """DAG of forced literals; each node carries the clause that forced it.

    ``nodes`` maps each literal to its reason clause, in propagation order;
    a node's incoming edges come from the negations of the reason's other
    literals, so they are derived, not stored. A graph is therefore valid
    only until one of its reason clauses changes: a rule fires on it or an
    assignment hides one of its literals.
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

    def audit(self) -> None:
        """Acyclicity: every edge points forward in insertion order."""
        pos = {lit: i for i, lit in enumerate(self.nodes)}
        for lit in self.nodes:
            for p in self.predecessors(lit):
                if p not in pos:
                    raise AssertionError(f"predecessor {p} of {lit} is not a node")
                if pos[p] >= pos[lit]:
                    raise AssertionError(f"edge {p}->{lit} violates acyclicity")


def _propagate(formula: Formula) -> ImplicationGraph:
    """One construction pass; stops at the first complementary node pair.

    A binary clause forces its other literal as soon as one of its
    literals is falsified. Longer clauses count their falsified literals
    in the ``nfalse``/``stamp`` scratch fields. A literal already waiting
    in Q2 is not queued again: its first entry is popped before Q1 is
    touched, so a later entry could only be skipped.
    """
    occ = formula.occ
    n = formula.num_vars
    formula.prop_stamp += 1
    stamp = formula.prop_stamp
    g = ImplicationGraph()
    nodes = g.nodes
    q1 = list(formula.units)
    q2: deque = deque()
    queued: set[int] = set()
    i1 = 0
    n1 = len(q1)
    while True:
        if q2:
            lit, reason = q2.popleft()
            nodes[lit] = reason
        elif i1 < n1:
            c = q1[i1]
            i1 += 1
            if not c.live or c.size != 1:
                continue
            lit = c.lits[0]
            if lit in nodes:
                continue
            nodes[lit] = c
        else:
            return g
        if -lit in nodes:
            g.conflict = (lit, -lit)
            return g
        # every clause holding -lit loses one candidate literal
        nl = -lit
        for c in occ[n + nl]:
            if not c.live:
                continue
            k = c.size
            if k == 2:
                lits = c.lits
                r = lits[1] if lits[0] == nl else lits[0]
                # -r already a node: this binary was met from -r before
                if r not in queued and r not in nodes and -r not in nodes:
                    queued.add(r)
                    q2.append((r, c))
            elif k > 2:
                if c.stamp != stamp:
                    c.stamp = stamp
                    c.nfalse = 1
                    continue
                c.nfalse += 1
                if c.nfalse == k - 1:
                    r = 0
                    for x in c.lits[:k]:
                        if -x not in nodes:
                            r = x
                            break
                    if r and r not in queued and r not in nodes:
                        queued.add(r)
                        q2.append((r, c))


def build_implication_graph(formula: Formula) -> ImplicationGraph:
    """Construct the implication graph of the formula's unit propagation.

    The formula must not contain a complementary unit pair (those belong
    to rule 2); the lower-bound computation uses the tolerant internal
    path instead and treats such pairs as ordinary conflicts.
    """
    seen = set()
    for c in formula.units:
        lit = c.lits[0]
        if -lit in seen:
            raise ComplementaryUnitsError(
                f"complementary unit clauses on variable {abs(lit)}")
        seen.add(lit)
    return _propagate(formula)


@dataclass
class ConflictAnalysis:
    """The two sides of a propagation conflict and their rule diagnosis
    (filled in by `classify_conflict`)."""

    lit: int
    neg_lit: int
    s_lit: list[int]                 # nodes with a path to lit, plus lit
    s_neg: list[int]
    subset: list[Clause]             # reasons of s_lit then s_neg, deduplicated
    classification: str = NO_RULE
    intersection_chain: list[int] = field(default_factory=list)
    consumed: list[Clause] = field(default_factory=list)
    produced: list[list[int]] = field(default_factory=list)


def _closure(graph: ImplicationGraph, lit: int) -> list[int]:
    """lit plus every node with a path to it, in deterministic DFS order."""
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


def extract_inconsistent_subset(graph: ImplicationGraph) -> ConflictAnalysis:
    """Reverse reachability from both conflict literals.

    The analysis is not classified: `classify_conflict` fills in the rule
    shape, and `underestimation` runs it only when a rule group is on.
    """
    if graph.conflict is None:
        raise NoConflictError("graph has no complementary node pair")
    lit, nlit = graph.conflict
    s_lit = _closure(graph, lit)
    s_neg = _closure(graph, nlit)
    nodes = graph.nodes
    # detach order decides reattach order, and so the unit order Q1 follows
    subset = list(dict.fromkeys([nodes[v] for v in s_lit + s_neg]))
    return ConflictAnalysis(lit=lit, neg_lit=nlit, s_lit=s_lit, s_neg=s_neg,
                            subset=subset)


def classify_conflict(analysis: ConflictAnalysis, graph: ImplicationGraph) -> str:
    """Match the conflict against the rule-detection shapes.

    Every rule 3-6 shape is made of unit and binary clauses, so a reason
    with more than two active literals rules them all out. Once every
    reason is unit or binary, each node has at most one predecessor, and
    `_closure` returns each side as a path from its conflict literal down
    to the one unit-seeded node it starts from. Two such paths that meet
    share everything below the meeting node, so the sides are either
    disjoint or end in the same suffix. Neither conflict literal is on the
    other's side: the last node added has no successor, and `_propagate`
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
    analysis.classification = NO_RULE
    analysis.intersection_chain = []
    analysis.consumed = []
    analysis.produced = []
    if any(nodes[v].size > 2 for v in s_lit + s_neg):
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
        analysis.intersection_chain = chain
    else:
        return NO_RULE
    analysis.classification = cls
    analysis.consumed = consumed
    analysis.produced = produced
    return cls


def apply_conflict_rule(formula: Formula, clauses, stats=None,
                        trace=None) -> RuleApplication:
    """Fire rule 3, 4, 5 or 6 on a pattern through the solver's own path.

    The pattern is propagated in a scratch formula and its conflict
    classified by `classify_conflict`; the pattern must be exactly the
    consumed clauses. The matching caller clauses are then rewritten by
    `_fire` with the classifier's rule id and replacement literals.
    """
    clauses = list(clauses)
    _check_live(clauses)
    scratch = Formula(formula.num_vars, top=formula.top)
    origin = {scratch.add_clause(c.active(), c.weight): c for c in clauses}
    graph = _propagate(scratch)
    if graph.conflict is None:
        raise PatternError("pattern propagates to no conflict")
    analysis = extract_inconsistent_subset(graph)
    if classify_conflict(analysis, graph) == NO_RULE:
        raise PatternError("conflict matches no rule 3-6 shape")
    if len(analysis.consumed) != len(clauses):
        raise PatternError("the rule consumes only part of the pattern")
    return _fire(formula, analysis.classification,
                 [origin[c] for c in analysis.consumed], analysis.produced,
                 stats=stats, trace=trace)


def underestimation(formula: Formula, ub, config: SolverConfig | None = None,
                    stats=None, trace=None, *, prior=(), found=None) -> int:
    """Lower-bound underestimation via repeated propagation conflicts.

    Each conflict either fires an enabled inference rule (the formula is
    transformed in place on the trail and the contradiction moves into
    empty-clause weight) or its inconsistent subset is set aside and the
    count grows by the subset's minimum weight. Conflicts are classified
    only when rule group 3/4 or 5/6 is enabled. Stops early once
    count + empty_weight reaches ub. Clauses set aside are reattached on
    exit, so apart from rule transformations the formula is unchanged.

    ``prior`` holds subsets set aside at an ancestor node. Before any
    propagation, each one whose clauses are all ``live`` is set aside
    again, counted at the minimum of its clauses' current weights (rules
    1 and 2 may have lowered them since). Liveness is the whole test:
    every variable of a propagation subset occurs in both polarities
    among its active literals (a node's reason holds the node literal,
    and a successor's reason or the other conflict side holds its
    negation), so any assignment that touches the subset satisfies one of
    its clauses and kills it. A subset whose clauses are all live thus
    has no assigned variable, its literals are unchanged, and it is still
    inconsistent. Every subset set aside, carried or new, is appended to
    ``found``.
    """
    r34 = config is not None and config.enable_r34
    r56 = config is not None and config.enable_r56
    if found is None:
        found = []
    count = 0
    detached: list[Clause] = []
    try:
        for subset in prior:
            if not all(c.live for c in subset):
                continue
            count += min(c.weight for c in subset)
            for c in subset:
                formula.detach_clause(c)
                detached.append(c)
            found.append(subset)
            if count + formula.empty_weight >= ub:
                return count
        while True:
            graph = _propagate(formula)
            if graph.conflict is None:
                break
            analysis = extract_inconsistent_subset(graph)
            applied = False
            if r34 or r56:
                cls = classify_conflict(analysis, graph)
                if (r34 and cls in (R3, R4)) or (r56 and cls in (R5, R6)):
                    _fire(formula, cls, analysis.consumed, analysis.produced,
                          stats=stats, trace=trace)
                    applied = True
            if not applied:
                count += min(c.weight for c in analysis.subset)
                for c in analysis.subset:
                    formula.detach_clause(c)
                    detached.append(c)
                found.append(analysis.subset)
            if count + formula.empty_weight >= ub:
                break
    finally:
        for c in detached:
            formula.attach_clause(c)
    return count
