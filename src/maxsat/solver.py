"""Depth-first branch and bound for Max-SAT.

At every node the formula is simplified (almost-common binary clauses,
complementary units, pure literals, dominating unit clauses, the
upper-bound-driven empty-unit rule), then the unit-propagation lower
bound prunes or a variable is branched on. All edits ride the formula
trail, so the input formula is left untouched after a solve.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .formula import Formula
from .propagate import underestimation
from .rules import (RULE_IDS, MandatoryConflictError, SolverConfig,
                    apply_rule1, apply_rule2)

OPTIMAL = "optimal"
TIMED_OUT = "timed_out"
MANDATORY_CONFLICT = "mandatory_conflict"


class SearchTimeout(Exception):
    pass


@dataclass
class SearchStats:
    branches: int = 0
    nodes: int = 0
    pruned: int = 0
    peak_depth: int = 0
    elapsed: float = 0.0
    rule_apps: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in RULE_IDS})

    def as_dict(self) -> dict:
        out = {
            "branches": self.branches,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "peak_depth": self.peak_depth,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }
        for r in RULE_IDS:
            out[r] = self.rule_apps[r]
        return out


@dataclass
class SolveResult:
    optimum: int
    best_assignment: dict[int, bool] | None
    stats: SearchStats
    status: str


def select_variable(formula: Formula) -> int:
    """Branching variable: maximizes the product of its polarity scores,
    binary occurrences weighted four times; ties break to the lowest index."""
    best_v = 0
    best_score = -1
    p1, p2, p3 = formula.pos1, formula.pos2, formula.pos3
    n1, n2, n3 = formula.neg1, formula.neg2, formula.neg3
    assigned = formula.assignment
    for v in range(1, formula.num_vars + 1):
        if v in assigned:
            continue
        ptot = p1[v] + p2[v] + p3[v]
        ntot = n1[v] + n2[v] + n3[v]
        if ptot == 0 and ntot == 0:
            continue
        score = (n1[v] + 4 * n2[v] + n3[v]) * (p1[v] + 4 * p2[v] + p3[v])
        if score > best_score:
            best_score = score
            best_v = v
    if best_v == 0:
        raise ValueError("no unassigned variable occurs in the formula")
    return best_v


def select_value(formula: Formula, var: int) -> bool:
    """True iff the positive polarity scores strictly higher; False on ties."""
    neg_score = formula.neg1[var] + 4 * formula.neg2[var] + formula.neg3[var]
    pos_score = formula.pos1[var] + 4 * formula.pos2[var] + formula.pos3[var]
    return neg_score < pos_score


def initial_upper_bound(formula: Formula):
    """Greedy incumbent: assign in heuristic order, simplifying as it goes.

    Returns (cost, complete assignment); never exceeds the total weight.
    """
    mark = formula.mark()
    try:
        while formula.lit_count:
            v = select_variable(formula)
            lit = v if select_value(formula, v) else -v
            formula.assign_literal(lit)
        cost = formula.empty_weight
        assignment = dict(formula.assignment)
    finally:
        formula.undo_to(mark)
    for v in range(1, formula.num_vars + 1):
        assignment.setdefault(v, False)
    return cost, assignment


class Solver:
    def __init__(self, formula: Formula, config: SolverConfig | None = None,
                 initial_ub: int | None = None, timeout: float | None = None,
                 trace=None):
        self.f = formula
        self.config = config if config is not None else SolverConfig.variant("z")
        self.stats = SearchStats()
        self.trace = trace
        self.initial_ub = initial_ub
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.ub = 0
        self.incumbent_cost = 0
        self.incumbent: dict[int, bool] = {}
        # trail length at the last point with no almost-common binary pair,
        # None until the first rule-1 pass
        self.r1_mark: int | None = None
        # the inconsistent subsets the parent's bound set aside; a node's
        # bound counts the surviving ones before it propagates. Only without
        # rules 3-6: carried subsets take the clauses those rules fire on,
        # and with them on the search branched more in measurements
        self.carry = not (self.config.enable_r34 or self.config.enable_r56)
        self.subsets: list = []

    def solve(self) -> SolveResult:
        f = self.f
        # search depth is bounded by the variable count
        needed = 2 * f.num_vars + 512
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(min(needed, 1_000_000))
        start = time.perf_counter()
        self.incumbent_cost, self.incumbent = initial_upper_bound(f)
        self.ub = self.incumbent_cost
        if self.initial_ub is not None:
            self.ub = min(self.ub, self.initial_ub)
        timed_out = False
        mark = f.mark()
        try:
            if self.ub > f.empty_weight:
                self._search(0)
        except SearchTimeout:
            timed_out = True
        except MandatoryConflictError:
            # an inconsistent all-mandatory subset at the root: the final
            # upper bound stays at or above TOP and the status reflects it
            pass
        finally:
            f.undo_to(mark)
        self.stats.elapsed = time.perf_counter() - start
        # below TOP the trail arithmetic is exact; at or above it raw sums
        # may drift from the input formula's (all such costs mean infeasible)
        true_cost = f.cost(self.incumbent)
        if true_cost != self.incumbent_cost and not (
                f.top is not None
                and true_cost >= f.top and self.incumbent_cost >= f.top):
            raise RuntimeError(
                f"incumbent reported at cost {self.incumbent_cost} but its "
                f"assignment costs {true_cost}")
        if timed_out:
            return SolveResult(true_cost, self.incumbent, self.stats, TIMED_OUT)
        optimum = self.ub
        if f.top is not None and optimum >= f.top:
            return SolveResult(optimum, None, self.stats, MANDATORY_CONFLICT)
        # the incumbent certifies the optimum unless a caller-supplied upper
        # bound cut below every reachable solution
        best = self.incumbent if true_cost == optimum else None
        return SolveResult(optimum, best, self.stats, OPTIMAL)

    # ---------- search ----------

    def _search(self, depth: int) -> None:
        stats = self.stats
        stats.nodes += 1
        if depth > stats.peak_depth:
            stats.peak_depth = depth
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout
        f = self.f
        mark = f.mark()
        r1_mark = self.r1_mark
        subsets = self.subsets
        try:
            try:
                if not self._simplify():
                    stats.pruned += 1
                    return
                if f.lit_count == 0:
                    cost = f.empty_weight
                    if cost < self.ub:
                        self.ub = cost
                        self.incumbent_cost = cost
                        assignment = dict(f.assignment)
                        for v in range(1, f.num_vars + 1):
                            assignment.setdefault(v, False)
                        self.incumbent = assignment
                    return
                found: list = []
                u = underestimation(f, self.ub, self.config, stats=stats,
                                    trace=self.trace,
                                    prior=subsets if self.carry else (),
                                    found=found)
                self.subsets = found
            except MandatoryConflictError:
                if depth == 0:
                    raise
                stats.pruned += 1
                return
            lb = f.empty_weight + u  # read after the rules have fired
            if lb >= self.ub:
                stats.pruned += 1
                return
            var = select_variable(f)
            first = var if select_value(f, var) else -var
            stats.branches += 1
            for lit in (first, -first):
                child = f.mark()
                f.assign_literal(lit)
                self._search(depth + 1)
                f.undo_to(child)
                if lb >= self.ub:  # the sibling cannot improve anymore
                    break
        finally:
            f.undo_to(mark)
            self.r1_mark = r1_mark
            self.subsets = subsets

    # ---------- node simplification ----------

    def _simplify(self) -> bool:
        """Fixpoint of the always-on techniques plus rules 1 and 2 when
        enabled; False when the node is proven hopeless (LB >= UB)."""
        f = self.f
        r12 = self.config.enable_r12
        while True:
            changed = False
            if r12:
                changed |= self._rule1_pass()
                changed |= self._rule2_pass()
            if f.empty_weight >= self.ub:
                return False
            changed |= self._pure_literal_pass()
            changed |= self._duc_pass()
            alive, ch = self._empty_unit_pass()
            if not alive:
                return False
            changed |= ch
            if f.empty_weight >= self.ub:
                return False
            if not changed:
                return True

    def _rule1_pass(self) -> bool:
        """Exhaust almost-common binary pairs {l v r, -l v r} -> {r}.

        When a pass ends no two live binaries are almost common, and
        ``r1_mark`` keeps the trail length of that point. Removals, weight
        cuts and detach/attach cannot create a pair, and undo returns to an
        earlier state whose records are still on the trail, so a new pair
        needs a binary made since the mark by an "add" record (a rule
        product) or a "hide" record (a shrunk ternary). The slot scan, the
        only code that fires rule 1, runs only when such a binary has a
        partner.
        """
        f = self.f
        if not self._pair_possible():
            self.r1_mark = len(f.trail)
            return False
        fired = False
        sig: dict[tuple, list] = {}
        for i in range(len(f.slots)):
            c = f.slots[i]
            if c is None or not c.live or c.size != 2:
                continue
            while c.live:
                partner = self._find_partner(sig, c)
                if partner is None:
                    break
                apply_rule1(f, c, partner, stats=self.stats, trace=self.trace)
                fired = True
            if c.live:
                sig.setdefault(tuple(sorted(c.active())), []).append(c)
        self.r1_mark = len(f.trail)
        return fired

    def _pair_possible(self) -> bool:
        """Whether a binary added or shrunk since ``r1_mark`` has an
        almost-common partner; True before the first pass."""
        if self.r1_mark is None:
            return True
        f = self.f
        occ = f.occ
        n = f.num_vars
        for rec in f.trail[self.r1_mark:]:
            op = rec[0]
            if op != "add" and op != "hide":
                continue
            c = rec[1]
            if not c.live or c.size != 2:
                continue
            a, b = c.lits[0], c.lits[1]
            # a partner is {-a, b} (found in occ[-a]) or {a, -b} (in occ[-b])
            for x, y in ((-a, b), (-b, a)):
                for d in occ[x + n]:
                    if d.live and d.size == 2:
                        p, q = d.lits[0], d.lits[1]
                        if (p == x and q == y) or (p == y and q == x):
                            return True
        return False

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

    def _rule2_pass(self) -> bool:
        """Exhaust complementary unit pairs into empty-clause weight."""
        f = self.f
        fired = False
        by_lit: dict[int, list] = {}
        for c in list(f.units):
            if not c.live or c.size != 1:
                continue
            lit = c.lits[0]
            while c.live:
                stack = by_lit.get(-lit)
                while stack and not (stack[-1].live and stack[-1].size == 1):
                    stack.pop()
                if not stack:
                    break
                apply_rule2(f, c, stack[-1], stats=self.stats, trace=self.trace)
                fired = True
            if c.live:
                by_lit.setdefault(lit, []).append(c)
        return fired

    def _pure_literal_pass(self) -> bool:
        f = self.f
        fired = False
        assigned = f.assignment
        for v in range(1, f.num_vars + 1):
            if v in assigned:
                continue
            ptot = f.pos1[v] + f.pos2[v] + f.pos3[v]
            ntot = f.neg1[v] + f.neg2[v] + f.neg3[v]
            if ptot == 0 and ntot == 0:
                continue
            if ntot == 0:
                f.assign_literal(v)
                fired = True
            elif ptot == 0:
                f.assign_literal(-v)
                fired = True
        return fired

    def _duc_pass(self) -> bool:
        """Dominating unit clause: a polarity outweighed by opposing unit
        clauses is fixed against."""
        f = self.f
        fired = False
        assigned = f.assignment
        for v in range(1, f.num_vars + 1):
            if v in assigned:
                continue
            ptot = f.pos1[v] + f.pos2[v] + f.pos3[v]
            ntot = f.neg1[v] + f.neg2[v] + f.neg3[v]
            if ptot == 0 and ntot == 0:
                continue
            if ptot <= f.neg1[v]:
                f.assign_literal(-v)
                fired = True
            elif ntot <= f.pos1[v]:
                f.assign_literal(v)
                fired = True
        return fired

    def _empty_unit_pass(self):
        """Force variables whose unit clauses alone reach the upper bound;
        both polarities firing certifies LB >= UB."""
        f = self.f
        ub = self.ub
        fired = False
        assigned = f.assignment
        for v in range(1, f.num_vars + 1):
            if v in assigned:
                continue
            empty = f.empty_weight
            to_false = empty + f.neg1[v] >= ub
            to_true = empty + f.pos1[v] >= ub
            if to_false and to_true:
                return False, fired
            if to_false:
                f.assign_literal(-v)
                fired = True
            elif to_true:
                f.assign_literal(v)
                fired = True
        return True, fired


def solve(formula: Formula, config: SolverConfig | None = None,
          initial_ub: int | None = None, timeout: float | None = None,
          trace=None) -> SolveResult:
    """Prove the minimum unsatisfied weight of a formula.

    The formula is mutated during the search but restored before returning.
    With an explicit ``initial_ub`` below the true optimum the search is cut
    off early: the returned value is then that bound and no witness exists.
    """
    return Solver(formula, config, initial_ub, timeout, trace).solve()
