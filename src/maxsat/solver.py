"""Depth-first branch and bound for Max-SAT.

At every node the formula is simplified (almost-common binary clauses,
complementary units, pure literals, dominating unit clauses, the
upper-bound-driven empty-unit rule), then the unit-propagation lower
bound prunes or a variable is branched on. All edits ride the formula
trail, so the input formula is left untouched after a solve.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field

from .formula import Formula
from .propagate import SearchTimeout, underestimation
from .rules import (RULE_IDS, MandatoryConflictError, SolverConfig,
                    apply_rule1, apply_rule2)

OPTIMAL = "optimal"
TIMED_OUT = "timed_out"
MANDATORY_CONFLICT = "mandatory_conflict"

# flips the incumbent repair may take (see repair_incumbent)
REPAIR_FLIPS = 50


@dataclass
class SearchStats:
    branches: int = 0
    nodes: int = 0
    pruned: int = 0
    peak_depth: int = 0
    elapsed: float = 0.0
    # cost of the greedy incumbent, and of the one the search starts from
    greedy_ub: int = 0
    start_ub: int = 0
    # the root node's lower bound, at most start_ub (see Solver._search)
    root_lb: int = 0
    rule_apps: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in RULE_IDS})

    def as_dict(self) -> dict:
        out = {
            "branches": self.branches,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "peak_depth": self.peak_depth,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "greedy_ub": self.greedy_ub,
            "start_ub": self.start_ub,
            "root_lb": self.root_lb,
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
    binary occurrences weighted four times; ties break to the lowest index.
    Only variables that occur are scored, and an assigned variable occurs
    nowhere: ``assign_literal`` removes or shrinks every clause holding it.
    The counts ``w1``, ``w2``, ``w3`` hold literal ``lit`` at index
    ``lit + num_vars``, so variable v reads ``n + v`` and ``n - v``."""
    best_v = 0
    best_score = -1
    n = formula.num_vars
    w1, w2, w3 = formula.w1, formula.w2, formula.w3
    for v in range(1, n + 1):
        p = n + v
        q = n - v
        ptot = w1[p] + w2[p] + w3[p]
        ntot = w1[q] + w2[q] + w3[q]
        if ptot == 0 and ntot == 0:
            continue
        score = (w1[q] + 4 * w2[q] + w3[q]) * (w1[p] + 4 * w2[p] + w3[p])
        if score > best_score:
            best_score = score
            best_v = v
    if best_v == 0:
        raise ValueError("no unassigned variable occurs in the formula")
    return best_v


def select_value(formula: Formula, var: int) -> bool:
    """True iff the positive polarity scores strictly higher; False on ties."""
    w1, w2, w3 = formula.w1, formula.w2, formula.w3
    p = formula.num_vars + var
    q = formula.num_vars - var
    return w1[q] + 4 * w2[q] + w3[q] < w1[p] + 4 * w2[p] + w3[p]


def initial_upper_bound(formula: Formula, deadline: float | None = None):
    """Greedy incumbent: assign the heuristic's literal until no clause
    is left or ``time.monotonic()`` passes ``deadline``; unassigned
    variables default to False.

    Returns (cost, complete assignment); never exceeds the total weight.
    """
    mark = formula.mark()
    try:
        while not formula.is_empty():
            if deadline is not None and time.monotonic() > deadline:
                break
            v = select_variable(formula)
            lit = v if select_value(formula, v) else -v
            formula.assign_literal(lit)
        assignment = _complete_assignment(formula)
        return formula.cost(assignment), assignment
    finally:
        formula.undo_to(mark)


def repair_incumbent(formula: Formula, assignment: dict[int, bool],
                     cost: int, deadline: float | None = None):
    """Weighted WalkSAT from an incumbent that breaks a hard clause.

    Returns ``(cost, assignment)`` as given unless the formula has a TOP
    and ``cost`` reaches it. Otherwise it makes at most ``REPAIR_FLIPS``
    flips, checking ``deadline`` before each. A flip takes the variable
    whose flip lowers the cost most, the lowest index on ties; when no
    flip lowers it, a random literal of a random falsified clause, drawn
    from ``random.Random(0)``. The make/break score of every variable is
    kept incrementally over arrays copied from the live clauses, so the
    formula and its trail are not touched.

    Returns (cost, complete assignment) of the best assignment seen,
    priced by ``Formula.cost``.
    """
    if not formula.is_top(cost):
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


def _cid(c) -> int:
    return c.cid


def _complete_assignment(formula: Formula) -> dict[int, bool]:
    """The formula's assignment with every unassigned variable False."""
    assignment = dict.fromkeys(range(1, formula.num_vars + 1), False)
    assignment.update(formula.assignment)
    return assignment


class Solver:
    def __init__(self, formula: Formula, config: SolverConfig | None = None,
                 *, timeout: float | None = None, trace=None):
        self.f = formula
        self.config = config if config is not None else SolverConfig.variant("z")
        self.stats = SearchStats()
        self.trace = trace
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0, got {timeout!r}")
        self.deadline = None if timeout is None else time.monotonic() + timeout
        # the incumbent's cost: the search's upper bound
        self.ub = 0
        self.incumbent: dict[int, bool] = {}
        # trail length at the last point with no almost-common binary pair,
        # None until the first rule-1 pass
        self.r1_mark: int | None = None
        # whether a node's bound first counts the surviving subsets its
        # parent's bound set aside. Only without rules 3-6: carried subsets
        # take the clauses those rules fire on, and with them on the search
        # branched more in measurements
        self.carry = not (self.config.enable_r34 or self.config.enable_r56)

    def solve(self) -> SolveResult:
        f = self.f
        # search depth is bounded by the variable count
        limit = sys.getrecursionlimit()
        needed = 2 * f.num_vars + 512
        if limit < needed:
            sys.setrecursionlimit(min(needed, 1_000_000))
        start = time.perf_counter()
        timed_out = False
        mark = f.mark()
        try:
            greedy_ub, greedy = initial_upper_bound(f, self.deadline)
            self.stats.greedy_ub = greedy_ub
            self.ub, self.incumbent = repair_incumbent(f, greedy, greedy_ub,
                                                       self.deadline)
            self.stats.start_ub = self.ub
            self.stats.root_lb = min(f.empty_weight, self.ub)
            if self.ub > f.empty_weight:
                self._search(0, [])
        except SearchTimeout:
            timed_out = True
        finally:
            f.undo_to(mark)
            f.drop_pair_index()
            sys.setrecursionlimit(limit)
        self.stats.elapsed = time.perf_counter() - start
        # below TOP the trail arithmetic is exact; at or above it raw sums
        # may drift from the input formula's (all such costs mean infeasible)
        true_cost = f.cost(self.incumbent)
        if true_cost != self.ub and not (
                f.is_top(true_cost) and f.is_top(self.ub)):
            raise RuntimeError(
                f"incumbent reported at cost {self.ub} but its "
                f"assignment costs {true_cost}")
        if timed_out:
            return SolveResult(true_cost, self.incumbent, self.stats, TIMED_OUT)
        if f.is_top(self.ub):
            return SolveResult(self.ub, None, self.stats, MANDATORY_CONFLICT)
        return SolveResult(self.ub, self.incumbent, self.stats, OPTIMAL)

    # ---------- search ----------

    def _search(self, depth: int, prior: list) -> None:
        """One node; ``prior``: the subsets the parent's bound set aside.

        The root records ``stats.root_lb``: its empty weight after
        simplifying, raised to empty weight plus underestimation once the
        bound is computed, and capped at the upper bound. The simplify
        rules and the bound keep every assignment cheaper than the upper
        bound, so the capped value never exceeds the optimum, even where
        the raw one does (the empty-unit rule may fix a variable against
        the optimal assignment when that assignment costs exactly ub).
        """
        stats = self.stats
        stats.nodes += 1
        if depth > stats.peak_depth:
            stats.peak_depth = depth
        self._check_deadline()
        f = self.f
        mark = f.mark()
        r1_mark = self.r1_mark
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
                        self.incumbent = _complete_assignment(f)
                    return
                found: list = []
                u = underestimation(f, self.ub, self.config,
                                    record=self._record,
                                    prior=prior if self.carry else (),
                                    found=found, deadline=self.deadline)
            except MandatoryConflictError:
                stats.pruned += 1
                return
            lb = f.empty_weight + u  # read after the rules have fired
            if depth == 0:
                stats.root_lb = min(lb, self.ub)
            if lb >= self.ub:
                stats.pruned += 1
                return
            var = select_variable(f)
            first = var if select_value(f, var) else -var
            stats.branches += 1
            for lit in (first, -first):
                child = f.mark()
                f.assign_literal(lit)
                self._search(depth + 1, found)
                f.undo_to(child)
                if lb >= self.ub:  # the sibling cannot improve anymore
                    break
        finally:
            f.undo_to(mark)
            self.r1_mark = r1_mark

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout

    # ---------- node simplification ----------

    def _simplify(self) -> bool:
        """Fixpoint of the always-on techniques plus rules 1 and 2 when
        enabled; False when the node is proven hopeless (LB >= UB). The
        deadline is checked before every pass and by rule 1 before every
        candidate: at the root of a large instance one pass can take a
        noticeable share of the time limit."""
        f = self.f
        r12 = self.config.enable_r12
        check = self._check_deadline
        while True:
            changed = False
            if r12:
                changed |= self._rule1_pass()
                check()
                changed |= self._rule2_pass()
            if f.empty_weight >= self.ub:
                return False
            check()
            changed |= self._pure_literal_pass()
            check()
            changed |= self._duc_pass()
            check()
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

        Candidates are visited in slot order; while one is live it fires
        with its first partner (see ``_partners``) in a lower slot. The
        first pass of a search builds the formula's pair index
        (``Formula.build_pair_index``) and takes every live binary. When a
        pass ends no two live binaries are almost common, and ``r1_mark``
        keeps the trail length of that point. Removals, weight cuts and
        detach/attach create no binary, and undo returns to an earlier
        state whose records are still on the trail, so a live binary outside
        the "add" (rule product) and "hide" (shrunk ternary) records since
        the mark was live at the mark, and no two such are almost common.
        Firing two binaries makes a unit, never a binary. So a later pass
        takes each binary that has a partner among the clauses the index
        logged since the mark, plus all its partners: every pair that fires
        contains one of them, every partner of a candidate is a candidate,
        and the pass fires exactly as a scan of every slot would. The log
        holds each "add" of a binary and each 3->2 hide; a clause with a
        "hide" record since the mark that is a binary now had its 3->2 hide
        since the mark (a size grows back only when its hide is undone), so
        the log selects exactly the binaries those records name.
        """
        f = self.f
        if self.r1_mark is None:
            candidates = f.build_pair_index()
        else:
            picked = set()
            for c in f.binaries_since(self.r1_mark):
                if c.live and c.size == 2:
                    partners = self._partners(c)
                    if partners:
                        picked.add(c)
                        picked.update(partners)
            candidates = sorted(picked, key=lambda d: d.cid)
        fired = False
        check = self._check_deadline
        for c in candidates:
            check()
            while c.live:
                partner = next((d for d in self._partners(c) if d.cid < c.cid),
                               None)
                if partner is None:
                    break
                self._record(apply_rule1(f, c, partner))
                fired = True
        self.r1_mark = len(f.trail)
        return fired

    def _record(self, app) -> None:
        """Count a rule firing and append it to the trace."""
        self.stats.rule_apps[app.rule_id] += 1
        if self.trace is not None:
            self.trace.append(app)

    def _partners(self, c) -> list:
        """The live binaries almost common with c = {a, b}, a < b, in the
        order rule 1 takes them: every {-a, b} before every {a, -b}, each
        group from the highest slot down. Each group is one list of the
        formula's pair index, read backwards; a shrunk old ternary joins
        its list after newer rule products, so a group of more than one
        clause is sorted by slot."""
        pairs = self.f.pairs
        a, b = sorted(c.lits[:2])
        out = []
        for x, y in ((-a, b), (a, -b)):
            lst = pairs.get((x, y) if x < y else (y, x))
            if lst is None:
                continue
            group = [d for d in reversed(lst) if d.live and d.size == 2]
            if len(group) > 1:
                group.sort(key=_cid, reverse=True)
            out += group
        return out

    def _rule2_pass(self) -> bool:
        """Exhaust complementary unit pairs into empty-clause weight.

        The registry holds only unit clauses, and rule 2 only lowers
        weights and removes clauses, so a registered clause that is still
        live is still a unit."""
        f = self.f
        fired = False
        by_lit: dict[int, list] = {}
        for c in list(f.units):
            if not c.live:
                continue
            lit = c.lits[0]
            while c.live:
                stack = by_lit.get(-lit)
                while stack and not stack[-1].live:
                    stack.pop()
                if not stack:
                    break
                self._record(apply_rule2(f, c, stack[-1]))
                fired = True
            if c.live:
                by_lit.setdefault(lit, []).append(c)
        return fired

    def _pure_literal_pass(self) -> bool:
        f = self.f
        fired = False
        n = f.num_vars
        w1, w2, w3 = f.w1, f.w2, f.w3
        for v in range(1, n + 1):
            p = n + v
            q = n - v
            ptot = w1[p] + w2[p] + w3[p]
            ntot = w1[q] + w2[q] + w3[q]
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
        n = f.num_vars
        w1, w2, w3 = f.w1, f.w2, f.w3
        for v in range(1, n + 1):
            p = n + v
            q = n - v
            ptot = w1[p] + w2[p] + w3[p]
            ntot = w1[q] + w2[q] + w3[q]
            if ptot == 0 and ntot == 0:
                continue
            if ptot <= w1[q]:
                f.assign_literal(-v)
                fired = True
            elif ntot <= w1[p]:
                f.assign_literal(v)
                fired = True
        return fired

    def _empty_unit_pass(self):
        """Force variables whose unit clauses alone reach the upper bound;
        both polarities firing certifies LB >= UB."""
        f = self.f
        ub = self.ub
        fired = False
        n = f.num_vars
        w1 = f.w1
        for v in range(1, n + 1):
            empty = f.empty_weight
            to_false = empty + w1[n - v] >= ub
            to_true = empty + w1[n + v] >= ub
            if to_false and to_true:
                return False, fired
            if to_false:
                f.assign_literal(-v)
                fired = True
            elif to_true:
                f.assign_literal(v)
                fired = True
        return True, fired


def solve(formula: Formula, config: SolverConfig | None = None, *,
          timeout: float | None = None, trace=None) -> SolveResult:
    """Prove the minimum unsatisfied weight of a formula.

    The search starts from the greedy incumbent of ``initial_upper_bound``.
    If the formula has a TOP and that incumbent breaks a hard clause,
    ``repair_incumbent`` first runs a seeded weighted WalkSAT from it (at
    most ``REPAIR_FLIPS`` = 50 flips, random choices from
    ``random.Random(0)``, the deadline checked before every flip) and the
    search starts from the best assignment seen.

    The formula is mutated during the search but restored before returning.
    An ``OPTIMAL`` result carries a witness whose cost is the optimum; a
    ``TIMED_OUT`` one carries the best assignment found and its cost; a
    ``MANDATORY_CONFLICT`` one carries none.
    """
    return Solver(formula, config, timeout=timeout, trace=trace).solve()
