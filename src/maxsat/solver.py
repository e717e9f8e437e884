"""Depth-first branch and bound for Max-SAT.

At every node the formula is simplified (almost-common binary clauses,
complementary units, pure literals, dominating unit clauses, the
upper-bound-driven empty-unit rule), then the unit-propagation lower
bound prunes or a variable is branched on. All edits ride the formula
trail, so the input formula is left untouched after a solve.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field, fields

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
        """The fields in order, with ``elapsed`` as ``elapsed_ms`` and
        ``rule_apps`` as one entry per rule."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "elapsed":
                out["elapsed_ms"] = round(value * 1000, 3)
            elif f.name == "rule_apps":
                out.update((r, value[r]) for r in RULE_IDS)
            else:
                out[f.name] = value
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


def initial_upper_bound(formula: Formula, deadline: float = math.inf):
    """Greedy incumbent: assign the heuristic's literal until no clause
    is left or ``time.monotonic()`` passes ``deadline`` (``inf``: never);
    unassigned variables default to False.

    Returns (cost, complete assignment); never exceeds the total weight.
    """
    mark = formula.mark()
    try:
        while not formula.is_empty():
            if time.monotonic() > deadline:
                break
            v = select_variable(formula)
            lit = v if select_value(formula, v) else -v
            formula.assign_literal(lit)
        assignment = _complete_assignment(formula)
        return formula.cost(assignment), assignment
    finally:
        formula.undo_to(mark)


def repair_incumbent(formula: Formula, assignment: dict[int, bool],
                     cost: int, deadline: float = math.inf):
    """Weighted WalkSAT from the incumbent of a formula with a TOP.

    Returns ``(cost, assignment)`` as given when the formula has no TOP,
    ``cost`` is 0, or ``deadline`` has passed on entry, before any clause
    is read. Otherwise it makes at most ``REPAIR_FLIPS`` flips,
    checking ``deadline`` before each. A flip takes the variable
    whose flip lowers the cost most, the lowest index on ties; when no
    flip lowers it, a random literal of a random falsified clause, drawn
    from ``random.Random(0)``. The make/break score of every variable is
    kept incrementally over the formula's own clauses: the per-clause
    state is indexed by slot id, and a flip walks ``Formula.occ``,
    skipping dead entries (a flipped variable occurs in a live clause, so
    it is free and no live entry of its lists hides it). The formula and
    its trail are not touched.

    Returns (cost, complete assignment) of the best assignment seen,
    priced by ``Formula.cost``.
    """
    if formula.top is None or cost == 0 or time.monotonic() > deadline:
        return cost, assignment
    n = formula.num_vars
    occ = formula.occ
    value = [False] + [assignment[v] for v in range(1, n + 1)]
    # per slot: its true literals' count and the sum of their variables,
    # which is the one true variable when the count is 1
    ntrue = [0] * len(formula.slots)
    truesum = [0] * len(formula.slots)
    # per variable: weight its flip makes true minus weight it falsifies
    score = [0] * (n + 1)
    falsified: dict[int, None] = {}  # slot ids, in the order they fell
    for c in formula.clauses():
        i = c.cid
        active = c.lits[:c.size]
        for lit in active:
            if value[abs(lit)] == (lit > 0):
                ntrue[i] += 1
                truesum[i] += abs(lit)
        if ntrue[i] == 0:
            falsified[i] = None
            for lit in active:
                score[abs(lit)] += c.weight
        elif ntrue[i] == 1:
            score[truesum[i]] -= c.weight

    rng = random.Random(0)
    current = best_cost = cost
    best = None
    for _ in range(REPAIR_FLIPS):
        if not falsified or time.monotonic() > deadline:
            break
        v = max(range(1, n + 1), key=score.__getitem__)
        if score[v] <= 0:
            c = formula.slots[list(falsified)[rng.randrange(len(falsified))]]
            v = abs(c.lits[rng.randrange(c.size)])
        current -= score[v]
        value[v] = not value[v]
        made = v if value[v] else -v
        for c in occ[made + n]:
            if not c.live:
                continue
            i = c.cid
            w = c.weight
            if ntrue[i] == 0:
                # satisfied by v alone: no literal makes it, v breaks it
                del falsified[i]
                for lit in c.lits[:c.size]:
                    score[abs(lit)] -= w
                score[v] -= w
            elif ntrue[i] == 1:
                score[truesum[i]] += w
            ntrue[i] += 1
            truesum[i] += v
        for c in occ[n - made]:
            if not c.live:
                continue
            i = c.cid
            w = c.weight
            ntrue[i] -= 1
            truesum[i] -= v
            if ntrue[i] == 0:
                # v was its one true literal: now every literal makes it
                falsified[i] = None
                score[v] += w
                for lit in c.lits[:c.size]:
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


def _partner_keys(c) -> tuple:
    """The pair-index keys of the binaries almost common with the binary
    c = {a, b}, a < b: that of {-a, b}, then that of {a, -b}."""
    a, b = c.lits[0], c.lits[1]
    if b < a:
        a, b = b, a
    return ((-a, b) if -a < b else (b, -a), (a, -b) if a < -b else (-b, a))


def _complete_assignment(formula: Formula) -> dict[int, bool]:
    """The formula's assignment with every unassigned variable False."""
    assignment = dict.fromkeys(range(1, formula.num_vars + 1), False)
    assignment.update(formula.assignment)
    return assignment


class Solver:
    """Branch and bound over ``formula``. ``deadline`` is a
    ``time.monotonic()`` time, ``inf`` without a timeout."""

    def __init__(self, formula: Formula, config: SolverConfig | None = None,
                 *, timeout: float | None = None, trace=None):
        self.f = formula
        self.config = config if config is not None else SolverConfig.variant("z")
        self.trace = trace
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be None or >= 0, got {timeout!r}")
        self.timeout = math.inf if timeout is None else timeout
        self._start_search()
        # the incumbent's cost: the search's upper bound
        self.ub = 0
        self.incumbent: dict[int, bool] = {}
        # rule 1's pair index (see _rule1_pass): sorted literal pair -> the
        # clauses that were binaries with that pair, and the index lists
        # the passes appended to, in order
        self.pairs: dict[tuple[int, int], list] = {}
        self.pair_adds: list[list] = []
        # the trail length at the last point with no almost-common binary
        # pair, None until the first rule-1 pass
        self.r1_mark: int | None = None

    def _start_search(self) -> None:
        """Fresh counters, and the deadline ``timeout`` seconds from now
        (``inf`` without a timeout)."""
        self.stats = SearchStats()
        self.deadline = time.monotonic() + self.timeout

    def solve(self) -> SolveResult:
        """Search afresh: each call has its own counters and timeout."""
        self._start_search()
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
            sys.setrecursionlimit(limit)
            self.pairs = {}
            self.pair_adds.clear()
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

        Before its first branch the root drops the dead entries of the
        occurrence lists (``Formula.compact_occ``): its bound has put back
        every clause it set aside, and the root's undo restores the lists.
        Below the root it would not pay: most entries that die there are
        scanned too few times before the undo.
        """
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
                        self.incumbent = _complete_assignment(f)
                    return
                found: list = []
                u = underestimation(f, self.ub, self.config,
                                    record=self._record, prior=prior,
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
                if lb >= self.ub:  # the sibling cannot improve anymore
                    break
        finally:
            f.undo_to(mark)
            self.r1_mark = r1_mark
            while len(adds) > added:
                adds.pop().pop()

    def _check_deadline(self) -> None:
        if time.monotonic() > self.deadline:
            raise SearchTimeout

    # ---------- node simplification ----------

    def _simplify(self) -> bool:
        """Fixpoint of the always-on techniques plus rules 1 and 2 when
        enabled; False when the node is proven hopeless (LB >= UB). The
        deadline is checked before every pass that runs and by rule 1
        before every candidate: at the root of a large instance one pass
        can take a noticeable share of the time limit.

        No pass reruns on an unchanged formula, and the trail alone says
        what changed it. Within one call the trail only grows, every edit
        writes a record and ``ub`` is fixed, so a pass changed the formula
        exactly when it grew the trail, and a pass whose input trail is as
        long as at an earlier point sees the formula of that point. Rule 1
        returns at once while the trail is as long as at the end of its
        last run, and otherwise reads only the records written since (see
        ``_rule1_pass``). Rule 2 exhausts its pairs, so it is skipped while
        the trail is as long as at the end of its last run. Pure literal,
        DUC and empty-unit may find more to assign after assigning, so each
        is skipped while the trail is as long as before its last run: a run
        that assigned grew the trail past that mark. A round in which the
        trail did not grow ends the fixpoint; the first round runs every
        pass."""
        f = self.f
        trail = f.trail
        r12 = self.config.enable_r12
        check = self._check_deadline
        # per pass, a trail length at which it would do nothing; -1: none yet
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
                pure_idle = len(trail)
                self._pure_literal_pass()
            if len(trail) != duc_idle:
                check()
                duc_idle = len(trail)
                self._duc_pass()
            if len(trail) != eu_idle:
                check()
                eu_idle = len(trail)
                if not self._empty_unit_pass():
                    return False
            if f.empty_weight >= self.ub:
                return False
            if len(trail) == start:
                return True

    def _rule1_pass(self) -> None:
        """Exhaust almost-common binary pairs {l v r, -l v r} -> {r}.

        Candidates are visited in slot order; while one is live it fires
        with a partner (an almost-common live binary, see
        ``_lower_partner``) in a lower slot, found through the pair index
        ``pairs``. The first pass of a search indexes every live binary and
        takes them all. When a pass ends no two live binaries are almost
        common, and ``r1_mark`` keeps the trail length then. Only an
        ``"add"`` of a binary or a 3->2 ``"hide"`` makes a binary, and an
        undo returns to an earlier state whose records are still on the
        trail, so a live binary that no ``"add"`` or ``"hide"`` record from
        the mark on names was live at the mark, and no two such are almost
        common. Firing two binaries makes a unit, never a binary. So a later
        pass indexes the live binaries those records name (a clause that is
        a binary now had its 3->2 hide after any record that names it
        earlier, since a size grows back only when its hide is undone), and
        takes each that has a partner, plus all its partners: every pair
        that fires contains one of them, every partner of a candidate is a
        candidate, and the pass fires exactly as a scan of every slot would.

        Every live binary is listed under its own pair, and under no other,
        at every lookup. A pass appends to ``pair_adds`` each list it
        appended to, and the exit of the node whose pass it was pops those
        entries (``_search``). That exit comes no later than the undo of any
        record the pass read: every undo inside the node goes to a mark
        above its passes. So while an entry is listed its clause keeps the
        literals it had when it was indexed, and a live binary named by a
        record below the mark was live when the pass over that record ran,
        since the edits that would have hidden it from that pass are still
        on the trail, and was indexed then. (The first pass runs at the
        root and reads the slots, whose binaries no search undo touches.)
        """
        f = self.f
        trail = f.trail
        mark = self.r1_mark
        if mark is None:
            self.pairs = pairs = {}
            new = [c for c in f.slots if c.live and c.size == 2]
        elif mark == len(trail):
            return
        else:
            pairs = self.pairs
            new = {rec[1]: None for rec in trail[mark:]
                   if (rec[0] == "hide" or rec[0] == "add")
                   and rec[1].live and rec[1].size == 2}
        adds = self.pair_adds
        for c in new:
            x, y = c.lits[0], c.lits[1]
            key = (x, y) if x < y else (y, x)
            lst = pairs.get(key)
            if lst is None:
                pairs[key] = lst = []
            lst.append(c)
            adds.append(lst)
        if mark is None:
            candidates = new
        else:
            picked = set()
            for c in new:
                partners = [d for key in _partner_keys(c)
                            for d in pairs.get(key, ())
                            if d.live and d.size == 2]
                if partners:
                    picked.add(c)
                    picked.update(partners)
            candidates = sorted(picked, key=_cid)
        check = self._check_deadline
        for c in candidates:
            check()
            while c.live:
                partner = self._lower_partner(c)
                if partner is None:
                    break
                self._record(apply_rule1(f, c, partner))
        self.r1_mark = len(trail)

    def _record(self, app) -> None:
        """Count a rule firing and append it to the trace."""
        self.stats.rule_apps[app.rule_id] += 1
        if self.trace is not None:
            self.trace.append(app)

    def _lower_partner(self, c):
        """The partner rule 1 takes for c = {a, b}, a < b, or None: the
        live binary {-a, b} with the highest slot below c's, else the live
        binary {a, -b} with the highest slot below c's."""
        pairs = self.pairs
        cid = c.cid
        for key in _partner_keys(c):
            lst = pairs.get(key)
            if lst is None:
                continue
            best = None
            top = -1
            for d in lst:
                if top < d.cid < cid and d.live and d.size == 2:
                    best = d
                    top = d.cid
            if best is not None:
                return best
        return None

    def _rule2_pass(self) -> None:
        """Exhaust complementary unit pairs into empty-clause weight.

        The registry holds only unit clauses, and rule 2 only lowers
        weights and removes clauses, so a registered clause that is still
        live is still a unit."""
        f = self.f
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
            if c.live:
                by_lit.setdefault(lit, []).append(c)

    def _pure_literal_pass(self) -> None:
        f = self.f
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
            elif ptot == 0:
                f.assign_literal(-v)

    def _duc_pass(self) -> None:
        """Dominating unit clause: a polarity outweighed by opposing unit
        clauses is fixed against."""
        f = self.f
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
            elif ntot <= w1[p]:
                f.assign_literal(v)

    def _empty_unit_pass(self) -> bool:
        """Force variables whose unit clauses alone reach the upper bound;
        both polarities firing certifies LB >= UB."""
        f = self.f
        ub = self.ub
        n = f.num_vars
        w1 = f.w1
        for v in range(1, n + 1):
            empty = f.empty_weight
            to_false = empty + w1[n - v] >= ub
            to_true = empty + w1[n + v] >= ub
            if to_false and to_true:
                return False
            if to_false:
                f.assign_literal(-v)
            elif to_true:
                f.assign_literal(v)
        return True


def solve(formula: Formula, config: SolverConfig | None = None, *,
          timeout: float | None = None, trace=None) -> SolveResult:
    """Prove the minimum unsatisfied weight of a formula.

    The search starts from the greedy incumbent of ``initial_upper_bound``.
    If the formula has a TOP and that incumbent costs more than 0,
    ``repair_incumbent`` first runs a seeded weighted WalkSAT from it (at
    most ``REPAIR_FLIPS`` = 50 flips, random choices from
    ``random.Random(0)``, the deadline checked on entry and before every
    flip) and the search starts from the best assignment seen.

    The formula is mutated during the search but restored before returning.
    An ``OPTIMAL`` result carries a witness whose cost is the optimum; a
    ``TIMED_OUT`` one carries the best assignment found and its cost; a
    ``MANDATORY_CONFLICT`` one carries none.
    """
    return Solver(formula, config, timeout=timeout, trace=trace).solve()
