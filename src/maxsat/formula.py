"""Weighted CNF multisets with trail-based undo.

Literals are signed integers: +v is the positive literal of variable v,
-v its negation (DIMACS convention), variables numbered 1..num_vars.
Empty clauses are never stored; their total weight is tracked in the
``empty_weight`` accumulator.
"""

from __future__ import annotations

from collections import Counter


def neg(lit: int) -> int:
    """Negation of a literal; an involution."""
    return -lit


def normalize_lits(lits) -> list[int] | None:
    """Drop duplicate literals, return None for tautologies (x and -x)."""
    seen = set()
    out = []
    for lit in lits:
        if lit in seen:
            continue
        if -lit in seen:
            return None
        seen.add(lit)
        out.append(lit)
    return out


class Clause:
    """A clause stored in a Formula slot.

    ``lits[:size]`` are the active literals; literals hidden by the
    one-literal rule are swapped behind ``size`` so undo can restore them.
    ``nfalse``/``stamp`` are scratch counters that unit propagation keeps
    for clauses of length three or more.
    """

    __slots__ = ("lits", "size", "weight", "cid", "live", "nfalse", "stamp")

    def __init__(self, lits: list[int], weight: int, cid: int):
        self.lits = lits
        self.size = len(lits)
        self.weight = weight
        self.cid = cid
        self.live = True
        self.nfalse = 0
        self.stamp = 0

    def active(self) -> list[int]:
        return self.lits[: self.size]

    def __repr__(self):
        tag = "" if self.live else " dead"
        return f"Clause#{self.cid}({self.active()}, w={self.weight}{tag})"


class Formula:
    """Mutable weighted clause multiset with occurrence lists and undo trail.

    Single-owner: no operation is safe under concurrent mutation.
    """

    def __init__(self, num_vars: int, top: int | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        self.top = top  # mandatory-clause sentinel weight, None if all soft
        self.slots: list[Clause | None] = []
        # occurrence lists indexed by lit + num_vars; stale entries are
        # filtered by the live flag at scan time so positions never shift
        self.occ: list[list[Clause]] = [[] for _ in range(2 * num_vars + 1)]
        self.units: dict[Clause, None] = {}
        self.empty_weight = 0
        self.lit_count = 0  # total active literals over live clauses
        self.assignment: dict[int, bool] = {}
        self.trail: list[tuple] = []
        self.prop_stamp = 0  # propagation pass id for clause scratch counters
        # weight sums per variable: unit / binary / length>=3, by polarity
        z = num_vars + 1
        self.pos1 = [0] * z
        self.pos2 = [0] * z
        self.pos3 = [0] * z
        self.neg1 = [0] * z
        self.neg2 = [0] * z
        self.neg3 = [0] * z

    @classmethod
    def from_clauses(cls, num_vars: int, clauses, weights=None,
                     top: int | None = None) -> "Formula":
        f = cls(num_vars, top=top)
        for i, lits in enumerate(clauses):
            w = 1 if weights is None else weights[i]
            f.add_clause(list(lits), w)
        return f

    # ---------- weight helpers ----------

    def is_top(self, w: int) -> bool:
        return self.top is not None and w >= self.top

    def weight_minus(self, w: int, d: int) -> int:
        """TOP - d = TOP; plain subtraction otherwise."""
        if self.is_top(w):
            return w
        return w - d

    # ---------- count bookkeeping ----------

    def _bump_counts(self, c: Clause, sign: int) -> None:
        w = c.weight * sign
        k = c.size
        if k >= 3:
            pos, negs = self.pos3, self.neg3
        elif k == 2:
            pos, negs = self.pos2, self.neg2
        else:
            pos, negs = self.pos1, self.neg1
        for lit in c.lits[:k]:
            if lit > 0:
                pos[lit] += w
            else:
                negs[-lit] += w

    def _register(self, c: Clause) -> None:
        self._bump_counts(c, 1)
        self.lit_count += c.size
        if c.size == 1:
            self.units[c] = None

    def _unregister(self, c: Clause) -> None:
        self._bump_counts(c, -1)
        self.lit_count -= c.size
        if c.size == 1:
            self.units.pop(c, None)

    # ---------- structural edits ----------

    def add_clause(self, lits: list[int], weight: int = 1, *,
                   slot: int | None = None, on_trail: bool = False) -> Clause:
        """Insert a clause; reuses the given slot when provided."""
        if not lits:
            raise ValueError("empty clauses are tracked via empty_weight")
        seen = set()
        for lit in lits:
            v = abs(lit)
            if lit == 0 or v > self.num_vars:
                raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
            if lit in seen or -lit in seen:
                raise ValueError(f"duplicate or clashing literal {lit} in clause")
            seen.add(lit)
        if weight < 1:
            raise ValueError("clause weight must be >= 1")
        if slot is None:
            slot = len(self.slots)
            self.slots.append(None)
        displaced = self.slots[slot]
        c = Clause(lits, weight, slot)
        self.slots[slot] = c
        n = self.num_vars
        for lit in lits:
            self.occ[lit + n].append(c)
        self._register(c)
        if on_trail:
            self.trail.append(("add", c, displaced))
        return c

    def remove_clause(self, c: Clause, *, on_trail: bool = False) -> None:
        if not c.live:
            raise ValueError(f"clause {c.cid} is not live")
        c.live = False
        self._unregister(c)
        if on_trail:
            self.trail.append(("rm", c))

    def hide_literal(self, c: Clause, lit: int, *, on_trail: bool = False) -> None:
        """Remove one literal occurrence; a unit reduced to length 0 becomes
        empty-clause weight."""
        if c.size == 1:
            # hiding the last literal falsifies the clause
            self.remove_clause(c, on_trail=on_trail)
            self.add_empty(c.weight, on_trail=on_trail)
            return
        i = c.lits.index(lit)
        if i >= c.size:
            raise ValueError(f"literal {lit} not active in clause {c.cid}")
        self._unregister(c)
        last = c.size - 1
        c.lits[i], c.lits[last] = c.lits[last], c.lits[i]
        c.size = last
        self._register(c)
        if on_trail:
            self.trail.append(("hide", c, i))

    def add_empty(self, weight: int, *, on_trail: bool = False) -> None:
        self.empty_weight += weight
        if on_trail:
            self.trail.append(("empty", weight))

    def reduce_weight(self, c: Clause, d: int, *, on_trail: bool = False) -> None:
        """Subtract d from a clause weight (TOP - d = TOP); weight 0 removes."""
        old = c.weight
        new = self.weight_minus(old, d)
        if new == old:
            return
        if new < 0:
            raise ValueError("weight reduction below zero")
        if new == 0:
            self.remove_clause(c, on_trail=on_trail)
            return
        self._bump_counts(c, -1)
        c.weight = new
        self._bump_counts(c, 1)
        if on_trail:
            self.trail.append(("wt", c, old))

    def assign_literal(self, lit: int) -> None:
        """One-literal rule: delete clauses containing lit, remove all
        occurrences of -lit (units falsified this way become empty weight).
        Always on the trail."""
        n = self.num_vars
        for c in self.occ[lit + n]:
            if c.live:
                self.remove_clause(c, on_trail=True)
        nl = -lit
        for c in self.occ[nl + n]:
            if c.live:
                self.hide_literal(c, nl, on_trail=True)
        self.assignment[abs(lit)] = lit > 0
        self.trail.append(("assign", abs(lit)))

    # temporary removal used by the lower-bound computation; not trailed.
    # Only the live flag flips: a detached clause stays in the weight sums,
    # lit_count and the unit registry, which propagation does not read, so
    # audit() holds only while nothing is detached. Trail operations may
    # run in between; the caller reattaches before anything reads counts.
    def detach_clause(self, c: Clause) -> None:
        if not c.live:
            raise ValueError(f"clause {c.cid} is not live")
        c.live = False

    def attach_clause(self, c: Clause) -> None:
        if c.live:
            raise ValueError(f"clause {c.cid} is already live")
        c.live = True
        if c.size == 1:
            # to the end of the registry, where unregistering and
            # registering again would put it
            self.units[c] = self.units.pop(c)

    # ---------- trail ----------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            rec = trail.pop()
            op = rec[0]
            if op == "rm":
                c = rec[1]
                c.live = True
                self._register(c)
            elif op == "hide":
                _, c, i = rec
                self._unregister(c)
                last = c.size
                c.size = last + 1
                c.lits[i], c.lits[last] = c.lits[last], c.lits[i]
                self._register(c)
            elif op == "empty":
                self.empty_weight -= rec[1]
            elif op == "add":
                _, c, displaced = rec
                c.live = False
                self._unregister(c)
                n = self.num_vars
                for lit in c.lits:
                    self.occ[lit + n].pop()
                if displaced is None and c.cid == len(self.slots) - 1:
                    self.slots.pop()
                else:
                    self.slots[c.cid] = displaced
            elif op == "wt":
                _, c, old = rec
                self._bump_counts(c, -1)
                c.weight = old
                self._bump_counts(c, 1)
            elif op == "assign":
                del self.assignment[rec[1]]
            else:  # pragma: no cover
                raise AssertionError(f"unknown trail op {op}")

    # ---------- queries ----------

    def clauses(self):
        """Live clauses in slot order."""
        for c in self.slots:
            if c is not None and c.live:
                yield c

    def clause_count(self) -> int:
        return sum(1 for _ in self.clauses())

    def as_multiset(self) -> Counter:
        """Live clauses as (sorted literal tuple, weight) multiset."""
        return Counter((tuple(sorted(c.active())), c.weight) for c in self.clauses())

    def total_weight(self) -> int:
        return self.empty_weight + sum(c.weight for c in self.clauses())

    def copy(self) -> "Formula":
        """Fresh formula with the same live clause multiset (slot order kept)."""
        f = Formula(self.num_vars, top=self.top)
        for c in self.clauses():
            f.add_clause(list(c.active()), c.weight)
        f.empty_weight = self.empty_weight
        return f

    def cost(self, assignment) -> int:
        """Total weight of clauses unsatisfied by a complete assignment."""
        total = self.empty_weight
        for c in self.clauses():
            total += c.weight * clause_cost(c, assignment)
        return total

    # ---------- debug audit ----------

    def audit(self) -> None:
        """Full-scan consistency check of counts, units and occurrence lists."""
        z = self.num_vars + 1
        exp = {name: [0] * z for name in ("pos1", "pos2", "pos3", "neg1", "neg2", "neg3")}
        lit_count = 0
        units = []
        for c in self.clauses():
            lit_count += c.size
            bucket = min(c.size, 3)
            for lit in c.active():
                name = ("pos" if lit > 0 else "neg") + str(bucket)
                exp[name][abs(lit)] += c.weight
            if c.size == 1:
                units.append(c)
            # every active literal must be present in its occurrence list
            n = self.num_vars
            for lit in c.active():
                if not any(o is c for o in self.occ[lit + n]):
                    raise AssertionError(
                        f"clause {c.cid} missing from occ[{lit}]")
        for name, arr in exp.items():
            if getattr(self, name) != arr:
                raise AssertionError(f"count mismatch in {name}")
        if lit_count != self.lit_count:
            raise AssertionError("lit_count mismatch")
        if set(units) != set(self.units):
            raise AssertionError("unit registry mismatch")
        if self.empty_weight < 0:
            raise AssertionError("negative empty_weight")


def clause_cost(clause: Clause, assignment) -> int:
    """Falsification indicator of a clause: 1 iff every literal is false.

    The empty clause has cost 1 under every assignment.
    """
    for lit in clause.lits[: clause.size]:
        v = abs(lit)
        try:
            val = assignment[v]
        except KeyError:
            raise ValueError(f"variable {v} unassigned") from None
        if val is None:
            raise ValueError(f"variable {v} unassigned")
        if (lit > 0) == bool(val):
            return 0
    return 1


def formula_cost(formula: Formula, assignment) -> int:
    """Total weight of unsatisfied clauses under a complete assignment."""
    for v in range(1, formula.num_vars + 1):
        if v not in assignment or assignment[v] is None:
            raise ValueError(f"assignment incomplete: variable {v}")
    return formula.cost(assignment)
