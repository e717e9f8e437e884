"""Weighted CNF multisets with trail-based undo.

Literals are signed integers: +v is the positive literal of variable v,
-v its negation (DIMACS convention), variables numbered 1..num_vars.
Empty clauses are never stored; their total weight is tracked in the
``empty_weight`` accumulator.
"""

from __future__ import annotations

from collections import Counter


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
        """An empty formula over variables 1..num_vars. Every per-literal
        array (``occ`` and the heuristic counts ``w1``, ``w2``, ``w3``)
        has ``2 * num_vars + 1`` entries and holds literal ``lit`` at index
        ``lit + num_vars``; index ``num_vars`` (literal 0) stays unused."""
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if top is not None and top < 1:
            raise ValueError("top must be positive")
        self.num_vars = num_vars
        self.top = top  # mandatory-clause sentinel weight, None if all soft
        self.slots: list[Clause] = []
        # occurrence lists, each in slot order (an add appends, its undo
        # pops the last entry); stale entries are filtered by the live flag
        # at scan time so positions never shift
        self.occ: list[list[Clause]] = [[] for _ in range(2 * num_vars + 1)]
        self.units: dict[Clause, None] = {}
        self.empty_weight = 0
        self.assignment: dict[int, bool] = {}
        self.trail: list[tuple] = []
        self.prop_stamp = 0  # propagation pass id for clause scratch counters
        # weight sums per literal in unit clauses (w1), binaries (w2) and
        # longer clauses (w3)
        z = 2 * num_vars + 1
        self.w1 = [0] * z
        self.w2 = [0] * z
        self.w3 = [0] * z
        # the counts of each size bucket, by min(size, 3)
        self._buckets = (None, self.w1, self.w2, self.w3)
        # the pair index, None unless a search has built it (see
        # build_pair_index): sorted literal pair -> the clauses that were
        # binaries with that pair, and the log of the binaries trailed
        # edits made since the build, as (record position, clause, list)
        self.pairs: dict[tuple[int, int], list[Clause]] | None = None
        self.pair_log: list[tuple[int, Clause, list[Clause]]] = []
        self.pairs_base = 0  # trail length at the build

    @classmethod
    def from_clauses(cls, num_vars: int, clauses, weights=None,
                     top: int | None = None) -> "Formula":
        """A formula of the clauses in order, each checked as
        ``add_clause`` checks it, weight 1 unless ``weights`` is given."""
        f = cls(num_vars, top=top)
        clauses = [list(lits) for lits in clauses]
        if weights is None:
            weights = [1] * len(clauses)
        for i, lits in enumerate(clauses):
            f._check_clause(lits, weights[i])
        f.add_clauses_unchecked(clauses, weights)
        return f

    # ---------- weight helpers ----------

    def is_top(self, w: int) -> bool:
        return self.top is not None and w >= self.top

    # ---------- structural edits ----------

    def _check_clause(self, lits: list[int], weight: int) -> None:
        """Raise ValueError unless lits is nonempty with distinct variables
        in range and weight is at least 1; the first bad literal wins."""
        if not lits:
            raise ValueError("empty clauses are tracked via empty_weight")
        n = self.num_vars
        vs = {abs(lit) for lit in lits}
        if 0 in vs or max(vs) > n or len(vs) != len(lits):
            # an error is certain: find the first, in literal order
            seen = set()
            for lit in lits:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range 1..{n}")
                if lit in seen or -lit in seen:
                    raise ValueError(
                        f"duplicate or clashing literal {lit} in clause")
                seen.add(lit)
        if weight < 1:
            raise ValueError("clause weight must be >= 1")

    def add_clause(self, lits: list[int], weight: int = 1) -> Clause:
        """Append a clause in a new slot at the end of ``slots``, on the
        trail: undoing the add pops the slot."""
        self._check_clause(lits, weight)
        n = self.num_vars
        c = Clause(lits, weight, len(self.slots))
        self.slots.append(c)
        occ = self.occ
        k = len(lits)
        cnt = self._buckets[k if k < 3 else 3]
        for x in lits:
            occ[x + n].append(c)
            cnt[x + n] += weight
        if k == 1:
            self.units[c] = None
        elif k == 2 and self.pairs is not None:
            self._log_binary(c, len(self.trail))
        self.trail.append(("add", c))
        return c

    def add_clauses_unchecked(self, clauses, weights) -> None:
        """Append each literal list with its weight in a new slot, in order,
        unchecked (each list nonempty with distinct variables in range, each
        weight at least 1, as ``add_clause`` checks) and untrailed, so it
        refuses a formula that has a trail record or a pair index."""
        if self.trail or self.pairs is not None:
            raise ValueError("untrailed adds must precede every trailed edit")
        slots = self.slots
        occ = self.occ
        units = self.units
        buckets = self._buckets
        n = self.num_vars
        cid = len(slots)
        for lits, w in zip(clauses, weights):
            c = Clause(lits, w, cid)
            cid += 1
            slots.append(c)
            k = len(lits)
            if k == 1:
                units[c] = None
            cnt = buckets[k if k < 3 else 3]
            for x in lits:
                x += n
                occ[x].append(c)
                cnt[x] += w

    def remove_clause(self, c: Clause) -> None:
        if not c.live:
            raise ValueError(f"clause {c.cid} is not live")
        c.live = False
        k = c.size
        w = c.weight
        n = self.num_vars
        cnt = self._buckets[k if k < 3 else 3]
        for x in c.lits[:k]:
            cnt[x + n] -= w
        if k == 1:
            self.units.pop(c, None)
        self.trail.append(("rm", c))

    def add_empty(self, weight: int) -> None:
        self.empty_weight += weight
        self.trail.append(("empty", weight))

    def reduce_weight(self, c: Clause, d: int) -> None:
        """Subtract d from a clause weight; weight 0 removes. A TOP weight
        stays TOP under a soft d, and TOP - TOP = 0. A clause that is not
        live or a d below 1 raises before any edit."""
        if not c.live:
            raise ValueError(f"clause {c.cid} is not live")
        if d < 1:
            raise ValueError("weight reduction must be >= 1")
        old = c.weight
        if self.is_top(old):
            new = 0 if self.is_top(d) else old
        else:
            new = old - d
        if new == old:
            return
        if new < 0:
            raise ValueError("weight reduction below zero")
        if new == 0:
            self.remove_clause(c)
            return
        # the clause stays in its size bucket
        d = new - old
        k = c.size
        n = self.num_vars
        cnt = self._buckets[k if k < 3 else 3]
        for x in c.lits[:k]:
            cnt[x + n] += d
        c.weight = new
        self.trail.append(("wt", c, old))

    def assign_literal(self, lit: int) -> None:
        """One-literal rule: delete clauses containing lit, remove all
        occurrences of -lit (units falsified this way become empty weight).
        Always on the trail; a literal out of range or of an assigned
        variable raises before any edit, and no later step raises.

        Every live clause listed under -lit still holds -lit among its
        active literals: only an assignment of a variable hides its
        literals, the variable stays assigned until those hides are
        undone, and this one is not assigned.

        Each satisfied clause leaves an ``"rm"`` record, each shrunk one a
        ``"hide"`` record and each emptied unit ``"rm"`` then ``"empty"``,
        in occurrence-list order; the counts are updated in these loops,
        since a helper call per clause cost more than the count arithmetic
        itself. A 3->2 hide enters the pair index when it exists."""
        n = self.num_vars
        v = abs(lit)
        if not 0 < v <= n:
            raise ValueError(f"literal {lit} out of range 1..{n}")
        if v in self.assignment:
            raise ValueError(f"variable {v} is already assigned")
        append = self.trail.append
        units = self.units
        w1, w2, w3 = self.w1, self.w2, self.w3
        for c in self.occ[lit + n]:
            if not c.live:
                continue
            c.live = False
            k = c.size
            w = c.weight
            if k == 1:
                w1[c.lits[0] + n] -= w
                units.pop(c, None)
            else:
                cnt = w2 if k == 2 else w3
                for x in c.lits[:k]:
                    cnt[x + n] -= w
            append(("rm", c))
        nl = -lit
        j = nl + n  # the index of nl's own counts
        for c in self.occ[j]:
            if not c.live:
                continue
            k = c.size
            w = c.weight
            lits = c.lits
            if k == 1:
                # hiding the last literal falsifies the clause
                c.live = False
                w1[j] -= w
                units.pop(c, None)
                append(("rm", c))
                self.empty_weight += w
                append(("empty", w))
                continue
            i = lits.index(nl)
            last = k - 1
            lits[i], lits[last] = lits[last], lits[i]
            c.size = last
            if k == 2:
                # the kept literal moves from bucket 2 to bucket 1
                w2[j] -= w
                x = lits[0] + n
                w2[x] -= w
                w1[x] += w
                units[c] = None
            else:
                w3[j] -= w
                if k == 3:
                    # the two kept literals move from bucket 3 to 2
                    for x in lits[:2]:
                        x += n
                        w3[x] -= w
                        w2[x] += w
                    if self.pairs is not None:
                        self._log_binary(c, len(self.trail))
            append(("hide", c, i))
        self.assignment[v] = lit > 0
        append(("assign", v))

    # temporary removal used by the lower-bound computation; not trailed.
    # A detached clause leaves the unit registry, which propagation reads,
    # but stays in the weight sums, which it does not, so audit() and
    # is_empty() hold only while nothing is detached. Trail operations may
    # run in between; the caller reattaches before anything reads counts.
    def detach_clause(self, clauses) -> None:
        """Set a sequence of live clauses aside; none is touched unless
        all of them are live."""
        for c in clauses:
            if not c.live:
                raise ValueError(f"clause {c.cid} is not live")
        units = self.units
        for c in clauses:
            c.live = False
            if c.size == 1:
                del units[c]

    def attach_clause(self, clauses) -> None:
        """Bring back a sequence of detached clauses. Units go back to the
        end of the registry in sequence order, where unregistering and
        registering them again would put them."""
        for c in clauses:
            if c.live:
                raise ValueError(f"clause {c.cid} is already live")
        units = self.units
        for c in clauses:
            c.live = True
            if c.size == 1:
                units[c] = None

    # ---------- trail ----------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        """Pop trail records down to ``mark``, newest first, each undoing
        its edit's count updates in line: a helper call per record cost
        more than its arithmetic. An undo below the pair index's build
        point drops the index; above it, an ``"add"`` of a binary and a
        ``"hide"`` back to three literals pop their log entry and the
        clause's entry in the index."""
        if self.pairs is not None and mark < self.pairs_base:
            self.drop_pair_index()
        pairs = self.pairs
        log = self.pair_log
        trail = self.trail
        pop = trail.pop
        units = self.units
        buckets = self._buckets
        w1, w2, w3 = self.w1, self.w2, self.w3
        n = self.num_vars
        while len(trail) > mark:
            rec = pop()
            op = rec[0]
            if op == "rm":
                c = rec[1]
                c.live = True
                k = c.size
                w = c.weight
                if k == 1:
                    w1[c.lits[0] + n] += w
                    units[c] = None
                else:
                    cnt = w2 if k == 2 else w3
                    for x in c.lits[:k]:
                        cnt[x + n] += w
            elif op == "hide":
                _, c, i = rec
                last = c.size
                lits = c.lits
                w = c.weight
                # lits[last] is still the hidden literal
                h = lits[last] + n
                if last == 1:
                    # the kept literal moves from bucket 1 to bucket 2
                    x = lits[0] + n
                    w1[x] -= w
                    w2[x] += w
                    w2[h] += w
                    units.pop(c, None)
                else:
                    if last == 2:
                        # the two kept literals move from bucket 2 to 3
                        for x in lits[:2]:
                            x += n
                            w2[x] -= w
                            w3[x] += w
                        if pairs is not None:
                            log.pop()[2].pop()
                    w3[h] += w
                c.size = last + 1
                lits[i], lits[last] = lits[last], lits[i]
            elif op == "empty":
                self.empty_weight -= rec[1]
            elif op == "add":
                c = rec[1]
                self.slots.pop()
                c.live = False
                k = c.size
                w = c.weight
                lits = c.lits
                cnt = buckets[k if k < 3 else 3]
                for x in lits[:k]:
                    cnt[x + n] -= w
                if k == 1:
                    units.pop(c, None)
                elif k == 2 and pairs is not None:
                    log.pop()[2].pop()
                occ = self.occ
                for x in lits:
                    occ[x + n].pop()
            elif op == "wt":
                _, c, old = rec
                # the clause stays in its size bucket
                d = old - c.weight
                k = c.size
                cnt = buckets[k if k < 3 else 3]
                for x in c.lits[:k]:
                    cnt[x + n] += d
                c.weight = old
            elif op == "assign":
                del self.assignment[rec[1]]
            else:  # pragma: no cover
                raise AssertionError(f"unknown trail op {op}")

    # ---------- pair index ----------

    def build_pair_index(self) -> list[Clause]:
        """Index the live binaries by their sorted literal pair, start an
        empty log at the current trail length, and return those binaries
        in slot order.

        Until the index is dropped, every trailed edit that makes a binary
        (an ``"add"`` of a 2-literal clause, a 3->2 hide) appends the
        clause to its pair's list and logs it, and the undo of that record
        pops both. A clause that dies or shrinks to a unit stays listed, so
        a reader skips entries by ``live`` and ``size``; a live binary is
        always listed under its own pair and no other (``audit`` checks
        it). An undo below the build point drops the index."""
        pairs: dict[tuple[int, int], list[Clause]] = {}
        out = []
        for c in self.slots:
            if c.live and c.size == 2:
                x, y = c.lits[0], c.lits[1]
                key = (x, y) if x < y else (y, x)
                lst = pairs.get(key)
                if lst is None:
                    pairs[key] = lst = []
                lst.append(c)
                out.append(c)
        self.pairs = pairs
        self.pair_log = []
        self.pairs_base = len(self.trail)
        return out

    def drop_pair_index(self) -> None:
        self.pairs = None
        self.pair_log = []

    def _log_binary(self, c: Clause, pos: int) -> None:
        """Enter c, a binary made by the trail record at ``pos``, in the
        pair index and its log."""
        x, y = c.lits[0], c.lits[1]
        key = (x, y) if x < y else (y, x)
        lst = self.pairs.get(key)
        if lst is None:
            self.pairs[key] = lst = []
        lst.append(c)
        self.pair_log.append((pos, c, lst))

    def binaries_since(self, mark: int) -> list[Clause]:
        """The clauses the trail records from ``mark`` on made binaries,
        oldest first; they may have died or shrunk since. ``mark`` must
        not lie below the index's build point."""
        log = self.pair_log
        i = len(log)
        while i and log[i - 1][0] >= mark:
            i -= 1
        return [c for _, c, _ in log[i:]]

    # ---------- queries ----------

    def clauses(self):
        """Live clauses in slot order."""
        for c in self.slots:
            if c.live:
                yield c

    def is_empty(self) -> bool:
        """True iff no live clause is left. Every live clause adds its
        positive weight to its literals' counts, so this is exact whenever
        nothing is detached."""
        return not (any(self.w1) or any(self.w2) or any(self.w3))

    def clause_count(self) -> int:
        return sum(1 for _ in self.clauses())

    def as_multiset(self) -> Counter:
        """Live clauses as (sorted literal tuple, weight) multiset."""
        return Counter((tuple(sorted(c.active())), c.weight) for c in self.clauses())

    def copy(self) -> "Formula":
        """Fresh formula with the same live clause multiset (slot order kept)."""
        f = Formula(self.num_vars, top=self.top)
        live = list(self.clauses())
        f.add_clauses_unchecked([c.active() for c in live],
                                [c.weight for c in live])
        f.empty_weight = self.empty_weight
        return f

    def cost(self, assignment) -> int:
        """Total weight of clauses unsatisfied by an assignment: the empty
        weight plus each live clause with no true literal. Raises
        ValueError unless every variable 1..num_vars has a non-None value."""
        for v in range(1, self.num_vars + 1):
            if assignment.get(v) is None:
                raise ValueError(f"assignment incomplete: variable {v}")
        total = self.empty_weight
        for c in self.clauses():
            for lit in c.active():
                if (lit > 0) == bool(assignment[abs(lit)]):
                    break
            else:
                total += c.weight
        return total

    # ---------- debug audit ----------

    def audit(self) -> None:
        """Full-scan consistency check of counts, units and occurrence lists,
        of the slot order of every occurrence list, and of the pair index
        when one exists."""
        n = self.num_vars
        exp = {name: [0] * (2 * n + 1) for name in ("w1", "w2", "w3")}
        units = []
        for c in self.clauses():
            counts = exp["w" + str(min(c.size, 3))]
            for lit in c.active():
                counts[lit + n] += c.weight
            if c.size == 1:
                units.append(c)
            # every active literal must be present in its occurrence list
            for lit in c.active():
                if not any(o is c for o in self.occ[lit + n]):
                    raise AssertionError(
                        f"clause {c.cid} missing from occ[{lit}]")
        for name, arr in exp.items():
            if getattr(self, name) != arr:
                raise AssertionError(f"count mismatch in {name}")
        if set(units) != set(self.units):
            raise AssertionError("unit registry mismatch")
        for i, occ in enumerate(self.occ):
            for a, b in zip(occ, occ[1:]):
                if a.cid >= b.cid:
                    raise AssertionError(
                        f"occ[{i - self.num_vars}] not in slot order at "
                        f"clauses {a.cid}, {b.cid}")
        if self.empty_weight < 0:
            raise AssertionError("negative empty_weight")
        if self.pairs is not None:
            self._audit_pairs()

    def _audit_pairs(self) -> None:
        """Every live binary is listed under its pair, and no live binary
        under another pair; the log's positions lie at or above the build
        point, in increasing order, each at a trail record."""
        listed = {}
        for key, lst in self.pairs.items():
            for c in lst:
                if c.live and c.size == 2:
                    if tuple(sorted(c.lits[:2])) != key:
                        raise AssertionError(
                            f"clause {c.cid} listed under pair {key}")
                    if id(c) in listed:
                        raise AssertionError(
                            f"clause {c.cid} listed twice under pair {key}")
                    listed[id(c)] = c
        for c in self.clauses():
            if c.size == 2 and id(c) not in listed:
                raise AssertionError(
                    f"binary clause {c.cid} missing from the pair index")
        last = self.pairs_base - 1
        for pos, c, _ in self.pair_log:
            if not last < pos < len(self.trail):
                raise AssertionError(f"pair log position {pos} out of order")
            if self.trail[pos][1] is not c:
                raise AssertionError(
                    f"pair log entry {pos} names the wrong clause")
            last = pos
