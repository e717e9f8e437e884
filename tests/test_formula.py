import itertools

import pytest
from hypothesis import given, settings, strategies as st

import maxsat
from maxsat import Formula, SolverConfig, underestimation
from maxsat.formula import Clause, normalize_lits
from maxsat.rules import MandatoryConflictError
from maxsat.oracle import _cost_vector

from formulas import (THREE_DISJOINT, UP_NOT_EQUIVALENT, build, random_clauses,
                      reference_resize, run_optimized)


def all_assignments(n):
    for bits in itertools.product([False, True], repeat=n):
        yield {v: bits[v - 1] for v in range(1, n + 1)}


def test_normalize_drops_duplicates_and_tautologies():
    assert normalize_lits([1, -2, 1]) == [1, -2]
    assert normalize_lits([1, -1]) is None
    assert normalize_lits([]) == []


def test_formula_cost_up_motivator():
    # unit propagation motivator: any assignment with x1=0 unsatisfies one clause
    f = build(3, UP_NOT_EQUIVALENT)
    for a in all_assignments(3):
        if not a[1]:
            assert f.cost(a) == 1


def test_formula_cost_empty_formula_and_empty_clauses():
    f = Formula(2)
    for a in all_assignments(2):
        assert f.cost(a) == 0
    f.add_empty(2)
    for a in all_assignments(2):
        assert f.cost(a) == 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cost_matches_oracle_cost_vector(data):
    # every assignment's cost, saturated at TOP, is the oracle's entry for
    # it (bit v-1 of the index is variable v)
    n = data.draw(st.integers(1, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = data.draw(st.lists(
        st.lists(lit, min_size=1, max_size=3, unique_by=abs), max_size=12))
    top = data.draw(st.sampled_from([None, 20]))
    weights = data.draw(st.lists(st.sampled_from([1, 2, 7, 20]),
                                 min_size=len(clauses), max_size=len(clauses)))
    f = build(n, clauses, weights=weights, top=top)
    f.add_empty(data.draw(st.integers(0, 25)))
    vector = _cost_vector(f)
    for i in range(1 << n):
        a = {v: bool(i >> (v - 1) & 1) for v in range(1, n + 1)}
        cost = f.cost(a)
        assert (cost if top is None else min(cost, top)) == vector[i]


def test_formula_cost_requires_complete_assignment():
    # variable 3 occurs in no clause, yet a complete assignment sets it
    f = build(3, [[1, 2]])
    with pytest.raises(ValueError):
        f.cost({1: True, 2: False})
    with pytest.raises(ValueError):
        f.cost({1: True, 2: False, 3: None})
    assert f.cost({1: False, 2: False, 3: True}) == 1


def test_add_clause_validation():
    f = Formula(3)
    with pytest.raises(ValueError):
        f.add_clause([1, 4])
    with pytest.raises(ValueError):
        f.add_clause([1, -1])
    with pytest.raises(ValueError):
        f.add_clause([2, 2])
    with pytest.raises(ValueError):
        f.add_clause([])
    with pytest.raises(ValueError):
        f.add_clause([1], weight=0)


def test_assign_literal_one_literal_rule():
    f = build(3, [[1, 2], [-1, 3]])
    f.assign_literal(1)
    assert f.as_multiset() == build(3, [[3]]).as_multiset()
    assert f.empty_weight == 0


def test_assign_literal_unit_falsification():
    f = build(1, [[-1]])
    f.assign_literal(1)
    assert f.clause_count() == 0
    assert f.empty_weight == 1


def test_formula_refuses_a_top_below_one():
    # as the parser does: a TOP of 0 would make every clause mandatory
    for top in (0, -3):
        with pytest.raises(ValueError, match="top must be positive"):
            Formula.from_clauses(2, [[1], [-1], [2]], top=top)
    assert Formula(2, top=1).top == 1


def test_assign_literal_falsifies_opposing_unit():
    # assigning x4 falsifies the unit clause -4
    f = build(5, THREE_DISJOINT)
    f.assign_literal(4)
    assert f.empty_weight == 1
    assert (tuple([-4]), 1) not in f.as_multiset()


def test_assign_literal_rejects_bad_literal_before_any_edit():
    # a literal out of range, literal 0 and a second assignment of a
    # variable raise with nothing edited, so undo still restores the formula
    f = Formula.from_clauses(3, [[1, 2], [-1, 3], [2, 3]])
    before = f.as_multiset()
    for lit in (-4, 4, 0):
        with pytest.raises(ValueError, match="out of range"):
            f.assign_literal(lit)
        assert f.trail == [] and f.assignment == {}
        assert f.as_multiset() == before
    mark = f.mark()
    f.assign_literal(1)
    trail = list(f.trail)
    for lit in (1, -1):
        with pytest.raises(ValueError, match="already assigned"):
            f.assign_literal(lit)
        assert f.trail == trail
    f.undo_to(mark)
    assert f.as_multiset() == before and f.assignment == {}
    f.audit()


def test_assign_literal_preserves_cost(rng):
    # cost of any extension is unchanged by the one-literal rule
    for _ in range(30):
        n = rng.randint(2, 6)
        f = build(n, random_clauses(rng, n, rng.randint(1, 14)))
        lit = rng.choice([1, -1]) * rng.randint(1, n)
        g = f.copy()
        g.assign_literal(lit)
        for a in all_assignments(n):
            if a[abs(lit)] == (lit > 0):
                assert f.cost(a) == g.cost(a)


def test_remove_insert_multiset_semantics():
    f = build(2, [[1, 2], [1, 2]])
    assert f.as_multiset()[(1, 2), 1] == 2
    clauses = list(f.clauses())
    for c in clauses:
        f.remove_clause(c)
    assert f.clause_count() == 0
    with pytest.raises(ValueError):
        f.remove_clause(clauses[0])


def test_remove_then_reinsert_cost_unchanged(rng):
    f = build(4, random_clauses(rng, 4, 10))
    baseline = {tuple(sorted(a.items())): f.cost(a)
                for a in all_assignments(4)}
    victims = [c for i, c in enumerate(f.clauses()) if i % 2 == 0]
    f.detach_clause(victims)
    f.attach_clause(victims)
    for a in all_assignments(4):
        assert f.cost(a) == baseline[tuple(sorted(a.items()))]
    f.audit()


def test_detach_and_attach_check_every_clause_first():
    f = build(3, [[1, 2], [-1], [2, 3]])
    live, dead, other = f.slots
    f.remove_clause(dead)
    with pytest.raises(ValueError):
        f.detach_clause([live, dead])
    assert live.live
    f.detach_clause([other])
    with pytest.raises(ValueError):
        f.attach_clause([other, live])
    assert not other.live
    f.attach_clause([other])
    f.audit()


def test_trail_undo_restores_everything(rng):
    for _ in range(20):
        n = rng.randint(2, 6)
        f = build(n, random_clauses(rng, n, rng.randint(1, 12)))
        before = f.as_multiset()
        mark = f.mark()
        for _ in range(rng.randint(1, n)):
            unassigned = [v for v in range(1, n + 1) if v not in f.assignment]
            if not unassigned:
                break
            v = rng.choice(unassigned)
            f.assign_literal(v if rng.random() < 0.5 else -v)
        f.undo_to(mark)
        assert f.as_multiset() == before
        assert f.empty_weight == 0
        assert f.assignment == {}
        f.audit()


def test_add_appends_and_undo_pops():
    f = build(2, [[1], [2]])
    c = next(f.clauses())
    f.remove_clause(c)
    slots = list(f.slots)
    nc = f.add_clause([1, 2])
    assert nc.cid == len(slots)
    assert f.slots == slots + [nc]
    f.audit()
    f.undo_to(0)
    assert f.slots == slots
    assert f.as_multiset() == build(2, [[1], [2]]).as_multiset()
    f.audit()


def test_weight_arithmetic_with_top():
    f = Formula.from_clauses(2, [[1], [2]], weights=[50, 5], top=50)
    c, soft = f.slots
    assert f.is_top(c.weight)
    f.reduce_weight(c, 5)
    assert c.weight == 50  # TOP - w = TOP
    with pytest.raises(ValueError):
        f.reduce_weight(soft, 50)  # soft - TOP is below zero
    f.reduce_weight(soft, 5)
    assert not soft.live  # weight-0 clauses are removed
    f.reduce_weight(c, 50)
    assert not c.live  # TOP - TOP = 0
    f.undo_to(0)
    assert c.live and c.weight == 50 and soft.live and soft.weight == 5
    f.audit()


def test_every_add_after_a_mark_is_undone():
    # an add is always trailed, so undo pops exactly the adds after the
    # mark, and the clause added before it stays
    f = Formula(3)
    f.add_clause([1, 2])
    m = f.mark()
    f.add_clause([1, 3])
    f.add_clause([2, 3])
    f.undo_to(m)
    assert [c.active() for c in f.clauses()] == [[1, 2]]
    assert [c.active() for c in f.slots] == [[1, 2]]
    f.audit()


def test_untrailed_build_refused_after_a_trailed_edit():
    # add_clauses_unchecked writes no trail record, so it refuses a
    # formula that has one or that keeps a pair index
    f = build(2, [[1, 2]])
    f.add_clauses_unchecked([[-1]], [1])
    f.add_empty(1)
    with pytest.raises(ValueError, match="untrailed"):
        f.add_clauses_unchecked([[2]], [1])
    g = build(2, [[1, 2]])
    g.build_pair_index()
    with pytest.raises(ValueError, match="untrailed"):
        g.add_clauses_unchecked([[2]], [1])
    assert [c.active() for c in f.slots] == [[1, 2], [-1]]
    assert [c.active() for c in g.slots] == [[1, 2]]
    f.audit()
    g.audit()


def test_reduce_weight_refuses_a_dead_clause_or_a_bad_amount():
    # a clause the one-literal rule satisfied, and an amount below 1,
    # raise before any edit
    f = build(2, [[1, 2], [-1, 2]], weights=[3, 3])
    sat, other = f.slots
    f.assign_literal(1)
    trail = list(f.trail)
    with pytest.raises(ValueError, match="not live"):
        f.reduce_weight(sat, 1)
    for d in (0, -2):
        with pytest.raises(ValueError, match=">= 1"):
            f.reduce_weight(other, d)
    assert f.trail == trail and sat.weight == 3 and other.weight == 3
    f.audit()
    f.undo_to(0)
    assert f.as_multiset() == build(2, [[1, 2], [-1, 2]],
                                    weights=[3, 3]).as_multiset()
    f.audit()


def test_hide_literal_bucket_transitions():
    # assigning -3 and then -2 hides 3 and then 2: literal 1 moves from
    # bucket 3 to bucket 2 to bucket 1
    f = build(3, [[1, 2, 3]])
    c = next(f.clauses())
    x1 = 1 + f.num_vars  # the index of literal 1
    assert f.w3[x1] == 1
    f.assign_literal(-3)
    assert f.w3[x1] == 0 and f.w2[x1] == 1
    f.assign_literal(-2)
    assert f.w1[x1] == 1
    assert c in f.units
    f.audit()


def test_audit_detects_corruption():
    f = build(2, [[1, 2]])
    f.w2[1 + f.num_vars] += 1
    with pytest.raises(AssertionError):
        f.audit()


def test_audit_detects_a_count_on_the_wrong_polarity():
    # variable 1's total count is unchanged, but each of its literals is
    # off, so a check of per-variable totals would miss it; under -O too
    f = Formula.from_clauses(2, [[1, 2]], weights=[3])
    n = f.num_vars
    f.w2[n + 1] -= 3
    f.w2[n - 1] += 3
    with pytest.raises(AssertionError, match="count mismatch in w2"):
        f.audit()
    out = run_optimized("""
        from maxsat import Formula
        if __debug__:
            raise SystemExit("not running under -O")
        f = Formula.from_clauses(2, [[1, 2]], weights=[3])
        n = f.num_vars
        f.w2[n + 1] -= 3
        f.w2[n - 1] += 3
        try:
            f.audit()
        except AssertionError as e:
            print(e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "count mismatch in w2\n"


def test_audit_detects_occurrence_list_out_of_slot_order():
    f = build(2, [[1, 2], [1, -2], [-1, 2]])
    f.audit()
    occ = f.occ[1 + f.num_vars]
    occ[0], occ[1] = occ[1], occ[0]
    with pytest.raises(AssertionError, match="slot order"):
        f.audit()


def test_audits_survive_optimize_flag():
    # the audit raises explicitly, so python -O (which strips asserts)
    # still reports a corrupted formula
    out = run_optimized("""
        from maxsat import Formula
        if __debug__:
            raise SystemExit("not running under -O")
        f = Formula.from_clauses(2, [[1, 2]])
        f.w2[1 + f.num_vars] += 1
        try:
            f.audit()
        except AssertionError as e:
            print("formula:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["formula: count mismatch in w2"], \
        out.stdout


def test_interleaved_operations_fuzz(rng):
    # random edit sequences with nested checkpoints restore exactly
    import math

    from maxsat import SolverConfig, underestimation
    from maxsat.rules import (MandatoryConflictError, PatternError,
                              apply_rule1, apply_rule2)

    for trial in range(60):
        n = rng.randint(2, 8)
        clauses = random_clauses(rng, n, rng.randint(1, 18), max_len=5)
        weighted = rng.random() < 0.3
        f = build(n, clauses,
                  weights=[rng.choice([1, 2, 50]) for _ in clauses] if weighted else None,
                  top=50 if weighted else None)
        states = [(f.mark(), f.as_multiset(), f.empty_weight)]
        for _ in range(rng.randint(1, 20)):
            op = rng.random()
            live = list(f.clauses())
            free = [v for v in range(1, n + 1) if v not in f.assignment]
            if op < 0.35 and free:
                v = rng.choice(free)
                f.assign_literal(v if rng.random() < 0.5 else -v)
            elif op < 0.5 and live:
                f.remove_clause(rng.choice(live))
            elif op < 0.6:
                f.add_clause(random_clauses(rng, n, 1, max_len=5)[0],
                             rng.randint(1, 3))
            elif op < 0.75 and len(live) >= 2:
                a, b = rng.sample(live, 2)
                try:
                    if a.size == 1 and b.size == 1 and a.lits[0] == -b.lits[0]:
                        apply_rule2(f, a, b)
                    else:
                        apply_rule1(f, a, b)
                except (PatternError, MandatoryConflictError):
                    pass
            elif op < 0.85:
                try:
                    underestimation(f, rng.choice([math.inf, 2]),
                                    SolverConfig.variant(rng.choice(["0", "z"])))
                except MandatoryConflictError:
                    pass
            else:
                states.append((f.mark(), f.as_multiset(), f.empty_weight))
            f.audit()
            assert f.is_empty() == (not any(True for _ in f.clauses()))
        for mark, multiset, empty in reversed(states):
            f.undo_to(mark)
            assert f.as_multiset() == multiset
            assert f.empty_weight == empty
            f.audit()
            assert f.is_empty() == (not any(True for _ in f.clauses()))


class ReferenceKernelFormula(Formula):
    """Reference kernels: the earlier ``assign_literal``, ``undo_to``,
    ``add_clause``, ``remove_clause``, ``reduce_weight`` and
    ``hide_literal``, kept verbatim, which make one
    ``remove_clause``/``hide_literal`` call per clause and one
    ``_resize``/``_bump_counts`` call per edit or undone record. The
    pair index is not theirs, so they run without one."""

    _resize = reference_resize

    def _bump_counts(self, c: Clause, d: int) -> None:
        """Add d to the counts of c's active literals in its size bucket:
        a weight edit stays in its bucket."""
        k = c.size
        n = self.num_vars
        cnt = self._buckets[k if k < 3 else 3]
        for x in c.lits[:k]:
            cnt[x + n] += d

    def add_clause(self, lits: list[int], weight: int = 1) -> Clause:
        """Append a clause in a new slot at the end of ``slots``, on the
        trail: undoing the add pops the slot."""
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
        c = Clause(lits, weight, len(self.slots))
        self.slots.append(c)
        n = self.num_vars
        for lit in lits:
            self.occ[lit + n].append(c)
        self._resize(c, 0, c.size)
        self.trail.append(("add", c))
        return c

    def remove_clause(self, c: Clause) -> None:
        if not c.live:
            raise ValueError(f"clause {c.cid} is not live")
        c.live = False
        self._resize(c, c.size, 0)
        self.trail.append(("rm", c))

    def hide_literal(self, c: Clause, lit: int) -> None:
        """Remove one literal occurrence; a unit reduced to length 0 becomes
        empty-clause weight."""
        if c.size == 1:
            if c.lits[0] != lit:
                raise ValueError(f"literal {lit} not active in clause {c.cid}")
            # hiding the last literal falsifies the clause
            self.remove_clause(c)
            self.add_empty(c.weight)
            return
        i = c.lits.index(lit)
        if i >= c.size:
            raise ValueError(f"literal {lit} not active in clause {c.cid}")
        last = c.size - 1
        c.lits[i], c.lits[last] = c.lits[last], c.lits[i]
        c.size = last
        self._resize(c, last + 1, last)
        if last == 2 and self.pairs is not None:
            self._log_binary(c, len(self.trail))
        self.trail.append(("hide", c, i))

    def reduce_weight(self, c: Clause, d: int) -> None:
        """Subtract d from a clause weight; weight 0 removes. A TOP weight
        stays TOP under a soft d, and TOP - TOP = 0."""
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
        self._bump_counts(c, new - old)
        c.weight = new
        self.trail.append(("wt", c, old))

    def assign_literal(self, lit: int) -> None:
        n = self.num_vars
        v = abs(lit)
        if not 0 < v <= n:
            raise ValueError(f"literal {lit} out of range 1..{n}")
        if v in self.assignment:
            raise ValueError(f"variable {v} is already assigned")
        for c in self.occ[lit + n]:
            if c.live:
                self.remove_clause(c)
        nl = -lit
        for c in self.occ[nl + n]:
            if c.live:
                self.hide_literal(c, nl)
        self.assignment[v] = lit > 0
        self.trail.append(("assign", v))

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            rec = trail.pop()
            op = rec[0]
            if op == "rm":
                c = rec[1]
                c.live = True
                self._resize(c, 0, c.size)
            elif op == "hide":
                _, c, i = rec
                last = c.size
                # lits[last] is still the hidden literal
                self._resize(c, last, last + 1)
                c.size = last + 1
                c.lits[i], c.lits[last] = c.lits[last], c.lits[i]
            elif op == "empty":
                self.empty_weight -= rec[1]
            elif op == "add":
                c = rec[1]
                self.slots.pop()
                c.live = False
                self._resize(c, c.size, 0)
                n = self.num_vars
                for lit in c.lits:
                    self.occ[lit + n].pop()
            elif op == "wt":
                _, c, old = rec
                self._bump_counts(c, old - c.weight)
                c.weight = old
            elif op == "assign":
                del self.assignment[rec[1]]
            else:  # pragma: no cover
                raise AssertionError(f"unknown trail op {op}")


def _kernel_state(f):
    """Everything the kernels write, with clauses named by slot id: the
    three counts, empty_weight, the trail and the unit registry in order
    (the order Q1 reads), and every slot's literals."""
    def name(item):
        return item.cid if isinstance(item, maxsat.Clause) else item
    return ([f.w1, f.w2, f.w3],
            f.empty_weight,
            [tuple(name(x) for x in rec) for rec in f.trail],
            [c.cid for c in f.units],
            [(c.lits, c.size, c.live, c.weight) for c in f.slots],
            f.assignment)


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("ok", call())
    except (ValueError, MandatoryConflictError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_kernels_match_reference_kernels(data):
    # the same edit sequence through the in-line kernels and the reference
    # ones leaves the same state after every step, the registry order
    # included, which audit() compares only as a set, and the kernels'
    # ValueErrors are compared too
    n = data.draw(st.integers(2, 7), label="n")
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lit, min_size=1, max_size=5, unique_by=abs)
    clauses = data.draw(st.lists(clause, min_size=1, max_size=14),
                        label="clauses")
    top = data.draw(st.sampled_from([None, 40]), label="top")
    weights = data.draw(st.lists(st.sampled_from([1, 2, 3, 40]),
                                 min_size=len(clauses), max_size=len(clauses)),
                        label="weights")
    if top is None:
        weights = [min(w, 3) for w in weights]
    pair = [cls.from_clauses(n, clauses, weights=weights, top=top)
            for cls in (Formula, ReferenceKernelFormula)]
    marks = []
    ops = ["assign", "assign", "assign", "remove", "reduce", "add", "bound",
           "mark", "undo"]
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        op = data.draw(st.sampled_from(ops), label="op")
        f = pair[0]
        live = [c.cid for c in f.clauses()]
        if op == "assign":
            a = data.draw(lit, label="literal")
            outs = [_outcome(lambda g=g: g.assign_literal(a)) for g in pair]
        elif op == "remove" and live:
            i = data.draw(st.sampled_from(live), label="clause")
            outs = [_outcome(lambda g=g: g.remove_clause(g.slots[i]))
                    for g in pair]
        elif op == "reduce" and live:
            i = data.draw(st.sampled_from(live), label="clause")
            d = data.draw(st.sampled_from([1, 2, 40]), label="by")
            outs = [_outcome(lambda g=g: g.reduce_weight(g.slots[i], d))
                    for g in pair]
        elif op == "add":
            lits = data.draw(clause, label="added")
            w = data.draw(st.sampled_from([1, 2]), label="weight")
            outs = [_outcome(lambda g=g: g.add_clause(list(lits), w).cid)
                    for g in pair]
        elif op == "bound":
            ub = data.draw(st.sampled_from([3, 1000]), label="ub")
            variant = data.draw(st.sampled_from(["0", "z"]), label="variant")
            outs = [_outcome(lambda g=g: underestimation(
                g, ub, SolverConfig.variant(variant))) for g in pair]
        elif op == "mark":
            marks.append(f.mark())
            continue
        elif op == "undo" and marks:
            m = marks.pop()
            outs = [_outcome(lambda g=g: g.undo_to(m)) for g in pair]
        else:
            continue
        assert outs[0] == outs[1], op
        assert _kernel_state(pair[0]) == _kernel_state(pair[1]), op
        pair[0].audit()
        assert pair[0].is_empty() == (not any(True for _ in pair[0].clauses()))
    for g in pair:
        g.undo_to(0)
    assert _kernel_state(pair[0]) == _kernel_state(pair[1])
    assert pair[0].as_multiset() == Formula.from_clauses(
        n, clauses, weights=weights, top=top).as_multiset()


def _pairs_of_live_binaries(f, clauses):
    """Per sorted literal pair, the sorted slot ids of the live binaries
    among ``clauses``; a clause listed twice counts twice."""
    out = {}
    for c in clauses:
        if c.live and c.size == 2:
            out.setdefault(tuple(sorted(c.active())), []).append(c.cid)
    return {key: sorted(cids) for key, cids in out.items()}


def _binaries_made_since(f, base):
    """(position, slot id) of every trail record from ``base`` on that made
    a binary: an add of two literals, or a hide that left two. A hide
    left ``size`` plus the number of later hides of its clause, since
    every later hide is still on the trail."""
    trail = f.trail
    out = []
    for p in range(base, len(trail)):
        rec = trail[p]
        c = rec[1] if rec[0] in ("add", "hide") else None
        if c is None:
            continue
        if rec[0] == "add":
            made = len(c.lits) == 2
        else:
            later = sum(1 for r in trail[p + 1:] if r[0] == "hide" and r[1] is c)
            made = c.size + later == 2
        if made:
            out.append((p, c.cid))
    return out


def _almost_common(a, b):
    if a.size != b.size:
        return False
    sa, sb = set(a.active()), set(b.active())
    return len([x for x in sa if -x in sb]) == 1 and len(sa - sb) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_pair_index_matches_a_rebuild_after_every_edit(data):
    # the edit mix of test_kernels_match_reference_kernels plus rule 1 and
    # rule 2 firings, run with the pair index built: after every step the
    # index lists exactly the live binaries under their pairs, the log
    # holds exactly the binaries made since the build, and an undo below
    # the build point drops the index
    from maxsat.rules import PatternError, apply_rule1, apply_rule2
    n = data.draw(st.integers(2, 6), label="n")
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lit, min_size=1, max_size=4, unique_by=abs)
    clauses = data.draw(st.lists(clause, min_size=1, max_size=14),
                        label="clauses")
    top = data.draw(st.sampled_from([None, 40]), label="top")
    weights = data.draw(st.lists(st.sampled_from([1, 2, 3, 40]),
                                 min_size=len(clauses), max_size=len(clauses)),
                        label="weights")
    if top is None:
        weights = [min(w, 3) for w in weights]
    f = Formula.from_clauses(n, clauses, weights=weights, top=top)
    marks = []
    built = 0
    ops = ["assign", "assign", "remove", "reduce", "add", "bound",
           "rule1", "rule2", "mark", "mark", "undo", "undo", "build"]
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        if f.pairs is None and (built == 0 or data.draw(st.booleans())):
            f.build_pair_index()
            built += 1
        base = f.pairs_base if f.pairs is not None else None
        op = data.draw(st.sampled_from(ops), label="op")
        live = list(f.clauses())
        try:
            if op == "assign":
                f.assign_literal(data.draw(lit, label="literal"))
            elif op == "remove" and live:
                f.remove_clause(data.draw(st.sampled_from(live)))
            elif op == "reduce" and live:
                f.reduce_weight(data.draw(st.sampled_from(live)),
                                data.draw(st.sampled_from([1, 2, 40])))
            elif op == "add":
                f.add_clause(list(data.draw(clause, label="added")),
                             data.draw(st.sampled_from([1, 2])))
            elif op == "bound":
                underestimation(f, data.draw(st.sampled_from([3, 1000])),
                                SolverConfig.variant(
                                    data.draw(st.sampled_from(["0", "z"]))))
            elif op == "rule1":
                pairs = [(a, b) for a in live for b in live
                         if a.cid < b.cid and _almost_common(a, b)]
                if pairs:
                    apply_rule1(f, *data.draw(st.sampled_from(pairs)))
            elif op == "rule2":
                pairs = [(a, b) for a in live for b in live
                         if a.cid < b.cid and a.size == b.size == 1
                         and a.lits[0] == -b.lits[0]]
                if pairs:
                    apply_rule2(f, *data.draw(st.sampled_from(pairs)))
            elif op == "mark":
                marks.append(f.mark())
            elif op == "undo" and marks:
                m = marks.pop()
                f.undo_to(m)
                if base is not None:
                    assert (f.pairs is None) == (m < base), (m, base)
            elif op == "build" and f.pairs is not None:
                f.build_pair_index()
        except (ValueError, MandatoryConflictError, PatternError):
            pass
        f.audit()
        if f.pairs is None:
            continue
        assert _pairs_of_live_binaries(
            f, [c for lst in f.pairs.values() for c in lst]) == \
            _pairs_of_live_binaries(f, f.slots)
        made = _binaries_made_since(f, f.pairs_base)
        assert [(p, c.cid) for p, c, _ in f.pair_log] == made
        for m in [f.pairs_base] + [m for m in marks if m >= f.pairs_base]:
            assert [c.cid for c in f.binaries_since(m)] == \
                [cid for p, cid in made if p >= m]
    f.undo_to(0)
    assert f.pairs is None or f.pairs_base == 0
    assert f.as_multiset() == Formula.from_clauses(
        n, clauses, weights=weights, top=top).as_multiset()
