import itertools

import pytest

from maxsat import Clause, Formula, clause_cost, formula_cost, neg
from maxsat.formula import normalize_lits

from formulas import (THREE_DISJOINT, UP_NOT_EQUIVALENT, build, random_clauses,
                      run_optimized)


def all_assignments(n):
    for bits in itertools.product([False, True], repeat=n):
        yield {v: bits[v - 1] for v in range(1, n + 1)}


def test_negation_involution():
    for lit in (1, -1, 7, -42):
        assert neg(neg(lit)) == lit


def test_normalize_drops_duplicates_and_tautologies():
    assert normalize_lits([1, -2, 1]) == [1, -2]
    assert normalize_lits([1, -1]) is None
    assert normalize_lits([]) == []


def test_clause_cost_examples():
    # satisfied literal
    c = Clause([1, -2], 1, 0)
    assert clause_cost(c, {1: True, 2: True}) == 0
    # the empty clause costs 1 under any assignment
    empty = Clause([], 1, 0)
    assert clause_cost(empty, {1: True}) == 1
    assert clause_cost(empty, {1: False}) == 1
    # all literals falsified
    c = Clause([-1, -2], 1, 0)
    assert clause_cost(c, {1: True, 2: True}) == 1


def test_clause_cost_requires_assigned_variables():
    c = Clause([1, -2], 1, 0)
    with pytest.raises(ValueError):
        clause_cost(c, {1: False})


def test_formula_cost_up_motivator():
    # unit propagation motivator: any assignment with x1=0 unsatisfies one clause
    f = build(3, UP_NOT_EQUIVALENT)
    for a in all_assignments(3):
        if not a[1]:
            assert formula_cost(f, a) == 1


def test_formula_cost_empty_formula_and_empty_clauses():
    f = Formula(2)
    for a in all_assignments(2):
        assert formula_cost(f, a) == 0
    f.add_empty(2)
    for a in all_assignments(2):
        assert formula_cost(f, a) == 2


def test_formula_cost_sums_clause_costs(rng):
    f = build(4, random_clauses(rng, 4, 12))
    for a in all_assignments(4):
        assert formula_cost(f, a) == sum(clause_cost(c, a) * c.weight
                                         for c in f.clauses())


def test_formula_cost_requires_complete_assignment():
    f = build(3, [[1, 2]])
    with pytest.raises(ValueError):
        formula_cost(f, {1: True, 2: False})


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


def test_assign_literal_falsifies_opposing_unit():
    # assigning x4 falsifies the unit clause -4
    f = build(5, THREE_DISJOINT)
    f.assign_literal(4)
    assert f.empty_weight == 1
    assert (tuple([-4]), 1) not in f.as_multiset()


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
                assert formula_cost(f, a) == g.cost(a)


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
    baseline = {tuple(sorted(a.items())): formula_cost(f, a)
                for a in all_assignments(4)}
    victims = [c for i, c in enumerate(f.clauses()) if i % 2 == 0]
    for c in victims:
        f.detach_clause(c)
    for c in victims:
        f.attach_clause(c)
    for a in all_assignments(4):
        assert formula_cost(f, a) == baseline[tuple(sorted(a.items()))]
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


def test_slot_reuse_on_add():
    f = build(2, [[1], [2]])
    c = next(f.clauses())
    f.remove_clause(c, on_trail=True)
    nc = f.add_clause([1, 2], slot=c.cid, on_trail=True)
    assert nc.cid == c.cid
    assert f.slots[c.cid] is nc
    f.undo_to(0)
    assert f.slots[c.cid] is c
    assert f.as_multiset() == build(2, [[1], [2]]).as_multiset()
    f.audit()


def test_weight_arithmetic_with_top():
    f = Formula(2, top=50)
    c = f.add_clause([1], weight=50)
    assert f.is_top(c.weight)
    f.reduce_weight(c, 5)
    assert c.weight == 50  # TOP - w = TOP
    soft = f.add_clause([2], weight=5)
    f.reduce_weight(soft, 5)
    assert not soft.live  # weight-0 clauses are removed


def test_hide_literal_bucket_transitions():
    f = build(3, [[1, 2, 3]])
    c = next(f.clauses())
    assert f.pos3[1] == 1
    f.hide_literal(c, 3)
    assert f.pos3[1] == 0 and f.pos2[1] == 1
    f.hide_literal(c, 2)
    assert f.pos1[1] == 1
    assert c in f.units
    f.audit()


def test_audit_detects_corruption():
    f = build(2, [[1, 2]])
    f.pos2[1] += 1
    with pytest.raises(AssertionError):
        f.audit()


def test_audits_survive_optimize_flag():
    # the audits raise explicitly, so python -O (which strips asserts)
    # still reports a corrupted formula or implication graph
    out = run_optimized("""
        from maxsat import Formula
        from maxsat.propagate import build_implication_graph
        if __debug__:
            raise SystemExit("not running under -O")
        f = Formula.from_clauses(2, [[1, 2]])
        f.pos2[1] += 1
        try:
            f.audit()
        except AssertionError as e:
            print("formula:", e)
        g = build_implication_graph(Formula.from_clauses(2, [[1], [-1, 2]]))
        g.nodes = dict(reversed(g.nodes.items()))
        try:
            g.audit()
        except AssertionError as e:
            print("graph:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "formula: count mismatch in pos2",
        "graph: edge 1->2 violates acyclicity"], \
        out.stdout


def test_interleaved_operations_fuzz(rng):
    # random edit sequences with nested checkpoints restore exactly
    import math

    from maxsat import SolverConfig, underestimation
    from maxsat.rules import (MandatoryConflictError, PatternError,
                              apply_rule1, apply_rule2)

    for trial in range(60):
        n = rng.randint(2, 8)
        clauses = random_clauses(rng, n, rng.randint(1, 18))
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
                f.remove_clause(rng.choice(live), on_trail=True)
            elif op < 0.6:
                f.add_clause(random_clauses(rng, n, 1)[0], rng.randint(1, 3),
                             on_trail=True)
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
        for mark, multiset, empty in reversed(states):
            f.undo_to(mark)
            assert f.as_multiset() == multiset
            assert f.empty_weight == empty
            f.audit()
