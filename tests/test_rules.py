import itertools

import pytest

from maxsat import (Formula, MandatoryConflictError, PatternError, R1, R2, R3,
                    R4, R5, R6, RULE_IDS, SolverConfig, apply_conflict_rule,
                    apply_rule1, apply_rule2, check_equivalence)

from maxsat.formula import Clause
from maxsat.rules import _clash_by_sets, _clash_literal

from formulas import TWO_UNIT_CHAINS, SHARED_PREFIX_FORK, build
from schema_helpers import instantiate


def clauses_of(f):
    return list(f.clauses())


def test_rule1_binary_pair():
    f = build(2, [[1, 2], [-1, 2]])
    app = apply_rule1(f, *clauses_of(f))
    assert f.as_multiset() == {((2,), 1): 1}
    assert f.empty_weight == 0
    assert app.rule_id == R1


def test_rule1_ternary_pair():
    f = build(3, [[1, 2, 3], [-1, 2, 3]])
    apply_rule1(f, *clauses_of(f))
    assert f.as_multiset() == {((2, 3), 1): 1}


def test_rule1_equivalence_exhaustive():
    f = build(3, [[1, 2, 3], [-1, 2, 3], [2, -3], [-2]])
    orig = f.copy()
    apply_rule1(f, *clauses_of(f)[:2])
    assert check_equivalence(orig, f) is None


def test_rule1_unit_pair_falls_through_to_rule2():
    f = build(1, [[1], [-1]])
    app = apply_rule1(f, *clauses_of(f))
    assert app.rule_id == R2
    assert f.empty_weight == 1 and f.clause_count() == 0


def test_rule1_pattern_mismatch():
    f = build(3, [[1, 2], [-1, 3]])
    with pytest.raises(PatternError):
        apply_rule1(f, *clauses_of(f))


def _outcome(call):
    try:
        return ("ok", call())
    except PatternError as exc:
        return ("PatternError", str(exc))


def test_clash_literal_binary_path_matches_the_set_path():
    # every ordered pair of binaries over three variables, each in both
    # literal orders: the compared literals give the set path's value, or
    # its PatternError
    binaries = [[s * x, t * y] for x, y in itertools.permutations((1, 2, 3), 2)
                for s in (1, -1) for t in (1, -1)]
    clashes = 0
    for a, b in itertools.product(binaries, repeat=2):
        c1, c2 = Clause(list(a), 1, 0), Clause(list(b), 1, 1)
        got = _outcome(lambda: _clash_literal(c1, c2))
        assert got == _outcome(lambda: _clash_by_sets(c1, c2)), (a, b)
        clashes += got[0] == "ok"
    # each binary {a, b} clashes with {-a, b} and {a, -b}, each in two orders
    assert clashes == len(binaries) * 4


def test_rule2_complementary_units():
    f = build(1, [[1], [-1]])
    apply_rule2(f, *clauses_of(f))
    assert f.empty_weight == 1
    assert f.clause_count() == 0
    for a in ({1: True}, {1: False}):
        assert f.cost(a) == 1 == build(1, [[1], [-1]]).cost(a)


def test_rule2_weighted_split():
    f = build(1, [[1], [-1]], weights=[3, 5])
    apply_rule2(f, *clauses_of(f))
    assert f.empty_weight == 3
    assert f.as_multiset() == {((-1,), 2): 1}
    assert check_equivalence(build(1, [[1], [-1]], weights=[3, 5]), f) is None


def test_rule3_statement_and_costs():
    f = build(2, [[1], [-1, -2], [2]])
    orig = f.copy()
    assert apply_conflict_rule(f, clauses_of(f)).rule_id == R3
    assert f.empty_weight == 1
    assert f.as_multiset() == {((1, 2), 1): 1}
    # both sides unsatisfy 2 clauses at l1=l2=0 and 1 clause at l1=1,l2=0
    assert orig.cost({1: False, 2: False}) == f.cost({1: False, 2: False}) == 2
    assert orig.cost({1: True, 2: False}) == f.cost({1: True, 2: False}) == 1
    assert check_equivalence(orig, f) is None


def test_rule3_weighted_example():
    f = build(2, [[1], [-1, -2], [2]], weights=[2, 5, 3], top=100)
    orig = f.copy()
    apply_conflict_rule(f, clauses_of(f))
    assert f.empty_weight == 2
    assert f.as_multiset() == {((1, 2), 2): 1, ((-2, -1), 3): 1, ((2,), 1): 1}
    assert check_equivalence(orig, f) is None


def test_rule3_top_weight_unchanged():
    f = build(2, [[1], [-1, -2], [2]], weights=[100, 5, 3], top=100)
    apply_conflict_rule(f, clauses_of(f))
    ms = f.as_multiset()
    assert ms[((1,), 100)] == 1  # TOP - w = TOP
    assert f.empty_weight == 3


def test_rule_on_all_mandatory_pattern_signals_conflict():
    f = build(2, [[1], [-1, -2], [2]], weights=[100, 100, 100], top=100)
    with pytest.raises(MandatoryConflictError):
        apply_conflict_rule(f, clauses_of(f))
    # nothing was mutated by the aborted application
    assert f.as_multiset() == build(2, [[1], [-1, -2], [2]],
                                    weights=[100, 100, 100], top=100).as_multiset()


def test_rule4_chain_k1():
    f = build(2, [[1], [-1, 2], [-2]])
    # k=1 is rule 3 after renaming l2, and classifies as such
    assert apply_conflict_rule(f, clauses_of(f)).rule_id == R3
    assert f.empty_weight == 1
    assert f.as_multiset() == {((-2, 1), 1): 1}


def test_rule4_two_chain_rewriting():
    f = build(6, TWO_UNIT_CHAINS)
    orig = f.copy()
    assert apply_conflict_rule(f, clauses_of(f)).rule_id == R4
    # binaries replaced by their negations, both units gone, one contradiction
    assert f.empty_weight == 1
    assert f.as_multiset() == build(6, [[1, -2], [2, -3], [3, -4],
                                        [4, 6], [5, -6]]).as_multiset()
    assert check_equivalence(orig, f) is None


def test_rule4_equivalence_k3():
    f = build(4, [[1], [-1, 2], [-2, 3], [-3, 4], [-4]])
    orig = f.copy()
    apply_conflict_rule(f, clauses_of(f))
    assert check_equivalence(orig, f) is None


def test_rule5_statement():
    f = build(3, [[1], [-1, 2], [-1, 3], [-2, -3]])
    orig = f.copy()
    assert apply_conflict_rule(f, clauses_of(f)).rule_id == R5
    assert f.empty_weight == 1
    assert f.as_multiset() == build(3, [[1, -2, -3], [-1, 2, 3]]).as_multiset()
    assert check_equivalence(orig, f) is None


def test_rule6_shared_prefix_fork():
    f = build(4, SHARED_PREFIX_FORK)
    orig = f.copy()
    assert apply_conflict_rule(f, clauses_of(f)).rule_id == R6
    assert f.empty_weight == 1
    assert f.as_multiset() == build(4, [[1, -2], [2, -3, -4],
                                        [-2, 3, 4]]).as_multiset()
    assert check_equivalence(orig, f) is None


def test_rule6_equivalence_k2():
    f = build(5, [[1], [-1, 2], [-2, 3], [-3, 4], [-3, 5], [-4, -5]])
    orig = f.copy()
    apply_conflict_rule(f, clauses_of(f))
    assert check_equivalence(orig, f) is None


def test_conflict_rule_rejects_non_patterns():
    for clauses in ([[1], [-1, 2]],                      # no conflict
                    [[1], [-1, 2], [-1, -2]],           # a fork without a triangle
                    [[1], [-1, 2], [-2], [3, 4]],       # a clause left over
                    [[1], [2], [-1, -2, 3], [-3]]):     # a ternary link
        f = build(4, clauses)
        before = f.as_multiset()
        with pytest.raises(PatternError):
            apply_conflict_rule(f, clauses_of(f))
        assert f.as_multiset() == before and f.empty_weight == 0


def test_conflict_rule_ignores_pattern_order(rng):
    for _ in range(20):
        clauses = [[1], [-1, 2], [-2, 3], [-2, 4], [-3, -4]]
        rng.shuffle(clauses)
        f = build(4, clauses)
        orig = f.copy()
        assert apply_conflict_rule(f, clauses_of(f)).rule_id == R6
        assert check_equivalence(orig, f) is None


def test_lemma1_equivalence():
    # {l1, -l1 v l2} and {l2, -l2 v l1} unsatisfy equally everywhere
    f1 = build(2, [[1], [-1, 2]])
    f2 = build(2, [[2], [-2, 1]])
    assert check_equivalence(f1, f2) is None


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_soundness_random_embeddings(rule_id, rng):
    for _ in range(60):
        original, transformed = instantiate(rule_id, rng, rng.randint(5, 10))
        assert check_equivalence(original, transformed) is None


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_weighted_rule_soundness(rule_id, rng):
    for _ in range(60):
        original, transformed = instantiate(rule_id, rng, rng.randint(5, 10),
                                            weighted=True)
        assert check_equivalence(original, transformed) is None


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_application_shrinks_formula(rule_id, rng):
    # the termination argument: strictly fewer literals after every firing
    for _ in range(20):
        original, transformed = instantiate(rule_id, rng, rng.randint(5, 10))
        assert sum(c.size for c in transformed.clauses()) < \
            sum(c.size for c in original.clauses())


def test_all_equal_weights_behave_like_unweighted():
    w = 7
    fw = build(2, [[1], [-1, -2], [2]], weights=[w, w, w], top=100)
    apply_conflict_rule(fw, clauses_of(fw))
    fu = build(2, [[1], [-1, -2], [2]])
    apply_conflict_rule(fu, clauses_of(fu))
    assert fw.empty_weight == w * fu.empty_weight
    assert {lits for lits, _ in fw.as_multiset()} == \
        {lits for lits, _ in fu.as_multiset()}


def test_rule_applications_ride_the_trail():
    f = build(4, [[1], [-1, 2], [-2], [3, 4]])
    before = f.as_multiset()
    mark = f.mark()
    apply_conflict_rule(f, clauses_of(f)[:3])
    assert f.empty_weight == 1
    f.undo_to(mark)
    assert f.as_multiset() == before
    assert f.empty_weight == 0
    f.audit()


def test_variant_configurations():
    assert SolverConfig.variant("0") == SolverConfig(False, False, False)
    assert SolverConfig.variant("12") == SolverConfig(True, False, False)
    assert SolverConfig.variant("1234") == SolverConfig(True, True, False)
    assert SolverConfig.variant("z") == SolverConfig(True, True, True)
    with pytest.raises(ValueError):
        SolverConfig.variant("nope")
