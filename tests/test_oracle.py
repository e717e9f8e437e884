import pytest

from maxsat import (Formula, GraphInstance, OracleCapExceeded,
                    brute_force_maxcut, brute_force_optimum, check_equivalence,
                    formula_cost)

from formulas import THREE_DISJOINT, UP_NOT_EQUIVALENT, build, random_clauses


def test_optimum_complementary_pair():
    cost, witness = brute_force_optimum(build(1, [[1], [-1]]))
    assert cost == 1
    assert witness[1] in (True, False)


def test_optimum_three_disjoint():
    cost, witness = brute_force_optimum(build(5, THREE_DISJOINT))
    assert cost == 3
    assert formula_cost(build(5, THREE_DISJOINT), witness) == 3


def test_optimum_empty_formula():
    cost, witness = brute_force_optimum(Formula(0))
    assert cost == 0
    assert witness == {}


def test_optimum_counts_empty_weight():
    f = build(2, [[1, 2]])
    f.add_empty(3)
    assert brute_force_optimum(f)[0] == 3


def test_optimum_weighted():
    f = build(1, [[1], [-1]], weights=[2, 5])
    cost, witness = brute_force_optimum(f)
    assert cost == 2 and witness[1] is False


def test_optimum_cap():
    with pytest.raises(OracleCapExceeded):
        brute_force_optimum(Formula(23))
    brute_force_optimum(Formula(5), cap=5)


def test_optimum_respects_one_literal_rule(rng):
    # optimum(f) = min(optimum(f with x), optimum(f with -x))
    for _ in range(15):
        n = rng.randint(2, 7)
        f = build(n, random_clauses(rng, n, rng.randint(2, 16)))
        x = rng.randint(1, n)
        whole = brute_force_optimum(f)[0]
        left = f.copy()
        left.assign_literal(-x)
        right = f.copy()
        right.assign_literal(x)
        # sub-formula costs include the empty weight created by assignment
        assert whole == min(brute_force_optimum(left)[0],
                            brute_force_optimum(right)[0])


def test_equivalence_rule3_schema():
    f1 = build(2, [[1], [-1, -2], [2]])
    f2 = build(2, [[1, 2]])
    f2.add_empty(1)
    assert check_equivalence(f1, f2) is None


def test_equivalence_counterexample():
    cx = check_equivalence(build(1, [[1]]), build(1, [[-1]]))
    assert cx == {1: True} or cx == {1: False}
    # the counterexample really distinguishes the formulas
    assert formula_cost(build(1, [[1]]), cx) != formula_cost(build(1, [[-1]]), cx)


def test_equivalence_up_output_not_equivalent():
    # unit propagation output {empty, empty} differs from the original
    f1 = build(3, UP_NOT_EQUIVALENT)
    f2 = Formula(3)
    f2.add_empty(2)
    cx = check_equivalence(f1, f2)
    assert cx is not None and cx[1] is False


def test_equivalence_symmetric_reflexive(rng):
    for _ in range(10):
        n = rng.randint(1, 5)
        f = build(n, random_clauses(rng, n, rng.randint(1, 8)))
        g = build(n, random_clauses(rng, n, rng.randint(1, 8)))
        assert check_equivalence(f, f) is None
        assert (check_equivalence(f, g) is None) == (check_equivalence(g, f) is None)


def test_equivalence_variable_set_mismatch():
    with pytest.raises(ValueError):
        check_equivalence(Formula(2), Formula(3))


def test_maxcut_examples():
    triangle = GraphInstance(3, [(1, 2), (2, 3), (1, 3)])
    assert brute_force_maxcut(triangle) == 2
    assert brute_force_maxcut(GraphInstance(2, [(1, 2)])) == 1
    assert brute_force_maxcut(GraphInstance(4, [])) == 0
    with pytest.raises(OracleCapExceeded):
        brute_force_maxcut(GraphInstance(21, []))
