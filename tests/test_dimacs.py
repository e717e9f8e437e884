import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsat import (DimacsError, ParsedInstance, parse_cnf, parse_wcnf,
                    write_cnf, write_wcnf)
from maxsat.dimacs import parse_dimacs
from maxsat.gen import gen_random_maxksat

from formulas import THREE_DISJOINT, build


def test_parse_cnf_basic():
    inst = parse_cnf("p cnf 2 2\n1 -2 0\n-1 0\n")
    assert inst.declared_variables == 2
    assert inst.formula.as_multiset() == build(2, [[1, -2], [-1]]).as_multiset()


def test_parse_cnf_duplicates_kept():
    inst = parse_cnf("p cnf 1 2\n1 0\n1 0\n")
    assert inst.formula.as_multiset()[(1,), 1] == 2


def test_parse_cnf_tautology_dropped_with_warning():
    with pytest.warns(UserWarning):
        inst = parse_cnf("p cnf 1 1\n1 -1 0\n")
    assert inst.formula.clause_count() == 0


def test_parse_cnf_clauses_span_lines_and_comments():
    inst = parse_cnf("c a comment\np cnf 3 2\n1 2\n3 0 -1\n-2 -3 0\n")
    assert inst.comments == ["a comment"]
    assert inst.formula.as_multiset() == \
        build(3, [[1, 2, 3], [-1, -2, -3]]).as_multiset()


@pytest.mark.parametrize("text", [
    "1 -2 0\n",                      # no header
    "p cnf 2\n1 0\n",                # malformed header
    "p cnf 1 1\n1 2 0\n",            # literal above declared count
    "p cnf 2 1\n1 -2\n",             # unterminated clause
    "p cnf 2 1\n1 x 0\n",            # non-integer token
    "p cnf 2 2\n1 0\n",              # clause count mismatch (strict)
])
def test_parse_cnf_errors_strict(text):
    with pytest.raises(DimacsError):
        parse_cnf(text)


def test_parse_cnf_lenient_mode_warns():
    with pytest.warns(UserWarning):
        inst = parse_cnf("p cnf 2 5\n1 0\n", strict=False)
    assert inst.formula.clause_count() == 1
    with pytest.warns(UserWarning):
        inst = parse_cnf("p cnf 1 1\n1 2 0\n", strict=False)
    assert inst.formula.num_vars == 2


def test_parse_never_crashes_on_garbage(rng):
    alphabet = "pc cnf wcnf 0123456789- \n\te"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        for parser in (parse_cnf, parse_wcnf):
            try:
                parser(text)
            except DimacsError:
                pass  # structured failure is the contract


@st.composite
def dimacs_texts(draw):
    """A 'p cnf'/'p wcnf' header with two to four small counts (or none),
    clause lines of small ints with random 0s, and comment lines."""
    ints = st.integers(-40, 40).map(str)
    line = st.one_of(
        st.lists(ints, max_size=6).map(" ".join),
        st.lists(ints, max_size=5).map(lambda toks: " ".join(toks + ["0"])),
        st.text("abc xyz", max_size=8).map(lambda t: "c" + t))
    lines = draw(st.lists(line, max_size=10))
    if draw(st.integers(0, 9)):
        counts = draw(st.lists(st.integers(-3, 30).map(str), min_size=2, max_size=4))
        dialect = draw(st.sampled_from(["cnf", "wcnf"]))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(["p", dialect] + counts))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@example("p wcnf -1 0\n", True)
@example("p wcnf -1 0\n", False)
@example("p wcnf 2 2 10\n3 1 5 0\n", False)
@given(dimacs_texts(), st.booleans())
def test_parse_fuzz_ends_in_instance_or_dimacs_error(text, strict):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for parser in (parse_cnf, parse_wcnf, parse_dimacs):
            try:
                inst = parser(text, strict=strict)
            except DimacsError:
                continue
            assert isinstance(inst, ParsedInstance)
            assert inst.formula.num_vars >= inst.declared_variables
            inst.formula.audit()


def test_parse_dimacs_follows_header():
    assert parse_dimacs("p wcnf 1 1 9\n9 1 0\n").formula.top == 9
    assert parse_dimacs("p cnf 1 1\n1 0\n").formula.as_multiset() == {((1,), 1): 1}
    for text in ("1 0\n", "px cnf 1 1\n1 0\n", "pp wcnf 1 1\n3 1 0\n"):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs(text)


def test_parse_rejects_negative_counts_in_both_dialects():
    for text in ("p cnf -1 0\n", "p wcnf -1 0\n", "p wcnf 1 -1 5\n"):
        for strict in (True, False):
            with pytest.raises(DimacsError, match="negative"):
                parse_dimacs(text, strict=strict)


TOP_TOO_LOW = "p wcnf 2 4 10\n6 1 0\n6 -1 0\n6 2 0\n6 -2 0\n"


def test_parse_wcnf_top_must_exceed_soft_total():
    # the soft units cost 12 at best, so no hard clause is needed to reach
    # TOP 10: strict mode refuses the file, lenient mode warns
    with pytest.raises(DimacsError, match="soft weight total 24 reaches top 10"):
        parse_wcnf(TOP_TOO_LOW)
    with pytest.warns(UserWarning, match="soft weight total 24 reaches top 10"):
        inst = parse_wcnf(TOP_TOO_LOW, strict=False)
    assert inst.formula.top == 10 and inst.formula.clause_count() == 4
    # an empty soft clause counts; a tautology and a hard clause do not
    with pytest.raises(DimacsError, match="total 10 reaches top 10"):
        parse_wcnf("p wcnf 1 2 10\n5 0\n5 1 0\n")
    with pytest.warns(UserWarning, match="tautological"):
        parse_wcnf("p wcnf 1 2 10\n9 1 -1 0\n9 1 0\n")
    assert parse_wcnf("p wcnf 1 2 10\n10 1 0\n9 -1 0\n").formula.top == 10


def test_parse_wcnf_lenient_grows_vars_to_literals_not_weights():
    with pytest.warns(UserWarning, match="literal 5"):
        inst = parse_wcnf("p wcnf 2 1 10\n3 1 5 0\n", strict=False)
    assert inst.formula.num_vars == 5
    assert inst.formula.as_multiset() == {((1, 5), 3): 1}
    with pytest.raises(DimacsError, match="literal 5"):
        parse_wcnf("p wcnf 2 1 10\n3 1 5 0\n")
    assert parse_wcnf("p wcnf 1 1\n30 1 0\n", strict=False).formula.num_vars == 1


def test_parse_wcnf_with_top():
    inst = parse_wcnf("p wcnf 2 2 100\n100 1 0\n3 -1 2 0\n")
    f = inst.formula
    assert f.top == 100
    assert f.as_multiset() == {((1,), 100): 1, ((-1, 2), 3): 1}


def test_parse_wcnf_without_top():
    inst = parse_wcnf("p wcnf 1 1\n5 1 0\n")
    assert inst.formula.top is None
    assert inst.formula.as_multiset() == {((1,), 5): 1}


def test_parse_wcnf_rejects_zero_weight():
    with pytest.raises(DimacsError):
        parse_wcnf("p wcnf 1 1 10\n0 1 0\n")
    with pytest.raises(DimacsError):
        parse_wcnf("p wcnf 1 1 10\n-3 1 0\n")


def test_write_cnf_empty_formula():
    from maxsat import Formula
    assert write_cnf(Formula(0)) == "p cnf 0 0\n"


def test_write_cnf_emits_empty_clauses_as_bare_terminator():
    f = build(2, [[1, 2]])
    f.add_empty(2)
    text = write_cnf(f)
    assert text.count("\n0") == 2
    back = parse_cnf(text)
    assert back.formula.empty_weight == 2
    assert back.formula.as_multiset() == {((1, 2), 1): 1}


def test_write_cnf_refuses_weights_and_top():
    from maxsat import Formula
    with pytest.raises(ValueError, match="write_wcnf"):
        write_cnf(Formula.from_clauses(1, [[1]], weights=[5]))
    with pytest.raises(ValueError, match="write_wcnf"):
        write_cnf(Formula(1, top=10))
    f = Formula.from_clauses(2, [[1], [1, 2]], weights=[1, 3])
    f.reduce_weight(f.slots[1], 2)
    assert write_cnf(f) == "p cnf 2 2\n1 0\n1 2 0\n"


def test_cnf_round_trip_multiunit():
    f = build(5, THREE_DISJOINT)
    assert parse_cnf(write_cnf(f)).formula.as_multiset() == f.as_multiset()


def test_cnf_round_trip_generated(rng):
    for seed in range(10):
        f = gen_random_maxksat(rng.randint(2, 10), rng.randint(0, 30), 2, seed)
        back = parse_cnf(write_cnf(f)).formula
        assert back.as_multiset() == f.as_multiset()


def test_wcnf_round_trip(rng):
    for _ in range(10):
        n = rng.randint(1, 6)
        clauses, weights = [], []
        for _ in range(rng.randint(1, 12)):
            k = rng.randint(1, n)
            vs = random.Random(rng.random()).sample(range(1, n + 1), k)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            weights.append(rng.choice([1, 2, 7, 100]))
        f = build(n, clauses, weights=weights, top=100)
        back = parse_wcnf(write_wcnf(f)).formula
        assert back.as_multiset() == f.as_multiset()
        assert back.top == f.top


def test_round_trip_after_rule_transformation():
    # a transformed formula serializes with its empty clause and reparses
    import math
    from maxsat import SolverConfig, underestimation
    f = build(4, [[1], [-1, -2], [3], [-3, 2], [4], [-1, -4], [-3, -4]])
    underestimation(f, math.inf, SolverConfig.variant("1234"))
    text = write_cnf(f)
    back = parse_cnf(text).formula
    assert back.as_multiset() == f.as_multiset()
    assert back.empty_weight == f.empty_weight == 1

