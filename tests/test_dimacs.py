import gc
import random
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsat import (DimacsError, ParsedInstance, parse_cnf, parse_wcnf,
                    write_cnf, write_wcnf)
from maxsat import Formula
from maxsat.dimacs import parse_dimacs
from maxsat.formula import normalize_lits
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
    # TOP 10: strict mode refuses the file, lenient mode warns and reads
    # TOP as the soft total plus one
    with pytest.raises(DimacsError, match="soft weight total 24 reaches top 10"):
        parse_wcnf(TOP_TOO_LOW)
    with pytest.warns(UserWarning, match="soft weight total 24 reaches top 10"):
        inst = parse_wcnf(TOP_TOO_LOW, strict=False)
    assert inst.formula.top == 25 and inst.formula.clause_count() == 4
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


# ---------- the reference reader ----------
#
# The clause-by-clause reader that the bulk passes replaced, kept verbatim:
# one int() call per token, one range test per literal, normalize_lits and
# a checked add_clause per clause.

def _split_stream(text: str):
    """Comment lines and the token stream of everything else."""
    comments = []
    tokens = []
    header = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("c"):
            comments.append(stripped[1:].lstrip())
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise DimacsError("duplicate header line")
            header = stripped.split()
            continue
        tokens.extend(stripped.split())
    return comments, header, tokens


def _int_token(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DimacsError(f"non-integer token {tok!r}") from None


def _clauses(nums: list[int], weighted: bool):
    """(literals, weight) of each clause in the integer stream."""
    pos = 0
    while pos < len(nums):
        weight = 1
        if weighted:
            weight = nums[pos]
            pos += 1
            if weight <= 0:
                raise DimacsError(f"clause weight {weight} must be >= 1")
        try:
            end = nums.index(0, pos)
        except ValueError:
            raise DimacsError("unterminated clause (missing trailing 0)") from None
        yield nums[pos:end], weight
        pos = end + 1


def _read(text: str, dialect: str | None, strict: bool) -> ParsedInstance:
    """The clause format both dialects share: 'p cnf <vars> <clauses>' or
    'p wcnf <vars> <clauses> [top]', then clauses ending in 0, each led
    by its weight in WCNF. A dialect of None takes it from the header
    (anything but wcnf reads as CNF). A TOP must exceed the total weight
    of the clauses below it, empty ones included (tautologies are dropped
    and not counted): otherwise breaking only soft clauses could cost TOP,
    which reads as infeasible. Lenient mode warns instead of failing on a
    wrong clause count or a TOP that is too low, and grows the variable
    count to the largest literal."""
    comments, header, tokens = _split_stream(text)
    if dialect is None:
        dialect = "wcnf" if header is not None and header[1:2] == ["wcnf"] else "cnf"
    weighted = dialect == "wcnf"
    if header is None or len(header) not in ((4, 5) if weighted else (4,)) \
            or header[:2] != ["p", dialect]:
        shape = " [top]" if weighted else ""
        raise DimacsError(
            f"missing or malformed 'p {dialect} <vars> <clauses>{shape}' header")
    n, m = _int_token(header[2]), _int_token(header[3])
    if n < 0 or m < 0:
        raise DimacsError("negative header counts")
    top = _int_token(header[4]) if len(header) == 5 else None
    if top is not None and top < 1:
        raise DimacsError("top must be positive")
    nums = [_int_token(tok) for tok in tokens]
    num_vars = n
    if not strict:
        num_vars = max(n, max((abs(lit) for lits, _ in _clauses(nums, weighted)
                               for lit in lits), default=0))
    formula = Formula(num_vars, top=top)
    count = 0
    soft = 0  # the weight below TOP
    for lits, weight in _clauses(nums, weighted):
        for lit in lits:
            if abs(lit) > n:
                msg = f"literal {lit} exceeds declared variable count {n}"
                if strict:
                    raise DimacsError(msg)
                warnings.warn(msg)
        norm = normalize_lits(lits)
        if norm is None:
            warnings.warn(f"tautological clause {lits} dropped")
        else:
            if top is not None and weight < top:
                soft += weight
            if norm:
                formula.add_clause(norm, weight)
            else:
                formula.add_empty(weight)
        count += 1
    if count != m:
        msg = f"header declares {m} clauses but {count} were read"
        if strict:
            raise DimacsError(msg)
        warnings.warn(msg)
    if top is not None and soft >= top:
        msg = f"soft weight total {soft} reaches top {top}"
        if strict:
            raise DimacsError(msg)
        warnings.warn(msg)
    # every add above left a trail record; a parse leaves no trail
    formula.trail.clear()
    return ParsedInstance(formula, comments, n, m)


def _recorded(read):
    """What a read returns, or the DimacsError it raises, and the messages
    of the warnings it gives, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = read()
        except DimacsError as exc:
            out = exc
    return out, [str(w.message) for w in caught]


def _reference_read(text: str, dialect: str | None, strict: bool):
    """The reference reader with the lenient TOP lift, which it predates:
    when it warns that the soft total reaches TOP, the text is read again
    with TOP at the soft total plus one and every clause at or above the
    declared TOP at the new one. Returns what ``_recorded`` returns."""
    inst, messages = _recorded(lambda: _read(text, dialect, strict))
    low = re.fullmatch(r"soft weight total (\d+) reaches top (\d+)",
                       messages[-1] if messages else "")
    if isinstance(inst, DimacsError) or low is None:
        return inst, messages
    soft, top = int(low[1]), int(low[2])
    _, header, tokens = _split_stream(text)
    lines = [" ".join(header[:4] + [str(soft + 1)])]
    for lits, weight in _clauses([int(tok) for tok in tokens], True):
        lines.append(" ".join(map(str, [soft + 1 if weight >= top else weight,
                                        *lits, 0])))
    lifted, _ = _recorded(lambda: _read("\n".join(lines) + "\n", dialect,
                                        strict))
    lifted.comments = inst.comments
    messages[-1] += f"; top read as {soft + 1}"
    return lifted, messages


def _parsed_state(inst: ParsedInstance):
    """Everything a parse leaves, with clauses named by slot id: the slots
    in order, each occurrence list in order, the three counts, the unit
    registry in order, and the scalars."""
    f = inst.formula
    return (inst.comments, inst.declared_variables, inst.declared_clauses,
            f.num_vars, f.top, f.empty_weight,
            [(c.cid, c.lits, c.size, c.weight, c.live) for c in f.slots],
            [[c.cid for c in occ] for occ in f.occ],
            f.w1, f.w2, f.w3, [c.cid for c in f.units],
            f.trail, f.assignment)


def _outcome(out):
    if isinstance(out, DimacsError):
        return "error", str(out)
    return "ok", _parsed_state(out)


@st.composite
def clashing_texts(draw):
    """A header over variables 1-4 (a WCNF one with a small TOP, or none),
    then clause lines over literals -5..5, led by a weight in WCNF: repeated
    and clashing variables, out-of-range literals, empty clauses and soft
    totals at or above TOP are all common."""
    weighted = draw(st.booleans())
    lit = st.integers(-5, 5).filter(bool).map(str)
    clause = st.lists(lit, max_size=4).map(lambda toks: toks + ["0"])
    if weighted:
        weight = st.integers(1, 12).map(str)
        clause = st.tuples(weight, clause).map(lambda wc: [wc[0]] + wc[1])
    clauses = draw(st.lists(clause, max_size=8))
    head = ["p", "wcnf" if weighted else "cnf", str(draw(st.integers(0, 4))),
            str(draw(st.sampled_from([len(clauses), len(clauses) + 1])))]
    if weighted and draw(st.booleans()):
        head.append(str(draw(st.integers(1, 30))))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r", " ", "\n\x0b\x1c\u2028"]))
    return sep.join([" ".join(head)] + [" ".join(c) for c in clauses]) + sep


GARBAGE = st.text("pc cnf wcnf 0123456789- \n\r\t\x0b\x1c\u2028e+_", max_size=60)


@settings(max_examples=500, deadline=None, derandomize=True)
@example("p wcnf 2 4 10\n6 1 0\n6 -1 0\n6 2 0\n6 -2 0\n", False)
@example("p wcnf 1 3 5\n9 0\n3 1 0\n2 -1 1 0\n4 1 0\n", False)
@example("p cnf 2 3\n1 -1 0\n3 1 0\n2 2 1", True)
@example("c x\np cnf 1 1\n1 0\nc y\n", True)
@example("p cnf 1 1\n1 0\np 2\n", True)
@given(st.one_of(dimacs_texts(), clashing_texts(), GARBAGE), st.booleans())
def test_parse_matches_reference_reader(text, strict):
    # every entry point in either mode: the same formula state (slots, occ
    # and unit registry orders, counts, scalars), the same error message
    # or the same warnings in the same order as the reference reader
    for parser, dialect in ((parse_cnf, "cnf"), (parse_wcnf, "wcnf"),
                            (parse_dimacs, None)):
        got, got_warned = _recorded(lambda: parser(text, strict=strict))
        want, want_warned = _reference_read(text, dialect, strict)
        assert (_outcome(got), got_warned) == (_outcome(want), want_warned), \
            (parser.__name__, strict)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        parse_cnf("p cnf 2 1\n1 -2 0\n")
        assert gc.isenabled() is enabled
        with pytest.raises(DimacsError):
            parse_wcnf("p wcnf 2 1 10\n0 1 0\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_formula_copy_keeps_the_parsed_state():
    inst = parse_wcnf("p wcnf 3 5 50\n50 1 2 3 0\n4 -1 0\n2 0\n7 -2 3 0\n"
                      "3 3 0\n")
    copy = ParsedInstance(inst.formula.copy(), inst.comments,
                          inst.declared_variables, inst.declared_clauses)
    assert _parsed_state(copy) == _parsed_state(inst)
    assert copy.formula.copy().as_multiset() == inst.formula.as_multiset()
