"""Equivalence-preserving inference rules for Max-SAT.

Each rule consumes a pattern of clauses and inserts replacement clauses
that keep the total unsatisfied weight identical under every complete
assignment. Rule 1 resolves two almost-common clauses; rules 2-6 make
one contradiction explicit as empty-clause weight so it never has to be
re-detected below the current node.

This module holds rules 1 and 2 and `_fire`, the transformation shared by
rules 2-6. The shapes of rules 3-6 are recognised in one place only,
`propagate.classify_conflict`, which hands the consumed clauses and the
replacement literals to `_fire`; `propagate.apply_conflict_rule` applies
a given pattern through that same path.

A rule is a plain rewrite of the clause multiset: every replacement
clause takes a fresh slot at the end of the formula's ``slots`` (undo
pops it), and each rule function returns its `RuleApplication` for the
caller to count and trace.

In weighted mode a rule fires with w = min over the pattern weights (net
of the weight a running lower-bound call has set aside through
`propagate._take`, in every variant; see `_fire`): the
replacement clauses carry weight w, each consumed clause loses w, and
clauses reaching weight 0 are removed (`Formula.reduce_weight`: TOP - w
= TOP for a soft w, and TOP - TOP = 0, so rule 1 replaces two mandatory
clauses by their mandatory resolvent). A contradiction pattern made of
mandatory clauses only admits no solution below TOP, so the
empty-clause-producing rules raise MandatoryConflictError for the caller
to backtrack on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Clause, Formula

R1, R2, R3, R4, R5, R6 = "r1", "r2", "r3", "r4", "r5", "r6"
NO_RULE = "none"

RULE_IDS = (R1, R2, R3, R4, R5, R6)


class MandatoryConflictError(Exception):
    """An inconsistent subset of mandatory (TOP) clauses was derived."""


def _audit_sizes(consumed_size: int, produced_size: int) -> None:
    """The termination argument: the replacement clauses of every
    application carry strictly fewer literals than its pattern."""
    if produced_size >= consumed_size:
        raise AssertionError("rule application did not shrink the formula")


class PatternError(ValueError):
    """Clauses handed to a rule do not match its schema."""


@dataclass
class SolverConfig:
    """Which rule groups the solver applies (the pure-literal, empty-unit
    and dominating-unit-clause techniques are always on)."""

    enable_r12: bool = True
    enable_r34: bool = True
    enable_r56: bool = True

    @classmethod
    def variant(cls, name: str) -> "SolverConfig":
        try:
            flags = _VARIANTS[str(name)]
        except KeyError:
            raise ValueError(f"unknown variant {name!r}; use one of {list(_VARIANTS)}")
        return cls(*flags)


_VARIANTS = {
    "0": (False, False, False),
    "12": (True, False, False),
    "1234": (True, True, False),
    "z": (True, True, True),
}

VARIANT_NAMES = tuple(_VARIANTS)


@dataclass
class RuleApplication:
    rule_id: str
    consumed: list[int]  # slot ids of pattern clauses
    produced: list[int]  # fresh slot ids of replacement clauses
    weight: int = 1


def _fire(formula: Formula, rule_id: str, pattern: list[Clause],
          produced_lits: list[list[int]]) -> RuleApplication:
    """Shared weighted transformation core for every rule.

    w is the least pattern weight net of ``Clause.taken``: the weight that
    the running `underestimation` call has taken for the subsets it set
    aside, and gives back on every exit (0 outside such a call, so rules
    1 and 2, which fire outside it, read the true weights). A firing
    inside the bound thus rewrites only weight the bound has not counted
    yet. The rewrite itself is on the true weights and trailed, so
    a clause keeps at least its taken weight, and `underestimation`
    detaches a clause left with nothing else until it exits."""
    c = pattern[0]
    w = c.weight - c.taken
    consumed_size = 0
    for c in pattern:
        consumed_size += c.size
        v = c.weight - c.taken
        if v < w:
            w = v
    if formula.is_top(w):
        raise MandatoryConflictError(
            f"rule {rule_id} pattern consists of mandatory clauses only")
    _audit_sizes(consumed_size, sum(len(lits) for lits in produced_lits))
    for c in pattern:
        formula.reduce_weight(c, w)
    produced = [formula.add_clause(lits, w).cid for lits in produced_lits]
    formula.add_empty(w)
    return RuleApplication(rule_id, [c.cid for c in pattern], produced, w)


def _check_live(clauses) -> None:
    for c in clauses:
        if not c.live:
            raise PatternError(f"clause {c.cid} is not live")


# ---------- rule 1: replacement of almost common clauses ----------

def _clash_literal(c1: Clause, c2: Clause) -> int:
    """The single literal on which two equal-length clauses clash, given
    identical remaining literals; raises PatternError otherwise. Two
    binaries are decided by comparing literals; any other pair, and two
    binaries that are not almost common, go to ``_clash_by_sets``."""
    if c1.size == 2 and c2.size == 2:
        x, y = c1.lits[0], c1.lits[1]
        u, v = c2.lits[0], c2.lits[1]
        if y == v and x == -u or y == u and x == -v:
            return x
        if x == u and y == -v or x == v and y == -u:
            return y
    return _clash_by_sets(c1, c2)


def _clash_by_sets(c1: Clause, c2: Clause) -> int:
    """``_clash_literal`` for clauses of any length."""
    if c1.size != c2.size:
        raise PatternError("almost common clauses must have equal length")
    s1, s2 = set(c1.active()), set(c2.active())
    clash = [lit for lit in s1 if -lit in s2]
    if len(clash) != 1 or s1 - {clash[0]} != s2 - {-clash[0]}:
        raise PatternError(f"clauses {sorted(s1)} / {sorted(s2)} are not almost common")
    return clash[0]


def apply_rule1(formula: Formula, c1: Clause, c2: Clause) -> RuleApplication:
    """{l v rest, -l v rest} -> {rest}; two complementary units fall through
    to rule 2 (the resolvent is the empty clause)."""
    _check_live([c1, c2])
    clash = _clash_literal(c1, c2)
    if c1.size == 1:
        return apply_rule2(formula, c1, c2)
    rest = [lit for lit in c1.active() if lit != clash]
    w = min(c1.weight, c2.weight)
    _audit_sizes(c1.size + c2.size, len(rest))
    formula.reduce_weight(c1, w)
    formula.reduce_weight(c2, w)
    nc = formula.add_clause(rest, w)
    return RuleApplication(R1, [c1.cid, c2.cid], [nc.cid], w)


# ---------- rule 2: complementary unit clauses ----------

def apply_rule2(formula: Formula, u1: Clause, u2: Clause) -> RuleApplication:
    """{l, -l} -> {empty}."""
    _check_live([u1, u2])
    if u1.size != 1 or u2.size != 1 or u1.lits[0] != -u2.lits[0]:
        raise PatternError("rule 2 needs a complementary unit pair")
    return _fire(formula, R2, [u1, u2], [])
