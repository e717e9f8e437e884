"""DIMACS CNF / WCNF parsing and serialization.

Whitespace of any kind separates tokens and clauses may span lines.
Empty clauses are written as a bare terminator line (a solver-internal
extension; standard DIMACS has no empty clause).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .formula import Formula, normalize_lits


class DimacsError(ValueError):
    pass


@dataclass
class ParsedInstance:
    formula: Formula
    comments: list[str] = field(default_factory=list)
    declared_variables: int = 0
    declared_clauses: int = 0


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
    return ParsedInstance(formula, comments, n, m)


def parse_cnf(text: str, strict: bool = True) -> ParsedInstance:
    """Parse a DIMACS CNF stream into a weight-1 clause multiset."""
    return _read(text, "cnf", strict)


def parse_wcnf(text: str, strict: bool = True) -> ParsedInstance:
    """Parse a DIMACS WCNF stream; weights equal to the declared top are
    mandatory clauses."""
    return _read(text, "wcnf", strict)


def parse_dimacs(text: str, strict: bool = True) -> ParsedInstance:
    """Parse CNF or WCNF, whichever the 'p' line declares."""
    return _read(text, None, strict)


def _clause_lits(formula: Formula):
    """Weight and literal string of each live clause."""
    for c in formula.clauses():
        yield c.weight, " ".join(map(str, c.active()))


def write_cnf(formula: Formula) -> str:
    """Serialize as DIMACS CNF; round-trips the clause multiset exactly.

    Empty-clause weight is emitted as that many bare terminator lines. A
    formula with a TOP or a live clause of weight other than 1 raises
    ValueError: CNF has no weights (write_wcnf keeps them).
    """
    if formula.top is not None or any(c.weight != 1 for c in formula.clauses()):
        raise ValueError("CNF carries no weights or TOP; use write_wcnf")
    lines = [f"{lits} 0" for _, lits in _clause_lits(formula)]
    lines.extend(["0"] * formula.empty_weight)
    head = f"p cnf {formula.num_vars} {len(lines)}"
    return "\n".join([head] + lines) + "\n"


def write_wcnf(formula: Formula) -> str:
    lines = [f"{weight} {lits} 0" for weight, lits in _clause_lits(formula)]
    if formula.empty_weight:
        lines.append(f"{formula.empty_weight} 0")
    head = f"p wcnf {formula.num_vars} {len(lines)}"
    if formula.top is not None:
        head += f" {formula.top}"
    return "\n".join([head] + lines) + "\n"
