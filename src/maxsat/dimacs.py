"""DIMACS CNF / WCNF parsing and serialization.

Whitespace of any kind separates tokens and clauses may span lines.
Empty clauses are written as a bare terminator line (a solver-internal
extension; standard DIMACS has no empty clause).
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass, field
from itertools import chain

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
    """Comment lines, the header's tokens (None without one) and the token
    stream of every other line. Lines are walked one at a time only up to
    the last one holding a 'c' or a 'p': no later line can be a comment or
    a header, and every line break is whitespace, so one split reads the
    rest."""
    comments = []
    tokens = []
    header = None
    last = max(text.rfind("c"), text.rfind("p"))
    cut = (text.find("\n", last) + 1 or len(text)) if last >= 0 else 0
    for line in text[:cut].splitlines():
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
    tokens.extend(text[cut:].split())
    return comments, header, tokens


def _int_token(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DimacsError(f"non-integer token {tok!r}") from None


def _clauses(nums: list[int], weighted: bool):
    """The literal lists and weights of the clauses in the integer stream,
    in order, and the DimacsError that ends the stream early, or None."""
    clauses: list[list[int]] = []
    weights: list[int] = []
    index = nums.index
    pos, total = 0, len(nums)
    while pos < total:
        weight = 1
        if weighted:
            weight = nums[pos]
            pos += 1
            if weight <= 0:
                return clauses, weights, DimacsError(
                    f"clause weight {weight} must be >= 1")
        try:
            end = index(0, pos)
        except ValueError:
            return clauses, weights, DimacsError(
                "unterminated clause (missing trailing 0)")
        clauses.append(nums[pos:end])
        weights.append(weight)
        pos = end + 1
    return clauses, weights, None


def _read(text: str, dialect: str | None, strict: bool) -> ParsedInstance:
    """The clause format both dialects share: 'p cnf <vars> <clauses>' or
    'p wcnf <vars> <clauses> [top]', then clauses ending in 0, each led
    by its weight in WCNF. A dialect of None takes it from the header
    (anything but wcnf reads as CNF). A TOP must exceed the total weight
    of the clauses below it, empty ones included (tautologies are dropped
    and not counted): otherwise breaking only soft clauses could cost TOP,
    which reads as infeasible. Lenient mode warns instead of failing on a
    wrong clause count or a TOP that is too low, reads such a TOP as the
    soft total plus one (and every clause at or above the declared TOP at
    the new one), and grows the variable count to the largest literal.

    The cyclic garbage collector is paused for the parse: a parse
    allocates little besides the formula it returns, so a collection
    would only walk survivors."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text, dialect, strict)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str, dialect: str | None, strict: bool) -> ParsedInstance:
    """``_read`` in whole-stream passes: the literal range is checked by
    one min and max, and only a clause whose variables are not all
    distinct is normalized. A clause is walked literal by literal only
    when some literal is out of range, in stream order, so every error
    and warning comes in the order of a clause-by-clause read."""
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
    try:
        nums = list(map(int, tokens))
    except ValueError:
        nums = [_int_token(tok) for tok in tokens]  # names the first bad one
    clauses, weights, broken = _clauses(nums, weighted)
    # a stream that ends early fails before any warning in lenient mode;
    # strict mode first reports a range error in a complete clause
    if broken is not None and not strict:
        raise broken
    count = len(clauses)
    lits = nums if not weighted and broken is None \
        else list(chain.from_iterable(clauses))
    # the largest variable, 0 without literals
    largest = max(max(lits, default=0), -min(lits, default=0))
    # the clauses to walk: every one if a literal is out of range, else
    # those that repeat a variable
    walk = range(count) if largest > n else [
        i for i, c in enumerate(clauses)
        if len(c) > 1 and len(set(map(abs, c))) < len(c)]
    dropped = []
    for i in walk:
        c = clauses[i]
        if largest > n:
            for lit in c:
                if abs(lit) > n:
                    msg = f"literal {lit} exceeds declared variable count {n}"
                    if strict:
                        raise DimacsError(msg)
                    warnings.warn(msg)
        if len(set(map(abs, c))) < len(c):
            norm = normalize_lits(c)
            if norm is None:
                warnings.warn(f"tautological clause {c} dropped")
                dropped.append(i)
            else:
                clauses[i] = norm
    if broken is not None:
        raise broken
    for i in reversed(dropped):
        del clauses[i], weights[i]
    if count != m:
        msg = f"header declares {m} clauses but {count} were read"
        if strict:
            raise DimacsError(msg)
        warnings.warn(msg)
    if top is not None:
        soft = sum(w for w in weights if w < top)
        if soft >= top:
            msg = f"soft weight total {soft} reaches top {top}"
            if strict:
                raise DimacsError(msg)
            warnings.warn(f"{msg}; top read as {soft + 1}")
            weights = [w if w < top else soft + 1 for w in weights]
            top = soft + 1
    formula = Formula(n if strict else max(n, largest), top=top)
    if [] in clauses:
        formula.empty_weight = sum(w for c, w in zip(clauses, weights) if not c)
        weights = [w for c, w in zip(clauses, weights) if c]
        clauses = [c for c in clauses if c]
    formula.add_clauses_unchecked(clauses, weights)
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
