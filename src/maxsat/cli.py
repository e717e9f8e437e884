"""Command-line front end: solve instances, generate benchmark families,
cross-check against the brute-force oracle, and run variant-comparison
experiments into CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import multiprocessing
import os
import sys

from . import gen as generators
from . import oracle as bruteforce
from .dimacs import DimacsError, parse_dimacs, write_cnf, write_wcnf
from .formula import Formula
from .gen import GeneratorSpec
from .rules import RULE_IDS, SolverConfig, VARIANT_NAMES
from .solver import MANDATORY_CONFLICT, OPTIMAL, TIMED_OUT, SearchStats, solve

# the search counters and bounds of SearchStats, so a regression can be
# read from a run's CSV without running it again
STATS_COLUMNS = [f.name for f in dataclasses.fields(SearchStats)
                 if f.name not in ("elapsed", "rule_apps")]
CSV_COLUMNS = ["instance", "variant", "optimum", *STATS_COLUMNS, "time_ms",
               *RULE_IDS, "status"]

ORACLE_CHECK_LIMIT = 18

STATUS_LINES = {OPTIMAL: "s OPTIMUM FOUND", TIMED_OUT: "s TIMEOUT",
                MANDATORY_CONFLICT: "s UNSATISFIABLE"}

# manifest generator key -> GeneratorSpec field
MANIFEST_KEYS = {"seed": "seed", "n": "n", "m": "m", "k": "k",
                 "v": "vertices", "e": "edges", "density": "density"}


def _load_formula(path: str, strict: bool = False) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read(), strict=strict).formula


def _assignment_line(assignment, num_vars) -> str:
    lits = [str(v if assignment[v] else -v) for v in range(1, num_vars + 1)]
    return "v " + " ".join(lits)


def _report(formula: Formula, optimum: int, assignment, status: str) -> None:
    """The answer lines of solve and oracle: o and v only for an
    assignment that keeps every hard clause (cost below TOP), then the s
    line of the status."""
    if not formula.is_top(optimum):
        print(f"o {optimum}")
        print(_assignment_line(assignment, formula.num_vars))
    print(STATUS_LINES[status])


def _timeout_seconds(text: str) -> float:
    """A ``--timeout`` value: seconds, at least 0; ``inf`` means no limit.
    NaN is refused because the deadline check would never fire on it."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected seconds >= 0, got {text!r}")
    return value


def _write_trace(fh, trace) -> None:
    for app in trace:
        consumed = ",".join(str(i) for i in app.consumed)
        produced = ",".join(str(i) for i in app.produced)
        fh.write(f"R{app.rule_id[1:]} consumed={consumed} produced={produced}\n")


def cmd_solve(args) -> int:
    try:
        formula = _load_formula(args.path, strict=args.strict)
        # opened before the search, so a bad path costs no solve
        trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except (OSError, UnicodeDecodeError, DimacsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _solve_and_report(args, formula, trace_fh)
    finally:
        if trace_fh is not None:
            trace_fh.close()


def _solve_and_report(args, formula: Formula, trace_fh) -> int:
    config = SolverConfig.variant(args.variant)
    trace = [] if trace_fh is not None else None
    result = solve(formula, config, timeout=args.timeout, trace=trace)
    _report(formula, result.optimum, result.best_assignment, result.status)
    if args.stats:
        for key, value in result.stats.as_dict().items():
            print(f"{key}={value}")
    if trace_fh is not None:
        _write_trace(trace_fh, trace)
    if args.seedcheck:
        if formula.num_vars > ORACLE_CHECK_LIMIT:
            print(f"c seedcheck skipped: {formula.num_vars} variables "
                  f"exceeds limit {ORACLE_CHECK_LIMIT}")
        elif result.status != OPTIMAL:
            print("c seedcheck skipped: no proven optimum to compare")
        else:
            expected, _ = bruteforce.brute_force_optimum(formula)
            if result.optimum != expected:
                print(f"error: seedcheck mismatch, oracle optimum {expected}",
                      file=sys.stderr)
                return 3
            print(f"c seedcheck ok ({expected})")
    return 0 if result.status == OPTIMAL else 1


def _spec_from_args(args) -> GeneratorSpec:
    if args.family == "ksat":
        return GeneratorSpec("ksat", args.seed, n=args.n, m=args.m, k=args.k)
    if args.family == "maxcut":
        return GeneratorSpec("maxcut", args.seed, vertices=args.vertices,
                             edges=args.edges)
    return GeneratorSpec("color3", args.seed, vertices=args.vertices,
                         density=args.density)


def cmd_gen(args) -> int:
    try:
        formula = generators.gen_from_spec(_spec_from_args(args))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = write_wcnf(formula) if args.wcnf else write_cnf(formula)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    try:
        formula = _load_formula(args.path, strict=args.strict)
        optimum, witness = bruteforce.brute_force_optimum(formula, cap=args.cap)
    except (OSError, DimacsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an optimum at TOP breaks a hard clause: no assignment keeps them all
    feasible = not formula.is_top(optimum)
    _report(formula, optimum, witness,
            OPTIMAL if feasible else MANDATORY_CONFLICT)
    return 0 if feasible else 1


# ---------- benchmark harness ----------

def parse_manifest(text: str):
    """Instance sources, one per line: a DIMACS path, or an inline
    generator spec like 'gen ksat n=15 m=60 k=2 seed=7', told apart by
    its first whitespace-separated field. A missing or unknown family, a
    key outside MANIFEST_KEYS or given twice, or a field value that is
    not a number raises ValueError naming the line."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "gen":
            if len(fields) < 2:
                raise ValueError(f"manifest line {lineno}: generator spec "
                                 f"{line!r} names no family")
            if fields[1] not in generators.FAMILIES:
                raise ValueError(f"manifest line {lineno}: unknown generator "
                                 f"family {fields[1]!r}")
            kv = {}
            for item in fields[2:]:
                key, _, value = item.partition("=")
                if key not in MANIFEST_KEYS or MANIFEST_KEYS[key] in kv:
                    problem = "repeated" if key in MANIFEST_KEYS else "unknown"
                    raise ValueError(f"manifest line {lineno}: {problem} key "
                                     f"in {item!r}")
                try:
                    kv[MANIFEST_KEYS[key]] = (float(value) if key == "density"
                                              else int(value))
                except ValueError:
                    raise ValueError(f"manifest line {lineno}: bad value "
                                     f"in {item!r}") from None
            entries.append((line, GeneratorSpec(fields[1], **kv)))
        else:
            entries.append((line, None))
    return entries


def _bench_task(task):
    instance_id, spec, variant, timeout = task
    row = {col: "" for col in CSV_COLUMNS}
    row["instance"] = instance_id
    row["variant"] = variant
    try:
        if spec is None:
            formula = _load_formula(instance_id)
        else:
            formula = generators.gen_from_spec(spec)
        result = solve(formula, SolverConfig.variant(variant), timeout=timeout)
    except Exception as exc:  # noqa: BLE001 - a bad instance must not kill the run
        row["status"] = "ERROR"
        row["optimum"] = str(exc).replace(",", ";")[:80]
        return row
    row["optimum"] = result.optimum
    row.update(result.stats.as_dict())
    row["time_ms"] = row.pop("elapsed_ms")
    row["status"] = result.status
    return row


def run_bench(entries, variants, timeout=None, jobs=1):
    """Rows in manifest x variant order regardless of worker scheduling;
    at most one worker per task and per CPU (one when the CPU count is
    unknown)."""
    tasks = [(instance_id, spec, variant, timeout)
             for instance_id, spec in entries for variant in variants]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_bench_task, tasks)
    else:
        rows = [_bench_task(task) for task in tasks]
    return rows


def cmd_bench(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            entries = parse_manifest(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    variants = args.variants.split(",")
    for v in variants:
        if v not in VARIANT_NAMES:
            print(f"error: unknown variant {v!r}", file=sys.stderr)
            return 2
    # opened before the tasks run, so a bad path costs no solve
    try:
        out = (open(args.out, "w", newline="", encoding="utf-8")
               if args.out else sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_bench(entries, variants, timeout=args.timeout, jobs=args.jobs)
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0 if all(row["status"] == OPTIMAL for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsat",
        description="Branch-and-bound Max-SAT solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a DIMACS CNF/WCNF instance")
    p_solve.add_argument("path")
    p_solve.add_argument("--variant", choices=VARIANT_NAMES, default="z",
                         help="which inference rules to enable (default z)")
    p_solve.add_argument("--timeout", type=_timeout_seconds, default=None,
                         help="wall-clock limit in seconds")
    p_solve.add_argument("--stats", action="store_true",
                         help="emit search statistics as key=value lines")
    p_solve.add_argument("--trace", metavar="FILE",
                         help="write rule applications to FILE")
    p_solve.add_argument("--seedcheck", action="store_true",
                         help="cross-check the optimum against the oracle")
    p_solve.add_argument("--strict", action="store_true",
                         help="reject sloppy DIMACS files instead of warning")

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_ksat = gen_sub.add_parser("ksat", help="random Max-kSAT")
    p_ksat.add_argument("-n", type=int, required=True, help="variables")
    p_ksat.add_argument("-m", type=int, required=True, help="clauses")
    p_ksat.add_argument("-k", type=int, default=2, help="clause length")
    p_cut = gen_sub.add_parser("maxcut", help="Max-Cut of a random connected graph")
    p_cut.add_argument("-v", "--vertices", type=int, required=True)
    p_cut.add_argument("-e", "--edges", type=int, required=True)
    p_col = gen_sub.add_parser("color3", help="3-coloring of a random 3-colorable graph")
    p_col.add_argument("-v", "--vertices", type=int, required=True)
    p_col.add_argument("--density", type=float, required=True)
    for sp in (p_ksat, p_cut, p_col):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", metavar="FILE", help="write DIMACS here")
        sp.add_argument("--wcnf", action="store_true", help="emit WCNF format")

    p_oracle = sub.add_parser("oracle", help="brute-force optimum of an instance")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--cap", type=int, default=bruteforce.DEFAULT_CAP,
                          help="variable cap for enumeration")
    p_oracle.add_argument("--strict", action="store_true")

    p_bench = sub.add_parser("bench", help="run a variant comparison into CSV")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--variants", default="z",
                         help="comma-separated variant list, e.g. 12,1234,z")
    p_bench.add_argument("--out", metavar="CSV", default=None)
    p_bench.add_argument("--timeout", type=_timeout_seconds, default=None,
                         help="per-instance wall-clock limit")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes, at most one per CPU")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "gen": cmd_gen,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
