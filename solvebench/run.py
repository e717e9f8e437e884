"""Solve benchmark: time seeded Max-SAT corpora through ``maxsat.solve``.

    python3 solvebench/run.py --workload max2sat-z --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
One workload per process, single-threaded. The run

1. draws the workload's corpus for ``--seed`` (see ``workloads.py``) and
   writes every instance as DIMACS/WCNF text;
2. measures set-up: a fresh interpreter importing ``maxsat`` plus parsing
   the corpus text, each repeated and reported as a median;
3. solves the corpus round-robin, each solve on a freshly parsed formula,
   until ``--seconds`` have passed and every instance was solved at least
   once; an instance's time is the median over its solves;
4. with ``--trace 1``, solves the corpus once more with every layer probe
   of ``spans.py`` installed and reports per-layer counts and times.

Times are reported in reference seconds. On a host shared with other
load, the same solve can take half as long again for minutes at a time.
So right before each timed step the run times ``speed_probe()``, a fixed
pure-Python workload that shares no code with ``maxsat``, and reports
``measured * PROBE_REFERENCE_S / probe``: the step's time on a host where
the probe takes ``PROBE_REFERENCE_S``. Slowing ``maxsat`` moves these
times as much as it moves wall time; load from elsewhere slows probe and
solve alike and cancels. ``corpus_wall_s`` and ``machine.probe_s`` keep
the raw figures.

Every solve is checked: proven optimal within the per-instance limit,
optimum equal to the stored reference, witness cost equal to the
optimum, formula restored (same clause multiset, ``audit()`` passes) and
search statistics equal on every repeat. Instances whose branch count
differs from the seed commit's are listed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".solvebench_out"

SETUP_REPEATS = 7
INSTANCE_LIMIT_S = 30.0
# speed_probe() on an unloaded 2-CPU x86-64 host under Python 3.11.7
PROBE_REFERENCE_S = 0.016
PROBE_DATA = [random.Random(1).randrange(1000) for _ in range(20000)]

IMPORT_PROBE = ("import time; t = time.perf_counter(); import maxsat; "
                "print(time.perf_counter() - t)")


class BenchmarkError(Exception):
    """The checkout cannot run the benchmark (missing package or data)."""


def import_package():
    if not (SRC / "maxsat" / "__init__.py").is_file():
        raise BenchmarkError(f"no maxsat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import maxsat
    if Path(maxsat.__file__).resolve().parent != (SRC / "maxsat").resolve():
        raise BenchmarkError(f"imported maxsat from {maxsat.__file__}")
    return maxsat


def fresh_import_times() -> tuple[float, float]:
    """(wall s of a fresh interpreter importing maxsat, the import alone)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    return wall, float(proc.stdout.strip())


def speed_probe() -> float:
    """Seconds taken by a fixed dict/sort workload independent of maxsat."""
    counts: dict[int, int] = {}
    t0 = time.perf_counter()
    for _ in range(2):
        counts.clear()
        for i, x in enumerate(PROBE_DATA):
            counts[x] = counts.get(x, 0) + (i & 3)
        ordered = sorted(PROBE_DATA, key=lambda v: -v)
        sum(v for v in ordered if v & 1)
    return time.perf_counter() - t0


def reference_s(measured: float, probe: float) -> float:
    return measured * PROBE_REFERENCE_S / probe


def upper_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Bench:
    def __init__(self, maxsat, workload, seed: int):
        from workloads import draw_corpus, instance_text, load_reference
        self.maxsat = maxsat
        self.w = workload
        pool = load_reference()[workload.name]
        self.gen_seeds = draw_corpus(workload, seed, pool)
        self.expected = [pool[s] for s in self.gen_seeds]
        self.texts = [instance_text(workload, s) for s in self.gen_seeds]
        self.config = maxsat.SolverConfig.variant(workload.variant)
        self.parse_name = "parse_cnf" if workload.family == "ksat" else "parse_wcnf"
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list[dict | None] = [None] * len(self.texts)
        self.multisets = []
        # per instance: (solve seconds, probe seconds right before it)
        self.samples: list[list[tuple[float, float]]] = [[] for _ in self.texts]
        self.traced: list[tuple[float, float] | None] = [None] * len(self.texts)

    def parse(self, text):
        # looked up on each call so that a traced run sees the probe
        return getattr(self.maxsat.dimacs, self.parse_name)(text).formula

    # ---------- set-up ----------

    def measure_setup(self) -> dict:
        fresh_import_times()  # warm the bytecode cache
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            probe = speed_probe()
            wall, import_s = fresh_import_times()
            t0 = time.perf_counter()
            formulas = [self.parse(t) for t in self.texts]
            parse = time.perf_counter() - t0
            setups.append(reference_s(wall + parse, probe))
            imports.append(reference_s(import_s, probe))
        self.multisets = [f.as_multiset() for f in formulas]
        return {"setup_s": statistics.median(setups),
                "maxsat.import_s": statistics.median(imports)}

    # ---------- one checked solve ----------

    def solve_one(self, i: int):
        """Solve instance i once; seconds taken, or None on any failure."""
        self.attempted += 1
        tag = f"{self.w.name} instance {i} (gen seed {self.gen_seeds[i]})"
        try:
            formula = self.parse(self.texts[i])
            stamp = formula.prop_stamp
            t0 = time.perf_counter()
            result = self.maxsat.solve(formula, self.config,
                                       timeout=INSTANCE_LIMIT_S)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
            return None
        problem = self.check(i, formula, result, formula.prop_stamp - stamp)
        if problem:
            self.failures.append(f"{tag}: {problem}")
            return None
        return elapsed

    def check(self, i, formula, result, passes) -> str | None:
        optimum, _ = self.expected[i]
        if result.status != self.maxsat.OPTIMAL:
            return f"status {result.status}"
        if result.optimum != optimum:
            return f"optimum {result.optimum}, reference {optimum}"
        if formula.cost(result.best_assignment) != optimum:
            return "witness cost differs from the optimum"
        if formula.as_multiset() != self.multisets[i]:
            return "formula not restored after solve"
        try:
            formula.audit()
        except AssertionError as exc:
            return f"audit failed: {exc}"
        s = result.stats
        stats = {"branches": s.branches, "nodes": s.nodes, "pruned": s.pruned,
                 "peak_depth": s.peak_depth, "passes": passes,
                 **s.rule_apps}
        if self.first[i] is None:
            self.first[i] = stats
        elif self.first[i] != stats:
            return "search statistics differ between repeats"
        return None

    # ---------- untraced measurement ----------

    def measure(self, seconds: float) -> None:
        """Round-robin probed solves for the given time."""
        t_end = time.perf_counter() + seconds
        i = 0
        while i < len(self.texts) or time.perf_counter() < t_end:
            k = i % len(self.texts)
            probe = speed_probe()
            elapsed = self.solve_one(k)
            if elapsed is not None:
                self.samples[k].append((elapsed, probe))
            i += 1

    def instance_times(self) -> list[float]:
        """Median reference seconds of each instance's solves."""
        return [statistics.median(reference_s(e, p) for e, p in s) if s else math.nan
                for s in self.samples]

    # ---------- traced pass ----------

    def traced_pass(self, recorder):
        from spans import installed
        with installed(recorder):
            for i in range(len(self.texts)):
                recorder.current_instance = i
                probe = speed_probe()
                elapsed = self.solve_one(i)
                if elapsed is not None:
                    self.traced[i] = (elapsed, probe)
            recorder.current_instance = -1


def totals(firsts: list[dict]) -> dict:
    out = {k: sum(f[k] for f in firsts) for k in firsts[0]}
    out["peak_depth"] = max(f["peak_depth"] for f in firsts)
    return out


def end_to_end(bench: Bench, setup) -> dict:
    times = bench.instance_times()
    solved = bench.attempted - len(bench.failures)
    return {
        "corpus_s": (sum(times), "s"),
        "instance_s.p50": (statistics.median(times), "s"),
        "instance_s.p75": (upper_quartile(times), "s"),
        "branches": (sum(f["branches"] for f in bench.first if f), "count"),
        "solved_frac": (solved / bench.attempted, "1"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(bench: Bench, setup, recorder) -> dict:
    tot = totals(bench.first)
    corpus_s = sum(bench.instance_times())
    traced_ref_s = sum(reference_s(e, p) for e, p in bench.traced)
    # span times of the traced pass, in reference seconds
    scale = PROBE_REFERENCE_S / statistics.mean(p for _, p in bench.traced)
    spans = recorder.summary()

    def seconds(*names, key="total_s"):
        return sum(spans.get(n, {}).get(key, 0.0) for n in names) * scale, "s"

    def count(*names):
        return sum(spans.get(n, {}).get("count", 0) for n in names)

    layer_self = {}
    for label, s in spans.items():
        layer = label.split(".", 1)[0]
        if layer != "dimacs":
            layer_self[layer] = layer_self.get(layer, 0.0) + s["self_s"]
    traced_s = spans["solver.solve"]["total_s"]
    conflicts = count("propagate.extract")
    m = {
        "solver.nodes": (tot["nodes"], "count"),
        "solver.pruned": (tot["pruned"], "count"),
        "solver.peak_depth": (tot["peak_depth"], "count"),
        "solver.nodes_per_s": (tot["nodes"] / corpus_s, "1/s"),
        "solver.search_self_s": seconds("solver.solve", key="self_s"),
        "solver.simplify_s": seconds("solver.simplify"),
        "solver.rule1_pass_s": seconds("solver.rule1_pass"),
        "solver.rule2_pass_s": seconds("solver.rule2_pass"),
        "solver.pure_s": seconds("solver.pure"),
        "solver.duc_s": seconds("solver.duc"),
        "solver.empty_unit_s": seconds("solver.empty_unit"),
        "solver.select_s": seconds("solver.select_variable", "solver.select_value"),
        "solver.initial_ub_s": seconds("solver.initial_ub"),
        "propagate.underestimation_s": seconds("propagate.underestimation"),
        "propagate.underestimation_self_s": seconds(
            "propagate.underestimation", key="self_s"),
        "propagate.passes": (tot["passes"], "count"),
        "propagate.passes_per_node": (tot["passes"] / tot["nodes"], "1"),
        "propagate.conflicts": (conflicts, "count"),
        "propagate.extract_s": seconds("propagate.extract"),
        "propagate.classify_s": seconds("propagate.classify"),
        "propagate.rule_hit_ratio": (
            count("rules.fire") / conflicts if conflicts else 0.0, "1"),
    }
    for r in bench.maxsat.RULE_IDS:
        m[f"rules.{r}"] = (tot[r], "count")
    m |= {
        "rules.fire_s": seconds("rules.fire"),
        "rules.apply_rule1_s": seconds("rules.apply_rule1"),
        "rules.apply_rule2_s": seconds("rules.apply_rule2"),
        "formula.assign_s": seconds("formula.assign"),
        "formula.assigns": (count("formula.assign"), "count"),
        "formula.undo_s": seconds("formula.undo"),
        "formula.undo_entries": (recorder.work.get("formula.undo", 0), "count"),
        "formula.detach_s": seconds("formula.detach", "formula.attach"),
        "formula.detaches": (count("formula.detach", "formula.attach"), "count"),
        "dimacs.parse_s": seconds("dimacs.parse"),
        "dimacs.bytes": (sum(len(t.encode()) for t in bench.texts), "B"),
        "maxsat.import_s": (setup["maxsat.import_s"], "s"),
        "corpus_wall_s": (sum(statistics.median(e for e, _ in s)
                              for s in bench.samples), "s"),
        "machine.probe_s": (statistics.median(
            p for s in bench.samples for _, p in s), "s"),
        "trace.corpus_s": (traced_ref_s, "s"),
        "trace.overhead": (traced_ref_s / corpus_s, "x"),
        "trace.spans": (len(recorder), "count"),
    }
    for layer in ("solver", "propagate", "rules", "formula"):
        m[f"share.{layer}"] = (layer_self.get(layer, 0.0) / traced_s, "1")
    return m


def declared_metrics(group: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[group]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Max-SAT solve benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        maxsat = import_package()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(WORKLOADS)}")
        bench = Bench(maxsat, WORKLOADS[args.workload], args.seed)
    except (BenchmarkError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup = bench.measure_setup()
    bench.measure(args.seconds)
    metrics = end_to_end(bench, setup)
    if args.trace and not bench.failures:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        bench.traced_pass(recorder)
        if not bench.failures:
            metrics |= per_layer(bench, setup, recorder)
            OUT_DIR.mkdir(exist_ok=True)
            recorder.save(OUT_DIR / f"spans-{bench.w.name}.npz",
                          gen_seeds=bench.gen_seeds)

    n = len(bench.texts)
    print(f"# {bench.w.name} seed {args.seed}: {n} instances, "
          f"{bench.attempted} checked solves, variant {bench.w.variant}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    changed = [f"gen seed {s}: {ref[1]} -> {got['branches']}"
               for s, ref, got in zip(bench.gen_seeds, bench.expected, bench.first)
               if got is not None and got["branches"] != ref[1]]
    print(f"# branch counts changed from the seed commit on {len(changed)} "
          f"of {n} instances" + (": " + "; ".join(changed) if changed else ""))
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")
    ok = not bench.failures
    result = {"correct": ok, "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in wanted
                          if k in metrics and math.isfinite(metrics[k][0])}}
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
