"""Compute the stored reference of every workload pool: ``reference.json``.

For every pool instance the workload's own variant is solved and its
optimum must match an independent reference: the brute-force oracle when
the instance is within its variable cap, otherwise variant ``0``. The
solver's branch count is stored as the seed-commit count that later runs
compare against. For ``max2sat-z`` the branch counts are also checked
against the ``maxsat bench`` CLI on the same ``gen ksat`` lines.

Run from the repository root (takes tens of minutes on two cores):

    python3 solvebench/build_reference.py --jobs 2
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from maxsat import (OPTIMAL, SolverConfig, brute_force_optimum,  # noqa: E402
                    parse_cnf, parse_wcnf, solve)
from maxsat.oracle import DEFAULT_CAP  # noqa: E402

from workloads import REFERENCE_PATH, WORKLOADS, instance_text  # noqa: E402


def reference_task(task):
    name, gen_seed = task
    w = WORKLOADS[name]
    text = instance_text(w, gen_seed)
    parse = parse_cnf if w.family == "ksat" else parse_wcnf
    formula = parse(text).formula
    result = solve(formula, SolverConfig.variant(w.variant))
    if result.status != OPTIMAL:
        raise RuntimeError(f"{name} seed {gen_seed}: status {result.status}")
    if formula.cost(result.best_assignment) != result.optimum:
        raise RuntimeError(f"{name} seed {gen_seed}: witness cost mismatch")
    if formula.num_vars <= DEFAULT_CAP:
        expected, _ = brute_force_optimum(formula)
    else:
        expected = solve(formula, SolverConfig.variant("0")).optimum
    if expected != result.optimum:
        raise RuntimeError(f"{name} seed {gen_seed}: optimum {result.optimum} "
                           f"!= reference {expected}")
    return name, gen_seed, result.optimum, result.stats.branches


def bench_cli_branches(n: int, m: int, k: int, seeds) -> dict[int, tuple[int, int]]:
    """{seed: (optimum, branches)} as ``maxsat bench --variants z`` reports."""
    out_dir = ROOT / ".solvebench_out"
    out_dir.mkdir(exist_ok=True)
    manifest = out_dir / "reference_manifest.txt"
    manifest.write_text("".join(f"gen ksat n={n} m={m} k={k} seed={s}\n"
                                for s in seeds))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "maxsat.cli", "bench", str(manifest),
         "--variants", "z"],
        env=env, capture_output=True, text=True, check=True)
    manifest.unlink()
    out = {}
    for row in csv.DictReader(io.StringIO(proc.stdout)):
        seed = int(row["instance"].rsplit("seed=", 1)[1])
        out[seed] = (int(row["optimum"]), int(row["branches"]))
    return out


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    tasks = [(name, s) for name in names for s in range(WORKLOADS[name].pool_size)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        rows = pool.map(reference_task, tasks, chunksize=1)
    pools = {name: [] for name in names}
    for name, seed, opt, branches in rows:
        pools[name].append([seed, opt, branches])

    z = WORKLOADS["max2sat-z"]
    if "max2sat-z" in pools:
        cli = bench_cli_branches(z.params["n"], z.params["m"], z.params["k"],
                                 [row[0] for row in pools["max2sat-z"]])
        for seed, opt, branches in pools["max2sat-z"]:
            if cli[seed] != (opt, branches):
                raise RuntimeError(f"max2sat-z seed {seed}: benchmark reads "
                                   f"{(opt, branches)}, maxsat bench {cli[seed]}")

    entries = {}
    if REFERENCE_PATH.exists():  # keep the pools of workloads not rebuilt
        entries = json.loads(REFERENCE_PATH.read_text())["workloads"]
    for name in names:
        w = WORKLOADS[name]
        entries[name] = {"variant": w.variant, "params": w.params,
                         "reference": w.reference, "pool": pools[name]}
    data = {"generated_with": {"commit": git_commit(),
                               "python": platform.python_version(),
                               "nproc": os.cpu_count()},
            "workloads": entries}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
