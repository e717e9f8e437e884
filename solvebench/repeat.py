"""Run the benchmark over several seeds and report each metric's spread.

    python3 solvebench/repeat.py --seeds 0-9 [--workloads max2sat-z,wpms-z]
                                 [--traced 1] [--out solvebench/baseline.json]

Runs are sequential, one process at a time, with the run length from
``BENCHMARK.json``. For every workload and end-to-end metric it prints
the median, the quartiles and the spread (third minus first quartile,
as a share of the median) next to the metric's bound. ``--traced N``
adds N traced runs per workload (on the first seeds) and reports the
per-layer medians. ``--out`` writes everything, with the git commit,
Python version and CPU count, as JSON. Exits non-zero if a run fails or
a spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    changed = [ln for ln in lines if ln.startswith("# branch counts changed")]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "branch_note": changed[0]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"commit": git_commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
            runs.append(r)
        entry = {"end_to_end": {}, "per_layer": {},
                 "branch_notes": [r["branch_note"] for r in runs]}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            med, q1, q3, sp = spread(values)
            within = name == "setup_s" or sp <= bound
            ok &= within
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": sp,
                "bound": bound, "values": values}
            print(f"  {name:16s} median {med:<12.6g} spread {sp:6.3f} "
                  f"bound {bound:5.3f}{'' if within else '  EXCEEDS BOUND'}")
        traced = [run_once(workload, s, seconds, 1)["metrics"]
                  for s in seeds[:args.traced]]
        for name in (traced[0] if traced else {}):
            entry["per_layer"][name] = statistics.median(t[name] for t in traced)
            print(f"  {name:34s} {entry['per_layer'][name]:.6g}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
