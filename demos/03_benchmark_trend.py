"""Comparing solver variants with the benchmark harness.

Runs a scaled-down version of the variant comparison (random Max-2SAT at a
high clause/variable ratio), writes the CSV the harness emits into a
temporary directory, reads it back and summarizes branch counts per
variant; the directory is removed before the summary is printed. The
full-scale run lives in the acceptance suite (tests/test_acceptance.py).
"""

import csv
import os
import statistics
import tempfile

from maxsat.cli import parse_manifest, run_bench, CSV_COLUMNS

SEEDS = range(1, 16)
manifest = "".join(f"gen ksat n=20 m=300 k=2 seed={s}\n" for s in SEEDS)

entries = parse_manifest(manifest)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trend.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(run_bench(entries, variants=["12", "1234", "z"], jobs=2))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
print(f"CSV holds {len(rows)} rows ({len(SEEDS)} instances x 3 variants)\n")

branches = {"12": [], "1234": [], "z": []}
optima = {}
for row in rows:
    assert row["status"] == "optimal"
    branches[row["variant"]].append(int(row["branches"]))
    optima.setdefault(row["instance"], set()).add(row["optimum"])

print(f"{'variant':>8} {'median branches':>16} {'rule firings (r3..r6)':>24}")
for variant in ("12", "1234", "z"):
    fired = sum(int(r["r3"]) + int(r["r4"]) + int(r["r5"]) + int(r["r6"])
                for r in rows if r["variant"] == variant)
    print(f"{variant:>8} {statistics.median(branches[variant]):>16} {fired:>24}")

assert all(len(v) == 1 for v in optima.values()), "variants must agree"
print("\nEvery variant proved the same optimum on every instance.")
