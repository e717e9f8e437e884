import contextlib
import csv
import io
import multiprocessing
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import maxsat.gen as generators
from maxsat import Formula, write_wcnf
from maxsat.cli import main, parse_manifest
from maxsat.dimacs import DimacsError, parse_cnf

from formulas import THREE_DISJOINT


def write_three_disjoint(tmp_path):
    path = tmp_path / "ex1.cnf"
    lines = ["p cnf 5 9"] + [" ".join(map(str, c)) + " 0" for c in THREE_DISJOINT]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_solve_prints_o_v_s(tmp_path, capsys):
    path = tmp_path / "pair.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "o 1"
    assert out[1].startswith("v ") and len(out[1].split()) == 2
    assert out[2] == "s OPTIMUM FOUND"


def test_solve_three_disjoint(tmp_path, capsys):
    assert main(["solve", write_three_disjoint(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "o 3"


def test_solve_variants_agree(tmp_path, capsys):
    path = write_three_disjoint(tmp_path)
    outputs = []
    for variant in ("0", "z"):
        assert main(["solve", path, "--variant", variant]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[0])
    assert outputs[0] == outputs[1] == "o 3"


def test_solve_stats_lines(tmp_path, capsys):
    assert main(["solve", write_three_disjoint(tmp_path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "branches=" in out and "r3=" in out
    # no TOP, so the search starts from the greedy incumbent
    assert "greedy_ub=3\n" in out and "start_ub=3\n" in out
    # the root's bound is the optimum, so the root is pruned
    assert "root_lb=3\n" in out
    # the greedy incumbent breaks the hard unit; the repair starts the
    # search from a cost-0 assignment
    path = tmp_path / "repair.wcnf"
    path.write_text("p wcnf 2 2 10\n10 2 -1 0\n10 1 0\n")
    assert main(["solve", str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "greedy_ub=10\n" in out and "start_ub=0\n" in out
    # no search: the root's empty weight
    assert "root_lb=0\n" in out


def test_solve_seedcheck(tmp_path, capsys):
    assert main(["solve", write_three_disjoint(tmp_path), "--seedcheck"]) == 0
    assert "seedcheck ok" in capsys.readouterr().out


def test_solve_trace_file(tmp_path, capsys):
    path = tmp_path / "pair.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    trace = tmp_path / "trace.log"
    assert main(["solve", str(path), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines, "expected at least one rule application"
    for line in lines:
        head, consumed, produced = line.split()
        assert head.startswith("R")
        assert consumed.startswith("consumed=")
        assert produced.startswith("produced=")


def test_solve_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf x\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_non_utf8_file_exit(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"p cnf 2 1\n1 -2 0\nc caf\xe9\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


HUGE_HEADER = "p cnf 100000000 0\n"  # 18 bytes, so at most 65554 variables


def _limit_address_space():
    # a parse that allocates for the declared count fails in the child
    # with a MemoryError, not by exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_solve_refuses_a_huge_declared_variable_count(tmp_path):
    path = tmp_path / "huge.cnf"
    path.write_text(HUGE_HEADER)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from maxsat.cli import main; sys.exit(main())",
         "solve", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2, proc.stderr
    assert "variable count 100000000 exceeds 65554" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5, elapsed


def test_variable_cap_is_the_input_length_plus_slack(tmp_path, capsys):
    # "p cnf N 0\n" with a five-digit N is 14 bytes: the cap is 65550
    assert parse_cnf("p cnf 65550 0\n").formula.num_vars == 65550
    with pytest.raises(DimacsError, match="variable count 65551 exceeds 65550"):
        parse_cnf("p cnf 65551 0\n")
    # lenient mode counts the largest literal, after its warning
    lenient = tmp_path / "literal.cnf"
    lenient.write_text("p cnf 1 1\n99999999 0\n")
    with pytest.warns(UserWarning, match="literal 99999999 exceeds"):
        assert main(["solve", str(lenient)]) == 2
    assert "variable count 99999999 exceeds 65557" in capsys.readouterr().err
    huge = tmp_path / "huge.cnf"
    huge.write_text(HUGE_HEADER)
    assert main(["oracle", str(huge)]) == 2
    assert "variable count 100000000 exceeds 65554" in capsys.readouterr().err
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{huge}\ngen ksat n=4 m=6 k=2 seed=1\n")
    out_csv = tmp_path / "result.csv"
    assert main(["bench", str(manifest), "--out", str(out_csv)]) == 1
    rows = list(csv.DictReader(open(out_csv)))
    assert [r["status"] for r in rows] == ["ERROR", "optimal"]
    assert "exceeds 65554" in rows[0]["optimum"]


def test_solve_wcnf_mandatory_conflict(tmp_path, capsys):
    path = tmp_path / "hard.wcnf"
    path.write_text("p wcnf 1 2 10\n10 1 0\n10 -1 0\n")
    assert main(["solve", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "s UNSATISFIABLE" in out
    assert not [line for line in out if line.startswith(("o ", "v "))]


def test_solve_wcnf_timeout_on_infeasible_incumbent(tmp_path, capsys):
    # every assignment breaks a hard clause, so the incumbent the search
    # stops with (normally the greedy one) gets no o or v line
    path = tmp_path / "hard.wcnf"
    path.write_text("p wcnf 2 3 10\n10 1 0\n10 -1 0\n3 2 0\n")
    assert main(["solve", "--timeout", "0", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out in (["s TIMEOUT"], ["s UNSATISFIABLE"])


def test_solve_wcnf_negative_header_exit(tmp_path, capsys):
    path = tmp_path / "neg.wcnf"
    path.write_text("p wcnf -1 0\n")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_wcnf_out_of_range_literal_grows_vars(tmp_path, capsys):
    path = tmp_path / "wide.wcnf"
    path.write_text("p wcnf 2 2 10\n3 1 5 0\n")
    with pytest.warns(UserWarning) as record:
        assert main(["solve", str(path)]) == 0
    assert any("literal 5 exceeds" in str(w.message) for w in record)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "o 0"
    assert out[1].split()[0] == "v" and len(out[1].split()) == 1 + 5
    assert out[2] == "s OPTIMUM FOUND"


def test_solve_wcnf_out_of_range_literal_strict_exit(tmp_path, capsys):
    path = tmp_path / "wide.wcnf"
    path.write_text("p wcnf 2 2 10\n3 1 5 0\n")
    assert main(["solve", str(path), "--strict"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_wcnf_top_below_soft_total(tmp_path, capsys):
    # four soft units of weight 6 under TOP 10: strict mode exits 2 with
    # both numbers; lenient mode warns, reads TOP as 25 and finds the
    # optimum 12, and both commands end in the same s line
    path = tmp_path / "low.wcnf"
    path.write_text("p wcnf 2 4 10\n6 1 0\n6 -1 0\n6 2 0\n6 -2 0\n")
    for cmd in ("solve", "oracle"):
        assert main([cmd, str(path), "--strict"]) == 2
        assert capsys.readouterr().err == \
            "error: soft weight total 24 reaches top 10\n"
        with pytest.warns(UserWarning, match="soft weight total 24 reaches "
                                             "top 10; top read as 25"):
            assert main([cmd, str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "o 12"
        assert out[-1] == "s OPTIMUM FOUND"


def test_gen_ksat_deterministic(tmp_path, capsys):
    args = ["gen", "ksat", "-n", "15", "-m", "90", "-k", "2", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("p cnf 15 90")


def test_gen_maxcut_clause_count(tmp_path, capsys):
    out_file = tmp_path / "cut.cnf"
    assert main(["gen", "maxcut", "-v", "10", "-e", "20", "--seed", "1",
                 "--out", str(out_file)]) == 0
    assert out_file.read_text().startswith("p cnf 10 40")


def test_gen_color3_variable_count(capsys):
    assert main(["gen", "color3", "-v", "12", "--density", "0.5",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("p cnf 36 ")


def test_gen_infeasible_params(capsys, monkeypatch):
    assert main(["gen", "maxcut", "-v", "4", "-e", "2", "--seed", "1"]) == 2
    capsys.readouterr()
    # a near-tree edge count exhausts the connected-draw retries
    monkeypatch.setattr(generators, "CONNECT_RETRY_LIMIT", 10)
    assert main(["gen", "maxcut", "-v", "60", "-e", "59", "--seed", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: no connected graph found within the retry limit\n"


def test_oracle_subcommand(tmp_path, capsys):
    assert main(["oracle", write_three_disjoint(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "o 3"
    assert out[1].startswith("v ")


def test_oracle_wcnf_mandatory_conflict(tmp_path, capsys):
    # no assignment keeps both hard units: reported as solve reports it
    path = tmp_path / "hard.wcnf"
    path.write_text("p wcnf 1 2 10\n10 1 0\n10 -1 0\n")
    assert main(["oracle", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == ["s UNSATISFIABLE"]


def test_oracle_non_utf8_file_exit(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"p cnf 2 1\n1 -2 0\nc caf\xe9\n")
    assert main(["oracle", str(path)]) == 2
    assert "error" in capsys.readouterr().err


# weights whose sums overflow int64: 2^62 + 2^62 + 5 and a TOP of 10^23
BIG_SOFT = ("p wcnf 1 3\n4611686018427387904 1 0\n"
            "4611686018427387904 1 0\n5 -1 0\n")
BIG_TOP = "p wcnf 1 2 99999999999999999999999\n99999999999999999999999 1 0\n3 -1 0\n"


def test_oracle_sums_weights_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.wcnf"
    path.write_text(BIG_SOFT)
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["o 5", "v 1",
                                                    "s OPTIMUM FOUND"]


def test_seedcheck_agrees_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.wcnf"
    path.write_text(BIG_SOFT)
    assert main(["solve", str(path), "--seedcheck"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "o 5" and out[-1] == "c seedcheck ok (5)"


def test_top_beyond_int64_ends_in_an_answer(tmp_path, capsys):
    path = tmp_path / "top.wcnf"
    path.write_text(BIG_TOP)
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["o 3", "v 1",
                                                    "s OPTIMUM FOUND"]
    assert main(["solve", str(path), "--seedcheck"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "c seedcheck ok (3)"
    # both hard units cannot hold: the saturated optimum is TOP itself
    path.write_text("p wcnf 1 2 2361183241434822606848\n"
                    "2361183241434822606848 1 0\n2361183241434822606848 -1 0\n")
    assert main(["oracle", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == ["s UNSATISFIABLE"]


def _run_main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue().splitlines()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_solve_and_oracle_agree_on_huge_weights(tmp_path_factory, data):
    # weights up to 2^70, with or without a TOP: solve and the oracle
    # report the same optimum (or both no assignment below TOP), each
    # with an exit code, and each read warns of the lenient TOP lift
    # exactly when the drawn TOP is at or below the soft total, which a
    # TOP of 1-9 often is
    n = data.draw(st.integers(1, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = data.draw(st.lists(
        st.lists(lit, min_size=1, max_size=3, unique_by=abs), max_size=10))
    weight = st.one_of(st.integers(1, 9), st.integers(1, 1 << 70))
    weights = data.draw(st.lists(weight, min_size=len(clauses),
                                 max_size=len(clauses)))
    top = data.draw(st.one_of(st.none(), st.integers(1, 9),
                              st.integers(1, 1 << 71)))
    formula = Formula.from_clauses(n, clauses, weights=weights, top=top)
    path = tmp_path_factory.mktemp("huge") / "f.wcnf"
    path.write_text(write_wcnf(formula))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, solved = _run_main(["solve", str(path)])
        oracle_code, oracle = _run_main(["oracle", str(path)])
    soft = sum(w for w in weights if top is not None and w < top)
    lift = (UserWarning, f"soft weight total {soft} reaches top {top}; "
                         f"top read as {soft + 1}")
    assert [(w.category, str(w.message)) for w in caught] == \
        ([lift, lift] if top is not None and soft >= top else [])
    assert code == oracle_code
    assert [x for x in solved if x[0] in "os"] == \
        [x for x in oracle if x[0] in "o"] + \
        (["s UNSATISFIABLE"] if oracle_code else ["s OPTIMUM FOUND"])


def test_manifest_parsing():
    entries = parse_manifest(
        "# comment\n\nfoo.cnf\ngen ksat n=5 m=10 k=2 seed=3\n"
        "gen color3 v=4 density=0.5 seed=1\ngen\tksat n=5 m=10 k=2 seed=1\n")
    assert entries[0] == ("foo.cnf", None)
    assert entries[1][1].family == "ksat" and entries[1][1].m == 10
    assert entries[2][1].density == 0.5
    assert entries[3][1].family == "ksat" and entries[3][1].seed == 1
    with pytest.raises(ValueError, match="line 2: .*names no family"):
        parse_manifest("foo.cnf\ngen\n")


def test_bench_malformed_manifest_exit(tmp_path, capsys, monkeypatch):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"gen ksat n=5 m=10 k=2\n# caf\xe9\n")
    bad_value = tmp_path / "bad_value.txt"
    bad_value.write_text("gen ksat n=5 m=10 k=2\ngen ksat n=x m=10\n")
    unknown_key = tmp_path / "unknown_key.txt"
    unknown_key.write_text("gen ksat n=5 m=10 k=2\ngen ksat n=5 m=10 k=2 sed=3\n")
    unknown_family = tmp_path / "unknown_family.txt"
    unknown_family.write_text("gen ksat n=5 m=10 k=2\ngen foo n=3 m=4\n")
    repeated_key = tmp_path / "repeated_key.txt"
    repeated_key.write_text("gen ksat n=5 m=10 k=2\ngen ksat n=3 m=4 n=5 k=2\n")
    bare_gen = tmp_path / "bare_gen.txt"
    bare_gen.write_text("gen ksat n=5 m=10 k=2\ngen\n")
    tab_gen = tmp_path / "tab_gen.txt"
    tab_gen.write_text("gen ksat n=5 m=10 k=2\ngen\tksat n=5 m=10 k=2 sed=1\n")
    solves = []
    monkeypatch.setattr("maxsat.cli.solve", lambda *a, **kw: solves.append(a))
    for manifest in (latin1, bad_value, unknown_key, unknown_family,
                     repeated_key, bare_gen, tab_gen):
        assert main(["bench", str(manifest)]) == 2
        assert "error: " in capsys.readouterr().err
    assert solves == []
    with pytest.raises(ValueError, match="line 2"):
        parse_manifest(bad_value.read_text())
    with pytest.raises(ValueError, match="line 2: unknown key"):
        parse_manifest(unknown_key.read_text())
    with pytest.raises(ValueError, match="line 2: unknown generator family"):
        parse_manifest(unknown_family.read_text())
    with pytest.raises(ValueError, match="line 2: repeated key"):
        parse_manifest(repeated_key.read_text())
    with pytest.raises(ValueError, match="line 2: .*names no family"):
        parse_manifest(bare_gen.read_text())
    with pytest.raises(ValueError, match="line 2: unknown key"):
        parse_manifest(tab_gen.read_text())


@pytest.mark.parametrize("argv", [
    ["gen", "ksat", "-n", "5", "-m", "5", "--out", "{missing}/x.cnf"],
    ["solve", "{cnf}", "--trace", "{missing}/x.log"],
    ["bench", "{manifest}", "--out", "{missing}/o.csv"],
    ["solve", "{cnf}", "--timeout", "nan"],
    ["solve", "{cnf}", "--timeout", "-1"],
    ["bench", "{manifest}", "--timeout", "nan"],
    ["bench", "{manifest}", "--timeout", "-1"],
], ids=["gen-out", "solve-trace", "bench-out", "solve-timeout-nan",
        "solve-timeout-negative", "bench-timeout-nan",
        "bench-timeout-negative"])
def test_bad_output_path_or_timeout_exit(tmp_path, capsys, monkeypatch, argv):
    # an unwritable output path or a timeout the deadline check cannot
    # compare exits 2 with an error, before any solve starts
    solves = []
    monkeypatch.setattr("maxsat.cli.solve", lambda *a, **kw: solves.append(a))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gen ksat n=5 m=10 k=2 seed=1\n")
    paths = {"cnf": write_three_disjoint(tmp_path), "manifest": str(manifest),
             "missing": str(tmp_path / "missing")}
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse rejects a bad --timeout
        code = exc.code
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert solves == []


def test_bench_csv(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "gen ksat n=8 m=24 k=2 seed=1\ngen ksat n=8 m=24 k=2 seed=2\n")
    out_csv = tmp_path / "result.csv"
    assert main(["bench", str(manifest), "--variants", "0,z",
                 "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 instances x 2 variants
    assert set(rows[0]) == {"instance", "variant", "optimum", "branches",
                            "nodes", "pruned", "peak_depth", "greedy_ub",
                            "start_ub", "root_lb", "time_ms", "r1", "r2", "r3", "r4",
                            "r5", "r6", "status"}
    by_instance = {}
    for row in rows:
        assert row["status"] == "optimal"
        by_instance.setdefault(row["instance"], set()).add(row["optimum"])
    for optima in by_instance.values():
        assert len(optima) == 1  # variants agree per instance


def test_bench_error_row_continues(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("missing.cnf\ngen ksat n=4 m=6 k=2 seed=1\n")
    out_csv = tmp_path / "result.csv"
    assert main(["bench", str(manifest), "--out", str(out_csv)]) == 1
    rows = list(csv.DictReader(open(out_csv)))
    assert rows[0]["status"] == "ERROR"
    assert rows[1]["status"] == "optimal"


def test_bench_stable_columns(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gen ksat n=8 m=30 k=2 seed=5\n")
    csvs = []
    for name in ("a.csv", "b.csv"):
        out_csv = tmp_path / name
        assert main(["bench", str(manifest), "--variants", "12,z",
                     "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        csvs.append([(r["instance"], r["variant"], r["optimum"], r["branches"],
                      r["nodes"]) for r in rows])
    assert csvs[0] == csvs[1]


def test_bench_jobs_capped_at_task_count(tmp_path, monkeypatch, capsys):
    # the pool never outnumbers the tasks or the CPUs, and --jobs below 1
    # is rejected
    sizes = []
    cpus = [8]

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus[0])
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gen ksat n=6 m=12 k=2 seed=1\n"
                        "gen ksat n=6 m=12 k=2 seed=2\n")
    assert main(["bench", str(manifest), "--jobs", "64"]) == 0
    assert sizes == [2]
    # four tasks on three CPUs; one CPU or an unknown count runs in process
    for cpus[0], expected in ((3, [2, 3]), (1, [2, 3]), (None, [2, 3])):
        assert main(["bench", str(manifest), "--variants", "0,z",
                     "--jobs", "64"]) == 0
        assert sizes == expected
    capsys.readouterr()
    for jobs in ("0", "-3"):
        assert main(["bench", str(manifest), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs")
    assert sizes == [2, 3]
