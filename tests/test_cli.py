import csv
import multiprocessing

import pytest

from maxsat.cli import main, parse_manifest

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


def test_solve_wcnf_mandatory_conflict(tmp_path, capsys):
    path = tmp_path / "hard.wcnf"
    path.write_text("p wcnf 1 2 10\n10 1 0\n10 -1 0\n")
    assert main(["solve", str(path)]) == 1
    assert "s UNSATISFIABLE" in capsys.readouterr().out


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


def test_gen_infeasible_params(capsys):
    assert main(["gen", "maxcut", "-v", "4", "-e", "2", "--seed", "1"]) == 2


def test_oracle_subcommand(tmp_path, capsys):
    assert main(["oracle", write_three_disjoint(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "o 3"
    assert out[1].startswith("v ")


def test_oracle_non_utf8_file_exit(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"p cnf 2 1\n1 -2 0\nc caf\xe9\n")
    assert main(["oracle", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_manifest_parsing():
    entries = parse_manifest(
        "# comment\n\nfoo.cnf\ngen ksat n=5 m=10 k=2 seed=3\n"
        "gen color3 v=4 density=0.5 seed=1\n")
    assert entries[0] == ("foo.cnf", None)
    assert entries[1][1].family == "ksat" and entries[1][1].m == 10
    assert entries[2][1].density == 0.5


def test_bench_malformed_manifest_exit(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"gen ksat n=5 m=10 k=2\n# caf\xe9\n")
    bad_value = tmp_path / "bad_value.txt"
    bad_value.write_text("gen ksat n=5 m=10 k=2\ngen ksat n=x m=10\n")
    for manifest in (latin1, bad_value):
        assert main(["bench", str(manifest)]) == 2
        assert "error" in capsys.readouterr().err
    with pytest.raises(ValueError, match="line 2"):
        parse_manifest(bad_value.read_text())


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
                            "time_ms", "r1", "r2", "r3", "r4", "r5", "r6",
                            "status"}
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
        csvs.append([(r["instance"], r["variant"], r["optimum"], r["branches"])
                     for r in rows])
    assert csvs[0] == csvs[1]


def test_bench_jobs_capped_at_task_count(tmp_path, monkeypatch, capsys):
    # the pool never outnumbers the tasks, and --jobs below 1 is rejected
    sizes = []

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
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gen ksat n=6 m=12 k=2 seed=1\n"
                        "gen ksat n=6 m=12 k=2 seed=2\n")
    assert main(["bench", str(manifest), "--jobs", "64"]) == 0
    assert sizes == [2]
    capsys.readouterr()
    for jobs in ("0", "-3"):
        assert main(["bench", str(manifest), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs")
    assert sizes == [2]
