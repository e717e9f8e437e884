"""The tracer: self-time arithmetic and restoring every probed name."""

import numpy as np
import pytest

import maxsat
from spans import PROBES, SpanRecorder, installed, resolve_owner, self_times


def test_self_times_on_synthetic_tree():
    # root [0, 100) holds a [10, 40) and b [50, 70); a holds a1 [20, 30)
    starts = [0, 10, 20, 50, 200]
    ends = [100, 40, 30, 70, 205]
    parents = [-1, 0, 1, 0, -1]
    durations = np.array(ends) - np.array(starts)
    assert self_times(durations, parents).tolist() == [50, 20, 10, 20, 5]


def test_summary_aggregates_by_name():
    rec = SpanRecorder()
    ids = [rec.name_id(n) for n in ("solve", "simplify", "assign", "simplify")]
    assert ids == [0, 1, 2, 1]
    rows = [(0, 0, 1000, -1), (1, 100, 400, 0), (2, 150, 250, 1), (1, 500, 600, 0)]
    for nid, start, end, parent in rows:
        rec.name.append(nid)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.instance.append(0)
    s = rec.summary()
    assert s["solve"] == {"count": 1, "total_s": 1e-6, "self_s": 6e-7}
    assert s["simplify"]["count"] == 2
    assert s["simplify"]["total_s"] == pytest.approx(4e-7)
    assert s["simplify"]["self_s"] == pytest.approx(3e-7)
    assert s["assign"]["self_s"] == pytest.approx(1e-7)


def _originals():
    return [(resolve_owner(p.owner), p.attr, vars(resolve_owner(p.owner))[p.attr])
            for p in PROBES]


def test_traced_solve_records_nested_spans_and_restores_every_probe():
    before = _originals()
    text = maxsat.write_cnf(maxsat.gen_random_maxksat(12, 80, 2, seed=3))
    rec = SpanRecorder()
    with installed(rec):
        rec.current_instance = 7
        formula = maxsat.dimacs.parse_cnf(text).formula
        result = maxsat.solve(formula)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert result.status == maxsat.OPTIMAL
    summary = rec.summary()
    assert summary["solver.solve"]["count"] == 1
    assert summary["dimacs.parse"]["count"] == 1
    assert summary["solver.simplify"]["count"] == result.stats.nodes
    assert summary["formula.assign"]["count"] > 0
    # every span lies inside its parent, and the instance id is recorded
    start, end = np.array(rec.start), np.array(rec.end)
    parent = np.array(rec.parent)
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    assert set(rec.instance) == {7}
    assert rec.work["formula.undo"] > 0


def test_probes_are_restored_when_the_traced_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with installed(SpanRecorder()):
            assert maxsat.solve is not before[0][2]
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
