"""Outside-in tracing of the maxsat layers.

A traced run replaces each probed function with a wrapper that records
one span per call: name, start, end, parent span and instance id. Each
probe patches the name where its caller looks it up (for example
``maxsat.solver.underestimation``, not ``maxsat.propagate``), and every
original is put back when the run ends, also on error. Spans live in
column arrays in memory and are written out once, after the run.

Self time is a span's duration minus the time its direct children cover.
Children of one span never overlap, because the solver is
single-threaded, so the covered time is the sum of their durations.
No probed function calls itself, so a name's inclusive time is the sum
of its spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    name: str       # "<layer>.<what>"; the layer is the part before the dot
    owner: str      # "package.module" or "package.module:Class"
    attr: str
    work: Callable | None = None  # call arguments -> units of work done


def _undo_entries(formula, mark):
    return max(0, len(formula.trail) - mark)


PROBES = (
    Probe("solver.solve", "maxsat", "solve"),
    Probe("solver.initial_ub", "maxsat.solver", "initial_upper_bound"),
    Probe("solver.select_variable", "maxsat.solver", "select_variable"),
    Probe("solver.select_value", "maxsat.solver", "select_value"),
    Probe("solver.simplify", "maxsat.solver:Solver", "_simplify"),
    Probe("solver.rule1_pass", "maxsat.solver:Solver", "_rule1_pass"),
    Probe("solver.rule2_pass", "maxsat.solver:Solver", "_rule2_pass"),
    Probe("solver.pure", "maxsat.solver:Solver", "_pure_literal_pass"),
    Probe("solver.duc", "maxsat.solver:Solver", "_duc_pass"),
    Probe("solver.empty_unit", "maxsat.solver:Solver", "_empty_unit_pass"),
    Probe("propagate.underestimation", "maxsat.solver", "underestimation"),
    Probe("propagate.extract", "maxsat.propagate", "extract_inconsistent_subset"),
    Probe("propagate.classify", "maxsat.propagate", "classify_conflict"),
    Probe("rules.fire", "maxsat.propagate", "_fire"),
    Probe("rules.apply_rule1", "maxsat.solver", "apply_rule1"),
    Probe("rules.apply_rule2", "maxsat.solver", "apply_rule2"),
    Probe("formula.assign", "maxsat.formula:Formula", "assign_literal"),
    Probe("formula.undo", "maxsat.formula:Formula", "undo_to", _undo_entries),
    Probe("formula.detach", "maxsat.formula:Formula", "detach_clause"),
    Probe("formula.attach", "maxsat.formula:Formula", "attach_clause"),
    Probe("dimacs.parse", "maxsat.dimacs", "parse_cnf"),
    Probe("dimacs.parse", "maxsat.dimacs", "parse_wcnf"),
)


def resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class SpanRecorder:
    """Spans of one traced run, as parallel column arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")     # -1 for a root span
        self.instance = array("i")
        self.work: dict[str, int] = {}
        self.current_instance = -1
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, work=None):
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, instances, open_spans = self.parent, self.instance, self._open
        clock = time.perf_counter_ns
        rec = self
        if work is not None:
            self.work.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                rec.work[name] += work(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(open_spans[-1])
            instances.append(rec.current_instance)
            ends.append(0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self time in seconds."""
        name = np.array(self.name, dtype=np.intp)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        own = self_times(dur, np.array(self.parent, dtype=np.intp))
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {label: {"count": int(counts[i]), "total_s": totals[i] / 1e9,
                        "self_s": selfs[i] / 1e9}
                for i, label in enumerate(self.names)}

    def save(self, path, **extra) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            start=self.start, end=self.end, parent=self.parent,
                            instance=self.instance, **extra)


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    durations = np.asarray(durations, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.zeros(len(durations), dtype=np.int64)
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


@contextmanager
def installed(recorder: SpanRecorder, probes=PROBES):
    """Patch every probe for the duration of the block, then restore."""
    saved = []
    try:
        for p in probes:
            owner = resolve_owner(p.owner)
            original = vars(owner)[p.attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{p.owner}.{p.attr} is not a plain function")
            saved.append((owner, p.attr, original))
            setattr(owner, p.attr, recorder.wrap(p.name, original, p.work))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
