"""The solve benchmark's tracer patches maxsat functions by name; every name
it probes must still be a plain function of this package."""

import dataclasses
import importlib.util
import sys
import types
from pathlib import Path

import maxsat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(maxsat.__file__).resolve().parent


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "solvebench_spans", ROOT / "solvebench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_resolves_to_a_package_function():
    spans = _load_spans()
    assert spans.PROBES
    for probe in spans.PROBES:
        label = f"{probe.owner}.{probe.attr}"
        owner = spans.resolve_owner(probe.owner)
        fn = vars(owner).get(probe.attr)
        assert isinstance(fn, types.FunctionType), f"{label} is not a plain function"
        source = Path(fn.__code__.co_filename).resolve()
        assert source.parent == PACKAGE, f"{label} is defined in {source}"


def test_every_probe_records_a_span():
    """A kernel refactor that inlines a probed call blinds the tracer; a
    CNF and a WCNF parse and solves under variants 0 and z must reach
    every probe. Probes that share a name are told apart by their index."""
    spans = _load_spans()
    recorder = spans.SpanRecorder()
    labelled = [dataclasses.replace(p, name=f"{i} {p.name}")
                for i, p in enumerate(spans.PROBES)]
    source = maxsat.gen_random_maxksat(12, 120, 2, 0)
    cnf, wcnf = maxsat.write_cnf(source), maxsat.write_wcnf(source)
    with spans.installed(recorder, labelled):
        # the probes patch the names in maxsat.dimacs
        maxsat.dimacs.parse_wcnf(wcnf)
        for variant in ("0", "z"):
            formula = maxsat.dimacs.parse_cnf(cnf).formula
            maxsat.solve(formula, maxsat.SolverConfig.variant(variant))
    recorded = {name for name, row in recorder.summary().items() if row["count"]}
    assert {p.name for p in labelled} - recorded == set()
