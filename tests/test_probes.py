"""The solve benchmark's tracer patches maxsat functions by name; every name
it probes must still be a plain function of this package."""

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
