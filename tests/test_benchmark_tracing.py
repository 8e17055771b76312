"""Guards for the benchmark's tracer.

`perfbench/tracing.py` wraps workbench functions by module attribute from
outside and reads their arguments in its counting hooks.  A rename or a
signature change would otherwise surface only in `run.py --trace 1`.
The tracer module is loaded from its file without writing bytecode.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracing):
    modules = tracing.workbench()
    for module, attr, _, _ in tracing.LAYERS:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"


def test_geodesic_sides_take_the_spectrum_second(tracing):
    traces = tracing.workbench()["traces"]
    for side in (traces.dirac_geometric_side, traces.heat_geometric_side):
        assert list(inspect.signature(side).parameters)[1] == "spectrum"


def test_traced_hooks_read_requests_and_spectra(tracing, tmp_path, monkeypatch):
    # run_calls points ZETA_CACHE_DIR at its argument; monkeypatch restores it
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path / "cache"))
    classes = [(1.0, 0.7), (1.3, -2.1), (1.7, 2.9)]
    spec = tmp_path / "toy.json"
    spec.write_text(
        json.dumps(
            {
                "dimension": 3,
                "cutoff": 2.0,
                "volume": 1.0,
                "classes": [{"length": l, "angle": a} for l, a in classes],
            }
        ),
        encoding="utf-8",
    )
    calls = [
        ("zeta", ["zeta", "--spectrum", str(spec), "--kind", "super", "--sigma", "1",
                  "--s-start", "3", "0", "--s-stop", "4", "0", "--s-count", "4",
                  "--output", str(tmp_path / "zeta.json")], 0),
        ("trace", ["trace", "--spectrum", str(spec), "--sigma", "1", "--order", "second",
                   "--t", "0.5", "--t", "1.0", "--output", str(tmp_path / "trace.json")], 0),
    ]
    modules = tracing.workbench()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        tracing.run_calls(modules["cli"].main, calls, tmp_path / "cache")
    assert tracer.calls["zeta.log_zeta"] == 4
    assert tracer.counts["zeta.class_terms"] == 4 * len(classes) * tracing.BASE_SUMS["super"]
    assert tracer.calls["traces.geometric_side"] == 2
    assert tracer.counts["traces.class_terms"] == 2 * len(classes)


def test_enumerate_and_continue_layers_are_traced(tracing, tmp_path, monkeypatch):
    # a command that bound a layer anywhere but cli.<name> would run it
    # unwrapped and leave its span empty
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path / "cache"))
    pres = tmp_path / "pres.json"
    pres.write_text(
        json.dumps({"generators": [{"name": "a", "matrix": [[2, 0], [0, 0], [0, 0], [0.5, 0]]}],
                    "includes_inverses": True}),
        encoding="utf-8",
    )
    dirac = tmp_path / "dirac.json"
    dirac.write_text(
        json.dumps({"entries": [{"re": 1.0, "im": 0.0, "multiplicity": 2},
                                {"re": -1.0, "im": 0.0, "multiplicity": 1}]}),
        encoding="utf-8",
    )
    enumerate_argv = ["enumerate", "--presentation", str(pres), "--max-word-length", "3"]
    calls = [
        ("enumerate cold", enumerate_argv, 0),
        ("enumerate cached", enumerate_argv, 0),
        ("continue", ["continue", "--dirac", str(dirac), "--s-start", "-0.5", "3",
                      "--s-stop", "-0.5", "-3", "--s-count", "4",
                      "--output", str(tmp_path / "continued.json")], 0),
    ]
    modules = tracing.workbench()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        tracing.run_calls(modules["cli"].main, calls, tmp_path / "cache")
    for span in ("spectra.parse", "spectra.serialize", "cache.load", "enumerator.enumerate",
                 "continuation.catalog", "continuation.path"):
        assert tracer.calls[span] > 0, span
    assert tracer.counts["cache.hits"] == 1
