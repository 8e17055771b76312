"""In-process tracing of the workbench from outside.

Each layer function is replaced, for the length of one pass, at the module
attribute where its caller looks it up: `cli.log_zeta` rather than
`zeta.log_zeta`, because the CLI imported the name.  Span wrappers record
wall time, self time (span minus child spans) and calls; counter wrappers
only count, so that hot helpers cost as little as possible.  The program
itself is not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
from collections import defaultdict
from time import perf_counter

BASE_SUMS = {"selberg": 1, "ruelle": 1, "symmetrized": 2, "super": 2, "super_ruelle": 2}

# (module, attribute, span name, kind) -- kind "span" times, "count" counts
LAYERS = [
    ("cli", "parse_length_spectrum", "spectra.parse", "span"),
    ("cli", "parse_eigenvalue_spectrum", "spectra.parse", "span"),
    ("cli", "serialize_length_spectrum", "spectra.serialize", "span"),
    ("cache", "load", "cache.load", "span"),
    ("cache", "store", "cache.store", "span"),
    ("cli", "enumerate_spectrum", "enumerator.enumerate", "span"),
    ("enumerator", "primitive_decomposition", "enumerator.primitive_decomposition", "span"),
    ("enumerator", "complex_length", "enumerator.complex_length", "span"),
    ("cli", "log_zeta", "zeta.log_zeta", "span"),
    ("zeta", "character_chi", "reps.character_chi", "span"),
    ("traces", "character_chi", "reps.character_chi", "span"),
    ("zeta", "character_sigma", "reps.character_sigma", "count"),
    ("traces", "character_sigma", "reps.character_sigma", "count"),
    ("zeta", "ad_nbar_det", "reps.ad_nbar_det", "count"),
    ("traces", "ad_nbar_det", "reps.ad_nbar_det", "count"),
    ("cli", "dirac_geometric_side", "traces.geometric_side", "span"),
    ("cli", "heat_geometric_side", "traces.geometric_side", "span"),
    ("verify", "dirac_geometric_side", "traces.geometric_side", "span"),
    ("verify", "heat_geometric_side", "traces.geometric_side", "span"),
    ("verify", "laplace_kernel_check", "traces.kernel_check", "span"),
    ("verify", "fourier_gaussian_check", "traces.kernel_check", "span"),
    ("verify", "class_term_t_integral", "traces.kernel_check", "span"),
    ("cli", "singularity_catalog", "continuation.catalog", "span"),
    ("verify", "singularity_catalog", "continuation.catalog", "span"),
    ("cli", "log_zeta_by_path", "continuation.path", "span"),
    ("verify", "residue_at", "continuation.residue", "span"),
    ("cli", "continued_super_logderiv", "continuation.logderiv", "count"),
    ("verify", "continued_super_logderiv", "continuation.logderiv", "count"),
    ("verify", "continued_sym_logderiv", "continuation.logderiv", "count"),
]


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # extra work counts taken from arguments
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.inclusive[name] += duration
                self.self_time[name] += duration - children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks that count the work a call was given or produced
    def _on_parse(self, args, result):
        self.counts["spectra.classes_parsed"] += len(getattr(result, "classes", ()))

    def _on_load(self, args, result):
        self.counts["cache.hits"] += result is not None

    def _on_enumerate(self, args, result):
        self.counts["enumerator.classes_out"] += len(result.classes)

    def _on_log_zeta(self, args, result):
        req = args[0]
        self.counts["zeta.class_terms"] += len(req.spectrum.classes) * BASE_SUMS[req.kind]

    def _on_geometric_side(self, args, result):
        self.counts["traces.class_terms"] += len(args[1].classes)

    def hook_for(self, name: str):
        return {
            "spectra.parse": self._on_parse,
            "cache.load": self._on_load,
            "enumerator.enumerate": self._on_enumerate,
            "zeta.log_zeta": self._on_log_zeta,
            "traces.geometric_side": self._on_geometric_side,
        }.get(name)


def workbench():
    """Import the CLI and the layer modules from the checkout's src."""
    return {
        name: importlib.import_module(f"zeta_workbench.{name}")
        for name in ("cli", "cache", "enumerator", "zeta", "traces", "verify")
    }


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap in the wrappers for one pass and put the originals back after."""
    saved = []
    verify = modules["verify"]
    try:
        for module_name, attr, name, kind in LAYERS:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if kind == "span":
                wrapped = tracer.span(name, original, tracer.hook_for(name))
            else:
                wrapped = tracer.counter(name, original)
            setattr(module, attr, wrapped)
        # run_suite reaches the suites through SUITES, and parity directly
        for suite, fn in list(verify.SUITES.items()):
            saved.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = tracer.span(f"verify.{suite}", fn)
        saved.append((verify, "suite_parity", verify.suite_parity))
        verify.suite_parity = verify.SUITES["parity"]
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)


def run_calls(main, calls, cache_dir) -> float:
    """Run the argument lists through cli.main in this process; return the
    summed wall time.  Output that would go to the terminal is dropped."""
    os.environ["ZETA_CACHE_DIR"] = str(cache_dir)
    total = 0.0
    for label, args, expect in calls:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            code = main(args)
            total += perf_counter() - start
        if code != expect:
            raise RuntimeError(f"in-process {label} exited {code}, expected {expect}")
    return total
