"""Span tracing of romlab's public functions, applied from outside the package.

``Tracer`` replaces each traced function by a wrapper in every romlab module
that binds it by name (``cli``, ``experiments``, ``operators``, ``solver`` and
``config`` import the functions they call), and puts every original back on
exit.  Each call records a span ``[name, start, end, parent, attrs]`` in
memory; ``layer_metrics`` reduces a list of spans to per-layer totals.
The traced code must run on one thread (``--jobs 1``): the parent of a span
is whatever span is open on the tracer's single stack.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _quadrature_kind(provenance: str) -> str:
    """rom, dom or reference, from a QuadratureSet provenance string."""
    for prefix, kind in (("rom(", "rom"), ("dom-", "dom"), ("reference-", "reference")):
        if provenance.startswith(prefix):
            return kind
    return "other"


def _solve_name(args, kwargs) -> str:
    quad = kwargs["quad"] if "quad" in kwargs else args[2]
    return "solver.solve." + _quadrature_kind(quad.provenance)


def _solve_attrs(args, kwargs, result) -> dict:
    report = result[1]
    return {"iterations": report.iterations, "nonconverged": int(not report.converged)}


def _ordinates(args, kwargs, result) -> dict:
    mus = kwargs["mus"] if "mus" in kwargs else args[1]
    return {"ordinates": int(np.size(mus))}


def _bias_samples(args, kwargs, result) -> dict:
    return {
        "drawn": sum(r.samples for r in result.rows),
        "useful": sum(r.samples for r in result.rows if not r.flagged),
    }


# Traced functions, as "<module of romlab>.<function>"; the span takes this name.
TRACED = (
    "cli.main",
    "config.load_config",
    "experiments.bias_study",
    "experiments.single_run_error_study",
    "experiments.dom_error_study",
    "experiments.regularization_study",
    "operators.iteration_deviation_stats",
    "operators.boundary_deviation_stats",
    "operators.reference_iteration_matrix",
    "operators.weighted_operator_norm",
    "solver.solve",
    "sweep.averaged_response_matrix",
    "sweep.batched_sweep",
    "sweep.transmission_averages",
    "angular.rom_sample",
    "angular.reference_quadrature",
    "medium.weighted_norm_of",
)
# Span names that depend on the call, and attributes read from call and result.
SPAN_NAME = {"solver.solve": _solve_name}
ATTRIBUTES = {
    "solver.solve": _solve_attrs,
    "experiments.bias_study": _bias_samples,
    "sweep.averaged_response_matrix": _ordinates,
    "sweep.batched_sweep": _ordinates,
    "sweep.transmission_averages": _ordinates,
}


class Tracer:
    """Context manager that traces the TRACED functions while it is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, name_of, attrs_of):
        spans, stack = self.spans, self._stack

        # The span is stamped first and last, so the wrapper's own bookkeeping
        # counts in the traced call and not in its parent's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if name_of:
                    span[0] = name_of(args, kwargs)
                result = fn(*args, **kwargs)
                if attrs_of:
                    span[4] = attrs_of(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if key == "romlab" or key.startswith("romlab.")]
        try:
            for name in TRACED:
                module_name, fn_name = name.split(".")
                original = getattr(sys.modules[f"romlab.{module_name}"], fn_name)
                wrapper = self._wrap(original, name, SPAN_NAME.get(name), ATTRIBUTES.get(name))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._patched.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, fn_name, original = self._patched.pop()
            setattr(module, fn_name, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed ``<span name>.<quantity>``.

    For every span name: calls, s (summed duration), self_s (duration less
    the time covered by direct child spans), p50_ms and p99_ms of the call
    durations, and the sum of each recorded attribute.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    totals = defaultdict(float)
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        durations[name].append(end - start)
        self_time[name] += end - start - child_time[index]
        for key, value in (attrs or {}).items():
            totals[f"{name}.{key}"] += value
    out = dict(totals)
    for name, values in durations.items():
        ms = np.array(values) * 1e3
        out[f"{name}.calls"] = len(values)
        out[f"{name}.s"] = float(np.sum(values))
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.p50_ms"] = float(np.percentile(ms, 50))
        out[f"{name}.p99_ms"] = float(np.percentile(ms, 99))
    return out
