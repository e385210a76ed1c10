"""Spans around calls into each layer's public functions, kept in memory.

The traced run wraps each layer's public functions at the module boundary:
every binding of the function object in the package's modules (and in
``verify.SUITES``) is replaced by a wrapper that records one span, then
restored.  The program's files are not changed.  ``model.advance_slot`` is
not wrapped, because it runs once per simulated slot; the benchmark times it
separately on a fixed coin sequence.

A span is (name, start_ns, end_ns, parent, phase, attrs).  ``parent`` is the
index of the enclosing span, -1 at the root; ``phase`` names the root span
the span sits under (``pass`` for a traced workload pass, ``probe`` for the
layer probes).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from typing import Any, Callable

import numpy as np

PACKAGE = "aloha_priority"


def _trajectory_attrs(args, kwargs, result) -> dict[str, Any]:
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {"slots": args[0].horizon, "bytes": sum(a.nbytes for a in arrays)}


def _summarize_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"slots": args[1].horizon}


def _chain_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"k_max": result.k_max, "states": result.matrix.shape[0]}


def _stationary_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"k_max": args[0].k_max}


def _emit_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": len(result)}


def layer_targets() -> list[tuple[Callable, str, Callable | None]]:
    """(function, span name, attribute extractor) for every wrapped function."""
    from aloha_priority import cli, oracle, qbd, reports, simulate, stability, verify

    sweep = importlib.import_module(f"{PACKAGE}.sweep")
    targets = [
        (cli.main, "cli.main", None),
        (simulate.run, "simulate.run", None),
        (simulate.run_trajectory, "simulate.run_trajectory", _trajectory_attrs),
        (simulate.summarize, "simulate.summarize", _summarize_attrs),
        (qbd.solve_rate_matrix, "qbd.solve_rate_matrix", None),
        (qbd.rate_matrix_closed_form, "qbd.rate_matrix_closed_form", None),
        (oracle.build_chain, "oracle.build_chain", _chain_attrs),
        (oracle.stationary, "oracle.stationary", _stationary_attrs),
        (oracle.total_variation, "oracle.total_variation", None),
        (qbd.ds2_stationary, "qbd.ds2_stationary", None),
        (stability.union_region_contains, "stability.union_region_contains", None),
        (sweep.sweep, "sweep.sweep", None),
        (sweep.envelope_at, "sweep.envelope_at", None),
        (reports.emit_table, "reports.emit_table", _emit_attrs),
        (reports.emit_report, "reports.emit_report", _emit_attrs),
        (verify.run_suite, "verify.run_suite", None),
        (verify.ds1_analytic_vector, "verify.ds1_analytic_vector", None),
        (verify.ds2_analytic_vector, "verify.ds2_analytic_vector", None),
    ]
    targets += [(fn, f"verify.suite_{name}", None) for name, fn in verify.SUITES.items()]
    return targets


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._phase = ""
        self._patched: list[tuple[Any, str, Any, bool]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Record a span around the block; a root span sets the phase."""
        if not self._stack:
            self._phase = name
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._phase, attrs)

    def wrap(self, fn: Callable, name: str, extract: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            index, parent = tracer._open()
            start = time.perf_counter_ns()
            attrs: dict[str, Any] = {}
            end = None
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter_ns()
                if extract is not None:
                    attrs = extract(args, kwargs, result)
                return result
            finally:
                if end is None:  # the call raised
                    end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer._phase, attrs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target function in the package."""
        from aloha_priority import verify

        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for fn, name, extract in layer_targets():
            wrapper = self.wrap(fn, name, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn, False))
                        setattr(module, attr, wrapper)
            for key, value in list(verify.SUITES.items()):
                if value is fn:
                    self._patched.append((verify.SUITES, key, fn, True))
                    verify.SUITES[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patched):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def has(self, name: str, **attrs: Any) -> bool:
        """Whether a finished span of ``name`` carries ``attrs``."""
        return any(
            s is not None and s[0] == name and all(s[5].get(k) == v for k, v in attrs.items())
            for s in self.spans
        )

    def as_records(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "phase": ph, **attrs}
            for n, s, e, p, ph, attrs in self.spans
        ]


def self_times(records: list[dict[str, Any]], phase: str = "pass") -> dict[str, float]:
    """Seconds of self time per layer, summed over the spans of one phase.

    A span's self time is its duration minus the part its children cover;
    the layer is the span name up to the first dot (``bench`` for the
    benchmark's own pass, operation and check spans).
    """
    child_total = [0] * len(records)
    for rec in records:
        if rec["parent"] >= 0:
            child_total[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
    totals: dict[str, float] = {}
    for rec, children in zip(records, child_total):
        if rec["phase"] != phase:
            continue
        layer = rec["name"].split(".", 1)[0] if "." in rec["name"] else "bench"
        own = rec["end_ns"] - rec["start_ns"] - children
        totals[layer] = totals.get(layer, 0.0) + own * 1e-9
    return totals
