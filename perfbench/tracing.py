"""Traced in-process run: spans around each module's public functions.

The tracer replaces the functions a module lists in ``__all__`` by wrappers
on the module object for the duration of one run, and puts the originals
back afterwards.  The package calls its layers through module attributes
(``spectra.solve_generalized``, and plain global lookups inside a module),
so nested calls nest as spans.  Nothing under ``src/`` is modified.

A span records its name, start, end, parent span and run id, plus a few
attributes read from the call's arguments or result.  Spans are kept in
memory and returned when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import time
import warnings
from typing import Any, Callable, Dict, List

LAYERS = ("cli", "model", "discrete", "spectra", "metric", "shoot")


def _solve_tags(args, kwargs, result) -> Dict[str, Any]:
    import numpy as np

    operators = args[0] if args else kwargs["operators"]
    W = getattr(operators, "W", kwargs.get("W"))
    n = int(np.shape(getattr(operators, "H", operators))[0])
    # Same test spectra uses to pick the standard eigensolve over QZ.
    standard = W is None or bool(np.all(np.diagonal(W) == 1.0) and np.count_nonzero(W) == n)
    return {"path": "standard" if standard else "qz", "n": n}


def _filter_tags(args, kwargs, result) -> Dict[str, Any]:
    return {"retained": result.m, "discarded": result.discarded}


def _find_tags(args, kwargs, result) -> Dict[str, Any]:
    search = args[4] if len(args) > 4 else kwargs["search"]
    return {"guesses": len(list(search)), "roots": len(result)}


def _scan_tags(args, kwargs, result) -> Dict[str, Any]:
    return {"energies": len(result)}


def _save_tags(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# Attributes recorded on a span once the call returns.
TAGS: Dict[str, Callable] = {
    "discrete.save_matrix_bin": _save_tags,
    "spectra.solve_generalized": _solve_tags,
    "spectra.filter_real": _filter_tags,
    "shoot.find_eigenvalues": _find_tags,
    "shoot.scan_mismatch": _scan_tags,
}


class Tracer:
    """Collects nested spans in memory; one Tracer per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tags = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if tags is not None:
                span.update(tags(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: Dict[str, Any]):
        """Wrap every public function of `modules` (name -> module) while active."""
        originals = []
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", fn))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: List[Dict[str, Any]], functions: List[str], caught) -> Dict[str, float]:
    """Per-function `.s`, `.self_s`, `.calls` plus counts read from span attributes."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for name in functions:
        mine = [s for s in spans if s["name"] == name]
        out[f"{name}.s"] = sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.self_s"] = sum(own[s["id"]] for s in mine)
        out[f"{name}.calls"] = len(mine)

    def attr_sum(name: str, key: str) -> int:
        return sum(s[key] for s in spans if s["name"] == name)

    solves = [s for s in spans if s["name"] == "spectra.solve_generalized"]
    out["spectra.solve_generalized.qz_calls"] = sum(s["path"] == "qz" for s in solves)
    out["spectra.solve_generalized.standard_calls"] = sum(s["path"] == "standard" for s in solves)
    out["discrete.save_matrix_bin.bytes"] = attr_sum("discrete.save_matrix_bin", "bytes")
    out["spectra.solve_generalized.n"] = max((s["n"] for s in solves), default=0)
    out["spectra.retained_modes"] = attr_sum("spectra.filter_real", "retained")
    out["spectra.discarded_modes"] = attr_sum("spectra.filter_real", "discarded")
    guesses = attr_sum("shoot.find_eigenvalues", "guesses")
    out["shoot.roots_ratio"] = attr_sum("shoot.find_eigenvalues", "roots") / guesses if guesses else 1.0
    out["shoot.scan_mismatch.energies"] = attr_sum("shoot.scan_mismatch", "energies")

    counts: Dict[str, int] = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    out["metric.incomplete_basis_warnings"] = counts.get("IncompleteBasisWarning", 0)
    out["shoot.no_convergence_warnings"] = counts.get("NoConvergenceWarning", 0)
    out["shoot.step_too_coarse_warnings"] = counts.get("StepTooCoarseWarning", 0)
    return out


def _run_cli(cli, config, command: str, out_dir: str):
    """cli.run with stdout swallowed and every warning recorded; returns (rc, warnings)."""
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = cli.run(config, command=command, out_dir=out_dir)
    return rc, caught


def traced_run(config_path: str, command: str, plain_dir: str, traced_dir: str, run_id: str):
    """One untraced then one traced in-process `cli.run` on the same config.

    Returns (untraced rc, untraced seconds, traced rc, spans, per-layer metrics).
    """
    import importlib

    modules = {layer: importlib.import_module(f"qtoboggan.{layer}") for layer in LAYERS}
    cli = modules["cli"]

    config = cli.load_config(config_path)
    start = time.perf_counter()
    plain_rc, _ = _run_cli(cli, config, command, plain_dir)
    plain_s = time.perf_counter() - start

    tracer = Tracer(run_id)
    with tracer.installed(modules):
        config = cli.load_config(config_path)
        traced_rc, caught = _run_cli(cli, config, command, traced_dir)
    functions = sorted({f"{layer}.{a}" for layer, m in modules.items() for a in m.__all__
                        if inspect.isfunction(getattr(m, a))})
    metrics = layer_metrics(tracer.spans, functions, caught)
    metrics["trace.overhead_s"] = metrics["cli.run.s"] - plain_s
    return plain_rc, plain_s, traced_rc, tracer.spans, metrics
