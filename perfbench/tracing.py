"""Span tracing of the lrhmm layers from outside the package.

Every public function of the layer modules (the callables ``lrhmm.__all__``
exports from ``core``, ``dataio``, ``training``, ``inference``,
``forecasting``, ``distance`` and ``experiments``) can be replaced by a
timing wrapper in every ``lrhmm`` namespace that binds it, so calls made
inside the package (``experiments.baum_welch``, ``distance.log_likelihood``,
``forecasting.classify`` ...) are seen as well as the benchmark's own.
Private kernels are never wrapped: they are free to change shape.

A span is ``[name, start, end, parent, run_id, attrs]``; spans stay in
memory and are written out by the caller.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

LAYERS = ("core", "dataio", "training", "inference", "forecasting",
          "distance", "experiments")

# Scoring entry points that each run one banded recursion over the sequence.
SCORING = ("inference.log_likelihood", "inference.prefix_log_likelihoods",
           "inference.viterbi")


def public_functions() -> dict:
    """``{"layer.name": function}`` for every public function of the layers."""
    import lrhmm

    out = {}
    for name in lrhmm.__all__:
        obj = getattr(lrhmm, name)
        if inspect.isfunction(obj):
            module = obj.__module__
            layer = module.rpartition(".")[2]
            if layer in LAYERS and module == f"lrhmm.{layer}":
                out[f"{layer}.{name}"] = obj
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_attrs(args, kwargs, result):
    model, trace = result
    return {"K": len(_arg(args, kwargs, 0, "sequences")), "N": model.n_states,
            "band": model.band_width,
            "iterations": trace.iterations_run, "converged": trace.converged,
            "log_likelihoods": list(trace.log_likelihoods)}


def _scoring_attrs(args, kwargs, result):
    seq = _arg(args, kwargs, 0, "seq")
    model = _arg(args, kwargs, 1, "model")
    return {"seq": id(seq),
            "cells": seq.n_steps * model.n_states * (model.band_width + 1)}


def _csv_attrs(args, kwargs, result):
    from pathlib import Path

    path = Path(_arg(args, kwargs, 0, "path"))
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    return {"bytes": sum(f.stat().st_size for f in files)}


# Counts read off each call's arguments and result, after its span closed.
HOOKS = {
    "training.baum_welch": _fit_attrs,
    "dataio.load_csv": _csv_attrs,
    **{name: _scoring_attrs for name in SCORING},
}


class Tracer:
    """Records spans while ``run_id`` is set; wrapped calls pass straight
    through otherwise.  A call that raises records the exception's type
    instead of its counts.  With ``track_alloc`` every ``baum_welch`` call
    also records its tracemalloc peak, which slows the traced fit."""

    def __init__(self, track_alloc: bool = False):
        self.spans: list = []
        self.run_id = None
        self.track_alloc = track_alloc
        self._stack: list = []

    def wrap(self, name, fn, hook):
        alloc = self.track_alloc and name == "training.baum_welch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.run_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["raised"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span[5]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                span[5].update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self, names=None) -> None:
        """Wrap ``names`` (all public layer functions when None) in every
        ``lrhmm`` module namespace that binds them."""
        import lrhmm.cli  # noqa: F401  (binds layer functions too)

        functions = public_functions()
        if names is not None:
            missing = sorted(set(names) - set(functions))
            if missing:
                raise SystemExit(f"perfbench: no public lrhmm function {missing}")
            functions = {n: functions[n] for n in names}
        wrappers = {id(fn): self.wrap(name, fn, HOOKS.get(name))
                    for name, fn in functions.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name == "lrhmm" or module_name.startswith("lrhmm."):
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)


def self_times(spans) -> dict:
    """``{name: [self_seconds, calls]}`` over the spans of one run, whose
    parent fields index the same list."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    out: dict = {}
    for span, inner in zip(spans, child):
        entry = out.setdefault(span[0], [0.0, 0])
        entry[0] += span[2] - span[1] - inner
        entry[1] += 1
    return out
