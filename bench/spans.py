"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions of the ``trfuse`` modules with
wrappers that record a span (name, start, end, parent) around each call. A
name bound into another module by ``from ... import`` is looked up there, so
every module attribute that is the original function gets the wrapper.
Spans stay in memory until the operation ends. :func:`layer_metrics` turns
one operation's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

NAME, START, END, PARENT, EXTRA = range(5)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _file_bytes(fn, args, kwargs, result):
    return os.stat(args[0]).st_size


def _cg_outcome(fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    _, iters, relres = result
    return [iters, relres, bound.arguments["tol"], bound.arguments["max_iter"]]


def _solve_outcome(fn, args, kwargs, result):
    return [len(result.history), result.history[-1].objective if result.history else None]


def _returned(fn, args, kwargs, result):
    return result


# (module, attribute, span name, what to keep from the call)
TRACED = (
    ("trfuse.config", "load_experiment_config", "config.load", None),
    ("trfuse.tnsr", "read_tnsr", "tnsr.read", _file_bytes),
    ("trfuse.tnsr", "write_tnsr", "tnsr.write", _file_bytes),
    ("trfuse.harness", "build_model", "degradation.model", None),
    ("trfuse.degradation", "degrade", "degradation.degrade", None),
    ("trfuse.degradation", "add_noise", "degradation.add_noise", None),
    ("trfuse.harness", "load_inputs", "harness.load_inputs", None),
    ("trfuse.ring", "tr_svd_init", "ring.tr_svd_init", None),
    ("trfuse.ring", "random_init", "ring.random_init", None),
    ("trfuse.ring", "compose", "ring.compose", None),
    ("trfuse.ring", "merge_cores", "ring.merge_cores", None),
    ("trfuse.tensor", "mode_n_product", "tensor.mode_n_product", None),
    ("trfuse.prox", "ltnn_prox", "prox.ltnn_prox", None),
    ("trfuse.prox", "ltnn_value", "prox.ltnn_value", None),
    ("trfuse.solver", "solve", "solver.solve", _solve_outcome),
    ("trfuse.solver", "initial_factors", "solver.initial_factors", None),
    ("trfuse.solver", "update_block", "solver.update_block", _returned),
    ("trfuse.solver", "objective", "solver.objective", None),
    ("trfuse.solver", "cg_solve", "solver.cg_solve", _cg_outcome),
    ("trfuse.metrics", "metrics_report", "metrics.report", None),
    ("trfuse.metrics", "ssim", "metrics.ssim", None),
    ("trfuse.metrics", "uiqi_per_band", "metrics.uiqi_per_band", None),
)


class Tracer:
    """Span recorder; ``spans`` holds [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, keep=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if keep is not None:
                span[EXTRA] = keep(fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a loaded trfuse module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "trfuse" or n.startswith("trfuse.")]
        for module, attr, name, keep in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, keep)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def layer_metrics(spans: list, import_s: float) -> dict:
    """Per-layer totals of one operation, from its spans."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    in_init = [False] * len(spans)
    init_only = {"ring.compose": 0, "ring.random_init": 0}
    compose_self_outside = 0.0
    for i, s in enumerate(spans):
        name, dur, parent = s[NAME], s[END] - s[START], s[PARENT]
        in_init[i] = parent >= 0 and (spans[parent][NAME] == "ring.tr_svd_init" or in_init[parent])
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        calls[name] = calls.get(name, 0) + 1
        if name in init_only and in_init[i]:
            init_only[name] += 1
        if name == "ring.compose" and not in_init[i]:
            compose_self_outside += dur - child_s[i]

    def extras(name):
        return [s[EXTRA] for s in spans if s[NAME] == name]

    cg = extras("solver.cg_solve")
    solves = extras("solver.solve")
    outer = sum(n for n, _ in solves)
    cg_calls = len(cg)
    cg_iters = sum(c[0] for c in cg)
    solve_s = total.get("solver.solve", 0.0)
    init_s = total.get("solver.initial_factors", 0.0)
    return {
        "cli.import_s": import_s,
        "config.load_s": total.get("config.load", 0.0),
        "tnsr.read_s": total.get("tnsr.read", 0.0),
        "tnsr.write_s": total.get("tnsr.write", 0.0),
        "tnsr.bytes_read": sum(extras("tnsr.read")),
        "tnsr.bytes_written": sum(extras("tnsr.write")),
        "degradation.model_s": total.get("degradation.model", 0.0),
        "degradation.simulate_s": (total.get("degradation.degrade", 0.0)
                                   + total.get("degradation.add_noise", 0.0)),
        "harness.load_inputs_s": total.get("harness.load_inputs", 0.0),
        "ring.tr_svd_init_s": total.get("ring.tr_svd_init", 0.0),
        "ring.tr_svd_init_calls": calls.get("ring.tr_svd_init", 0),
        "ring.init_restarts": init_only["ring.random_init"],
        "ring.init_sweeps": init_only["ring.compose"],
        "ring.compose_s": compose_self_outside,
        "ring.merge_cores_s": self_s.get("ring.merge_cores", 0.0),
        "ring.compose_calls": calls.get("ring.compose", 0) - init_only["ring.compose"],
        "tensor.mode_n_product_s": total.get("tensor.mode_n_product", 0.0),
        "tensor.mode_n_product_calls": calls.get("tensor.mode_n_product", 0),
        "prox.ltnn_prox_s": total.get("prox.ltnn_prox", 0.0),
        "prox.ltnn_value_s": total.get("prox.ltnn_value", 0.0),
        "prox.ltnn_prox_calls": calls.get("prox.ltnn_prox", 0),
        "solver.solve_s": solve_s,
        "solver.initial_factors_s": init_s,
        "solver.outer_iter_s": (solve_s - init_s) / outer if outer else 0.0,
        "solver.update_block_self_s": self_s.get("solver.update_block", 0.0),
        "solver.objective_s": total.get("solver.objective", 0.0),
        "solver.cg_s": total.get("solver.cg_solve", 0.0),
        "solver.cg_calls": cg_calls,
        "solver.cg_iters": cg_iters,
        "solver.cg_capped": sum(1 for it, rr, tol, cap in cg if it >= cap and rr > tol),
        "solver.cg_iters_per_call": cg_iters / cg_calls if cg_calls else 0.0,
        "solver.cg_converged_ratio": (sum(1 for it, rr, tol, cap in cg if rr <= tol) / cg_calls
                                      if cg_calls else 0.0),
        "solver.outer_iters": outer,
        "solver.inner_sweeps": sum(extras("solver.update_block")),
        "solver.objective_final": solves[0][1] if solves and solves[0][1] is not None else 0.0,
        "metrics.report_s": total.get("metrics.report", 0.0),
        "metrics.ssim_s": total.get("metrics.ssim", 0.0),
        "metrics.uiqi_per_band_calls": calls.get("metrics.uiqi_per_band", 0),
    }
