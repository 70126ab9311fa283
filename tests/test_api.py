"""Names and call contracts that code outside the package relies on by string.

``from trfuse import *`` reads ``trfuse.__all__``, and the benchmark's tracer
replaces the functions listed in ``bench/spans.py``'s ``TRACED`` table by
module and attribute name. Deleting or renaming one of those names breaks
them only at run time, so this suite checks that every one resolves. The
tracer also reads what some of those calls take and return: ``cg_solve``'s
``tol`` and ``max_iter`` arguments, ``update_block``'s sweep count (one CG
solve per sweep), one ``ltnn_prox`` call per sweep and one ``objective`` call
per outer iteration; this suite pins those too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import trfuse
import trfuse.solver
from trfuse.degradation import DegradationModel, degrade
from trfuse.ring import compose, random_init
from trfuse.solver import SolverConfig, cg_solve, solve

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_exported_and_traced_names_resolve():
    missing = [name for name in trfuse.__all__ if not hasattr(trfuse, name)]
    assert not missing, f"trfuse.__all__ names that do not resolve: {missing}"

    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"bench/spans.py traces names that do not exist: {missing}"


def test_cg_solve_takes_tol_and_max_iter():
    params = inspect.signature(cg_solve).parameters
    assert "tol" in params and "max_iter" in params


def _small_problem():
    dims = (8, 8, 6)
    model = DegradationModel.build(dims, factor=2, kernel_size=3, sigma=1.0,
                                   out_bands=3)
    y, z = degrade(compose(random_init(dims, (2, 2, 2), seed=21)), model)
    return y, z, model


def test_update_block_and_objective_calls_match_the_history(monkeypatch):
    y, z, model = _small_problem()
    update_block, objective = trfuse.solver.update_block, trfuse.solver.objective
    sweeps, objectives = [], []

    def counted_update_block(*args, **kwargs):
        bound = inspect.signature(update_block).bind(*args, **kwargs)
        cg_log = bound.arguments["cg_log"]
        before = len(cg_log)
        result = update_block(*args, **kwargs)
        sweeps.append((result, len(cg_log) - before))
        return result

    def counted_objective(*args, **kwargs):
        objectives.append(1)
        return objective(*args, **kwargs)

    monkeypatch.setattr(trfuse.solver, "update_block", counted_update_block)
    monkeypatch.setattr(trfuse.solver, "objective", counted_objective)
    res = solve(y, z, model, SolverConfig(ranks=(2, 2, 2), k_max=3))
    assert len(res.history) == 3
    assert len(sweeps) == 3 * len(res.history)
    for returned, appended in sweeps:
        assert type(returned) is int and returned == appended
    assert len(objectives) == len(res.history)


def test_ltnn_prox_runs_once_per_sweep(monkeypatch):
    # prox.ltnn_prox_calls then equals the sweep count the tracer reports
    y, z, model = _small_problem()
    ltnn_prox = trfuse.solver.ltnn_prox
    events = []

    def counted_cg_solve(*args, **kwargs):
        events.append("cg")
        return cg_solve(*args, **kwargs)

    def counted_ltnn_prox(*args, **kwargs):
        events.append("prox")
        return ltnn_prox(*args, **kwargs)

    monkeypatch.setattr(trfuse.solver, "cg_solve", counted_cg_solve)
    monkeypatch.setattr(trfuse.solver, "ltnn_prox", counted_ltnn_prox)
    res = solve(y, z, model, SolverConfig(ranks=(2, 2, 2), k_max=3))
    assert len(res.history) == 3
    sweeps = sum(rec.inner_sweeps for rec in res.history)
    assert sweeps > 3
    assert events == ["cg", "prox"] * sweeps
