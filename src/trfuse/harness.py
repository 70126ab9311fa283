"""Experiment drivers behind the CLI: simulate, fuse, ablate, metrics.

Every run is deterministic under a fixed configuration and seed; the one
exception is the wall-clock seconds column of convergence.csv.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .degradation import DegradationModel, add_noise, degrade
from .metrics import MetricsReport, band_report, metrics_report, reference_span
from .solver import (FusionResult, _release_freed_heap, check_observations,
                     initial_factors, solve)
from .tnsr import read_tnsr, write_tnsr


class DataError(Exception):
    """Shape or content problem in loaded tensors."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DataError(msg)


@contextmanager
def _data_errors(key: str | None = None):
    """Report a ValueError raised on the loaded data as a DataError naming ``key``."""
    try:
        yield
    except ValueError as exc:
        raise DataError(str(exc) if key is None else f"{key}: {exc}") from exc


def build_model(dims: tuple[int, int, int], cfg: ExperimentConfig) -> DegradationModel:
    response = None
    if cfg.spectral_response is not None:
        response = read_tnsr(cfg.spectral_response)
        _require(response.ndim == 2, "spectral response must be a 2-way tensor")
    with _data_errors():
        return DegradationModel.build(
            dims, cfg.factor, kernel_size=cfg.kernel_size, sigma=cfg.sigma,
            band_groups=cfg.band_groups, out_bands=cfg.msi_bands, response=response)


def simulate_pair(gt: np.ndarray, cfg: ExperimentConfig
                  ) -> tuple[DegradationModel, np.ndarray, np.ndarray]:
    """Degrade the ground truth and add seeded noise on independent streams."""
    _require(gt.ndim == 3, "ground truth must be a 3-way tensor")
    model = build_model(gt.shape, cfg)
    y0, z0 = degrade(gt, model)
    stream_y, stream_z = np.random.SeedSequence(cfg.seed).spawn(2)
    # an all-zero observation has no SNR, and too low an SNR no finite noise
    with _data_errors("snr_y_db"):
        y = add_noise(y0, cfg.snr_y_db, np.random.default_rng(stream_y))
    with _data_errors("snr_z_db"):
        z = add_noise(z0, cfg.snr_z_db, np.random.default_rng(stream_z))
    return model, y, z


def load_inputs(cfg: ExperimentConfig
                ) -> tuple[np.ndarray | None, DegradationModel, np.ndarray, np.ndarray]:
    """Resolve the configured inputs to (ground truth or None, model, y, z)."""
    if cfg.ground_truth is not None:
        gt = read_tnsr(cfg.ground_truth)
        model, y, z = simulate_pair(gt, cfg)
        return gt, model, y, z
    y = read_tnsr(cfg.y)
    z = read_tnsr(cfg.z)
    _require(y.ndim == 3 and z.ndim == 3, "y and z must be 3-way tensors")
    _require(z.shape[0] == y.shape[0] * cfg.factor
             and z.shape[1] == y.shape[1] * cfg.factor,
             f"z spatial extents {z.shape[:2]} are not factor {cfg.factor} "
             f"times y extents {y.shape[:2]}")
    model = build_model((z.shape[0], z.shape[1], y.shape[2]), cfg)
    _require(model.u3.shape[0] == z.shape[2],
             f"spectral operator yields {model.u3.shape[0]} bands but z has "
             f"{z.shape[2]}")
    return None, model, y, z


def spectral_lift(z: np.ndarray, model: DegradationModel
                  ) -> Callable[[int], np.ndarray]:
    """The naive full-band estimate, pseudo-inverse of the spectral operator
    on z, as a function of the band: band b is z @ pinv(u3)[b], a fresh
    C-order (W, H) array, so the lifted cube is never formed."""
    lift = np.linalg.pinv(model.u3)
    return lambda band: z @ lift[band]


class _Worker(threading.Thread):
    """``task(*args)`` on a thread of its own.

    Once the thread is joined, :meth:`result` returns the task's value or
    raises its exception. The task and its arguments are dropped when it
    ends. One task needs no pool, and importing one would lengthen the
    setup before the solve.
    """

    def __init__(self, task: Callable, *args):
        super().__init__(name="trfuse-worker")
        self._call = (task, args)
        self._outcome: tuple = (None, None)

    def run(self) -> None:
        task, args = self._call
        del self._call
        try:
            self._outcome = (task(*args), None)
        except Exception as exc:  # raised by result(), on the caller's thread
            self._outcome = (None, exc)

    def result(self):
        value, exc = self._outcome
        if exc is not None:
            raise exc
        return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_convergence(path: Path, result: FusionResult) -> None:
    lines = ["k,objective,rel_change,inner_sweeps,cg_iters,cg_capped,seconds"]
    for rec in result.history:
        lines.append(f"{rec.k},{rec.objective!r},{rec.rel_change!r},"
                     f"{rec.inner_sweeps},{rec.cg_iters},{rec.cg_capped},"
                     f"{rec.seconds:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_per_band(path: Path, report: MetricsReport) -> None:
    lines = ["band,psnr,uiqi"]
    for band, (p, q) in enumerate(zip(report.psnr_per_band, report.uiqi_per_band)):
        lines.append(f"{band},{p!r},{q!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_out(out_dir) -> Path:
    """The output directory, refused if a file stands at or above it; nothing is made."""
    out = Path(out_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output path {out}: {nearest} is not a directory")
    return out


def _prepare_out(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output path {out}: {exc}") from exc
    return out


def _check_scorable(gt: np.ndarray) -> None:
    """A constant ground truth has no span, and a band wholly at its minimum no ERGAS."""
    lo, _ = reference_span(gt)
    dark = np.flatnonzero(gt.max(axis=(0, 1)) == lo)
    if dark.size:
        raise ValueError(f"ground truth band {dark[0]} lies wholly at the "
                         f"cube's minimum {lo!r}, so ergas is undefined")


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    if cfg.ground_truth is None:
        raise ConfigError("simulate requires a ground_truth path")
    out = _check_out(out_dir)
    gt, model, y, z = load_inputs(cfg)
    _prepare_out(out)
    write_tnsr(out / "y.tnsr", y)
    write_tnsr(out / "z.tnsr", z)
    echo = {"config": cfg.as_dict(),
            "ground_truth_shape": list(gt.shape),
            "y_shape": list(y.shape),
            "z_shape": list(z.shape),
            "band_groups": [list(g) for g in model.band_groups]
            if model.band_groups is not None else None}
    _write_json(out / "model.json", echo)
    return {"out": str(out), "y_shape": y.shape, "z_shape": z.shape}


def run_fuse(cfg: ExperimentConfig, out_dir) -> dict:
    """Fuse and, given a ground truth, score the fused cube and the baseline.

    A ground truth no report can score is refused before the solve, and so,
    given a ground truth, are observations the solve would refuse. The
    baseline reads only the ground truth and z, so it is scored during the
    solve, band by band on one worker thread, which is joined before the
    fused report, however the solve ends; a baseline that cannot be scored
    is reported after the fused outputs are written. No thread starts
    without a ground truth. Each report scores against the ground truth in
    their own units and the baseline is lifted one band at a time, so the
    ground truth is the only cube-sized array live while the baseline is
    scored, and the fused report adds the fused cube, into which the error
    cube is then written. The heap the solve freed is returned to the OS
    before the output is written, and the free pages of every arena once
    the error cube is written.

    On the 256×256×64 benchmark scene, at one BLAS thread, the resident set
    reads 139.0–141.2 MiB at the final ``compose``, which sets the peak, and
    135.7–140.4 MiB after the fused report and at the error cube's write.
    """
    out = _check_out(out_dir)
    gt, model, y, z = load_inputs(cfg)
    with _data_errors():
        if gt is not None:
            _check_scorable(gt)
            # the worker reads z before the solve would check it
            check_observations(y, z, model)
    with ExitStack() as stack:
        if gt is not None:
            baseline = _Worker(band_report, gt, spectral_lift(z, model),
                               cfg.factor)
            baseline.start()
            stack.callback(baseline.join)
        with _data_errors():
            result = solve(y, z, model, cfg.solver)
        del y, z
        _release_freed_heap()
        _prepare_out(out)
        write_tnsr(out / "xhat.tnsr", result.fused)
        _write_convergence(out / "convergence.csv", result)
    summary: dict = {"out": str(out), "iterations": len(result.history),
                     "cg_iters": sum(h.cg_iters for h in result.history),
                     "cg_capped": sum(h.cg_capped for h in result.history),
                     "effective_ranks": list(result.factors.ranks)}
    if gt is None:
        return summary
    with _data_errors():
        report = metrics_report(gt, result.fused, cfg.factor)
    _write_json(out / "metrics.json",
                {"metrics": report.scalars(),
                 "effective_ranks": summary["effective_ranks"],
                 "config": cfg.as_dict()})
    _write_per_band(out / "per_band.csv", report)
    # the fused cube is written and scored, so it can hold the error
    write_tnsr(out / "error_tensor.tnsr",
               np.subtract(result.fused, gt, out=result.fused))
    del result
    _release_freed_heap()
    with _data_errors():
        base_report = baseline.result()
    _write_json(out / "baseline.json",
                {"metrics": base_report.scalars(),
                 "method": "spectral pseudo-inverse lift"})
    summary["metrics"] = report.scalars()
    summary["baseline"] = base_report.scalars()
    return summary


# each variant is the set of SolverConfig fields it overrides
ABLATION_VARIANTS = (
    ("full", {}),
    ("ban_spe", {"beta_scales": (1.0, 1.0, 0.0)}),
    ("ban_spa", {"beta_scales": (0.0, 0.0, 1.0)}),
    ("no_tv", {"alpha": 0.0}),
    ("trkj", {"alpha": 0.0, "beta": 0.0}),
)


def run_ablate(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Coefficient-zeroing grid over the regularizers, one row per variant.

    All variants share the same simulated inputs and initialization, so the
    rows differ only through the zeroed coefficients. The initialization
    depends on no overridden coefficient, so it is computed once.
    """
    if cfg.ground_truth is None:
        raise ConfigError("ablate requires a ground_truth path")
    out = _check_out(out_dir)
    gt, model, y, z = load_inputs(cfg)
    with _data_errors():
        _check_scorable(gt)
        y, z = check_observations(y, z, model)
        init = initial_factors(y, z, cfg.solver)
    rows = []
    for name, overrides in ABLATION_VARIANTS:
        scfg = replace(cfg.solver, **overrides)
        with _data_errors():
            result = solve(y, z, model, scfg, init_factors_override=init)
            report = metrics_report(gt, result.fused, cfg.factor)
        row = {"variant": name, "alpha": scfg.alpha}
        for i in range(3):
            row[f"beta_core{i + 1}"] = scfg.beta * scfg.beta_scales[i]
        row.update(report.scalars())
        rows.append(row)
    _prepare_out(out)
    cols = ["variant", "alpha", "beta_core1", "beta_core2", "beta_core3",
            "psnr", "ssim", "ergas", "sam", "uiqi"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) if c == "variant" else repr(float(row[c]))
                              for c in cols))
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def run_metrics(ref_path, est_path, factor: int, out_dir=None) -> dict:
    out = None if out_dir is None else _check_out(out_dir)
    ref = read_tnsr(ref_path)
    est = read_tnsr(est_path)
    with _data_errors():
        report = metrics_report(ref, est, factor)
    payload = {"metrics": report.scalars(), "ref": str(ref_path),
               "est": str(est_path), "factor": factor}
    if out is not None:
        _write_json(_prepare_out(out) / "metrics.json", payload)
    return payload
