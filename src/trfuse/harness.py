"""Experiment drivers behind the CLI: simulate, fuse, ablate, metrics.

Every run is deterministic under a fixed configuration and seed; the one
exception is the wall-clock seconds column of convergence.csv.
"""

from __future__ import annotations

import ctypes
import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .degradation import DegradationModel, add_noise, degrade
from .metrics import MetricsReport, metrics_report, reference_span
from .solver import FusionResult, check_observations, initial_factors, solve
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
    try:
        return DegradationModel.build(
            dims, cfg.factor, kernel_size=cfg.kernel_size, sigma=cfg.sigma,
            band_groups=cfg.band_groups, out_bands=cfg.msi_bands, response=response)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


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


def spectral_lift_baseline(z: np.ndarray, model: DegradationModel) -> np.ndarray:
    """Naive full-band estimate: pseudo-inverse of the spectral operator on z.

    The (W, H, B) cube is stored band-major, as the contraction leaves it.
    """
    lifted = np.tensordot(np.linalg.pinv(model.u3), z, axes=(1, 2))
    return np.moveaxis(lifted, 0, 2)


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


def _prepare_out(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    if cfg.ground_truth is None:
        raise ConfigError("simulate requires a ground_truth path")
    gt, model, y, z = load_inputs(cfg)
    out = _prepare_out(out_dir)
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


def _release_freed_heap() -> None:
    """Return the C heap's free pages to the OS, where the C library can.

    glibc trims the top of its main heap only when the free space there
    passes a threshold, so whether memory freed by the solve stays resident
    depends on a few hundred KiB of allocations; malloc_trim(0) releases it
    whatever the layout, in every arena. Other C libraries lack the symbol,
    and nothing is done.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def run_fuse(cfg: ExperimentConfig, out_dir) -> dict:
    """Fuse and, given a ground truth, score the fused cube and the baseline.

    A constant ground truth is refused before the solve. Each report scores
    its cube against the ground truth in their own units, and the fused cube
    is released before the baseline is lifted, so two cube-sized arrays are
    live while scoring. The heap the
    solve freed is returned to the OS before the output is written, and the
    scoring threads' arenas' free pages once the baseline is scored.
    """
    gt, model, y, z = load_inputs(cfg)
    with _data_errors():
        if gt is not None:
            reference_span(gt)  # a constant ground truth cannot be scored
        result = solve(y, z, model, cfg.solver)
    del y  # only z is read again, by the baseline
    _release_freed_heap()
    out = _prepare_out(out_dir)
    write_tnsr(out / "xhat.tnsr", result.fused)
    _write_convergence(out / "convergence.csv", result)
    summary: dict = {"out": str(out), "iterations": len(result.history),
                     "cg_iters": sum(h.cg_iters for h in result.history),
                     "cg_capped": sum(h.cg_capped for h in result.history),
                     "effective_ranks": list(result.factors.ranks)}
    if gt is None:
        return summary
    write_tnsr(out / "error_tensor.tnsr", result.fused - gt)
    with _data_errors():
        report = metrics_report(gt, result.fused, cfg.factor)
    del result
    _write_json(out / "metrics.json",
                {"metrics": report.scalars(),
                 "effective_ranks": summary["effective_ranks"],
                 "config": cfg.as_dict()})
    _write_per_band(out / "per_band.csv", report)
    with _data_errors():
        base_report = metrics_report(gt, spectral_lift_baseline(z, model),
                                     cfg.factor)
    _release_freed_heap()
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
    gt, model, y, z = load_inputs(cfg)
    with _data_errors():
        reference_span(gt)  # a constant ground truth cannot be scored
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
    out = _prepare_out(out_dir)
    cols = ["variant", "alpha", "beta_core1", "beta_core2", "beta_core3",
            "psnr", "ssim", "ergas", "sam", "uiqi"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) if c == "variant" else repr(float(row[c]))
                              for c in cols))
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def run_metrics(ref_path, est_path, factor: int, out_dir=None) -> dict:
    ref = read_tnsr(ref_path)
    est = read_tnsr(est_path)
    with _data_errors():
        report = metrics_report(ref, est, factor)
    payload = {"metrics": report.scalars(), "ref": str(ref_path),
               "est": str(est_path), "factor": factor}
    if out_dir is not None:
        out = _prepare_out(out_dir)
        _write_json(out / "metrics.json", payload)
    return payload
