"""Hyperspectral and multispectral image fusion with tensor-ring factors."""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, load_experiment_config, \
    parse_experiment_config
from .degradation import DegradationModel, add_noise, build_spectral_operator, \
    degrade, gaussian_kernel
from .harness import DataError, run_ablate, run_fuse, run_metrics, run_simulate
from .metrics import MetricsReport, ergas, metrics_report, psnr, sam, ssim, \
    uiqi
from .prox import log_threshold_scalar, ltnn_prox, ltnn_value, \
    soft_shrink_weighted
from .ring import TRFactors, compose, merge_cores, random_init, tr_svd_init
from .solver import FusionResult, IterationRecord, SolverConfig, \
    SolverDivergenceError, solve
from .tensor import fold, frobenius_norm, mode_n_product, unfold
from .tnsr import TnsrError, read_tnsr, write_tnsr

__all__ = [
    "__version__",
    "ConfigError", "ExperimentConfig", "load_experiment_config",
    "parse_experiment_config",
    "DegradationModel", "add_noise", "build_spectral_operator", "degrade",
    "gaussian_kernel",
    "DataError", "run_ablate", "run_fuse", "run_metrics", "run_simulate",
    "MetricsReport", "ergas", "metrics_report", "psnr", "sam", "ssim", "uiqi",
    "log_threshold_scalar", "ltnn_prox", "ltnn_value", "soft_shrink_weighted",
    "TRFactors", "compose", "merge_cores", "random_init", "tr_svd_init",
    "FusionResult", "IterationRecord", "SolverConfig",
    "SolverDivergenceError", "solve",
    "fold", "frobenius_norm", "mode_n_product", "unfold",
    "TnsrError", "read_tnsr", "write_tnsr",
]
