"""End-to-end drivers and CLI: file outputs, determinism, exit codes.

Runs use a 16x16x8 phantom with k_max kept small; these tests exercise the
plumbing, not reconstruction quality.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trfuse.cli
import trfuse.harness
import trfuse.solver
from trfuse.cli import main
from trfuse.config import ConfigError, parse_experiment_config
from trfuse.degradation import degrade
from trfuse.harness import (ABLATION_VARIANTS, DataError, build_model,
                            load_inputs, run_ablate, run_fuse, run_metrics,
                            run_simulate, simulate_pair, spectral_lift)
from trfuse.metrics import metrics_report
from trfuse.ring import TRFactors, compose, random_init
from trfuse.solver import SolverDivergenceError
from trfuse.tensor import mode_n_product
from trfuse.tnsr import TnsrError, read_tnsr, write_tnsr

from helpers import bench_oracle, spectral_lift_baseline

SRC = Path(trfuse.harness.__file__).resolve().parents[1]


def _phantom(dims=(16, 16, 8), ranks=(2, 3, 2), seed=11):
    # positive cores keep the composed cube away from the blur null space
    f = random_init(dims, ranks, seed=seed)
    cores = tuple(np.abs(c) + 0.1 for c in f.cores)
    return compose(TRFactors(cores))


def _base_config(gt_path, **over):
    raw = {"ground_truth": str(gt_path), "factor": 2, "msi_bands": 4,
           "kernel_size": 3, "sigma": 1.0, "ranks": [2, 3, 2], "k_max": 3,
           "seed": 0}
    raw.update(over)
    return parse_experiment_config(raw)


@pytest.fixture()
def gt_file(tmp_path):
    p = tmp_path / "gt.tnsr"
    write_tnsr(p, _phantom())
    return p


def test_run_simulate_outputs(gt_file, tmp_path):
    cfg = _base_config(gt_file)
    out = tmp_path / "sim"
    summary = run_simulate(cfg, out)
    assert summary["y_shape"] == (8, 8, 8)
    assert summary["z_shape"] == (16, 16, 4)
    y = read_tnsr(out / "y.tnsr")
    z = read_tnsr(out / "z.tnsr")
    assert y.shape == (8, 8, 8) and z.shape == (16, 16, 4)
    echo = json.loads((out / "model.json").read_text())
    assert echo["config"]["lambda"] == 1.0
    assert echo["ground_truth_shape"] == [16, 16, 8]
    assert len(echo["band_groups"]) == 4
    # noise actually applied at the default SNR pair
    gt = read_tnsr(gt_file)
    model = build_model(gt.shape, cfg)
    y0, z0 = degrade(gt, model)
    assert np.any(y != y0) and np.any(z != z0)


def test_simulate_noiseless_matches_clean_degradation(gt_file, tmp_path):
    cfg = _base_config(gt_file, snr_y_db=None, snr_z_db=None)
    out = tmp_path / "sim"
    run_simulate(cfg, out)
    gt = read_tnsr(gt_file)
    y0, z0 = degrade(gt, build_model(gt.shape, cfg))
    np.testing.assert_array_equal(read_tnsr(out / "y.tnsr"), y0)
    np.testing.assert_array_equal(read_tnsr(out / "z.tnsr"), z0)


def test_simulate_requires_ground_truth(tmp_path):
    cfg = parse_experiment_config({"y": "a.tnsr", "z": "b.tnsr"})
    with pytest.raises(ConfigError):
        run_simulate(cfg, tmp_path / "sim")


def test_simulate_determinism_and_seed_sensitivity(gt_file, tmp_path):
    cfg = _base_config(gt_file)
    run_simulate(cfg, tmp_path / "a")
    run_simulate(cfg, tmp_path / "b")
    for name in ("y.tnsr", "z.tnsr", "model.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    run_simulate(_base_config(gt_file, seed=1), tmp_path / "c")
    assert ((tmp_path / "a" / "y.tnsr").read_bytes()
            != (tmp_path / "c" / "y.tnsr").read_bytes())


def test_noise_streams_differ_between_y_and_z(gt_file):
    # same seed must not replay the identical noise pattern on both outputs
    cfg = _base_config(gt_file, msi_bands=8, factor=1, kernel_size=1,
                       sigma=0.0, snr_y_db=25.0, snr_z_db=25.0)
    gt = read_tnsr(gt_file)
    model, y, z = simulate_pair(gt, cfg)
    assert y.shape == z.shape  # identity degradation on both arms
    assert np.any(np.abs((y - gt) - (z - gt)) > 1e-12)


def test_run_fuse_full_outputs(gt_file, tmp_path):
    cfg = _base_config(gt_file)
    out = tmp_path / "fused"
    summary = run_fuse(cfg, out)
    for name in ("xhat.tnsr", "convergence.csv", "metrics.json",
                 "per_band.csv", "error_tensor.tnsr", "baseline.json"):
        assert (out / name).exists(), name
    assert 1 <= summary["iterations"] <= 3
    assert summary["effective_ranks"] == [2, 3, 2]
    assert set(summary["metrics"]) == {"psnr", "ssim", "ergas", "sam", "uiqi",
                                       "sam_skipped"}
    xhat = read_tnsr(out / "xhat.tnsr")
    err = read_tnsr(out / "error_tensor.tnsr")
    gt = read_tnsr(gt_file)
    np.testing.assert_array_equal(err, xhat - gt)
    lines = (out / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == ("k,objective,rel_change,inner_sweeps,cg_iters,"
                        "cg_capped,seconds")
    assert len(lines) == 1 + summary["iterations"]
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(
        range(1, summary["iterations"] + 1))
    for line in lines[1:]:
        sweeps, cg_iters, capped = (int(v) for v in line.split(",")[3:6])
        assert 3 <= sweeps <= 3 * cfg.solver.inner_max
        assert 0 <= cg_iters <= sweeps * cfg.solver.cg_max
        assert 0 <= capped <= sweeps
    columns = [[int(v) for v in l.split(",")[4:6]] for l in lines[1:]]
    assert summary["cg_iters"] == sum(it for it, _ in columns)
    assert summary["cg_capped"] == sum(cap for _, cap in columns)
    per_band = (out / "per_band.csv").read_text().strip().split("\n")
    assert per_band[0] == "band,psnr,uiqi"
    assert len(per_band) == 1 + 8
    meta = json.loads((out / "metrics.json").read_text())
    assert parse_experiment_config(meta["config"]) == cfg
    base = json.loads((out / "baseline.json").read_text())
    assert set(base["metrics"]) == set(summary["metrics"])


def test_run_fuse_releases_the_freed_heap_after_solve_and_scoring(
        gt_file, tmp_path, monkeypatch):
    out = tmp_path / "fused"
    seen = []
    written = ("xhat.tnsr", "metrics.json", "error_tensor.tnsr", "baseline.json")

    class Libc:
        def malloc_trim(self, pad):
            seen.append((pad, *((out / name).exists() for name in written)))
            return 1

    def stage(name, fn, before=False):
        def staged(*args, **kwargs):
            if before and name not in seen:
                seen.append(name)
            result = fn(*args, **kwargs)
            if not before:
                seen.append(name)
            return result
        return staged

    monkeypatch.setattr(trfuse.solver.ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(trfuse.solver, "initial_factors",
                        stage("init", trfuse.solver.initial_factors))
    monkeypatch.setattr(trfuse.solver, "_block_system",
                        stage("loop", trfuse.solver._block_system, before=True))
    monkeypatch.setattr(trfuse.harness, "solve", stage("solved", trfuse.harness.solve))
    run_fuse(_base_config(gt_file), out)
    # in solve right after the init, before the loop; once the solve
    # returns, before any output; once the error cube is written, with both
    # reports made, before the baseline's is written
    nothing = (0, False, False, False, False)
    assert seen == ["init", nothing, "loop", "solved", nothing,
                    (0, True, True, True, False)]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-malloc-trim", "no-libc"])
def test_run_fuse_without_malloc_trim(gt_file, tmp_path, monkeypatch, cdll):
    looked_up = []

    def counted(name):
        looked_up.append(name)
        return cdll(name)

    monkeypatch.setattr(trfuse.solver.ctypes, "CDLL", counted)
    out = tmp_path / "fused"
    summary = run_fuse(_base_config(gt_file), out)
    assert set(summary["baseline"]) == set(summary["metrics"])
    assert (out / "baseline.json").exists()
    # each trim site, the solve's after the init and run_fuse's two, went
    # without the symbol
    assert looked_up == [None] * 3


def test_run_fuse_scores_with_few_cubes_live(tmp_path, monkeypatch):
    # many bands, so the temporaries of a band's scores (tens of bands'
    # worth, for the filters) are small beside a cube
    gt = _phantom(dims=(32, 32, 128))
    write_tnsr(tmp_path / "gt.tnsr", gt)
    cube_bytes = gt.nbytes
    del gt
    live, cubes, growth = {}, {}, {}
    scored = threading.Event()

    def at(stage):
        live[stage] = tracemalloc.get_traced_memory()[0]
        cubes[stage] = sum(t.size >= cube_bytes
                           for t in tracemalloc.take_snapshot().traces)
        tracemalloc.reset_peak()

    def grown(stage):
        growth[stage] = tracemalloc.get_traced_memory()[1] - live[stage]

    def baseline(*args, **kwargs):
        at("baseline")
        try:
            return band_report(*args, **kwargs)
        finally:
            grown("baseline")
            scored.set()

    def solve_after_the_baseline(*args, **kwargs):
        # the baseline's stage alone on the traced heap
        assert scored.wait(60)
        return solve(*args, **kwargs)

    def report(*args, **kwargs):
        at("fused report")
        result = metrics_report(*args, **kwargs)
        at("fused report made")
        return result

    def write(path, array):
        if path.name == "error_tensor.tnsr":
            grown("fused report made")
            at("error write")
        return write_tnsr(path, array)

    band_report = trfuse.harness.band_report
    solve = trfuse.harness.solve
    monkeypatch.setattr(trfuse.harness, "band_report", baseline)
    monkeypatch.setattr(trfuse.harness, "solve", solve_after_the_baseline)
    monkeypatch.setattr(trfuse.harness, "metrics_report", report)
    monkeypatch.setattr(trfuse.harness, "write_tnsr", write)
    tracemalloc.start()
    try:
        run_fuse(_base_config(tmp_path / "gt.tnsr"), tmp_path / "fused")
    finally:
        tracemalloc.stop()
    # the baseline is lifted band by band beside the ground truth alone; the
    # fused report adds the fused cube, which then holds the error cube
    assert cubes == {"baseline": 1, "fused report": 2, "fused report made": 2,
                     "error write": 2}
    assert growth["baseline"] < cube_bytes / 2
    assert growth["fused report made"] < cube_bytes / 2
    assert max(live.values()) < 3 * cube_bytes


def test_run_fuse_without_ground_truth_skips_scoring(gt_file, tmp_path):
    sim = tmp_path / "sim"
    run_simulate(_base_config(gt_file), sim)
    cfg = parse_experiment_config(
        {"y": str(sim / "y.tnsr"), "z": str(sim / "z.tnsr"), "factor": 2,
         "msi_bands": 4, "kernel_size": 3, "sigma": 1.0, "ranks": [2, 3, 2],
         "k_max": 2, "seed": 0})
    out = tmp_path / "fused"
    summary = run_fuse(cfg, out)
    assert (out / "xhat.tnsr").exists()
    assert (out / "convergence.csv").exists()
    assert "metrics" not in summary
    for absent in ("metrics.json", "per_band.csv", "error_tensor.tnsr",
                   "baseline.json"):
        assert not (out / absent).exists(), absent


def test_run_fuse_without_ground_truth_starts_no_thread(gt_file, tmp_path):
    # the scoring pool is made at the first scoring call, so importing the
    # package and fusing without a ground truth start no thread; a fresh
    # interpreter, since earlier tests in this one have scored
    sim = tmp_path / "sim"
    run_simulate(_base_config(gt_file), sim)
    raw = {"y": str(sim / "y.tnsr"), "z": str(sim / "z.tnsr"), "factor": 2,
           "msi_bands": 4, "kernel_size": 3, "sigma": 1.0, "ranks": [2, 3, 2],
           "k_max": 2, "seed": 0}
    script = textwrap.dedent("""
        import json, sys, threading
        counts = [threading.active_count()]
        import trfuse
        from trfuse.config import parse_experiment_config
        from trfuse.harness import run_fuse
        counts.append(threading.active_count())
        run_fuse(parse_experiment_config(json.loads(sys.argv[1])), sys.argv[2])
        counts.append(threading.active_count())
        print(json.dumps({"counts": counts,
                          "futures": "concurrent.futures" in sys.modules}))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(raw),
                           str(tmp_path / "fused")],
                          capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["counts"] == [seen["counts"][0]] * 3
    assert not seen["futures"]
    assert (tmp_path / "fused" / "xhat.tnsr").exists()


def test_fuse_reruns_byte_identical_outside_seconds(gt_file, tmp_path):
    cfg = _base_config(gt_file)
    run_fuse(cfg, tmp_path / "a")
    run_fuse(cfg, tmp_path / "b")
    for name in ("xhat.tnsr", "error_tensor.tnsr", "metrics.json",
                 "per_band.csv", "baseline.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name

    def strip_seconds(p):
        lines = p.read_text().strip().split("\n")
        return [",".join(l.split(",")[:3]) for l in lines]

    assert (strip_seconds(tmp_path / "a" / "convergence.csv")
            == strip_seconds(tmp_path / "b" / "convergence.csv"))


def test_fuse_k_max_zero_writes_initialization(gt_file, tmp_path):
    cfg = _base_config(gt_file, k_max=0)
    out = tmp_path / "fused"
    summary = run_fuse(cfg, out)
    assert summary["iterations"] == 0
    lines = (out / "convergence.csv").read_text().strip().split("\n")
    assert lines == ["k,objective,rel_change,inner_sweeps,cg_iters,cg_capped,"
                     "seconds"]
    assert read_tnsr(out / "xhat.tnsr").shape == (16, 16, 8)


def test_load_inputs_validation(tmp_path):
    y, z = tmp_path / "y.tnsr", tmp_path / "z.tnsr"
    write_tnsr(y, np.ones((4, 4, 8)))
    write_tnsr(z, np.ones((9, 9, 4)))  # not factor 2 times 4
    cfg = parse_experiment_config({"y": str(y), "z": str(z), "factor": 2,
                                   "msi_bands": 4, "kernel_size": 3})
    with pytest.raises(DataError):
        load_inputs(cfg)
    write_tnsr(z, np.ones((8, 8, 5)))  # 5 bands but msi_bands says 4
    with pytest.raises(DataError):
        load_inputs(cfg)
    write_tnsr(z, np.ones((8, 8)))  # not 3-way
    with pytest.raises(DataError):
        load_inputs(cfg)


def test_build_model_rejects_bad_geometry(gt_file):
    cfg = _base_config(gt_file, factor=3)  # 16 not divisible by 3
    with pytest.raises(DataError):
        build_model((16, 16, 8), cfg)


def test_spectral_response_file(gt_file, tmp_path):
    resp = tmp_path / "resp.tnsr"
    write_tnsr(resp, np.ones((2, 8)))
    cfg = _base_config(gt_file, spectral_response=str(resp))
    model = build_model((16, 16, 8), cfg)
    assert model.u3.shape == (2, 8)
    np.testing.assert_allclose(model.u3.sum(axis=1), 1.0, atol=1e-12)
    write_tnsr(resp, np.ones((2, 8, 1)))
    with pytest.raises(DataError):
        build_model((16, 16, 8), cfg)


def test_spectral_lift_baseline_shape(gt_file):
    cfg = _base_config(gt_file)
    gt = read_tnsr(gt_file)
    model, y, z = simulate_pair(gt, cfg)
    band = spectral_lift(z, model)
    # the pseudo-inverse along mode 2, one fresh C-order band at a time,
    # with the bits of the whole-cube product
    want = mode_n_product(z, np.linalg.pinv(model.u3), 2)
    for b in range(8):
        lifted = band(b)
        assert lifted.shape == (16, 16) and lifted.flags.c_contiguous
        np.testing.assert_array_equal(lifted, want[:, :, b])


def test_baseline_report_is_the_report_of_the_lifted_cube(gt_file, tmp_path):
    # scored band by band on the worker, the baseline has the bits the
    # pooled report gives the lifted cube
    cfg = _base_config(gt_file)
    out = tmp_path / "fused"
    run_fuse(cfg, out)
    gt, model, y, z = load_inputs(cfg)
    want = metrics_report(gt, spectral_lift_baseline(z, model), cfg.factor)
    got = json.loads((out / "baseline.json").read_text())["metrics"]
    assert got == want.scalars()


def test_divergence_while_the_baseline_is_scored_exit_4(gt_file, tmp_path,
                                                        capsys, monkeypatch):
    # the solve fails while the worker scores: exit 4, the worker joined
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))
    before = set(threading.enumerate())
    during = []
    diverged = threading.Event()
    band_report = trfuse.harness.band_report

    def held(*args, **kwargs):
        # still scoring when the solve fails
        assert diverged.wait(60)
        return band_report(*args, **kwargs)

    def diverge(*args, **kwargs):
        during.append(set(threading.enumerate()) - before)
        diverged.set()
        raise SolverDivergenceError("diverged during the baseline")

    monkeypatch.setattr(trfuse.harness, "band_report", held)
    monkeypatch.setattr(trfuse.harness, "solve", diverge)
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 4
    assert "diverged during the baseline" in capsys.readouterr().err
    assert len(during) == 1 and len(during[0]) == 1
    assert not any(t.is_alive() for t in during[0])
    assert set(threading.enumerate()) <= before
    assert not (tmp_path / "o").exists()


def test_baseline_band_that_cannot_be_scored_exit_3_after_fused_outputs(
        gt_file, tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))
    lift = trfuse.harness.spectral_lift

    def overflowing(z, model):
        band = lift(z, model)
        return lambda b: band(b) * (1e300 if b == 2 else 1.0)

    monkeypatch.setattr(trfuse.harness, "spectral_lift", overflowing)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["fuse", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    assert "band 2 cannot be scored: overflow" in capsys.readouterr().err
    for name in ("xhat.tnsr", "convergence.csv", "metrics.json",
                 "per_band.csv", "error_tensor.tnsr"):
        assert (out / name).exists(), name
    assert not (out / "baseline.json").exists()


def test_run_ablate_rows_and_table(gt_file, tmp_path):
    cfg = _base_config(gt_file, k_max=2)
    out = tmp_path / "abl"
    rows = run_ablate(cfg, out)
    assert [r["variant"] for r in rows] == [n for n, _ in ABLATION_VARIANTS]
    trkj = rows[-1]
    assert trkj["alpha"] == 0.0
    assert all(trkj[f"beta_core{i}"] == 0.0 for i in (1, 2, 3))
    spe = rows[1]
    assert spe["beta_core3"] == 0.0 and spe["beta_core1"] > 0.0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == ("variant,alpha,beta_core1,beta_core2,beta_core3,"
                        "psnr,ssim,ergas,sam,uiqi")
    assert len(lines) == 6
    # the full row must agree with a standalone fusion of the same config
    fused = run_fuse(cfg, tmp_path / "check")
    assert rows[0]["psnr"] == fused["metrics"]["psnr"]
    assert rows[0]["sam"] == fused["metrics"]["sam"]
    with pytest.raises(ConfigError):
        run_ablate(parse_experiment_config({"y": "a", "z": "b"}), out)


def test_ablation_rows_match_oracle_coefficients(gt_file, tmp_path):
    # the benchmark's oracle states each variant's coefficients from the
    # paper's ablation, independently of ABLATION_VARIANTS
    oracle = bench_oracle()
    cols = ("alpha", "beta_core1", "beta_core2", "beta_core3")
    for alpha, beta in ((1e-3, 0.7), (2e-4, 2.0)):
        out = tmp_path / f"abl-{beta}"
        run_ablate(_base_config(gt_file, k_max=1, alpha=alpha, beta=beta), out)
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        got = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            got[row["variant"]] = tuple(float(row[c]) for c in cols)
        assert got == oracle.expected_coefficients(alpha, beta)


def test_fuse_outputs_pass_the_benchmark_checks(tmp_path):
    # the output checks of the benchmark, on its self-test's small phantom
    # and degradation: a scoring change the benchmark would count incorrect
    # fails here first
    oracle = bench_oracle()
    gt = oracle.ring_phantom((32, 32, 16), (2, 4, 2), 11)
    _, z = oracle.degrade(gt, 2, 5, 1.0, 6)
    baseline_db = oracle.psnr_db(gt, oracle.spectral_lift(z, 16))
    write_tnsr(tmp_path / "gt.tnsr", gt)
    out = tmp_path / "out"
    run_fuse(parse_experiment_config(
        {"ground_truth": str(tmp_path / "gt.tnsr"), "factor": 2,
         "kernel_size": 5, "sigma": 1.0, "msi_bands": 6, "ranks": [2, 4, 2],
         "seed": 3}), out)
    assert oracle.check_fused(out, gt, baseline_db)[0] == []
    assert oracle.check_convergence(out) == []
    assert oracle.check_metrics(out, gt, 2) == []


def test_ablation_shares_one_initialization(gt_file, tmp_path, monkeypatch):
    cfg = _base_config(gt_file, k_max=2)
    init_calls = []
    initial_factors = trfuse.harness.initial_factors

    def counted(*args, **kwargs):
        init_calls.append(1)
        return initial_factors(*args, **kwargs)

    monkeypatch.setattr(trfuse.harness, "initial_factors", counted)
    run_ablate(cfg, tmp_path / "shared")
    assert len(init_calls) == 1
    shared = (tmp_path / "shared" / "ablation.csv").read_bytes()

    # each variant initializing on its own must give the same table
    solve = trfuse.harness.solve

    def own_init(y, z, model, scfg, init_factors_override=None):
        return solve(y, z, model, scfg)

    monkeypatch.setattr(trfuse.harness, "solve", own_init)
    run_ablate(cfg, tmp_path / "own")
    assert (tmp_path / "own" / "ablation.csv").read_bytes() == shared


def test_nonfinite_inputs_are_data_errors(gt_file, tmp_path, monkeypatch):
    cfg = _base_config(gt_file)
    gt, model, y, z = load_inputs(cfg)
    y = y.copy()
    y[0, 0, 0] = np.inf
    monkeypatch.setattr(trfuse.harness, "load_inputs",
                        lambda _cfg: (gt, model, y, z))
    with pytest.raises(DataError, match="y contains NaN or Inf"):
        run_fuse(cfg, tmp_path / "fused")
    assert not (tmp_path / "fused").exists()


def test_run_metrics(tmp_path):
    rng = np.random.default_rng(0)
    ref = rng.uniform(0.0, 1.0, size=(12, 12, 5))
    est = ref + rng.normal(0, 0.02, size=ref.shape)
    rp, ep = tmp_path / "ref.tnsr", tmp_path / "est.tnsr"
    write_tnsr(rp, ref)
    write_tnsr(ep, est)
    payload = run_metrics(rp, ep, 2, tmp_path / "out")
    want = metrics_report(ref, est, 2).scalars()
    assert payload["metrics"] == want
    saved = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert saved["metrics"] == want
    write_tnsr(ep, est[:, :, :4])
    with pytest.raises(DataError, match=r"shape mismatch \(12, 12, 5\) vs \(12, 12, 4\)"):
        run_metrics(rp, ep, 2)
    write_tnsr(ep, est[:, :, 0])
    with pytest.raises(DataError, match="metrics expect 3-way tensors"):
        run_metrics(rp, ep, 2)
    write_tnsr(rp, np.full(ref.shape, 0.5))
    write_tnsr(ep, est)
    with pytest.raises(DataError, match="reference tensor is constant"):
        run_metrics(rp, ep, 2)


def test_cli_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trfuse ")


def test_cli_simulate_and_fuse(gt_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "sigma": 1.0, "ranks": [2, 3, 2], "k_max": 2,
         "seed": 0}))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "sim")]) == 0
    assert "wrote y" in capsys.readouterr().out
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "fused")]) == 0
    out = capsys.readouterr().out
    assert re.search(r"fused in \d+ outer iterations \(\d+ CG iterations, "
                     r"\d+ capped\)", out)
    assert '"psnr"' in out  # metrics echoed when ground truth is known


def test_cli_seed_override(gt_file, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "seed": 0}))
    main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
          "--seed", "7"])
    assert ((tmp_path / "a" / "y.tnsr").read_bytes()
            != (tmp_path / "b" / "y.tnsr").read_bytes())


def test_cli_metrics_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    ref = rng.uniform(0.0, 1.0, size=(10, 10, 3))
    write_tnsr(tmp_path / "ref.tnsr", ref)
    write_tnsr(tmp_path / "est.tnsr", ref + 0.01)
    code = main(["metrics", "--ref", str(tmp_path / "ref.tnsr"),
                 "--est", str(tmp_path / "est.tnsr"), "--factor", "2"])
    assert code == 0
    assert '"psnr"' in capsys.readouterr().out
    code = main(["metrics", "--ref", str(tmp_path / "ref.tnsr"),
                 "--est", str(tmp_path / "est.tnsr"), "--factor", "0"])
    assert code == 2


def test_cli_fuse_single_band(tmp_path):
    # one band: the spectral difference matrix is the single zero row
    gt_path = tmp_path / "gt1.tnsr"
    write_tnsr(gt_path, _phantom(dims=(16, 16, 1)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_path), "factor": 2, "msi_bands": 1,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 2, "seed": 0}))
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    xhat = read_tnsr(tmp_path / "o" / "xhat.tnsr")
    assert xhat.shape == (16, 16, 1) and np.all(np.isfinite(xhat))


def test_cli_fuse_with_vanishing_sigma(tmp_path):
    # 2·sigma² underflows to zero: the blur is the delta, not a data error
    write_tnsr(tmp_path / "gt.tnsr", _phantom(dims=(8, 8, 4)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(tmp_path / "gt.tnsr"), "factor": 2,
         "msi_bands": 2, "kernel_size": 3, "sigma": 1e-200, "ranks": [2, 2, 2],
         "k_max": 2, "seed": 0}))
    with np.errstate(all="raise"):
        assert main(["fuse", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
    assert np.all(np.isfinite(read_tnsr(tmp_path / "o" / "xhat.tnsr")))


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["fuse", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ground_truth": "gt.tnsr",
                                    "kernel_size": 4}))
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    # the output directory comes from --out only
    cfg_path.write_text(json.dumps({"ground_truth": "gt.tnsr",
                                    "output_dir": str(tmp_path / "o")}))
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown configuration keys: output_dir" in capsys.readouterr().err
    # an integer too large for a float key (json.dumps writes all its digits)
    for key in ("sigma", "lambda"):
        cfg_path.write_text(json.dumps({"ground_truth": "gt.tnsr", key: 10**400}))
        assert main(["fuse", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{key} is out of the float range" in capsys.readouterr().err
    # an SNR whose power of ten underflows asks for more noise than a float holds
    cfg_path.write_text(json.dumps({"ground_truth": "gt.tnsr", "snr_z_db": -4000.0}))
    for command in ("simulate", "fuse", "ablate"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "snr_z_db of -4000.0 dB" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_removed_ablation_switches_exit_2(gt_file, tmp_path, capsys):
    # ablate overrides the solver coefficients itself; the former switch keys
    # are unknown keys like any other
    for key in ("disable_ltnn_spectral", "disable_ltnn_spatial", "disable_tv",
                "baseline_trkj"):
        raw = {"ground_truth": str(gt_file), key: True}
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}"):
            parse_experiment_config(raw)
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / key
        assert main(["fuse", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_cli_negative_seed_exit_2(gt_file, tmp_path, capsys):
    raw = {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
           "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}
    in_config = tmp_path / "negative.json"
    in_config.write_text(json.dumps({**raw, "seed": -1}))
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(raw))
    for command in ("simulate", "fuse", "ablate"):
        for cfg_path, extra in ((in_config, []), (valid, ["--seed", "-1"])):
            out = tmp_path / command
            code = main([command, "--config", str(cfg_path),
                         "--out", str(out), *extra])
            assert code == 2, (command, extra)
            assert "seed" in capsys.readouterr().err
            assert not out.exists()


def test_cli_data_errors_exit_3(gt_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # referenced tensor file does not exist
    cfg_path.write_text(json.dumps({"ground_truth": str(tmp_path / "no.tnsr")}))
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    # geometry rejected by the degradation builder
    cfg_path.write_text(json.dumps({"ground_truth": str(gt_file),
                                    "factor": 3, "msi_bands": 4,
                                    "kernel_size": 3}))
    assert main(["fuse", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err
    # an all-zero ground truth has no SNR to set
    write_tnsr(tmp_path / "zero.tnsr", np.zeros((16, 16, 8)))
    cfg_path.write_text(json.dumps({"ground_truth": str(tmp_path / "zero.tnsr"),
                                    "factor": 2, "msi_bands": 4,
                                    "kernel_size": 3, "ranks": [2, 3, 2]}))
    for command in ("simulate", "fuse", "ablate"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / command)]) == 3
        assert "all-zero tensor" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_cli_overflowing_snr_adds_no_noise(gt_file, tmp_path):
    # 10^400 overflows: the key acts as null, down to the output bytes
    raw = {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
           "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}
    for key in ("snr_y_db", "snr_z_db"):
        outs = []
        for val in (4000.0, None):
            cfg_path = tmp_path / f"{key}-{val}.json"
            cfg_path.write_text(json.dumps({**raw, key: val}))
            out = tmp_path / f"{key}-{val}"
            for command in ("simulate", "fuse"):
                assert main([command, "--config", str(cfg_path),
                             "--out", str(out / command)]) == 0
            outs.append(out)
        for name in ("simulate/y.tnsr", "simulate/z.tnsr", "fuse/xhat.tnsr",
                     "fuse/per_band.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_noise_sigma_past_the_float_range_exit_3(gt_file, tmp_path, capsys):
    # 10^-310 is a subnormal ratio: the SNR passes the config, sigma overflows
    raw = {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
           "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}
    for key in ("snr_y_db", "snr_z_db"):
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps({**raw, key: -3100.0}))
        for command in ("simulate", "fuse"):
            out = tmp_path / key / command
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 3
            err = capsys.readouterr().err
            assert f"{key}: an SNR of -3100.0 dB puts the noise sigma" in err
            assert not out.exists()


def test_cli_constant_ground_truth_exit_3_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    # a constant reference has no span onto [0, 255], so it cannot be scored
    write_tnsr(tmp_path / "gt.tnsr", np.full((16, 16, 8), 3.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(tmp_path / "gt.tnsr"), "factor": 2,
         "msi_bands": 4, "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a constant ground truth")

    for name in ("solve", "initial_factors"):
        monkeypatch.setattr(trfuse.harness, name, no_solve)
    for command in ("fuse", "ablate"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "reference tensor is constant" in capsys.readouterr().err
        assert not (out / "xhat.tnsr").exists()
        assert not out.exists()


def test_cli_dark_ground_truth_band_exit_3_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    # a band wholly at the cube's minimum maps to a band of mean 0: no ergas
    gt = _phantom()
    gt[:, :, 3] = gt.min()
    write_tnsr(tmp_path / "gt.tnsr", gt)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(tmp_path / "gt.tnsr"), "factor": 2,
         "msi_bands": 4, "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a ground truth that cannot be scored")

    for name in ("solve", "initial_factors"):
        monkeypatch.setattr(trfuse.harness, name, no_solve)
    for command in ("fuse", "ablate"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "ground truth band 3 lies wholly at the cube's minimum" in \
            capsys.readouterr().err
        assert not out.exists()


def test_cli_metrics_names_the_zero_mean_reference_band(tmp_path, capsys):
    # metrics scores a given pair: a dark band is refused as ergas, by index
    gt = _phantom()
    gt[:, :, 5] = gt.min()
    write_tnsr(tmp_path / "d.tnsr", gt)
    out = tmp_path / "scores"
    assert main(["metrics", "--ref", str(tmp_path / "d.tnsr"), "--est",
                 str(tmp_path / "d.tnsr"), "--factor", "2",
                 "--out", str(out)]) == 3
    assert "ergas undefined: reference band 5 has zero mean" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cli_out_that_cannot_be_a_directory_exit_2(gt_file, tmp_path, capsys,
                                                   monkeypatch):
    # a file, or a path under one, is refused before any input is read
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))

    def no_read(*args, **kwargs):
        raise AssertionError("read an input with an unusable --out")

    for name in ("solve", "read_tnsr"):
        monkeypatch.setattr(trfuse.harness, name, no_read)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    commands = [[c, "--config", str(cfg_path)] for c in ("simulate", "fuse", "ablate")]
    commands.append(["metrics", "--ref", str(gt_file), "--est", str(gt_file)])
    for out in (blocker, blocker / "sub" / "dir"):
        for argv in commands:
            assert main([*argv, "--out", str(out)]) == 2, (argv, out)
            err = capsys.readouterr().err
            assert f"config error: output path {out}: {blocker} is not a directory" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept"


def test_out_that_cannot_be_made_is_a_config_error(gt_file, tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    with pytest.raises(ConfigError, match="output path .*Permission denied"):
        run_metrics(gt_file, gt_file, 2, tmp_path / "o")


def test_cli_metrics_reproduces_the_fuse_report(gt_file, tmp_path):
    # both entry points score through one path, so the scalars are bit-equal
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 2}))
    fused = tmp_path / "fused"
    assert main(["fuse", "--config", str(cfg_path), "--out", str(fused)]) == 0
    assert main(["metrics", "--ref", str(gt_file), "--est",
                 str(fused / "xhat.tnsr"), "--factor", "2",
                 "--out", str(tmp_path / "scored")]) == 0
    want = json.loads((fused / "metrics.json").read_text())["metrics"]
    got = json.loads((tmp_path / "scored" / "metrics.json").read_text())["metrics"]
    assert got == want


def test_cli_overflowing_observations_exit_3(tmp_path, capsys, monkeypatch):
    # finite ground truth whose signal power overflows, so the simulated
    # noise, and with it y and z, is non-finite; no baseline is scored
    def no_baseline(*args, **kwargs):
        raise AssertionError("scored the baseline of a non-finite z")

    monkeypatch.setattr(trfuse.harness, "band_report", no_baseline)
    write_tnsr(tmp_path / "gt.tnsr", 1e200 * _phantom())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(tmp_path / "gt.tnsr"), "factor": 2,
         "msi_bands": 4, "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1}))
    for command in ("fuse", "ablate"):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / command)])
        assert code == 3
        assert "contains NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_cli_overflowing_solve_exit_4(gt_file, tmp_path, capsys):
    # at -3000 dB the noise is near the float range: the first block's
    # right-hand side overflows, which the solver reports before any output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1,
         "snr_y_db": -3000.0}))
    for command in ("fuse", "ablate"):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / command)])
        assert code == 4
        assert "non-finite residual" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_cli_overflowing_scores_exit_3(gt_file, tmp_path, capsys):
    # a finite estimate whose squared errors overflow cannot be scored,
    # which is a data error
    est = tmp_path / "est.tnsr"
    write_tnsr(est, 1e300 * read_tnsr(gt_file))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["metrics", "--ref", str(gt_file), "--est", str(est),
                     "--factor", "2"])
    assert code == 3
    assert "band 0 cannot be scored: overflow" in capsys.readouterr().err


def test_cli_divergence_exit_4(tmp_path, capsys):
    # all-zero observations collapse the estimate, which the solver reports
    write_tnsr(tmp_path / "y.tnsr", np.zeros((4, 4, 8)))
    write_tnsr(tmp_path / "z.tnsr", np.zeros((8, 8, 4)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"y": str(tmp_path / "y.tnsr"), "z": str(tmp_path / "z.tnsr"),
         "factor": 2, "msi_bands": 4, "kernel_size": 3, "ranks": [2, 3, 2],
         "k_max": 2}))
    # the 4x4 observation cannot carry the requested ranks
    with pytest.warns(UserWarning, match="clamped"):
        assert main(["fuse", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 4
    assert "diverged" in capsys.readouterr().err


def test_cli_exit_codes_map_to_error_types(tmp_path, monkeypatch, capsys):
    # each typed failure of a run gets its documented exit code
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ground_truth": "gt.tnsr"}))
    for error, code in ((ConfigError, 2), (TnsrError, 3), (DataError, 3),
                        (SolverDivergenceError, 4)):
        def fail(*args, error=error):
            raise error("boom")
        monkeypatch.setattr(trfuse.cli, "run_fuse", fail)
        assert main(["fuse", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == code, error
        assert "boom" in capsys.readouterr().err


def test_cli_ablate(gt_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"ground_truth": str(gt_file), "factor": 2, "msi_bands": 4,
         "kernel_size": 3, "ranks": [2, 3, 2], "k_max": 1, "seed": 0}))
    assert main(["ablate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "abl")]) == 0
    out = capsys.readouterr().out
    for name, _ in ABLATION_VARIANTS:
        assert name in out
    assert (tmp_path / "abl" / "ablation.csv").exists()
