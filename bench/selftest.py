"""Checks of the checker: the output checks must pass one known-good operation
output and fail each of three known-bad ones.

Usage, from the repository root (a few seconds):

    python3 bench/selftest.py

The good output is a real ``trfuse fuse`` run on a small noisy phantom. The
bad ones are copies of it with the fused cube perturbed to about 20 dB PSNR,
with one index in metrics.json tampered, and with an objective that rises.
Two more runs must come out incorrect: one whose operation exits non-zero
(a config error) and one whose operation crashes before writing its result.
Exits 0 when only the good output passes and both runs are incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

import oracle
from run import Run, Workload, launch

SMALL = Workload("selftest", "fuse", (32, 32, 16), (2, 4, 2),
                 {"factor": 2, "kernel_size": 5, "sigma": 1.0, "msi_bands": 6},
                 {"ranks": [2, 4, 2]})


def perturb_cube(out, run):
    # noise std of a tenth of the reference range is 20 dB PSNR on the 0..255 scale
    rng = np.random.default_rng(0)
    span = float(run.gt.max() - run.gt.min())
    oracle.write_tnsr(out / "xhat.tnsr", run.gt + 0.1 * span * rng.standard_normal(run.gt.shape))


def tamper_metrics(out, run):
    payload = json.loads((out / "metrics.json").read_text())
    payload["metrics"]["ssim"] -= 1e-3
    (out / "metrics.json").write_text(json.dumps(payload))


def raise_objective(out, run):
    lines = (out / "convergence.csv").read_text().strip().split("\n")
    k, obj, rest = lines[-1].split(",", 2)
    lines[-1] = f"{k},{float(obj) * 1.01!r},{rest}"
    (out / "convergence.csv").write_text("\n".join(lines) + "\n")


def failing_run(name: str, spoil) -> bool:
    """Run one spoiled operation; True when the run's outcome is incorrect and failed."""
    run = Run(dataclasses.replace(SMALL, name=f"selftest-{name}"))
    spoil(run)
    run.operation("run")
    outcome = run.outcome()
    return not outcome["correct"] and outcome["failed"] == outcome["attempted"] == 1


def config_error(run):
    cfg = json.loads(run.config.read_text())
    run.config.write_text(json.dumps({**cfg, "no_such_key": 1}))


def crash(run):
    # argparse exits the operation's interpreter before any result is written
    run.w = dataclasses.replace(run.w, command="no-such-command")


def main() -> int:
    run = Run(SMALL)
    good = run.dir / "good"
    res = launch("run", ["fuse", "--config", str(run.config), "--out", str(good)],
                 run.dir / "good.json", run.dir / "good.log")
    if res is None or res["rc"] != 0:
        print(f"selftest: trfuse fuse failed, see {run.dir / 'good.log'}")
        return 1
    ok = True
    for name, spoil in (("good", None), ("cube at 20 dB", perturb_cube),
                        ("tampered metrics.json", tamper_metrics),
                        ("rising objective", raise_objective)):
        out = good
        if spoil is not None:
            out = run.dir / name.replace(" ", "_")
            shutil.copytree(good, out)
            spoil(out, run)
        problems, db, _ = run.check(out)
        passed = not problems
        verdict = "as expected" if passed == (spoil is None) else "WRONG"
        ok = ok and passed == (spoil is None)
        print(f"{name}: {'passes' if passed else 'fails'} ({verdict}); psnr {db:.2f} dB, "
              f"baseline {run.baseline_db:.2f} dB")
        for line in problems:
            print(f"    {line}")
    for name, spoil in (("exit", config_error), ("crash", crash)):
        incorrect = failing_run(name, spoil)
        ok = ok and incorrect
        print(f"operation that {'exits non-zero' if name == 'exit' else 'crashes'}: run "
              f"{'incorrect (as expected)' if incorrect else 'counted correct (WRONG)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
