"""Fusion benchmark: pinned ring phantoms through the ``trfuse`` CLI.

Usage, from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each operation runs ``trfuse.cli.main`` in a fresh interpreter (bench/op.py),
one at a time in a closed loop, until another would end after ``--seconds``
(a run holds at least one). Its outputs are checked against bench/oracle.py,
which does not import the program. With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run and the tracing
overhead. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread here and in every process started from here (see README)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from spans import layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_run"
OP_TIMEOUT_S = 170
SIMULATE_TOL = 1e-12
# inputs are pinned: the solver's work moves with both seeds (see README)
PHANTOM_SEED = 11
PROGRAM_SEED = 3
# median time of reference_loop() on the reference host; run_s and setup_s are
# scaled to this host speed (see README, "Host speed")
REFERENCE_S = 0.6
# reference samples before the first and after the last operation, so a run of one
# operation still takes the median of several
REFERENCE_END_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # trfuse subcommand
    dims: tuple             # phantom extents
    phantom_ranks: tuple
    degradation: dict       # factor, kernel_size, sigma, msi_bands
    solver: dict            # the rest of the program's config
    from_pair: bool = False  # give the program y/z files instead of the ground truth


WORKLOADS = {w.name: w for w in (
    Workload("scene-256", "fuse", (256, 256, 64), (3, 5, 3),
             {"factor": 2, "kernel_size": 5, "sigma": 1.0, "msi_bands": 6},
             {"ranks": [3, 5, 3], "beta": 2.0}),
    Workload("ablate-64", "ablate", (64, 64, 32), (2, 4, 2),
             {"factor": 2, "kernel_size": 5, "sigma": 1.0, "msi_bands": 6},
             {"ranks": [3, 5, 3], "beta": 2.0, "alpha": 1e-3}),
    Workload("pair-128-exact", "fuse", (128, 128, 64), (2, 4, 2),
             {"factor": 4, "kernel_size": 7, "sigma": 2.0, "msi_bands": 4},
             {"ranks": [2, 4, 2], "snr_y_db": None, "snr_z_db": None},
             from_pair=True),
)}


def reference_loop() -> float:
    """Seconds this host takes now for a fixed mix of work that does not use the program.

    Small batched SVDs, a 300x300 matrix product, a 32 MiB streaming pass and a
    pure-Python loop: the kinds of work the operations spend their time in.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal((200, 64, 16))
    square = rng.standard_normal((300, 300))
    big = rng.random(4_000_000)
    t0 = time.perf_counter()
    for _ in range(15):
        np.linalg.svd(small, full_matrices=False)
    for _ in range(15):
        square @ square
    total = 0
    for k in range(250_000):
        total += k
    for _ in range(15):
        big * 1.0001 + big
    return time.perf_counter() - t0


def launch(mode: str, args: list, result: Path, log: Path) -> dict | None:
    """Run bench/op.py in a fresh interpreter; its result, or None if it died."""
    with open(log, "w") as fh:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "op.py"), str(result), mode,
                                   "--", *args], cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


class Run:
    """Inputs, reference values and operation outcomes of one benchmark run."""

    def __init__(self, w: Workload):
        self.w = w
        self.dir = OUT / w.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        d = w.degradation
        self.gt = oracle.ring_phantom(w.dims, w.phantom_ranks, PHANTOM_SEED)
        y, z = oracle.degrade(self.gt, d["factor"], d["kernel_size"], d["sigma"],
                              d["msi_bands"])
        self.y, self.z = y, z
        self.baseline_db = oracle.psnr_db(self.gt, oracle.spectral_lift(z, w.dims[2]))
        gt_path = self.dir / "gt.tnsr"
        oracle.write_tnsr(gt_path, self.gt)
        cfg = {**d, **w.solver, "seed": PROGRAM_SEED}
        if w.from_pair:
            oracle.write_tnsr(self.dir / "y.tnsr", y)
            oracle.write_tnsr(self.dir / "z.tnsr", z)
            self.sim_config = self.dir / "simulate.json"
            self.sim_config.write_text(json.dumps({**cfg, "ground_truth": str(gt_path)}))
            cfg.update(y=str(self.dir / "y.tnsr"), z=str(self.dir / "z.tnsr"))
        else:
            cfg["ground_truth"] = str(gt_path)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(cfg))
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.count = 0

    def _paths(self, tag: str) -> tuple[Path, Path, Path]:
        self.count += 1
        stem = f"{tag}{self.count}"
        return self.dir / stem, self.dir / f"{stem}.json", self.dir / f"{stem}.log"

    def check_simulate(self) -> None:
        """The program's noiseless pair equals this benchmark's own degradation."""
        out, result, log = self._paths("simulate")
        res = launch("run", ["simulate", "--config", str(self.sim_config), "--out", str(out)],
                     result, log)
        if res is None or res["rc"] != 0:
            self.problems.append(f"trfuse simulate failed, see {log}")
            return
        for name, ours in (("y", self.y), ("z", self.z)):
            try:
                theirs = oracle.read_tnsr(out / f"{name}.tnsr")
            except (OSError, ValueError) as exc:
                self.problems.append(f"simulate {name}.tnsr unreadable: {exc}")
                continue
            if theirs.shape != ours.shape:
                self.problems.append(f"simulate {name} has shape {theirs.shape}, "
                                     f"expected {ours.shape}")
                continue
            err = float(np.max(np.abs(theirs - ours))) / float(np.max(np.abs(ours)))
            if not err <= SIMULATE_TOL:
                self.problems.append(f"simulate {name} differs from the benchmark's "
                                     f"degradation by {err:.3e} (tolerance {SIMULATE_TOL})")

    def operation(self, mode: str) -> None:
        """One checked operation; its output files are removed once checked."""
        out, result, log = self._paths("op")
        res = launch(mode, [self.w.command, "--config", str(self.config), "--out", str(out)],
                     result, log)
        op = {"mode": mode, "result": res, "problems": [], "psnr_db": float("nan")}
        if res is None or res["rc"] != 0:
            op["problems"].append(f"exit code {None if res is None else res['rc']}, see {log}")
        else:
            op["problems"], op["psnr_db"], op["digest"] = self.check(out)
        for line in op["problems"]:
            print(f"{self.w.name} {out.name}: {line}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)

    def check(self, out: Path) -> tuple[list, float, str]:
        w = self.w
        if w.command == "ablate":
            problems, db = oracle.check_ablation(out, w.solver["alpha"], w.solver["beta"],
                                                 self.baseline_db)
            digested = out / "ablation.csv"
        else:
            problems, db = oracle.check_fused(out, self.gt, self.baseline_db)
            problems += oracle.check_convergence(out)
            if not w.from_pair:
                problems += oracle.check_metrics(out, self.gt, w.degradation["factor"])
            digested = out / "xhat.tnsr"
        digest = hashlib.sha256(digested.read_bytes()).hexdigest() if digested.exists() else ""
        return problems, db, digest

    def check_repeats(self) -> None:
        """Every operation of the run saw the same inputs and seed: outputs must be byte-identical."""
        digests = [op["digest"] for op in self.ops if "digest" in op]
        for op in self.ops:
            if "digest" in op and op["digest"] != digests[0]:
                op["problems"].append("output differs from the run's first operation")

    def outcome(self) -> dict:
        """A non-zero exit or a crash is a problem of its operation, so it makes the run incorrect."""
        failed = sum(1 for op in self.ops if op["problems"])
        return {"correct": bool(self.ops) and not self.problems and not failed,
                "attempted": len(self.ops), "failed": failed}


def run_workload(w: Workload, seconds: float, trace: bool, units: dict) -> dict:
    """One run: set up the inputs, loop operations for ``seconds``, check and summarize.

    The reference loop is timed REFERENCE_END_SAMPLES times before the first
    measured operation and after the last, and once between operations; the
    run's times are scaled by REFERENCE_S over its median.
    """
    run = Run(w)
    if w.from_pair:
        run.check_simulate()
    if trace:
        run.operation("run")
    start = time.perf_counter()
    done = 0
    references = [reference_loop() for _ in range(REFERENCE_END_SAMPLES - 1)]
    while True:
        references.append(reference_loop())
        run.operation("trace" if trace else "run")
        done += 1
        elapsed = time.perf_counter() - start
        # stop unless one more operation of the mean length so far ends within ``seconds``
        if elapsed * (done + 1) / done > seconds:
            break
    references += [reference_loop() for _ in range(REFERENCE_END_SAMPLES)]
    speed = REFERENCE_S / statistics.median(references)
    if not trace:
        print(f"{w.name}: reference loop median {statistics.median(references):.4f} s over "
              f"{len(references)} samples (nominal {REFERENCE_S} s); run_s and setup_s "
              f"scaled by {speed:.4f}")
    run.check_repeats()
    ok = [op for op in run.ops if not op["problems"]]
    measured = [op for op in ok if op["mode"] == ("trace" if trace else "run")]
    if not measured:
        return dict(run.outcome(), metrics={})
    if trace:
        per_op = [layer_metrics(op["result"]["spans"], op["result"]["import_s"]) for op in measured]
        untraced = [op["result"]["run_s"] for op in ok if op["mode"] == "run"]
        overhead = (statistics.median(op["result"]["run_s"] for op in measured) - untraced[0]
                    if untraced else 0.0)
        values = {name: [m[name] for m in per_op] for name in per_op[0]}
        values["trace.overhead_s"] = [overhead]
    else:
        values = {"run_s": [op["result"]["run_s"] * speed for op in measured],
                  "setup_s": [op["result"]["setup_s"] * speed for op in measured],
                  "peak_rss_mib": [op["result"]["peak_rss_mib"] for op in measured],
                  "psnr_db": [op["psnr_db"] for op in measured]}
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
               for name, unit in units.items()}
    return dict(run.outcome(), metrics=metrics)


def report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:32s} {v['value']:>16.6g} {v['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; the workloads' inputs are pinned (see README)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the running operation
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "trfuse" / "cli.py").is_file():
        sys.exit(f"bench: no trfuse sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seconds, bool(args.trace), units)
        report(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
