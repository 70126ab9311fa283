"""One benchmark operation: the ``trfuse`` CLI entry point in a fresh interpreter.

Usage: python3 bench/op.py RESULT_JSON MODE -- TRFUSE_ARGS...

MODE is ``run`` (no spans) or ``trace`` (spans around each layer).
The clock starts before ``import trfuse`` and stops when ``main`` returns
with its output files written. The result file records the exit code,
``run_s``, ``setup_s`` (first entry into ``solve``), the import time, the
peak resident set of this process image and, when tracing, the spans.
"""

import json
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import trfuse.cli  # noqa: E402
import trfuse.harness  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def peak_rss_mib() -> float:
    """High-water resident set of this process image (VmHWM).

    ru_maxrss is not used: on Linux it carries the resident set of the
    process that spawned this one across exec, so it reads the benchmark's
    own memory whenever that is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    solve_entry: list[float] = []
    solve = trfuse.harness.solve

    def stamped_solve(*args, **kwargs):
        if not solve_entry:
            solve_entry.append(time.perf_counter())
        return solve(*args, **kwargs)

    trfuse.harness.solve = stamped_solve
    rc = trfuse.cli.main(argv)
    end = time.perf_counter()
    result = {"rc": rc, "run_s": end - T0,
              "setup_s": solve_entry[0] - T0 if solve_entry else None,
              "import_s": IMPORT_S,
              "peak_rss_mib": peak_rss_mib(),
              "spans": tracer.spans if tracer else None}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
