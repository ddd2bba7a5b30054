"""Measure the cost of one tracelab CLI invocation in a fresh process.

    python3 tools/cell_cost.py -- --suite pde,hhalf,h1 --mesh square --n 64 --trials 20

Everything after ``--`` goes to ``python -m tracelab``, run with this tree's
``src`` on PYTHONPATH and BLAS on one thread, after ``src/tracelab`` is
byte-compiled so that no run pays for compiling; the script appends its own
``--out``, so the reports go to a temporary directory.  It prints one
``name value`` line each for the wall time, the CPU time (user + system),
the peak RSS and the minor page faults of the child (``RUSAGE_CHILDREN``),
its exit code and the verdict of its report.json ("none" when it wrote
none).  It exits with the child's exit code.  For a memory cap, run it
under ``ulimit -v``.
"""

from __future__ import annotations

import compileall
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def measure(args: list[str], out: Path) -> dict[str, object]:
    """Run the CLI with ``args``, its reports written into ``out``."""
    report = out / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "tracelab", *args, "--out", str(out)], env=env,
                          stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    verdict = json.loads(report.read_text())["verdict"] if report.exists() else "none"
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # ru_maxrss is in KiB on Linux
        "minor_faults": usage.ru_minflt,
        "exit": code,
        "verdict": verdict,
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "--":
        print("usage: cell_cost.py -- TRACELAB_ARGS...", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "tracelab", quiet=2)
    with tempfile.TemporaryDirectory() as tmp:
        cost = measure(argv[1:], Path(tmp))
    for name, value in cost.items():
        print(name, value)
    return int(cost["exit"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
