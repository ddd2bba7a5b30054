"""One benchmark repeat in a fresh process.

    python3 child.py ROOT WORKDIR MODE TRACE -- <tracelab CLI arguments>

MODE is ``run`` (time ``cli.run``) or ``setup`` (stop once the config is
built).  The parent sets the BLAS thread variables before this process
starts.  The result goes to WORKDIR/result.json; ``ready`` is a
CLOCK_MONOTONIC reading, comparable with the parent's spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    root, workdir, mode, trace = Path(argv[0]), Path(argv[1]), argv[2], argv[3] == "1"
    cli_args = argv[argv.index("--") + 1 :]
    sys.path.insert(0, str(root / "src"))

    import tracelab
    from tracelab import cli

    src = (root / "src").resolve()
    if src not in Path(tracelab.__file__).resolve().parents:
        print(f"tracelab imported from {tracelab.__file__}, not {src}", file=sys.stderr)
        return 2
    config = cli.build_config(cli.make_parser().parse_args(cli_args))
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if mode == "run":
        tracer = None
        if trace:
            from tracer import Tracer  # this script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
            result["unpatched"] = tracer.unpatched_sites()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            result["exit_code"] = cli.run(config)
        except Exception:  # any failure is reported as failed cells, never lost
            result["error"] = traceback.format_exc()
        t1 = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result["run_s"] = t1 - t0
        result["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        result["peak_rss_mb"] = usage1.ru_maxrss / 1024.0  # Linux reports KiB
        if tracer is not None:
            tracer.uninstall()
            cells = 0
            report = Path(config.out_dir) / "report.json"
            if report.exists():
                cells = len(json.loads(report.read_text())["results"])
            result["layers"] = tracer.layer_metrics(cells)
            result["nesting_violations"] = len(tracer.nesting_violations())
            tracer.write_spans(workdir / "spans.json")
        result["env"] = _environment()

    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
