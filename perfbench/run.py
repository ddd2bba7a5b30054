"""Benchmark of whole tracelab CLI runs, each repeat in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py        # checks the tracer itself

NAME is scale-refine or solve-fine; BENCHMARK.json says why each was chosen
and fixes the run length and the regression bounds.

Each repeat spawns ``child.py``, which imports tracelab from ``src/``, builds
the config through the public CLI parser and times ``cli.run`` with BLAS
pinned to one thread and a fixed hash seed.  The per-assembly caches and the
RSS therefore start cold on every repeat, as they do for a user.  Repeats run
one after another until the next one would end past ``--seconds`` (at least
two untraced ones).

``--trace 0`` prints the end-to-end metrics, each the median over the
untraced repeats: ``setup_s`` (spawn until tracelab is imported and the
config is built; set-up-only children, run first so they also warm the page
cache, bring it to at least ``SETUP_SAMPLES`` samples), ``run_s`` (wall time
of ``cli.run``, reports written), ``cpu_s`` (user+sys of the child over
``run_s``, so spinning BLAS threads show) and ``peak_rss_mb``.  ``--trace 1``
adds one traced repeat after the first untraced one and prints the per-layer
metrics of ``tracer.py`` plus the tracing overhead against the untraced
repeats of the same invocation.  Traced repeats never enter an end-to-end number.

Every repeat is checked: exit code 0, verdict ``pass``, every cell passed,
the expected cell count, and one report.json/report.csv sha256 for all
repeats of the invocation.  A breach counts the repeat's cells as failed and
the command exits 1.  Results, with the environment, are also written to
``perfbench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPEATS = 2
SETUP_SAMPLES = 7
REPORTS = ("report.json", "report.csv")
TIME_LIMIT_S = 165.0  # the whole invocation must end well inside 180 s
# On a 2-core shared host a second OpenBLAS thread bought no wall time but
# doubled cpu_s (spinning) and tied run_s to whatever else ran on the other core.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    cells: int  # report rows cli.run must write, stability rows included


# why each workload was chosen is recorded with it in BENCHMARK.json
WORKLOADS = {
    "scale-refine": Workload(
        ("--suite", "pde,hhalf,h1,necas,interp,dual", "--mesh", "square", "--n", "8,16", "--trials", "20"), 15
    ),
    "solve-fine": Workload(("--suite", "necas", "--mesh", "square,lshape", "--n", "16,32", "--trials", "200"), 6),
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workdir: Path, reports: Path, mode: str, trace: bool, cli_args: list[str], timeout: float) -> dict:
    """Run one child; returns its result.json plus spawn time, wall time and any failure."""
    workdir.mkdir(parents=True)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(workdir), mode, str(int(trace)), "--", *cli_args,
           "--out", str(reports)]
    rep: dict = {"mode": mode, "trace": trace, "workdir": str(workdir)}
    t0 = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        rep.update(wall_s=monotonic() - t0, fault=f"child timed out after {timeout:.0f} s")
        return rep
    rep["wall_s"] = monotonic() - t0
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        rep["fault"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return rep
    rep.update(json.loads(result_path.read_text()))
    rep["setup_s"] = rep["ready"] - t0
    if mode == "run":
        # every repeat writes to one --out directory, since the path is part of report.json
        for name in REPORTS:
            if (reports / name).exists():
                (reports / name).rename(workdir / name)
    return rep


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_repeat(rep: dict, wl: Workload, reference: dict) -> list[str]:
    """Breaches of the output contract.

    Sets ``rep["cells_failed"]``: the cells whose verdict failed, or every
    cell of the repeat when the run itself broke.
    """
    rep["cells_failed"] = wl.cells
    if "fault" in rep:
        return [rep["fault"]]
    if "error" in rep:
        return ["cli.run raised:\n" + rep["error"]]
    workdir = Path(rep["workdir"])
    if not all((workdir / name).exists() for name in REPORTS):
        return [f"exit code {rep['exit_code']} without both report files"]
    report = json.loads((workdir / "report.json").read_text())
    failed = [f"{r['suite']}:{r['mesh']}:{r['n']}" for r in report["results"] if not r["passed"]]
    broken = []
    if len(report["results"]) != wl.cells:
        broken.append(f"{len(report['results'])} cells, expected {wl.cells}")
    for name in REPORTS:
        digest = sha256(workdir / name)
        if reference.setdefault(name, digest) != digest:
            broken.append(f"{name} sha256 differs from the first repeat")
    if (rep["exit_code"] != 0 or report["verdict"] != "pass") != bool(failed):
        broken.append(f"exit code {rep['exit_code']} and verdict {report['verdict']!r} disagree with the cells")
    if rep["trace"] and (rep["unpatched"] or rep["nesting_violations"]):
        broken.append(f"tracer fault: unpatched {rep['unpatched']}, {rep['nesting_violations']} nested kernel spans")
    if broken:
        return broken
    rep["cells_failed"] = len(failed)
    return [f"cell {cell} failed its gates" for cell in failed]


def environment(first: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tracelab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        **first.get("env", {}),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    cli_args = [*wl.args, "--seed", str(seed)]
    tag = f"{name}-s{seed}-t{int(trace)}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    compileall.compile_dir(ROOT / "src" / "tracelab", quiet=2)

    start = monotonic()
    repeats: list[dict] = []

    def one(mode: str, traced: bool) -> dict:
        timeout = max(5.0, TIME_LIMIT_S - (monotonic() - start))
        rep = spawn(work / f"rep{len(repeats)}", work / "reports", mode, traced, cli_args, timeout)
        repeats.append(rep)
        return rep

    while not trace and len(repeats) < SETUP_SAMPLES - MIN_REPEATS:
        if "fault" in one("setup", False):
            break
    while True:
        rep = one("run", False)
        if trace and len(repeats) == 1:
            # traced second, between untraced repeats, so a slow first repeat does not read as overhead
            one("run", True)
        elapsed = monotonic() - start
        untraced = sum(1 for r in repeats if r["mode"] == "run" and not r["trace"])
        if "fault" in rep or elapsed + rep["wall_s"] > (seconds if untraced >= MIN_REPEATS else TIME_LIMIT_S):
            break

    reference: dict = {}
    problems = []
    runs = [r for r in repeats if r["mode"] == "run"]
    for rep in runs:
        problems += [f"repeat {rep['workdir']}: {p}" for p in check_repeat(rep, wl, reference)]
    problems += [f"set-up child {r['workdir']}: {r['fault']}" for r in repeats if r["mode"] == "setup" and "fault" in r]
    cells_run = wl.cells * len(runs)
    cells_failed = sum(r["cells_failed"] for r in runs)

    ok_untraced = [r for r in runs if not r["trace"] and "run_s" in r]
    metrics: dict[str, dict] = {}
    if ok_untraced:
        untraced_run_s = statistics.median(r["run_s"] for r in ok_untraced)
        if trace:
            traced = next((r for r in runs if r["trace"]), {})
            if "layers" in traced:
                metrics.update(traced["layers"])
                metrics["bench.traced_run_s"] = {"value": traced["run_s"], "unit": "s"}
                metrics["bench.untraced_run_s"] = {"value": untraced_run_s, "unit": "s"}
                metrics["bench.trace_overhead_s"] = {"value": traced["run_s"] - untraced_run_s, "unit": "s"}
        else:
            setups = [r["setup_s"] for r in repeats if "setup_s" in r]
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            metrics["run_s"] = {"value": untraced_run_s, "unit": "s"}
            metrics["cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in ok_untraced), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in ok_untraced), "unit": "MB"}

    correct = not problems
    want = declared(trace)
    if correct and {k: v["unit"] for k, v in metrics.items()} != want:
        missing = sorted(set(want) ^ set(metrics))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")

    env = environment(next((r for r in runs if "env" in r), {}))
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "cli_args": cli_args,
        "env": env,
        "correct": correct,
        "problems": problems,
        "cells_run": cells_run,
        "cells_failed": cells_failed,
        "samples": {
            "run": len(ok_untraced),
            "setup": sum("setup_s" in r for r in repeats),
        },
        "metrics": metrics,
        "repeats": [{k: v for k, v in r.items() if k not in ("layers", "env")} for r in repeats],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(ok_untraced)} untraced repeats, "
          f"{record['samples']['setup']} set-up samples")
    print("env " + json.dumps(env, sort_keys=True))
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  cells_failed = {cells_failed} / cells_run = {cells_run}")
    print(json.dumps({"correct": correct, "attempted": cells_run, "failed": cells_failed, "metrics": metrics}))
    return 0 if correct and cells_failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tracelab" / "__init__.py").is_file():
        print(f"no tracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
