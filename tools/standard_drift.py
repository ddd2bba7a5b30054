"""Run the standard report configs in two tracelab trees and print how far each moved.

    python3 tools/standard_drift.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout holding ``src/tracelab``.  For every config in
``CONFIGS`` the script runs ``python -m tracelab`` once in each tree, with
that tree's ``src`` on PYTHONPATH, BLAS on one thread and a fixed hash seed,
into a temporary directory; each tree's ``src/tracelab`` is byte-compiled
first, so neither side pays for compiling.  It then prints the config's
name and arguments and what ``tools/report_drift.py`` says of the two
reports: "identical", or the largest moves.  The trees run one after the
other, never in parallel.
It exits 0 when every pair is identical, 1 when a report moved, and 2 when a
run ends without writing its report.
"""

from __future__ import annotations

import compileall
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from report_drift import drift

# the two benchmark workloads, the oplab population, every suite on small
# interval/lshape levels, the mesh suites at a coarse and a finer level, the
# H1 suites and the fractional orders of interp and dual at nb = 256, pde
# alone where its trace pinv spans the most boundary columns, pde at the
# CLI's default of 100 trials, whose representers span several NECAS_BLOCK
# blocks of columns, the mesh suites at levels that are no powers of two,
# where element measures are not dyadic and a change in the rounding order
# of assembly shows, and 40
# interval levels, more assemblies than a count-bounded cache would hold
CONFIGS = {
    "scale-refine": ("--suite", "pde,hhalf,h1,necas,interp,dual", "--mesh", "square", "--n", "8,16",
                     "--trials", "20", "--seed", "501"),
    "solve-fine": ("--suite", "necas", "--mesh", "square,lshape", "--n", "16,32", "--trials", "200",
                   "--seed", "901"),
    "oplab": ("--suite", "oplab", "--trials", "100", "--seed", "42"),
    "all-suites": ("--suite", "oplab,pde,hhalf,h1,necas,interp,dual", "--mesh", "interval,lshape",
                   "--n", "2,4,8", "--trials", "10", "--seed", "7"),
    "two-levels": ("--suite", "pde,hhalf,h1,interp,dual", "--mesh", "square,lshape", "--n", "2,32",
                   "--trials", "20", "--seed", "3"),
    "h1-fine": ("--suite", "pde,hhalf,h1", "--mesh", "square", "--n", "64", "--trials", "5", "--seed", "11"),
    "interp-fine": ("--suite", "interp,dual", "--mesh", "square", "--n", "64", "--trials", "20", "--seed", "13"),
    "pde-fine": ("--suite", "pde", "--mesh", "square,lshape", "--n", "64,128", "--trials", "20", "--seed", "17"),
    "pde-trials": ("--suite", "pde", "--mesh", "square,lshape", "--n", "16,32", "--trials", "100", "--seed", "23"),
    "odd-levels": ("--suite", "pde,hhalf,h1,necas,interp,dual", "--mesh", "square,lshape", "--n", "6,10",
                   "--trials", "20", "--seed", "19"),
    "many-levels": ("--suite", "hhalf,h1,interp,dual", "--mesh", "interval",
                    "--n", ",".join(map(str, range(1, 41))), "--trials", "5"),
}


def run_tree(root: Path, args: tuple[str, ...], out: Path) -> Path:
    """Run the CLI of the tree at ``root`` with ``args``; returns its report.json."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "tracelab", *args, "--out", str(out)], cwd=out,
                          env=env, capture_output=True, text=True)
    report = out / "report.json"
    if proc.returncode not in (0, 1) or not report.exists():
        raise RuntimeError(f"{root} exited {proc.returncode} on {' '.join(args)}:\n{proc.stderr.strip()}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: standard_drift.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(p).resolve() for p in argv]
    for root in roots:
        compileall.compile_dir(root / "src" / "tracelab", quiet=2)
    moved = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CONFIGS.items():
            try:
                reports = [run_tree(root, args, Path(tmp) / name / side)
                           for side, root in zip(("parent", "change"), roots)]
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            lines = drift(*map(str, reports))
            moved = moved or bool(lines)
            print(f"== {name}: {' '.join(args)}")
            print("\n".join(lines) if lines else "identical", flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
