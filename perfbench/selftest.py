"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks that every binding site of a traced function is patched and restored,
that a kernel is counted once at its outermost call (``jacobi_svd`` recursing
on a wide input), that nested calls become child spans, and that two traced
runs of one small config give identical counts and identical reports.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import run
from tracer import KERNELS, Tracer

SMALL = run.Workload(
    ("--suite", "oplab,pde,hhalf,h1,necas,interp,dual", "--mesh", "square", "--n", "4,8", "--trials", "8",
     "--seed", "3"),
    17,
)


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def in_process() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from tracelab import kernels, oplab, tracescale

    original_svd = kernels.jacobi_svd
    tracer = Tracer()
    tracer.install()
    try:
        check(tracer.unpatched_sites() == [], "every binding site of a traced function is patched")
        check(tracescale.jacobi_svd is kernels.jacobi_svd is not original_svd,
              "tracescale's from-import of jacobi_svd is the traced wrapper")

        rng = np.random.default_rng(0)
        kernels.jacobi_svd(rng.standard_normal((3, 7)))
        svd_spans = [s for s in tracer.spans if s[0] == "kernels.jacobi_svd"]
        check(len(svd_spans) == 1, "a wide jacobi_svd, which recurses on its transpose, is one span")

        space = oplab.make_space(5, np.eye(5))
        m = rng.standard_normal((5, 5))
        oplab.frac_power(oplab.Operator(space, space, m @ m.T + np.eye(5)), 0.5)
        chain = []
        sid = next(i for i, s in enumerate(tracer.spans) if s[0] == "kernels.jacobi_eigh")
        while sid >= 0:
            chain.append(tracer.spans[sid][0])
            sid = tracer.spans[sid][3]
        check(chain == ["kernels.jacobi_eigh", "oplab.spectral", "oplab.frac_power"],
              f"nested calls are child spans: {' <- '.join(chain)}")
        check(tracer.nesting_violations() == [], "no kernel span sits under a span of the same kernel")
    finally:
        tracer.uninstall()
    check(kernels.jacobi_svd is original_svd and tracescale.jacobi_svd is original_svd,
          "uninstall restores every binding site")


def two_traced_runs() -> None:
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    reference: dict = {}
    counts = []
    for k in range(2):
        rep = run.spawn(work / f"rep{k}", work / "reports", "run", True, list(SMALL.args), run.TIME_LIMIT_S)
        problems = run.check_repeat(rep, SMALL, reference)
        check(problems == [], f"traced run {k} passes every output check {problems}")
        counts.append({name: m["value"] for name, m in rep["layers"].items() if m["unit"] in ("count", "ratio")})
    check(counts[0] == counts[1], f"two traced runs give identical counts ({len(counts[0])} counters)")
    check(all(counts[0][f"{k}.calls"] > 0 for k in KERNELS), "the small config exercises both kernels")


if __name__ == "__main__":
    in_process()
    two_traced_runs()
