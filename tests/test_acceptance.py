"""Top-level acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in failure
output); the -v test id itself names the criterion.  Criteria 3 and 4
share one timed run of the solver-characterization suite over the full
mesh matrix, so the clock covers exactly the mandated workload.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from tracelab import cli, fem2d, oplab, tracescale

from conftest import asm

MESH_MATRIX = [
    ("interval", 1),
    ("interval", 8),
    ("square", 4),
    ("square", 8),
    ("square", 16),
    ("lshape", 4),
    ("lshape", 8),
    ("lshape", 16),
]
REFINED = [("square", (4, 8, 16)), ("lshape", (4, 8, 16))]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pde_cells():
    start = time.perf_counter()
    reports = {
        (kind, n): tracescale.suite_pde(
            asm(kind, n), trials=20, identity_samples=200, seed=11
        )
        for kind, n in MESH_MATRIX
    }
    return reports, time.perf_counter() - start


def test_criterion_1_operator_identity_suite():
    start = time.perf_counter()
    rep = oplab.identity_suite(trials=100, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(rep.residuals.values())
    ok = rep.passed and elapsed < 30.0
    _line(1, ok, f"100 operators, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_douglas_factorization():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_fact = worst_mu = worst_null = 0.0
    for i in range(50):
        m = int(rng.integers(2, 9))
        nb = int(rng.integers(1, 9))
        na = int(rng.integers(1, 9))
        dom_b = oplab.random_space(rng, nb)
        dom_a = oplab.random_space(rng, na)
        cod = oplab.random_space(rng, m)
        bmat = rng.standard_normal((m, nb))
        if i % 3 == 0 and min(m, nb) > 1:
            k = int(rng.integers(1, min(m, nb)))
            bmat = rng.standard_normal((m, k)) @ rng.standard_normal((k, nb))
        b = oplab.Operator(dom_b, cod, bmat)
        a = b @ oplab.Operator(dom_a, dom_b, rng.standard_normal((nb, na)))
        c, mu = oplab.douglas_factor(a, b)

        scale = max(np.abs(a.mat).max(), 1.0)
        worst_fact = max(worst_fact, np.abs((b @ c).mat - a.mat).max() / scale)

        mu_ref = _mu_oracle(a, b)
        if mu_ref > 1e-12:
            worst_mu = max(worst_mu, abs(mu - mu_ref) / mu_ref)
        else:
            worst_mu = max(worst_mu, abs(mu - mu_ref))

        worst_null = max(worst_null, _nullspace_mismatch(a.mat, c.mat))
    elapsed = time.perf_counter() - start
    ok = worst_fact <= 1e-10 and worst_mu <= 1e-8 and worst_null <= 1e-8 and elapsed < 30.0
    _line(
        2,
        ok,
        f"50 pairs, BC=A {worst_fact:.2e}, mu vs oracle {worst_mu:.2e}, "
        f"nullspace {worst_null:.2e}, {elapsed:.1f}s",
    )


def _mu_oracle(a, b):
    """Independent route: max generalized eigenvalue of the squared forms
    restricted to range(b), all in plain numpy/scipy."""
    g = a.codomain.gram
    astar = np.linalg.solve(a.domain.gram, a.mat.T @ g)
    bstar = np.linalg.solve(b.domain.gram, b.mat.T @ g)
    u, s, _ = np.linalg.svd(b.mat)
    rank = int(np.sum(s > s[0] * max(b.mat.shape) * np.finfo(float).eps)) if s.size else 0
    if rank == 0:
        return 0.0
    v = u[:, :rank]
    lhs = v.T @ g @ (a.mat @ astar) @ v
    rhs = v.T @ g @ (b.mat @ bstar) @ v
    lhs = 0.5 * (lhs + lhs.T)
    rhs = 0.5 * (rhs + rhs.T)
    return float(scipy.linalg.eigh(lhs, rhs, eigvals_only=True).max())


def _nullspace_mismatch(amat, cmat):
    ra = np.linalg.matrix_rank(amat)
    rc = np.linalg.matrix_rank(cmat)
    if ra != rc:
        return float("inf")
    out = 0.0
    for mat, other in ((amat, cmat), (cmat, amat)):
        _, _, vt = np.linalg.svd(mat)
        null = vt[np.linalg.matrix_rank(mat):]
        for v in null:
            out = max(out, float(np.abs(other @ v).max()) / max(np.abs(other).max(), 1.0))
    return out


def test_criterion_3_solver_two_path(pde_cells):
    reports, elapsed = pde_cells
    worst = 0.0
    for rep in reports.values():
        for name in ("harmonic_two_path", "robin_two_path", "poisson_two_path"):
            worst = max(worst, rep.residuals[name])
    hand = max(
        reports[("interval", n)].residuals[f]
        for n in (1, 8)
        for f in ("hand_robin_ones", "hand_robin_affine", "hand_s_matrix")
    )
    ok = worst <= 1e-8 and hand <= 1e-12 and elapsed < 120.0
    _line(3, ok, f"8 cells, two-path {worst:.2e}, hand values {hand:.2e}, {elapsed:.1f}s")


def test_criterion_4_green_robin_identities(pde_cells):
    reports, elapsed = pde_cells
    green = max(rep.residuals["green_formula"] for rep in reports.values())
    robin = max(rep.residuals["robin_boundary"] for rep in reports.values())
    ok = green <= 1e-10 and robin <= 1e-10 and elapsed < 60.0
    _line(4, ok, f"200 samples/mesh, green {green:.2e}, robin {robin:.2e}, {elapsed:.1f}s")


def test_criterion_5_hhalf_scale():
    worst_proof = worst_split = worst_drift = 0.0
    for kind, levels in REFINED:
        series = {"quotient_cmin": [], "quotient_cmax": []}
        for n in levels:
            rep = tracescale.suite_hhalf(asm(kind, n), seed=5)
            worst_proof = max(worst_proof, rep.residuals["proof_identity"])
            worst_split = max(worst_split, rep.residuals["energy_split"])
            for key in series:
                series[key].append(rep.constants[key])
        for values in series.values():
            for prev, nxt in zip(values, values[1:]):
                worst_drift = max(worst_drift, abs(nxt / prev - 1.0))
    ok = worst_proof <= 1e-9 and worst_split <= 1e-10 and worst_drift < 0.25
    _line(
        5,
        ok,
        f"proof {worst_proof:.2e}, split {worst_split:.2e}, drift {worst_drift:.3f}",
    )


def test_criterion_6_h1_scale():
    worst_res = worst_ts = worst_growth = 0.0
    finite = True
    for kind, levels in REFINED:
        series = {"h1_cmin": [], "h1_cmax": []}
        for n in levels:
            rep = tracescale.suite_h1(asm(kind, n))
            worst_res = max(worst_res, rep.residuals["resolvent_identity"])
            worst_ts = max(worst_ts, rep.residuals["ts_left"], rep.residuals["ts_right"])
            for key in series:
                value = rep.constants[key]
                finite = finite and np.isfinite(value)
                series[key].append(value)
        for values in series.values():
            for prev, nxt in zip(values, values[1:]):
                worst_growth = max(worst_growth, nxt / prev)
    ok = worst_res <= 1e-9 and worst_ts <= 1e-9 and finite and worst_growth < 3.0
    _line(
        6,
        ok,
        f"resolvent {worst_res:.2e}, bridges {worst_ts:.2e}, growth {worst_growth:.3f}",
    )


def test_criterion_7_necas_tables(tmp_path):
    out = tmp_path / "necas"
    code = cli.main(
        [
            "--suite", "necas", "--mesh", "square,lshape", "--n", "4,8,16",
            "--seed", "77", "--trials", "100", "--out", str(out),
        ]
    )
    payload = json.loads((out / "report.json").read_text())
    cells = [r for r in payload["results"] if r["suite"] == "necas"]
    stabs = [r for r in payload["results"] if r["suite"] == "necas-stability"]
    finite = all(
        np.isfinite(v) for r in cells for v in r["constants"].values()
    ) and all(r["residuals"]["sample_failures"] == 0.0 for r in cells)
    growth = max(v for r in stabs for v in r["residuals"].values())
    csv_rows = (out / "report.csv").read_text().strip().splitlines()
    tables_ok = len(cells) == 6 and len(csv_rows) > len(cells) * 5
    ok = code == 0 and finite and growth < 3.0 and len(stabs) == 2 and tables_ok
    _line(7, ok, f"6 cells, growth {growth:.3f}, {len(csv_rows) - 1} CSV rows")


def test_criterion_8_interpolation_and_duality():
    a = asm("square", 8)
    interp = tracescale.suite_interp(a, trials=100, seed=21)
    excess = interp.residuals["log_convexity_excess"]
    worst_dual = 0.0
    for i, s in enumerate((0.25, 0.5, 0.75, 1.0)):
        rep = tracescale.duality_check(a, s, seed=30 + i)
        worst_dual = max(worst_dual, rep.residuals["dual_gram"])
    ok = excess <= 1e-10 and worst_dual <= 1e-9
    _line(8, ok, f"log-convexity excess {excess:.2e}, dual gram {worst_dual:.2e}")


def test_criterion_9_deterministic_reports(tmp_path):
    out = tmp_path / "rep"
    argv = [
        "--suite", "oplab,pde,hhalf", "--mesh", "interval", "--n", "1,8",
        "--seed", "99", "--trials", "10", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    ok = first == second and set(first) == {"report.json", "report.csv"}
    _line(9, ok, f"rerun byte-identical across {sorted(first)}")
