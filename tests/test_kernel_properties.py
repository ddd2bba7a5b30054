"""Property tests: the Jacobi kernels against the numpy oracle on structured inputs.

Hypothesis draws the structure (size, spectrum kind, seed); numpy builds the
matrix from it.  Tolerances are those of test_kernels.py.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from tracelab import kernels

KINDS = ("gaussian", "repeated", "clustered", "graded", "zero")
sizes = st.integers(1, 64)
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(KINDS)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spectrum(rng, kind, k):
    """k eigen/singular values of the given kind (nonnegative for 'graded')."""
    if kind == "repeated":
        return rng.choice([0.5, 2.0, 7.0], size=k)
    if kind == "clustered":
        # two tight clusters, 1e-9 and 1e-12 wide
        return np.where(np.arange(k) % 2, 1.0 + 1e-9 * rng.random(k), 40.0 + 1e-12 * rng.random(k))
    if kind == "graded":
        return np.logspace(0, -12, k)
    return rng.standard_normal(k) * rng.uniform(0.1, 50.0)


def symmetric(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "graded":
        # graded entries: D S D with D spanning eight decades
        m = rng.standard_normal((n, n))
        d = np.logspace(0, -8, n)
        return d[:, None] * (m + m.T) * d
    q = _orthogonal(rng, n)
    a = (q * _spectrum(rng, kind, n)) @ q.T
    return (a + a.T) / 2.0


def general(kind, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((rows, cols))
    k = min(rows, cols)
    u = _orthogonal(rng, rows)[:, :k]
    v = _orthogonal(rng, cols)[:, :k]
    sigma = np.abs(_spectrum(rng, kind, k))
    if kind == "gaussian" and k > 1:
        sigma[rng.integers(1, k + 1):] = 0.0  # random rank
    return (u * sigma) @ v.T


def check_eigh(a, vals, vecs):
    n = a.shape[0]
    ref = np.linalg.eigvalsh(a)
    scale = max(np.abs(ref).max(initial=0.0), 1.0)
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vals - ref).max() <= 1e-12 * scale
    assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-12 * scale
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12


def check_svd(m, u, s, vt):
    rows, cols = m.shape
    k = min(rows, cols)
    assert u.shape == (rows, k) and s.shape == (k,) and vt.shape == (k, cols)
    ref = np.linalg.svd(m, compute_uv=False)
    scale = max(ref.max(), 1.0)
    assert np.all(np.diff(s) <= 0)
    assert np.abs(s - ref).max() <= 1e-12 * scale
    assert np.abs(u @ np.diag(s) @ vt - m).max() <= 1e-12 * scale
    for f in (u, vt.T):
        # orthonormal columns, except zero vectors for zero singular values
        zero = np.linalg.norm(f, axis=0) == 0.0
        assert np.all(s[zero] == 0.0)
        live = f[:, ~zero]
        assert np.abs(live.T @ live - np.eye(live.shape[1])).max(initial=0.0) <= 1e-12
    if rows >= cols:
        assert np.all(u[:, s == 0.0] == 0.0)


@given(kind=kinds, n=sizes, seed=seeds)
@example(kind="gaussian", n=63, seed=0)
@example(kind="gaussian", n=64, seed=0)
@example(kind="repeated", n=33, seed=1)
@example(kind="clustered", n=64, seed=2)
@example(kind="graded", n=31, seed=3)
@example(kind="zero", n=5, seed=0)
@example(kind="gaussian", n=1, seed=4)
def test_eigh_matches_oracle(kind, n, seed):
    a = symmetric(kind, n, seed)
    check_eigh(a, *kernels.jacobi_eigh(a))


@given(kind=kinds, rows=sizes, cols=sizes, seed=seeds)
@example(kind="gaussian", rows=289, cols=64, seed=0)
@example(kind="graded", rows=289, cols=64, seed=1)
@example(kind="repeated", rows=64, cols=289, seed=2)
@example(kind="clustered", rows=63, cols=63, seed=3)
@example(kind="gaussian", rows=1, cols=40, seed=4)
@example(kind="gaussian", rows=40, cols=1, seed=5)
@example(kind="zero", rows=1, cols=7, seed=0)
@example(kind="zero", rows=9, cols=4, seed=0)
def test_svd_matches_oracle(kind, rows, cols, seed):
    m = general(kind, rows, cols, seed)
    check_svd(m, *kernels.jacobi_svd(m))


@given(rows=st.integers(2, 300), cols=st.integers(1, 64), seed=seeds)
def test_svd_tall_qr_route(rows, cols, seed):
    rng = np.random.default_rng(seed)
    rows = max(rows, cols + 1)
    m = rng.standard_normal((rows, cols)) * np.logspace(0, -6, cols)
    check_svd(m, *kernels.jacobi_svd(m))
