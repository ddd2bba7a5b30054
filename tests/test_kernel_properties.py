"""Property tests: the Jacobi kernels, extreme_eigh and spd_sqrt against the numpy oracle on structured inputs.

Hypothesis draws the structure (size, spectrum kind, seed); numpy builds the
matrix from it.  Tolerances are those of test_kernels.py.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracelab import kernels
from tracelab.errors import DimensionMismatch, NoConvergence, NonFiniteInput, NotPositiveDefinite, NotSymmetric

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


def _exact_shift(a, k):
    """k clamped so that 2^k a keeps every bit of a: no nonzero entry turns subnormal or overflows."""
    nonzero = np.abs(a[a != 0.0])
    if nonzero.size == 0:
        return k
    lo, hi = np.frexp(nonzero.min())[1], np.frexp(nonzero.max())[1]
    return int(np.clip(k, -1021 - lo, 1024 - hi))


shifts = st.integers(-1000, 1000)


@given(kind=kinds, n=sizes, seed=seeds, k=shifts)
@example(kind="gaussian", n=64, seed=0, k=-1000)
@example(kind="gaussian", n=65, seed=0, k=1000)
@example(kind="graded", n=33, seed=1, k=-1000)
@example(kind="repeated", n=2, seed=2, k=1000)
def test_eigh_scales_exactly(kind, n, seed, k):
    a = symmetric(kind, n, seed)
    k = _exact_shift(a, k)
    big = np.ldexp(a, k)
    assert np.array_equal(np.ldexp(big, -k), a)
    vals, vecs = kernels.jacobi_eigh(a)
    big_vals, big_vecs = kernels.jacobi_eigh(big)
    assert np.array_equal(big_vals, np.ldexp(vals, k))
    assert np.array_equal(big_vecs, vecs)


@given(kind=kinds, n=st.integers(2, 64), seed=seeds, k=shifts, skew=st.floats(1e-11, 1.0))
@example(kind="zero", n=2, seed=0, k=-1000, skew=1e-11)
@example(kind="gaussian", n=64, seed=0, k=1000, skew=1e-11)
def test_eigh_rejects_scaled_asymmetry(kind, n, seed, k, skew):
    # one entry off its mirror by skew * max|a|: rejected at every power-of-two scale
    a = symmetric(kind, n, seed)
    i, j = np.random.default_rng(seed).choice(n, 2, replace=False)
    a[i, j] += skew * max(float(np.abs(a).max()), 1.0)
    k = _exact_shift(a, k)
    big = np.ldexp(a, k)
    assert np.array_equal(np.ldexp(big, -k), a)
    for m in (a, big):
        with pytest.raises(NotSymmetric):
            kernels.jacobi_eigh(m)


@given(kind=kinds, rows=sizes, cols=sizes, seed=seeds, k=shifts)
@example(kind="gaussian", rows=64, cols=64, seed=0, k=-1000)
@example(kind="gaussian", rows=63, cols=63, seed=0, k=1000)
@example(kind="graded", rows=289, cols=64, seed=1, k=-1000)
@example(kind="gaussian", rows=81, cols=33, seed=2, k=1000)
@example(kind="repeated", rows=32, cols=81, seed=3, k=-517)
def test_svd_scales_exactly(kind, rows, cols, seed, k):
    # the rotated square is min(rows, cols) wide, so the draws cover odd and even stacked widths
    m = general(kind, rows, cols, seed)
    k = _exact_shift(m, k)
    big = np.ldexp(m, k)
    assert np.array_equal(np.ldexp(big, -k), m)
    u, s, vt = kernels.jacobi_svd(m)
    big_u, big_s, big_vt = kernels.jacobi_svd(big)
    assert np.array_equal(big_s, np.ldexp(s, k))
    assert np.array_equal(big_u, u) and np.array_equal(big_vt, vt)


MAGNITUDES = [1e-305, 1e-160, 1e160, 1e300]


@pytest.mark.parametrize("scale", MAGNITUDES)
def test_eigh_far_from_one_matches_lapack(scale):
    # unscaled, 1e-305 fell under the rotation skip and 1e160 overflowed the stopping norm
    a = np.array([[1.0, 1.0], [1.0, 0.0]]) * scale
    vals, vecs = kernels.jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(vecs.T @ vecs - np.eye(2)).max() <= 1e-13


@pytest.mark.parametrize("scale", MAGNITUDES)
@pytest.mark.parametrize("m", [[[1.0, 1.0], [1.0, -1.0]], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
def test_svd_far_from_one_matches_lapack(scale, m):
    # unscaled, the squared column norms underflowed (wrong or zero values) or overflowed (NoConvergence)
    m = np.array(m) * scale
    u, s, vt = kernels.jacobi_svd(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.abs(s - ref).max() <= 1e-13 * ref.max()
    assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-13 and np.abs(vt @ vt.T - np.eye(2)).max() <= 1e-13


@given(kind=kinds, n=st.integers(1, 24), seed=seeds, scale=st.sampled_from(MAGNITUDES))
def test_eigh_far_from_one_drawn(kind, n, seed, scale):
    a = symmetric(kind, n, seed) * scale
    vals, _ = kernels.jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max(initial=0.0)


@given(kind=kinds, rows=st.integers(1, 24), cols=st.integers(1, 24), seed=seeds, scale=st.sampled_from(MAGNITUDES))
def test_svd_far_from_one_drawn(kind, rows, cols, seed, scale):
    m = general(kind, rows, cols, seed) * scale
    _, s, _ = kernels.jacobi_svd(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.abs(s - ref).max() <= 1e-13 * ref.max()


def check_extremes(a, vals, vecs):
    """extreme_eigh's pairs against the numpy oracle at check_eigh's tolerances, and its certificate."""
    n = a.shape[0]
    ref = np.linalg.eigvalsh(a)
    scale = max(np.abs(ref).max(initial=0.0), 1.0)
    assert vals.shape == (2,) and vecs.shape == (n, 2)
    assert np.abs(vals - ref[[0, -1]]).max() <= 1e-12 * scale
    assert np.abs(np.linalg.norm(vecs, axis=0) - 1.0).max() <= 1e-12
    assert np.abs(a @ vecs - vecs * vals).max() <= 1e-12 * scale
    # both ends enclose the spectrum: the shifted matrices factor
    np.linalg.cholesky(a - vals[0] * np.eye(n))
    np.linalg.cholesky(vals[1] * np.eye(n) - a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(kind=kinds, n=sizes, seed=seeds)
@example(kind="gaussian", n=64, seed=0)
@example(kind="repeated", n=33, seed=1)
@example(kind="repeated", n=2, seed=5)
@example(kind="clustered", n=64, seed=2)
@example(kind="graded", n=31, seed=3)
@example(kind="zero", n=5, seed=0)
@example(kind="gaussian", n=1, seed=4)
@example(kind="gaussian", n=2, seed=6)
@example(kind="clustered", n=2, seed=7)
@example(kind="graded", n=2, seed=8)
@example(kind="zero", n=1, seed=0)
def test_extreme_eigh_matches_oracle(kind, n, seed):
    a = symmetric(kind, n, seed)
    check_extremes(a, *kernels.extreme_eigh(a))


@given(kind=st.sampled_from(KINDS[:-1]), n=sizes, seed=seeds, k=st.integers(-500, 500))
@example(kind="gaussian", n=64, seed=0, k=-500)
@example(kind="graded", n=33, seed=1, k=500)
@example(kind="graded", n=5, seed=0, k=-485)
def test_extreme_eigh_scales_exactly(kind, n, seed, k):
    # an even power of two scales every step of a Cholesky factorization exactly;
    # a zero matrix has no scale, its bracket closes around 0 at EXTREME_TOL * n
    a = symmetric(kind, n, seed)
    k = 2 * int(_exact_shift(a, 2 * k) / 2)  # even, toward 0, so k stays in the exact range
    big = np.ldexp(a, k)
    assert np.array_equal(np.ldexp(big, -k), a)
    vals, vecs = kernels.extreme_eigh(a)
    big_vals, big_vecs = kernels.extreme_eigh(big)
    assert np.array_equal(big_vals, np.ldexp(vals, k))
    assert np.array_equal(big_vecs, vecs)


@pytest.mark.parametrize("scale", MAGNITUDES)
def test_extreme_far_from_one_matches_lapack(scale):
    a = np.array([[1.0, 1.0], [1.0, 0.0]]) * scale
    vals, vecs = kernels.extreme_eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(vecs.T @ vecs - np.eye(2)).max() <= 1e-13


@given(kind=kinds, n=st.integers(1, 24), seed=seeds, scale=st.sampled_from(MAGNITUDES))
def test_extreme_far_from_one_drawn(kind, n, seed, scale):
    a = symmetric(kind, n, seed) * scale
    vals, _ = kernels.extreme_eigh(a)
    ref = np.linalg.eigvalsh(a)[[0, -1]]
    if kind == "zero":
        # the bracket of a zero matrix closes around 0 at EXTREME_TOL * n
        assert np.abs(vals).max() <= kernels.EXTREME_TOL * n
    else:
        assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
def test_extreme_eigh_rejects_shapes(shape):
    with pytest.raises(DimensionMismatch):
        kernels.extreme_eigh(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extreme_eigh_rejects_non_finite(bad):
    a = np.eye(3)
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(NonFiniteInput):
        kernels.extreme_eigh(a)


@given(kind=kinds, n=st.integers(2, 64), seed=seeds, skew=st.floats(1e-11, 1.0))
def test_extreme_eigh_rejects_asymmetry(kind, n, seed, skew):
    a = symmetric(kind, n, seed)
    i, j = np.random.default_rng(seed).choice(n, 2, replace=False)
    a[i, j] += skew * max(float(np.abs(a).max()), 1.0)
    with pytest.raises(NotSymmetric):
        kernels.extreme_eigh(a)


def test_extreme_eigh_raises_when_steps_run_out(monkeypatch):
    # a guess for the 1e-9 wide cluster mixes its vectors, so the first shift
    # misses; a well-separated end would close with one shift
    a = symmetric("clustered", 8, 0)
    monkeypatch.setattr(kernels, "EXTREME_STEPS", 1)
    with pytest.raises(NoConvergence) as info:
        kernels.extreme_eigh(a)
    assert info.value.kernel == "extreme_eigh"
    assert info.value.sweeps == 1
    assert info.value.off_norm > 0.0
    monkeypatch.undo()
    kernels.extreme_eigh(a)  # the cap, not the input, was short


def bisection_shifts(a):
    """The Cholesky shifts of both ends of extreme_eigh without a guess.

    Each end bisects from its Gershgorin bound, less the width, and its
    smallest diagonal entry, stepping down first while the lower end fails.
    """
    n = a.shape[0]
    e = kernels._exponent(a)
    scaled = np.ldexp(a, -(e + e % 2))
    width = kernels.EXTREME_TOL * n
    total = 0
    for m in (scaled, -scaled):
        diag = np.diag(m)
        lo = float(np.min(diag - (np.abs(m).sum(axis=1) - np.abs(diag)))) - width
        hi, drop, factored = float(diag.min()), width, False
        while not factored or hi - lo > width:
            total += 1
            sigma = 0.5 * (lo + hi) if factored else lo
            try:
                np.linalg.cholesky(m - sigma * np.eye(n))
                lo, factored = sigma, True
            except np.linalg.LinAlgError:
                if factored:
                    hi = sigma
                else:
                    lo, hi, drop = lo - drop, lo, 2.0 * drop
    return total


def extremes_with_shifts(a):
    """extreme_eigh(a), and whether each of its Cholesky shifts factored, in order."""
    tried = []
    shift = kernels._shift_factor

    def counted(m, sigma):
        factor = shift(m, sigma)
        tried.append(factor is not None)
        return factor

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_shift_factor", counted)
        return kernels.extreme_eigh(a), tried


def _with_spectrum(values, seed):
    q = _orthogonal(np.random.default_rng(seed), len(values))
    a = (q * np.asarray(values, dtype=float)) @ q.T
    return (a + a.T) / 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [0.0, 1.0, -3.5, 1e-300, 7e300])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_extreme_eigh_multiple_of_identity(c, n):
    # a guess divides by the trace of upper I - a, which is 0 for a = c I: both
    # Gershgorin brackets are within width, so neither end takes a guess
    a = c * np.eye(n)
    (vals, vecs), tried = extremes_with_shifts(a)
    check_extremes(a, vals, vecs)
    assert tried == [True, True]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(n=st.integers(2, 40), seed=seeds, low=st.integers(1, 39), high=st.integers(1, 39), scale=st.floats(0.1, 50.0))
@example(n=2, seed=0, low=1, high=1, scale=1.0)
@example(n=12, seed=1, low=5, high=7, scale=3.0)
@example(n=33, seed=2, low=1, high=32, scale=0.5)
def test_extreme_eigh_exact_multiplicities_take_the_guess(n, seed, low, high, scale):
    # an m-fold end stops the squaring on its eigenprojector, a guess in the eigenspace
    low = min(low, n - 1)
    high = min(high, n - low)
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.full(low, -1.5), rng.uniform(-1.0, 2.0, n - low - high), np.full(high, 3.0)])
    a = _with_spectrum(values * scale, seed)
    (vals, vecs), tried = extremes_with_shifts(a)
    check_extremes(a, vals, vecs)
    assert len(tried) <= 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(n=st.integers(1, 64), seed=seeds)
@example(n=1, seed=0)
@example(n=2, seed=1)
@example(n=8, seed=0)
@example(n=64, seed=2)
def test_extreme_eigh_clusters_take_no_more_shifts_than_bisection(n, seed):
    # two clusters, 1e-9 and 1e-12 wide: narrower than the squaring resolves
    a = symmetric("clustered", n, seed)
    (vals, vecs), tried = extremes_with_shifts(a)
    check_extremes(a, vals, vecs)
    assert len(tried) <= bisection_shifts(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,seed", [(8, 0), (16, 3), (64, 2)])
def test_extreme_eigh_guess_misses_unresolved_cluster(n, seed):
    # the guess mixes the cluster's vectors, the first shift fails, and the
    # step down and the bisection still close both brackets
    a = symmetric("clustered", n, seed)
    (vals, vecs), tried = extremes_with_shifts(a)
    check_extremes(a, vals, vecs)
    assert not tried[0]
    assert len(tried) <= bisection_shifts(a)


def spd(kind, n, seed):
    """symmetric(kind, n, seed) made positive definite with condition at most about 1e12: a^2 + (|a|^2 / 1e12) I."""
    a = symmetric(kind, n, seed)
    b = a @ a
    top = float(np.linalg.eigvalsh(0.5 * (b + b.T))[-1])
    return 0.5 * (b + b.T) + (top * 1e-12 if top > 0.0 else 1.0) * np.eye(n)


def check_sqrt(a, root, inv_root):
    """spd_sqrt's pair against the numpy oracle a^(+-1/2) = V diag(w^(+-1/2)) V'.

    A perturbation of eps |a| moves a^(1/2) by up to about eps cond^(1/2) and
    a^(-1/2) by eps cond, relative to their norms, in the oracle as in the
    kernel, so those are the bounds; the residuals of the pair are tighter.
    """
    n = a.shape[0]
    w, v = np.linalg.eigh(a)
    cond = w[-1] / w[0]
    ref_root, ref_inv = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    assert np.array_equal(root, root.T) and np.array_equal(inv_root, inv_root.T)
    assert np.abs(root - ref_root).max() <= 1e-13 * np.sqrt(cond) * n * np.abs(ref_root).max()
    assert np.abs(inv_root - ref_inv).max() <= 1e-13 * cond * n * np.abs(ref_inv).max()
    assert np.abs(root @ root - a).max() <= 1e-13 * np.abs(a).max()
    assert np.abs(root @ inv_root - np.eye(n)).max() <= 1e-13 * np.sqrt(cond) * n
    # the positive root, not another one
    assert np.linalg.eigvalsh(root).min() > 0.0


@given(kind=kinds, n=sizes, seed=seeds)
@example(kind="gaussian", n=1, seed=0)
@example(kind="gaussian", n=2, seed=1)
@example(kind="repeated", n=2, seed=5)
@example(kind="clustered", n=33, seed=2)
@example(kind="graded", n=31, seed=3)
@example(kind="graded", n=64, seed=3)
@example(kind="gaussian", n=65, seed=0)
@example(kind="repeated", n=129, seed=4)
@example(kind="gaussian", n=256, seed=6)
@example(kind="zero", n=5, seed=0)
def test_spd_sqrt_matches_oracle(kind, n, seed):
    a = spd(kind, n, seed)
    check_sqrt(a, *kernels.spd_sqrt(a))


@given(kind=kinds, n=sizes, seed=seeds, k=st.integers(-500, 500))
@example(kind="gaussian", n=64, seed=0, k=-500)
@example(kind="graded", n=33, seed=1, k=500)
@example(kind="zero", n=3, seed=0, k=-500)
def test_spd_sqrt_scales_exactly(kind, n, seed, k):
    # 4^k a has the roots 2^k a^(1/2) and 2^-k a^(-1/2), bit for bit
    a = spd(kind, n, seed)
    k = int(_exact_shift(a, 2 * k) / 2)  # toward 0, so 2k stays in the exact range
    big = np.ldexp(a, 2 * k)
    assert np.array_equal(np.ldexp(big, -2 * k), a)
    root, inv_root = kernels.spd_sqrt(a)
    big_root, big_inv = kernels.spd_sqrt(big)
    assert np.array_equal(big_root, np.ldexp(root, k))
    assert np.array_equal(big_inv, np.ldexp(inv_root, -k))


@pytest.mark.parametrize("scale", MAGNITUDES)
def test_spd_sqrt_far_from_one_matches_lapack(scale):
    a = np.array([[2.0, 1.0], [1.0, 2.0]]) * scale
    check_sqrt(a, *kernels.spd_sqrt(a))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
def test_spd_sqrt_rejects_shapes(shape):
    with pytest.raises(DimensionMismatch):
        kernels.spd_sqrt(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_sqrt_rejects_non_finite(bad):
    a = np.eye(3)
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(NonFiniteInput):
        kernels.spd_sqrt(a)


@given(kind=kinds, n=st.integers(2, 64), seed=seeds, skew=st.floats(1e-11, 1.0))
def test_spd_sqrt_rejects_asymmetry(kind, n, seed, skew):
    a = spd(kind, n, seed)
    i, j = np.random.default_rng(seed).choice(n, 2, replace=False)
    a[i, j] += skew * float(np.abs(a).max())
    with pytest.raises(NotSymmetric):
        kernels.spd_sqrt(a)


@pytest.mark.parametrize(
    "a", [np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1e-3, 2.0]), -np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]
)
def test_spd_sqrt_rejects_what_is_not_positive_definite(a):
    with pytest.raises(NotPositiveDefinite):
        kernels.spd_sqrt(a)


def test_spd_sqrt_raises_when_steps_run_out(monkeypatch):
    a = spd("gaussian", 8, 0)
    monkeypatch.setattr(kernels, "POLAR_STEPS", 1)
    with pytest.raises(NoConvergence) as info:
        kernels.spd_sqrt(a)
    assert info.value.kernel == "spd_sqrt"
    assert info.value.sweeps == 1
    assert info.value.off_norm > kernels.POLAR_TOL
    monkeypatch.undo()
    kernels.spd_sqrt(a)  # the cap, not the input, was short
