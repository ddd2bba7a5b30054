"""Dense spectral kernels: round-robin Jacobi eigensolver and one-sided Jacobi SVD.

Self-contained rotations keep these independent of LAPACK's eigen/SVD drivers,
so library routines stay available as cross-checking oracles in the tests.
Both kernels order a sweep by the round-robin schedule of Brent & Luk (1985):
each step rotates up to n/2 disjoint (p, q) pairs at once with whole-array
numpy operations, and n-1 steps (n for odd n) visit every pair once.  The SVD
first reduces a tall input by a column-pivoted QR (Drmač & Veselić 2008) and
rotates only the square triangular factor.  A kernel that uses up
``max_sweeps`` raises NoConvergence rather than return an unconverged result.
The rank rule and the pseudo-inverse read an SVD the caller already holds.
Intended scale is desk-size dense matrices (a few hundred rows).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import qr, solve_triangular

from .errors import DimensionMismatch, NoConvergence, NotSymmetric

# Machine epsilon for float64; rank decisions key off this.
EPS = np.finfo(float).eps

# Off-diagonal entries at or below this are zeroed without a rotation.
_SKIP = 1e-300


def _offdiag_norm(a: np.ndarray) -> float:
    # measured entrywise: the sum-of-squares difference cancels catastrophically
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Round-robin sweep schedule (Brent & Luk): steps of disjoint index pairs.

    Every pair p < q of 0..n-1 occurs in exactly one step, given as
    ``(p, q, pq, qp)`` with ``pq = p ++ q`` and ``qp = q ++ p``.  Odd n gets a
    padding slot n; its pair in each step is the identity rotation and is
    left out.
    """
    slots = list(range(n + n % 2))
    half = len(slots) // 2
    steps = []
    for _ in range(len(slots) - 1):
        pairs = sorted(
            (min(a, b), max(a, b)) for a, b in zip(slots[:half], reversed(slots[half:])) if max(a, b) < n
        )
        if pairs:
            p, q = (np.array(col, dtype=np.intp) for col in zip(*pairs))
            step = (p, q, np.concatenate([p, q]), np.concatenate([q, p]))
            for idx in step:
                idx.setflags(write=False)
            steps.append(step)
        # slot 0 stays put, the others move one place round the circle
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return tuple(steps)


def _rotations(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row factors for _rotate_rows from the rotation tangents t."""
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    return np.concatenate([c, c])[:, None], np.concatenate([-s, s])[:, None]


def _rotate_rows(a: np.ndarray, pq: np.ndarray, qp: np.ndarray, cc: np.ndarray, ss: np.ndarray) -> None:
    """In place, for each pair: row p <- c row p - s row q, row q <- s row p + c row q."""
    x = a[pq]
    y = a[qp]
    x *= cc
    y *= ss
    x += y
    a[pq] = x


def _tangent(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray) -> np.ndarray:
    """tan of the smaller Jacobi angle that annihilates apq in [[app, apq], [apq, aqq]].

    The root of t^2 + 2 zeta t - 1 = 0, zeta = (aqq - app) / (2 apq), of least
    magnitude, written without the quotient zeta so that nothing overflows;
    0 (no rotation) where apq and aqq - app both vanish.
    """
    d = aqq - app
    two = 2.0 * apq
    den = d + np.copysign(np.hypot(d, two), d)
    return np.divide(two, den, out=np.zeros_like(den), where=den != 0.0)


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below ``tol`` times
    the Frobenius norm of the input; raises NoConvergence if that takes more
    than ``max_sweeps`` sweeps.

    Returns
    -------
    w : (n,) ndarray, eigenvalues ascending
    v : (n, n) ndarray, orthonormal eigenvectors as columns, a @ v == v @ diag(w)
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"square matrix expected, got {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise NotSymmetric("jacobi_eigh requires a symmetric matrix")

    ref = float(np.linalg.norm(a))
    if n == 1 or ref == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], np.eye(n)[:, order]

    # w beside v': one row rotation turns both
    wvt = np.hstack([a, np.eye(n)])
    w = wvt[:, :n]
    steps = _round_robin(n)
    sweeps = 0
    while (off := _offdiag_norm(w)) > tol * ref:
        if sweeps == max_sweeps:
            raise NoConvergence("jacobi_eigh", sweeps, off)
        for p, q, pq, qp in steps:
            app, aqq, apq = w[p, p], w[q, q], w[p, q]
            t = np.where(np.abs(apq) <= _SKIP, 0.0, _tangent(app, aqq, apq))
            cc, ss = _rotations(t)
            _rotate_rows(wvt, pq, qp, cc, ss)
            # w was symmetric, so the transpose of J' w is w J; its rows rotate to J' w J
            w[...] = w.T
            _rotate_rows(w, pq, qp, cc, ss)
            # stable closed forms for the rotated 2x2 blocks
            w[p, p] = app - t * apq
            w[q, q] = aqq + t * apq
            w[p, q] = w[q, p] = 0.0
        sweeps += 1

    vals = np.diag(w).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], wvt[:, n:].T[:, order]


def jacobi_svd(m: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Thin SVD by one-sided (Hestenes) Jacobi orthogonalization.

    A pair of columns is rotated unless it is orthogonal to ``tol`` relative
    to the product of their norms; a sweep that rotates nothing ends the
    iteration, and NoConvergence is raised if none of ``max_sweeps`` sweeps
    does.  A tall input is first reduced to R of ``m P = Q R``, a wide one is
    transposed.

    Returns ``(u, s, vt)`` with ``m == u @ diag(s) @ vt`` up to rounding,
    singular values descending.  Columns of ``u`` belonging to zero singular
    values are zero vectors.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch("2-d array expected")
    rows, cols = m.shape
    if rows < cols:
        ut, s, vt = jacobi_svd(m.T, tol=tol, max_sweeps=max_sweeps)
        return vt.T, s, ut.T
    if rows > cols > 0:
        q, r, piv = qr(m, mode="economic", pivoting=True)
        ur, s, rvt = jacobi_svd(r, tol=tol, max_sweeps=max_sweeps)
        vt = np.empty_like(rvt)
        vt[:, piv] = rvt
        return q @ ur, s, vt

    # columns of u and v stored as rows, u' beside v': one row rotation turns both
    uvt = np.hstack([m.T, np.eye(cols)])
    ut = uvt[:, :rows]
    steps = _round_robin(cols)
    for _ in range(max_sweeps):
        rotated = False
        for p, q, pq, qp in steps:
            k = p.size
            x = ut[pq]
            norms = np.einsum("ij,ij->i", x, x)
            npp, nqq = norms[:k], norms[k:]
            npq = np.einsum("ij,ij->i", x[:k], x[k:])
            # negated so that a NaN pair counts as unconverged
            rotate = ~(np.abs(npq) <= tol * np.sqrt(npp * nqq))
            if not rotate.any():
                continue
            rotated = True
            t = np.where(rotate, _tangent(npp, nqq, npq), 0.0)
            _rotate_rows(uvt, pq, qp, *_rotations(t))
        if not rotated:
            break
    else:
        raise NoConvergence("jacobi_svd", max_sweeps, _offdiag_norm(ut @ ut.T))

    sigma = np.linalg.norm(ut, axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = ut.T[:, order]
    v = uvt[:, rows:].T[:, order]
    nonzero = sigma > 0.0
    u[:, nonzero] = u[:, nonzero] / sigma[nonzero]
    u[:, ~nonzero] = 0.0
    return u, sigma, v.T


def rank_cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this are treated as zero."""
    return max(shape) * EPS * sigma_max * 1e3


def svd_rank(shape: tuple[int, int], s: np.ndarray) -> int:
    """Numerical rank of a ``shape`` matrix with singular values ``s``: those above rank_cutoff."""
    return int(np.count_nonzero(s > rank_cutoff(shape, float(s.max(initial=0.0)))))


def pinv_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray):
    """Euclidean Moore-Penrose inverse from the thin SVD ``(u, s, vt)`` of jacobi_svd.

    Singular values above the rank cutoff are inverted, the rest dropped.
    Returns ``(pinv, rank)``.
    """
    r = svd_rank((u.shape[0], vt.shape[1]), s)
    return vt[:r].T @ (u[:, :r] / s[:r]).T, r


def gen_eigh(a: np.ndarray, b: np.ndarray):
    """Generalized symmetric eigenproblem a x = lam b x with b positive definite.

    Cholesky reduction to standard form, then jacobi_eigh.  Returns
    ``(w, x)`` with eigenvalues ascending and x.T @ b @ x == identity.
    """
    low = np.linalg.cholesky(b)
    # c = L^-1 a L^-T, symmetrized against rounding drift
    tmp = solve_triangular(low, np.asarray(a, dtype=float), lower=True)
    c = solve_triangular(low, tmp.T, lower=True).T
    c = 0.5 * (c + c.T)
    w, y = jacobi_eigh(c)
    x = solve_triangular(low.T, y, lower=False)
    return w, x
