"""Dense spectral kernels: odd-even Jacobi eigensolver and one-sided Jacobi SVD.

Self-contained rotations keep these independent of LAPACK's eigen/SVD drivers,
so library routines stay available as cross-checking oracles in the tests.
Both kernels order a sweep by the odd-even schedule, which Luk & Park (1989)
show equivalent to the round-robin of Brent & Luk (1985): each step rotates
the neighbour columns (f + 2i, f + 2i + 1), f alternating 0, 1, and then
swaps them, so n steps bring every two original columns together once.  On
the complex column z = p + iq, rotate-and-swap is the product conj(z) (s + ic):
two in-place ufunc calls on a complex view, with no gathers or scatters.  The
SVD first reduces a tall input by a column-pivoted QR (Drmač & Veselić 2008)
and rotates only the square triangular factor.  A kernel raises
NonFiniteInput on a NaN or infinite input before any work, and NoConvergence
when it uses up ``max_sweeps``, rather than return an unconverged result.
The rank rule and the pseudo-inverse read an SVD the caller already holds.
Intended scale is desk-size dense matrices (a few hundred rows).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr, solve_triangular

from .errors import DimensionMismatch, NoConvergence, NonFiniteInput, NotSymmetric

# Machine epsilon for float64; rank decisions key off this.
EPS = np.finfo(float).eps

# Off-diagonal entries at or below this are zeroed without a rotation.
_SKIP = 1e-300


def _finite(m, kernel: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NonFiniteInput(f"{kernel} input has NaN or infinite entries")
    return m


def _offdiag_norm(a: np.ndarray) -> float:
    # measured entrywise: the sum-of-squares difference cancels catastrophically
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _odd_even(n: int, sweep: int) -> list[int]:
    """The first column f of each step of sweep number ``sweep`` on n columns.

    A step turns the pairs (f + 2i, f + 2i + 1) that fit in n columns.  f
    alternates 0, 1 across sweeps of n steps; steps without a pair are left out.
    """
    return [f for f in ((sweep * n + j) % 2 for j in range(n)) if n - f >= 2]


def _pairs(a: np.ndarray, f: int) -> np.ndarray:
    """The column pairs (p, q) of step f of the C-ordered a, as complex z = a[:, p] + i a[:, q]."""
    return a[:, f : f + 2 * ((a.shape[1] - f) // 2)].view(np.complex128)


def _entries(a: np.ndarray, f: int) -> tuple[np.ndarray, ...]:
    """The entries pp, qq, pq and qp of step f's pairs of the square a, as strided views."""
    n = a.shape[0]
    flat, d, k = a.reshape(-1), n + 1, (n - f) // 2
    return tuple(flat[i : i + 2 * d * k : 2 * d] for i in (f * d, f * d + d, f * d + 1, f * d + n))


def _phase(t: np.ndarray) -> np.ndarray:
    """s + ic for the rotations with tangents t: c = 1/sqrt(1 + t^2), s = t c."""
    return (t + 1j) / np.hypot(t, 1.0)


def _turn(z: np.ndarray, phase: np.ndarray) -> None:
    """In place, rotate then swap each pair z = p + iq: p, q <- s p + c q, c p - s q."""
    np.conjugate(z, out=z)
    z *= phase


def _tangent(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray, rotate: np.ndarray) -> np.ndarray:
    """tan of the smaller Jacobi angle that annihilates apq in [[app, apq], [apq, aqq]].

    The root of t^2 + 2 zeta t - 1 = 0, zeta = (aqq - app) / (2 apq), of least
    magnitude, written without the quotient zeta so that nothing overflows;
    0 (no rotation) where ``rotate`` is False, which it must be where apq = 0.
    """
    d = aqq - app
    two = 2.0 * apq
    den = d + np.copysign(np.hypot(d, two), d)
    return np.divide(two, den, out=np.zeros_like(den), where=rotate)


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by odd-even Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below ``tol`` times
    the Frobenius norm of the input; raises NoConvergence if that takes more
    than ``max_sweeps`` sweeps.

    Returns
    -------
    w : (n,) ndarray, eigenvalues ascending
    v : (n, n) ndarray, orthonormal eigenvectors as columns, a @ v == v @ diag(w)
    """
    a = _finite(a, "jacobi_eigh")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"square matrix expected, got {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise NotSymmetric("jacobi_eigh requires a symmetric matrix")

    ref = float(np.linalg.norm(a))
    if n == 1 or ref == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], np.eye(n)[:, order]

    # w and its transpose alternate between two buffers; views of both are made once
    bufs, v = (a.copy(), np.empty((n, n))), np.eye(n)
    pairs = [[_pairs(x, f) for f in (0, 1)] for x in (*bufs, v)]
    entries = [[_entries(x, f) for f in (0, 1)] for x in bufs]
    b = sweeps = 0
    while (off := _offdiag_norm(bufs[b])) > tol * ref:
        if sweeps == max_sweeps:
            raise NoConvergence("jacobi_eigh", sweeps, off)
        for f in _odd_even(n, sweeps):
            app, aqq, apq, _ = entries[b][f]
            t = _tangent(app, aqq, apq, np.abs(apq) > _SKIP)
            # stable closed forms for the rotated and swapped 2x2 blocks
            tpq = t * apq
            new_p, new_q = aqq + tpq, app - tpq
            phase = _phase(t)
            _turn(pairs[b][f], phase)
            _turn(pairs[2][f], phase)
            # w H with H symmetric, so its transpose is H w; turned again, H w H
            np.copyto(bufs[1 - b], bufs[b].T)
            b = 1 - b
            _turn(pairs[b][f], phase)
            app, aqq, apq, aqp = entries[b][f]
            app[...], aqq[...], apq[...], aqp[...] = new_p, new_q, 0.0, 0.0
        sweeps += 1

    vals = np.diag(bufs[b]).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def jacobi_svd(m: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Thin SVD by one-sided (Hestenes) Jacobi orthogonalization.

    A pair of columns is rotated unless it is orthogonal to ``tol`` relative
    to the product of their norms, and swapped either way; a sweep that
    rotates nothing ends the iteration, and NoConvergence is raised if none
    of ``max_sweeps`` sweeps does.  A tall input is first reduced to R of
    ``m P = Q R``, a wide one is transposed.

    Returns ``(u, s, vt)`` with ``m == u @ diag(s) @ vt`` up to rounding,
    singular values descending.  Columns of ``u`` belonging to zero singular
    values are zero vectors.
    """
    m = _finite(m, "jacobi_svd")
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

    # u above v: one column turn rotates both
    uv = np.vstack([m, np.eye(cols)])
    u = uv[:rows]
    pairs = [_pairs(uv, f) for f in (0, 1)]
    columns = [(z.real, z.imag) for z in (_pairs(u, f) for f in (0, 1))]
    for sweep in range(max_sweeps):
        rotated = False
        for f in _odd_even(cols, sweep):
            xp, xq = columns[f]
            npp = np.einsum("ij,ij->j", xp, xp)
            nqq = np.einsum("ij,ij->j", xq, xq)
            npq = np.einsum("ij,ij->j", xp, xq)
            # negated so that a NaN pair counts as unconverged
            rotate = ~(np.abs(npq) <= tol * np.sqrt(npp * nqq))
            rotated = rotated or bool(rotate.any())
            # an orthogonal pair gets t = 0, the bare swap the schedule needs
            _turn(pairs[f], _phase(_tangent(npp, nqq, npq, rotate)))
        if not rotated:
            break
    else:
        raise NoConvergence("jacobi_svd", max_sweeps, _offdiag_norm(u.T @ u))

    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma, u = sigma[order], u[:, order]
    nonzero = sigma > 0.0
    u[:, nonzero] = u[:, nonzero] / sigma[nonzero]
    u[:, ~nonzero] = 0.0
    return u, sigma, uv[rows:, order].T


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
    a, b = _finite(a, "gen_eigh"), _finite(b, "gen_eigh")
    low = np.linalg.cholesky(b)
    # c = L^-1 a L^-T, symmetrized against rounding drift
    tmp = solve_triangular(low, a, lower=True)
    c = solve_triangular(low, tmp.T, lower=True).T
    c = 0.5 * (c + c.T)
    w, y = jacobi_eigh(c)
    x = solve_triangular(low.T, y, lower=False)
    return w, x
