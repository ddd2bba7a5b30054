"""Dense spectral kernels: odd-even Jacobi eigensolver, one-sided Jacobi SVD,
the certified extreme eigenpairs of a symmetric matrix, and the square root
of a positive definite one.

Self-contained rotations keep these independent of LAPACK's eigen/SVD drivers,
so library routines stay available as cross-checking oracles in the tests.
The two Jacobi kernels order a sweep by the odd-even schedule, which Luk &
Park (1989) show equivalent to the round-robin of Brent & Luk (1985): each
step rotates the neighbour columns (f + 2i, f + 2i + 1), f alternating 0, 1,
and then swaps them, so n steps bring every two original columns together
once.

A matrix being rotated lives in a flat buffer whose rows sit on an even
stride (n, or n + 1 for odd n), plus one spare pair.  Viewed as complex from
element f, the buffer holds every pair of step parity f as z = p + iq, so a
step turns all its pairs with one in-place multiply over a contiguous view:
z *= (t - i) / hypot(t, 1) is the rotation by tangent t, the swap, and a
negation of the new q column.  That negation is a +-1 diagonal similarity:
it only flips the sign of later tangents, so values are as without it and
vectors differ in column signs only.  The slots past the real pairs (the pad
column of odd n, and at parity 1 the pair that wraps from one row into the
next) get the phase 1 and stay as they are.  Each kernel first scales its
input by the power of two that brings max|a| into [1/2, 1), so that no
square or product overflows or underflows, and scales the values back;
the scaling is exact, so on inputs of ordinary size nothing moves.

The SVD first reduces a tall input by numpy's unpivoted QR (Drmač & Veselić
2008 pivot its columns) and rotates only the square triangular factor.  A
kernel raises NonFiniteInput on a NaN or infinite input before any work,
and NoConvergence when it uses up its sweep cap (EIGH_SWEEPS, SVD_SWEEPS),
rather than return an unconverged result.

``extreme_eigh`` finds only the smallest and the largest eigenpair, by
Sylvester's law of inertia: a - sigma I has a Cholesky factor exactly when
sigma lies below the spectrum.  Repeated squaring of the Gershgorin-shifted
matrices guesses both extreme eigenvectors, and a guess's Rayleigh quotient
lies on the inner side of its extreme (Parlett 1998), so a first shift half
the bracket's width beyond it usually factors and closes the bracket at
once; a shift that fails steps sigma further out, and the bracket is then
bisected on whether numpy's Cholesky succeeds.  The value reported is the
last shift that factored, so it comes with its certificate however good the
guess was, and each vector is taken by inverse iteration with that factor.
It uses numpy's matrix product, Cholesky and inverse alone, keeps the
scaling (by an even power of two, which scales a product and a Cholesky
exactly), NonFiniteInput and NotSymmetric of ``jacobi_eigh``, and raises
NoConvergence past EXTREME_STEPS Cholesky shifts at one end (the squarings
have a cap of their own and only make the guess).

``spd_sqrt`` returns a^(1/2) and a^(-1/2) from the Cholesky factor R and
its orthogonal polar factor, by the scaled Newton iteration: numpy's
Cholesky and LU inverse only, the same even-power-of-two scaling, and
NotPositiveDefinite where the Cholesky fails.

The rank rule and the pseudo-inverse read an SVD the caller already holds.
Intended scale is desk-size dense matrices (a few hundred rows).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFiniteInput, NotPositiveDefinite, NotSymmetric

# Machine epsilon for float64; rank decisions key off this.
EPS = np.finfo(float).eps

# Off-diagonal entries at or below this are zeroed without a rotation.
_SKIP = 1e-300

# the relative stopping tolerances of jacobi_eigh and jacobi_svd, and the
# most sweeps each makes before NoConvergence
EIGH_TOL = 1e-13
SVD_TOL = 1e-14
EIGH_SWEEPS = 100
SVD_SWEEPS = 60
# extreme_eigh closes each bracket to EXTREME_TOL * n times the prescale 2^e,
# which bounds max|a| within a factor 4: about 2 n eps max|a|
EXTREME_TOL = 2.0 * EPS
# the most Cholesky shifts extreme_eigh tries per extreme (a bracket closes in 60 or fewer)
EXTREME_STEPS = 200
# inverse-iteration steps behind each extreme eigenvector
INVERSE_STEPS = 3
# the most repeated squarings behind extreme_eigh's guesses: two eigenvalues
# 2^-k of the Gershgorin bracket apart take about k + 8 to tell apart (seen
# up to k = 32), and closer ones stop the trace of the square growing sooner
_SQUARINGS = 64
# spd_sqrt's scaled Newton steps end once the relative update is at or below
# POLAR_TOL.  The iterate's error is then about the update squared (1e-9 at
# most, measured), and the final unscaled step squares it again, to rounding
# level; at 1e-4 that step left 1e-14, at 1e-8 it cost half an inverse more
# on average.  NoConvergence past POLAR_STEPS steps (cond 1e12 takes about 10)
POLAR_TOL = 1e-5
POLAR_STEPS = 30


def _finite(m, kernel: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NonFiniteInput(f"{kernel} input has NaN or infinite entries")
    return m


def _exponent(m: np.ndarray) -> int:
    """e with max|m| in [2^(e-1), 2^e); 0 for an empty or zero m."""
    return int(np.frexp(np.abs(m).max(initial=0.0))[1])


def _symmetric(a, kernel: str) -> np.ndarray:
    """``a`` as floats, checked finite, square and symmetric to 1e-12 of max|a|."""
    a = _finite(a, kernel)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"square matrix expected, got {a.shape}")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * float(np.abs(a).max(initial=0.0)):
        raise NotSymmetric(f"{kernel} requires a symmetric matrix")
    return a


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


class _Flat:
    """A zeroed rows x cols matrix stored for whole-parity column turns.

    ``flat`` holds the rows on an even ``stride`` and one spare pair after
    them; ``mat`` is the matrix view.  ``slots[f]`` views ``flat`` as complex
    from element f, so slot (r, j) is mat[r, f + 2j] + i mat[r, f + 2j + 1]
    for the ``(cols - f) // 2`` real pairs j; a slot after them holds the pad
    column or, at f = 1, the last entry of row r and the first of row r + 1.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.stride = cols + cols % 2
        size = rows * self.stride
        self.flat = np.zeros(size + 2)
        self.mat = self.flat[:size].reshape(rows, self.stride)[:, :cols]
        self.slots = [self.flat[f : f + size].view(np.complex128).reshape(rows, -1) for f in (0, 1)]

    def pair_entries(self, f: int) -> list[np.ndarray]:
        """Strided views of the entries pp, qq, pq and qp of a square matrix's step-f pairs (p, q)."""
        d, k = self.stride + 1, (self.mat.shape[1] - f) // 2
        return [self.flat[f * d + o : f * d + o + 2 * d * k : 2 * d] for o in (0, d, 1, d - 1)]


def _phases(stride: int) -> list[np.ndarray]:
    """Per-parity phase rows of a turn, 1 everywhere: slots past the real pairs must keep it."""
    return [np.ones(stride // 2, dtype=np.complex128) for _ in (0, 1)]


def _set_phase(phase: np.ndarray, t: np.ndarray) -> None:
    """Phase of the turn by tangents t into the first t.size slots: (t - i) / hypot(t, 1).

    Times z = p + iq that is p, q <- s p + c q, s q - c p, with c = 1/sqrt(1 + t^2),
    s = t c: the rotation, the swap and a negation of the new q.
    """
    phase[: t.size] = (t - 1j) / np.hypot(t, 1.0)


def _tangent(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """tan of the smaller Jacobi angle that annihilates apq in [[app, apq], [apq, aqq]].

    The root of t^2 + 2 zeta t - 1 = 0, zeta = (aqq - app) / (2 apq), of least
    magnitude, written without the quotient zeta so that nothing overflows;
    0 (no rotation) where ``skip`` is True, which it must be where apq = 0.
    """
    d = aqq - app
    two = 2.0 * apq
    den = d + np.copysign(np.hypot(d, two), d)
    den[skip] = np.inf
    return two / den


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by odd-even Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below EIGH_TOL times
    the Frobenius norm of the input; raises NoConvergence if that takes more
    than EIGH_SWEEPS sweeps.

    Returns
    -------
    w : (n,) ndarray, eigenvalues ascending
    v : (n, n) ndarray, orthonormal eigenvectors as columns, a @ v == v @ diag(w)
    """
    a = _symmetric(a, "jacobi_eigh")
    n = a.shape[0]
    if n == 1 or not a.any():
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], np.eye(n)[:, order]

    # w and its transpose alternate between two buffers
    e = _exponent(a)
    bufs, v = (_Flat(n, n), _Flat(n, n)), _Flat(n, n)
    bufs[0].mat[...] = np.ldexp(a, -e)
    np.fill_diagonal(v.mat, 1.0)
    ref = float(np.linalg.norm(bufs[0].mat))
    phases = _phases(v.stride)
    entries = [[x.pair_entries(f) for f in (0, 1)] for x in bufs]
    b = sweeps = 0
    while (off := _offdiag_norm(bufs[b].mat)) > EIGH_TOL * ref:
        if sweeps == EIGH_SWEEPS:
            raise NoConvergence("jacobi_eigh", sweeps, float(np.ldexp(off, e)))
        for f in _odd_even(n, sweeps):
            app, aqq, apq, _ = entries[b][f]
            t = _tangent(app, aqq, apq, np.abs(apq) <= _SKIP)
            # stable closed forms for the turned 2x2 blocks
            tpq = t * apq
            new_p, new_q = aqq + tpq, app - tpq
            phase = phases[f]
            _set_phase(phase, t)
            bufs[b].slots[f] *= phase
            v.slots[f] *= phase
            # w H with H H^T = I, so its transpose is H^T w; turned again, H^T w H
            np.copyto(bufs[1 - b].mat, bufs[b].mat.T)
            b = 1 - b
            bufs[b].slots[f] *= phase
            app, aqq, apq, aqp = entries[b][f]
            app[...], aqq[...], apq[...], aqp[...] = new_p, new_q, 0.0, 0.0
        sweeps += 1

    vals = np.ldexp(np.diag(bufs[b].mat), e)
    order = np.argsort(vals, kind="stable")
    return vals[order], v.mat[:, order]


def _shift_factor(a: np.ndarray, sigma: float) -> np.ndarray | None:
    """The Cholesky factor of a - sigma I, or None where that is not positive definite."""
    shifted = a.copy()
    shifted.flat[:: a.shape[0] + 1] -= sigma
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None


def _guess(p: np.ndarray) -> np.ndarray:
    """A unit vector near the eigenvector of the largest eigenvalue of p, positive semidefinite.

    p is scaled to trace 1 and squared repeatedly, scaled to trace 1 again
    each step.  Step k raises its eigenvalues to the powers 2^k, and the
    trace of the square, the sum of their squares, grows towards 1/m for an
    m-fold top eigenvalue, strictly until the weights left are equal.  The
    squaring stops once that trace does not grow, or after _SQUARINGS
    steps, and the guess is the column through the largest diagonal entry.
    """
    b = p / np.trace(p)
    square = np.empty_like(b)
    last = 0.0
    for _ in range(_SQUARINGS):
        np.matmul(b, b, out=square)
        t = np.trace(square)
        if not t > last:
            break
        square /= t
        b, square, last = square, b, t
    x = b[:, np.argmax(np.diag(b))]
    return x / np.linalg.norm(x)


def _lowest(a: np.ndarray, lower: float, upper: float, width: float, start: np.ndarray) -> tuple[float, np.ndarray]:
    """The certified lower end of the smallest eigenvalue of a, and its eigenvector.

    lower and upper are Gershgorin bounds of a's spectrum, and a - sigma I
    factors exactly when sigma lies below it.  The bracket's upper end hi
    starts at the smallest diagonal entry.  Where that lies more than
    ``width`` above lower, a guess at the eigenvector comes from upper I - a
    (``_guess``), hi becomes its Rayleigh quotient where that is smaller (no
    quotient lies below the smallest eigenvalue), and the lower end lo
    starts at hi - width/2, so that one Cholesky that succeeds closes the
    bracket; otherwise lo starts at lower - width.  A lower end that does
    not factor becomes the upper end, and lo steps down by a width that
    doubles each time; once a shift factors, the bracket is bisected.  It
    keeps a shift that factored as lo, so lo stays at or below the smallest
    eigenvalue (up to the Cholesky's backward error), and it ends within
    ``width``.  The vector is ``start`` after INVERSE_STEPS
    inverse-iteration steps with the factor of a - lo I.
    """
    lo, hi = lower - width, float(np.diag(a).min())
    if hi - lower > width:
        # not a multiple of I, so upper I - a, positive semidefinite, has a positive trace
        shifted = -a
        shifted.flat[:: a.shape[0] + 1] += upper
        guess = _guess(shifted)
        hi = min(hi, float(guess @ a @ guess))
        lo = hi - 0.5 * width
    low, drop, steps = None, width, 0
    while low is None or hi - lo > width:
        if steps == EXTREME_STEPS:
            raise NoConvergence("extreme_eigh", steps, hi - lo)
        steps += 1
        sigma = lo if low is None else 0.5 * (lo + hi)
        factor = _shift_factor(a, sigma)
        if factor is not None:
            lo, low = sigma, factor
        elif low is None:
            lo, hi, drop = lo - drop, lo, 2.0 * drop
        else:
            hi = sigma
    # (L L')^-1 through the inverse of L, taken once
    inv = np.linalg.inv(low)
    x = start
    for _ in range(INVERSE_STEPS):
        x = inv.T @ (inv @ x)
        x /= np.linalg.norm(x)
    return lo, x


def extreme_eigh(a: np.ndarray):
    """The smallest and the largest eigenpair of a symmetric matrix, with a certificate.

    By Sylvester's law of inertia, a - sigma I has a Cholesky factor exactly
    when sigma lies below every eigenvalue.  So each end of the spectrum is
    found by trying shifts sigma on whether numpy's Cholesky succeeds
    (``_lowest``), on a for the smallest eigenvalue and on -a for the
    largest.  Where an end's Gershgorin bracket is wider than the width,
    repeated squaring of the Gershgorin-shifted matrix guesses its
    eigenvector (``_guess``), and the bracket opens at the guess's Rayleigh
    quotient, an upper bound of the smallest eigenvalue: the first shift,
    half a width below it, closes the bracket when it factors, and a miss
    steps the shift down and bisects.  Each reported value is the last
    shift whose factor succeeded, so
    cholesky(a - w[0] I) and cholesky(w[1] I - a) both succeed: w[0] <=
    lambda_min and lambda_max <= w[1] hold by construction, for a matrix
    within the factorization's backward error of a, whatever the guess was,
    and no Krylov subspace is involved that could miss an extreme.  Each
    bracket closes to EXTREME_TOL * n times the prescale 2^e; NoConvergence
    is raised if that takes more than EXTREME_STEPS shifts (its ``sweeps``
    is then the count of Cholesky shifts, not of squarings, and its
    ``off_norm`` the bracket width left).  The input is first scaled by the
    even power of two 2^-e that brings max|a| into [1/4, 1): such a scaling
    is exact, and it scales every step of a Cholesky factorization exactly
    (square roots included), and every product of the squaring, so guesses,
    factors and values are those of a scaled back.

    Returns
    -------
    w : (2,) ndarray, the smallest and the largest eigenvalue
    v : (n, 2) ndarray, unit eigenvectors for them as columns, laid out like
        the first and last columns of ``jacobi_eigh``'s
    """
    a = _symmetric(a, "extreme_eigh")
    n = a.shape[0]
    if n == 0:
        raise DimensionMismatch("extreme_eigh needs a nonempty matrix")
    e = _exponent(a)
    e += e % 2
    scaled = np.ldexp(a, -e)
    width = EXTREME_TOL * n
    # one fixed start for both vectors, so the result is a function of a
    start = np.random.default_rng(0).standard_normal(n)
    diag = np.diag(scaled)
    radius = np.abs(scaled).sum(axis=1) - np.abs(diag)
    lower, upper = float(np.min(diag - radius)), float(np.max(diag + radius))
    low, v_low = _lowest(scaled, lower, upper, width, start)
    high, v_high = _lowest(-scaled, -upper, -lower, width, start)
    return np.ldexp(np.array([low, -high]), e), np.column_stack([v_low, v_high])


def spd_sqrt(a: np.ndarray):
    """The square root of a symmetric positive definite matrix, and its inverse.

    With a = R'R numpy's Cholesky, a^(1/2) = U'R for U the orthogonal polar
    factor of R (R = U H gives R'R = H^2), and a^(-1/2) = R^-1 U.  U comes
    from the Frobenius-scaled Newton iteration X <- (mu X + X^-T / mu) / 2
    from X = R, mu = (|X^-1|_F / |X|_F)^(1/2) (Higham 1986): once the
    relative update |X_new - X|_F / |X_new|_F is at or below POLAR_TOL, one
    more step without the scaling ends it.  Each step is one numpy (LU)
    inverse; no eigen or SVD driver is used.  NoConvergence is raised past
    POLAR_STEPS steps (its ``sweeps`` is then that count, and its
    ``off_norm`` the last relative update), NotPositiveDefinite where the
    Cholesky fails.  The input is first scaled by the even power of two
    2^-e that brings max|a| into [1/4, 1), so the roots are those of the
    scaled matrix times 2^(e/2) and 2^(-e/2) exactly.

    Returns
    -------
    root : (n, n) ndarray, a^(1/2), symmetric
    inv_root : (n, n) ndarray, a^(-1/2), symmetric
    """
    a = _symmetric(a, "spd_sqrt")
    n = a.shape[0]
    if n == 0:
        raise DimensionMismatch("spd_sqrt needs a nonempty matrix")
    e = _exponent(a)
    e += e % 2
    try:
        r = np.linalg.cholesky(np.ldexp(a, -e)).T
        r_inv = np.linalg.inv(r)
        x, x_inv, update = r, r_inv, np.inf
        for _ in range(POLAR_STEPS):
            if update <= POLAR_TOL:
                # mu is near 1 by now, and the unscaled step converges quadratically
                x = 0.5 * (x + x_inv.T)
                break
            mu = np.sqrt(np.linalg.norm(x_inv) / np.linalg.norm(x))
            new = 0.5 * (mu * x + x_inv.T / mu)
            update = float(np.linalg.norm(new - x) / np.linalg.norm(new))
            x, x_inv = new, np.linalg.inv(new)
        else:
            raise NoConvergence("spd_sqrt", POLAR_STEPS, update)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("spd_sqrt requires a positive definite matrix") from exc
    root, inv_root = x.T @ r, r_inv @ x
    half = e // 2
    return np.ldexp(0.5 * (root + root.T), half), np.ldexp(0.5 * (inv_root + inv_root.T), -half)


def jacobi_svd(m: np.ndarray):
    """Thin SVD by one-sided (Hestenes) Jacobi orthogonalization.

    A pair of columns is rotated unless it is orthogonal to SVD_TOL relative
    to the product of their norms, and swapped either way; a sweep that
    rotates nothing ends the iteration, and NoConvergence is raised if none
    of SVD_SWEEPS sweeps does.  A tall input is first reduced to R of
    ``m = Q R``, a wide one is transposed.

    Returns ``(u, s, vt)`` with ``m == u @ diag(s) @ vt`` up to rounding,
    singular values descending.  Columns of ``u`` belonging to zero singular
    values are zero vectors.
    """
    m = _finite(m, "jacobi_svd")
    if m.ndim != 2:
        raise DimensionMismatch("2-d array expected")
    rows, cols = m.shape
    if rows < cols:
        ut, s, vt = jacobi_svd(m.T)
        return vt.T, s, ut.T
    e = _exponent(m)
    if rows > cols > 0:
        q, r = np.linalg.qr(np.ldexp(m, -e))
        ur, s, vt = jacobi_svd(r)
        return q @ ur, np.ldexp(s, e), vt

    # u above v: one column turn rotates both
    uv = _Flat(rows + cols, cols)
    uv.mat[:rows] = np.ldexp(m, -e)
    np.fill_diagonal(uv.mat[rows:], 1.0)
    u = uv.mat[:rows]
    phases = _phases(uv.stride)
    # the u rows of each parity's slots as (rows, slot, p|q) floats, and their real pairs
    blocks = [uv.flat[f : f + rows * uv.stride].reshape(rows, -1, 2) for f in (0, 1)]
    pairs = [(x[:, : (cols - f) // 2, 0], x[:, : (cols - f) // 2, 1]) for f, x in enumerate(blocks)]
    for sweep in range(SVD_SWEEPS):
        rotated = False
        for f in _odd_even(cols, sweep):
            xp, xq = pairs[f]
            k = xp.shape[1]
            norms = np.einsum("ijk,ijk->jk", blocks[f], blocks[f])
            npp, nqq = norms[:k, 0], norms[:k, 1]
            npq = np.einsum("ij,ij->j", xp, xq)
            # a NaN pair is not skipped, so it counts as unconverged
            skip = np.abs(npq) <= SVD_TOL * np.sqrt(npp * nqq)
            rotated = rotated or not skip.all()
            # an orthogonal pair gets t = 0, the bare swap the schedule needs
            _set_phase(phases[f], _tangent(npp, nqq, npq, skip))
            uv.slots[f] *= phases[f]
        if not rotated:
            break
    else:
        raise NoConvergence("jacobi_svd", SVD_SWEEPS, float(np.ldexp(_offdiag_norm(u.T @ u), 2 * e)))

    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma, u = sigma[order], u[:, order]
    nonzero = sigma > 0.0
    u[:, nonzero] = u[:, nonzero] / sigma[nonzero]
    u[:, ~nonzero] = 0.0
    return u, np.ldexp(sigma, e), uv.mat[rows:, order].T


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

