"""Operator algebra on finite-dimensional spaces with weighted inner products.

A space is R^n with inner product (x, y) -> x' G y for a symmetric positive
definite Gram matrix G.  Adjoints, Moore-Penrose inverses, fractional powers
and the identity suites below are all taken with respect to these weighted
products.  Weighted problems reduce to Euclidean ones through the Cholesky
change of coordinates x -> L' x with G = L L'.  Each operator's SVD in those
coordinates is taken once and kept on the operator; its pinv, norm and rank all read it.
Every solve with L, L' or G is a block substitution with the space's stored
factor (``InnerSpace.lower_solve`` and ``InnerSpace.solve``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from . import kernels
from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NotPositiveDefinite,
    NotSelfAdjoint,
    NotSymmetric,
    RangeNotContained,
    SolveFailure,
)
from .report import Recorder, SuiteReport

_TINY = 1e-300

# rows of the diagonal blocks of a Cholesky factor that a solve applies by matmul
SOLVE_BLOCK = 64

# relative slack of spectral's symmetry check and of a negative eigenvalue
# under a non-integer power, and of douglas_factor's range check
SPECTRAL_TOL = 1e-10
RANGE_TOL = 1e-8


def tril_inv(low: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular lower-triangular matrix, itself exactly lower triangular.

    By halves, [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], down
    to blocks of 32 rows or fewer that np.linalg.inv takes whole: its LU
    works through the zero triangle too, which at 256 rows costs several
    times the halving.
    """
    n = low.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    out = np.zeros((n, n))
    out[:h, :h] = tril_inv(low[:h, :h])
    out[h:, h:] = tril_inv(low[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (low[h:, :h] @ out[:h, :h]))
    return out


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def rel_diff(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius distance normalized by max(|x|, |y|, 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1.0)
    return float(np.linalg.norm(x - y)) / denom


@dataclass(frozen=True, eq=False)
class InnerSpace:
    """R^dim with inner product (x, y) -> x' gram y.  gram = chol @ chol'."""

    dim: int
    gram: np.ndarray
    chol: np.ndarray

    def matches(self, other: "InnerSpace") -> bool:
        return self is other or (self.dim == other.dim and np.array_equal(self.gram, other.gram))

    def norm(self, x) -> float:
        # via the factor so the result is never negative under rounding
        return float(np.linalg.norm(self.chol.T @ np.asarray(x)))

    @cached_property
    def _diag_inv(self) -> tuple[np.ndarray, ...]:
        """The inverse of each diagonal block of ``chol``, SOLVE_BLOCK rows or fewer:
        taken once per space, so no solve factors or inverts anything."""
        return tuple(
            _frozen(tril_inv(self.chol[s : s + SOLVE_BLOCK, s : s + SOLVE_BLOCK]))
            for s in range(0, self.dim, SOLVE_BLOCK)
        )

    def lower_solve(self, rhs, trans: bool = False) -> np.ndarray:
        """L^-1 rhs, or L'^-1 rhs with ``trans``, for one (dim,) vector or a
        (dim, k) block of columns; ``rhs`` is left as it is.

        Block substitution over the diagonal blocks of L: each block row is
        one product with the rows already solved and one with the block's
        stored inverse.
        """
        x = np.array(rhs, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatch(f"right-hand side of shape {x.shape} for a space of dim {self.dim}")
        low = self.chol
        blocks = list(zip(range(0, self.dim, SOLVE_BLOCK), self._diag_inv))
        for s, inv in reversed(blocks) if trans else blocks:
            e = s + inv.shape[0]
            if trans:
                if e < self.dim:
                    x[s:e] -= low[e:, s:e].T @ x[e:]
                x[s:e] = inv.T @ x[s:e]
            else:
                if s:
                    x[s:e] -= low[s:e, :s] @ x[:s]
                x[s:e] = inv @ x[s:e]
        return x

    def solve(self, rhs) -> np.ndarray:
        """gram^-1 rhs, as L'^-1 L^-1 rhs, for one vector or a block of columns."""
        return self.lower_solve(self.lower_solve(rhs), trans=True)


def make_space(dim: int, gram) -> InnerSpace:
    """Validate and build a weighted inner-product space.

    Raises NotSymmetric / NotPositiveDefinite / DimensionMismatch.
    """
    if int(dim) < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    g = np.array(gram, dtype=float)
    if g.shape != (dim, dim):
        raise DimensionMismatch(f"gram shape {g.shape} != ({dim}, {dim})")
    if not np.all(np.isfinite(g)):
        raise NotPositiveDefinite("gram matrix has non-finite entries")
    scale = float(np.linalg.norm(g))
    if float(np.linalg.norm(g - g.T)) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("gram matrix is not symmetric")
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("gram matrix is not positive definite") from exc
    for arr in (g, low):
        arr.setflags(write=False)  # fresh float arrays: frozen in place, not copied
    return InnerSpace(dim=int(dim), gram=g, chol=low)


@dataclass(frozen=True, eq=False)
class Operator:
    """Linear map between two weighted spaces, stored as a dense matrix.

    mat has shape (codomain.dim, domain.dim).
    """

    domain: InnerSpace
    codomain: InnerSpace
    mat: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self.mat)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"mat shape {m.shape} inconsistent with spaces "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        object.__setattr__(self, "mat", m)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Euclidean SVD, read-only: the one decomposition behind pinv, op_norm and
        the rank.  It lives as long as the operator does."""
        return tuple(_frozen(x) for x in kernels.jacobi_svd(to_euclidean(self)))

    def apply(self, x) -> np.ndarray:
        return self.mat @ np.asarray(x, dtype=float)

    def __matmul__(self, other: "Operator") -> "Operator":
        if not other.codomain.matches(self.domain):
            raise DimensionMismatch("composition spaces do not line up")
        return Operator(other.domain, self.codomain, self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        if not (self.domain.matches(other.domain) and self.codomain.matches(other.codomain)):
            raise DimensionMismatch("sum requires identical spaces")
        return Operator(self.domain, self.codomain, self.mat + other.mat)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a self-adjoint operator on one weighted space.

    Columns of ``vectors`` are orthonormal in the space's inner product
    (V' G V = I) and ``eigenvalues`` is ascending.
    """

    space: InnerSpace
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def power(self, t: float) -> Operator:
        """The power V diag(lambda^t) V' G.  A non-integer power of a negative
        spectrum raises NegativeEigenvalue, a negative power of a singular one
        SolveFailure."""
        vals = self.eigenvalues.copy()
        scale = max(float(np.abs(vals).max()), 1.0)
        if float(t) != int(t):
            if float(vals.min()) < -SPECTRAL_TOL * scale:
                raise NegativeEigenvalue(f"min eigenvalue {vals.min():.3e} < 0")
            vals = np.clip(vals, 0.0, None)
        if t < 0 and float(vals.min()) <= kernels.EPS * scale * 1e3:
            raise SolveFailure("negative power of a singular operator")
        powered = vals ** float(t)
        mat = self.vectors @ (powered[:, None] * (self.vectors.T @ self.space.gram))
        return Operator(self.space, self.space, mat)


def identity(space: InnerSpace) -> Operator:
    return Operator(space, space, np.eye(space.dim))


def adjoint(a: Operator) -> Operator:
    """Weighted adjoint: mat = G_dom^-1 mat' G_cod."""
    return Operator(a.codomain, a.domain, a.domain.solve(a.mat.T @ a.codomain.gram))


def to_euclidean(a: Operator) -> np.ndarray:
    """Matrix of ``a`` in the orthonormal coordinates L' x of both spaces."""
    top = a.codomain.chol.T @ a.mat
    return a.domain.lower_solve(top.T).T


def from_euclidean(mat_e: np.ndarray, domain: InnerSpace, codomain: InnerSpace) -> Operator:
    mat = codomain.lower_solve(mat_e, trans=True) @ domain.chol.T
    return Operator(domain, codomain, mat)


def op_norm(a: Operator) -> float:
    """Operator norm induced by the weighted space norms."""
    s = a.svd[1]
    return float(s[0]) if s.size else 0.0


def pinv(a: Operator) -> Operator:
    """Moore-Penrose inverse with respect to the weighted inner products."""
    inv_e, _ = kernels.pinv_svd(*a.svd)
    return from_euclidean(inv_e, a.codomain, a.domain)


def _self_adjoint_euclidean(a: Operator) -> np.ndarray:
    """The symmetrized matrix of a self-adjoint endomorphism in orthonormal coordinates.

    Raises NotSelfAdjoint when G a.mat deviates from its transpose beyond
    SPECTRAL_TOL relative.
    """
    if not a.domain.matches(a.codomain):
        raise DimensionMismatch("spectral and half_powers need an endomorphism")
    gs = a.domain.gram @ a.mat
    if float(np.linalg.norm(gs - gs.T)) > SPECTRAL_TOL * max(float(np.linalg.norm(gs)), 1.0):
        raise NotSelfAdjoint("operator is not self-adjoint in its space")
    sym = to_euclidean(a)
    return 0.5 * (sym + sym.T)


def spectral(a: Operator) -> SpectralDecomposition:
    """Spectral decomposition of a self-adjoint endomorphism.

    Raises NotSelfAdjoint when G a.mat deviates from its transpose beyond
    SPECTRAL_TOL relative.
    """
    vals, q = kernels.jacobi_eigh(_self_adjoint_euclidean(a))
    vecs = a.domain.lower_solve(q, trans=True)
    return SpectralDecomposition(space=a.domain, eigenvalues=vals, vectors=_frozen(vecs))


def half_powers(a: Operator) -> tuple[Operator, Operator]:
    """(a^(1/2), a^(-1/2)) of a self-adjoint positive definite endomorphism.

    ``kernels.spd_sqrt`` of a's matrix in orthonormal coordinates, taken
    back: no eigendecomposition.  Raises NotSelfAdjoint as ``spectral``
    does, and NotPositiveDefinite for a spectrum that is not positive.
    """
    root, inv_root = kernels.spd_sqrt(_self_adjoint_euclidean(a))
    return from_euclidean(root, a.domain, a.domain), from_euclidean(inv_root, a.domain, a.domain)


def frac_power(a: Operator, t: float) -> Operator:
    """Real power a^t of a self-adjoint operator: SpectralDecomposition.power."""
    return spectral(a).power(t)


def douglas_factor(a: Operator, b: Operator) -> tuple[Operator, float]:
    """Factor a = b @ c through b, with the minimal-norm factor.

    Requires range(a) inside range(b): checked numerically, RangeNotContained
    beyond RANGE_TOL relative.  Returns (c, mu) where mu = |c|^2 is the least
    constant with a a* <= mu b b* in the codomain's quadratic order.
    """
    if not a.codomain.matches(b.codomain):
        raise DimensionMismatch("factorization needs a shared codomain")
    bp = pinv(b)
    leak = rel_diff(a.mat, (b @ bp).mat @ a.mat)
    if leak > RANGE_TOL:
        raise RangeNotContained(f"range residual {leak:.3e} exceeds {RANGE_TOL:.1e}")
    c = bp @ a
    return c, op_norm(c) ** 2


class _PinvBundle(NamedTuple):
    """b = pinv(a), a*, b*, and the roots (I + x)^(-1/2) for x = b b*, b* b, a* a, a a* in that order."""

    b: Operator
    astar: Operator
    bstar: Operator
    root_bbs: Operator
    root_bsb: Operator
    root_asa: Operator
    root_aas: Operator


@lru_cache(maxsize=32)
def _pinv_pair(a: Operator) -> _PinvBundle:
    """One pinv (from the cached SVD) and four ``half_powers`` per operator (operators are
    immutable); the checks read each resolvent as a root's square, so none takes an eigensolve."""
    b = pinv(a)
    astar, bstar = adjoint(a), adjoint(b)
    dom, cod = identity(a.domain), identity(a.codomain)
    shifted = (dom + b @ bstar, cod + bstar @ b, dom + astar @ a, cod + a @ astar)
    return _PinvBundle(b, astar, bstar, *(half_powers(x)[1] for x in shifted))


def labrousse_check(a: Operator) -> dict[str, float]:
    """Relative residuals of the six inverse-pair identities linking a and pinv(a).

    Key "item5" is present only when the adjoint of ``a`` is injective
    (i.e. ``a`` has full row rank in its weighted sense).
    """
    p = _pinv_pair(a)
    n1, n2 = a.domain.dim, a.codomain.dim
    eye1, eye2 = np.eye(n1), np.eye(n2)
    # the resolvents (I + x)^-1 as the squares of the bundle's inverse roots
    inv_bbs, inv_bsb, inv_asa, inv_aas = (r.mat @ r.mat for r in (p.root_bbs, p.root_bsb, p.root_asa, p.root_aas))

    out: dict[str, float] = {}
    out["item1"] = rel_diff(a.mat @ inv_asa, p.bstar.mat @ inv_bbs)
    null_bstar = eye1 - p.b.mat @ a.mat             # projector onto null(b*) = null(a)
    out["item2"] = rel_diff(inv_asa + inv_bbs, eye1 + null_bstar)
    out["item3"] = rel_diff(p.astar.mat @ inv_aas, p.b.mat @ inv_bsb)
    null_astar = eye2 - a.mat @ p.b.mat             # projector onto null(a*)
    out["item4"] = rel_diff(inv_aas + inv_bsb, eye2 + null_astar)
    if kernels.svd_rank(a.mat.shape, a.svd[1]) == n2:
        out["item5"] = rel_diff(inv_aas + inv_bsb, eye2)

    smooth = p.astar @ p.root_aas
    proj_smooth = eye2 - (pinv(smooth) @ smooth).mat
    proj_null_b = eye2 - (pinv(p.b) @ p.b).mat
    out["item6"] = max(
        rel_diff(proj_smooth, null_astar),
        rel_diff(proj_smooth, proj_null_b),
        rel_diff(null_astar, proj_null_b),
    )
    return out


def norm_identity_check(a: Operator, x) -> tuple[float, float, dict[str, float]]:
    """Norm-split identities for the pair (a, b = pinv(a)) at the vector x.

    Returns (lhs, rhs, residuals) where lhs = |x|^2 in the domain space and
    rhs is the two-term split; residuals are normalized by |x|^2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (a.domain.dim,):
        raise DimensionMismatch(f"vector length {x.shape} != ({a.domain.dim},)")
    p = _pinv_pair(a)
    dom = a.domain
    lhs = dom.norm(x) ** 2
    term_across = a.codomain.norm((p.bstar @ p.root_bbs).apply(x)) ** 2
    term_within = dom.norm(p.root_bbs.apply(x)) ** 2
    rhs = term_across + term_within
    scale = max(lhs, _TINY)
    res = {"whole_space": abs(lhs - rhs) / scale}

    # restriction to range(b): the split swaps in (I + a*a)^(-1/2)
    xr = (p.b @ a).apply(x)
    lhs_r = dom.norm(xr) ** 2
    rhs_r = dom.norm(p.root_bbs.apply(xr)) ** 2 + dom.norm(p.root_asa.apply(xr)) ** 2
    res["range_restricted"] = abs(lhs_r - rhs_r) / scale
    return lhs, rhs, res


def build_tb(a: Operator) -> tuple[Operator, Operator]:
    """The pseudo-inverse pair attached to b = pinv(a).

    Returns (t_b, t_bstar):
      t_b     = (b + a*) (I + b*b)^(-1/2)   : codomain -> domain
      t_bstar = (b* + a) (I + b b*)^(-1/2)  : domain -> codomain
    t_b is the Moore-Penrose inverse of b*(I + b b*)^(-1/2) and
    t_bstar is its adjoint.
    """
    p = _pinv_pair(a)
    t_b = (p.b + p.astar) @ p.root_bsb
    t_bstar = (p.bstar + a) @ p.root_bbs
    return t_b, t_bstar


# ---------------------------------------------------------------------------
# seeded fixtures and the mesh-free verification suites

# fixtures draw dims 1..DIM_CAP, Grams of condition at most COND_CAP, and
# operators whose relative singular-value gap at their rank is at least RANK_GAP
DIM_CAP = 12
COND_CAP = 1e4
RANK_GAP = 1e-3


def random_space(rng: np.random.Generator, dim: int) -> InnerSpace:
    """SPD Gram M'M + I, redrawn until cond <= 1 + |M|_F^2 (about 1 + dim^2) clears COND_CAP."""
    for _ in range(64):
        m = rng.standard_normal((dim, dim))
        if 1.0 + float(np.sum(m * m)) <= COND_CAP:
            return make_space(dim, m.T @ m + np.eye(dim))
    raise SolveFailure("could not draw a well-conditioned Gram")


def random_operator(
    rng: np.random.Generator,
    domain: InnerSpace,
    codomain: InnerSpace,
    rank: int | None = None,
) -> Operator:
    """Random operator with standard normal entries.

    ``rank=None`` draws a full dense matrix; otherwise a product of thin
    normal factors.  Resampled until the relative spectral gap at the target
    rank clears RANK_GAP so rank decisions are never borderline.
    """
    full = min(domain.dim, codomain.dim)
    target = full if rank is None or rank >= full else max(rank, 0)
    for _ in range(256):
        if target == 0:
            return Operator(domain, codomain, np.zeros((codomain.dim, domain.dim)))
        if rank is None or target == full:
            mat = rng.standard_normal((codomain.dim, domain.dim))
        else:
            left = rng.standard_normal((codomain.dim, target))
            right = rng.standard_normal((target, domain.dim))
            mat = left @ right
        op = Operator(domain, codomain, mat)
        s = op.svd[1]
        if s[0] == 0.0:
            continue
        if s[target - 1] / s[0] >= RANK_GAP:
            return op
    raise SolveFailure("could not draw an operator with a clean rank gap")  # pragma: no cover


IDENTITY_TOLS: dict[str, float] = {
    "penrose": 1e-10,
    "adjoint_involution": 1e-12,
    "adjoint_product": 1e-10,
    "pinv_involution": 1e-10,
    "item1": 1e-10,
    "item2": 1e-10,
    "item3": 1e-10,
    "item4": 1e-10,
    "item5": 1e-10,
    "item6": 1e-10,
    "norm_split_whole": 1e-10,
    "norm_split_range": 1e-10,
    "tb_pinv_crosscheck": 1e-9,
    "tb_adjoint_pair": 1e-10,
    "tb_projections": 1e-10,
    "factorization": 1e-10,
}

DOUGLAS_TOLS: dict[str, float] = {
    "douglas_factorization": 1e-10,
    "douglas_nullspace": 1e-10,
    "douglas_range": 1e-10,
    "douglas_domination_excess": 1e-9,
}


def _draw_shapes(rng: np.random.Generator) -> tuple[int, int, int | None]:
    m, n = (int(rng.integers(1, DIM_CAP + 1)) for _ in range(2))
    full = min(m, n)
    # deterministic-by-seed mix: full rank, deficient, and zero operators
    roll = rng.random()
    if roll < 0.55 or full == 1:
        rank = None
    elif roll < 0.9:
        rank = int(rng.integers(1, full))
    else:
        rank = 0
    return m, n, rank


def identity_suite(
    trials: int = 100,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Worst-case residuals of the operator identities over random fixtures.

    Populations mix square/tall/wide shapes and full/deficient/zero ranks, so
    both injective and non-injective adjoints occur.  A small population may
    draw no injective adjoint; its report then lists no ``item5`` gate.
    """
    rng = default_rng(seed)
    rec = Recorder("oplab")
    for _ in range(trials):
        ncols, nrows, rank = _draw_shapes(rng)
        dom = random_space(rng, ncols)
        cod = random_space(rng, nrows)
        a = random_operator(rng, dom, cod, rank=rank)
        p = _pinv_pair(a)

        rec.record("penrose", rel_diff((a @ p.b @ a).mat, a.mat))
        rec.record("penrose", rel_diff((p.b @ a @ p.b).mat, p.b.mat))
        rec.record("penrose", rel_diff(adjoint(a @ p.b).mat, (a @ p.b).mat))
        rec.record("penrose", rel_diff(adjoint(p.b @ a).mat, (p.b @ a).mat))
        rec.record("adjoint_involution", rel_diff(adjoint(adjoint(a)).mat, a.mat))
        rec.record("pinv_involution", rel_diff(pinv(p.b).mat, a.mat))

        third = random_space(rng, int(rng.integers(1, DIM_CAP + 1)))
        c = random_operator(rng, third, dom)
        rec.record("adjoint_product", rel_diff(adjoint(a @ c).mat, (adjoint(c) @ adjoint(a)).mat))

        for name, value in labrousse_check(a).items():
            rec.record(name, value)

        x = rng.standard_normal(dom.dim)
        _, _, res = norm_identity_check(a, x)
        rec.record("norm_split_whole", res["whole_space"])
        rec.record("norm_split_range", res["range_restricted"])

        t_b, t_bstar = build_tb(a)
        w = p.bstar @ p.root_bbs
        rec.record("tb_pinv_crosscheck", rel_diff(t_b.mat, pinv(w).mat))
        rec.record("tb_adjoint_pair", rel_diff(adjoint(t_b).mat, t_bstar.mat))
        rec.record("tb_projections", rel_diff((t_b @ w).mat, (p.b @ a).mat))
        rec.record("tb_projections", rel_diff((w @ t_b).mat, (a @ p.b).mat))

        rec.record("factorization", rel_diff((p.root_bsb @ t_bstar).mat, a.mat))

    return rec.report(IDENTITY_TOLS, tolerances, {"trials": float(trials), "dim_cap": float(DIM_CAP)})


def douglas_suite(
    pairs: int = 50,
    seed: int = 1,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Factor-through checks on random pairs with nested ranges (a = b @ m)."""
    rng = default_rng(seed)
    rec = Recorder("oplab")
    for _ in range(pairs):
        k, na, nb = (int(rng.integers(1, DIM_CAP + 1)) for _ in range(3))
        cod = random_space(rng, k)
        dom_a = random_space(rng, na)
        dom_b = random_space(rng, nb)
        full_b = min(k, nb)
        rank_b = None if rng.random() < 0.6 or full_b == 1 else int(rng.integers(1, full_b))
        b = random_operator(rng, dom_b, cod, rank=rank_b)
        m = random_operator(rng, dom_a, dom_b)
        a = b @ m

        c, mu = douglas_factor(a, b)
        rec.record("douglas_factorization", rel_diff((b @ c).mat, a.mat))

        null_c = np.eye(na) - (pinv(c) @ c).mat
        null_a = np.eye(na) - (pinv(a) @ a).mat
        rec.record("douglas_nullspace", rel_diff(null_c, null_a))

        onto_bstar = (pinv(b) @ b).mat          # projector onto range(b*) in dom_b
        rec.record("douglas_range", rel_diff(c.mat, onto_bstar @ c.mat))

        astar = adjoint(a)
        bstar = adjoint(b)
        aas = a.mat @ astar.mat
        bbs = b.mat @ bstar.mat
        gram = cod.gram
        for _ in range(20):
            y = rng.standard_normal(k)
            qa = float(y @ gram @ aas @ y)
            qb = float(y @ gram @ bbs @ y)
            rec.record("douglas_domination_excess", (qa - mu * qb) / max(qa, qb, 1.0))

    return rec.report(DOUGLAS_TOLS, tolerances, {"pairs": float(pairs)})
