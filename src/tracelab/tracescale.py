"""Boundary-value solvers and the fractional boundary-norm scale, with the
verification suites that exercise them.

Everything is built from one Assembly: the trace map, its minimal-energy
extension (a Schur-complement solve), the Robin solvers, the weak normal
derivative, and the family of boundary Grams Q_s = M_b (I + S)^(2s) where
S is the extension's energy operator on boundary L2.  Every SPD boundary
Gram (each Q_s, the Schur complement M_b S and the comparison Grams of the
suites) is an ``oplab.InnerSpace``: validated and Cholesky-factored once by
``oplab.make_space``, and every solve with it goes through that factor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import default_rng

from . import kernels, oplab
from .errors import (
    BadParameter,
    DimensionMismatch,
    GramNotPD,
    NonFiniteInput,
    NotHarmonic,
    NotPositiveDefinite,
    OrderOutOfRange,
    SolveFailure,
    ZeroVector,
)
from .fem2d import Assembly, block_factor, block_solve, boundary_spaces, forward_gram, mass_product
from .fem2d import space_h1partial
from .kernels import jacobi_svd  # noqa: F401 - unused; perfbench/selftest.py checks tracing patches it
from .oplab import Operator, rel_diff
from .report import Recorder, SuiteReport

_TINY = 1e-300
HARMONIC_GATE = 1e-8


# ---------------------------------------------------------------------------
# cached per-assembly factorizations (assemblies are immutable)


@lru_cache(maxsize=32)
def _partition(a: Assembly) -> tuple[np.ndarray, np.ndarray]:
    bnd = a.mesh.boundary_nodes
    inside = np.ones(a.mesh.n_nodes, dtype=bool)
    inside[bnd] = False
    return bnd, np.flatnonzero(inside)


@lru_cache(maxsize=32)
def _interior_chol(a: Assembly) -> np.ndarray:
    """Block Cholesky factor of the interior stiffness block K_ii, as the
    dense blocks of ``fem2d.block_factor``: blocks of b = bw + 1 rows for
    the interior bandwidth bw, ``blocks[k] = [L_kk^-1; L_{k+1,k}]``.  A pivot
    block that is not positive definite raises SolveFailure.
    """
    _, interior = _partition(a)
    try:
        return block_factor(a.K, interior, "the interior stiffness block")
    except NotPositiveDefinite as exc:
        raise SolveFailure(str(exc)) from exc


def _interior_solve(a: Assembly, rhs: np.ndarray) -> np.ndarray:
    """K_ii^-1 rhs for one vector or a block of interior right-hand sides:
    forward and then backward block substitution with the blocks of
    ``_interior_chol``.  ``_schur`` runs the forward half alone, on K_ib,
    through ``fem2d.forward_gram``.
    """
    return block_solve(_interior_chol(a), rhs)


@lru_cache(maxsize=32)
def _coupling(a: Assembly) -> tuple[np.ndarray, np.ndarray]:
    """K_ib, the one block of K that links the interior to the boundary, read
    off the band once.

    Returns (ring, c): ``ring`` the ascending interior positions whose row of
    K_ib is nonzero (the interior nodes that touch the boundary), and ``c``
    the dense block ``K[interior[ring]][:, bnd]``, ring.size x nb, read-only.
    Every other row of K_ib is zero, so every K_ib and K_bi product is a
    product with ``c``.
    """
    bnd, interior = _partition(a)
    i, j, v = a.K.entries(interior, bnd)
    touch = np.zeros(interior.size, dtype=bool)
    touch[i] = True
    ring = np.flatnonzero(touch)
    c = np.zeros((ring.size, bnd.size))
    c[np.searchsorted(ring, i), j] = v
    for arr in (ring, c):
        arr.setflags(write=False)
    return ring, c


@lru_cache(maxsize=32)
def _extension_matrix(a: Assembly) -> np.ndarray:
    """Minimal-energy extension of every boundary hat, as columns.  Nothing
    in tracelab calls it: the suites extend only the columns they check,
    by ``_extend``.  It is kept because ``perfbench/tracer.py`` reports its
    cache counters."""
    z = _extend(a, np.eye(a.M_b.shape[0]))
    z.setflags(write=False)
    return z


@lru_cache(maxsize=32)
def _schur(a: Assembly) -> oplab.InnerSpace:
    """M_b S = M_b + K_bb - K_bi K_ii^-1 K_ib: the Schur complement of the
    combined H1 Gram onto the boundary, from the stiffness band and the
    blocks of ``_interior_chol``, never from the Gram.  K_bi K_ii^-1 K_ib
    is ``fem2d.forward_gram`` of K_ii's factor and K_ib's entries, so no
    n_nodes x nb array is made.  As a space, so its one Cholesky factor
    serves every Robin and Poisson-Robin solve."""
    bnd, interior = _partition(a)
    mbs = np.array(a.M_b)
    i, j, v = a.K.entries(bnd, bnd)
    mbs[i, j] += v
    if interior.size:
        mbs -= forward_gram(_interior_chol(a), *a.K.entries(interior, bnd), bnd.size)
    return oplab.make_space(bnd.size, np.triu(mbs) + np.triu(mbs, 1).T)


@lru_cache(maxsize=32)
def _s_operator(a: Assembly) -> Operator:
    """S on boundary L2, from the Schur complement: S = M_b^-1 (M_b S)."""
    l2bnd, _ = boundary_spaces(a)
    return Operator(l2bnd, l2bnd, l2bnd.solve(_schur(a).gram))


@lru_cache(maxsize=32)
def _s_spectrum(a: Assembly) -> oplab.SpectralDecomposition:
    """Spectral decomposition of I + S: the one eigensolve behind the orders
    of the scale that are not multiples of 1/4."""
    s_op = _s_operator(a)
    return oplab.spectral(oplab.identity(s_op.domain) + s_op)


@lru_cache(maxsize=32)
def _s_roots(a: Assembly) -> tuple[Operator, Operator]:
    """((I + S)^(1/2), (I + S)^(-1/2)) on boundary L2, from ``oplab.half_powers``:
    the one square root behind the orders of the scale with 4s in Z that are
    not exact matrix powers, and the smoothing of ``suite_hhalf``."""
    s_op = _s_operator(a)
    return oplab.half_powers(oplab.identity(s_op.domain) + s_op)


@lru_cache(maxsize=32)
def _trace_pinv(a: Assembly) -> oplab.InnerSpace:
    """C = R G^-1 R' = [G^-1]_bb as a space, the block of the trace pinv's
    range-space formula: the trace is onto, so its pinv is
    gamma* (gamma gamma*)^-1, and with gamma* = G^-1 R' M_b it is
    Lambda = G^-1 R' C^-1.  C is ``fem2d.forward_gram`` of G's factor and the
    boundary nodes' one-hot columns, so no n_nodes x nb array is made.  C^-1
    equals M_b S, G's Schur complement onto the boundary, but C reads G's
    factor alone, never ``_schur`` or K_ii's: ``harmonic_two_path`` and
    ``suite_hhalf``'s quotient Gram M_b + C^-1 keep two independent paths.
    """
    bnd, _ = _partition(a)
    c = forward_gram(space_h1partial(a).blocks, bnd, np.arange(bnd.size), np.ones(bnd.size), bnd.size)
    return oplab.make_space(bnd.size, np.triu(c) + np.triu(c, 1).T)


def _representers(a: Assembly, y: np.ndarray) -> np.ndarray:
    """G^-1 R' y for an (nb, k) block y: the combined-H1 representers of the
    boundary functionals y, each block of NECAS_BLOCK columns scattered onto
    the boundary nodes and solved with G's band factor.  No dense R' is made.
    """
    out = np.empty((a.mesh.n_nodes, y.shape[1]))
    for start in range(0, y.shape[1], NECAS_BLOCK):
        block = y[:, start : start + NECAS_BLOCK]
        rhs = np.zeros((a.mesh.n_nodes, block.shape[1]))
        rhs[a.mesh.boundary_nodes] = block
        out[:, start : start + block.shape[1]] = space_h1partial(a).solve(rhs)
    return out


# ---------------------------------------------------------------------------
# solvers


def _columns(x, rows: int, what: str) -> np.ndarray:
    """``x`` as floats, checked to be a finite (rows,) vector or (rows, k) block."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} {what} values per column, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} values must be finite")
    return x


def harmonic_extension(a: Assembly, g) -> np.ndarray:
    """Extend boundary values with minimal combined-H1 energy.

    ``g`` is one (nb,) vector or an (nb, k) block whose columns are extended
    together; the result has shape (n_nodes,) or (n_nodes, k).  Boundary
    entries are copied verbatim; interior entries solve the interior
    stiffness equations (discrete harmonicity).
    """
    return _extend(a, _columns(g, a.M_b.shape[0], "boundary"))


def _extend(a: Assembly, g: np.ndarray) -> np.ndarray:
    """harmonic_extension of boundary values already checked by ``_columns``."""
    bnd, interior = _partition(a)
    z = np.zeros((a.mesh.n_nodes,) + g.shape[1:])
    z[bnd] = g
    if interior.size:  # K_ii z_i = -K_ib g, nonzero only on the ring
        ring, c = _coupling(a)
        rhs = np.zeros((interior.size,) + g.shape[1:])
        rhs[ring] = -(c @ g)
        z[interior] = _interior_solve(a, rhs)
    return z


def robin_solve(a: Assembly, g) -> np.ndarray:
    """Solve G z = M_b g on the boundary rows: zero-load Robin problem with data g.

    ``g`` is one (nb,) vector or an (nb, k) block whose columns are solved
    together; the solution has shape (n_nodes,) or (n_nodes, k).  Solved by
    static condensation: with no interior load z is harmonic, and its
    boundary values solve M_b S z_b = M_b g, so z = harmonic_extension(S^-1 g).
    """
    g = _columns(g, a.M_b.shape[0], "boundary")
    return _extend(a, _schur(a).solve(a.M_b @ g))


def poisson_robin(a: Assembly, f) -> np.ndarray:
    """Solve G u = M_dom f: source problem with homogeneous Robin boundary.

    ``f`` is one (n_nodes,) vector or an (n_nodes, k) block of sources; the
    solution has the same shape.  Solved by static condensation: y = K_ii^-1
    b_i for the load b = M_dom f, then M_b S u_b = b_b - (K y)_b on the
    boundary (y is zero there, so (K y)_b = K_bi y_i, from ``_coupling``),
    and u = y + harmonic_extension(u_b).
    """
    f = _columns(f, a.mesh.n_nodes, "source")
    bnd, interior = _partition(a)
    load = a.M_dom @ f
    u = np.zeros_like(load)
    if interior.size:
        u[interior] = _interior_solve(a, load[interior])
    ring, c = _coupling(a)
    return u + _extend(a, _schur(a).solve(load[bnd] - c.T @ u[interior[ring]]))


def normal_derivative(a: Assembly, z) -> np.ndarray:
    """Weak outward flux of a discrete-harmonic function.

    ``z`` is one (n_nodes,) vector or an (n_nodes, k) block of columns; the
    flux has shape (nb,) or (nb, k).  Solves M_b w = (K z) on boundary rows.
    Each column must have interior rows of K z that vanish relative to its
    own norm (gate HARMONIC_GATE), since the weak flux is defined here only
    for harmonic inputs; one failing column raises NotHarmonic.
    """
    z = _columns(z, a.mesh.n_nodes, "domain")
    return _flux(a, z, a.K @ z)


def _flux(a: Assembly, z: np.ndarray, kz: np.ndarray) -> np.ndarray:
    """normal_derivative of a checked ``z``, given its product ``kz`` = K z."""
    bnd, interior = _partition(a)
    if interior.size:
        gate = HARMONIC_GATE * np.linalg.norm(z, axis=0)
        if np.any(np.linalg.norm(kz[interior], axis=0) > gate):
            raise NotHarmonic("interior residual exceeds the harmonicity gate")
    l2bnd, _ = boundary_spaces(a)
    return l2bnd.solve(kz[bnd])


def green_residual(a: Assembly, z, v) -> float | np.ndarray:
    """|v' K z - <flux(z), v|boundary>_Mb| / max(|z||v|, 1).

    ``z`` and ``v`` are one (n_nodes,) pair, giving a float, or two
    (n_nodes, k) blocks paired column by column, giving a (k,) array.
    """
    z = _columns(z, a.mesh.n_nodes, "domain")
    v = _columns(v, a.mesh.n_nodes, "domain")
    if z.shape != v.shape:
        raise DimensionMismatch(f"green_residual pairs {z.shape} with {v.shape}")
    kz = a.K @ z
    w = _flux(a, z, kz)
    lhs = np.sum(v * kz, axis=0)
    rhs = np.sum(w * (a.M_b @ v[a.mesh.boundary_nodes]), axis=0)
    scale = np.maximum(np.linalg.norm(z, axis=0) * np.linalg.norm(v, axis=0), 1.0)
    res = np.abs(lhs - rhs) / scale
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# the fractional boundary-norm scale


@lru_cache(maxsize=128)
def _hs_gram_cached(a: Assembly, s: float) -> oplab.InnerSpace:
    l2bnd, _ = boundary_spaces(a)
    if s == 0.0:
        return l2bnd
    two_s, four_s = 2.0 * s, 4.0 * s
    grow = np.eye(l2bnd.dim) + _s_operator(a).mat
    if two_s.is_integer() and s > 0:
        # integer powers stay exact products, no square-root or eigendecomposition rounding
        p_mat = np.linalg.matrix_power(grow, int(two_s))
    elif four_s.is_integer() and s > 0:
        # (I + S)^floor(2s) (I + S)^(1/2)
        root = _s_roots(a)[0].mat
        p_mat = root if two_s < 1.0 else np.linalg.matrix_power(grow, int(two_s)) @ root
    elif four_s.is_integer():
        p_mat = np.linalg.matrix_power(_s_roots(a)[1].mat, int(-four_s))
    else:
        p_mat = _s_spectrum(a).power(two_s).mat
    q = a.M_b @ p_mat
    return oplab.make_space(l2bnd.dim, 0.5 * (q + q.T))


def hs_gram(a: Assembly, s: float) -> oplab.InnerSpace:
    """The order-s boundary norm as a space: its Gram is Q_s = M_b (I + S)^(2s).

    |g|_s equals the boundary-L2 norm of (I + S)^s g.  The route to
    (I + S)^(2s) depends on the order, with H = (I + S)^(1/2) and H^-1 the
    cached pair of ``_s_roots`` (one ``kernels.spd_sqrt``, no eigensolve):

    ==========================  ==============================================
    order s                     (I + S)^(2s)
    ==========================  ==============================================
    0                           the boundary L2 space itself
    1/2, 1                      (I + S)^(2s), an exact matrix power
    1/4, 3/4                    (I + S)^floor(2s) H
    -1/4, -1/2, -3/4, -1        (H^-1)^(-4s)
    any other (4s not in Z)     the power of the cached eigendecomposition
                                of I + S (``_s_spectrum``)
    ==========================  ==============================================

    Each space is cached per (assembly, order), so its Cholesky factor is
    taken once.
    """
    s = float(s)
    if not -1.0 <= s <= 1.0:
        raise OrderOutOfRange(f"order {s} outside [-1, 1]")
    return _hs_gram_cached(a, s)


def equivalence_constants(qa: oplab.InnerSpace, qb: oplab.InnerSpace) -> tuple[float, float]:
    """Tight two-sided comparison constants between the norms of two spaces.

    Returns (c_min, c_max) with c_min |g|_b <= |g|_a <= c_max |g|_b for all
    g, from the extreme eigenvalues of the generalized eigenproblem of the
    two Grams.  The problem is reduced with qb's stored Cholesky factor L,
    so no Gram is factored again, and ``kernels.extreme_eigh`` gives its
    certified extremes: c_min^2 and c_max^2 are shifts at which a Cholesky
    of the reduced Gram less (or below) the shift succeeded.  Each bound
    must be attained by its extreme vector: that vector's own norm ratio
    is checked against the bound, and a miss raises SolveFailure.
    """
    if qa.dim != qb.dim:
        raise DimensionMismatch("norm Grams live on different dimensions")
    # the Gram of qa in qb's orthonormal coordinates, L^-1 qa L^-T, symmetrized
    sym = qb.lower_solve(qb.lower_solve(qa.gram).T).T
    w, y = kernels.extreme_eigh(0.5 * (sym + sym.T))
    x = qb.lower_solve(y, trans=True)
    c_min = float(np.sqrt(max(w[0], 0.0)))
    c_max = float(np.sqrt(max(w[1], 0.0)))
    for col, c in ((x[:, 0], c_min), (x[:, 1], c_max)):
        na = qa.norm(col)
        nb = qb.norm(col)
        if abs(na - c * nb) > 1e-8 * max(na, 1e-30):
            raise SolveFailure("equivalence constant not attained by its eigenvector")
    return c_min, c_max


# ---------------------------------------------------------------------------
# verification suites


def _recorder(suite: str, a: Assembly) -> Recorder:
    return Recorder(suite, a.mesh.kind, a.mesh.refinement)


def _check_counts(**counts: int) -> None:
    """Raise BadParameter for a negative sample count; a count of 0 draws nothing."""
    for name, n in counts.items():
        if n < 0:
            raise BadParameter(f"{name} must be >= 0, got {n}")


# most samples of necas, identity samples of pde or columns of G^-1 R' y (_representers) solved as one block
NECAS_BLOCK = 64


def _block_widths(n: int) -> list[int]:
    """The widths of the fewest blocks of at most NECAS_BLOCK columns that
    hold n columns, as equal as they can be, the wider ones first."""
    if not n:
        return []
    count = -(-n // NECAS_BLOCK)
    width, wider = divmod(n, count)
    return [width + 1] * wider + [width] * (count - wider)


PDE_TOLS: dict[str, float] = {
    "harmonic_two_path": 1e-8,
    "robin_two_path": 1e-10,
    "poisson_two_path": 1e-10,
    "extension_trace_identity": 1e-10,
    "harmonic_projection": 1e-10,
    "green_formula": 1e-10,
    "robin_boundary": 1e-10,
    "poisson_symmetry": 1e-10,
    "linear_reproduction": 1e-10,
    "hand_robin_ones": 1e-12,
    "hand_robin_affine": 1e-12,
    "hand_s_matrix": 1e-12,
}


def _maxabs(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _colquad(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x_j' mat x_j for every column x_j of x."""
    return np.einsum("ij,ij->j", x, mat @ x)


def _colnorm(x: np.ndarray, q: oplab.InnerSpace) -> np.ndarray:
    """The norm of ``q`` of every column of x."""
    return np.sqrt(np.maximum(_colquad(x, q.gram), 0.0))


def _pde_projection(rec: Recorder, a: Assembly, lam: np.ndarray) -> None:
    """P = Lambda R projects onto the discrete-harmonic functions, H1-orthogonally.

    The trace R is read as the boundary index set: R Lambda is Lambda's
    boundary rows, and |X R| = |X| as X R only places X's columns.  So P^2 = P
    reads Lambda (R Lambda) = Lambda, and G P - (G P)' for A = G Lambda holds
    A_bb - A_bb' and, twice, A_ib: no n_nodes x n_nodes array is made.
    """
    h1 = space_h1partial(a)
    bnd, interior = _partition(a)
    rl = lam[bnd]
    rec.record("extension_trace_identity", rel_diff(rl, np.eye(rl.shape[0])))
    rec.record("harmonic_projection", rel_diff(lam @ rl, lam))
    gl = h1.gram @ lam
    gl_bb = gl[bnd]
    asym = np.sqrt(np.sum((gl_bb - gl_bb.T) ** 2) + 2.0 * np.sum(gl[interior] ** 2))
    rec.record("harmonic_projection", float(asym) / max(float(np.linalg.norm(gl)), 1.0))


def _pde_trials(rec: Recorder, a: Assembly, lam: np.ndarray, rng: np.random.Generator, trials: int) -> None:
    """Each solver against its operator-algebra twin, over one block of trials.

    Trial j draws g_j, f_j and f2_j in turn; each family is solved as one block.
    """
    nb, nn = a.M_b.shape[0], a.mesh.n_nodes
    draws = rng.standard_normal((trials, nb + 2 * nn)).T
    g, f, f2 = draws[:nb], draws[nb : nb + nn], draws[nb + nn :]

    z = harmonic_extension(a, g)
    rec.record("harmonic_two_path", _maxabs(z - lam @ g))
    rec.record("harmonic_projection", _maxabs(lam @ z[a.mesh.boundary_nodes] - z))
    # the twin G^-1 R' M_b g, adjoint of the trace, goes through G's factor;
    # the solver goes through K_ii
    rec.record("robin_two_path", _maxabs(robin_solve(a, g) - _representers(a, a.M_b @ g)))

    u = poisson_robin(a, f)
    # the twin G^-1 M_dom, adjoint of the embedding H1 -> L2(domain), goes through
    # G's own factor and the element masses: no band product shared with the solver
    rec.record("poisson_two_path", _maxabs(u - space_h1partial(a).solve(mass_product(a.mesh, f))))
    lhs = np.sum(f * (a.M_dom @ poisson_robin(a, f2)), axis=0)
    rhs = np.sum(f2 * (a.M_dom @ u), axis=0)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    rec.record("poisson_symmetry", _maxabs(np.abs(lhs - rhs) / scale))


def _pde_identities(rec: Recorder, a: Assembly, rng: np.random.Generator, samples: int) -> None:
    """Green's formula and the Robin boundary condition, over blocks of samples.

    Sample j draws its boundary data g_j and then its test function v_j.  The
    samples are taken in ``_block_widths`` blocks, each drawing its rows of
    the one stream in turn, so memory does not grow with the sample count.
    """
    nb = a.M_b.shape[0]
    for width in _block_widths(samples):
        draws = rng.standard_normal((width, nb + a.mesh.n_nodes)).T
        g, v = draws[:nb], draws[nb:]
        rec.record("green_formula", _maxabs(green_residual(a, harmonic_extension(a, g), v)))
        zr = robin_solve(a, g)
        rec.record("robin_boundary", _maxabs(normal_derivative(a, zr) + zr[a.mesh.boundary_nodes] - g))


def suite_pde(
    a: Assembly,
    trials: int = 20,
    identity_samples: int = 200,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Solver characterizations: each boundary-value solver against its
    operator-algebra twin, plus the flux/boundary identities.

    The trace pinv Lambda = G^-1 R' C^-1 is formed here from the cached C
    (``_trace_pinv``) and freed with the suite.  The trial population is
    drawn with one call and solved as one block of columns; the identity
    population follows in blocks of at most NECAS_BLOCK columns.  The twins
    of the trial phase are freed before the identity population is drawn.
    """
    _check_counts(trials=trials, identity_samples=identity_samples)
    rng = default_rng(seed)
    lam = _representers(a, _trace_pinv(a).solve(np.eye(a.M_b.shape[0])))
    rec = _recorder("pde", a)
    _pde_projection(rec, a, lam)
    if trials:
        _pde_trials(rec, a, lam, rng, trials)
    if identity_samples:
        _pde_identities(rec, a, rng, identity_samples)

    # linear coordinate functions are harmonic and representable exactly
    xs = np.ascontiguousarray(a.mesh.nodes[:, 0])
    rec.record("linear_reproduction", _maxabs(harmonic_extension(a, xs[a.mesh.boundary_nodes]) - xs))

    if a.mesh.kind == "interval":
        ones = np.ones(2)
        rec.record("hand_robin_ones", _maxabs(robin_solve(a, ones) - 1.0))
        affine = (2.0 / 3.0) * (1.0 - xs) + (1.0 / 3.0) * xs
        rec.record("hand_robin_affine", _maxabs(robin_solve(a, np.array([1.0, 0.0])) - affine))
        rec.record("hand_s_matrix", _maxabs(_s_operator(a).mat - np.array([[2.0, -1.0], [-1.0, 2.0]])))

    constants = {"trials": float(trials), "identity_samples": float(identity_samples)}
    return rec.report(PDE_TOLS, tolerances, constants)


HHALF_TOLS: dict[str, float] = {
    "proof_identity": 1e-9,
    "energy_split": 1e-10,
    "x_trace_energy": 1e-10,
}

# g = x on the boundary is the trace of the harmonic P1 function x, so
# g' Q_{1/2} g = |g|^2_{L2(bnd)} + |grad x|^2 + |g|^2_{L2(bnd)} = |Omega| + 2 int x^2 ds
# exactly at every refinement.  Taken from each domain's edges (x = 0 on the
# left ones); the interval's boundary {0, 1} carries the counting measure.
X_TRACE_ENERGY: dict[str, float] = {
    "interval": 1.0 + 2.0 * (0.0 + 1.0),
    # bottom, right, top
    "square": 1.0 + 2.0 * (1.0 / 3.0 + 1.0 + 1.0 / 3.0),
    # bottom, lower right, inner horizontal, inner vertical, top
    "lshape": 0.75 + 2.0 * (1.0 / 3.0 + 1.0 / 2.0 + 7.0 / 24.0 + 1.0 / 8.0 + 1.0 / 24.0),
}


def suite_hhalf(
    a: Assembly,
    trials: int = 50,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Order-1/2 characterization: the proof identity H^-1 (I + S) H^-1 = I
    for the smoothing H^-1 = (I + S)^(-1/2), the exact energy split, the
    closed-form energy of g = x on the boundary (``X_TRACE_ENERGY``), and
    the comparison against the minimal-extension (trace-quotient) norm.

    The quotient Gram M_b + Lambda' G Lambda = M_b + C^-1 is built from
    C = R G^-1 R' (``_trace_pinv``, G's factor) while the scale Gram comes
    from the Schur complement M_b S (K_ii's factor), so the reported
    constants genuinely compare two code paths (they sit at 1 in exact
    arithmetic).
    """
    _check_counts(trials=trials)
    if a.mesh.kind not in X_TRACE_ENERGY:
        raise BadParameter(f"no closed x_trace_energy for mesh kind {a.mesh.kind!r}")
    rng = default_rng(seed)
    h1 = space_h1partial(a)
    l2bnd, _ = boundary_spaces(a)
    nb = l2bnd.dim
    q_half = hs_gram(a, 0.5)

    rec = _recorder("hhalf", a)
    shrink = _s_roots(a)[1].mat
    eye = np.eye(nb)
    rec.record("proof_identity", rel_diff(shrink @ (eye + _s_operator(a).mat) @ shrink, eye))

    if trials:
        # one draw per trial, as columns; the extension energy goes through G
        g = rng.standard_normal((trials, nb)).T
        total = _colquad(g, q_half.gram)
        split = total - _colquad(g, a.M_b) - _colquad(_extend(a, g), h1.gram)
        rec.record("energy_split", _maxabs(np.abs(split) / np.maximum(total, _TINY)))

    xb = a.mesh.nodes[a.mesh.boundary_nodes, 0]
    rec.record("x_trace_energy", abs(float(xb @ q_half.gram @ xb) / X_TRACE_ENERGY[a.mesh.kind] - 1.0))

    quot = a.M_b + _trace_pinv(a).solve(eye)
    c_min, c_max = equivalence_constants(q_half, oplab.make_space(nb, 0.5 * (quot + quot.T)))

    constants = {"quotient_cmin": c_min, "quotient_cmax": c_max}
    if a.mesh.kind == "interval":
        s_mat = _s_operator(a).mat
        g0 = np.array([1.0, 0.0])
        ext0 = _extend(a, g0)
        constants.update(
            {
                "s_00": float(s_mat[0, 0]),
                "s_01": float(s_mat[0, 1]),
                "s_10": float(s_mat[1, 0]),
                "s_11": float(s_mat[1, 1]),
                "split_total": float(g0 @ q_half.gram @ g0),
                "split_l2": float(g0 @ a.M_b @ g0),
                "split_extension": float(ext0 @ (h1.gram @ ext0)),
            }
        )

    return rec.report(HHALF_TOLS, tolerances, constants)


H1_TOLS: dict[str, float] = {
    "resolvent_identity": 1e-9,
    "ts_left": 1e-9,
    "ts_right": 1e-9,
}


def suite_h1(
    a: Assembly,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Order-1 characterization: resolvent identity, the scale-vs-boundary-FEM
    comparison, and the two mutually inverse bridge operators.
    """
    l2bnd, h1bnd = boundary_spaces(a)
    nb = l2bnd.dim
    eye = np.eye(nb)
    s_mat = _s_operator(a).mat

    rec = _recorder("h1", a)
    # trace o adjoint on boundary L2, R G^-1 R' M_b = C M_b, through G
    gg = _trace_pinv(a).gram @ a.M_b
    lhs = gg @ np.linalg.solve(eye + gg, eye)
    resolvent = np.linalg.solve(eye + s_mat, eye)
    rec.record("resolvent_identity", rel_diff(lhs, resolvent))

    h1_cmin, h1_cmax = equivalence_constants(hs_gram(a, 1.0), h1bnd)

    vsv = Operator(l2bnd, l2bnd, l2bnd.solve(h1bnd.gram))  # M_b^-1 (M_b + K_b) on boundary L2
    half, shrink = (x.mat for x in oplab.half_powers(oplab.identity(l2bnd) + vsv))
    bridge_t = (eye + s_mat) @ shrink
    bridge_s = half @ resolvent
    rec.record("ts_left", rel_diff(bridge_t @ bridge_s, eye))
    rec.record("ts_right", rel_diff(bridge_s @ bridge_t, eye))

    def _cond(mat: np.ndarray) -> float:
        # sigma_max / sigma_min of mat on boundary L2: its squares are the
        # extreme generalized eigenvalues of (mat' M_b mat, M_b)
        gram = mat.T @ a.M_b @ mat
        try:
            space = oplab.make_space(nb, 0.5 * (gram + gram.T))
        except NotPositiveDefinite as exc:
            raise GramNotPD("a bridge operator of suite_h1 is singular") from exc
        c_min, c_max = equivalence_constants(space, l2bnd)  # c_min = 0 fails its attainment check
        return c_max / c_min

    semi = half.T @ a.M_b @ half
    semi_cmin, semi_cmax = equivalence_constants(oplab.make_space(nb, 0.5 * (semi + semi.T)), h1bnd)

    constants = {
        "h1_cmin": h1_cmin,
        "h1_cmax": h1_cmax,
        "seminorm_cmin": semi_cmin,
        "seminorm_cmax": semi_cmax,
        "cond_t": _cond(bridge_t),
        "cond_s": _cond(bridge_s),
    }
    return rec.report(H1_TOLS, tolerances, constants)


NECAS_TOLS: dict[str, float] = {
    "sample_failures": 0.0,
}


def _running_max(values: np.ndarray, worst: float = 0.0) -> float:
    """max(worst, v_1, v_2, ...) taken left to right, so a NaN sample is passed over."""
    for v in values.tolist():
        worst = max(worst, v)
    return worst


def necas_constants(
    a: Assembly,
    n_samples: int = 100,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Empirical boundary-control constants over random data.

    For harmonic u (extension of random g): the trace-control ratio
    |g|_{1,boundary} / (|u|_{1,domain}^2 + |flux|^2)^(1/2) and the flux-control
    ratio |flux| / (|u|_{1,domain}^2 + |g|_{1,boundary}^2)^(1/2), over both a
    rough and a smoothed boundary population.  Also the source-to-flux
    ratio for the zero-trace source problem.

    Sample j draws its boundary data g_j and then its source f_j.  The
    samples are taken in blocks of at most NECAS_BLOCK columns, each drawing
    its rows of the one stream in turn, so memory does not grow with
    n_samples.  Per block: one extension and one flux solve per boundary
    population, with the smoothed data (I + S)^-1 g solved through the
    stored factor of Q_{1/2} = M_b (I + S), and one interior solve for the
    sources.  A sample whose ratio is not finite counts as a failure.
    """
    _check_counts(n_samples=n_samples)
    rng = default_rng(seed)
    l2bnd, h1bnd = boundary_spaces(a)
    bnd, interior = _partition(a)
    ring, c = _coupling(a)
    nb = l2bnd.dim
    q_half = hs_gram(a, 0.5)
    h1_dom = a.K + a.M_dom

    def harmonic_ratios(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = harmonic_extension(a, g)
        w = normal_derivative(a, u)
        dom_sq = np.einsum("ij,ij->j", u, h1_dom @ u)
        flux_sq = _colquad(w, a.M_b)
        trace_sq = _colquad(g, h1bnd.gram)
        r1 = np.sqrt(trace_sq) / np.sqrt(dom_sq + flux_sq)
        r2 = np.sqrt(flux_sq) / np.sqrt(dom_sq + trace_sq)
        return r1, r2

    failures = 0
    worst = dict.fromkeys(
        ("trace_rough_max", "flux_rough_max", "trace_smooth_max", "flux_smooth_max", "rellich_max"), 0.0
    )
    for width in _block_widths(n_samples):
        draws = rng.standard_normal((width, nb + a.mesh.n_nodes)).T
        g_rough, f = draws[:nb], draws[nb:]
        g_smooth = q_half.solve(a.M_b @ g_rough)
        for name, g in (("rough", g_rough), ("smooth", g_smooth)):
            r1, r2 = harmonic_ratios(g)
            failures += int(np.count_nonzero(~(np.isfinite(r1) & np.isfinite(r2))))
            worst[f"trace_{name}_max"] = _running_max(r1, worst[f"trace_{name}_max"])
            worst[f"flux_{name}_max"] = _running_max(r2, worst[f"flux_{name}_max"])

        load = a.M_dom @ f
        u0 = np.zeros_like(f)
        if interior.size:
            u0[interior] = _interior_solve(a, load[interior])
        # weak flux of the source problem keeps the volume correction
        w0 = l2bnd.solve(c.T @ u0[interior[ring]] - load[bnd])
        f_norm = np.sqrt(np.maximum(np.einsum("ij,ij->j", f, load), 0.0))
        sourced = f_norm > 0.0
        ratio = np.sqrt(np.maximum(_colquad(w0[:, sourced], a.M_b), 0.0)) / f_norm[sourced]
        failures += int(np.count_nonzero(~np.isfinite(ratio)))
        worst["rellich_max"] = _running_max(ratio, worst["rellich_max"])

    r1_const, _ = harmonic_ratios(np.ones((nb, 1)))
    constants = dict(worst, trace_const=float(r1_const[0]), samples=float(n_samples))
    rec = _recorder("necas", a)
    rec.record("sample_failures", failures)
    return rec.report(NECAS_TOLS, tolerances, constants)


INTERP_TOLS: dict[str, float] = {
    "log_convexity_excess": 1e-10,
}

# the orders suite_interp checks
INTERP_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _record_log_convexity(rec: Recorder, a: Assembly, g: np.ndarray, grid) -> dict[float, np.ndarray]:
    """Record the log-convexity excess of t -> |(I+S)^t g| over ``grid``.

    ``g`` is an (nb, k) block of boundary vectors, checked column by column.
    Returns the norms of the columns at each order of the sorted grid.
    """
    grid = sorted(float(t) for t in grid)
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise OrderOutOfRange("order grid must lie in [0, 1]")
    if np.any(np.linalg.norm(g, axis=0) == 0.0):
        raise ZeroVector("interpolation check needs a nonzero boundary vector")

    # norms[i, c] = |(I+S)^t_i g_c| = (g_c' Q_t_i g_c)^(1/2), one row per order
    norms = np.array([_colnorm(g, hs_gram(a, t)) for t in grid])
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            for k in range(j + 1, len(grid)):
                t1, t, t2 = grid[i], grid[j], grid[k]
                if t2 == t1:
                    continue  # t1 = t = t2: the triple bounds nothing
                theta = (t2 - t) / (t2 - t1)
                bound = norms[i] ** theta * norms[k] ** (1.0 - theta)
                bounded = bound > 0.0
                if bounded.any():
                    rec.record("log_convexity_excess", np.max(norms[j, bounded] / bound[bounded] - 1.0))
    return dict(zip(grid, norms))


def interpolation_check(
    a: Assembly,
    g,
    grid,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Log-convexity of t -> |(I+S)^t g| on the given order grid in [0, 1].

    For every ordered triple t1 < t < t2 the norm at t must not exceed the
    geometric interpolation of the endpoint norms (up to 1e-10 slack).
    """
    rec = _recorder("interp", a)
    g = _columns(g, a.M_b.shape[0], "boundary")
    if g.ndim != 1:
        raise DimensionMismatch(f"interpolation_check takes one boundary vector, got shape {g.shape}")
    norms = _record_log_convexity(rec, a, g[:, None], grid)
    return rec.report(INTERP_TOLS, tolerances, {f"norm_t_{t:g}": float(v[0]) for t, v in norms.items()})


DUAL_TOLS: dict[str, float] = {
    "dual_gram": 1e-9,
    "dual_attainment": 1e-9,
    "dual_bound_excess": 1e-9,
}

# the (g, h) pairs each duality check draws, and the orders suite_dual checks
DUAL_PROBES = 20
DUAL_ORDERS = (0.25, 0.5, 0.75, 1.0)


def _record_duality(rec: Recorder, a: Assembly, s: float, seed: int) -> float:
    """Record the duality residuals of orders s and -s; returns the Gram identity residual."""
    s = float(s)
    if not 0.0 < s <= 1.0:
        raise OrderOutOfRange(f"order {s} outside (0, 1]")
    rng = default_rng(seed)
    q_pos = hs_gram(a, s)
    q_neg = hs_gram(a, -s)
    nb = q_pos.dim

    qinv_mb = q_pos.solve(a.M_b)  # the one solve with Q_s, by its own factor
    gram_residual = rel_diff(a.M_b @ qinv_mb, q_neg.gram)
    rec.record("dual_gram", gram_residual)

    # probe j draws g_j and then h_j, as the columns of g and h
    g, h = rng.standard_normal((DUAL_PROBES, 2, nb)).transpose(1, 2, 0)
    dual_norm = _colnorm(g, q_neg)
    h_star = qinv_mb @ g
    attained = np.sum(g * (a.M_b @ h_star), axis=0) / np.maximum(_colnorm(h_star, q_pos), _TINY)
    val = np.sum(g * (a.M_b @ h), axis=0) / np.maximum(_colnorm(h, q_pos), _TINY)
    scale = np.maximum(dual_norm, _TINY)
    rec.record("dual_attainment", np.max(np.abs(attained - dual_norm) / scale))
    rec.record("dual_bound_excess", np.max((val - dual_norm) / scale))
    return gram_residual


def duality_check(
    a: Assembly,
    s: float,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Duality of orders s and -s under the boundary-L2 pairing.

    Checks the Gram identity M_b Q_s^-1 M_b = Q_{-s} and spot-checks, at
    DUAL_PROBES random g, that sup_h <g,h>/|h|_s is attained at
    h = Q_s^-1 M_b g with value |g|_{-s}.
    """
    rec = _recorder("dual", a)
    _record_duality(rec, a, s, seed)
    return rec.report(DUAL_TOLS, tolerances, {"order": float(s)})


def suite_interp(
    a: Assembly,
    trials: int = 100,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """interpolation_check on INTERP_GRID over many random boundary vectors, worst case."""
    _check_counts(trials=trials)
    rng = default_rng(seed)
    nb = a.M_b.shape[0]
    rec = _recorder("interp", a)
    # trial j draws g_j, the j-th column
    _record_log_convexity(rec, a, rng.standard_normal((trials, nb)).T, INTERP_GRID)
    constants = {"trials": float(trials), "grid_points": float(len(INTERP_GRID))}
    return rec.report(INTERP_TOLS, tolerances, constants)


def suite_dual(
    a: Assembly,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """duality_check across DUAL_ORDERS, worst case per family."""
    rec = _recorder("dual", a)
    constants = {
        f"gram_residual_s_{s:g}": _record_duality(rec, a, s, seed + i) for i, s in enumerate(DUAL_ORDERS)
    }
    return rec.report(DUAL_TOLS, tolerances, constants)


def refinement_stability(
    suite: str,
    mesh: str,
    series: dict[str, list[float]],
    limit: float,
    mode: str,
) -> SuiteReport:
    """Cross-refinement gate: 'drift' bounds |v2/v1 - 1|, 'growth' bounds v2/v1."""
    if mode not in ("drift", "growth"):
        raise ValueError(f"unknown stability mode {mode!r}")
    rec = Recorder(f"{suite}-stability", mesh)
    for name, values in series.items():
        for prev, nxt in zip(values, values[1:]):
            ratio = nxt / max(prev, _TINY)
            rec.record(name, min(abs(ratio - 1.0) if mode == "drift" else ratio, 1e300))
    return rec.report(dict.fromkeys(series, limit))
