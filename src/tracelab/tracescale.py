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
from .fem2d import (
    Assembly,
    BandFactor,
    band_factor,
    boundary_spaces,
    mass_product,
    per_assembly,
    simplex_measures,
    space_h1partial,
)
from .kernels import jacobi_svd  # noqa: F401 - unused; perfbench/selftest.py checks tracing patches it
from .oplab import Operator, rel_diff
from .report import Recorder, SuiteReport

_TINY = 1e-300
HARMONIC_GATE = 1e-8


# ---------------------------------------------------------------------------
# per-assembly factorizations, each built once and kept in its assembly's
# memo (``fem2d.per_assembly``), so it is freed with the assembly


@per_assembly
def _interior_chol(a: Assembly) -> BandFactor:
    """The ``fem2d.BandFactor`` of the interior stiffness block K_ii: its
    ``solve`` gives K_ii^-1 of interior right-hand sides, or of the interior
    rows of domain ones, and ``_schur`` runs its ``forward_gram`` on K_ib.  A
    pivot block that is not positive definite raises SolveFailure.
    """
    try:
        return band_factor(a.K, a.mesh.interior_nodes, "the interior stiffness block")
    except NotPositiveDefinite as exc:
        raise SolveFailure(str(exc)) from exc


@per_assembly
def _coupling(a: Assembly) -> tuple[np.ndarray, np.ndarray]:
    """K_ib, the one block of K that links the interior to the boundary, read
    off the band once.

    Returns (ring, c): ``ring`` the ascending interior nodes whose row of
    K_ib is nonzero (the interior nodes that touch the boundary), as node
    indices, and ``c`` the dense block ``K[ring][:, bnd]``, ring.size x nb,
    read-only.  Every other row of K_ib is zero, so every K_ib and K_bi
    product is a product with ``c``.
    """
    bnd, interior = a.mesh.boundary_nodes, a.mesh.interior_nodes
    i, j, v = a.K.entries(interior, bnd)
    touch = np.zeros(interior.size, dtype=bool)
    touch[i] = True
    at = np.flatnonzero(touch)
    c = np.zeros((at.size, bnd.size))
    c[np.searchsorted(at, i), j] = v
    ring = interior[at]
    for arr in (ring, c):
        arr.setflags(write=False)
    return ring, c


@per_assembly
def _extension_matrix(a: Assembly) -> np.ndarray:
    """Minimal-energy extension of every boundary hat, as columns.  Nothing
    in tracelab calls it: the suites extend only the columns they check,
    by ``_extend``.  It is kept because ``perfbench/tracer.py`` reports its
    cache counters."""
    z = _extend(a, np.eye(a.M_b.shape[0]))
    z.setflags(write=False)
    return z


@per_assembly
def _schur(a: Assembly) -> oplab.InnerSpace:
    """M_b S = M_b + K_bb - K_bi K_ii^-1 K_ib: the Schur complement of the
    combined H1 Gram onto the boundary, from the stiffness band and K_ii's
    factor (``_interior_chol``), never from the Gram.  K_bb is the band's
    boundary block ``K.dense(bnd)``, as M_b is the facet mass band's.
    K_bi K_ii^-1 K_ib is that factor's ``forward_gram`` of K_ib's entries,
    so no n_nodes x nb array is made; M_b + K_bb is exactly symmetric, and
    so is the difference.  As a space, so its one Cholesky factor serves
    every Robin and Poisson-Robin solve."""
    bnd, interior = a.mesh.boundary_nodes, a.mesh.interior_nodes
    mbs = a.M_b + a.K.dense(bnd)
    if interior.size:
        mbs -= _interior_chol(a).forward_gram(*a.K.entries(interior, bnd), bnd.size)
    return oplab.make_space(bnd.size, mbs)


@per_assembly
def _s_operator(a: Assembly) -> Operator:
    """S on boundary L2, from the Schur complement: S = M_b^-1 (M_b S)."""
    l2bnd, _ = boundary_spaces(a)
    return Operator(l2bnd, l2bnd, l2bnd.solve(_schur(a).gram))


@per_assembly
def _s_spectrum(a: Assembly) -> oplab.SpectralDecomposition:
    """Spectral decomposition of I + S: the one eigensolve behind the orders
    of the scale that are not multiples of 1/4."""
    s_op = _s_operator(a)
    return oplab.spectral(oplab.identity(s_op.domain) + s_op)


@per_assembly
def _s_roots(a: Assembly) -> tuple[Operator, Operator]:
    """((I + S)^(1/2), (I + S)^(-1/2)) on boundary L2, from ``oplab.half_powers``:
    the one square root behind the orders of the scale with 4s in Z that are
    not exact matrix powers, and the smoothing of ``suite_hhalf``."""
    s_op = _s_operator(a)
    return oplab.half_powers(oplab.identity(s_op.domain) + s_op)


@per_assembly
def _trace_pinv(a: Assembly) -> oplab.InnerSpace:
    """C = R G^-1 R' = [G^-1]_bb as a space, the block of the trace pinv's
    range-space formula: the trace is onto, so its pinv is
    gamma* (gamma gamma*)^-1, and with gamma* = G^-1 R' M_b it is
    Lambda = G^-1 R' C^-1.  C is the ``forward_gram`` of G's factor
    (``space_h1partial``) and the boundary nodes' one-hot columns, so no
    n_nodes x nb array is made.  C^-1 equals M_b S, G's Schur complement
    onto the boundary, but C reads G's factor alone, never ``_schur`` or
    K_ii's: ``harmonic_two_path`` and ``suite_hhalf``'s quotient Gram
    M_b + C^-1 keep two independent paths.
    """
    bnd = a.mesh.boundary_nodes
    c = space_h1partial(a).forward_gram(bnd, np.arange(bnd.size), np.ones(bnd.size), bnd.size)
    return oplab.make_space(bnd.size, c)


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
    interior = a.mesh.interior_nodes
    z = np.zeros((a.mesh.n_nodes,) + g.shape[1:])
    z[a.mesh.boundary_nodes] = g
    if interior.size:  # K_ii z_i = -K_ib g, nonzero only on the ring
        ring, c = _coupling(a)
        z[ring] = -(c @ g)
        z[interior] = _interior_chol(a).solve(z, interior)
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


def _condense(a: Assembly, load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The static condensation of a load b, one (n_nodes,) vector or an
    (n_nodes, k) block: (y, b_b - K_bi y_i) for y = K_ii^-1 b_i on the
    interior and zero on the boundary, so (K y)_b = K_bi y_i comes from
    ``_coupling``'s ring block."""
    interior = a.mesh.interior_nodes
    u = np.zeros_like(load)
    if interior.size:
        u[interior] = _interior_chol(a).solve(load, interior)
    ring, c = _coupling(a)
    return u, load[a.mesh.boundary_nodes] - c.T @ u[ring]


def poisson_robin(a: Assembly, f) -> np.ndarray:
    """Solve G u = M_dom f: source problem with homogeneous Robin boundary.

    ``f`` is one (n_nodes,) vector or an (n_nodes, k) block of sources; the
    solution has the same shape.  Solved by static condensation
    (``_condense``): y = K_ii^-1 b_i for the load b = M_dom f, then
    M_b S u_b = b_b - K_bi y_i on the boundary, and
    u = y + harmonic_extension(u_b).
    """
    u, rest = _condense(a, a.M_dom @ _columns(f, a.mesh.n_nodes, "source"))
    return u + _extend(a, _schur(a).solve(rest))


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
    interior = a.mesh.interior_nodes
    if interior.size:
        gate = HARMONIC_GATE * np.linalg.norm(z, axis=0)
        if np.any(np.linalg.norm(kz[interior], axis=0) > gate):
            raise NotHarmonic("interior residual exceeds the harmonicity gate")
    l2bnd, _ = boundary_spaces(a)
    return l2bnd.solve(kz[a.mesh.boundary_nodes])


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


@per_assembly
def _hs_gram_cached(a: Assembly, s: float) -> oplab.InnerSpace:
    """The space of ``hs_gram(a, s)`` for a checked float order, built once
    per (assembly, order) and kept in the assembly's memo."""
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

    Each space is built once per (assembly, order) and kept with the
    assembly (``_hs_gram_cached``), so its Cholesky factor is taken once and
    freed when the assembly is.
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


# most necas samples, pde identity samples or columns of pde's G^-1 R' y (_representers) solved as one block
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


def _pde_trials(rec: Recorder, a: Assembly, rng: np.random.Generator, trials: int) -> None:
    """Each solver against its operator-algebra twin, over one block of trials.

    Trial j draws g_j, f_j and f2_j in turn; each family is solved as one block.
    The trace pinv Lambda = G^-1 R' C^-1 is applied to the block, never formed:
    one ``_representers`` solve of [C^-1 g | M_b g] gives Lambda g and the
    Robin twin, each trial column once.  P = Lambda R is checked on the
    block: R Lambda g = g; P z = z, where R z is g itself, since the
    extension copies its boundary values, so P z = Lambda g; and
    G Lambda g = R' C^-1 g is zero off the boundary and pairs symmetrically with g.
    """
    nb, nn = a.M_b.shape[0], a.mesh.n_nodes
    bnd, interior = a.mesh.boundary_nodes, a.mesh.interior_nodes
    draws = rng.standard_normal((trials, nb + 2 * nn)).T
    g, f, f2 = draws[:nb], draws[nb : nb + nn], draws[nb + nn :]

    z = harmonic_extension(a, g)
    # the twin G^-1 R' M_b g, adjoint of the trace, goes through G's factor;
    # the solver goes through K_ii
    lam_g, twin = np.hsplit(_representers(a, np.hstack([_trace_pinv(a).solve(g), a.M_b @ g])), 2)
    rec.record("harmonic_two_path", _maxabs(z - lam_g))
    rec.record("extension_trace_identity", rel_diff(lam_g[bnd], g))
    rec.record("harmonic_projection", _maxabs(lam_g - z))
    gl = a.G @ lam_g
    rec.record("harmonic_projection", np.linalg.norm(gl[interior]) / max(np.linalg.norm(gl), _TINY))
    pair = g.T @ gl[bnd]
    rec.record("harmonic_projection", rel_diff(pair, pair.T))
    rec.record("robin_two_path", _maxabs(robin_solve(a, g) - twin))

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

    The trial population is drawn with one call and solved as one block, the
    trace pinv applied to it alone (``_pde_trials``): no n_nodes x nb array is
    made, and trials=0 records no two-path or projection gate.  The identity
    population follows in blocks of at most NECAS_BLOCK columns, after the
    twins of the trial phase are freed.
    """
    _check_counts(trials=trials, identity_samples=identity_samples)
    rng = default_rng(seed)
    rec = _recorder("pde", a)
    if trials:
        _pde_trials(rec, a, rng, trials)
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

def _x_energy(mesh) -> float:
    """|Omega| + 2 int x^2 ds = g' Q_{1/2} g exactly for g = x, the trace of the
    harmonic P1 function x, at every refinement.  From the coordinates alone
    (``simplex_measures``), never a band: a k-vertex facet F has int_F x^2 =
    |F| (sum x_i^2 + (sum x_i)^2) / (k (k+1)), L (x_1^2 + x_1 x_2 + x_2^2) / 3 on a segment."""
    x = mesh.nodes[mesh.boundary_facets, 0]
    k = x.shape[1]
    facet_sq = (np.sum(x * x, axis=1) + np.sum(x, axis=1) ** 2) / (k * (k + 1))
    area = np.sum(simplex_measures(mesh.nodes, mesh.elements))
    return float(area + 2.0 * (simplex_measures(mesh.nodes, mesh.boundary_facets) @ facet_sq))


def suite_hhalf(
    a: Assembly,
    trials: int = 50,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> SuiteReport:
    """Order-1/2 characterization: the proof identity H^-1 (I + S) H^-1 = I
    for the smoothing H^-1 = (I + S)^(-1/2), the exact energy split, the
    closed-form energy of g = x on the boundary (``_x_energy``), and the
    comparison against the minimal-extension (trace-quotient) norm.

    The quotient Gram M_b + Lambda' G Lambda = M_b + C^-1 is built from
    C = R G^-1 R' (``_trace_pinv``, G's factor) while the scale Gram comes
    from the Schur complement M_b S (K_ii's factor), so the reported
    constants genuinely compare two code paths (they sit at 1 in exact
    arithmetic).
    """
    _check_counts(trials=trials)
    rng = default_rng(seed)
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
        split = total - _colquad(g, a.M_b) - _colquad(_extend(a, g), a.G)
        rec.record("energy_split", _maxabs(np.abs(split) / np.maximum(total, _TINY)))

    xb = a.mesh.nodes[a.mesh.boundary_nodes, 0]
    rec.record("x_trace_energy", abs(float(xb @ q_half.gram @ xb) / _x_energy(a.mesh) - 1.0))

    quot = a.M_b + _trace_pinv(a).solve(eye)
    c_min, c_max = equivalence_constants(q_half, oplab.make_space(nb, 0.5 * (quot + quot.T)))

    constants = {"quotient_cmin": c_min, "quotient_cmax": c_max}
    if a.mesh.kind == "interval":
        s_mat = _s_operator(a).mat
        g0 = np.array([1.0, 0.0])
        ext0 = _extend(a, g0)
        constants.update({f"s_{i}{j}": float(s_mat[i, j]) for i in range(2) for j in range(2)})
        constants["split_total"] = float(g0 @ q_half.gram @ g0)
        constants["split_l2"] = float(g0 @ a.M_b @ g0)
        constants["split_extension"] = float(ext0 @ (a.G @ ext0))

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
    sources.  The domain energy |u|_{1,domain}^2 = u'Ku + u'M_dom u reads
    u'Ku off the product K u that the flux takes and u'M_dom u off
    ``M_dom.quad``, so each population makes one band product; the sources
    make one more, M_dom f.  A sample whose ratio is not finite counts as a
    failure.
    """
    _check_counts(n_samples=n_samples)
    rng = default_rng(seed)
    l2bnd, h1bnd = boundary_spaces(a)
    nb = l2bnd.dim
    q_half = hs_gram(a, 0.5)

    def harmonic_ratios(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = harmonic_extension(a, g)
        ku = a.K @ u
        w = _flux(a, u, ku)
        dom_sq = np.einsum("ij,ij->j", u, ku) + a.M_dom.quad(u)
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
            # the running maxima pass over a NaN sample, which counts as a failure
            worst[f"trace_{name}_max"] = float(np.fmax.reduce(r1, initial=worst[f"trace_{name}_max"]))
            worst[f"flux_{name}_max"] = float(np.fmax.reduce(r2, initial=worst[f"flux_{name}_max"]))

        load = a.M_dom @ f
        # weak flux of the zero-trace source problem: the condensation's boundary rest, negated
        w0 = l2bnd.solve(-_condense(a, load)[1])
        f_norm = np.sqrt(np.maximum(np.einsum("ij,ij->j", f, load), 0.0))
        sourced = f_norm > 0.0
        ratio = np.sqrt(np.maximum(_colquad(w0[:, sourced], a.M_b), 0.0)) / f_norm[sourced]
        failures += int(np.count_nonzero(~np.isfinite(ratio)))
        worst["rellich_max"] = float(np.fmax.reduce(ratio, initial=worst["rellich_max"]))

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
