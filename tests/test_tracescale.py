"""Boundary-value solvers, the fractional boundary scale, and the suites.

Interval cases carry exact hand answers; 2-d meshes are exercised through
two-path comparisons (direct solve vs operator algebra) and the suite
residual gates.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from tracelab import fem2d, kernels, oplab, tracescale
from tracelab.errors import (
    BadParameter,
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteResidual,
    NotHarmonic,
    OrderOutOfRange,
    SolveFailure,
    ZeroVector,
)
from tracelab.report import Recorder

from conftest import asm, check_coupling, check_range_space_pinv, dense_schur, embed_domain, trace_pinv_matrix
from test_fem2d import frame_mesh

MESH_SAMPLE = [("interval", 8), ("square", 4), ("lshape", 4)]


class TestHarmonicExtension:
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_constants_extend_to_constants(self, kind, n):
        a = asm(kind, n)
        g = np.ones(a.mesh.boundary_nodes.size)
        z = tracescale.harmonic_extension(a, g)
        assert np.abs(z - 1.0).max() <= 1e-12

    def test_interval_affine(self):
        a = asm("interval", 8)
        z = tracescale.harmonic_extension(a, np.array([1.0, 0.0]))
        assert np.abs(z - (1.0 - a.mesh.nodes[:, 0])).max() <= 1e-13

    def test_square_linear_harmonic(self):
        a = asm("square", 8)
        xs = a.mesh.nodes[:, 0]
        z = tracescale.harmonic_extension(a, xs[a.mesh.boundary_nodes])
        assert np.abs(z - xs).max() <= 1e-10

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_boundary_values_exact_and_interior_solved(self, kind, n, rng):
        a = asm(kind, n)
        g = rng.standard_normal(a.mesh.boundary_nodes.size)
        z = tracescale.harmonic_extension(a, g)
        assert np.array_equal(z[a.mesh.boundary_nodes], g)
        interior = np.setdiff1d(np.arange(a.mesh.n_nodes), a.mesh.boundary_nodes)
        if interior.size:
            res = (a.K @ z)[interior]
            assert np.abs(res).max() <= 1e-10 * max(np.abs(z).max(), 1.0)

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_agrees_with_trace_pinv(self, kind, n, rng):
        a = asm(kind, n)
        lam = oplab.pinv(fem2d.op_trace(a))
        for _ in range(5):
            g = rng.standard_normal(a.mesh.boundary_nodes.size)
            z = tracescale.harmonic_extension(a, g)
            assert np.abs(z - lam.apply(g)).max() <= 1e-8

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            tracescale.harmonic_extension(asm("interval", 4), np.ones(3))


class TestRobinSolve:
    def test_interval_constant_data(self):
        z = tracescale.robin_solve(asm("interval", 6), np.ones(2))
        assert np.abs(z - 1.0).max() <= 1e-12

    def test_interval_affine_data(self):
        a = asm("interval", 6)
        x = a.mesh.nodes[:, 0]
        z = tracescale.robin_solve(a, np.array([1.0, 0.0]))
        assert np.abs(z - ((2.0 / 3.0) * (1.0 - x) + (1.0 / 3.0) * x)).max() <= 1e-12

    def test_zero_data(self):
        z = tracescale.robin_solve(asm("square", 4), np.zeros(16))
        assert np.abs(z).max() == 0.0

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_agrees_with_trace_adjoint(self, kind, n, rng):
        a = asm(kind, n)
        gs = oplab.adjoint(fem2d.op_trace(a))
        for _ in range(5):
            g = rng.standard_normal(a.mesh.boundary_nodes.size)
            assert np.abs(tracescale.robin_solve(a, g) - gs.apply(g)).max() <= 1e-10

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_robin_boundary_condition(self, kind, n, rng):
        # flux + trace of the solution reproduces the data
        a = asm(kind, n)
        for _ in range(10):
            g = rng.standard_normal(a.mesh.boundary_nodes.size)
            z = tracescale.robin_solve(a, g)
            w = tracescale.normal_derivative(a, z)
            assert np.abs(w + z[a.mesh.boundary_nodes] - g).max() <= 1e-10 * max(np.abs(g).max(), 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            tracescale.robin_solve(asm("interval", 4), np.ones(5))


class TestPoissonRobin:
    def test_zero_source(self):
        u = tracescale.poisson_robin(asm("square", 2), np.zeros(9))
        assert np.abs(u).max() == 0.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_interval_constant_source(self, n):
        # analytic solution -x^2/2 + x/2 + 1/2; nodal error within the h^2 budget
        a = asm("interval", n)
        u = tracescale.poisson_robin(a, np.ones(n + 1))
        x = a.mesh.nodes[:, 0]
        exact = -(x**2) / 2.0 + x / 2.0 + 0.5
        assert np.abs(u - exact).max() <= (1.0 / n) ** 2
        assert abs(u[0] - 0.5) <= (1.0 / n) ** 2
        assert abs(u[-1] - 0.5) <= (1.0 / n) ** 2

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_agrees_with_embedding_adjoint(self, kind, n, rng):
        a = asm(kind, n)
        estar = oplab.adjoint(embed_domain(a))
        for _ in range(5):
            f = rng.standard_normal(a.mesh.n_nodes)
            assert np.abs(tracescale.poisson_robin(a, f) - estar.apply(f)).max() <= 1e-10

    def test_source_to_solution_symmetry(self, rng):
        a = asm("square", 4)
        for _ in range(10):
            f1 = rng.standard_normal(a.mesh.n_nodes)
            f2 = rng.standard_normal(a.mesh.n_nodes)
            lhs = f1 @ a.M_dom.dense() @ tracescale.poisson_robin(a, f2)
            rhs = f2 @ a.M_dom.dense() @ tracescale.poisson_robin(a, f1)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            tracescale.poisson_robin(asm("interval", 4), np.ones(2))


def dense_g_solve(a, rhs):
    """G^-1 rhs for the combined H1 Gram G = K + R' M_b R, by a plain dense solve."""
    r = fem2d.op_trace(a).mat
    return np.linalg.solve(a.K.dense() + r.T @ a.M_b @ r, rhs)


class TestStaticCondensation:
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE + [("square", 8), ("lshape", 8)])
    def test_agrees_with_dense_gram_solve(self, kind, n, rng):
        a = asm(kind, n)
        g = rng.standard_normal((a.mesh.boundary_nodes.size, 3))
        f = rng.standard_normal((a.mesh.n_nodes, 3))
        for got, ref in (
            (tracescale.robin_solve(a, g), dense_g_solve(a, fem2d.op_trace(a).mat.T @ a.M_b @ g)),
            (tracescale.poisson_robin(a, f), dense_g_solve(a, a.M_dom.dense() @ f)),
        ):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_schur_complement_factored_once(self, monkeypatch, rng):
        # every Robin and Poisson-Robin solve on one assembly reuses the one factor of M_b S
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))
        nb = a.mesh.boundary_nodes.size
        shapes = []
        cholesky = np.linalg.cholesky

        def counted(x, *args, **kw):
            shapes.append(np.shape(x))
            return cholesky(x, *args, **kw)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        tracescale.robin_solve(a, rng.standard_normal(nb))
        tracescale.robin_solve(a, rng.standard_normal((nb, 3)))
        tracescale.poisson_robin(a, rng.standard_normal(a.mesh.n_nodes))
        assert shapes.count((nb, nb)) == 1

    @pytest.mark.parametrize(
        "run",
        [
            lambda a: tracescale.robin_solve(a, np.ones(16)),
            lambda a: tracescale.poisson_robin(a, np.ones(25)),
            lambda a: tracescale.necas_constants(a, n_samples=5),
            lambda a: tracescale.suite_interp(a, trials=3),
            lambda a: tracescale.suite_dual(a),
        ],
        ids=["robin_solve", "poisson_robin", "necas", "interp", "dual"],
    )
    def test_builds_no_domain_space(self, run, monkeypatch):
        # only the operator-algebra twins need the n_nodes x n_nodes H1 space or a dense K or M_dom;
        # the one dense block of a band the solvers read is K_bb, on the boundary rows
        def refuse(a):
            raise AssertionError("space_h1partial called")

        dense = fem2d.Band.dense

        def refuse_dense(band, rows=None):
            if rows is None or not np.array_equal(rows, a.mesh.boundary_nodes):
                raise AssertionError("Band.dense called off the boundary rows")
            return dense(band, rows)

        a = fem2d.assemble(fem2d.gen_mesh("square", 4))  # fresh, so nothing is cached
        monkeypatch.setattr(tracescale, "space_h1partial", refuse)
        monkeypatch.setattr(fem2d, "space_h1partial", refuse)
        monkeypatch.setattr(fem2d.Band, "dense", refuse_dense)
        run(a)


class TestNormalDerivative:
    def test_constants_have_zero_flux(self):
        a = asm("square", 4)
        z = np.ones(a.mesh.n_nodes)
        assert np.abs(tracescale.normal_derivative(a, z)).max() <= 1e-12

    def test_interval_affine_flux(self):
        a = asm("interval", 8)
        z = 1.0 - a.mesh.nodes[:, 0]
        w = tracescale.normal_derivative(a, z)
        assert np.abs(w - np.array([1.0, -1.0])).max() <= 1e-12

    def test_weak_pairing_identity(self, rng):
        a = asm("square", 4)
        g = rng.standard_normal(16)
        z = tracescale.harmonic_extension(a, g)
        w = tracescale.normal_derivative(a, z)
        for _ in range(10):
            v = rng.standard_normal(a.mesh.n_nodes)
            lhs = v @ a.K.dense() @ z
            rhs = v[a.mesh.boundary_nodes] @ a.M_b @ w
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_non_harmonic_rejected(self):
        a = asm("square", 2)
        bump = np.zeros(9)
        bump[4] = 1.0  # interior hat, visibly not harmonic
        with pytest.raises(NotHarmonic):
            tracescale.normal_derivative(a, bump)


def interior_hat(a):
    """Indicator of the first interior node: visibly not harmonic."""
    interior = np.setdiff1d(np.arange(a.mesh.n_nodes), a.mesh.boundary_nodes)
    bump = np.zeros(a.mesh.n_nodes)
    bump[interior[0]] = 1.0
    return bump


class TestBlockSolvers:
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_block_equals_columns(self, kind, n, rng):
        a = asm(kind, n)
        g = rng.standard_normal((a.mesh.boundary_nodes.size, 5))
        z = tracescale.harmonic_extension(a, g)
        w = tracescale.normal_derivative(a, z)
        assert z.shape == (a.mesh.n_nodes, 5)
        assert w.shape == g.shape
        for j in range(g.shape[1]):
            zj = tracescale.harmonic_extension(a, g[:, j])
            wj = tracescale.normal_derivative(a, zj)
            assert np.abs(z[:, j] - zj).max() <= 1e-13 * max(np.abs(zj).max(), 1.0)
            assert np.abs(w[:, j] - wj).max() <= 1e-13 * max(np.abs(wj).max(), 1.0)

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_solver_blocks_equal_columns(self, kind, n, rng):
        a = asm(kind, n)
        nb, nn, k = a.mesh.boundary_nodes.size, a.mesh.n_nodes, 4
        g = rng.standard_normal((nb, k))
        f = rng.standard_normal((nn, k))
        zr = tracescale.robin_solve(a, g)
        u = tracescale.poisson_robin(a, f)
        # a slightly non-harmonic z, inside the gate, gives a residual well above rounding
        z = tracescale.harmonic_extension(a, g * [1.0, 10.0, 0.1, 3.0]) + 1e-10 * interior_hat(a)[:, None]
        green = tracescale.green_residual(a, z, f)
        assert green.min() > 1e-15
        assert zr.shape == u.shape == (nn, k) and green.shape == (k,)
        for j in range(k):
            zr_j = tracescale.robin_solve(a, g[:, j])
            u_j = tracescale.poisson_robin(a, f[:, j])
            green_j = tracescale.green_residual(a, z[:, j], f[:, j])
            assert isinstance(green_j, float)
            assert np.abs(zr[:, j] - zr_j).max() <= 1e-13 * max(np.abs(zr_j).max(), 1.0)
            assert np.abs(u[:, j] - u_j).max() <= 1e-13 * max(np.abs(u_j).max(), 1.0)
            assert abs(green[j] - green_j) <= 1e-13

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_one_non_harmonic_column_rejected(self, kind, n, rng):
        a = asm(kind, n)
        harmonic = 1e10 * tracescale.harmonic_extension(a, rng.standard_normal((a.mesh.boundary_nodes.size, 2)))
        bump = interior_hat(a)
        block = np.column_stack([harmonic[:, 0], bump, harmonic[:, 1]])
        # a gate on the whole block's norm would let the bump through
        interior = np.setdiff1d(np.arange(a.mesh.n_nodes), a.mesh.boundary_nodes)
        bump_residual = np.linalg.norm((a.K @ bump)[interior])
        assert bump_residual <= tracescale.HARMONIC_GATE * np.linalg.norm(block)
        tracescale.normal_derivative(a, harmonic)
        with pytest.raises(NotHarmonic):
            tracescale.normal_derivative(a, block)

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_wrong_leading_dimension_rejected(self, kind, n):
        a = asm(kind, n)
        nb, nn = a.mesh.boundary_nodes.size, a.mesh.n_nodes
        with pytest.raises(DimensionMismatch):
            tracescale.harmonic_extension(a, np.ones((nb + 1, 3)))
        with pytest.raises(DimensionMismatch):
            tracescale.harmonic_extension(a, np.ones((nb, 3, 1)))
        with pytest.raises(DimensionMismatch):
            tracescale.normal_derivative(a, np.ones((nn - 1, 3)))
        with pytest.raises(DimensionMismatch):
            tracescale.normal_derivative(a, np.ones((3, nn)))
        for solve, rows in ((tracescale.robin_solve, nb), (tracescale.poisson_robin, nn)):
            with pytest.raises(DimensionMismatch):
                solve(a, np.ones((rows + 1, 3)))
            with pytest.raises(DimensionMismatch):
                solve(a, np.ones((rows, 3, 1)))
            with pytest.raises(DimensionMismatch):
                solve(a, np.ones(()))
        z = tracescale.harmonic_extension(a, np.ones((nb, 3)))
        with pytest.raises(DimensionMismatch):
            tracescale.green_residual(a, z, np.ones((nn - 1, 3)))
        with pytest.raises(DimensionMismatch):
            tracescale.green_residual(a, z, np.ones((nn, 2)))
        with pytest.raises(DimensionMismatch):
            tracescale.green_residual(a, z[:, 0], np.ones((nn, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_non_finite_input_rejected(self, kind, n, bad, rng):
        a = asm(kind, n)
        nb, nn = a.mesh.boundary_nodes.size, a.mesh.n_nodes
        z = tracescale.harmonic_extension(a, rng.standard_normal((nb, 3)))
        v = rng.standard_normal((nn, 3))
        # each call with the index of the argument that gets one bad entry
        calls = [
            (tracescale.harmonic_extension, [rng.standard_normal((nb, 3))], 0),
            (tracescale.robin_solve, [rng.standard_normal((nb, 3))], 0),
            (tracescale.poisson_robin, [rng.standard_normal((nn, 3))], 0),
            (tracescale.normal_derivative, [z.copy()], 0),
            (tracescale.green_residual, [z.copy(), v.copy()], 0),
            (tracescale.green_residual, [z.copy(), v.copy()], 1),
        ]
        for solve, args, which in calls:
            args[which][1, 2] = bad
            with pytest.raises(NonFiniteInput):
                solve(a, *args)
            with pytest.raises(NonFiniteInput):
                solve(a, *(arg[:, 2] for arg in args))


class TestGreenResidual:
    def test_constant_z(self, rng):
        a = asm("square", 4)
        z = np.ones(a.mesh.n_nodes)
        assert tracescale.green_residual(a, z, rng.standard_normal(a.mesh.n_nodes)) <= 1e-12

    def test_interval_hand_case(self):
        a = asm("interval", 8)
        z = 1.0 - a.mesh.nodes[:, 0]
        v = a.mesh.nodes[:, 0].copy()
        assert tracescale.green_residual(a, z, v) <= 1e-13

    def test_random_harmonic_population(self, rng):
        a = asm("square", 8)
        for _ in range(20):
            z = tracescale.harmonic_extension(a, rng.standard_normal(32))
            assert tracescale.green_residual(a, z, rng.standard_normal(a.mesh.n_nodes)) <= 1e-10

    def test_gate(self, rng):
        a = asm("square", 2)
        bump = np.zeros(9)
        bump[4] = 1.0
        with pytest.raises(NotHarmonic):
            tracescale.green_residual(a, bump, np.ones(9))

    def test_one_stiffness_product(self, rng, monkeypatch):
        # K z serves both the flux and v' K z
        a = asm("square", 4)
        z = tracescale.harmonic_extension(a, rng.standard_normal((16, 3)))
        v = rng.standard_normal((a.mesh.n_nodes, 3))
        expected = tracescale.green_residual(a, z, v)
        products = []
        matmul = fem2d.Band.__matmul__

        def counted(band, x):
            products.append(band)
            return matmul(band, x)

        monkeypatch.setattr(fem2d.Band, "__matmul__", counted)
        assert np.array_equal(tracescale.green_residual(a, z, v), expected)
        assert len(products) == 1 and products[0] is a.K


PROJECTION_GATES = ("extension_trace_identity", "harmonic_projection")


def dense_projection_residuals(a, g):
    """The projection residuals of ``_pde_trials`` for the trial block g, in
    order, from the dense Lambda = G^-1 R' (R G^-1 R')^-1 of the 0/1 trace
    matrix R and G's dense matrix."""
    r = fem2d.op_trace(a).mat
    gram = a.G.dense()
    g_inv_rt = np.linalg.solve(gram, r.T)
    lam = g_inv_rt @ np.linalg.inv(r @ g_inv_rt)
    z = tracescale.harmonic_extension(a, g)
    gl = gram @ (lam @ g)
    off_boundary = gl - r.T @ (r @ gl)
    pair = g.T @ (r @ gl)
    return [
        ("extension_trace_identity", oplab.rel_diff(r @ (lam @ g), g)),
        ("harmonic_projection", float(np.abs(lam @ (r @ z) - z).max())),
        ("harmonic_projection", float(np.linalg.norm(off_boundary) / np.linalg.norm(gl))),
        ("harmonic_projection", oplab.rel_diff(pair, pair.T)),
    ]


def projection_residuals(a, trials, seed):
    """The projection values ``_pde_trials`` records for a block of trials,
    in order, and the block g it drew."""
    rec, seen = Recorder("pde"), []
    rec.record = lambda name, value: seen.append((name, float(value)))
    tracescale._pde_trials(rec, a, np.random.default_rng(seed), trials)
    nb, nn = a.M_b.shape[0], a.mesh.n_nodes
    g = np.random.default_rng(seed).standard_normal((trials, nb + 2 * nn)).T[:nb]
    return [(name, value) for name, value in seen if name in PROJECTION_GATES], g


class TestProjectionIdentities:
    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)])
    def test_index_set_trace_matches_dense_products(self, kind, n, monkeypatch):
        a = asm(kind, n)

        def no_matrix(a):
            raise AssertionError("the trace's 0/1 matrix was built")

        with monkeypatch.context() as patch:
            patch.setattr(fem2d, "op_trace", no_matrix)
            got, g = projection_residuals(a, 6, 5)
        reference = dense_projection_residuals(a, g)
        assert [name for name, _ in got] == [name for name, _ in reference]
        for (_, value), (_, ref) in zip(got, reference):
            assert value == pytest.approx(ref, rel=1e-12)
            assert value <= 1e-12

    def test_allocates_less_than_one_pinv_array(self):
        # Lambda is n_nodes x nb; the suite applies it to its trial block only
        a = asm("square", 64)
        tracescale.suite_pde(a, trials=2, identity_samples=2)  # warm the cached factors and C
        tracemalloc.start()
        try:
            tracescale.suite_pde(a, trials=2, identity_samples=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * a.mesh.n_nodes * a.M_b.shape[0]

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_trace_of_extension_is_identity(self, kind, n, rng):
        a = asm(kind, n)
        for _ in range(5):
            g = rng.standard_normal(a.mesh.boundary_nodes.size)
            z = tracescale.harmonic_extension(a, g)
            assert np.abs(z[a.mesh.boundary_nodes] - g).max() <= 1e-10 * max(np.abs(g).max(), 1.0)

    def test_extension_of_trace_projects(self, rng):
        a = asm("square", 4)
        lam = oplab.pinv(fem2d.op_trace(a))
        proj = lam.mat @ fem2d.op_trace(a).mat
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        gp = a.G @ proj
        assert np.abs(gp - gp.T).max() <= 1e-10
        # fixes everything that passes the harmonicity gate
        z = tracescale.harmonic_extension(a, rng.standard_normal(16))
        assert np.abs(proj @ z - z).max() <= 1e-8


def interior_band(a):
    """K_ii in the lower band form of ``scipy.linalg.cholesky_banded``, from the dense K."""
    interior = np.setdiff1d(np.arange(a.mesh.n_nodes), a.mesh.boundary_nodes)
    kii = a.K.dense()[np.ix_(interior, interior)]
    bw = max(d for d in range(kii.shape[0]) if np.diagonal(kii, -d).any())
    ab = np.zeros((bw + 1, kii.shape[0]))
    for d in range(bw + 1):
        ab[d, : kii.shape[0] - d] = np.diagonal(kii, -d)
    return kii, ab


def banded_solve(a, rhs):
    """K_ii^-1 rhs by LAPACK's banded Cholesky solve: the oracle of the block substitution."""
    _, ab = interior_band(a)
    return scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(ab, lower=True), True), rhs)


def factor_from_blocks(blocks):
    """The padded lower factor L laid out by a ``BandFactor``'s blocks, each
    stored inverse diagonal block inverted back by LAPACK's triangular solve."""
    n_blocks, _, b = blocks.shape
    low = np.zeros(((n_blocks + 1) * b, n_blocks * b))
    for k in range(n_blocks):
        low[k * b : (k + 1) * b, k * b : (k + 1) * b] = scipy.linalg.solve_triangular(
            blocks[k, :b], np.eye(b), lower=True
        )
        low[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = blocks[k, b:]
    return low[: n_blocks * b]


# (kind, n): one block (an interior smaller than, or as large as, a block), an
# interior of whole blocks, and interiors that end in a partial block
SOLVE_MESHES = [
    ("interval", 2), ("square", 2), ("interval", 5), ("interval", 8),
    ("square", 3), ("lshape", 4), ("lshape", 6), ("square", 16),
]


class TestInteriorFactor:
    def test_banded_shape_square(self):
        # the interior of the 17 x 17 grid is 15 x 15: K_ii has bandwidth 15, so
        # blocks of 16 rows, and 225 = 14 * 16 + 1 rows make 15 block columns
        a = fem2d.assemble(fem2d.gen_mesh("square", 16))
        assert tracescale._interior_chol(a).blocks.shape == (15, 32, 16)

    @pytest.mark.parametrize("kind,n", [("interval", 2), ("interval", 8), ("square", 4), ("lshape", 8)])
    def test_factor_reproduces_interior_block(self, kind, n):
        a = asm(kind, n)
        blocks = tracescale._interior_chol(a).blocks
        kii, ab = interior_band(a)
        ni, b = kii.shape[0], blocks.shape[2]
        assert b == ab.shape[0]
        low = factor_from_blocks(blocks)
        # block-bidiagonal and lower triangular: each stored inverse is lower
        # triangular and each coupling block is strictly upper
        assert np.array_equal(low, np.tril(low))
        for k in range(blocks.shape[0]):
            assert np.array_equal(blocks[k, :b], np.tril(blocks[k, :b]))
            assert np.array_equal(blocks[k, b:], np.triu(blocks[k, b:], 1))
        # padded to whole blocks with the identity
        assert np.array_equal(low[ni:, ni:], np.eye(low.shape[0] - ni))
        assert not low[ni:, :ni].any()
        low = low[:ni, :ni]
        assert np.abs(low @ low.T - kii).max() <= 1e-13 * np.abs(kii).max()

    @pytest.mark.parametrize(
        "scale,last", [(0.0, False), (-1.0, True)], ids=["singular-first-block", "indefinite-last-block"]
    )
    def test_pivot_block_not_positive_definite_raises(self, scale, last):
        # scale 0: K = 0, so the first pivot block is singular; scale -1: only the
        # last interior node's diagonal is negated, so only the last pivot block fails
        a = asm("square", 8)
        interior = a.mesh.interior_nodes
        n_blocks = tracescale._interior_chol(a).blocks.shape[0]
        if last:
            diag = a.K.diags[0].copy()
            diag[interior[-1]] *= scale
            diags = (diag,) + a.K.diags[1:]
        else:
            diags = tuple(scale * d for d in a.K.diags)
        bad = dataclasses.replace(a, K=fem2d.Band(offsets=a.K.offsets, diags=diags))
        block = n_blocks - 1 if last else 0
        with pytest.raises(SolveFailure, match=f"pivot block {block} "):
            tracescale._interior_chol(bad)

    def test_factor_is_one_read_only_copy(self):
        blocks = tracescale._interior_chol(asm("square", 8)).blocks
        assert not blocks.flags.writeable
        assert blocks.base is None


class TestInteriorSolve:
    @pytest.mark.parametrize("kind,n", SOLVE_MESHES)
    @pytest.mark.parametrize("cols", [None, 1, 9, 0])
    def test_matches_banded_oracle(self, kind, n, cols, rng):
        a = asm(kind, n)
        ni = interior_band(a)[0].shape[0]
        rhs = rng.standard_normal(ni if cols is None else (ni, cols))
        kept = rhs.copy()
        got = tracescale._interior_chol(a).solve(rhs)
        ref = banded_solve(a, rhs)
        assert got.shape == rhs.shape
        assert np.array_equal(rhs, kept)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(initial=1.0)

    def test_meshes_cover_the_block_layouts(self):
        layouts = set()
        for kind, n in SOLVE_MESHES:
            a = asm(kind, n)
            ni = a.mesh.n_nodes - a.mesh.boundary_nodes.size
            n_blocks, _, b = tracescale._interior_chol(a).blocks.shape
            assert n_blocks == -(-ni // b)
            layouts.add("one block" if ni <= b else "whole blocks" if ni % b == 0 else "partial block")
        assert layouts == {"one block", "whole blocks", "partial block"}

    @given(
        kind_n=st.sampled_from([("interval", n) for n in range(2, 12)] + [("square", n) for n in range(2, 12)]
                               + [("lshape", n) for n in (4, 6, 8, 10)]),
        cols=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_banded_oracle(self, kind_n, cols, seed):
        a = asm(*kind_n)
        rhs = np.random.default_rng(seed).standard_normal((interior_band(a)[0].shape[0], cols))
        got = tracescale._interior_chol(a).solve(rhs)
        ref = banded_solve(a, rhs)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(initial=1.0)

    def test_empty_populations(self):
        a = asm("square", 4)
        nb, nn = a.mesh.boundary_nodes.size, a.mesh.n_nodes
        assert tracescale.harmonic_extension(a, np.zeros((nb, 0))).shape == (nn, 0)
        assert tracescale.poisson_robin(a, np.zeros((nn, 0))).shape == (nn, 0)
        assert tracescale.necas_constants(a, n_samples=0).passed

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_extension_makes_no_full_product(self, kind, n, rng, monkeypatch):
        a = asm(kind, n)
        g = rng.standard_normal((a.mesh.boundary_nodes.size, 3))
        expected = tracescale.harmonic_extension(a, g)

        def refuse(self, x):
            raise AssertionError("full band product")

        monkeypatch.setattr(fem2d.Band, "__matmul__", refuse)
        assert np.array_equal(tracescale.harmonic_extension(a, g), expected)


class TestSchur:
    @pytest.mark.parametrize("kind,n", SOLVE_MESHES + [("square", 1), ("interval", 1)])
    def test_matches_dense_oracle(self, kind, n):
        # every block layout of the factor, and meshes with no interior at all
        a = asm(kind, n)
        got = tracescale._schur(a).gram
        ref = dense_schur(a)
        assert np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "run",
        [
            lambda a: tracescale._s_operator(a),
            lambda a: tracescale.necas_constants(a, n_samples=70),
            lambda a: tracescale.poisson_robin(a, np.ones((a.mesh.n_nodes, 2))),
            lambda a: tracescale.suite_pde(a, trials=3, identity_samples=3),
            lambda a: tracescale.suite_hhalf(a, trials=3),
            lambda a: tracescale.suite_h1(a),
        ],
        ids=["s_operator", "necas", "poisson_robin", "pde", "hhalf", "h1"],
    )
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_makes_no_extension_matrix(self, kind, n, run, monkeypatch):
        def refuse(a):
            raise AssertionError("extension matrix built")

        a = fem2d.assemble(fem2d.gen_mesh(kind, n))  # fresh, so nothing is cached
        monkeypatch.setattr(tracescale, "_extension_matrix", refuse)
        run(a)

    def test_one_boundary_block_per_assembly(self):
        # pde, hhalf and h1 read one C = R G^-1 R', made on the first call
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))  # fresh, so C is not cached
        misses = tracescale._trace_pinv.cache_info().misses
        for report in (
            tracescale.suite_pde(a, trials=3, identity_samples=3),
            tracescale.suite_hhalf(a, trials=3),
            tracescale.suite_h1(a),
        ):
            assert report.passed
        assert tracescale._trace_pinv.cache_info().misses == misses + 1


class TestCoupling:
    @pytest.mark.parametrize(
        "kind,n", [(k, n) for k in ("interval", "square") for n in (1, 2, 8)] + [("lshape", 2), ("lshape", 8)]
    )
    def test_ring_block_is_k_ib(self, kind, n):
        a = asm(kind, n)
        check_coupling(a)
        ring, c = tracescale._coupling(a)
        assert tracescale._coupling(a)[1] is c  # read once per assembly
        # empty exactly when there is no interior: n = 1, and the lshape at n = 2
        assert (ring.size == 0) == (a.mesh.n_nodes == a.mesh.boundary_nodes.size)


class TestSampleCounts:
    @pytest.mark.parametrize(
        "run",
        [
            lambda a, n: tracescale.necas_constants(a, n_samples=n),
            lambda a, n: tracescale.suite_pde(a, trials=n),
            lambda a, n: tracescale.suite_pde(a, identity_samples=n),
            lambda a, n: tracescale.suite_hhalf(a, trials=n),
            lambda a, n: tracescale.suite_interp(a, trials=n),
        ],
        ids=["necas", "pde_trials", "pde_identity_samples", "hhalf", "interp"],
    )
    def test_negative_count_rejected_before_any_draw(self, run, monkeypatch):
        a = asm("square", 2)
        assert run(a, 0).passed  # a count of 0 draws nothing and is valid

        def refuse(seed):
            raise AssertionError("random stream opened")

        monkeypatch.setattr(tracescale, "default_rng", refuse)
        with pytest.raises(BadParameter, match="must be >= 0"):
            run(a, -1)


class TestHsGram:
    def test_order_zero_is_boundary_mass(self):
        a = asm("square", 4)
        q = tracescale.hs_gram(a, 0.0)
        assert q is fem2d.boundary_spaces(a)[0]
        assert np.array_equal(q.gram, a.M_b)

    def test_interval_s_operator_exact(self):
        q = tracescale.hs_gram(asm("interval", 1), 0.5)
        assert np.array_equal(q.gram, [[3.0, -1.0], [-1.0, 3.0]])

    def test_interval_s_operator_refined(self):
        q = tracescale.hs_gram(asm("interval", 5), 0.5)
        assert np.abs(q.gram - [[3.0, -1.0], [-1.0, 3.0]]).max() <= 1e-12

    def test_interval_half_order_norm(self):
        a = asm("interval", 1)
        q = tracescale.hs_gram(a, 0.5)
        g = np.array([1.0, 0.0])
        assert g @ q.gram @ g == pytest.approx(3.0, abs=1e-13)
        # split: 1 from the boundary mass, 2 from the extension energy
        z = tracescale.harmonic_extension(a, g)
        assert g @ a.M_b @ g == pytest.approx(1.0)
        assert z @ (a.G @ z) == pytest.approx(2.0, abs=1e-13)

    def test_interval_negative_half_is_resolvent(self):
        q = tracescale.hs_gram(asm("interval", 1), -0.5)
        expected = np.linalg.inv(np.array([[3.0, -1.0], [-1.0, 3.0]]))
        assert np.abs(q.gram - expected).max() <= 1e-14

    @pytest.mark.parametrize("s", [-1.0, -0.3, 0.25, 0.7, 1.0])
    def test_symmetric_positive_definite(self, s):
        q = tracescale.hs_gram(asm("square", 4), s)
        assert np.array_equal(q.gram, q.gram.T)
        assert np.linalg.eigvalsh(q.gram).min() > 0.0

    @pytest.mark.parametrize("kind", ["square", "lshape"])
    @pytest.mark.parametrize("s", [-1.0, -0.75, -0.5, -0.3, 0.25, 0.7])
    def test_spectral_orders_match_lapack(self, kind, s):
        # reference: M_b (I+S) V = M_b V diag(w) with V' M_b V = I, so
        # M_b (I+S)^(2s) = M_b V diag(w^(2s)) V' M_b
        a = asm(kind, 4)
        nb = a.M_b.shape[0]
        grown = a.M_b @ (np.eye(nb) + tracescale._s_operator(a).mat)
        w, v = scipy.linalg.eigh(0.5 * (grown + grown.T), a.M_b)
        mv = a.M_b @ v
        expected = (mv * w ** (2.0 * s)) @ mv.T
        assert oplab.rel_diff(tracescale.hs_gram(a, s).gram, expected) <= 1e-11

    @pytest.mark.parametrize("kind", ["square", "lshape"])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("s", [-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75])
    def test_routes_agree_with_the_spectrum(self, kind, n, s):
        # the square-root and exact-product routes against the eigendecomposition of I + S
        a = asm(kind, n)
        expected = a.M_b @ tracescale._s_spectrum(a).power(2.0 * s).mat
        assert oplab.rel_diff(tracescale.hs_gram(a, s).gram, expected) <= 1e-12

    @pytest.mark.parametrize("s", [-1.5, 1.2])
    def test_order_range(self, s):
        with pytest.raises(OrderOutOfRange):
            tracescale.hs_gram(asm("interval", 1), s)

    def test_boundary_h1_norm_of_constants(self):
        # zero tangential derivative, boundary length 4
        for n in (4, 8):
            _, h1bnd = fem2d.boundary_spaces(asm("square", n))
            assert h1bnd.norm(np.ones(4 * n)) == pytest.approx(2.0, abs=1e-12)


def random_spd_space(rng, n):
    m = rng.standard_normal((n, n))
    return oplab.make_space(n, m @ m.T + n * np.eye(n))


class TestEquivalenceConstants:
    def test_equal_grams(self):
        q = tracescale.hs_gram(asm("square", 2), 0.5)
        c_min, c_max = tracescale.equivalence_constants(q, q)
        assert c_min == pytest.approx(1.0, abs=1e-12)
        assert c_max == pytest.approx(1.0, abs=1e-12)

    def test_scaled_gram(self):
        a = asm("square", 2)
        q = tracescale.hs_gram(a, 0.5)
        q4 = oplab.make_space(q.dim, 4.0 * q.gram)
        c_min, c_max = tracescale.equivalence_constants(q4, q)
        assert c_min == pytest.approx(2.0, abs=1e-12)
        assert c_max == pytest.approx(2.0, abs=1e-12)

    def test_interval_half_vs_l2(self):
        a = asm("interval", 1)
        c_min, c_max = tracescale.equivalence_constants(
            tracescale.hs_gram(a, 0.5), tracescale.hs_gram(a, 0.0)
        )
        assert c_min == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert c_max == pytest.approx(2.0, abs=1e-12)

    def test_bounds_are_tight(self, rng):
        import scipy.linalg

        a = asm("square", 4)
        qa = tracescale.hs_gram(a, 0.5)
        qb = tracescale.hs_gram(a, 0.0)
        c_min, c_max = tracescale.equivalence_constants(qa, qb)
        for _ in range(200):
            g = rng.standard_normal(16)
            ratio = qa.norm(g) / qb.norm(g)
            assert c_min - 1e-8 <= ratio <= c_max + 1e-8
        # the extremes are attained by the generalized eigenvectors
        _, vecs = scipy.linalg.eigh(qa.gram, qb.gram)
        assert qa.norm(vecs[:, 0]) / qb.norm(vecs[:, 0]) == pytest.approx(c_min, rel=1e-9)
        assert qa.norm(vecs[:, -1]) / qb.norm(vecs[:, -1]) == pytest.approx(c_max, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_matches_scipy(self, rng, n):
        for _ in range(8):
            qa, qb = random_spd_space(rng, n), random_spd_space(rng, n)
            c_min, c_max = tracescale.equivalence_constants(qa, qb)
            ref = scipy.linalg.eigh(qa.gram, qb.gram, eigvals_only=True)
            tol = 1e-11 * max(np.abs(ref).max(), 1.0)
            assert abs(c_min**2 - ref[0]) <= tol
            assert abs(c_max**2 - ref[-1]) <= tol

    def test_b_orthonormal_vectors(self, rng):
        # scipy's extreme eigenvectors have unit qb-norm, so their qa-norms are the constants
        qa, qb = random_spd_space(rng, 5), random_spd_space(rng, 5)
        c_min, c_max = tracescale.equivalence_constants(qa, qb)
        _, vecs = scipy.linalg.eigh(qa.gram, qb.gram)
        assert qa.norm(vecs[:, 0]) == pytest.approx(c_min, rel=1e-10)
        assert qa.norm(vecs[:, -1]) == pytest.approx(c_max, rel=1e-10)

    def test_dimension_mismatch(self):
        qa = tracescale.hs_gram(asm("square", 2), 0.0)
        qb = tracescale.hs_gram(asm("square", 4), 0.0)
        with pytest.raises(DimensionMismatch):
            tracescale.equivalence_constants(qa, qb)


class TestSuitePde:
    def test_interval_hand_families(self):
        rep = tracescale.suite_pde(asm("interval", 1), trials=5, identity_samples=20)
        assert rep.passed
        assert rep.residuals["hand_robin_ones"] <= 1e-12
        assert rep.residuals["hand_robin_affine"] <= 1e-12
        assert rep.residuals["hand_s_matrix"] <= 1e-12
        assert rep.suite == "pde"
        assert rep.mesh == "interval"
        assert rep.n == 1

    @pytest.mark.parametrize("kind,n", [("square", 4), ("lshape", 4)])
    def test_two_dim_families(self, kind, n):
        rep = tracescale.suite_pde(asm(kind, n), trials=5, identity_samples=30)
        assert rep.passed
        for name in (
            "harmonic_two_path",
            "robin_two_path",
            "poisson_two_path",
            "extension_trace_identity",
            "harmonic_projection",
            "green_formula",
            "robin_boundary",
            "poisson_symmetry",
            "linear_reproduction",
        ):
            assert name in rep.residuals
        assert "hand_s_matrix" not in rep.residuals

    def test_override_forces_failure(self):
        rep = tracescale.suite_pde(
            asm("interval", 1), trials=3, identity_samples=5,
            tolerances={"harmonic_two_path": 1e-30},
        )
        assert not rep.passed

    def test_nan_residual_raises(self, monkeypatch):
        monkeypatch.setattr(tracescale, "_maxabs", lambda arr: float("nan"))
        with pytest.raises(NonFiniteResidual, match=r"pde:interval:1 residual '\w+'"):
            tracescale.suite_pde(asm("interval", 1), trials=2, identity_samples=2)

    @pytest.mark.parametrize("trials", [1, 5, 70])
    def test_each_trial_column_solved_once(self, trials, monkeypatch):
        # R z is g itself, so C solves the T columns of g alone, and G's factor
        # the 2T columns [C^-1 g | M_b g] of Lambda g and the Robin twin
        a = asm("square", 4)
        widths = {"C": 0, "G": 0}
        trace_pinv, representers = tracescale._trace_pinv, tracescale._representers

        class CountedC:
            def __init__(self, space):
                self.space = space

            def solve(self, y):
                widths["C"] += y.shape[1]
                return self.space.solve(y)

        def counted_representers(a_, y):
            widths["G"] += y.shape[1]
            return representers(a_, y)

        monkeypatch.setattr(tracescale, "_trace_pinv", lambda a_: CountedC(trace_pinv(a_)))
        monkeypatch.setattr(tracescale, "_representers", counted_representers)
        rep = tracescale.suite_pde(a, trials=trials, identity_samples=0)
        assert rep.passed and "harmonic_projection" in rep.residuals
        assert widths == {"C": trials, "G": 2 * trials}

    def test_solve_count_does_not_grow_with_samples(self, monkeypatch):
        a = asm("square", 4)
        tracescale.suite_pde(a, trials=1, identity_samples=1)  # fill the per-assembly caches
        # the boundary solves go through InnerSpace.solve, the interior ones (and
        # G's) through BandFactor.solve
        owners = {"boundary": oplab.InnerSpace, "band": fem2d.BandFactor}
        calls = {name: [] for name in owners}

        def counting(name, original):
            def counted(*args, **kw):
                calls[name].append(args[1].shape)
                return original(*args, **kw)

            return counted

        for name, owner in owners.items():
            monkeypatch.setattr(owner, "solve", counting(name, owner.solve))
        counts = []
        for trials, samples in ((2, 3), (7, 11)):
            for made in calls.values():
                made.clear()
            assert tracescale.suite_pde(a, trials=trials, identity_samples=samples, seed=4).passed
            counts.append({name: len(made) for name, made in calls.items()})
        assert counts[0] == counts[1]
        # a count of 0 would mean the solvers no longer go through the patched names
        assert counts[0]["band"] > 0 and counts[0]["boundary"] > 0

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_same_stream_as_per_trial_draws(self, kind, n, monkeypatch):
        a = asm(kind, n)
        nb, nn = a.mesh.boundary_nodes.size, a.mesh.n_nodes
        trials, samples, seed = 3, 5, 21
        extended, sourced = [], []
        extension, poisson = tracescale.harmonic_extension, tracescale.poisson_robin
        monkeypatch.setattr(
            tracescale, "harmonic_extension", lambda a, g: extended.append(np.array(g)) or extension(a, g)
        )
        monkeypatch.setattr(
            tracescale, "poisson_robin", lambda a, f: sourced.append(np.array(f)) or poisson(a, f)
        )
        tracescale.suite_pde(a, trials=trials, identity_samples=samples, seed=seed)

        rng = np.random.default_rng(seed)
        g_trial, f_trial, f2_trial, g_ident = [], [], [], []
        for _ in range(trials):
            g_trial.append(rng.standard_normal(nb))
            f_trial.append(rng.standard_normal(nn))
            f2_trial.append(rng.standard_normal(nn))
        for _ in range(samples):
            g_ident.append(rng.standard_normal(nb))
            rng.standard_normal(nn)
        assert np.array_equal(extended[0], np.column_stack(g_trial))
        assert np.array_equal(extended[1], np.column_stack(g_ident))
        assert np.array_equal(sourced[0], np.column_stack(f_trial))
        assert np.array_equal(sourced[1], np.column_stack(f2_trial))

    def test_nan_in_one_robin_column_raises(self, monkeypatch):
        original = tracescale.robin_solve
        calls = []

        def planted(a, g):
            z = original(a, g)
            if not calls:  # the trial population's block
                z[:, 1] = np.nan
            calls.append(z.shape)
            return z

        monkeypatch.setattr(tracescale, "robin_solve", planted)
        with pytest.raises(NonFiniteResidual, match=r"pde:square:4 residual 'robin_two_path'"):
            tracescale.suite_pde(asm("square", 4), trials=3, identity_samples=4)
        assert calls[0] == (25, 3)

    def test_empty_population_records_no_gate(self):
        rep = tracescale.suite_pde(asm("square", 2), trials=0, identity_samples=0)
        assert set(rep.residuals) == {"linear_reproduction"}


def scaled_corner(c):
    c[0, 0] *= 1.0 + 1e-6


def dropped_column(c):
    c[0], c[:, 0] = 0.0, 0.0
    c[0, 0] = 1.0


def coupled_pair(c):
    c[0, 1] += 1e-7
    c[1, 0] += 1e-7


def scaled_whole(c):
    c *= 1.0 + 1e-9


# C mutants of the trace pinv's boundary block, each with the gates it must fail
PINV_GATES = {"extension_trace_identity", "harmonic_projection"}
C_MUTANTS = {
    "scaled_corner": (scaled_corner, PINV_GATES | {"harmonic_two_path"}),
    "dropped_column": (dropped_column, PINV_GATES | {"harmonic_two_path"}),
    "coupled_pair": (coupled_pair, PINV_GATES | {"harmonic_two_path"}),
    "scaled_whole": (scaled_whole, PINV_GATES),
}
PDE_KILL_MESHES = [("square", 8), ("lshape", 8)]


def failed_gates(rep):
    return {name for name, ok in rep.verdicts.items() if not ok}


class TestPdeKillCheck:
    """Planted faults in the trace pinv's C and in G's factor that
    ``suite_pde`` must catch, each by exactly the gates named."""

    @pytest.mark.parametrize("kind,n", PDE_KILL_MESHES)
    @pytest.mark.parametrize("mutant", list(C_MUTANTS))
    def test_c_mutant_fails_its_gates(self, mutant, kind, n, monkeypatch):
        mutate, gates = C_MUTANTS[mutant]
        a = asm(kind, n)
        gram = np.array(tracescale._trace_pinv(a).gram)
        mutate(gram)
        planted = oplab.make_space(gram.shape[0], gram)
        monkeypatch.setattr(tracescale, "_trace_pinv", lambda a: planted)
        assert failed_gates(tracescale.suite_pde(a, trials=5, identity_samples=5)) == gates

    @pytest.mark.parametrize("kind,n", PDE_KILL_MESHES)
    def test_perturbed_g_factor_fails_its_gates(self, kind, n, monkeypatch):
        # every read of G's factor (its solves, and C by its forward substitution)
        # takes the factor of G with a middle interior diagonal entry off by 1e-9;
        # the products keep the true band
        a = fem2d.assemble(fem2d.gen_mesh(kind, n))  # fresh, so C is built from the planted factor
        interior = a.mesh.interior_nodes
        diag = np.array(a.G.diags[0])
        diag[interior[interior.size // 2]] *= 1.0 + 1e-9
        band = dataclasses.replace(a.G, diags=(diag,) + a.G.diags[1:])
        planted = fem2d.band_factor(band, np.arange(diag.size), "G")
        monkeypatch.setattr(tracescale, "space_h1partial", lambda a: planted)
        rep = tracescale.suite_pde(a, trials=5, identity_samples=5)
        assert failed_gates(rep) == {"robin_two_path", "poisson_two_path", "harmonic_projection"}


def identity_records(a, samples, seed):
    """The values ``_pde_identities`` records, in order, and the boundary data it extends."""
    rec, seen, extended = Recorder("pde"), [], []
    rec.record = lambda name, value: seen.append((name, float(value)))
    extension = tracescale.harmonic_extension
    patch = pytest.MonkeyPatch()
    patch.setattr(tracescale, "harmonic_extension", lambda a, g: extended.append(np.array(g)) or extension(a, g))
    try:
        tracescale._pde_identities(rec, a, np.random.default_rng(seed), samples)
    finally:
        patch.undo()
    return seen, extended


class TestIdentityBlocks:
    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_blocks_draw_the_one_stream(self, kind, n):
        a = asm(kind, n)
        nb, nn = a.mesh.boundary_nodes.size, a.mesh.n_nodes
        samples = 2 * tracescale.NECAS_BLOCK + 5
        _, extended = identity_records(a, samples, seed=8)
        assert [g.shape[1] for g in extended] == tracescale._block_widths(samples)
        whole = np.random.default_rng(8).standard_normal((samples, nb + nn)).T
        assert np.array_equal(np.hstack(extended), whole[:nb])

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_blocks_match_one_block(self, kind, n, monkeypatch):
        a = asm(kind, n)
        samples = 2 * tracescale.NECAS_BLOCK + 5
        blocked, _ = identity_records(a, samples, seed=8)
        monkeypatch.setattr(tracescale, "NECAS_BLOCK", samples)
        whole, extended = identity_records(a, samples, seed=8)
        assert len(extended) == 1
        worst = {}
        for name, value in blocked:
            worst[name] = max(worst.get(name, 0.0), value)
        assert [name for name, _ in whole] == ["green_formula", "robin_boundary"]
        for name, value in whole:
            assert abs(worst[name] - value) <= 1e-14 * max(value, 1.0), name


class TestNoDomainSquareArray:
    SUITES = {
        "pde": tracescale.suite_pde,
        "hhalf": tracescale.suite_hhalf,
        "h1": tracescale.suite_h1,
    }

    def test_suites_densify_no_domain_band(self, monkeypatch):
        a = fem2d.assemble(fem2d.gen_mesh("square", 8))  # fresh, so every cached object is built here
        dense = fem2d.Band.dense

        def boundary_only(band, rows=None):
            if (band.diags[0].size if rows is None else rows.size) == a.mesh.n_nodes:
                raise AssertionError("an n_nodes x n_nodes band was made dense")
            return dense(band, rows)

        monkeypatch.setattr(fem2d.Band, "dense", boundary_only)
        for name, run in self.SUITES.items():
            assert run(a).passed, name

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_peak_below_one_square_array(self, suite):
        a = fem2d.assemble(fem2d.gen_mesh("square", 32))  # cold caches: the factors count too
        tracemalloc.start()
        try:
            assert self.SUITES[suite](a).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * a.mesh.n_nodes**2

    @pytest.mark.parametrize("kind,n", MESH_SAMPLE)
    def test_mass_product_twin(self, kind, n, rng, monkeypatch):
        # the poisson_two_path twin applies M_dom without its band or its dense form
        a = asm(kind, n)
        m_dom = a.M_dom.dense()
        f = rng.standard_normal((a.mesh.n_nodes, 3))

        def refuse(*args):
            raise AssertionError("the M_dom band, or its assembly, was read")

        monkeypatch.setattr(fem2d.Band, "__matmul__", refuse)
        monkeypatch.setattr(fem2d.Band, "dense", refuse)
        monkeypatch.setattr(fem2d, "_simplex_bands", refuse)  # nor the assembly's element routine
        for x in (f, f[:, 0]):
            got = fem2d.mass_product(a.mesh, x)
            assert got.shape == x.shape
            assert np.abs(got - m_dom @ x).max() <= 1e-15 * np.abs(m_dom @ x).max()


class TestSuiteHhalf:
    def test_kind_without_closed_energy_rejected_before_work(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("suite_hhalf did work before checking the mesh kind")

        monkeypatch.setattr(tracescale, "_trace_pinv", refuse)
        monkeypatch.setattr(tracescale, "space_h1partial", refuse)
        with pytest.raises(BadParameter, match="'frame'"):
            tracescale.suite_hhalf(fem2d.assemble(frame_mesh(4)))

    def test_interval_exact_split(self):
        rep = tracescale.suite_hhalf(asm("interval", 1))
        assert rep.passed
        c = rep.constants
        assert (c["s_00"], c["s_01"], c["s_10"], c["s_11"]) == (2.0, -1.0, -1.0, 2.0)
        assert c["split_total"] == 3.0
        assert c["split_l2"] == 1.0
        assert c["split_extension"] == pytest.approx(2.0, abs=1e-13)
        assert rep.residuals["x_trace_energy"] <= 1e-15

    @pytest.mark.parametrize("kind", ["square", "lshape"])
    def test_two_dim_gates(self, kind):
        rep = tracescale.suite_hhalf(asm(kind, 4), trials=10)
        assert rep.passed
        assert rep.residuals["proof_identity"] <= 1e-9
        assert rep.residuals["energy_split"] <= 1e-10
        assert rep.residuals["x_trace_energy"] <= 1e-13
        # both routes build the same norm, so the constants sit at 1
        assert rep.constants["quotient_cmin"] == pytest.approx(1.0, abs=1e-6)
        assert rep.constants["quotient_cmax"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["square", "lshape"])
    def test_roots_of_s_in_place_of_i_plus_s_fail_proof_identity(self, kind, monkeypatch):
        # a smoothing that is not (I + S)^(-1/2) must not pass the proof identity
        def roots_of_s(a):
            return oplab.half_powers(tracescale._s_operator(a))

        monkeypatch.setattr(tracescale, "_s_roots", roots_of_s)
        rep = tracescale.suite_hhalf(fem2d.assemble(fem2d.gen_mesh(kind, 8)), trials=2)
        assert not rep.verdicts["proof_identity"]
        assert rep.residuals["proof_identity"] > 0.1

    @pytest.mark.parametrize("kind", ["interval", "square", "lshape"])
    def test_halved_robin_in_gram_fails_three_suites(self, kind):
        # K + R' M_b R / 2 in place of the combined H1 Gram, wherever the Gram is read.
        # S comes from the stiffness blocks, so every G route now disagrees with its
        # K-block twin; the closed-form energy, which reads no G, still holds
        true = fem2d.assemble(fem2d.gen_mesh(kind, 4))
        # K plus half of G's boundary-edge masses, in a fresh assembly, so no cached object holds the true Gram
        g, k = true.G, dict(zip(true.K.offsets, true.K.diags))
        diags = tuple(k.get(d, 0.0) + 0.5 * (v - k.get(d, 0.0)) for d, v in zip(g.offsets, g.diags))
        a = dataclasses.replace(true, G=fem2d.Band(offsets=g.offsets, diags=diags))
        hhalf = tracescale.suite_hhalf(a, trials=3)
        assert not hhalf.verdicts["energy_split"] and hhalf.verdicts["x_trace_energy"]
        assert not tracescale.suite_h1(a).verdicts["resolvent_identity"]
        pde = tracescale.suite_pde(a, trials=3, identity_samples=3)
        assert not pde.verdicts["robin_two_path"] and not pde.verdicts["poisson_two_path"]

    @pytest.mark.parametrize("kind,mutant", [("interval", 2.5), ("square", 3.5), ("lshape", 43.0 / 16.0)])
    def test_halved_robin_gram_fails_x_trace_energy(self, kind, mutant, monkeypatch):
        # the Robin term R' M_b R of G is the M_b term of its Schur complement
        # M_b S = M_b + K_bb + K_bi Z_i; halved there, S loses I/2 and g' Q_{1/2} g
        # drops by half the boundary L2 norm of g
        a = fem2d.assemble(fem2d.gen_mesh(kind, 4))  # fresh, so no cached scale holds the true S
        original = tracescale._s_operator

        def halved(asm_):
            s_op = original(asm_)
            return oplab.Operator(s_op.domain, s_op.codomain, s_op.mat - 0.5 * np.eye(s_op.domain.dim))

        monkeypatch.setattr(tracescale, "_s_operator", halved)
        rep = tracescale.suite_hhalf(a, trials=3)
        assert not rep.verdicts["x_trace_energy"]
        exact = tracescale.X_TRACE_ENERGY[kind]
        assert rep.residuals["x_trace_energy"] == pytest.approx(abs(mutant / exact - 1.0), rel=1e-12)

    @pytest.mark.parametrize("kind,exact", [("interval", 3.0), ("square", 13.0 / 3.0), ("lshape", 10.0 / 3.0)])
    def test_x_trace_energy_closed_form(self, kind, exact):
        assert tracescale.X_TRACE_ENERGY[kind] == pytest.approx(exact, rel=1e-15)
        for n in (2, 8):
            a = asm(kind, n)
            x = a.mesh.nodes[a.mesh.boundary_nodes, 0]
            assert x @ tracescale.hs_gram(a, 0.5).gram @ x == pytest.approx(exact, rel=1e-13)


class TestTracePinv:
    def test_trace_operator_dies_after_trace_pinv(self, monkeypatch):
        # the range-space route makes neither a trace SVD nor the 0/1 trace matrix,
        # and neither does the pde suite's Robin twin
        made = []

        def op_trace(a):
            made.append("op_trace")
            return fem2d.op_trace(a)

        def svd(*args, **kw):
            made.append("jacobi_svd")
            return original_svd(*args, **kw)

        original_svd = kernels.jacobi_svd
        assert not hasattr(tracescale, "op_trace")  # so the patch below reaches every caller
        monkeypatch.setattr(fem2d, "op_trace", op_trace)
        monkeypatch.setattr(kernels, "jacobi_svd", svd)
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))  # fresh, so _trace_pinv runs
        lam = trace_pinv_matrix(a)
        assert made == []
        assert np.abs(lam[a.mesh.boundary_nodes] - np.eye(16)).max() <= 1e-12
        assert tracescale.suite_pde(a, trials=3, identity_samples=3).passed
        assert made == []

    # lshape meshes need even refinement levels
    @pytest.mark.parametrize(
        "kind,n", [(k, n) for k in ("interval", "square") for n in (1, 2, 8)] + [("lshape", 2), ("lshape", 8)]
    )
    def test_range_space_matches_svd_pinv_and_extension(self, kind, n):
        check_range_space_pinv(asm(kind, n))

    def test_reads_g_alone(self, monkeypatch):
        # C and Lambda take G's band factor only: no interior factor, Schur
        # complement, ring block, extension matrix, trace matrix or operator SVD
        def refuse(*args, **kw):
            raise AssertionError("_trace_pinv read a second path")

        for name in ("_interior_chol", "_schur", "_coupling", "_extension_matrix"):
            monkeypatch.setattr(tracescale, name, refuse)
        monkeypatch.setattr(fem2d, "op_trace", refuse)
        monkeypatch.setattr(oplab.Operator, "svd", property(refuse))
        a = fem2d.assemble(fem2d.gen_mesh("lshape", 4))  # fresh, so nothing is cached
        lam = trace_pinv_matrix(a)
        assert np.abs(lam[a.mesh.boundary_nodes] - np.eye(a.M_b.shape[0])).max() <= 1e-12



class TestSuiteH1:
    def test_interval_exact_constants(self):
        rep = tracescale.suite_h1(asm("interval", 1))
        assert rep.passed
        assert rep.constants["h1_cmin"] == pytest.approx(2.0, abs=1e-12)
        assert rep.constants["h1_cmax"] == pytest.approx(4.0, abs=1e-12)
        assert rep.residuals["resolvent_identity"] <= 1e-12

    def test_interval_resolvent_hand_value(self):
        # both routes must produce ((I+S))^-1 for S = [[2,-1],[-1,2]]
        a = asm("interval", 1)
        s_mat = np.array([[2.0, -1.0], [-1.0, 2.0]])
        gamma = fem2d.op_trace(a)
        gg = oplab.adjoint(gamma).mat[a.mesh.boundary_nodes]
        lhs = gg @ np.linalg.inv(np.eye(2) + gg)
        expected = np.linalg.inv(np.eye(2) + s_mat)
        assert np.abs(lhs - expected).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["square", "lshape"])
    def test_two_dim_gates(self, kind):
        rep = tracescale.suite_h1(asm(kind, 4))
        assert rep.passed
        assert rep.residuals["ts_left"] <= 1e-9
        assert rep.residuals["ts_right"] <= 1e-9
        for key in ("h1_cmin", "h1_cmax", "seminorm_cmin", "seminorm_cmax", "cond_t", "cond_s"):
            assert np.isfinite(rep.constants[key])
            assert rep.constants[key] > 0.0


def count_kernel_calls(monkeypatch, names):
    """Patch each named kernel to log the shape of its input; returns {name: [shape, ...]}."""
    calls = {name: [] for name in names}

    def counted(name):
        kernel = getattr(kernels, name)

        def run(*args, **kw):
            calls[name].append(args[0].shape)
            return kernel(*args, **kw)

        return run

    for name in calls:
        monkeypatch.setattr(kernels, name, counted(name))
    return calls


class TestDecompositionCounts:
    def test_square_level_makes_no_eigensolve(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch, ("jacobi_eigh", "jacobi_svd", "extreme_eigh", "spd_sqrt"))
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))  # fresh, so no decomposition is cached
        for report in (
            tracescale.suite_pde(a, trials=2, identity_samples=2),
            tracescale.suite_hhalf(a, trials=2),
            tracescale.suite_h1(a),
            tracescale.suite_interp(a, trials=2),
            tracescale.suite_dual(a),
        ):
            assert report.passed
        # no full eigensolve: every order is a multiple of 1/4; square roots of
        # I + S once and of the bridge operator of suite_h1 once; extreme pairs:
        # three equivalence constants and the two bridge conditions; no SVD,
        # the trace pinv included
        assert [len(c) for c in calls.values()] == [0, 0, 5, 2]
        assert set(calls["extreme_eigh"]) == set(calls["spd_sqrt"]) == {(16, 16)}

    def test_other_orders_take_one_eigensolve(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch, ("jacobi_eigh", "spd_sqrt"))
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))
        for s in (0.3, -0.3, 0.7):
            tracescale.hs_gram(a, s)
        assert [len(c) for c in calls.values()] == [1, 0]


def count_shifts(monkeypatch):
    """Patch extreme_eigh's shift factorizations to be counted per end (per ``_lowest`` call); returns the counts."""
    ends = []
    lowest, shift = kernels._lowest, kernels._shift_factor

    def counted_lowest(*args):
        ends.append(0)
        return lowest(*args)

    def counted_shift(*args):
        ends[-1] += 1
        return shift(*args)

    monkeypatch.setattr(kernels, "_lowest", counted_lowest)
    monkeypatch.setattr(kernels, "_shift_factor", counted_shift)
    return ends


class TestShiftCounts:
    def test_h1_ends_open_at_a_guess(self, monkeypatch):
        ends = count_shifts(monkeypatch)
        a = fem2d.assemble(fem2d.gen_mesh("square", 8))
        assert tracescale.suite_h1(a).passed
        # four extreme_eigh calls; bisecting from the Gershgorin bracket took about 46 shifts an end
        assert len(ends) == 8
        assert max(ends) <= 2

    def test_hhalf_quotient_bisects_without_a_guess(self, monkeypatch):
        ends = count_shifts(monkeypatch)
        a = fem2d.assemble(fem2d.gen_mesh("square", 8))
        assert tracescale.suite_hhalf(a, trials=2).passed
        # the near-identity quotient's Gershgorin radii are within the width,
        # so neither end takes a guess, and each bisects once past its bound
        assert ends == [2, 2]


NECAS_MAXIMA = ("trace_rough_max", "trace_smooth_max", "flux_rough_max", "flux_smooth_max", "rellich_max")


def necas_reference(a, n_samples, seed):
    """necas constants sample by sample, from the one-column solvers and dense solves."""
    rng = np.random.default_rng(seed)
    bnd = a.mesh.boundary_nodes
    interior = np.setdiff1d(np.arange(a.mesh.n_nodes), bnd)
    k, m_dom = a.K.dense(), a.M_dom.dense()
    h1_dom = k + m_dom
    h1_bnd = a.M_b + a.K_b
    eye_s = np.eye(bnd.size) + tracescale._s_operator(a).mat

    def ratios(g):
        u = tracescale.harmonic_extension(a, g)
        w = tracescale.normal_derivative(a, u)
        dom, flux, trace = u @ h1_dom @ u, w @ a.M_b @ w, g @ h1_bnd @ g
        return float(np.sqrt(trace / (dom + flux))), float(np.sqrt(flux / (dom + trace)))

    worst = dict.fromkeys(NECAS_MAXIMA, 0.0)
    for _ in range(n_samples):
        g = rng.standard_normal(bnd.size)
        for name, data in (("rough", g), ("smooth", np.linalg.solve(eye_s, g))):
            r1, r2 = ratios(data)
            worst[f"trace_{name}_max"] = max(worst[f"trace_{name}_max"], r1)
            worst[f"flux_{name}_max"] = max(worst[f"flux_{name}_max"], r2)
        f = rng.standard_normal(a.mesh.n_nodes)
        load = m_dom @ f
        u0 = np.zeros(a.mesh.n_nodes)
        u0[interior] = np.linalg.solve(k[np.ix_(interior, interior)], load[interior])
        w0 = np.linalg.solve(a.M_b, (k @ u0 - load)[bnd])
        worst["rellich_max"] = max(worst["rellich_max"], float(np.sqrt((w0 @ a.M_b @ w0) / (f @ m_dom @ f))))
    worst["trace_const"] = ratios(np.ones(bnd.size))[0]
    return worst


class TestNecasConstants:
    @pytest.mark.parametrize(
        "kind,expected",
        [("interval", np.sqrt(2.0)), ("square", 2.0), ("lshape", 4.0 / np.sqrt(3.0))],
    )
    def test_constant_data_ratio(self, kind, expected):
        # sqrt(perimeter/area), since constants have no gradient and no flux
        rep = tracescale.necas_constants(asm(kind, 4), n_samples=5, seed=0)
        assert rep.constants["trace_const"] == pytest.approx(expected, rel=1e-9)

    def test_all_samples_finite(self):
        rep = tracescale.necas_constants(asm("square", 4), n_samples=40, seed=1)
        assert rep.passed
        assert rep.residuals["sample_failures"] == 0.0
        for key in (
            "trace_rough_max",
            "trace_smooth_max",
            "flux_rough_max",
            "flux_smooth_max",
            "rellich_max",
        ):
            assert np.isfinite(rep.constants[key])
            assert rep.constants[key] > 0.0

    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)])
    def test_matches_sample_by_sample_reference(self, kind, n):
        a = asm(kind, n)
        # one block, then three blocks: the draw order must run on across them
        for n_samples in (30, 2 * tracescale.NECAS_BLOCK + 5):
            rep = tracescale.necas_constants(a, n_samples=n_samples, seed=9)
            expected = necas_reference(a, n_samples=n_samples, seed=9)
            assert set(rep.constants) == set(expected) | {"samples"}
            for key, value in expected.items():
                assert rep.constants[key] == pytest.approx(value, rel=1e-12), (n_samples, key)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 133, 200, 1000])
    def test_blocks_are_balanced(self, n):
        widths = tracescale._block_widths(n)
        assert sum(widths) == n
        assert len(widths) == -(-n // tracescale.NECAS_BLOCK)
        assert widths == sorted(widths, reverse=True)
        assert all(w <= tracescale.NECAS_BLOCK for w in widths)
        assert not widths or widths[0] - widths[-1] <= 1

    # sample 2; samples 1 and 4; a sample in the second block of two
    @pytest.mark.parametrize("columns", [[2], [1, 4], [tracescale.NECAS_BLOCK + 2]])
    def test_nan_sample_counts_one_failure_each(self, monkeypatch, columns):
        n_samples = tracescale.NECAS_BLOCK + 6
        width = n_samples // 2  # two equal blocks
        original = tracescale._flux
        calls = []

        def planted(a, z, kz):
            w = original(a, z, kz)
            block, population = divmod(len(calls), 2)
            if population == 0 and block < 2:  # a block's rough population
                w[:, [c - block * width for c in columns if c // width == block]] = np.nan
            calls.append(w.shape)
            return w

        monkeypatch.setattr(tracescale, "_flux", planted)
        rep = tracescale.necas_constants(asm("square", 4), n_samples=n_samples, seed=0)
        # rough and smooth flux blocks of each sample block, then the constant data
        assert calls == [(16, width)] * 4 + [(16, 1)]
        assert rep.residuals["sample_failures"] == float(len(columns))
        assert not rep.passed
        assert all(np.isfinite(v) for v in rep.constants.values())

    def test_memory_does_not_grow_with_samples(self):
        a = asm("square", 32)
        tracescale.necas_constants(a, n_samples=1)  # the cached factors and spaces
        peaks = []
        for n_samples in (100, 400):
            tracemalloc.start()
            try:
                tracescale.necas_constants(a, n_samples=n_samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_band_products_per_block(self, monkeypatch):
        # per block: K u for each population, whose energy reads M_dom.quad, and M_dom f;
        # then K u and M_dom.quad for the constant data.  No K + M_dom band is summed.
        counts = {"__matmul__": 0, "quad": 0, "__add__": 0}
        # cold caches: their builders count too; the assembly's own sum K + facet mass (G) does not
        a = fem2d.assemble(fem2d.gen_mesh("square", 8))
        for name in counts:
            original = getattr(fem2d.Band, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(fem2d.Band, name, counted)
        assert len(tracescale._block_widths(130)) == 3
        tracescale.necas_constants(a, n_samples=130, seed=0)
        assert counts == {"__matmul__": 3 * 3 + 1, "quad": 3 * 2 + 1, "__add__": 0}

    def test_deterministic_in_seed(self):
        r1 = tracescale.necas_constants(asm("square", 2), n_samples=10, seed=5)
        r2 = tracescale.necas_constants(asm("square", 2), n_samples=10, seed=5)
        assert r1.constants == r2.constants


class TestInterpolation:
    def test_interval_hand_norms(self):
        rep = tracescale.interpolation_check(asm("interval", 1), [1.0, 0.0], [0.0, 0.5, 1.0])
        assert rep.passed
        assert rep.constants["norm_t_0"] == pytest.approx(1.0)
        assert rep.constants["norm_t_0.5"] == pytest.approx(np.sqrt(3.0))
        assert rep.constants["norm_t_1"] == pytest.approx(np.sqrt(10.0))
        # the middle norm stays below the geometric mean of the endpoints
        assert np.sqrt(3.0) <= np.sqrt(1.0 * np.sqrt(10.0)) + 1e-12

    def test_eigenvector_attains_equality(self):
        rep = tracescale.interpolation_check(asm("interval", 1), [1.0, 1.0], [0.0, 0.5, 1.0])
        assert rep.residuals["log_convexity_excess"] <= 1e-14

    def test_random_population(self, rng):
        a = asm("square", 8)
        for _ in range(100):
            rep = tracescale.interpolation_check(
                a, rng.standard_normal(32), [0.0, 0.25, 0.5, 0.75, 1.0]
            )
            assert rep.residuals["log_convexity_excess"] <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            tracescale.interpolation_check(asm("interval", 1), [0.0, 0.0], [0.0, 1.0])

    def test_grid_range_checked(self):
        with pytest.raises(OrderOutOfRange):
            tracescale.interpolation_check(asm("interval", 1), [1.0, 0.0], [0.0, 1.5])

    def test_nan_order_rejected(self):
        with pytest.raises(OrderOutOfRange):
            tracescale.interpolation_check(asm("interval", 1), [1.0, 0.0], [0.0, float("nan"), 1.0])

    def test_coincident_orders(self):
        a = asm("interval", 1)
        rep = tracescale.interpolation_check(a, [1.0, 0.0], [0.5, 0.5, 0.5])
        assert rep.passed and "log_convexity_excess" not in rep.residuals
        assert rep.constants == {"norm_t_0.5": pytest.approx(np.sqrt(3.0))}
        # a repeated endpoint still bounds the order between
        rep = tracescale.interpolation_check(a, [1.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0])
        assert rep.passed and rep.residuals["log_convexity_excess"] <= 1e-14

    def test_suite_wrapper(self):
        rep = tracescale.suite_interp(asm("square", 4), trials=20, seed=0)
        assert rep.passed
        assert rep.constants["trials"] == 20.0

    def test_suite_checks_the_per_trial_stream_as_one_block(self, monkeypatch):
        a = asm("square", 4)
        grid = tracescale.INTERP_GRID
        blocks = []
        record = tracescale._record_log_convexity

        def spy(rec, a, g, grid):
            blocks.append(g)
            return record(rec, a, g, grid)

        monkeypatch.setattr(tracescale, "_record_log_convexity", spy)
        tracescale.suite_interp(a, trials=20, seed=5)
        assert len(blocks) == 1 and blocks[0].shape == (16, 20)
        # trial j is the j-th draw of one vector per trial, and its norms are interpolation_check's
        rng = np.random.default_rng(5)
        single = [rng.standard_normal(16) for _ in range(20)]
        assert np.array_equal(blocks[0], np.column_stack(single))
        norms = record(Recorder("interp"), a, blocks[0], grid)
        for j, g in enumerate(single):
            for name, value in tracescale.interpolation_check(a, g, grid).constants.items():
                assert norms[float(name.removeprefix("norm_t_"))][j] == pytest.approx(value, rel=1e-14)

    def test_no_trials(self):
        rep = tracescale.suite_interp(asm("square", 4), trials=0)
        assert rep.passed and rep.residuals == {}

    def test_zero_column_in_block_rejected(self):
        rec = Recorder("interp", "interval")
        g = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 1.0]])
        with pytest.raises(ZeroVector):
            tracescale._record_log_convexity(rec, asm("interval", 1), g, [0.0, 0.5, 1.0])
        assert rec.worst == {}

    def test_one_vector_api(self):
        with pytest.raises(DimensionMismatch):
            tracescale.interpolation_check(asm("interval", 1), np.ones((2, 2)), [0.0, 1.0])


class TestDuality:
    def test_interval_half_order(self):
        rep = tracescale.duality_check(asm("interval", 1), 0.5)
        assert rep.passed
        assert rep.residuals["dual_gram"] <= 1e-13

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
    def test_square_orders(self, s):
        rep = tracescale.duality_check(asm("square", 8), s)
        assert rep.passed
        assert rep.residuals["dual_gram"] <= 1e-9
        assert rep.residuals["dual_attainment"] <= 1e-9
        assert rep.residuals["dual_bound_excess"] <= 1e-9

    @pytest.mark.parametrize("s", [0.0, -0.5, 1.5])
    def test_order_domain(self, s):
        with pytest.raises(OrderOutOfRange):
            tracescale.duality_check(asm("interval", 1), s)

    def test_suite_wrapper(self):
        rep = tracescale.suite_dual(asm("interval", 1), seed=3)
        assert rep.passed
        for s in ("0.25", "0.5", "0.75", "1"):
            assert f"gram_residual_s_{s}" in rep.constants

    def test_one_solve_per_order(self, monkeypatch):
        # the probes of an order share one Q_s^-1 M_b, solved by Q_s's own Cholesky factor
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))
        spaces = []
        solve = oplab.InnerSpace.solve

        def counted(space, rhs):
            spaces.append(space)
            return solve(space, rhs)

        monkeypatch.setattr(oplab.InnerSpace, "solve", counted)
        assert tracescale.suite_dual(a).passed
        for s in tracescale.DUAL_ORDERS:
            q_s = tracescale.hs_gram(a, s)
            assert sum(space is q_s for space in spaces) == 1

    def test_nan_probe_raises(self, monkeypatch):
        colnorm = tracescale._colnorm

        def poisoned(x, q):
            out = colnorm(x, q)
            out[3] = np.nan
            return out

        monkeypatch.setattr(tracescale, "_colnorm", poisoned)
        with pytest.raises(NonFiniteResidual, match=r"dual:square:4 residual 'dual_\w+'"):
            tracescale.duality_check(asm("square", 4), 0.5)


class TestRefinementStability:
    def test_drift_mode_pass(self):
        rep = tracescale.refinement_stability(
            "hhalf", "square", {"c": [1.0, 1.1, 1.05]}, limit=0.25, mode="drift"
        )
        assert rep.suite == "hhalf-stability"
        assert rep.passed
        assert rep.residuals["c"] == pytest.approx(0.1)

    def test_drift_mode_fail(self):
        rep = tracescale.refinement_stability(
            "hhalf", "square", {"c": [1.0, 1.5]}, limit=0.25, mode="drift"
        )
        assert not rep.passed

    def test_growth_mode(self):
        ok = tracescale.refinement_stability(
            "necas", "lshape", {"m": [2.0, 4.0]}, limit=3.0, mode="growth"
        )
        assert ok.passed and ok.residuals["m"] == pytest.approx(2.0)
        bad = tracescale.refinement_stability(
            "necas", "lshape", {"m": [1.0, 4.0]}, limit=3.0, mode="growth"
        )
        assert not bad.passed

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tracescale.refinement_stability("h1", "square", {}, 1.0, "ratio")

    def test_nan_constant_raises(self):
        # a NaN level must not read as a zero drift
        with pytest.raises(NonFiniteResidual, match="hhalf-stability:square:0 residual 'c'"):
            tracescale.refinement_stability("hhalf", "square", {"c": [1.0, float("nan"), 1.0]}, 0.25, "drift")
