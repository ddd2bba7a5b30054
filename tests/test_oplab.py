"""Weighted operator algebra: hand values, Penrose properties, factorizations.

The weighted pseudo-inverse oracle below goes through symmetric Gram
square roots (numpy eigh), a different route from the package's Cholesky
coordinates, so agreement is a real cross-check.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from tracelab import kernels, oplab
from tracelab.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteResidual,
    NotPositiveDefinite,
    NotSelfAdjoint,
    NotSymmetric,
    RangeNotContained,
    SolveFailure,
)


def euclidean(dim):
    return oplab.make_space(dim, np.eye(dim))


def sym_sqrt(g, power=0.5):
    vals, vecs = np.linalg.eigh(g)
    return vecs @ np.diag(vals**power) @ vecs.T


def weighted_pinv_oracle(op):
    """MP inverse w.r.t. the Grams, via symmetric square roots."""
    s1 = sym_sqrt(op.domain.gram)
    s1_inv = sym_sqrt(op.domain.gram, -0.5)
    s2 = sym_sqrt(op.codomain.gram)
    s2_inv = sym_sqrt(op.codomain.gram, -0.5)
    tilde = s2 @ op.mat @ s1_inv
    return s1_inv @ np.linalg.pinv(tilde) @ s2


def random_weighted_space(rng, dim):
    m = rng.standard_normal((dim, dim))
    return oplab.make_space(dim, m @ m.T + dim * np.eye(dim))


def count_outer_svds(monkeypatch):
    """Patch kernels.jacobi_svd to record the input of each outermost call.

    A wide input recurses on its transpose and a tall one on its QR factor;
    the depth guard counts such a call once, as the benchmark tracer does.
    """
    inputs, depth = [], [0]
    original = kernels.jacobi_svd

    def counted(m, *args, **kw):
        if depth[0] == 0:
            inputs.append(np.array(m, dtype=float))
        depth[0] += 1
        try:
            return original(m, *args, **kw)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "jacobi_svd", counted)
    return inputs


def random_space_svd_only(rng, dim, cond_cap=1e4):
    """Reference for random_space without its Frobenius pre-test: every Gram is decided by its SVD."""
    for _ in range(64):
        m = rng.standard_normal((dim, dim))
        g = m.T @ m + np.eye(dim)
        _, s, _ = kernels.jacobi_svd(g)
        if s[-1] > 0.0 and s[0] / s[-1] <= cond_cap:
            return g
    raise SolveFailure("could not draw a well-conditioned Gram")


class TestMakeSpace:
    def test_euclidean_plane(self):
        sp = oplab.make_space(2, np.eye(2))
        assert sp.dim == 2
        assert np.array([1.0, 0.0]) @ sp.gram @ np.array([0.0, 1.0]) == 0.0
        assert sp.norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_scaled_gram(self):
        sp = oplab.make_space(2, [[2.0, 0.0], [0.0, 2.0]])
        assert sp.norm([1.0, 0.0]) == pytest.approx(np.sqrt(2.0))

    def test_indefinite_gram_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            oplab.make_space(2, [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(NotSymmetric):
            oplab.make_space(2, [[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        # a NaN passes the symmetry test, and Cholesky does not raise on it
        with pytest.raises(NotPositiveDefinite):
            oplab.make_space(2, [[bad, 0.0], [0.0, 1.0]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            oplab.make_space(3, np.eye(2))


EPS = np.finfo(float).eps


def graded_gram(rng, n, cond, decades):
    """D A D: A has condition number ``cond`` exactly, D spans up to ``decades``
    either way, in random order, so the factor's rows are graded."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
    d = 10.0 ** (decades * rng.uniform(-1.0, 1.0, n))
    g = d[:, None] * a * d[None, :]
    return 0.5 * (g + g.T)


def assert_solves_match_lapack(space, rhs, cond):
    """lower_solve, its transpose and solve against LAPACK's trtrs and potrs.

    Column by column, relative to the column's largest entry, the forward
    error of a triangular or Cholesky solve is bounded by about n eps times
    the condition number of the ungraded core, the bound used here.
    """
    kept = rhs.copy()
    low = space.chol
    cases = [
        (space.lower_solve(rhs), scipy.linalg.solve_triangular(low, rhs, lower=True)),
        (space.lower_solve(rhs, trans=True), scipy.linalg.solve_triangular(low, rhs, lower=True, trans="T")),
        (space.solve(rhs), scipy.linalg.cho_solve((low, True), rhs)),
    ]
    assert np.array_equal(rhs, kept)
    for got, ref in cases:
        assert got.shape == rhs.shape
        scale = np.abs(ref).max(axis=0, initial=0.0)
        assert np.all(np.abs(got - ref) <= space.dim * EPS * cond * scale)


class TestSolve:
    # one block, a block short of, at and past the block size, and several blocks with a partial last one
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 289])
    @pytest.mark.parametrize("cols", [None, 7, 0], ids=["vector", "block", "empty"])
    def test_matches_lapack(self, n, cols, rng):
        space = oplab.make_space(n, graded_gram(rng, n, 100.0, 0.0))
        rhs = rng.standard_normal(n if cols is None else (n, cols))
        assert_solves_match_lapack(space, rhs, 100.0)

    @given(n=st.integers(1, 150), cond=st.sampled_from([1.0, 1e2, 1e4]), decades=st.sampled_from([0.0, 2.0, 6.0]),
           cols=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_property_graded_grams(self, n, cond, decades, cols, seed):
        rng = np.random.default_rng(seed)
        space = oplab.make_space(n, graded_gram(rng, n, cond, decades))
        assert_solves_match_lapack(space, rng.standard_normal((n, cols)), cond)

    def test_factor_blocks_inverted_once(self, rng, monkeypatch):
        space = random_weighted_space(rng, 150)
        rhs = rng.standard_normal((150, 3))
        first = space.solve(rhs)

        def refuse(*args, **kw):
            raise AssertionError("a solve factored or inverted again")

        for name in ("inv", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert np.array_equal(space.solve(rhs), first)
        assert len(space._diag_inv) == 3 and [b.shape[0] for b in space._diag_inv] == [64, 64, 22]

    # a whole leaf, one row past it, and halvings down to uneven leaves
    @pytest.mark.parametrize("n", [1, 32, 33, 64, 100, 256])
    def test_tril_inv_matches_lapack(self, n, rng):
        # graded rows make the leaf LU pivot, so its zero triangle is not kept for free
        low = np.linalg.cholesky(graded_gram(rng, n, 100.0, 6.0))
        got = oplab.tril_inv(low)
        ref = scipy.linalg.solve_triangular(low, np.eye(n), lower=True)
        assert np.array_equal(got, np.tril(got))
        assert np.all(np.abs(got - ref) <= n * EPS * 100.0 * np.abs(ref).max(axis=0))

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 2, 1)])
    def test_wrong_rows_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            euclidean(3).solve(np.ones(shape))


class TestAdjoint:
    def test_euclidean_is_transpose(self):
        sp = euclidean(2)
        a = oplab.Operator(sp, sp, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(oplab.adjoint(a).mat, a.mat.T)

    def test_identity_between_equal_grams(self, rng):
        sp = random_weighted_space(rng, 3)
        sp2 = oplab.make_space(3, sp.gram)
        a = oplab.Operator(sp, sp2, np.eye(3))
        assert np.abs(oplab.adjoint(a).mat - np.eye(3)).max() <= 1e-13

    def test_weighted_domain_hand_value(self):
        dom = oplab.make_space(2, np.diag([2.0, 1.0]))
        a = oplab.Operator(dom, euclidean(2), np.eye(2))
        assert np.allclose(oplab.adjoint(a).mat, np.diag([0.5, 1.0]), atol=1e-14)

    def test_involution(self, rng):
        for _ in range(20):
            dom = random_weighted_space(rng, 4)
            cod = random_weighted_space(rng, 3)
            a = oplab.Operator(dom, cod, rng.standard_normal((3, 4)))
            assert np.abs(oplab.adjoint(oplab.adjoint(a)).mat - a.mat).max() <= 1e-12

    def test_inner_product_pairing(self, rng):
        for _ in range(20):
            dom = random_weighted_space(rng, 5)
            cod = random_weighted_space(rng, 3)
            a = oplab.Operator(dom, cod, rng.standard_normal((3, 5)))
            astar = oplab.adjoint(a)
            x = rng.standard_normal(5)
            y = rng.standard_normal(3)
            lhs = a.apply(x) @ cod.gram @ y
            rhs = x @ dom.gram @ astar.apply(y)
            assert abs(lhs - rhs) <= 1e-10 * dom.norm(x) * cod.norm(y)


class TestPinv:
    def test_invertible_square(self, rng):
        dom = random_weighted_space(rng, 3)
        cod = random_weighted_space(rng, 3)
        mat = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        a = oplab.Operator(dom, cod, mat)
        assert np.abs(oplab.pinv(a).mat - np.linalg.inv(mat)).max() <= 1e-10

    def test_zero_operator(self):
        a = oplab.Operator(euclidean(4), euclidean(2), np.zeros((2, 4)))
        assert np.all(oplab.pinv(a).mat == 0.0)
        assert oplab.pinv(a).mat.shape == (4, 2)

    def test_euclidean_matches_numpy(self, rng):
        a = oplab.Operator(euclidean(4), euclidean(3), rng.standard_normal((3, 4)))
        assert np.abs(oplab.pinv(a).mat - np.linalg.pinv(a.mat)).max() <= 1e-10

    def test_weighted_matches_oracle(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            dom = random_weighted_space(rng, n)
            cod = random_weighted_space(rng, m)
            mat = rng.standard_normal((m, n))
            if rng.random() < 0.4 and min(m, n) > 1:
                # force rank deficiency
                k = int(rng.integers(1, min(m, n)))
                mat = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
            a = oplab.Operator(dom, cod, mat)
            oracle = weighted_pinv_oracle(a)
            scale = max(np.abs(oracle).max(), 1.0)
            assert np.abs(oplab.pinv(a).mat - oracle).max() <= 1e-9 * scale

    def test_penrose_relations_weighted(self, rng):
        for _ in range(25):
            dom = random_weighted_space(rng, 5)
            cod = random_weighted_space(rng, 4)
            mat = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
            a = oplab.Operator(dom, cod, mat)
            b = oplab.pinv(a)
            ab = a @ b
            ba = b @ a
            scale = max(np.abs(a.mat).max(), 1.0)
            assert np.abs((a @ ba).mat - a.mat).max() <= 1e-10 * scale
            assert np.abs((b @ ab).mat - b.mat).max() <= 1e-10 * max(np.abs(b.mat).max(), 1.0)
            # projections are self-adjoint w.r.t. the weighted products
            assert np.abs(oplab.adjoint(ab).mat - ab.mat).max() <= 1e-10
            assert np.abs(oplab.adjoint(ba).mat - ba.mat).max() <= 1e-10

    def test_double_pinv_returns(self, rng):
        for _ in range(10):
            dom = random_weighted_space(rng, 4)
            cod = random_weighted_space(rng, 6)
            a = oplab.Operator(dom, cod, rng.standard_normal((6, 4)))
            back = oplab.pinv(oplab.pinv(a))
            assert np.abs(back.mat - a.mat).max() <= 1e-9 * max(np.abs(a.mat).max(), 1.0)

    def test_one_svd_per_operator_keyed_on_identity(self, rng, monkeypatch):
        # a cache keyed on the shape would hand the second operator the first one's SVD
        inputs = count_outer_svds(monkeypatch)
        dom, cod = random_weighted_space(rng, 3), random_weighted_space(rng, 4)
        a = oplab.Operator(dom, cod, rng.standard_normal((4, 3)))
        b = oplab.pinv(a)
        oplab.op_norm(a)
        oplab.labrousse_check(a)
        a_e = oplab.to_euclidean(a)
        assert sum(np.array_equal(m, a_e) for m in inputs) == 1

        inputs.clear()
        other = oplab.Operator(dom, cod, rng.standard_normal((4, 3)))
        other_b = oplab.pinv(other)
        assert len(inputs) == 1 and np.array_equal(inputs[0], oplab.to_euclidean(other))
        assert np.abs(b.mat - weighted_pinv_oracle(a)).max() <= 1e-10 * np.abs(b.mat).max()
        assert np.abs(other_b.mat - weighted_pinv_oracle(other)).max() <= 1e-10 * np.abs(other_b.mat).max()
        assert oplab.op_norm(other) == pytest.approx(np.linalg.norm(oplab.to_euclidean(other), 2), rel=1e-12)
        assert len(inputs) == 1


class TestRandomSpace:
    def test_same_stream_as_svd_only_loop(self, monkeypatch):
        # at the fixtures' dims the bound 1 + |M|_F^2 alone decides: no SVD is
        # taken, and the Grams and the stream are those of a loop that takes one
        inputs = count_outer_svds(monkeypatch)
        for dim in range(1, oplab.DIM_CAP + 1):
            new_rng, old_rng = np.random.default_rng(dim), np.random.default_rng(dim)
            new = oplab.random_space(new_rng, dim).gram
            assert not inputs
            assert np.array_equal(new, random_space_svd_only(old_rng, dim, oplab.COND_CAP))
            assert new_rng.random() == old_rng.random()
            inputs.clear()

    def test_bound_over_cap_exhausts_the_draws(self, rng):
        # |M|_F^2 of a 120 x 120 normal M is 14400 +- 170, always over the cap
        with pytest.raises(SolveFailure, match="well-conditioned"):
            oplab.random_space(rng, 120)


class TestFracPower:
    def test_diagonal_inverse_sqrt(self):
        sp = euclidean(2)
        s = oplab.Operator(sp, sp, np.diag([1.0, 4.0]))
        out = oplab.frac_power(s, -0.5)
        assert np.abs(out.mat - np.diag([1.0, 0.5])).max() <= 1e-14

    def test_power_zero_is_identity(self, rng):
        sp = euclidean(3)
        m = rng.standard_normal((3, 3))
        s = oplab.Operator(sp, sp, m @ m.T)
        assert np.abs(oplab.frac_power(s, 0.0).mat - np.eye(3)).max() <= 1e-13

    def test_tridiagonal_sqrt_hand_value(self):
        sp = euclidean(2)
        s = oplab.Operator(sp, sp, np.array([[2.0, -1.0], [-1.0, 2.0]]))
        root = oplab.frac_power(s, 0.5)
        # eigenvalues 1 and sqrt(3) on (1,1)/sqrt2 and (1,-1)/sqrt2
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        expected = v @ np.diag([1.0, np.sqrt(3.0)]) @ v.T
        assert np.abs(root.mat - expected).max() <= 1e-13
        assert np.abs((root @ root).mat - s.mat).max() <= 1e-13

    def test_power_inverse_pairing(self, rng):
        # spectrum >= 1: I + A*A for a random A on the weighted space
        sp = random_weighted_space(rng, 4)
        a = oplab.Operator(sp, sp, rng.standard_normal((4, 4)))
        s = oplab.identity(sp) + oplab.adjoint(a) @ a
        for t in (0.5, -0.5, 2.0, -1.0, 0.25):
            fwd = oplab.frac_power(s, t)
            bwd = oplab.frac_power(s, -t)
            assert np.abs((fwd @ bwd).mat - np.eye(4)).max() <= 1e-9

    def test_rejects_non_self_adjoint(self, rng):
        sp = random_weighted_space(rng, 3)
        with pytest.raises(NotSelfAdjoint):
            oplab.frac_power(oplab.Operator(sp, sp, rng.standard_normal((3, 3))), 0.5)

    def test_rejects_negative_spectrum_fractional(self):
        sp = euclidean(2)
        s = oplab.Operator(sp, sp, np.diag([1.0, -2.0]))
        with pytest.raises(NegativeEigenvalue):
            oplab.frac_power(s, 0.5)

    def test_negative_power_of_singular_fails(self):
        sp = euclidean(2)
        s = oplab.Operator(sp, sp, np.diag([1.0, 0.0]))
        with pytest.raises(SolveFailure):
            oplab.frac_power(s, -0.5)

    def test_integer_power_allows_negative_spectrum(self):
        sp = euclidean(2)
        s = oplab.Operator(sp, sp, np.diag([1.0, -2.0]))
        assert np.abs(oplab.frac_power(s, 2.0).mat - np.diag([1.0, 4.0])).max() <= 1e-12


class TestHalfPowers:
    def test_matches_frac_power_on_a_weighted_space(self, rng):
        sp = random_weighted_space(rng, 5)
        a = oplab.Operator(sp, sp, rng.standard_normal((5, 5)))
        s = oplab.identity(sp) + oplab.adjoint(a) @ a
        root, inv_root = oplab.half_powers(s)
        assert root.domain is sp and root.codomain is sp
        assert np.abs(root.mat - oplab.frac_power(s, 0.5).mat).max() <= 1e-12
        assert np.abs(inv_root.mat - oplab.frac_power(s, -0.5).mat).max() <= 1e-12
        assert np.abs((root @ root).mat - s.mat).max() <= 1e-12 * np.abs(s.mat).max()
        assert np.abs((root @ inv_root).mat - np.eye(5)).max() <= 1e-12

    def test_rejects_non_self_adjoint(self, rng):
        sp = random_weighted_space(rng, 3)
        with pytest.raises(NotSelfAdjoint):
            oplab.half_powers(oplab.Operator(sp, sp, rng.standard_normal((3, 3))))

    def test_rejects_a_spectrum_that_is_not_positive(self):
        sp = euclidean(2)
        for diag in ([1.0, -2.0], [1.0, 0.0]):
            with pytest.raises(NotPositiveDefinite):
                oplab.half_powers(oplab.Operator(sp, sp, np.diag(diag)))

    def test_rejects_a_map_between_two_spaces(self, rng):
        dom, cod = random_weighted_space(rng, 3), random_weighted_space(rng, 3)
        with pytest.raises(DimensionMismatch):
            oplab.half_powers(oplab.Operator(dom, cod, np.eye(3)))


class TestDouglasFactor:
    def test_equal_operators(self, rng):
        dom = random_weighted_space(rng, 4)
        cod = random_weighted_space(rng, 3)
        b = oplab.Operator(dom, cod, rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4)))
        c, mu = oplab.douglas_factor(b, b)
        assert mu == pytest.approx(1.0, abs=1e-9)
        # b†b projects onto range(b*)
        proj = (oplab.pinv(b) @ b).mat
        assert np.abs(c.mat - proj).max() <= 1e-10
        assert np.abs((c @ c).mat - c.mat).max() <= 1e-10

    def test_zero_numerator(self, rng):
        dom = random_weighted_space(rng, 3)
        cod = random_weighted_space(rng, 3)
        b = oplab.Operator(dom, cod, rng.standard_normal((3, 3)))
        a = oplab.Operator(dom, cod, np.zeros((3, 3)))
        c, mu = oplab.douglas_factor(a, b)
        assert mu == 0.0
        assert np.abs(c.mat).max() <= 1e-14

    def test_factorization_and_mu_oracle(self, rng):
        for _ in range(15):
            dom_b = random_weighted_space(rng, 5)
            dom_a = random_weighted_space(rng, 4)
            cod = random_weighted_space(rng, 3)
            b = oplab.Operator(dom_b, cod, rng.standard_normal((3, 5)))
            a = b @ oplab.Operator(dom_a, dom_b, rng.standard_normal((5, 4)))
            c, mu = oplab.douglas_factor(a, b)
            scale = max(np.abs(a.mat).max(), 1.0)
            assert np.abs((b @ c).mat - a.mat).max() <= 1e-10 * scale
            assert mu == pytest.approx(douglas_mu_oracle(a, b), rel=1e-8)

    def test_range_leak_rejected(self, rng):
        sp = euclidean(2)
        b = oplab.Operator(sp, sp, np.diag([1.0, 0.0]))
        a = oplab.identity(sp)
        with pytest.raises(RangeNotContained):
            oplab.douglas_factor(a, b)

    def test_nullspace_match(self, rng):
        dom_b = random_weighted_space(rng, 4)
        cod = random_weighted_space(rng, 4)
        b = oplab.Operator(dom_b, cod, rng.standard_normal((4, 4)))
        m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))  # rank 2
        a = b @ oplab.Operator(dom_b, dom_b, m)
        c, _ = oplab.douglas_factor(a, b)
        assert np.linalg.matrix_rank(c.mat) == np.linalg.matrix_rank(a.mat)
        # null vectors of a are null vectors of c and vice versa
        _, _, vt = np.linalg.svd(a.mat)
        for v in vt[np.linalg.matrix_rank(a.mat):]:
            assert np.linalg.norm(c.mat @ v) <= 1e-10


def douglas_mu_oracle(a, b):
    """Largest generalized eigenvalue of the two squared operators on range(b).

    Plain numpy/scipy route, no package internals.
    """
    g = a.codomain.gram
    astar = np.linalg.solve(a.domain.gram, a.mat.T @ g)
    bstar = np.linalg.solve(b.domain.gram, b.mat.T @ g)
    aa = a.mat @ astar
    bb = b.mat @ bstar
    u, s, _ = np.linalg.svd(b.mat)
    rank = int(np.sum(s > s[0] * max(b.mat.shape) * np.finfo(float).eps)) if s.size else 0
    v = u[:, :rank]
    if rank == 0:
        return 0.0
    lhs = v.T @ g @ aa @ v
    rhs = v.T @ g @ bb @ v
    lhs = (lhs + lhs.T) / 2.0
    rhs = (rhs + rhs.T) / 2.0
    return float(scipy.linalg.eigh(lhs, rhs, eigvals_only=True).max())


class TestLabrousse:
    def test_identity_operator(self):
        sp = euclidean(3)
        out = oplab.labrousse_check(oplab.identity(sp))
        assert set(out) == {"item1", "item2", "item3", "item4", "item5", "item6"}
        assert max(out.values()) <= 1e-12

    def test_zero_operator_degenerate_projection(self):
        sp = euclidean(2)
        a = oplab.Operator(sp, sp, np.zeros((2, 2)))
        out = oplab.labrousse_check(a)
        assert out["item2"] <= 1e-14
        assert out["item4"] <= 1e-14
        assert "item5" not in out  # adjoint has a nullspace here

    def test_random_weighted_population(self, rng):
        for _ in range(30):
            dom = random_weighted_space(rng, 3)
            cod = random_weighted_space(rng, 4)
            a = oplab.Operator(dom, cod, rng.standard_normal((4, 3)))
            out = oplab.labrousse_check(a)
            assert max(out.values()) <= 1e-10

    def test_resolvents_match_lapack_inverse(self):
        # the checks read (I + x)^-1 as the square of the bundle's inverse root;
        # np.linalg.inv of the dense shifted matrix is an independent route
        rng = np.random.default_rng(11)
        for _ in range(40):
            ncols, nrows, rank = oplab._draw_shapes(rng)
            a = oplab.random_operator(rng, oplab.random_space(rng, ncols), oplab.random_space(rng, nrows), rank)
            p = oplab._pinv_pair(a)
            eye1, eye2 = np.eye(ncols), np.eye(nrows)
            pairs = (
                (p.root_bbs, eye1 + p.b.mat @ p.bstar.mat),
                (p.root_bsb, eye2 + p.bstar.mat @ p.b.mat),
                (p.root_asa, eye1 + p.astar.mat @ a.mat),
                (p.root_aas, eye2 + a.mat @ p.astar.mat),
            )
            for root, dense in pairs:
                ref = np.linalg.inv(dense)
                assert np.linalg.norm(root.mat @ root.mat - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_item5_only_for_surjective(self, rng):
        dom = random_weighted_space(rng, 4)
        cod = random_weighted_space(rng, 2)
        wide = oplab.Operator(dom, cod, rng.standard_normal((2, 4)))
        assert "item5" in oplab.labrousse_check(wide)
        tall = oplab.Operator(cod, dom, rng.standard_normal((4, 2)))
        assert "item5" not in oplab.labrousse_check(tall)


class TestNormIdentity:
    def test_zero_vector(self, rng):
        dom = random_weighted_space(rng, 3)
        a = oplab.Operator(dom, euclidean(3), rng.standard_normal((3, 3)))
        lhs, rhs, res = oplab.norm_identity_check(a, np.zeros(3))
        assert lhs == 0.0
        assert rhs == 0.0
        assert max(res.values()) == 0.0

    def test_identity_operator_even_split(self):
        sp = euclidean(2)
        lhs, rhs, res = oplab.norm_identity_check(oplab.identity(sp), [1.0, 1.0])
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)
        assert res["whole_space"] <= 1e-14
        assert res["range_restricted"] <= 1e-14

    def test_random_population(self, rng):
        for _ in range(100):
            dom = random_weighted_space(rng, 4)
            cod = random_weighted_space(rng, 3)
            a = oplab.Operator(dom, cod, rng.standard_normal((3, 4)))
            lhs, rhs, res = oplab.norm_identity_check(a, rng.standard_normal(4))
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)
            assert max(res.values()) <= 1e-10

    def test_wrong_length_rejected(self, rng):
        a = oplab.Operator(euclidean(3), euclidean(2), rng.standard_normal((2, 3)))
        with pytest.raises(DimensionMismatch):
            oplab.norm_identity_check(a, np.ones(2))


class TestBuildTb:
    def test_zero_operator(self):
        sp = euclidean(3)
        a = oplab.Operator(sp, sp, np.zeros((3, 3)))
        t_b, t_bstar = oplab.build_tb(a)
        assert np.abs(t_b.mat).max() == 0.0
        assert np.abs(t_bstar.mat).max() == 0.0

    def test_identity_gives_sqrt2(self):
        sp = euclidean(3)
        t_b, t_bstar = oplab.build_tb(oplab.identity(sp))
        assert np.abs(t_b.mat - np.sqrt(2.0) * np.eye(3)).max() <= 1e-13
        assert np.abs(t_bstar.mat - np.sqrt(2.0) * np.eye(3)).max() <= 1e-13

    def test_pinv_characterization_weighted(self, rng):
        for _ in range(15):
            dom = random_weighted_space(rng, 4)
            cod = random_weighted_space(rng, 3)
            a = oplab.Operator(dom, cod, rng.standard_normal((3, 4)))
            b = oplab.pinv(a)
            bstar = oplab.adjoint(b)
            smooth = oplab.frac_power(oplab.identity(dom) + b @ bstar, -0.5)
            base = bstar @ smooth
            t_b, t_bstar = oplab.build_tb(a)
            scale = max(np.abs(t_b.mat).max(), 1.0)
            assert np.abs(t_b.mat - oplab.pinv(base).mat).max() <= 1e-9 * scale
            assert np.abs(oplab.adjoint(t_b).mat - t_bstar.mat).max() <= 1e-10 * scale

    def test_isomorphism_on_coimage(self, rng):
        dom = random_weighted_space(rng, 4)
        cod = random_weighted_space(rng, 3)
        a = oplab.Operator(dom, cod, rng.standard_normal((3, 4)))
        b = oplab.pinv(a)
        bstar = oplab.adjoint(b)
        smooth = oplab.frac_power(oplab.identity(dom) + b @ bstar, -0.5)
        base = bstar @ smooth
        t_b, _ = oplab.build_tb(a)
        # base t_b is the projection fixing range(base); t_b base fixes coimage
        p = (base @ t_b).mat
        assert np.abs(p @ p - p).max() <= 1e-10
        proj_range_b = (b @ a).mat
        assert np.abs((t_b @ base).mat - proj_range_b).max() <= 1e-9

    @pytest.mark.parametrize("case", ["zero", "identity", "rank_deficient"])
    def test_smoothing_factorization(self, case, rng):
        # a == (I + b*b)^(-1/2) t_bstar on the codomain, b = pinv(a)
        if case == "zero":
            sp = euclidean(2)
            ops, tol = [oplab.Operator(sp, sp, np.zeros((2, 2)))], 0.0
        elif case == "identity":
            ops, tol = [oplab.identity(euclidean(2))], 1e-13
        else:
            ops, tol = [], 1e-10
            for _ in range(10):
                dom = random_weighted_space(rng, 4)
                cod = random_weighted_space(rng, 4)
                mat = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
                ops.append(oplab.Operator(dom, cod, mat))
        for a in ops:
            b = oplab.pinv(a)
            smoothing = oplab.frac_power(oplab.identity(a.codomain) + oplab.adjoint(b) @ b, -0.5)
            _, t_bstar = oplab.build_tb(a)
            residual = np.linalg.norm(a.mat - (smoothing @ t_bstar).mat) / max(np.linalg.norm(a.mat), 1.0)
            assert residual <= tol
            if case == "identity":
                assert np.abs(smoothing.mat - np.eye(2) / np.sqrt(2.0)).max() <= 1e-13
                assert np.abs(t_bstar.mat - np.sqrt(2.0) * np.eye(2)).max() <= 1e-13


class TestSuites:
    def test_identity_suite_small_run(self):
        rep = oplab.identity_suite(trials=12, seed=7)
        assert rep.suite == "oplab"
        assert rep.passed
        assert set(rep.residuals) == set(rep.tolerances)
        assert "penrose" in rep.residuals
        assert rep.constants["trials"] == 12.0

    def test_identity_suite_deterministic(self):
        a = oplab.identity_suite(trials=10, seed=3)
        b = oplab.identity_suite(trials=10, seed=3)
        assert a.residuals == b.residuals

    def test_identity_suite_seed_sensitivity(self):
        a = oplab.identity_suite(trials=10, seed=3)
        b = oplab.identity_suite(trials=10, seed=4)
        assert a.residuals != b.residuals

    def test_douglas_suite_small_run(self):
        rep = oplab.douglas_suite(pairs=8, seed=2)
        assert rep.suite == "oplab"
        assert rep.constants["pairs"] == 8.0
        assert rep.passed
        assert set(rep.residuals) == {
            "douglas_factorization",
            "douglas_nullspace",
            "douglas_range",
            "douglas_domination_excess",
        }

    def test_tolerance_override_can_fail(self):
        rep = oplab.identity_suite(trials=5, seed=1, tolerances={"penrose": 1e-30})
        assert not rep.passed
        assert not rep.verdicts["penrose"]

    @pytest.mark.parametrize("trials", [1, 3])
    def test_each_trial_makes_four_square_roots_no_eigensolve_and_five_pinvs(self, monkeypatch, trials):
        calls = {"jacobi_eigh": 0, "spd_sqrt": 0, "pinv": 0}
        for module, name in ((kernels, "jacobi_eigh"), (kernels, "spd_sqrt"), (oplab, "pinv")):

            def counted(*args, _name=name, _fn=getattr(module, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        assert oplab.identity_suite(trials=trials, seed=0).passed
        # one pinv and the inverse roots of I + b b*, I + b* b, I + a* a and I + a a*
        # per operator, shared by every check, plus the checks' own routes: pinv(b)
        # for pinv_involution, the two pinvs of item6, and pinv(w)
        assert calls == {"jacobi_eigh": 0, "spd_sqrt": 4 * trials, "pinv": 5 * trials}

    def test_svd_counts(self, monkeypatch):
        inputs = count_outer_svds(monkeypatch)
        assert oplab.identity_suite(trials=100, seed=0).passed
        # per trial: the rank-gap SVDs of a and c (a's serves pinv(a), the pinv bundle and
        # the item5 rank), pinv(b) for pinv_involution and item6, pinv(smooth) and pinv(w);
        # one redrawn operator; no Gram of dim <= 12 needs an SVD (an SVD per helper call
        # made 1098)
        assert len(inputs) == 5 * 100 + 1
        inputs.clear()
        assert oplab.douglas_suite(pairs=50, seed=1).passed
        # per pair: the rank-gap SVDs of b and m, op_norm(c), whose SVD also serves
        # pinv(c), and pinv(a) (an SVD per helper call made 500)
        assert len(inputs) == 4 * 50

    def test_nan_residual_raises(self, monkeypatch):
        monkeypatch.setattr(oplab, "rel_diff", lambda x, y: float("nan"))
        with pytest.raises(NonFiniteResidual, match=r"oplab:-:0 residual '\w+'"):
            oplab.identity_suite(trials=2, seed=0)
