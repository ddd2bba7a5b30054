"""Spectral kernels checked against numpy factorizations.

The kernels are self-contained on purpose; numpy's LAPACK routines only
appear here, as independent oracles.  The generalized eigenproblem of two
Grams is no kernel of its own: equivalence_constants reduces it with the
Cholesky factor stored by make_space and hands the result to extreme_eigh,
so its input checks are exercised here through that path.
"""

import numpy as np
import pytest

from tracelab import kernels, oplab, tracescale
from tracelab.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    TracelabError,
)


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


def generalized_constants(a, b):
    """The generalized problem a x = lam b x as the package solves it."""
    a, b = np.asarray(a), np.asarray(b)
    return tracescale.equivalence_constants(oplab.make_space(a.shape[0], a), oplab.make_space(b.shape[0], b))


class TestJacobiEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 31, 64])
    def test_matches_numpy(self, rng, n):
        for _ in range(10):
            a = random_symmetric(rng, n, scale=rng.uniform(0.1, 50.0))
            vals, vecs = kernels.jacobi_eigh(a)
            ref = np.linalg.eigvalsh(a)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(vals - ref).max() <= 1e-12 * scale
            # reconstruction and orthogonality, not just eigenvalues
            assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-12 * scale
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12

    def test_ascending_order(self, rng):
        a = random_symmetric(rng, 7)
        vals, _ = kernels.jacobi_eigh(a)
        assert np.all(np.diff(vals) >= 0)

    def test_clustered_eigenvalues(self, rng):
        # nearly repeated spectrum is where rotation-based solvers go wrong
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        target = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 3.0, 3.0, 3.0, 7.0, 7.0 + 1e-12, 50.0])
        a = q @ np.diag(target) @ q.T
        a = (a + a.T) / 2.0
        vals, vecs = kernels.jacobi_eigh(a)
        assert np.abs(np.sort(vals) - target).max() <= 1e-11 * 50.0
        assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-11 * 50.0

    def test_diagonal_input(self):
        a = np.diag([3.0, -1.0, 2.0])
        vals, vecs = kernels.jacobi_eigh(a)
        assert np.allclose(vals, [-1.0, 2.0, 3.0])
        assert np.abs(np.abs(vecs).sum(axis=0) - 1.0).max() <= 1e-14

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            kernels.jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("a", [[[0.0, 1e-13], [0.0, 0.0]], [[1e-14, 2e-13], [-3e-13, 5e-14]]])
    def test_rejects_small_asymmetric(self, a):
        # the symmetry tolerance is relative to max|a| with no absolute floor
        with pytest.raises(NotSymmetric):
            kernels.jacobi_eigh(np.array(a))

    def test_zero_matrix(self):
        vals, vecs = kernels.jacobi_eigh(np.zeros((3, 3)))
        assert np.array_equal(vals, np.zeros(3))
        assert np.array_equal(vecs, np.eye(3))

    def test_1x1(self):
        vals, vecs = kernels.jacobi_eigh(np.array([[4.5]]))
        assert vals[0] == 4.5
        assert vecs[0, 0] == 1.0


class TestJacobiSvd:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 3), (3, 5), (12, 7), (7, 12), (289, 64)])
    def test_matches_numpy(self, rng, shape):
        for _ in range(10):
            m = rng.standard_normal(shape) * rng.uniform(0.1, 30.0)
            u, s, vt = kernels.jacobi_svd(m)
            ref = np.linalg.svd(m, compute_uv=False)
            k = min(shape)
            scale = max(ref.max(), 1.0)
            assert np.abs(s[:k] - ref).max() <= 1e-12 * scale
            assert np.abs(u @ np.diag(s) @ vt - m).max() <= 1e-12 * scale
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12
            assert np.abs(vt @ vt.T - np.eye(vt.shape[0])).max() <= 1e-12

    def test_singular_values_descending(self, rng):
        _, s, _ = kernels.jacobi_svd(rng.standard_normal((6, 4)))
        assert np.all(np.diff(s) <= 0)

    def test_rank_deficient(self, rng):
        # rank 2 by construction
        b = rng.standard_normal((8, 2))
        c = rng.standard_normal((2, 5))
        m = b @ c
        u, s, vt = kernels.jacobi_svd(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.abs(s - ref).max() <= 1e-12 * max(ref.max(), 1.0)
        assert s[2:].max() <= 1e-12 * ref.max()
        assert np.abs(u @ np.diag(s) @ vt - m).max() <= 1e-12 * ref.max()

    def test_zero_matrix(self):
        u, s, vt = kernels.jacobi_svd(np.zeros((3, 4)))
        assert np.all(s == 0.0)
        assert np.abs(u @ np.diag(s) @ vt).max() == 0.0


class TestOddEven:
    @pytest.mark.parametrize("n", [*range(1, 12), 31, 33, 64, 65])
    def test_every_pair_meets_once_per_sweep(self, n):
        # row 0 holds the column labels 1..n, row 1 the label of the original
        # column now in each place; a bare swap negates one column of the pair,
        # so labels are read by absolute value
        x = kernels._Flat(2, n)
        labels = np.arange(1.0, n + 1)
        x.mat[1] = labels
        phases = kernels._phases(x.stride)
        firsts = []
        for sweep in range(2):
            steps = kernels._odd_even(n, sweep)
            assert len(steps) == {1: 0, 2: 1}.get(n, n)
            met = []
            for f in steps:
                x.mat[0] = labels
                k = (n - f) // 2
                where, who = x.slots[f][:, :k]
                # disjoint neighbour pairs (f, f+1), (f+2, f+3), ...: all that fit in n columns
                assert where.real.tolist() == list(range(f + 1, n, 2)) and np.all(where.imag == where.real + 1)
                met += [tuple(sorted((int(abs(p)), int(abs(q))))) for p, q in zip(who.real, who.imag)]
                # an unrotated turn is the bare swap
                kernels._set_phase(phases[f], np.zeros(k))
                x.slots[f] *= phases[f]
                # the pad column, the row-wrap pair and the spare pair kept their entries
                assert np.array_equal(x.mat[0, :f], labels[:f])
                assert np.array_equal(x.mat[0, f + 2 * k :], labels[f + 2 * k :])
                assert np.all(x.flat[:-2].reshape(2, -1)[:, n:] == 0.0) and np.all(x.flat[-2:] == 0.0)
                assert sorted(np.abs(x.mat[1])) == labels.tolist()
                firsts.append(f)
            assert sorted(met) == [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        if n > 2:  # f alternates across the sweep boundary too
            assert all(f != g for f, g in zip(firsts, firsts[1:]))


class TestIdleSteps:
    # the odd-even schedule moves columns only through the swaps, so a step
    # that rotates nothing must still swap its pairs, or pairs never meet

    def test_svd_whose_first_steps_are_orthogonal(self):
        # columns e0, e1, e0 + e2, e3: every neighbour pair is orthogonal, e0 and e0 + e2 are not
        m = np.eye(4)
        m[0, 2] = 1.0
        u, s, vt = kernels.jacobi_svd(m)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert np.abs(s - [golden, 1.0, 1.0, golden - 1.0]).max() <= 1e-15
        assert np.abs(u @ np.diag(s) @ vt - m).max() <= 1e-15

    def test_eigh_whose_neighbour_entries_vanish(self):
        a = np.diag([2.0, 3.0, 4.0, 5.0])
        a[0, 2] = a[2, 0] = 1.0
        vals, vecs = kernels.jacobi_eigh(a)
        assert np.abs(vals - np.linalg.eigvalsh(a)).max() <= 1e-14
        assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-14


class TestNonFiniteInput:
    BAD = [float("nan"), float("inf"), -float("inf")]

    def test_is_a_tracelab_error(self):
        assert issubclass(NonFiniteInput, TracelabError)

    @pytest.mark.parametrize("bad", BAD)
    def test_eigh(self, bad):
        # a symmetric infinite pair once passed the stopping test before any sweep
        with pytest.raises(NonFiniteInput):
            kernels.jacobi_eigh(np.array([[1.0, bad], [bad, 2.0]]))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (3, 5)])
    def test_svd(self, bad, shape, monkeypatch):
        monkeypatch.setattr(kernels, "SVD_SWEEPS", 1)
        m = np.ones(shape)
        m[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            kernels.jacobi_svd(m)

    @pytest.mark.parametrize("bad", BAD)
    def test_gen_eigh(self, bad, monkeypatch):
        # a non-finite Gram is refused when its space is built, before any kernel sees it
        def no_kernel(*args, **kwargs):
            raise AssertionError("a non-finite Gram reached an eigen kernel")

        monkeypatch.setattr(kernels, "jacobi_eigh", no_kernel)
        monkeypatch.setattr(kernels, "extreme_eigh", no_kernel)
        a = np.array([[2.0, bad], [bad, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            generalized_constants(a, np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            generalized_constants(np.eye(2), a)


class TestNoConvergence:
    def test_is_a_tracelab_error(self):
        assert issubclass(NoConvergence, TracelabError)

    def test_eigh_raises_when_sweeps_run_out(self, rng, monkeypatch):
        a = random_symmetric(rng, 20)
        monkeypatch.setattr(kernels, "EIGH_SWEEPS", 1)
        with pytest.raises(NoConvergence) as info:
            kernels.jacobi_eigh(a)
        assert info.value.kernel == "jacobi_eigh"
        assert info.value.sweeps == 1
        assert info.value.off_norm > 1e-13 * np.linalg.norm(a)
        monkeypatch.undo()
        kernels.jacobi_eigh(a)  # the budget, not the input, was short

    @pytest.mark.parametrize("shape", [(20, 20), (40, 20), (20, 40)])
    def test_svd_raises_when_sweeps_run_out(self, rng, shape, monkeypatch):
        m = rng.standard_normal(shape)
        monkeypatch.setattr(kernels, "SVD_SWEEPS", 1)
        with pytest.raises(NoConvergence) as info:
            kernels.jacobi_svd(m)
        assert info.value.kernel == "jacobi_svd"
        assert info.value.sweeps == 1
        assert info.value.off_norm > 0.0
        monkeypatch.undo()
        kernels.jacobi_svd(m)

    def test_converged_input_needs_no_budget(self, monkeypatch):
        # a diagonal matrix passes the eigh convergence test before any sweep
        monkeypatch.setattr(kernels, "EIGH_SWEEPS", 0)
        vals, _ = kernels.jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert vals.tolist() == [1.0, 2.0, 3.0]


class TestPinv:
    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
    def test_matches_numpy(self, rng, shape):
        for _ in range(10):
            m = rng.standard_normal(shape)
            p, rank = kernels.pinv_svd(*kernels.jacobi_svd(m))
            assert np.abs(p - np.linalg.pinv(m)).max() <= 1e-11
            assert rank == np.linalg.matrix_rank(m)

    def test_penrose_conditions(self, rng):
        b = rng.standard_normal((7, 3))
        c = rng.standard_normal((3, 6))
        m = b @ c  # rank 3
        p, rank = kernels.pinv_svd(*kernels.jacobi_svd(m))
        assert rank == 3
        assert np.abs(m @ p @ m - m).max() <= 1e-12 * np.abs(m).max()
        assert np.abs(p @ m @ p - p).max() <= 1e-12 * np.abs(p).max()
        assert np.abs((m @ p) - (m @ p).T).max() <= 1e-12
        assert np.abs((p @ m) - (p @ m).T).max() <= 1e-12

    def test_zero(self):
        p, rank = kernels.pinv_svd(*kernels.jacobi_svd(np.zeros((2, 5))))
        assert rank == 0
        assert np.all(p == 0.0)
        assert p.shape == (5, 2)


class TestGenEigh:
    @pytest.mark.parametrize("b", [np.diag([1.0, -1.0]), np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_b_not_positive_definite(self, b):
        # numpy's LinAlgError would escape the CLI's error handling
        with pytest.raises(NotPositiveDefinite):
            generalized_constants(np.eye(2), b)

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (2, 2)), ((2, 2), (3, 2)), ((2, 2), (3, 3)), ((4,), (2, 2))])
    def test_shapes_rejected(self, a_shape, b_shape):
        # a is a Gram too now, so its square cases are positive definite
        a = np.eye(*a_shape) if len(a_shape) == 2 else np.ones(a_shape)
        with pytest.raises(DimensionMismatch):
            generalized_constants(a, np.eye(*b_shape))


def test_rank_cutoff_scales_with_sigma():
    small = kernels.rank_cutoff((4, 4), 1.0)
    big = kernels.rank_cutoff((4, 4), 1e6)
    assert big == pytest.approx(small * 1e6)
    assert kernels.rank_cutoff((3, 3), 0.0) == 0.0
