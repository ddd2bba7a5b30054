"""Property tests: the weighted pseudo-inverse and its identities on drawn operators.

Hypothesis draws the structure (shape, singular-value kind, seed); numpy
builds a weighted space pair and an operator whose Cholesky-coordinate
matrix has exactly that structure.  The oracle works in those coordinates:
with G = L L', the operator a is the Euclidean matrix L_cod' a L_dom^-T,
and numpy's pinv and eigh of that matrix give pinv(a) and the smoothing
powers.  Every example is a new Operator, so the per-operator caches in
oplab only ever see distinct operators.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracelab import oplab

KINDS = ("full", "deficient", "zero", "clustered")
dims = st.integers(1, 8)
seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(KINDS)
RCOND = 1e-10  # drawn singular values are 0 or at least 0.05 of the largest


def _orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.sign(np.diag(r)))[:, :k]


def _gram(rng, n):
    """SPD Gram with condition number at most about 1e3."""
    q = _orthonormal(rng, n, n)
    return (q * np.logspace(0, -3, n)[rng.permutation(n)]) @ q.T * rng.uniform(0.5, 20.0)


def _singular_values(rng, kind, k):
    if kind == "zero":
        return np.zeros(k)
    if kind == "clustered":
        return 3.0 + 1e-9 * rng.random(k)
    sigma = rng.uniform(0.05, 1.0, k) * rng.uniform(0.1, 50.0)
    if kind == "deficient":
        sigma[rng.integers(0, k) :] = 0.0  # rank 0 .. k-1
    return sigma


def _from_euclidean(mat_e, l_dom, l_cod):
    """Weighted matrix of the map whose Cholesky-coordinate matrix is mat_e."""
    return np.linalg.solve(l_cod.T, mat_e) @ l_dom.T


def drawn(kind, rows, cols, seed):
    """(a, Cholesky-coordinate matrix of a, Cholesky factors of the domain and codomain Grams)."""
    rng = np.random.default_rng(seed)
    g_dom, g_cod = _gram(rng, cols), _gram(rng, rows)
    k = min(rows, cols)
    mat_e = (_orthonormal(rng, rows, k) * _singular_values(rng, kind, k)) @ _orthonormal(rng, cols, k).T
    l_dom, l_cod = np.linalg.cholesky(g_dom), np.linalg.cholesky(g_cod)
    mat = _from_euclidean(mat_e, l_dom, l_cod)
    a = oplab.Operator(oplab.make_space(cols, g_dom), oplab.make_space(rows, g_cod), mat)
    return a, mat_e, l_dom, l_cod


def _rank(mat_e):
    sv = np.linalg.svd(mat_e, compute_uv=False)
    return int(np.count_nonzero(sv > RCOND * sv[0])) if sv[0] > 0.0 else 0


def _inv_sqrt(sym):
    vals, vecs = np.linalg.eigh(sym)
    return (vecs / np.sqrt(vals)) @ vecs.T


structures = dict(kind=kinds, rows=dims, cols=dims, seed=seeds)


def _examples(test):
    # the 1 x n and n x 1 shapes and rank 0 are always tried, whatever is drawn
    for kind, rows, cols in (("full", 1, 8), ("full", 8, 1), ("zero", 3, 5), ("clustered", 1, 1)):
        test = example(kind=kind, rows=rows, cols=cols, seed=7)(test)
    return test


@given(**structures)
@_examples
def test_pinv_matches_numpy_in_cholesky_coordinates(kind, rows, cols, seed):
    a, mat_e, l_dom, l_cod = drawn(kind, rows, cols, seed)
    b = oplab.pinv(a)
    expected = _from_euclidean(np.linalg.pinv(mat_e, rcond=RCOND), l_cod, l_dom)
    assert oplab.rel_diff(b.mat, expected) <= 1e-10
    # the four Penrose relations, adjoints taken in the weighted products
    assert oplab.rel_diff((a @ b @ a).mat, a.mat) <= 1e-10
    assert oplab.rel_diff((b @ a @ b).mat, b.mat) <= 1e-10
    assert oplab.rel_diff(oplab.adjoint(a @ b).mat, (a @ b).mat) <= 1e-10
    assert oplab.rel_diff(oplab.adjoint(b @ a).mat, (b @ a).mat) <= 1e-10


@given(**structures)
@_examples
def test_adjoint_is_an_involution(kind, rows, cols, seed):
    a, mat_e, l_dom, l_cod = drawn(kind, rows, cols, seed)
    astar = oplab.adjoint(a)
    assert oplab.rel_diff(astar.mat, _from_euclidean(mat_e.T, l_cod, l_dom)) <= 1e-12
    assert oplab.rel_diff(oplab.adjoint(astar).mat, a.mat) <= 1e-12


@given(**structures)
@_examples
def test_labrousse_identities(kind, rows, cols, seed):
    a, mat_e, _, _ = drawn(kind, rows, cols, seed)
    out = oplab.labrousse_check(a)
    # item5 needs an injective adjoint, i.e. full row rank
    assert ("item5" in out) == (_rank(mat_e) == rows)
    assert max(out.values()) <= 1e-10


@given(**structures)
@_examples
def test_norm_identity_split(kind, rows, cols, seed):
    a, _, l_dom, _ = drawn(kind, rows, cols, seed)
    x = np.random.default_rng(seed + 1).standard_normal(cols)
    lhs, rhs, res = oplab.norm_identity_check(a, x)
    assert lhs == pytest.approx(np.linalg.norm(l_dom.T @ x) ** 2, rel=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-10)
    assert max(res.values()) <= 1e-10


@given(**structures)
@_examples
def test_build_tb_matches_numpy(kind, rows, cols, seed):
    a, mat_e, l_dom, l_cod = drawn(kind, rows, cols, seed)
    t_b, t_bstar = oplab.build_tb(a)
    b_e = np.linalg.pinv(mat_e, rcond=RCOND)
    # t_b = pinv(b* (I + b b*)^(-1/2)) and t_bstar is its adjoint
    w_e = b_e.T @ _inv_sqrt(np.eye(cols) + b_e @ b_e.T)
    t_b_e = np.linalg.pinv(w_e, rcond=RCOND)
    assert oplab.rel_diff(t_b.mat, _from_euclidean(t_b_e, l_cod, l_dom)) <= 1e-9
    assert oplab.rel_diff(t_bstar.mat, _from_euclidean(t_b_e.T, l_dom, l_cod)) <= 1e-9
    # and the factorization a = (I + b* b)^(-1/2) t_bstar
    smooth_cod_e = _inv_sqrt(np.eye(rows) + b_e.T @ b_e)
    assert oplab.rel_diff(_from_euclidean(smooth_cod_e @ t_b_e.T, l_dom, l_cod), a.mat) <= 1e-10
