from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from tracelab import fem2d, oplab, tracescale

# property tests draw the same examples on every run
settings.register_profile("tracelab", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("tracelab")


@lru_cache(maxsize=None)
def asm(kind: str, n: int) -> fem2d.Assembly:
    """One shared Assembly per (kind, n); Assembly is immutable."""
    return fem2d.assemble(fem2d.gen_mesh(kind, n))


def embed_domain(a: fem2d.Assembly) -> oplab.Operator:
    """Identity on coefficients, from the combined H1 space into domain L2.

    The domain L2 space (Gram M_dom) is built afresh on every call: the map
    is a reference for the tests, and no suite reads it.
    """
    l2dom = oplab.make_space(a.mesh.n_nodes, a.M_dom.dense())
    return oplab.Operator(fem2d.space_h1partial(a), l2dom, np.eye(a.mesh.n_nodes))


def check_coupling(a: fem2d.Assembly) -> None:
    """``tracescale._coupling`` against the dense K_ib: an ascending ring of
    exactly the nonzero rows, and a read-only block equal to those rows."""
    ring, c = tracescale._coupling(a)
    bnd = a.mesh.boundary_nodes
    interior = np.flatnonzero(~np.isin(np.arange(a.mesh.n_nodes), bnd))
    kib = a.K.dense()[np.ix_(interior, bnd)]
    assert np.all(np.diff(ring) > 0)
    assert not c.flags.writeable
    assert c.shape == (ring.size, bnd.size)
    assert np.array_equal(c, kib[ring])
    assert kib[ring].any(axis=1).all()
    assert not np.delete(kib, ring, axis=0).any()


def trace_pinv_matrix(a: fem2d.Assembly) -> np.ndarray:
    """The range-space Lambda = G^-1 R' C^-1 as ``suite_pde`` forms it, from
    the cached C of ``tracescale._trace_pinv``."""
    return tracescale._representers(a, tracescale._trace_pinv(a).solve(np.eye(a.M_b.shape[0])))


def check_range_space_pinv(a: fem2d.Assembly) -> None:
    """The range-space Lambda = G^-1 R' C^-1 against the SVD pinv of the
    trace operator and the harmonic extension of every boundary hat, to 1e-12."""
    lam = trace_pinv_matrix(a)
    nb = a.M_b.shape[0]
    assert lam.shape == (a.mesh.n_nodes, nb)
    assert np.abs(lam - oplab.pinv(fem2d.op_trace(a)).mat).max() <= 1e-12
    assert np.abs(lam - tracescale.harmonic_extension(a, np.eye(nb))).max() <= 1e-12


def dense_schur(a: fem2d.Assembly) -> np.ndarray:
    """M_b + K_bb - K_bi K_ii^-1 K_ib from the dense K and a dense solve."""
    bnd = a.mesh.boundary_nodes
    interior = np.setdiff1d(np.arange(a.mesh.n_nodes), bnd)
    k = a.K.dense()
    kib = k[np.ix_(interior, bnd)]
    return a.M_b + k[np.ix_(bnd, bnd)] - kib.T @ np.linalg.solve(k[np.ix_(interior, interior)], kib)


def check_forward_grams(a: fem2d.Assembly) -> None:
    """The two Grams made by ``fem2d.forward_gram`` against dense oracles, to
    1e-12 relative: C = R G^-1 R' (``tracescale._trace_pinv``) against the
    boundary block of inv(G), M_b S (``tracescale._schur``) against
    ``dense_schur``, and C^-1 against M_b S, the identity that the two paths
    of suite_hhalf's quotient constants rest on."""
    bnd = a.mesh.boundary_nodes
    c, mbs = tracescale._trace_pinv(a), tracescale._schur(a).gram
    g_inv = np.linalg.inv(fem2d.space_h1partial(a).gram.dense())
    for got, ref in (
        (c.gram, g_inv[np.ix_(bnd, bnd)]),
        (mbs, dense_schur(a)),
        (c.solve(np.eye(bnd.size)), mbs),
    ):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
