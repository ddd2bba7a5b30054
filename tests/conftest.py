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


def check_range_space_pinv(a: fem2d.Assembly) -> None:
    """``tracescale._trace_pinv``, the range-space Lambda = X C^-1, against
    the SVD pinv of the trace operator and the extension matrix Z, to 1e-12."""
    lam = tracescale._trace_pinv(a)
    assert lam.mat.shape == (a.mesh.n_nodes, a.M_b.shape[0])
    assert np.abs(lam.mat - oplab.pinv(fem2d.op_trace(a)).mat).max() <= 1e-12
    assert np.abs(lam.mat - tracescale._extension_matrix(a)).max() <= 1e-12


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
