"""Meshes and P1 assemblies: frozen hand values plus geometric invariants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from tracelab import fem2d, oplab, tracescale
from tracelab.errors import BadParameter, DegenerateElement, DimensionMismatch, GramNotPD

from conftest import asm, check_coupling, check_forward_grams, check_range_space_pinv, embed_domain

DYADIC = [1, 2, 4, 8, 16, 32]
AREA = {"interval": 1.0, "square": 1.0, "lshape": 0.75}
PERIMETER = {"interval": 2.0, "square": 4.0, "lshape": 4.0}


def all_cells():
    for kind in fem2d.KINDS:
        for n in DYADIC:
            if kind == "lshape" and n % 2:
                continue
            yield kind, n


def tri_area(nodes, el):
    a, b, c = nodes[el[0]], nodes[el[1]], nodes[el[2]]
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


class TestGenMesh:
    def test_interval_single_segment(self):
        m = fem2d.gen_mesh("interval", 1)
        assert m.n_nodes == 2
        assert m.nodes[:, 0].tolist() == [0.0, 1.0]
        assert m.elements.tolist() == [[0, 1]]
        assert m.boundary_nodes.tolist() == [0, 1]
        assert m.boundary_facets.tolist() == [[1], [0]]

    def test_interval_counts(self):
        m = fem2d.gen_mesh("interval", 8)
        assert m.n_nodes == 9
        assert m.elements.shape == (8, 2)
        assert m.boundary_nodes.size == 2

    def test_square_unit(self):
        m = fem2d.gen_mesh("square", 1)
        assert m.n_nodes == 4
        assert m.elements.shape == (2, 3)
        assert m.boundary_nodes.size == 4
        assert sum(tri_area(m.nodes, el) for el in m.elements) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_square_counts(self, n):
        m = fem2d.gen_mesh("square", n)
        assert m.n_nodes == (n + 1) ** 2
        assert m.elements.shape == (2 * n * n, 3)
        assert m.boundary_nodes.size == 4 * n

    def test_lshape_geometry(self):
        m = fem2d.gen_mesh("lshape", 2)
        assert sum(tri_area(m.nodes, el) for el in m.elements) == pytest.approx(0.75)
        total = sum(np.linalg.norm(m.nodes[a] - m.nodes[b]) for a, b in m.boundary_facets)
        assert total == pytest.approx(4.0)

    def test_lshape_excludes_quadrant(self):
        m = fem2d.gen_mesh("lshape", 4)
        inside = (m.nodes[:, 0] > 0.5) & (m.nodes[:, 1] > 0.5)
        assert not inside.any()

    def test_lshape_odd_rejected(self):
        with pytest.raises(BadParameter):
            fem2d.gen_mesh("lshape", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadParameter):
            fem2d.gen_mesh("disc", 4)

    @pytest.mark.parametrize("n", [2.999, 2.0, "2", None])
    def test_non_integer_refinement_rejected(self, n):
        # int(2.999) would quietly build the n = 2 mesh
        with pytest.raises(BadParameter, match="integer"):
            fem2d.gen_mesh("square", n)

    @pytest.mark.parametrize("n", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_refinement(self, n):
        m = fem2d.gen_mesh("square", n)
        assert m.n_nodes == 9
        assert np.array_equal(m.elements, fem2d.gen_mesh("square", 2).elements)

    @pytest.mark.parametrize("kind,n", [("interval", 3), ("square", 2), ("lshape", 4)])
    def test_reports_carry_the_mesh_refinement(self, kind, n):
        mesh = dataclasses.replace(fem2d.gen_mesh(kind, n), refinement=7)
        assert tracescale.suite_interp(fem2d.assemble(mesh), trials=2).n == 7

    @pytest.mark.parametrize("kind,n", list(all_cells()))
    def test_boundary_loop_closed(self, kind, n):
        m = fem2d.gen_mesh(kind, n)
        facets = m.boundary_facets
        assert not facets.flags.writeable and not m.boundary_nodes.flags.writeable
        assert np.array_equal(m.boundary_nodes, np.unique(facets.ravel()))
        if kind == "interval":
            assert sorted(facets.tolist()) == [[0], [n]]  # two point facets
            return
        # the boundary of the boundary is empty: each boundary node is the tail
        # of as many facets as it is the head of
        tails = np.bincount(facets[:, 0], minlength=m.n_nodes)
        heads = np.bincount(facets[:, 1], minlength=m.n_nodes)
        assert np.array_equal(tails, heads)
        assert np.array_equal(np.flatnonzero(tails), m.boundary_nodes)

    @pytest.mark.parametrize("kind,n", [("square", 1), ("square", 2), ("square", 7), ("lshape", 2), ("lshape", 6)])
    def test_matches_cell_loop_bitwise(self, kind, n):
        quarter = (lambda i, j: 2 * i >= n and 2 * j >= n) if kind == "lshape" else (lambda i, j: False)
        nodes, tris = looped_grid(n, quarter)
        m = fem2d.gen_mesh(kind, n)
        assert np.array_equal(m.nodes, nodes)
        assert np.array_equal(m.elements, tris)

    @pytest.mark.parametrize("kind,n", list(all_cells()))
    def test_positive_element_measure(self, kind, n):
        m = fem2d.gen_mesh(kind, n)
        if kind == "interval":
            lengths = m.nodes[m.elements[:, 1], 0] - m.nodes[m.elements[:, 0], 0]
            assert (lengths > 0).all()
        else:
            assert all(tri_area(m.nodes, el) > 0 for el in m.elements)


def shoelace(mesh):
    """Signed area enclosed by the boundary facets: positive when each runs counterclockwise around the domain."""
    (x0, y0), (x1, y1) = mesh.nodes[mesh.boundary_facets].transpose(1, 2, 0)
    return 0.5 * float(np.sum(x0 * y1 - x1 * y0))


def looped_grid(n, skip=lambda i, j: False):
    """Cell-by-cell grid mesh, the reference the vectorized builder must match bit
    for bit: two counterclockwise triangles per cell not skipped, and the corners
    of those cells as nodes, numbered row by row."""
    quads = [[(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)] for j in range(n) for i in range(n) if not skip(i, j)]
    used = sorted({c for quad in quads for c in quad}, key=lambda c: (c[1], c[0]))
    number = {c: k for k, c in enumerate(used)}
    tris = []
    for quad in quads:
        a, b, c, d = (number[corner] for corner in quad)
        tris += [(a, b, c), (a, c, d)]
    return np.array([(i / n, j / n) for i, j in used]), np.array(tris, dtype=np.intp)


def frame_mesh(n):
    """The unit square less the block [1/4, 3/4]^2: a domain whose boundary has two components."""
    nodes, tris = looped_grid(n, lambda i, j: n <= 4 * i < 3 * n and n <= 4 * j < 3 * n)
    return fem2d.Mesh(kind="frame", refinement=n, nodes=nodes, elements=tris)


def warped_mesh(kind, n):
    """The square or lshape mesh under a smooth map that bends the boundary
    and gives every triangle and facet its own size: a mesh that is no grid."""
    base = fem2d.gen_mesh(kind, n)
    x, y = base.nodes.T
    nodes = np.column_stack([x + 0.12 * np.sin(np.pi * x) * (0.5 + y), y + 0.12 * np.sin(np.pi * y) * (1.0 - 0.5 * x)])
    return fem2d.Mesh(kind="warped", refinement=n, nodes=nodes, elements=base.elements)


def any_mesh(kind, n):
    """gen_mesh's kinds, "frame" and "warped-square" or "warped-lshape"."""
    if kind.startswith("warped-"):
        return warped_mesh(kind.removeprefix("warped-"), n)
    return frame_mesh(n) if kind == "frame" else fem2d.gen_mesh(kind, n)


OFF_GRID = [("warped-square", 7), ("warped-square", 8), ("warped-lshape", 6), ("warped-lshape", 8), ("frame", 8)]


class TestBoundaryLoop:
    """The boundary facets of a triangulation: one closed loop per boundary component."""

    @pytest.mark.parametrize(
        "kind,loop",
        [
            ("square", ([0, 1, 2, 3, 5, 6, 7, 8], [[0, 1], [3, 0], [2, 5], [1, 2], [7, 6], [6, 3], [5, 8], [8, 7]])),
            ("lshape", ([0, 1, 2, 3, 4, 5, 6, 7], [[0, 1], [3, 0], [2, 5], [1, 2], [5, 4], [4, 7], [7, 6], [6, 3]])),
        ],
    )
    def test_exact_loop_at_n2(self, kind, loop):
        # reports are byte-identical only while the boundary keeps this order:
        # ascending nodes, and the facets in element order
        m = fem2d.gen_mesh(kind, 2)
        assert m.boundary_nodes.tolist() == loop[0]
        assert m.boundary_facets.tolist() == loop[1]

    @pytest.mark.parametrize("kind,n", [c for c in all_cells() if c[0] != "interval"] + [("square", 6), ("lshape", 6)])
    def test_counterclockwise_enclosing_the_domain(self, kind, n):
        assert shoelace(fem2d.gen_mesh(kind, n)) == pytest.approx(AREA[kind], abs=1e-14)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_two_boundary_components(self, n):
        # x' Q_{1/2} x = |Omega| + 2 int x^2 ds = 3/4 + 2 (5/3 + 7/12) over the outer and inner squares
        a = fem2d.assemble(frame_mesh(n))
        assert a.mesh.boundary_nodes.size == 6 * n
        assert shoelace(a.mesh) == pytest.approx(0.75, abs=1e-14)
        x = a.mesh.nodes[a.mesh.boundary_nodes, 0]
        assert abs(float(x @ tracescale.hs_gram(a, 0.5).gram @ x) / (21.0 / 4.0) - 1.0) <= 1e-12
        ones = np.ones(a.mesh.boundary_nodes.size)
        assert np.abs(tracescale._s_operator(a).mat @ ones - ones).max() <= 1e-12


def looped_assembly(mesh):
    """Element-by-element P1 assembly: the reference the vectorized one must match bit for bit."""
    nn = mesh.n_nodes
    k = np.zeros((nn, nn))
    m = np.zeros((nn, nn))
    if mesh.kind == "interval":
        for a, b in mesh.elements:
            h = float(mesh.nodes[b, 0] - mesh.nodes[a, 0])
            sl = np.ix_((a, b), (a, b))
            k[sl] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
            m[sl] += np.array([[2.0, 1.0], [1.0, 2.0]]) * (h / 6.0)
    else:
        m_loc = (np.ones((3, 3)) + np.eye(3)) / 12.0
        for tri in mesh.elements:
            pts = mesh.nodes[tri]
            e1 = pts[1] - pts[0]
            e2 = pts[2] - pts[0]
            area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
            bvec = np.array([pts[1, 1] - pts[2, 1], pts[2, 1] - pts[0, 1], pts[0, 1] - pts[1, 1]])
            cvec = np.array([pts[2, 0] - pts[1, 0], pts[0, 0] - pts[2, 0], pts[1, 0] - pts[0, 0]])
            sl = np.ix_(tri, tri)
            k[sl] += (np.outer(bvec, bvec) + np.outer(cvec, cvec)) / (4.0 * area)
            m[sl] += area * m_loc
    nb = mesh.boundary_nodes.size
    pos = {int(node): i for i, node in enumerate(mesh.boundary_nodes)}
    m_b = np.zeros((nb, nb))
    k_b = np.zeros((nb, nb))
    for facet in mesh.boundary_facets:
        at = [pos[int(v)] for v in facet]
        if len(at) == 1:  # a point facet carries the counting measure
            m_b[at[0], at[0]] += 1.0
            continue
        e = mesh.nodes[facet[1]] - mesh.nodes[facet[0]]
        h = math.sqrt(e[0] * e[0] + e[1] * e[1])  # not through dot, which may fuse its multiply-adds
        sl = np.ix_(at, at)
        m_b[sl] += np.array([[2.0, 1.0], [1.0, 2.0]]) * (h / 6.0)
        k_b[sl] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    return k, m, m_b, k_b


class TestAssemble:
    def test_interval_hand_matrices(self):
        a = asm("interval", 1)
        assert np.array_equal(a.K.dense(), [[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(a.M_dom.dense() - np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0).max() <= 1e-16
        assert np.array_equal(a.M_b, np.eye(2))
        assert np.array_equal(a.K_b, np.zeros((2, 2)))
        assert np.array_equal(fem2d.op_trace(a).mat, np.eye(2))

    def test_interval_two_segments(self):
        a = asm("interval", 2)
        expected_k = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        assert np.abs(a.K.dense() - expected_k).max() <= 1e-15
        expected_m = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]]) / 12.0
        assert np.abs(a.M_dom.dense() - expected_m).max() <= 1e-16
        r = fem2d.op_trace(a).mat
        assert r.shape == (2, 3)
        assert r[0, 0] == 1.0 and r[1, 2] == 1.0

    def test_square_measure_totals(self):
        a = asm("square", 1)
        ones = np.ones(a.mesh.n_nodes)
        assert ones @ a.M_dom.dense() @ ones == pytest.approx(1.0, abs=1e-12)
        onesb = np.ones(a.M_b.shape[0])
        assert onesb @ a.M_b @ onesb == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("kind,n", list(all_cells()))
    def test_assembly_invariants(self, kind, n):
        a = asm(kind, n)
        k, m_dom = a.K.dense(), a.M_dom.dense()
        ones = np.ones(a.mesh.n_nodes)
        onesb = np.ones(a.M_b.shape[0])
        # constants are exactly gradient-free on dyadic grids
        assert np.abs(k @ ones).max() == 0.0
        assert np.abs(a.K_b @ onesb).max() == 0.0
        assert np.array_equal(k, k.T)
        assert np.array_equal(m_dom, m_dom.T)
        assert np.array_equal(a.M_b, a.M_b.T)
        assert np.array_equal(a.K_b, a.K_b.T)
        assert abs(ones @ m_dom @ ones - AREA[kind]) <= 1e-10
        assert abs(onesb @ a.M_b @ onesb - PERIMETER[kind]) <= 1e-10
        assert np.linalg.eigvalsh(m_dom).min() > 0.0
        assert np.linalg.eigvalsh(a.M_b).min() > 0.0
        scale = np.abs(k).max()
        assert np.linalg.eigvalsh(k).min() >= -1e-12 * scale
        if np.abs(a.K_b).max() > 0:
            assert np.linalg.eigvalsh(a.K_b).min() >= -1e-12 * np.abs(a.K_b).max()

    @pytest.mark.parametrize(
        "kind,n",
        [("interval", 1), ("interval", 2), ("interval", 16), ("square", 1), ("square", 2), ("square", 7),
         ("square", 16), ("lshape", 2), ("lshape", 6), ("lshape", 16)] + OFF_GRID,
    )
    def test_matches_element_loop_bitwise(self, kind, n):
        mesh = any_mesh(kind, n)
        a = fem2d.assemble(mesh)
        k, m, m_b, k_b = looped_assembly(mesh)
        assert np.array_equal(a.K.dense(), k)
        assert np.array_equal(a.M_dom.dense(), m)
        assert np.array_equal(a.M_b, m_b)
        assert np.array_equal(a.K_b, k_b)

    @pytest.mark.parametrize("kind,n", [("interval", 4), ("square", 4), ("lshape", 4), ("frame", 8)])
    def test_one_element_pass_and_one_facet_pass(self, kind, n, monkeypatch):
        # K and M_dom come from the elements, and G, M_b and K_b from the one facet pass
        # on node indices: reading G, or factoring it, assembles nothing more
        calls = []
        original = fem2d._simplex_bands

        def counted(coords, idx, size, what):
            calls.append((what, idx.shape[1], size))
            return original(coords, idx, size, what)

        monkeypatch.setattr(fem2d, "_simplex_bands", counted)
        mesh = any_mesh(kind, n)
        a = fem2d.assemble(mesh)
        k = mesh.elements.shape[1]
        assert calls == [("element", k, mesh.n_nodes), ("boundary facet", k - 1, mesh.n_nodes)]
        assert isinstance(a.G, fem2d.Band)
        fem2d.space_h1partial(a)
        assert len(calls) == 2

    @pytest.mark.parametrize("kind,n", OFF_GRID)
    def test_invariants_off_the_grid(self, kind, n):
        a = fem2d.assemble(any_mesh(kind, n))
        k, m_dom = a.K.dense(), a.M_dom.dense()
        ones = np.ones(a.mesh.n_nodes)
        onesb = np.ones(a.M_b.shape[0])
        for mat in (k, m_dom, a.M_b, a.K_b):
            assert np.array_equal(mat, mat.T)
        # constants are gradient-free up to rounding, which is not exact off dyadic grids
        assert np.abs(k @ ones).max() <= 1e-14 * np.abs(k).max()
        assert np.abs(a.K_b @ onesb).max() <= 1e-14 * np.abs(a.K_b).max()
        assert abs(ones @ m_dom @ ones - shoelace(a.mesh)) <= 1e-14
        edges = np.diff(a.mesh.nodes[a.mesh.boundary_facets], axis=1)[:, 0]
        assert abs(onesb @ a.M_b @ onesb - math.fsum(np.hypot(*edges.T))) <= 1e-14

    @pytest.mark.parametrize("kind", ["interval", "square", "lshape"])
    def test_patch_test_linear_gradient(self, kind):
        a = asm(kind, 4)
        u = a.mesh.nodes[:, 0].copy()
        assert abs(u @ a.K.dense() @ u - AREA[kind]) <= 1e-10

    def test_degenerate_segment_rejected(self):
        m = fem2d.gen_mesh("interval", 2)
        bad = fem2d.Mesh(
            kind="interval",
            refinement=2,
            nodes=np.array([[0.0], [0.0], [1.0]]),
            elements=m.elements,
        )
        with pytest.raises(DegenerateElement):
            fem2d.assemble(bad)

    def test_leftward_segment_rejected(self):
        # an element's measure is signed: a segment running right to left is degenerate
        bad = fem2d.Mesh(kind="interval", refinement=1, nodes=np.array([[1.0], [0.0]]), elements=np.array([[0, 1]]))
        with pytest.raises(DegenerateElement):
            fem2d.assemble(bad)

    def test_degenerate_triangle_rejected(self):
        m = fem2d.gen_mesh("square", 1)
        nodes = m.nodes.copy()
        nodes[:, 1] = 0.0  # collapse everything onto the x axis
        bad = fem2d.Mesh(
            kind="square",
            refinement=1,
            nodes=nodes,
            elements=m.elements,
        )
        with pytest.raises(DegenerateElement):
            fem2d.assemble(bad)

    def test_flipped_triangle_rejected(self):
        # the second triangle runs clockwise: side 0-1 is shared, and its area is negative
        bad = fem2d.Mesh(
            kind="square",
            refinement=1,
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            elements=np.array([[0, 1, 2], [0, 1, 3]]),
        )
        with pytest.raises(DegenerateElement):
            fem2d.assemble(bad)


def looped_product(band, x):
    """``band @ x`` with one fresh temporary per diagonal and direction: the
    reference the product with its reused temporary must match bit for bit."""
    col = (slice(None),) + (None,) * (x.ndim - 1)
    out = band.diags[0][col] * x
    for d, v in zip(band.offsets[1:], band.diags[1:]):
        out[:-d] += v[col] * x[d:]
        out[d:] += v[col] * x[:-d]
    return out


class TestBands:
    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)] + OFF_GRID)
    def test_dense_block_is_the_full_matrix_restricted(self, kind, n, rng):
        # M_b, K_b and _schur's K_bb are such blocks
        a = fem2d.assemble(any_mesh(kind, n))
        scrambled = rng.permutation(a.mesh.n_nodes)[: a.mesh.n_nodes // 2]
        for band in (a.K, a.M_dom, a.G):
            full = band.dense()
            assert not full.flags.writeable
            for rows in (a.mesh.boundary_nodes, a.mesh.interior_nodes, scrambled):
                block = band.dense(rows)
                assert block.tobytes() == full[np.ix_(rows, rows)].tobytes()
                assert not block.flags.writeable
        assert not a.M_b.flags.writeable and not a.K_b.flags.writeable

    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)])
    def test_products_match_dense(self, kind, n, rng):
        a = asm(kind, n)
        for band in (a.K, a.M_dom):
            dense = band.dense()
            for x in (rng.standard_normal(a.mesh.n_nodes), rng.standard_normal((a.mesh.n_nodes, 5))):
                ref = dense @ x
                got = band @ x
                assert got.shape == ref.shape
                assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)])
    def test_product_equals_looped_product_bitwise(self, kind, n, rng):
        # the reused temporary leaves every sum as the loop of fresh temporaries made it
        a = asm(kind, n)
        x = rng.standard_normal((a.mesh.n_nodes, 5))
        for band in (a.K, a.M_dom, a.K + a.M_dom):
            for arg in (x[:, 0], x, np.asfortranarray(x)):
                got = band @ arg
                assert got.shape == arg.shape
                # a Fortran block is made C-contiguous first, and its sums do not move
                assert got.flags.c_contiguous
                assert got.tobytes() == looped_product(band, arg).tobytes()

    @pytest.mark.parametrize(
        "left,right",
        [((0, 1, 5), (0, 1, 5)), ((0, 1, 5), (0, 1, 5, 6)), ((0, 2, 7), (0, 1, 3))],
        ids=["equal", "nested", "disjoint"],
    )
    def test_sum_matches_dense(self, left, right, rng):
        size = 12
        bands = [
            fem2d.Band(offsets=offsets, diags=tuple(rng.standard_normal(size - d) for d in offsets))
            for offsets in (left, right)
        ]
        total = bands[0] + bands[1]
        assert total.offsets == tuple(sorted(set(left) | set(right)))
        assert not any(v.flags.writeable for v in total.diags)
        assert np.abs(total.dense() - (bands[0].dense() + bands[1].dense())).max() <= 1e-15

    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8)])
    def test_entries_fill_the_dense_block(self, kind, n, rng):
        a = asm(kind, n)
        nn, bnd = a.mesh.n_nodes, a.mesh.boundary_nodes
        interior = np.setdiff1d(np.arange(nn), bnd)
        for band in (a.K, a.M_dom):
            dense = band.dense()
            for rows, cols in ((interior, bnd), (bnd, bnd), (rng.permutation(nn)[: nn // 2], rng.permutation(nn))):
                i, j, v = band.entries(rows, cols)
                block = np.zeros((rows.size, cols.size))
                block[i, j] = v
                assert np.array_equal(block, dense[np.ix_(rows, cols)])
                assert len(set(zip(i.tolist(), j.tolist()))) == v.size and v.all()

    @pytest.mark.parametrize(
        "kind,n,k_offsets,m_offsets",
        [
            ("interval", 4, (0, 1), (0, 1)),
            # the diagonal of each grid cell carries mass but no stiffness
            ("square", 4, (0, 1, 5), (0, 1, 5, 6)),
            # rows above the notch are 3 nodes wide, rows below it 5
            ("lshape", 4, (0, 1, 3, 5), (0, 1, 3, 4, 5, 6)),
        ],
    )
    def test_offsets_from_connectivity(self, kind, n, k_offsets, m_offsets):
        a = asm(kind, n)
        assert a.K.offsets == k_offsets
        assert a.M_dom.offsets == m_offsets
        k, m, _, _ = looped_assembly(a.mesh)
        for band, dense in ((a.K, k), (a.M_dom, m)):
            for d, v in zip(band.offsets, band.diags):
                assert np.array_equal(v, np.diagonal(dense, d))
            idx = np.arange(dense.shape[0])
            assert not dense[~np.isin(np.abs(np.subtract.outer(idx, idx)), band.offsets)].any()


def renumbered(mesh, perm):
    """``mesh`` with node i renamed perm[i]: the same elements and facets, in a new node order."""
    nodes = np.empty_like(mesh.nodes)
    nodes[perm] = mesh.nodes
    return fem2d.Mesh(
        kind=mesh.kind,
        refinement=mesh.refinement,
        nodes=nodes,
        elements=perm[mesh.elements],
    )


def boundary_positions(mesh, perm):
    """Where each boundary node of ``mesh`` sits in the ascending boundary of ``renumbered(mesh, perm)``."""
    return np.argsort(np.argsort(perm[mesh.boundary_nodes]))


@st.composite
def renumbered_meshes(draw):
    kind, n = draw(st.sampled_from([("square", n) for n in range(1, 7)] + [("lshape", n) for n in (2, 4, 6)]))
    mesh = fem2d.gen_mesh(kind, n)
    perm = np.array(draw(st.permutations(range(mesh.n_nodes))), dtype=np.intp)
    return mesh, perm


class TestRenumberedMesh:
    @given(case=renumbered_meshes())
    def test_facets_follow_the_permutation(self, case):
        mesh, perm = case
        moved = renumbered(mesh, perm)
        assert np.array_equal(moved.boundary_facets, perm[mesh.boundary_facets])
        assert np.array_equal(moved.boundary_nodes, np.sort(perm[mesh.boundary_nodes]))

    # a random node order spreads K over many wide diagonals, away from the grid's offsets
    @given(case=renumbered_meshes())
    def test_bands_follow_the_permutation(self, case):
        mesh, perm = case
        a = asm(mesh.kind, mesh.boundary_nodes.size // 4)
        b = fem2d.assemble(renumbered(mesh, perm))
        for orig, new in ((a.K, b.K), (a.M_dom, b.M_dom)):
            expected = np.empty((mesh.n_nodes, mesh.n_nodes))
            expected[np.ix_(perm, perm)] = orig.dense()
            assert np.array_equal(new.dense(), expected)
        at = np.ix_(*(boundary_positions(mesh, perm),) * 2)
        assert np.array_equal(b.M_b[at], a.M_b) and np.array_equal(b.K_b[at], a.K_b)

    @given(case=renumbered_meshes())
    def test_coupling_of_wide_bands(self, case):
        # the ring is scattered over the interior, not the first and last grid rows
        mesh, perm = case
        check_coupling(fem2d.assemble(renumbered(mesh, perm)))

    @given(case=renumbered_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_harmonic_extension_follows_the_permutation(self, case, seed):
        mesh, perm = case
        a = asm(mesh.kind, mesh.boundary_nodes.size // 4)
        b = fem2d.assemble(renumbered(mesh, perm))
        g = np.random.default_rng(seed).standard_normal((mesh.boundary_nodes.size, 2))
        g_new = np.empty_like(g)
        g_new[boundary_positions(mesh, perm)] = g
        z = tracescale.harmonic_extension(a, g)
        assert np.abs(tracescale.harmonic_extension(b, g_new)[perm] - z).max() <= 1e-12 * max(np.abs(z).max(), 1.0)

    @given(case=renumbered_meshes())
    def test_range_space_pinv_of_wide_bands(self, case):
        # G's band spreads over many wide diagonals, and the boundary nodes are scattered
        check_range_space_pinv(fem2d.assemble(renumbered(*case)))

    @given(case=renumbered_meshes())
    def test_forward_grams_of_wide_bands(self, case):
        # the boundary's one-hot columns and K_ib reach G's and K_ii's block rows out of order
        check_forward_grams(fem2d.assemble(renumbered(*case)))

    @given(case=renumbered_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_condensed_solvers_follow_the_permutation(self, case, seed):
        # the Robin solvers and S read K_ib off the renumbered band's ring block
        mesh, perm = case
        a = asm(mesh.kind, mesh.boundary_nodes.size // 4)
        b = fem2d.assemble(renumbered(mesh, perm))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((mesh.boundary_nodes.size, 2))
        f = rng.standard_normal((mesh.n_nodes, 2))
        at = boundary_positions(mesh, perm)
        g_new, f_new = np.empty_like(g), np.empty_like(f)
        g_new[at], f_new[perm] = g, f
        for new, old in (
            (tracescale.robin_solve(b, g_new)[perm], tracescale.robin_solve(a, g)),
            (tracescale.poisson_robin(b, f_new)[perm], tracescale.poisson_robin(a, f)),
            (tracescale._s_operator(b).mat[np.ix_(at, at)], tracescale._s_operator(a).mat),
        ):
            assert np.abs(new - old).max() <= 1e-12 * max(np.abs(old).max(), 1.0)


@st.composite
def band_meshes(draw):
    """Every kind, the two-component frame, and a renumbered mesh whose bands are wide."""
    which = draw(st.sampled_from(["grid", "frame", "renumbered"]))
    if which == "grid":
        kind, n = draw(st.sampled_from([("interval", 1), ("interval", 8), ("square", 1), ("square", 5),
                                        ("lshape", 2), ("lshape", 6)]))
        return asm(kind, n)
    if which == "frame":
        return fem2d.assemble(frame_mesh(draw(st.sampled_from([4, 8]))))
    return fem2d.assemble(renumbered(*draw(renumbered_meshes())))


class TestBandQuad:
    @given(a=band_meshes(), seed=st.integers(0, 2**32 - 1), width=st.sampled_from([None, 1, 3]),
           layout=st.sampled_from(["C", "F"]))
    def test_matches_dense(self, a, seed, width, layout):
        nn = a.mesh.n_nodes
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(nn) if width is None else rng.standard_normal((width, nn)).T
        if layout == "C":
            x = np.ascontiguousarray(x)
        for band in (a.K, a.M_dom):
            dense = band.dense()
            got = band.quad(x)
            want = np.einsum("i...,i...->...", x, dense @ x)
            # K's form cancels, so the bound is relative to the form of |A| at |x|
            scale = np.einsum("i...,i...->...", np.abs(x), np.abs(dense) @ np.abs(x))
            if width is None:
                assert isinstance(got, float)
            else:
                assert got.shape == (width,)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestBlockSolve:
    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 8), ("lshape", 8), ("square", 32)])
    def test_rows_gather_bitwise(self, kind, n, rng):
        a = asm(kind, n)
        factor, interior = tracescale._interior_chol(a), a.mesh.interior_nodes
        x = rng.standard_normal((4, a.mesh.n_nodes)).T
        for rhs in (x[:, 0], x, np.ascontiguousarray(x)):
            kept = rhs.copy()
            got = factor.solve(rhs, interior)
            want = factor.solve(rhs[interior])
            assert got.shape == want.shape == (interior.size,) + rhs.shape[1:]
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(rhs, kept)

    def test_allocates_one_padded_buffer(self, rng):
        # the gather fills the solve's own buffer: no second interior-sized block
        a = asm("square", 32)
        factor, interior = tracescale._interior_chol(a), a.mesh.interior_nodes
        rhs = rng.standard_normal((a.mesh.n_nodes, 50))
        factor.solve(rhs, interior)
        tracemalloc.start()
        try:
            factor.solve(rhs, interior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * interior.size * 50 * 8


def check_interior_nodes(mesh):
    """``interior_nodes``: ascending, read-only, cached, and the complement of ``boundary_nodes``."""
    inside = mesh.interior_nodes
    assert inside.dtype == np.intp and not inside.flags.writeable
    assert mesh.interior_nodes is inside
    assert np.all(np.diff(inside) > 0)
    assert np.array_equal(np.sort(np.concatenate([inside, mesh.boundary_nodes])), np.arange(mesh.n_nodes))


class TestInteriorNodes:
    @pytest.mark.parametrize("kind,n", list(all_cells()))
    def test_complement_of_the_boundary(self, kind, n):
        check_interior_nodes(fem2d.gen_mesh(kind, n))

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_boundary_components(self, n):
        mesh = frame_mesh(n)
        check_interior_nodes(mesh)
        # at n = 4 the frame is one cell wide, so every node is on the boundary
        assert mesh.interior_nodes.size == mesh.n_nodes - mesh.boundary_nodes.size
        assert (mesh.interior_nodes.size > 0) == (n > 4)

    @given(case=renumbered_meshes())
    def test_follows_the_permutation(self, case):
        mesh, perm = case
        moved = renumbered(mesh, perm)
        check_interior_nodes(moved)
        assert np.array_equal(moved.interior_nodes, np.sort(perm[mesh.interior_nodes]))

    def test_hand_values(self):
        assert fem2d.gen_mesh("interval", 3).interior_nodes.tolist() == [1, 2]
        assert fem2d.gen_mesh("square", 2).interior_nodes.tolist() == [4]
        assert fem2d.gen_mesh("square", 1).interior_nodes.size == 0


class TestSpaces:
    def test_builds_one_domain_space(self, monkeypatch):
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))  # fresh, so nothing is cached
        dims, factored = [], []
        make_space, band_factor = fem2d.make_space, fem2d.band_factor

        def counted(dim, gram):
            dims.append(dim)
            return make_space(dim, gram)

        def counted_factor(band, rows, what):
            factored.append(rows.size)
            return band_factor(band, rows, what)

        monkeypatch.setattr(fem2d, "make_space", counted)
        monkeypatch.setattr(fem2d, "band_factor", counted_factor)
        h1 = fem2d.space_h1partial(a)
        assert isinstance(h1, fem2d.BandFactor) and h1.size == a.mesh.n_nodes
        # one factorization, of G itself; no domain L2 space, no boundary space
        assert factored == [a.mesh.n_nodes]
        assert dims == []

    def test_interval_combined_gram(self):
        a = asm("interval", 1)
        l2dom = embed_domain(a).codomain
        l2bnd, h1bnd = fem2d.boundary_spaces(a)
        assert np.array_equal(a.G.dense(), [[2.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(l2bnd.gram, np.eye(2))
        assert np.array_equal(h1bnd.gram, np.eye(2))
        assert np.abs(l2dom.gram - np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0).max() <= 1e-16

    @pytest.mark.parametrize("kind,n", [("interval", 4), ("square", 4), ("lshape", 4)])
    def test_boundary_term_removes_kernel(self, kind, n):
        a = asm(kind, n)
        ones = np.ones(a.mesh.n_nodes)
        r = fem2d.op_trace(a).mat
        boundary_part = r.T @ a.M_b @ r @ ones
        assert np.abs(a.G @ ones - boundary_part).max() <= 1e-14
        assert np.abs(boundary_part).max() > 0.0

    def test_square_gram_spectral_floor(self):
        assert np.linalg.eigvalsh(asm("square", 8).G.dense()).min() > 1e-4

    @pytest.mark.parametrize("kind", ["interval", "square", "lshape"])
    def test_boundary_spaces_shared(self, kind):
        a = fem2d.assemble(fem2d.gen_mesh(kind, 4))
        l2bnd, h1bnd = fem2d.boundary_spaces(a)
        assert np.array_equal(l2bnd.gram, a.M_b)
        assert np.array_equal(h1bnd.gram, a.M_b + a.K_b)
        assert fem2d.op_trace(a).codomain is l2bnd

    def test_bad_assembly_flagged(self):
        m = fem2d.gen_mesh("interval", 1)
        good = fem2d.assemble(m)
        bad_k = fem2d.Band(offsets=(0,), diags=(np.full(2, -5.0),))
        # both nodes are boundary nodes, so the Gram K + R' M_b R of that stiffness is -5 + 1 on the diagonal
        robin = fem2d.Band(offsets=(0,), diags=(np.diag(good.M_b),))
        bad = fem2d.Assembly(mesh=m, K=bad_k, M_dom=good.M_dom, M_b=good.M_b, K_b=good.K_b, G=bad_k + robin)
        with pytest.raises(GramNotPD):
            fem2d.space_h1partial(bad)

    @pytest.mark.parametrize("kind", ["interval", "square", "lshape"])
    def test_necas_equivalence_drift(self, kind):
        # generalized spectrum of (combined Gram, K + M_dom) settles under refinement
        ends = {}
        for n in (4, 8):
            a = asm(kind, n)
            g = a.G.dense()
            vals = scipy.linalg.eigh(g, a.K.dense() + a.M_dom.dense(), eigvals_only=True)
            ends[n] = (vals.min(), vals.max())
            assert vals.min() > 0.0
        for lo_hi in zip(ends[4], ends[8]):
            drift = abs(lo_hi[1] / lo_hi[0] - 1.0)
            assert drift < 0.5


def dense_h1(a):
    """The combined H1 space built dense, as K.dense() + R' M_b R: the reference of the band space."""
    r = fem2d.op_trace(a).mat
    return oplab.make_space(a.mesh.n_nodes, a.K.dense() + r.T @ a.M_b @ r)


def check_g_factor(a, rng):
    """``space_h1partial``'s factor of ``a.G`` against the dense space of the same Gram, to 1e-12."""
    h1, ref = fem2d.space_h1partial(a), dense_h1(a)
    assert np.array_equal(a.G.dense(), ref.gram)
    for rhs in (rng.standard_normal(a.mesh.n_nodes), rng.standard_normal((a.mesh.n_nodes, 3))):
        kept = rhs.copy()
        got, want = h1.solve(rhs), ref.solve(rhs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
        assert np.array_equal(rhs, kept)


class TestForwardGram:
    @pytest.mark.parametrize(
        "kind,n", [(k, n) for k in ("interval", "square") for n in (1, 2, 8)] + [("lshape", 2), ("lshape", 8)]
    )
    def test_matches_dense_oracles(self, kind, n):
        check_forward_grams(asm(kind, n))

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_boundary_components(self, n):
        check_forward_grams(fem2d.assemble(frame_mesh(n)))

    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 6))
    def test_sparse_block_matches_dense(self, seed, width):
        # entries in any order, and columns that no entry reaches
        a = asm("square", 4)
        h1 = fem2d.space_h1partial(a)
        rng = np.random.default_rng(seed)
        b = np.where(rng.random((a.mesh.n_nodes, width)) < 0.1, rng.standard_normal((a.mesh.n_nodes, width)), 0.0)
        i, j = np.nonzero(b)
        order = rng.permutation(i.size)
        got = h1.forward_gram(i[order], j[order], b[i, j][order], width)
        ref = b.T @ np.linalg.solve(a.G.dense(), b)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(np.abs(ref).max(initial=0.0), 1.0)


class TestBandSpace:
    @pytest.mark.parametrize(
        "kind,n",
        [("interval", 1), ("interval", 2), ("interval", 8), ("square", 1), ("square", 2), ("square", 8),
         ("lshape", 2), ("lshape", 8)],
    )
    def test_matches_dense_space(self, kind, n, rng):
        check_g_factor(asm(kind, n), rng)

    @given(case=renumbered_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_space_on_wide_bands(self, case, seed):
        check_g_factor(fem2d.assemble(renumbered(*case)), np.random.default_rng(seed))

    def test_gram_is_a_band_of_the_stiffness_offsets(self):
        # the boundary edges are sides of the grid, so G keeps K's diagonals
        a = asm("square", 8)
        h1 = fem2d.space_h1partial(a)
        assert isinstance(a.G, fem2d.Band) and a.G.offsets == a.K.offsets
        assert h1.blocks.shape[1:] == (2 * (a.K.offsets[-1] + 1), a.K.offsets[-1] + 1)
        assert not h1.blocks.flags.writeable

    @pytest.mark.parametrize("shape", [(3,), (81, 2, 1), (80,)])
    def test_rejects_wrong_shapes(self, shape):
        h1 = fem2d.space_h1partial(asm("square", 8))
        with pytest.raises(DimensionMismatch):
            h1.solve(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_flagged(self, value):
        # the interval's node 1 is interior, so G's diagonal there is K's
        a = asm("interval", 2)
        diag = a.G.diags[0].copy()
        diag[1] = value
        bad = dataclasses.replace(a, G=fem2d.Band(offsets=a.G.offsets, diags=(diag,) + a.G.diags[1:]))
        assert a.G.diags[0][1] == a.K.diags[0][1]
        with pytest.raises(GramNotPD, match="non-finite"):
            fem2d.space_h1partial(bad)


class TestFactorShapes:
    @pytest.mark.parametrize("which", ["interior", "gram"])
    def test_wrong_lengths_raise(self, which):
        # on square n = 8, K_ii has 49 rows (in blocks of 8, padded to 56) and G
        # 81: a right-hand side of another length must not be solved against
        # the identity padding, with or without a row gather
        a = asm("square", 8)
        if which == "interior":
            factor, rows = tracescale._interior_chol(a), a.mesh.interior_nodes
        else:
            factor, rows = fem2d.space_h1partial(a), np.arange(a.mesh.n_nodes)
        n = rows.size
        assert factor.size == n
        for length in (n - 1, n + 3):
            for shape in ((length,), (length, 2)):
                with pytest.raises(DimensionMismatch, match=f"for a factor of {n} rows"):
                    factor.solve(np.zeros(shape))
        rhs = np.zeros((a.mesh.n_nodes + 3, 2))
        # out-of-range rows must not be clipped onto the first or last row of rhs
        for wrong in (rows[:-1], np.arange(n + 3), np.append(rows[:-1], 10**6), np.append(-1, rows[1:])):
            with pytest.raises(DimensionMismatch):
                factor.solve(rhs, wrong)
        assert factor.solve(rhs, rows).shape == (n, 2)


class TestOperators:
    def test_trace_matrix_and_constants(self):
        a = asm("square", 2)
        tr = fem2d.op_trace(a)
        assert np.array_equal(tr.mat, np.eye(a.mesh.n_nodes)[a.mesh.boundary_nodes])
        ones = np.ones(a.mesh.n_nodes)
        assert np.array_equal(tr.apply(ones), np.ones(a.mesh.boundary_nodes.size))

    def test_trace_kills_interior_hat(self):
        a = asm("square", 2)
        center = np.zeros(9)
        center[4] = 1.0  # the single interior node of the 3x3 grid
        assert np.abs(fem2d.op_trace(a).apply(center)).max() == 0.0

    @pytest.mark.parametrize("kind,n", [("interval", 8), ("square", 4), ("lshape", 4)])
    def test_trace_rank(self, kind, n):
        a = asm(kind, n)
        assert np.linalg.matrix_rank(fem2d.op_trace(a).mat) == a.mesh.boundary_nodes.size

    def test_embed_domain_bound(self, rng):
        a = asm("square", 4)
        emb = embed_domain(a)
        assert np.array_equal(emb.mat, np.eye(a.mesh.n_nodes))
        g = emb.domain.gram
        assert np.array_equal(g, a.G.dense())
        c = np.sqrt(scipy.linalg.eigh(a.M_dom.dense(), g, eigvals_only=True).max())
        for _ in range(20):
            v = rng.standard_normal(a.mesh.n_nodes)
            assert emb.codomain.norm(emb.apply(v)) <= (c + 1e-12) * emb.domain.norm(v)

    @pytest.mark.parametrize("kind,n", [("interval", 4), ("square", 4), ("lshape", 4)])
    def test_boundary_embedding_pair(self, kind, n):
        # the identity from boundary H1 into boundary L2 has norm at most 1
        a = asm(kind, n)
        l2bnd, h1bnd = fem2d.boundary_spaces(a)
        u = oplab.Operator(h1bnd, l2bnd, np.eye(l2bnd.dim))
        assert oplab.op_norm(u) <= 1.0 + 1e-12
        if np.abs(a.K_b).max() > 0:
            assert np.abs(oplab.adjoint(u).mat - np.eye(u.codomain.dim)).max() > 1e-8


class TestTraceAlgebra:
    """The operator algebra of oplab on the trace gamma of ``op_trace``, whose
    domain is the dense space of G, to 1e-12."""

    @pytest.mark.parametrize("kind,n", [("interval", 4), ("square", 4), ("lshape", 4)])
    def test_identities(self, kind, n):
        a = asm(kind, n)
        gamma = fem2d.op_trace(a)
        gstar = oplab.adjoint(gamma)
        nn, nb = a.mesh.n_nodes, a.mesh.boundary_nodes.size
        # the domain's Gram is the band's, and the dense K + R' M_b R
        assert np.array_equal(gamma.domain.gram, dense_h1(a).gram)

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

        twice = oplab.adjoint(gstar)
        assert twice.domain is gamma.domain and twice.codomain is gamma.codomain
        close(twice.mat, gamma.mat)
        assert oplab.op_norm(gstar) == pytest.approx(oplab.op_norm(gamma), rel=1e-12)
        lam = oplab.pinv(gamma)
        assert lam.codomain is gamma.domain and lam.mat.shape == (nn, nb)
        close(oplab.pinv(gstar).mat, oplab.adjoint(lam).mat)
        # gamma gamma* = C M_b, C = R G^-1 R' of the range-space pinv, by a second path
        close((gamma @ gstar).mat, tracescale._trace_pinv(a).gram @ a.M_b)
        root, inv_root = oplab.half_powers(oplab.identity(gamma.domain) + gstar @ gamma)
        close((root @ inv_root).mat, np.eye(nn))
        close((inv_root @ root).mat, np.eye(nn))


class TestDumpMesh:
    def test_sections_and_counts(self):
        m = fem2d.gen_mesh("square", 2)
        text = fem2d.dump_mesh(m)
        lines = text.splitlines()
        assert lines[0] == "nodes"
        i_el = lines.index("elements")
        i_b = lines.index("boundary")
        assert i_el - 1 == m.n_nodes
        assert i_b - i_el - 1 == m.elements.shape[0]
        assert len(lines) - i_b - 1 == m.boundary_nodes.size
        # 0-based indices round-trip
        first_el = [int(t) for t in lines[i_el + 1].split()]
        assert first_el == m.elements[0].tolist()

    def test_interval_exact_coordinates(self):
        text = fem2d.dump_mesh(fem2d.gen_mesh("interval", 2))
        assert "0.5" in text

    def test_writes_file(self, tmp_path):
        target = tmp_path / "mesh.txt"
        m = fem2d.gen_mesh("interval", 1)
        text = fem2d.dump_mesh(m, path=str(target))
        assert target.read_text(encoding="ascii") == text
