"""Structured P1 meshes of model domains and the matrices behind the
boundary-aware H1 geometry.

Three mesh kinds: the unit interval, the unit square, and the L-shape
(unit square minus its upper-right quarter).  Both 2-d kinds come from one
masked grid.  The boundary of every mesh is read off its elements as
facets, the element faces that belong to one element: the interval's two
end points, a triangulation's boundary sides.  The boundary may have
several components.  Assembly produces the domain stiffness and mass as
their few nonzero diagonals (``Band``) and dense mass/stiffness matrices on
the boundary facets; one routine (``_simplex_bands``) gives the point and
segment matrices of the facets and of the interval's elements.  The trace
is the index array ``mesh.boundary_nodes``, ascending; only ``op_trace``
makes it a 0/1 matrix.  A principal block of a band is
factored in blocks of the bandwidth (``block_factor``) and solved by block
substitution (``block_solve``): the interior stiffness block of the solvers
and the combined H1 Gram G of ``space_h1partial`` go through this one
routine, so G and its factor stay bands and no n_nodes x n_nodes array is
made.  Its forward half alone gives the Gram B' A^-1 B of a few sparse
columns (``forward_gram``), such as K_bi K_ii^-1 K_ib and R G^-1 R'.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadParameter, DegenerateElement, DimensionMismatch, GramNotPD, NotPositiveDefinite
from .oplab import InnerSpace, Operator, make_space, tril_inv

KINDS = ("interval", "square", "lshape")


def _frozen(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """kind, refinement n (h = 1/n), node coordinates and element connectivity.

    The boundary is read off the elements.  Face i of a k-vertex element is
    its vertices i+1, ..., i+k-1 taken cyclically, and ``boundary_facets``
    are the faces that belong to exactly one element: the two end points of
    the interval, and the sides of a triangulation, each in its triangle's
    counterclockwise order.  ``boundary_nodes`` are the facets' nodes in
    ascending order.  The boundary may have several components.
    """

    kind: str
    refinement: int
    nodes: np.ndarray
    elements: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def boundary_facets(self) -> np.ndarray:
        k = self.elements.shape[1]
        faces = self.elements[:, (np.arange(k)[:, None] + np.arange(1, k)) % k].reshape(-1, k - 1)
        # one integer per unordered face, counted without np.unique's bare or
        # axis=0 forms, which import numpy.ma
        keys = np.ravel_multi_index(tuple(np.sort(faces, axis=1).T), (self.n_nodes,) * (k - 1))
        _, which, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return _frozen(faces[counts[which] == 1], np.intp)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        on = np.zeros(self.n_nodes, dtype=bool)
        on[self.boundary_facets] = True
        return _frozen(np.flatnonzero(on), np.intp)


@dataclass(frozen=True, eq=False)
class Band:
    """A symmetric matrix held as its nonzero diagonals.

    ``offsets`` ascend from 0; ``diags[k]`` holds the entries (i, i + offsets[k]),
    which equal the entries (i + offsets[k], i).
    """

    offsets: tuple[int, ...]
    diags: tuple[np.ndarray, ...]

    @classmethod
    def scatter(cls, idx: np.ndarray, local: np.ndarray, size: int) -> Band:
        """Sum symmetric element matrices ``local[e]`` into a size x size band.

        ``idx[e]`` holds element e's global indices.  Only entries with row <=
        column are kept, and bincount adds the contributions to each in
        element order, as a loop of ``mat[np.ix_(idx[e], idx[e])] += local[e]``
        would.  The offsets are those the elements reach; all-zero
        off-diagonals are dropped.
        """
        rows = np.repeat(idx, idx.shape[1], axis=1).ravel()
        cols = np.tile(idx, (1, idx.shape[1])).ravel()
        upper = rows <= cols
        offsets, which = np.unique(cols[upper] - rows[upper], return_inverse=True)
        flat = which * size + rows[upper]
        sums = np.bincount(flat, weights=local.ravel()[upper], minlength=offsets.size * size)
        diags = {int(d): _frozen(v[: size - d], float) for d, v in zip(offsets, sums.reshape(-1, size))}
        kept = [d for d, v in diags.items() if d == 0 or np.any(v)]
        return cls(offsets=tuple(kept), diags=tuple(diags[d] for d in kept))

    def dense(self) -> np.ndarray:
        """The full matrix: for boundary-sized bands, the operator-algebra twins and tests."""
        out = np.zeros((self.diags[0].size,) * 2)
        for d, v in zip(self.offsets, self.diags):
            i = np.arange(v.size)
            out[i, i + d] = out[i + d, i] = v
        return out

    def __add__(self, other: Band) -> Band:
        """The sum, over the union of both bands' offsets."""
        if not isinstance(other, Band):
            return NotImplemented
        sums: dict[int, np.ndarray] = {}
        for d, v in zip(self.offsets + other.offsets, self.diags + other.diags):
            sums[d] = sums[d] + v if d in sums else v
        offsets = sorted(sums)
        return Band(offsets=tuple(offsets), diags=tuple(_frozen(sums[d], float) for d in offsets))

    def __matmul__(self, x) -> np.ndarray:
        """The product with one vector or with a block of columns.

        Each off-diagonal term is formed in one reused temporary and then
        added, so the sums are those of ``out[:-d] += v * x[d:]``.
        """
        x = np.asarray(x, dtype=float)
        col = (slice(None),) + (None,) * (x.ndim - 1)
        out = self.diags[0][col] * x
        if len(self.offsets) > 1:
            tmp = np.empty_like(x[self.offsets[1] :])  # the longest off-diagonal term
        for d, v in zip(self.offsets[1:], self.diags[1:]):
            term = tmp[: x.shape[0] - d]
            out[:-d] += np.multiply(v[col], x[d:], out=term)
            out[d:] += np.multiply(v[col], x[:-d], out=term)
        return out

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the block ``self[rows][:, cols]``, as (row position,
        column position, value) arrays, diagonal by diagonal.

        ``rows`` and ``cols`` each hold distinct indices; a position is an
        index into them.  Entries off the band are zero and are not listed.
        """
        size = self.diags[0].size
        rpos, cpos = np.full(size, -1), np.full(size, -1)
        rpos[rows] = np.arange(rows.size)
        cpos[cols] = np.arange(cols.size)
        out_r, out_c, out_v = [], [], []
        for d, v in zip(self.offsets, self.diags):
            i = np.arange(v.size)
            # v[i] sits at (i, i + d) and at (i + d, i); the diagonal once
            for r, c in ((i, i + d), (i + d, i))[: 1 if d == 0 else 2]:
                keep = (rpos[r] >= 0) & (cpos[c] >= 0) & (v != 0.0)
                out_r.append(rpos[r[keep]])
                out_c.append(cpos[c[keep]])
                out_v.append(v[keep])
        return np.concatenate(out_r), np.concatenate(out_c), np.concatenate(out_v)


def block_factor(band: Band, rows: np.ndarray, what: str) -> np.ndarray:
    """Block Cholesky factor L of the principal block ``band[rows][:, rows]``, as dense blocks.

    With blocks of b = bw + 1 rows for the block's bandwidth bw (read off
    its nonzero entries), the block is block tridiagonal and L block
    bidiagonal: a lower-triangular diagonal block L_kk and a coupling block
    L_{k+1,k}, nonzero only in its strict upper triangle, as the band's
    K_{k+1,k} is.  Block column k is filled from the band's entries and
    factored in place: L_kk is the Cholesky factor of the pivot block
    K_kk - L_{k,k-1} L_{k,k-1}', and L_{k+1,k} = K_{k+1,k} L_kk^-T.  It is
    stored as ``blocks[k] = [L_kk^-1; L_{k+1,k}]``, the diagonal block
    inverted once here so that every solve is matmuls, so the result has
    shape (n_blocks, 2b, b); the rows are padded to whole blocks with the
    identity.  No rows.size^2 array is made.  A pivot block that is not
    positive definite raises NotPositiveDefinite, naming the block and the
    matrix factored (``what``).
    """
    r, c, v = band.entries(rows, rows)
    b = int((r - c).max(initial=0)) + 1
    n_blocks = -(-rows.size // b)
    # K_kk whole and K_{k+1,k}, each entry in block column c // b
    col = c // b
    below = r // b >= col
    col, r, c, v = col[below], r[below], c[below], v[below]
    blocks = np.zeros((n_blocks, 2 * b, b))
    blocks[col, r - col * b, c - col * b] = v
    pad = np.arange(rows.size - (n_blocks - 1) * b, b)
    blocks[-1, pad, pad] = 1.0
    for k in range(n_blocks):
        diag, coupling = blocks[k, :b], blocks[k, b:]
        if k:
            diag -= blocks[k - 1, b:] @ blocks[k - 1, b:].T
        try:
            low = np.linalg.cholesky(diag)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(f"pivot block {k} of {what} is not positive definite") from exc
        diag[...] = tril_inv(low)
        coupling[...] = coupling @ diag.T
    blocks.setflags(write=False)
    return blocks


def block_solve(blocks: np.ndarray, rhs: np.ndarray, forward: bool = True, backward: bool = True) -> np.ndarray:
    """L^-1 rhs (``forward``), L'^-1 rhs (``backward``), or both in turn,
    (L L')^-1 rhs, for the blocks of ``block_factor`` and one vector or a
    block of columns.

    Substitution over one copy of the right-hand side padded to whole
    blocks, so ``rhs`` is left as it is.  Each block row is one product
    with its neighbour's coupling block and one with the stored inverse of
    its diagonal block.
    """
    n_blocks, b = blocks.shape[0], blocks.shape[2]
    n = rhs.shape[0]
    cols = rhs.reshape(n, -1)
    w = np.zeros((n_blocks, b, cols.shape[1]))
    flat = w.reshape(n_blocks * b, cols.shape[1])
    flat[:n] = cols
    if forward:
        for k in range(n_blocks):  # L y = rhs
            if k:
                w[k] -= blocks[k - 1, b:] @ w[k - 1]
            w[k] = blocks[k, :b] @ w[k]
    if backward:
        for k in reversed(range(n_blocks)):  # L' x = y
            if k + 1 < n_blocks:
                w[k] -= blocks[k, b:].T @ w[k + 1]
            w[k] = blocks[k, :b].T @ w[k]
    return flat[:n].reshape(rhs.shape)


def forward_gram(blocks: np.ndarray, i: np.ndarray, j: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
    """B' A^-1 B = W'W for W = L^-1 B: A = L L' in the blocks of
    ``block_factor``, B of ``width`` columns given by its nonzeros (row
    positions ``i`` in the factored block, columns ``j``, values ``v``, each
    (row, column) once).  Only the forward half of ``block_solve`` runs, one
    block row of W at a time: each is made from row k - 1 and B's entries,
    its product with itself added into W'W, and dropped, so no rows x width
    array is made.  A column of W is zero above the first block row of B that
    reaches it, so W'W is summed with the columns renumbered in that order,
    and block row k is a product over only the columns reached by then.
    """
    n_blocks, b = blocks.shape[0], blocks.shape[2]
    k_of = i // b
    # renumber the columns by the block row that first reaches each;
    # block row k of W is zero past the first reached[k] renumbered columns
    first = np.full(width, n_blocks)
    np.minimum.at(first, j, k_of)
    perm = np.argsort(first, kind="stable")
    reached = np.searchsorted(first[perm], np.arange(n_blocks), side="right")
    pos = np.argsort(perm)
    order = np.argsort(k_of, kind="stable")
    bounds = np.searchsorted(k_of[order], np.arange(n_blocks + 1))
    rows, cols, vals = i[order] - k_of[order] * b, pos[j[order]], v[order]
    wtw = np.zeros((width, width))
    prev = np.zeros((b, 0))
    for k, reach in enumerate(reached):  # prev <- block row k of W
        lo, hi = bounds[k], bounds[k + 1]
        row = np.zeros((b, reach))
        row[rows[lo:hi], cols[lo:hi]] = vals[lo:hi]
        if k:
            row[:, : prev.shape[1]] -= blocks[k - 1, b:] @ prev
        prev = blocks[k, :b] @ row
        wtw[:reach, :reach] += prev.T @ prev
    return wtw[np.ix_(pos, pos)]


@dataclass(frozen=True, eq=False)
class BandSpace:
    """R^dim with the inner product (x, y) -> x' gram y of a banded SPD Gram.

    It gives the operator algebra of ``oplab`` what that reads of a space:
    ``dim``, ``gram @ x`` (a band product), ``lower_solve``, ``solve``,
    ``matches`` and ``norm``, all through the blocks of ``block_factor``.
    Built by ``band_space``.
    """

    gram: Band
    blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.gram.diags[0].size

    def matches(self, other) -> bool:
        return self is other or (
            isinstance(other, BandSpace)
            and self.gram.offsets == other.gram.offsets
            and all(np.array_equal(u, v) for u, v in zip(self.gram.diags, other.gram.diags))
        )

    def norm(self, x) -> float:
        # |L' x| as |L^-1 G x|, so the result is never negative under rounding
        return float(np.linalg.norm(self.lower_solve(self.gram @ x)))

    def lower_solve(self, rhs, trans: bool = False) -> np.ndarray:
        """L^-1 rhs, or L'^-1 rhs with ``trans``, for one (dim,) vector or a
        (dim, k) block of columns; ``rhs`` is left as it is."""
        x = np.asarray(rhs, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionMismatch(f"right-hand side of shape {x.shape} for a space of dim {self.dim}")
        return block_solve(self.blocks, x, forward=not trans, backward=trans)

    def solve(self, rhs) -> np.ndarray:
        """gram^-1 rhs, as L'^-1 L^-1 rhs, for one vector or a block of columns."""
        return self.lower_solve(self.lower_solve(rhs), trans=True)


def band_space(gram: Band) -> BandSpace:
    """The space of a band Gram, factored once.  A Gram with a non-finite
    entry, or one that is not positive definite, raises GramNotPD."""
    if not all(np.isfinite(v).all() for v in gram.diags):
        raise GramNotPD("gram band has non-finite entries")
    try:
        blocks = block_factor(gram, np.arange(gram.diags[0].size), "the gram band")
    except NotPositiveDefinite as exc:
        raise GramNotPD(str(exc)) from exc
    return BandSpace(gram=gram, blocks=blocks)


@dataclass(frozen=True, eq=False)
class Assembly:
    """P1 matrices for one mesh.

    K: grad-grad form on the domain, a ``Band``.  M_dom: domain mass, a
    ``Band``.  M_b: boundary mass of the facets, in arclength (the counting
    measure, the identity, on the interval's two end points).  K_b:
    tangential boundary stiffness (zero on point facets).  M_b and K_b are
    dense, on the boundary nodes in the ascending order of
    ``mesh.boundary_nodes``; the trace of v is ``v[mesh.boundary_nodes]``.
    """

    mesh: Mesh
    K: Band
    M_dom: Band
    M_b: np.ndarray
    K_b: np.ndarray


def _interval_mesh(n: int) -> Mesh:
    xs = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(kind="interval", refinement=n, nodes=_frozen(xs, float), elements=_frozen(elements, np.intp))


def _grid_mesh(kind: str, n: int) -> Mesh:
    """The unit square's uniform grid at h = 1/n, cut into two triangles per cell.

    For the lshape the grid loses its nodes in the open quarter x, y > 1/2; a
    cell is kept when all four of its corners are.  Nodes are numbered row by
    row from the origin, the cells likewise.
    """
    side = n + 1
    j, i = np.divmod(np.arange(side * side), side)
    keep = np.ones(side * side, dtype=bool) if kind == "square" else (2 * i <= n) | (2 * j <= n)
    corner = np.arange(n * side).reshape(n, side)[:, :n].ravel()  # lower-left node of each cell
    quads = corner[:, None] + np.array([0, 1, side + 1, side])   # counterclockwise corners
    number = np.cumsum(keep) - 1  # of each kept grid node, among the kept ones
    quads = number[quads[keep[quads].all(axis=1)]]
    tris = quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    nodes = np.column_stack([i / n, j / n])[keep]
    return Mesh(kind=kind, refinement=n, nodes=_frozen(nodes, float), elements=_frozen(tris, np.intp))


def gen_mesh(kind: str, n: int) -> Mesh:
    """Uniform mesh of the requested kind at refinement n (h = 1/n)."""
    if kind not in KINDS:
        raise BadParameter(f"unknown mesh kind {kind!r}")
    if not isinstance(n, numbers.Integral):
        raise BadParameter(f"refinement must be an integer, got {n!r}")
    if n < 1:
        raise BadParameter(f"refinement must be >= 1, got {n}")
    n = int(n)
    if kind == "lshape" and n % 2:
        raise BadParameter("lshape needs an even refinement")
    return _interval_mesh(n) if kind == "interval" else _grid_mesh(kind, n)


_TRI_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _simplex_bands(idx: np.ndarray, vol: np.ndarray, size: int, what: str) -> tuple[Band, Band]:
    """Stiffness and mass bands of P1 points or segments of measures ``vol`` on indices ``idx``.

    A k-vertex one (k = 1, 2) of measure vol has stiffness (k I - 1 1')/vol
    and mass vol (1 + delta_ij) / (k (k+1)): a point (vol 1) carries unit
    mass and no stiffness, a segment the hat-function matrices of its length.
    """
    if np.any(vol <= 0.0):
        raise DegenerateElement(f"non-positive {what} measure")
    k = idx.shape[1]
    stiff = (k * np.eye(k) - 1.0) / vol[:, None, None]
    mass = (vol[:, None, None] * (1.0 + np.eye(k))) / (k * (k + 1))
    return Band.scatter(idx, stiff, size), Band.scatter(idx, mass, size)


def _facet_measure(mesh: Mesh) -> np.ndarray:
    """The measure of each boundary facet: 1 for a point, the length of a
    segment.  These are the facets of 1-d and 2-d meshes; the product of
    edge lengths is no measure for larger facets."""
    pts = mesh.nodes[mesh.boundary_facets]
    return np.prod(np.linalg.norm(pts[:, 1:] - pts[:, :1], axis=2), axis=1)


def _triangle_bands(mesh: Mesh) -> tuple[Band, Band]:
    nn = mesh.n_nodes
    tris = mesh.elements
    x = mesh.nodes[tris, 0]                  # (ne, 3) vertex coordinates
    y = mesh.nodes[tris, 1]
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    if np.any(area2 <= 0.0):
        raise DegenerateElement("non-positive triangle area")
    area = 0.5 * area2
    bvec = np.column_stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]])
    cvec = np.column_stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]])
    outer = bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]
    k = Band.scatter(tris, outer / (4.0 * area)[:, None, None], nn)
    m = Band.scatter(tris, area[:, None, None] * _TRI_MASS, nn)
    return k, m


def assemble(mesh: Mesh) -> Assembly:
    """Exact P1 matrices (consistent mass, closed-form element integrals)."""
    el = mesh.elements
    if el.shape[1] == 2:  # segments of the line, oriented left to right
        x = mesh.nodes[el, 0]
        k, m = _simplex_bands(el, x[:, 1] - x[:, 0], mesh.n_nodes, "segment")
    else:
        k, m = _triangle_bands(mesh)
    pos = np.searchsorted(mesh.boundary_nodes, mesh.boundary_facets)
    k_b, m_b = _simplex_bands(pos, _facet_measure(mesh), mesh.boundary_nodes.size, "boundary facet")
    m_b, k_b = m_b.dense(), k_b.dense()
    for mat in (m_b, k_b):
        mat.setflags(write=False)  # fresh float arrays: frozen in place, not copied
    return Assembly(mesh=mesh, K=k, M_dom=m, M_b=m_b, K_b=k_b)


def _space(gram: np.ndarray) -> InnerSpace:
    try:
        return make_space(gram.shape[0], gram)
    except NotPositiveDefinite as exc:
        raise GramNotPD(str(exc)) from exc


@lru_cache(maxsize=32)
def boundary_spaces(a: Assembly) -> tuple[InnerSpace, InnerSpace]:
    """The two boundary coefficient spaces of one assembly.

    Returns (boundary L2 space with Gram M_b, boundary H1 space with Gram
    M_b + K_b).  Both are nb x nb, so nothing of domain size is built.
    """
    return _space(a.M_b), _space(a.M_b + a.K_b)


@lru_cache(maxsize=32)
def space_h1partial(a: Assembly) -> BandSpace:
    """The combined H1 space of one assembly: Gram G = K plus M_b on the boundary block.

    G is the inner product (grad u, grad v) + (u, v) on the boundary, a band:
    K plus the facet masses of ``assemble``'s M_b, scattered with node
    indices instead of boundary positions.  Each entry sums the terms of
    K.dense() + R' M_b R in the same order.  Its one factorization is
    ``block_factor``'s, so neither G nor its factor is an n_nodes x n_nodes
    array.
    """
    mesh = a.mesh
    _, m_b = _simplex_bands(mesh.boundary_facets, _facet_measure(mesh), mesh.n_nodes, "boundary facet")
    return band_space(a.K + m_b)


def mass_product(mesh: Mesh, f: np.ndarray) -> np.ndarray:
    """M_dom f for one (n_nodes,) vector or an (n_nodes, k) block, by a
    scatter-add of the element mass matrices |T| (1 + delta_ij) / ((d+1)(d+2))
    applied to each element's values of f.

    The twin of the band product ``a.M_dom @ f``: it reads neither the band
    nor its product, only the mesh.
    """
    el = mesh.elements
    k = el.shape[1]  # d + 1 vertices
    edges = mesh.nodes[el[:, 1:]] - mesh.nodes[el[:, :1]]  # (n_elements, d, d)
    vol = np.abs(np.linalg.det(edges)) / math.factorial(k - 1)
    local = vol[:, None, None] * (np.ones((k, k)) + np.eye(k)) / (k * (k + 1))
    out = np.zeros(np.shape(f))
    np.add.at(out, el, np.einsum("eij,ej...->ei...", local, f[el]))
    return out


def op_trace(a: Assembly) -> Operator:
    """The trace as a map from the combined H1 space to boundary L2: its matrix
    is the 0/1 restriction onto the boundary nodes, the one place it is built."""
    l2bnd, _ = boundary_spaces(a)
    r = np.zeros((l2bnd.dim, a.mesh.n_nodes))
    r[np.arange(l2bnd.dim), a.mesh.boundary_nodes] = 1.0
    return Operator(space_h1partial(a), l2bnd, r)


def dump_mesh(mesh: Mesh, path: str | None = None) -> str:
    """Plain-text mesh dump: sections `nodes`, `elements`, `boundary`.

    One node per line (coordinates), one element per line (node indices),
    then the boundary node indices in ascending order, one per line.
    Indices are 0-based; line order defines node/element ids.
    """
    lines = ["nodes"]
    for p in mesh.nodes:
        lines.append(" ".join(repr(float(c)) for c in p))
    lines.append("elements")
    for el in mesh.elements:
        lines.append(" ".join(str(int(i)) for i in el))
    lines.append("boundary")
    for b in mesh.boundary_nodes:
        lines.append(str(int(b)))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
