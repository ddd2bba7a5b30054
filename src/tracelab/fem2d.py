"""Structured P1 meshes of model domains and the matrices behind the
boundary-aware H1 geometry.

Three mesh kinds: the unit interval, the unit square, and the L-shape
(unit square minus its upper-right quarter).  Both 2-d kinds come from one
masked grid.  The boundary of every mesh is read off its elements as
facets, the element faces that belong to one element: the interval's two
end points, a triangulation's boundary sides.  The boundary may have
several components.  The mesh owns the node split: ``boundary_nodes`` and
``interior_nodes``, each ascending; ``check_level`` holds which levels
``gen_mesh`` builds, for it and the CLI.  One routine (``_simplex_bands``)
gives the P1 stiffness and mass of every simplex from its vertex
coordinates: the elements (segments, triangles) with a signed measure, the
facets (points, segments) with an unsigned one.  ``assemble`` sums the
elements, and then the boundary facets, into bands on the node indices,
their few nonzero diagonals (``Band``): G is K plus the facet mass band,
and M_b and K_b are the facet bands' dense boundary-node blocks
(``Band.dense(rows)``).  The trace is the index array
``mesh.boundary_nodes``; only ``op_trace`` makes it a 0/1 matrix.  A
principal block of a band is factored in blocks of the bandwidth by
``band_factor``, into a ``BandFactor``: its ``solve`` is block substitution
and its ``forward_gram`` the forward half alone, which gives the Gram
B' A^-1 B of a few sparse columns, such as K_bi K_ii^-1 K_ib and
R G^-1 R'.  The interior stiffness block of the solvers and G
(``space_h1partial``) are factored this way, so no n_nodes x n_nodes array
is made.  What is derived from an assembly (its boundary spaces, G's
factor, and ``tracescale``'s factors and boundary Grams) is memoized on the
assembly itself by ``per_assembly``: built once, and freed with the
assembly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import NamedTuple

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
    ascending order, ``interior_nodes`` all the others, ascending; both are
    read-only.  The boundary may have several components.
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

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        inside = np.ones(self.n_nodes, dtype=bool)
        inside[self.boundary_nodes] = False
        return _frozen(np.flatnonzero(inside), np.intp)


@dataclass(frozen=True, eq=False)
class Band:
    """A symmetric matrix held as its nonzero diagonals.

    ``offsets`` ascend from 0; ``diags[k]`` holds the entries (i, i + offsets[k]),
    which equal the entries (i + offsets[k], i).
    """

    offsets: tuple[int, ...]
    diags: tuple[np.ndarray, ...]

    @classmethod
    def scatter(cls, idx: np.ndarray, stacks: tuple[np.ndarray, ...], size: int) -> tuple[Band, ...]:
        """Sum each stack of symmetric element matrices into a size x size band:
        ``stack[e]`` is element e's matrix, on its global indices ``idx[e]``.

        The rows, columns and offsets are found once for all the stacks.
        Only entries with row <= column are kept, and bincount adds the
        contributions to each in element order, as a loop of
        ``mat[np.ix_(idx[e], idx[e])] += stack[e]`` would.  The offsets are
        those the elements reach; each band drops its own all-zero
        off-diagonals.
        """
        rows = np.repeat(idx, idx.shape[1], axis=1).ravel()
        cols = np.tile(idx, (1, idx.shape[1])).ravel()
        upper = rows <= cols
        offsets, which = np.unique(cols[upper] - rows[upper], return_inverse=True)
        flat = which * size + rows[upper]
        bands = []
        for stack in stacks:
            sums = np.bincount(flat, weights=stack.ravel()[upper], minlength=offsets.size * size)
            diags = {int(d): _frozen(v[: size - d], float) for d, v in zip(offsets, sums.reshape(-1, size))}
            kept = [d for d, v in diags.items() if d == 0 or np.any(v)]
            bands.append(cls(offsets=tuple(kept), diags=tuple(diags[d] for d in kept)))
        return tuple(bands)

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The principal block ``self[rows][:, rows]``, read-only, by default
        the full matrix: the boundary blocks M_b, K_b and K_bb, and G in
        ``op_trace``'s dense domain.  ``rows`` hold distinct indices."""
        if rows is None:
            rows = np.arange(self.diags[0].size)
        out = np.zeros((rows.size,) * 2)
        r, c, v = self.entries(rows, rows)
        out[r, c] = v
        out.setflags(write=False)
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

        ``x`` is made C-contiguous first, so a transposed block reads its
        rows in order.  Each off-diagonal term is formed in one reused
        temporary and then added, so the sums are those of
        ``out[:-d] += v * x[d:]``.
        """
        x = np.ascontiguousarray(x, dtype=float)
        col = (slice(None),) + (None,) * (x.ndim - 1)
        out = self.diags[0][col] * x
        if len(self.offsets) > 1:
            tmp = np.empty_like(x[self.offsets[1] :])  # the longest off-diagonal term
        for d, v in zip(self.offsets[1:], self.diags[1:]):
            term = tmp[: x.shape[0] - d]
            out[:-d] += np.multiply(v[col], x[d:], out=term)
            out[d:] += np.multiply(v[col], x[:-d], out=term)
        return out

    def quad(self, x) -> float | np.ndarray:
        """x'Ax for one vector, or for each column of a block, without forming Ax:
        ``diags[0] @ (x*x)`` plus ``2 v @ (x[:-d]*x[d:])`` for each off-diagonal,
        the products formed in one reused temporary.
        """
        x = np.ascontiguousarray(x, dtype=float)
        out = self.diags[0] @ (x * x)
        if len(self.offsets) > 1:
            tmp = np.empty_like(x[self.offsets[1] :])  # the longest off-diagonal product
        for d, v in zip(self.offsets[1:], self.diags[1:]):
            out += 2.0 * (v @ np.multiply(x[:-d], x[d:], out=tmp[: x.shape[0] - d]))
        return float(out) if x.ndim == 1 else out

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


@dataclass(frozen=True, eq=False)
class BandFactor:
    """Block Cholesky factor L of ``size`` rows of a banded SPD matrix, from
    ``band_factor``.  In blocks of b = bw + 1 rows for the bandwidth bw, L is
    block bidiagonal: a lower-triangular L_kk and a coupling block L_{k+1,k},
    nonzero only in its strict upper triangle.  ``blocks[k]`` holds
    [L_kk^-1; L_{k+1,k}], shape (n_blocks, 2b, b), read-only, the rows padded
    to whole blocks with the identity, so every solve is matmuls.  ``solve``
    and ``forward_gram`` are the only readers of this layout.
    """

    size: int
    blocks: np.ndarray

    def solve(self, rhs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """(L L')^-1 rhs for one vector or a block of columns, by forward and
        then backward block substitution over one copy of the right-hand side
        padded to whole blocks; ``rhs`` is left as it is.  With ``rows``,
        distinct indices, the right-hand side is ``rhs[rows]``, gathered
        straight into that buffer.  Other than ``size`` rows, a row outside
        ``rhs``, or other than 1 or 2 dimensions, raises DimensionMismatch.
        Each block row is two products, each written into one block-row
        scratch; the result is a view of the buffer.
        """
        n = self.size
        if rhs.ndim not in (1, 2) or (rhs.shape[0] if rows is None else rows.size) != n:
            raise DimensionMismatch(f"right-hand side of shape {rhs.shape} for a factor of {n} rows")
        if rows is not None and n and (rows.min() < 0 or rows.max() >= rhs.shape[0]):
            raise DimensionMismatch(f"rows outside a right-hand side of {rhs.shape[0]} rows")
        n_blocks, b = self.blocks.shape[0], self.blocks.shape[2]
        cols = rhs.reshape(rhs.shape[0], -1)
        w = np.zeros((n_blocks, b, cols.shape[1]))
        flat = w.reshape(n_blocks * b, cols.shape[1])
        if rows is None:
            flat[:n] = cols
        else:  # bounds checked above, so an unbuffered gather: mode "raise" would copy through a temporary
            np.take(cols, rows, axis=0, out=flat[:n], mode="clip")
        inv, coupling, row = list(self.blocks[:, :b]), list(self.blocks[:, b:]), list(w)
        scratch = np.empty((b, cols.shape[1]))
        for k in range(n_blocks):  # L y = rhs
            if k:
                row[k] -= np.matmul(coupling[k - 1], row[k - 1], out=scratch)
            row[k][...] = np.matmul(inv[k], row[k], out=scratch)
        for k in reversed(range(n_blocks)):  # L' x = y
            if k + 1 < n_blocks:
                row[k] -= np.matmul(coupling[k].T, row[k + 1], out=scratch)
            row[k][...] = np.matmul(inv[k].T, row[k], out=scratch)
        return flat[:n].reshape((n,) + rhs.shape[1:])

    def forward_gram(self, i: np.ndarray, j: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
        """B' A^-1 B = W'W for W = L^-1 B, with A = L L' and B of ``width``
        columns given by its nonzeros (row positions ``i`` in the factored
        block, columns ``j``, values ``v``, each (row, column) once).  Only
        the forward half of ``solve`` runs, one block row of W at a time:
        each is made from row k - 1 and B's entries, its product with itself
        added into W'W, and dropped, so no rows x width array is made.  A
        column of W is zero above the first block row of B that reaches it,
        so W'W is summed with the columns renumbered in that order, and block
        row k is a product over only the columns reached by then.  The result
        is mirrored from its upper triangle, so it is exactly symmetric.
        """
        n_blocks, b = self.blocks.shape[0], self.blocks.shape[2]
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
                row[:, : prev.shape[1]] -= self.blocks[k - 1, b:] @ prev
            prev = self.blocks[k, :b] @ row
            wtw[:reach, :reach] += prev.T @ prev
        wtw = wtw[np.ix_(pos, pos)]
        return np.triu(wtw) + np.triu(wtw, 1).T


def band_factor(band: Band, rows: np.ndarray, what: str) -> BandFactor:
    """The ``BandFactor`` of the principal block ``band[rows][:, rows]``, its
    bandwidth read off its nonzeros.  Block column k is filled from the
    band's K_kk and K_{k+1,k} and factored in place: L_kk is the Cholesky
    factor of K_kk - L_{k,k-1} L_{k,k-1}', and L_{k+1,k} = K_{k+1,k} L_kk^-T.
    No rows.size^2 array is made.  A pivot block that is not positive
    definite raises NotPositiveDefinite, naming the block and ``what``.
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
    return BandFactor(size=rows.size, blocks=blocks)


@dataclass(frozen=True, eq=False)
class Assembly:
    """P1 matrices for one mesh, all built by ``assemble``.

    K: grad-grad form on the domain, a ``Band``.  M_dom: domain mass, a
    ``Band``.  M_b: boundary mass of the facets, in arclength (the counting
    measure, the identity, on the interval's two end points).  K_b:
    tangential boundary stiffness (zero on point facets).  M_b and K_b are
    dense and read-only, on the boundary nodes in the ascending order of
    ``mesh.boundary_nodes``; the trace of v is ``v[mesh.boundary_nodes]``.
    G: the combined H1 Gram K + R' M_b R, a band.  The factors and spaces
    derived from an assembly (``per_assembly``) are kept in its private
    memo, so they live exactly as long as the assembly.
    """

    mesh: Mesh
    K: Band
    M_dom: Band
    M_b: np.ndarray
    K_b: np.ndarray
    G: Band
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class CacheInfo(NamedTuple):
    """The cumulative hits and misses of a ``per_assembly`` function, over every assembly."""

    hits: int
    misses: int


def per_assembly(fn):
    """Memoize ``fn(a, *args)`` on its assembly ``a``.

    The result is stored in ``a``'s memo under (fn, *args), so it is built
    once per assembly and arguments and freed with the assembly; the memo
    has no size bound.  A call that raises stores nothing.  ``cache_info()``
    gives the hits and misses summed over every assembly since import.
    """
    counts = [0, 0]  # hits, misses

    @wraps(fn)
    def memo(a: Assembly, *args):
        key = (fn, *args)
        if key in a._memo:
            counts[0] += 1
        else:
            counts[1] += 1
            a._memo[key] = fn(a, *args)
        return a._memo[key]

    memo.cache_info = lambda: CacheInfo(*counts)
    return memo


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


def check_level(kind: str, n) -> int:
    """The refinement n of a ``kind`` mesh as an int, when ``gen_mesh`` can
    build it: a known kind, an integer n >= 1, even for the lshape.
    Anything else raises BadParameter."""
    if kind not in KINDS:
        raise BadParameter(f"unknown mesh kind {kind!r}")
    if not isinstance(n, numbers.Integral):
        raise BadParameter(f"refinement must be an integer, got {n!r}")
    if n < 1:
        raise BadParameter(f"refinement must be >= 1, got {n}")
    if kind == "lshape" and n % 2:
        raise BadParameter(f"lshape needs an even refinement, got {n}")
    return int(n)


def gen_mesh(kind: str, n: int) -> Mesh:
    """Uniform mesh of the requested kind at refinement n (h = 1/n), checked by ``check_level``."""
    n = check_level(kind, n)
    return _interval_mesh(n) if kind == "interval" else _grid_mesh(kind, n)


def _simplex_bands(coords: np.ndarray, idx: np.ndarray, size: int, what: str) -> tuple[Band, Band]:
    """Stiffness and mass bands of P1 simplices: points, segments and
    triangles, with vertex indices ``idx`` into the rows of ``coords``.

    Face i of a k-vertex simplex is its vertices i+1, ..., i+k-1, as in
    ``Mesh``, and a_i its normal, scaled by the face's measure: for a
    triangle, the edge p_{i+2} - p_{i+1} turned a quarter turn
    counterclockwise; for a segment, -1 and +1 along it; a point has none.
    A simplex that fills its space (a segment of the line, a triangle of the
    plane) has the signed measure a_1 . (p_1 - p_0) / (k-1)!, so a leftward
    or clockwise one is degenerate too; a facet (a point, a segment of the
    plane) has its unsigned measure, 1 or the length.  The stiffness is
    a_i . a_j / ((k-1)!^2 vol) and the mass vol (1 + delta_ij) / (k (k+1)).
    A non-positive measure raises DegenerateElement, naming ``what``.
    """
    pts = coords.T[:, idx]  # coordinate c of vertex i of element e at [c, e, i]
    k = idx.shape[1]
    if k == 3:
        edge = pts[..., [2, 0, 1]] - pts[..., [1, 2, 0]]
        normal = np.stack([-edge[1], edge[0]])
    else:  # the same for every element: none for a point, -1 and +1 for a segment
        normal = np.array([[-1.0, 1.0]])[: k - 1, 2 - k :]
    # sums over the coordinates add one array per coordinate, first to last:
    # the rounding order the reports were made with
    if k == coords.shape[1] + 1:
        vol = sum(normal[..., 1] * (pts[..., 1] - pts[..., 0])) / math.factorial(k - 1)
    else:  # at most one edge: a point, or a segment of the plane
        edge = pts[..., 1:] - pts[..., :1]
        vol = np.sqrt(sum(edge * edge).prod(axis=1))
    if np.any(vol <= 0.0):
        raise DegenerateElement(f"non-positive {what} measure")
    vol = vol[:, None, None]
    stiff = sum(c[..., :, None] * c[..., None, :] for c in normal) / (math.factorial(k - 1) ** 2 * vol)
    # two rounding orders, those the reports were made with: the triangle
    # multiplies vol by the rounded table (1 + delta)/12, the point and segment
    # divide vol (1 + delta) by k (k+1); neither order gives the other's
    # matrices bit for bit
    table = 1.0 + np.eye(k)
    mass = vol * (table / 12.0) if k == 3 else (vol * table) / (k * (k + 1))
    return Band.scatter(idx, (stiff, mass), size)


def assemble(mesh: Mesh) -> Assembly:
    """Exact P1 matrices (consistent mass, closed-form element integrals):
    one pass over the elements and one over the boundary facets, on node indices."""
    k, m = _simplex_bands(mesh.nodes, mesh.elements, mesh.n_nodes, "element")
    k_f, m_f = _simplex_bands(mesh.nodes, mesh.boundary_facets, mesh.n_nodes, "boundary facet")
    bnd = mesh.boundary_nodes
    return Assembly(mesh=mesh, K=k, M_dom=m, M_b=m_f.dense(bnd), K_b=k_f.dense(bnd), G=k + m_f)


def _space(gram: np.ndarray) -> InnerSpace:
    try:
        return make_space(gram.shape[0], gram)
    except NotPositiveDefinite as exc:
        raise GramNotPD(str(exc)) from exc


@per_assembly
def boundary_spaces(a: Assembly) -> tuple[InnerSpace, InnerSpace]:
    """The two boundary coefficient spaces of one assembly.

    Returns (boundary L2 space with Gram M_b, boundary H1 space with Gram
    M_b + K_b).  Both are nb x nb, so nothing of domain size is built.
    """
    return _space(a.M_b), _space(a.M_b + a.K_b)


@per_assembly
def space_h1partial(a: Assembly) -> BandFactor:
    """The factor of the combined H1 Gram ``a.G``, taken once by
    ``band_factor``, so neither G nor its factor is an n_nodes x n_nodes
    array.  A G with a non-finite entry, or one that is not positive
    definite, raises GramNotPD.
    """
    if not all(np.isfinite(v).all() for v in a.G.diags):
        raise GramNotPD("gram band has non-finite entries")
    try:
        return band_factor(a.G, np.arange(a.mesh.n_nodes), "the gram band")
    except NotPositiveDefinite as exc:
        raise GramNotPD(str(exc)) from exc


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
    """The trace as a map from the combined H1 space to boundary L2, both
    dense ``InnerSpace``s, so every operator-algebra map works on it: the
    domain is the space of ``a.G``, and the matrix is the 0/1 restriction
    onto the boundary nodes, the one place it is built.  No suite calls it;
    it is the tests' dense reference."""
    l2bnd, _ = boundary_spaces(a)
    r = np.zeros((l2bnd.dim, a.mesh.n_nodes))
    r[np.arange(l2bnd.dim), a.mesh.boundary_nodes] = 1.0
    return Operator(_space(a.G.dense()), l2bnd, r)


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
