"""Structured P1 meshes of model domains and the matrices behind the
boundary-aware H1 geometry.

Three mesh kinds: the unit interval, the unit square, and the L-shape
(unit square minus its upper-right quarter).  Assembly produces dense
stiffness/mass matrices for the domain, arclength mass/stiffness matrices
for the boundary polygon, and the 0/1 boundary restriction matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, DegenerateElement, GramNotPD, NotPositiveDefinite
from .oplab import InnerSpace, Operator, make_space

KINDS = ("interval", "square", "lshape")


def _frozen(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """kind, node coordinates, element connectivity, and the boundary trace.

    boundary_nodes is ordered: a closed loop for 2-d kinds (wrap implied),
    the two endpoints for the interval.  boundary_edges holds consecutive
    loop pairs; it is empty for the interval.
    """

    kind: str
    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class Assembly:
    """Dense P1 matrices for one mesh.

    K: grad-grad form on the domain.  M_dom: domain mass.  M_b: boundary
    mass in arclength (identity for the interval's two-point boundary).
    K_b: tangential boundary stiffness (zero for the interval).  R: 0/1
    restriction onto boundary nodes, shape (len(boundary), n_nodes).
    """

    mesh: Mesh
    K: np.ndarray
    M_dom: np.ndarray
    M_b: np.ndarray
    K_b: np.ndarray
    R: np.ndarray


def _interval_mesh(n: int) -> Mesh:
    xs = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(
        kind="interval",
        nodes=_frozen(xs, float),
        elements=_frozen(elements, np.intp),
        boundary_nodes=_frozen([0, n], np.intp),
        boundary_edges=_frozen(np.empty((0, 2)), np.intp),
    )


def _grid_triangles(cells, idx) -> np.ndarray:
    tris = []
    for i, j in cells:
        a = idx(i, j)
        b = idx(i + 1, j)
        c = idx(i + 1, j + 1)
        d = idx(i, j + 1)
        tris.append((a, b, c))
        tris.append((a, c, d))
    return np.asarray(tris, dtype=np.intp)


def _close_loop(loop: list[int]) -> np.ndarray:
    pairs = [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]
    return np.asarray(pairs, dtype=np.intp)


def _square_mesh(n: int) -> Mesh:
    side = n + 1
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="xy")
    nodes = np.column_stack([ii.ravel() / n, jj.ravel() / n])

    def idx(i: int, j: int) -> int:
        return j * side + i

    cells = [(i, j) for j in range(n) for i in range(n)]
    tris = _grid_triangles(cells, idx)

    loop = [idx(i, 0) for i in range(n + 1)]
    loop += [idx(n, j) for j in range(1, n + 1)]
    loop += [idx(i, n) for i in range(n - 1, -1, -1)]
    loop += [idx(0, j) for j in range(n - 1, 0, -1)]
    return Mesh(
        kind="square",
        nodes=_frozen(nodes, float),
        elements=_frozen(tris, np.intp),
        boundary_nodes=_frozen(loop, np.intp),
        boundary_edges=_frozen(_close_loop(loop), np.intp),
    )


def _lshape_mesh(n: int) -> Mesh:
    if n % 2 != 0:
        raise BadParameter("lshape needs an even refinement")
    half = n // 2
    # keep grid nodes outside the open removed quadrant x>1/2, y>1/2
    grid_to_compact: dict[tuple[int, int], int] = {}
    coords = []
    for j in range(n + 1):
        for i in range(n + 1):
            if i <= half or j <= half:
                grid_to_compact[(i, j)] = len(coords)
                coords.append((i / n, j / n))

    def idx(i: int, j: int) -> int:
        return grid_to_compact[(i, j)]

    cells = [
        (i, j)
        for j in range(n)
        for i in range(n)
        if not (i >= half and j >= half)
    ]
    tris = _grid_triangles(cells, idx)

    loop = [idx(i, 0) for i in range(n + 1)]
    loop += [idx(n, j) for j in range(1, half + 1)]
    loop += [idx(i, half) for i in range(n - 1, half - 1, -1)]
    loop += [idx(half, j) for j in range(half + 1, n + 1)]
    loop += [idx(i, n) for i in range(half - 1, -1, -1)]
    loop += [idx(0, j) for j in range(n - 1, 0, -1)]
    return Mesh(
        kind="lshape",
        nodes=_frozen(coords, float),
        elements=_frozen(tris, np.intp),
        boundary_nodes=_frozen(loop, np.intp),
        boundary_edges=_frozen(_close_loop(loop), np.intp),
    )


def _validate_mesh(mesh: Mesh) -> None:
    # 2-d: every loop edge must belong to exactly one triangle, and vice versa
    if mesh.kind == "interval":
        return
    counts: dict[tuple[int, int], int] = {}
    for tri in mesh.elements:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    single = {edge for edge, c in counts.items() if c == 1}
    loop_edges = {(min(a, b), max(a, b)) for a, b in mesh.boundary_edges}
    if single != loop_edges:
        raise BadParameter("boundary loop disagrees with the element skeleton")


def gen_mesh(kind: str, n: int) -> Mesh:
    """Uniform mesh of the requested kind at refinement n (h = 1/n)."""
    if kind not in KINDS:
        raise BadParameter(f"unknown mesh kind {kind!r}")
    if int(n) < 1:
        raise BadParameter(f"refinement must be >= 1, got {n}")
    n = int(n)
    if kind == "interval":
        mesh = _interval_mesh(n)
    elif kind == "square":
        mesh = _square_mesh(n)
    else:
        mesh = _lshape_mesh(n)
    _validate_mesh(mesh)
    return mesh


_SEG_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])
_SEG_STIFF = np.array([[1.0, -1.0], [-1.0, 1.0]])
_TRI_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _scatter(idx: np.ndarray, local: np.ndarray, size: int) -> np.ndarray:
    """Sum element matrices ``local[e]`` into a dense size x size matrix.

    ``idx[e]`` holds element e's global indices.  bincount adds the
    contributions to each entry in element order, as a loop of
    ``mat[np.ix_(idx[e], idx[e])] += local[e]`` would.
    """
    rows = np.repeat(idx, idx.shape[1], axis=1)
    cols = np.tile(idx, (1, idx.shape[1]))
    flat = (rows * size + cols).ravel()
    return np.bincount(flat, weights=local.ravel(), minlength=size * size).reshape(size, size)


def _segment_matrices(idx: np.ndarray, h: np.ndarray, size: int, what: str):
    """Mass and stiffness of P1 segments of lengths ``h`` on nodes ``idx``."""
    if np.any(h <= 0.0):
        raise DegenerateElement(f"non-positive {what} length")
    mass = _SEG_MASS * (h / 6.0)[:, None, None]
    stiff = _SEG_STIFF / h[:, None, None]
    return _scatter(idx, stiff, size), _scatter(idx, mass, size)


def _assemble_interval(mesh: Mesh):
    xs = mesh.nodes[:, 0]
    h = xs[mesh.elements[:, 1]] - xs[mesh.elements[:, 0]]
    k, m = _segment_matrices(mesh.elements, h, mesh.n_nodes, "segment")
    m_b = np.eye(2)          # counting measure on the two endpoints
    k_b = np.zeros((2, 2))
    return k, m, m_b, k_b


def _assemble_triangles(mesh: Mesh):
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
    k = _scatter(tris, outer / (4.0 * area)[:, None, None], nn)
    m = _scatter(tris, area[:, None, None] * _TRI_MASS, nn)

    nb = mesh.boundary_nodes.size
    pos = np.empty(nn, dtype=np.intp)
    pos[mesh.boundary_nodes] = np.arange(nb)
    edges = mesh.boundary_edges
    h = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    k_b, m_b = _segment_matrices(pos[edges], h, nb, "boundary edge")
    return k, m, m_b, k_b


def assemble(mesh: Mesh) -> Assembly:
    """Exact P1 matrices (consistent mass, closed-form element integrals)."""
    if mesh.kind == "interval":
        k, m, m_b, k_b = _assemble_interval(mesh)
    else:
        k, m, m_b, k_b = _assemble_triangles(mesh)
    nb = mesh.boundary_nodes.size
    r = np.zeros((nb, mesh.n_nodes))
    r[np.arange(nb), mesh.boundary_nodes] = 1.0
    return Assembly(
        mesh=mesh,
        K=_frozen(k, float),
        M_dom=_frozen(m, float),
        M_b=_frozen(m_b, float),
        K_b=_frozen(k_b, float),
        R=_frozen(r, float),
    )


@lru_cache(maxsize=32)
def space_h1partial(a: Assembly) -> tuple[InnerSpace, InnerSpace, InnerSpace, InnerSpace]:
    """The four coefficient spaces attached to one assembly.

    Returns (combined H1 space with Gram K + R' M_b R, domain L2 space,
    boundary L2 space, boundary H1 space with Gram M_b + K_b).
    """
    g = a.K + a.R.T @ a.M_b @ a.R
    nb = a.M_b.shape[0]
    try:
        h1 = make_space(a.mesh.n_nodes, g)
        l2dom = make_space(a.mesh.n_nodes, a.M_dom)
        l2bnd = make_space(nb, a.M_b)
        h1bnd = make_space(nb, a.M_b + a.K_b)
    except NotPositiveDefinite as exc:
        raise GramNotPD(str(exc)) from exc
    return h1, l2dom, l2bnd, h1bnd


def op_trace(a: Assembly) -> Operator:
    """Boundary restriction as a map from the combined H1 space to boundary L2."""
    h1, _, l2bnd, _ = space_h1partial(a)
    return Operator(h1, l2bnd, a.R)


def op_embed_domain(a: Assembly) -> Operator:
    """Identity on coefficients, from the combined H1 space into domain L2."""
    h1, l2dom, _, _ = space_h1partial(a)
    return Operator(h1, l2dom, np.eye(a.mesh.n_nodes))


def op_embed_boundary(a: Assembly) -> tuple[Operator, Operator]:
    """The mutually inverse identity maps between boundary H1 and boundary L2.

    Returns (u, v): u goes H1(boundary) -> L2(boundary), v the other way.
    """
    _, _, l2bnd, h1bnd = space_h1partial(a)
    nb = l2bnd.dim
    return Operator(h1bnd, l2bnd, np.eye(nb)), Operator(l2bnd, h1bnd, np.eye(nb))


def dump_mesh(mesh: Mesh, path: str | None = None) -> str:
    """Plain-text mesh dump: sections `nodes`, `elements`, `boundary`.

    One node per line (coordinates), one element per line (node indices),
    then the ordered boundary node indices one per line.  Indices are
    0-based; line order defines node/element ids.
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
