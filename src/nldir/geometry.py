"""Discretized domains: interior cell quadrature, boundary quadrature,
lattice indexing and neighbor search.

Interior nodes are cell centers with the cell measure as quadrature
weight. For intervals and rectangles the cell count per axis is rounded
so the weights sum to the exact measure; polygons use a bounding-box
grid with a center-inside indicator, which carries an O(h) geometric
error by construction. Boundary quadrature is the two endpoints in 1D
and midpoints of segments of length <= h in 2D, with outward unit
normals.

Shape descriptors follow the config convention:
{"interval": [a, b]} | {"rect": [[x0, y0], [x1, y1]]} |
{"polygon": [[x, y], ...]}.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import MeshError


@dataclass(frozen=True)
class DomainMesh:
    dim: int
    shape: dict
    h: float
    interior_points: np.ndarray   # (N, dim)
    interior_weights: np.ndarray  # (N,)
    boundary_points: np.ndarray   # (M, dim)
    boundary_weights: np.ndarray  # (M,)
    boundary_normals: np.ndarray  # (M, dim) outward unit normals

    @property
    def n_interior(self):
        return self.interior_points.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_points.shape[0]


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _segment_midpoints(p0, p1, h):
    """Split segment p0->p1 into pieces of length <= h; midpoints,
    weights (piece lengths), and the outward normal for CCW orientation."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    m = max(1, int(np.ceil(length / h - 1e-12)))
    t = (np.arange(m) + 0.5) / m
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    w = np.full(m, length / m)
    tangent = (p1 - p0) / length
    normal = np.array([tangent[1], -tangent[0]])
    return pts, w, np.tile(normal, (m, 1))


def _shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_properly_intersect(a0, a1, b0, b1):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(a0, a1, b0)
    d2 = orient(a0, a1, b1)
    d3 = orient(b0, b1, a0)
    d4 = orient(b0, b1, a1)
    return d1 * d2 < 0 and d3 * d4 < 0


def _points_in_polygon(points, verts):
    """Even-odd rule, vectorized over points."""
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    x0 = verts[:, 0][None, :]
    y0 = verts[:, 1][None, :]
    x1 = np.roll(verts[:, 0], -1)[None, :]
    y1 = np.roll(verts[:, 1], -1)[None, :]
    straddles = (y0 > y) != (y1 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    hits = straddles & (x < x_cross)
    return np.sum(hits, axis=1) % 2 == 1


def build_mesh(shape, h) -> DomainMesh:
    """Build a DomainMesh from a shape descriptor and target cell size."""
    if not h > 0:
        raise MeshError("cell size must be positive", h=h)
    if not isinstance(shape, dict) or len(shape) != 1:
        raise MeshError("shape descriptor must be a single-key dict",
                        shape=repr(shape))
    kind, spec = next(iter(shape.items()))
    if kind == "interval":
        return _interval_mesh(spec, h)
    if kind == "rect":
        return _rect_mesh(spec, h)
    if kind == "polygon":
        return _polygon_mesh(spec, h)
    raise MeshError("unknown shape kind", kind=kind,
                    supported=["interval", "rect", "polygon"])


def _interval_mesh(spec, h):
    a, b = float(spec[0]), float(spec[1])
    if not b > a:
        raise MeshError("degenerate interval", a=a, b=b)
    if h >= b - a:
        raise MeshError("cell size must be below the interval length",
                        h=h, length=b - a)
    n = max(1, round((b - a) / h))
    he = (b - a) / n
    pts = (a + (np.arange(n) + 0.5) * he)[:, None]
    qw = np.full(n, he)
    bpts = np.array([[a], [b]])
    bw = np.array([1.0, 1.0])
    bn = np.array([[-1.0], [1.0]])
    _freeze(pts, qw, bpts, bw, bn)
    return DomainMesh(1, {"interval": [a, b]}, he, pts, qw, bpts, bw, bn)


def _rect_mesh(spec, h):
    (x0, y0), (x1, y1) = spec
    x0, y0, x1, y1 = float(x0), float(y0), float(x1), float(y1)
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate rectangle", corners=[[x0, y0], [x1, y1]])
    if h >= min(x1 - x0, y1 - y0):
        raise MeshError("cell size must be below the shortest side",
                        h=h, sides=[x1 - x0, y1 - y0])
    nx = max(1, round((x1 - x0) / h))
    ny = max(1, round((y1 - y0) / h))
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    gx = x0 + (np.arange(nx) + 0.5) * hx
    gy = y0 + (np.arange(ny) + 0.5) * hy
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    qw = np.full(nx * ny, hx * hy)
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    bpts, bw, bn = [], [], []
    for i in range(4):  # CCW so the rotated tangent points outward
        p, w, nrm = _segment_midpoints(corners[i], corners[(i + 1) % 4], h)
        bpts.append(p)
        bw.append(w)
        bn.append(nrm)
    bpts = np.vstack(bpts)
    bw = np.concatenate(bw)
    bn = np.vstack(bn)
    _freeze(pts, qw, bpts, bw, bn)
    return DomainMesh(2, {"rect": [[x0, y0], [x1, y1]]}, max(hx, hy),
                      pts, qw, bpts, bw, bn)


def _polygon_mesh(spec, h):
    verts = np.asarray(spec, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise MeshError("polygon needs at least 3 (x, y) vertices",
                        shape=list(np.shape(spec)))
    area = _shoelace(verts)
    scale = float(np.max(np.ptp(verts, axis=0)))
    if abs(area) <= 1e-12 * scale**2:
        raise MeshError("degenerate polygon: zero area", area=area)
    if area < 0:
        verts = verts[::-1].copy()
    nv = len(verts)
    for i in range(nv):
        for j in range(i + 1, nv):
            if j == i or (j + 1) % nv == i or (i + 1) % nv == j:
                continue  # adjacent edges share a vertex, skip
            if _segments_properly_intersect(verts[i], verts[(i + 1) % nv],
                                            verts[j], verts[(j + 1) % nv]):
                raise MeshError("degenerate polygon: self-intersecting",
                                edges=[i, j])
    if h >= scale:
        raise MeshError("cell size must be below the polygon extent",
                        h=h, extent=scale)
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    gx = xmin + h * (np.arange(int(np.ceil((xmax - xmin) / h))) + 0.5)
    gy = ymin + h * (np.arange(int(np.ceil((ymax - ymin) / h))) + 0.5)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    cand = np.column_stack([X.ravel(), Y.ravel()])
    inside = _points_in_polygon(cand, verts)
    pts = cand[inside]
    if pts.shape[0] == 0:
        raise MeshError("no cell centers fall inside the polygon", h=h)
    qw = np.full(pts.shape[0], h * h)
    bpts, bw, bn = [], [], []
    for i in range(nv):
        p, w, nrm = _segment_midpoints(verts[i], verts[(i + 1) % nv], h)
        bpts.append(p)
        bw.append(w)
        bn.append(nrm)
    bpts = np.vstack(bpts)
    bw = np.concatenate(bw)
    bn = np.vstack(bn)
    pts = np.ascontiguousarray(pts)
    _freeze(pts, qw, bpts, bw, bn)
    return DomainMesh(2, {"polygon": verts.tolist()}, h, pts, qw, bpts, bw, bn)


def lattice_index(mesh: DomainMesh):
    """Integer position of each interior node on the axis-aligned grid
    whose cell centers the nodes are, and the shape of that grid's
    bounding box. Per axis the spacing is the smallest gap between node
    coordinates. Raises MeshError when a node is off the grid, two nodes
    share a cell, or a weight is not the cell measure."""
    pts = mesh.interior_points
    index = np.zeros(pts.shape, dtype=np.int64)
    cell = 1.0
    for axis in range(mesh.dim):
        coords = np.unique(pts[:, axis])
        if len(coords) == 1:
            cell = None  # one row: this axis's spacing is not observable
            continue
        spacing = float(np.min(np.diff(coords)))
        steps = (pts[:, axis] - coords[0]) / spacing
        index[:, axis] = np.rint(steps)
        if np.max(np.abs(steps - index[:, axis])) > 1e-6:
            raise MeshError("interior nodes are off a uniform lattice",
                            axis=axis, spacing=spacing)
        if cell is not None:
            cell *= spacing
    # the weights pin the spacing: a node moved by a fraction of a cell
    # would otherwise pass as a node of a finer grid
    if cell is not None and np.max(np.abs(mesh.interior_weights - cell)) \
            > 1e-9 * cell:
        raise MeshError("interior weights are not the lattice cell measure",
                        cell=cell)
    shape = tuple(int(k) for k in index.max(axis=0) + 1)
    sites = np.ravel_multi_index(tuple(index.T), shape)
    if np.unique(sites).size != len(sites):
        raise MeshError("two interior nodes share a lattice cell")
    return index, shape


@dataclass(frozen=True)
class NeighborTable:
    """Within-radius adjacency in CSR form: interior-interior pairs
    (strict i != j, symmetric) and boundary-to-interior lists. Index
    lists are ascending, so construction is deterministic."""

    radius: float
    indptr: np.ndarray
    indices: np.ndarray
    boundary_indptr: np.ndarray
    boundary_indices: np.ndarray

    def neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def boundary_neighbors(self, b):
        return self.boundary_indices[self.boundary_indptr[b]:
                                     self.boundary_indptr[b + 1]]

    def interior_pairs(self):
        """Unordered pairs (ii, jj) with ii < jj, each listed once."""
        rows = np.repeat(np.arange(len(self.indptr) - 1),
                         np.diff(self.indptr))
        keep = rows < self.indices
        return rows[keep], self.indices[keep]


def neighbor_pairs(mesh: DomainMesh, radius: float) -> NeighborTable:
    """Neighbor search at the given radius through a k-d tree: symmetric
    interior adjacency plus boundary-to-interior lists. Two points are
    neighbors when |x - y| <= radius, so ties at exactly the radius are
    kept. Radius 0 gives no neighbors, not even coincident points."""
    if radius < 0:
        raise MeshError("radius must be nonnegative", radius=radius)
    n, m = mesh.n_interior, mesh.n_boundary
    pairs = np.empty((0, 2), dtype=np.int64)
    hits = [[]] * m
    if radius > 0:
        from scipy.spatial import cKDTree
        tree = cKDTree(mesh.interior_points)
        pairs = tree.query_pairs(radius, output_type="ndarray")
        hits = tree.query_ball_point(mesh.boundary_points, radius,
                                     return_sorted=True)
    # one sort of the row-major key orders both directions of every pair
    key = np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                          pairs[:, 1] * n + pairs[:, 0]])
    key.sort()
    rows, cols = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    bptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(h) for h in hits], out=bptr[1:])
    bidx = np.fromiter(chain.from_iterable(hits), dtype=np.int64,
                       count=bptr[-1])
    _freeze(indptr, cols, bptr, bidx)
    return NeighborTable(radius, indptr, cols, bptr, bidx)
