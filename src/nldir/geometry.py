"""Discretized domains: interior cell quadrature, boundary quadrature,
and the within-radius structure of a lattice mesh as integer offsets
plus boundary windows (lattice_stencil).

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


def _lattice(mesh: DomainMesh):
    """The axis-aligned grid whose cell centers the interior nodes are:
    each node's site on the C-ordered bounding box of that grid, the
    box's shape, its origin and its per-axis spacing. Per axis the
    smallest gap between node coordinates finds the indices; the
    spacing reported is the coordinate span over the index span, which
    rounding shifts far less. An axis with a single row of nodes
    reports the mesh's h. Raises MeshError when a node is off the grid,
    two nodes share a cell, or a weight is not the cell measure."""
    pts = mesh.interior_points
    index = np.zeros(pts.shape, dtype=np.int64)
    origin = pts.min(axis=0)
    spacing = np.full(mesh.dim, float(mesh.h))
    cell = 1.0
    for axis in range(mesh.dim):
        coords = np.sort(pts[:, axis])
        gaps = np.diff(coords)
        gaps = gaps[gaps > 0]
        if gaps.size == 0:
            cell = None  # one row: this axis's spacing is not observable
            continue
        gap = float(np.min(gaps))
        steps = (pts[:, axis] - origin[axis]) / gap
        index[:, axis] = np.rint(steps)
        if np.max(np.abs(steps - index[:, axis])) > 1e-6:
            raise MeshError("interior nodes are off a uniform lattice",
                            axis=axis, spacing=gap)
        spacing[axis] = (coords[-1] - coords[0]) / index[:, axis].max()
        if cell is not None:
            cell *= spacing[axis]
    # the weights pin the spacing: a node moved by a fraction of a cell
    # would otherwise pass as a node of a finer grid. Without an
    # observable cell measure they must still be equal.
    if cell is None:
        cell = float(mesh.interior_weights[0])
    if np.max(np.abs(mesh.interior_weights - cell)) > 1e-9 * cell:
        raise MeshError("interior weights are not the lattice cell measure",
                        cell=cell)
    shape = tuple(int(k) for k in index.max(axis=0) + 1)
    sites = np.ravel_multi_index(tuple(index.T), shape)
    if np.bincount(sites).max() > 1:
        raise MeshError("two interior nodes share a lattice cell")
    return sites, shape, origin, spacing


@dataclass(frozen=True)
class LatticeStencil:
    """Everything within a radius of the nodes of a lattice mesh.

    Interior pairs are listed by integer offset: `offsets` holds the
    half-offsets o (first nonzero entry positive; -o stands for the
    same pairs) with |o * spacing| <= radius, and `lengths` their
    lengths. Two nodes are neighbors exactly when their lattice indices
    differ by one of them. `sites` places each interior node on the
    C-ordered bounding grid of shape `shape`; a polygon's nodes are a
    mask on that grid. Boundary-to-interior neighbors are CSR lists with
    ascending node indices per boundary node."""

    radius: float
    shape: tuple
    sites: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    boundary_indptr: np.ndarray
    boundary_indices: np.ndarray

    @property
    def flat_offsets(self):
        """Each half-offset's step on the flattened grid (all positive)."""
        strides = np.cumprod((self.shape[1:] + (1,))[::-1])[::-1]
        return self.offsets @ strides

    def pair_starts(self):
        """(K, G) booleans on the flattened grid of G sites: entry
        [k, s] says that sites s and s + offsets[k] both hold nodes."""
        mask = np.zeros(self.shape, dtype=bool)
        mask.ravel()[self.sites] = True
        starts = np.zeros((len(self.offsets),) + self.shape, dtype=bool)
        for out, o in zip(starts, self.offsets):
            src = tuple(slice(max(0, -k), n - max(0, k))
                        for k, n in zip(o, self.shape))
            dst = tuple(slice(max(0, k), n - max(0, -k))
                        for k, n in zip(o, self.shape))
            out[src] = mask[src] & mask[dst]
        return starts.reshape(len(self.offsets), int(np.prod(self.shape)))


def lattice_stencil(mesh: DomainMesh, radius: float) -> LatticeStencil:
    """The interior offsets and boundary neighbors of a lattice mesh
    within a positive radius, without a point search.

    Tie rule: an offset o is in when |o * spacing| <= radius, decided
    once per offset from the lattice spacing, so all pairs at one offset
    are in or out together wherever the mesh sits. The spacing is known
    to rounding only, so a length within 1e-12 relative of the radius is
    an exact tie: the offset is in and its length is the radius, where a
    kernel that vanishes at its support gives weight 0. Boundary nodes lie
    off the lattice; each one tests the cells of the window of about
    (2 radius / spacing + 1)^dim cells around it and keeps the nodes
    with |x_b - x_j|^2 <= radius^2. Raises MeshError when the mesh is
    not a lattice: a node off the grid, two nodes in one cell, or a
    weight other than the cell measure."""
    if not radius > 0:
        raise MeshError("radius must be positive", radius=radius)
    sites, shape, origin, spacing = _lattice(mesh)

    reach = [min(int(radius // s) + 1, n - 1) for s, n in zip(spacing, shape)]
    grid = np.stack(np.meshgrid(*[np.arange(-k, k + 1) for k in reach],
                                indexing="ij"), axis=-1).reshape(-1, mesh.dim)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    half = grid[lead > 0]
    lengths = np.sqrt(np.sum((half * spacing) ** 2, axis=1))
    lengths[np.abs(lengths - radius) <= 1e-12 * radius] = radius
    half, lengths = half[lengths <= radius], lengths[lengths <= radius]

    # boundary windows: candidate cells per axis, combined in C order
    pts, bpts = mesh.interior_points, mesh.boundary_points
    m = len(bpts)
    cand = np.zeros((m, 1), dtype=np.int64)
    inside = np.ones((m, 1), dtype=bool)
    for axis, n in enumerate(shape):
        low = np.floor((bpts[:, axis] - origin[axis] - radius)
                       / spacing[axis]).astype(np.int64)
        idx = low[:, None] + np.arange(
            int(np.ceil(2.0 * radius / spacing[axis])) + 2)
        cand = (cand[:, :, None] * n + idx[:, None, :]).reshape(m, -1)
        inside = (inside[:, :, None]
                  & ((idx >= 0) & (idx < n))[:, None, :]).reshape(m, -1)
    node_of_site = np.full(int(np.prod(shape)), -1, dtype=np.int64)
    node_of_site[sites] = np.arange(len(sites))
    rows, cols = np.nonzero(inside)
    nodes = node_of_site[cand[rows, cols]]
    rows, nodes = rows[nodes >= 0], nodes[nodes >= 0]
    hit = np.sum((bpts[rows] - pts[nodes]) ** 2, axis=1) <= radius * radius
    key = np.sort(rows[hit] * len(sites) + nodes[hit])
    brow, bidx = np.divmod(key, len(sites))
    bptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(brow, minlength=m), out=bptr[1:])
    _freeze(sites, half, lengths, bptr, bidx)
    return LatticeStencil(float(radius), shape, sites, half, lengths,
                          bptr, bidx)


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
    interior adjacency plus boundary-to-interior lists, for any point
    cloud. Two points are neighbors when |x - y| <= radius, so ties at
    exactly the radius are kept, decided pair by pair from coordinates.
    Radius 0 gives no neighbors, not even coincident points. This is the
    tests' oracle for lattice_stencil; no pipeline path calls it."""
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
