"""Discretized domains: interior cell quadrature, boundary quadrature,
and the within-radius structure of a lattice mesh as integer offsets
plus boundary windows (lattice_stencil).

Interior nodes are cell centers with the cell measure as quadrature
weight. For intervals and rectangles the cell count per axis is rounded
so the weights sum to the exact measure; polygons use a bounding-box
grid with a center-inside indicator, which carries an O(h) geometric
error by construction. build_mesh records the lattice it lays the
cells out on, which the DomainMesh constructor checks against the
nodes and lattice_stencil reads. Boundary quadrature is the two
endpoints in 1D and midpoints of segments of length <= h in 2D.

Shape descriptors follow the config convention:
{"interval": [a, b]} | {"rect": [[x0, y0], [x1, y1]]} |
{"polygon": [[x, y], ...]}, with no vertex repeated in a row.
"""

import functools
import math
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .errors import MeshError


@dataclass(frozen=True)
class DomainMesh:
    """Interior and boundary quadrature of a domain. On a lattice mesh
    from build_mesh, interior_weights is a read-only broadcast view of
    the one cell measure, which the constructor certifies every weight
    equals."""

    dim: int
    shape: dict
    h: float
    interior_points: np.ndarray   # (N, dim)
    interior_weights: np.ndarray  # (N,)
    boundary_points: np.ndarray   # (M, dim)
    boundary_weights: np.ndarray  # (M,)
    # (sites, shape, origin, spacing) of the cell grid, as build_mesh
    # lays it out (see _cells); None for a point cloud
    lattice: tuple = None

    def __post_init__(self):
        """The one check of a recorded lattice against the nodes.
        MeshError when the origin is not finite or a spacing not
        positive and finite, the site and node counts differ, a node lies
        more than 1e-6 cell off its site (a NaN node among them), two
        nodes share one, or a weight is not the cell measure (with an
        axis of one row, whose spacing is h, the weights must be equal).
        Every comparison is written to fail on NaN."""
        if self.lattice is None:
            return
        sites, shape, origin, spacing = self.lattice
        if not (np.all(np.isfinite(origin))
                and np.all((spacing > 0) & (spacing < np.inf))):
            raise MeshError("the lattice needs a finite origin and positive "
                            "finite spacings", origin=list(origin),
                            spacing=list(spacing))
        pts, qw = self.interior_points, self.interior_weights
        if len(sites) != len(pts):
            raise MeshError("the lattice has a site count other than the "
                            "node count", sites=len(sites), nodes=len(pts))
        for axis, index in enumerate(np.unravel_index(sites, shape)):
            steps = (pts[:, axis] - origin[axis]) / spacing[axis]
            if not np.all(np.abs(steps - index) <= 1e-6):
                raise MeshError("interior nodes are off a uniform lattice",
                                axis=axis, spacing=spacing[axis])
        if np.any(np.bincount(sites) > 1):
            raise MeshError("two interior nodes share a lattice cell")
        cell = float(np.prod(spacing)) if min(shape) > 1 else float(qw[0])
        if not np.all(np.abs(qw - cell) <= 1e-9 * cell):
            raise MeshError("interior weights are not the lattice cell "
                            "measure", cell=cell)

    @property
    def n_interior(self):
        return self.interior_points.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_points.shape[0]


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _closed_polyline(verts, h):
    """Boundary quadrature of the closed polyline through verts: each
    side split into pieces of length <= h, their midpoints and weights
    (piece lengths)."""
    pts, w = [], []
    for p0, p1 in zip(verts, np.roll(verts, -1, axis=0)):
        length = float(np.linalg.norm(p1 - p0))
        m = max(1, int(np.ceil(length / h - 1e-12)))
        t = (np.arange(m) + 0.5) / m
        pts.append(p0[None, :] + t[:, None] * (p1 - p0)[None, :])
        w.append(np.full(m, length / m))
    return np.vstack(pts), np.concatenate(w)


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


def _coordinates(kind, spec, admits, what):
    """The descriptor's coordinates as a float array whose shape the
    predicate admits; MeshError naming the shape kind otherwise."""
    try:
        v = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or not admits(v.shape) or not np.all(np.isfinite(v)):
        raise MeshError(f"{kind} needs {what}", kind=kind, spec=repr(spec))
    return v


def _cell_counts(h, spans, rounding):
    """Per-axis cell counts max(1, rounding(span / h)); MeshError naming
    h and the counts when their centers would not fit one numpy array."""
    cells = [float(span) / float(h) for span in spans]
    if not math.prod(cells) * 8 * len(cells) < np.iinfo(np.intp).max:
        raise MeshError("cell size too small to lay out the mesh", h=h,
                        cells=cells)
    return [max(1, int(rounding(c))) for c in cells]


def _cells(axes, h, cell, inside=None):
    """Interior quadrature on the grid of per-axis center coordinates:
    the centers in C order (those `inside` keeps, when given), the cell
    measure as weights, and their lattice (sites, shape, origin,
    spacing) on the grid's box trimmed to the rows that hold nodes. The
    origin is the first kept coordinate per axis and the spacing the
    coordinate span over the index span, or h on an axis of one row."""
    pts = np.column_stack([g.ravel()
                           for g in np.meshgrid(*axes, indexing="ij")])
    grid = [len(a) for a in axes]
    keep = np.ones(grid, dtype=bool)
    if inside is not None:
        keep = inside(pts).reshape(grid)
        pts = pts[keep.ravel()]
    if len(pts) == 0:
        raise MeshError("no cell centers fall inside the polygon", h=h)
    rows = [np.flatnonzero(np.moveaxis(keep, axis, 0).any(
        axis=tuple(range(1, keep.ndim)))) for axis in range(keep.ndim)]
    lo, hi = [r[0] for r in rows], [r[-1] for r in rows]
    box = keep[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
    sites, shape = np.flatnonzero(box), box.shape
    origin = np.array([g[a] for g, a in zip(axes, lo)])
    spacing = np.array([(g[b] - g[a]) / (b - a) if b > a else h
                        for g, a, b in zip(axes, lo, hi)])
    qw = np.broadcast_to(cell, len(pts))  # read-only, one value
    _freeze(pts, sites, origin, spacing)
    return pts, qw, (sites, shape, origin, spacing)


def _interval_mesh(spec, h):
    a, b = (float(c) for c in _coordinates(
        "interval", spec, lambda s: s == (2,), "two finite end points [a, b]"))
    if not b > a:
        raise MeshError("degenerate interval", a=a, b=b)
    if h >= b - a:
        raise MeshError("cell size must be below the interval length",
                        h=h, length=b - a)
    n, = _cell_counts(h, [b - a], round)
    he = (b - a) / n
    pts, qw, lattice = _cells([a + (np.arange(n) + 0.5) * he], he, he)
    bpts = np.array([[a], [b]])
    bw = np.array([1.0, 1.0])
    _freeze(bpts, bw)
    return DomainMesh(1, {"interval": [a, b]}, he, pts, qw, bpts, bw, lattice)


def _rect_mesh(spec, h):
    x0, y0, x1, y1 = (float(c) for c in _coordinates(
        "rect", spec, lambda s: s == (2, 2),
        "two finite corners [[x0, y0], [x1, y1]]").ravel())
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate rectangle", corners=[[x0, y0], [x1, y1]])
    if h >= min(x1 - x0, y1 - y0):
        raise MeshError("cell size must be below the shortest side",
                        h=h, sides=[x1 - x0, y1 - y0])
    nx, ny = _cell_counts(h, [x1 - x0, y1 - y0], round)
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    pts, qw, lattice = _cells([x0 + (np.arange(nx) + 0.5) * hx,
                               y0 + (np.arange(ny) + 0.5) * hy],
                              max(hx, hy), hx * hy)
    bpts, bw = _closed_polyline(
        np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]), h)
    _freeze(bpts, bw)
    return DomainMesh(2, {"rect": [[x0, y0], [x1, y1]]}, max(hx, hy),
                      pts, qw, bpts, bw, lattice)


def _polygon_mesh(spec, h):
    verts = _coordinates("polygon", spec,
                         lambda s: len(s) == 2 and s[0] >= 3 and s[1] == 2,
                         "at least 3 finite (x, y) vertices")
    area = _shoelace(verts)
    scale = float(np.max(np.ptp(verts, axis=0)))
    side = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    if np.min(side) <= 1e-12 * scale:  # e.g. a closed ring's last side
        raise MeshError("degenerate polygon: repeated vertex",
                        edge=int(np.argmin(side)))
    if abs(area) <= 1e-12 * scale**2:
        raise MeshError("degenerate polygon: zero area", area=area)
    if area < 0:  # a polygon and its reversal give the same boundary arrays
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
    low, high = verts.min(axis=0), verts.max(axis=0)
    pts, qw, lattice = _cells(
        [a + h * (np.arange(n) + 0.5)
         for a, n in zip(low, _cell_counts(h, high - low, np.ceil))],
        h, h * h, lambda cand: _points_in_polygon(cand, verts))
    bpts, bw = _closed_polyline(verts, h)
    _freeze(bpts, bw)
    return DomainMesh(2, {"polygon": verts.tolist()}, h, pts, qw, bpts, bw,
                      lattice)


@dataclass(frozen=True)
class LatticeStencil:
    """Everything within a radius of the nodes of a lattice mesh.

    Interior pairs are listed by integer offset: `offsets` holds the
    half-offsets o (first nonzero entry positive; -o stands for the
    same pairs) with |o * spacing| <= radius, and `lengths` their
    lengths. Two nodes are neighbors exactly when their lattice indices
    differ by one of them. `sites` places each interior node on the
    C-ordered bounding grid of shape `shape`; a polygon's nodes are a
    mask on that grid, and `node_of` (int32) maps each site to its node
    or -1.
    Boundary-to-interior neighbors are CSR lists with ascending node
    indices per boundary node, `boundary_lengths` their |x_b - x_j|."""

    radius: float
    shape: tuple
    sites: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    boundary_indptr: np.ndarray
    boundary_indices: np.ndarray
    boundary_lengths: np.ndarray
    node_of: np.ndarray

    @property
    def flat_offsets(self):
        """Each half-offset's step on the flattened grid (all positive)."""
        strides = np.cumprod((self.shape[1:] + (1,))[::-1])[::-1]
        return self.offsets @ strides

    @functools.cached_property
    def _pair_slices(self):
        """Per half-offset o, the grid slices of the sites s and s + o
        that are both on the grid, worked out once per stencil."""
        return [(tuple(slice(max(0, -k), n - max(0, k))
                       for k, n in zip(o, self.shape)),
                 tuple(slice(max(0, k), n - max(0, -k))
                       for k, n in zip(o, self.shape)))
                for o in self.offsets.tolist()]

    def pair_rows(self, keep=None):
        """A generator of the pair-start rows of the half-offsets (those
        the mask `keep` selects, when given), each made on demand from
        the node mask: G booleans on the flattened grid whose entry s
        says that sites s and s + o both hold nodes (s + o on the grid,
        axis by axis). One buffer holds every row in turn, so a row
        lasts until the next is made. When every site holds a node, a
        row is its slice of the grid, and the mask is not read."""
        mask = None if len(self.sites) == len(self.node_of) \
            else (self.node_of >= 0).reshape(self.shape)
        row = np.empty(self.shape, dtype=bool)
        flat = row.reshape(-1)
        slices = self._pair_slices
        for src, dst in slices if keep is None else compress(slices, keep):
            row.fill(False)
            if mask is None:
                row[src] = True
            else:
                np.logical_and(mask[src], mask[dst], out=row[src])
            yield flat


def lattice_stencil(mesh: DomainMesh, radius: float) -> LatticeStencil:
    """The interior offsets and boundary neighbors of a lattice mesh
    within a positive finite radius, without a point search.

    Tie rule: an offset o is in when |o * spacing| <= radius, decided
    once per offset from the lattice spacing, so all pairs at one offset
    are in or out together wherever the mesh sits. The spacing is known
    to rounding only, so a length within 1e-12 relative of the radius is
    an exact tie: the offset is in and its length is the radius, where a
    kernel that vanishes at its support gives weight 0. Boundary nodes lie
    off the lattice; each one tests the cells of the window of about
    (2 radius / spacing + 1)^dim cells around it and keeps the nodes
    with |x_b - x_j|^2 <= radius^2 (summed per axis), whose square roots
    are its boundary_lengths. The lattice is the one build_mesh
    recorded, which the DomainMesh constructor checked against the
    nodes; MeshError when there is none."""
    if not 0 < radius < np.inf:
        raise MeshError("radius must be positive and finite", radius=radius)
    if mesh.lattice is None:
        raise MeshError("the mesh records no lattice; build it with "
                        "build_mesh")
    sites, shape, origin, spacing = mesh.lattice

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
    node_of = np.full(int(np.prod(shape)), -1, dtype=np.int32)
    node_of[sites] = np.arange(len(sites))
    # rows ascend, and so do a row's window sites and nodes: CSR order
    rows, cols = np.nonzero(inside)
    nodes = node_of[cand[rows, cols]]
    rows, nodes = rows[nodes >= 0], nodes[nodes >= 0]
    sq = sum((bpts[rows, a] - pts[nodes, a]) ** 2 for a in range(mesh.dim))
    hit = sq <= radius * radius
    bidx, blen = nodes[hit].astype(np.intp), np.sqrt(sq[hit])
    bptr = np.searchsorted(rows[hit], np.arange(m + 1))
    _freeze(sites, half, lengths, bptr, bidx, blen, node_of)
    return LatticeStencil(float(radius), shape, sites, half, lengths,
                          bptr, bidx, blen, node_of)


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
