"""Mesh construction, neighbor search, and boundary distance.

Hand-checked oracles used below:
  - interval [0,1], h=0.25: four cell centers 0.125/0.375/0.625/0.875
    with weight 0.25 each; boundary nodes {0,1} with weight 1.
  - unit square, h=0.5: 2x2 = 4 interior cells, perimeter weight 4.
  - triangle (0,0),(1,0),(0,1) on an aligned grid with 1/h integer:
    centers ((i+.5)h,(j+.5)h) lie inside iff i+j+1 < 1/h, so the
    indicator area is (1-h)/2 and the area error is exactly h/2.
"""

from dataclasses import replace

import numpy as np
import pytest

from nldir import MeshError, build_mesh, neighbor_pairs
from nldir.geometry import DomainMesh, lattice_stencil

L_SHAPE = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
           [0.0, 1.0]]
PENTAGON = [[0.0, 0.0], [1.1, 0.1], [1.4, 0.9], [0.6, 1.5], [-0.2, 0.8]]


def brute_pairs(points, radius):
    n = len(points)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float(np.sum((points[i] - points[j]) ** 2))
            if d2 <= radius * radius:
                out.add((i, j))
    return out


def table_pairs(table):
    ii, jj = table.interior_pairs()
    return set(zip(ii.tolist(), jj.tolist()))


def cloud_mesh(points, seed=0):
    """Wrap an arbitrary point cloud as a mesh so the neighbor search
    can be driven against the brute-force oracle."""
    rng = np.random.default_rng(seed)
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    bpts = rng.uniform(-0.2, 1.2, size=(5, dim))
    return DomainMesh(dim, {"rect": [[0.0] * dim, [1.0] * dim]}, 0.1,
                      pts, np.full(len(pts), 0.1 ** dim), bpts,
                      np.full(5, 0.1))


# ---------------------------------------------------------------- build_mesh

def test_interval_quarter_cells():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    assert mesh.dim == 1
    assert np.allclose(mesh.interior_points[:, 0],
                       [0.125, 0.375, 0.625, 0.875], atol=1e-15)
    assert np.allclose(mesh.interior_weights, 0.25, atol=1e-15)
    assert np.allclose(np.sort(mesh.boundary_points[:, 0]), [0.0, 1.0])
    assert np.allclose(mesh.boundary_weights, 1.0)


def test_interval_snaps_h_to_divide_length():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.3)
    # 1/0.3 rounds to 3 cells, so the effective size is 1/3
    assert mesh.n_interior == 3
    assert mesh.h == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert float(np.sum(mesh.interior_weights)) == pytest.approx(1.0, abs=1e-14)


def test_unit_square_coarse():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.5)
    assert mesh.dim == 2
    assert mesh.n_interior == 4
    assert float(np.sum(mesh.boundary_weights)) == pytest.approx(4.0, abs=1e-12)


def test_unit_square_fine_area():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.01)
    assert float(np.sum(mesh.interior_weights)) == pytest.approx(1.0, abs=1e-5)


def test_rect_weight_sums_exact():
    mesh = build_mesh({"rect": [[-1.0, 0.5], [2.0, 1.5]]}, 0.13)
    area = 3.0 * 1.0
    perim = 2 * (3.0 + 1.0)
    assert float(np.sum(mesh.interior_weights)) == pytest.approx(area, rel=1e-13)
    assert float(np.sum(mesh.boundary_weights)) == pytest.approx(perim, rel=1e-13)


def test_rect_interior_points_inside_boundary_on_edges():
    mesh = build_mesh({"rect": [[0.0, 0.0], [2.0, 1.0]]}, 0.25)
    p = mesh.interior_points
    assert np.all((p[:, 0] > 0) & (p[:, 0] < 2) & (p[:, 1] > 0) & (p[:, 1] < 1))
    b = mesh.boundary_points
    on_edge = (np.isclose(b[:, 0], 0) | np.isclose(b[:, 0], 2)
               | np.isclose(b[:, 1], 0) | np.isclose(b[:, 1], 1))
    assert np.all(on_edge)


def test_boundary_segment_weights_at_most_h():
    mesh = build_mesh({"polygon": PENTAGON}, 0.07)
    assert np.all(mesh.boundary_weights <= 0.07 + 1e-12)


def test_polygon_perimeter_exact():
    mesh = build_mesh({"polygon": PENTAGON}, 0.05)
    verts = np.asarray(PENTAGON)
    perim = sum(float(np.linalg.norm(verts[(i + 1) % 5] - verts[i]))
                for i in range(5))
    assert float(np.sum(mesh.boundary_weights)) == pytest.approx(perim, rel=1e-12)


def test_polygon_area_error_is_order_h():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    errs = []
    for h in (0.1, 0.05, 0.025):
        mesh = build_mesh({"polygon": tri}, h)
        errs.append(abs(float(np.sum(mesh.interior_weights)) - 0.5))
    assert errs[0] > errs[1] > errs[2]
    # aligned-grid construction makes the error exactly h/2 here
    for h, e in zip((0.1, 0.05, 0.025), errs):
        assert e == pytest.approx(h / 2, rel=1e-10)


def test_l_shape_counts_and_measures():
    mesh = build_mesh({"polygon": L_SHAPE}, 0.05)
    assert float(np.sum(mesh.interior_weights)) == pytest.approx(0.75, abs=1e-3)
    assert float(np.sum(mesh.boundary_weights)) == pytest.approx(4.0, rel=1e-12)
    # closed form: the unit square minus the notch (0.5, 1] x (0.5, 1]
    x, y = mesh.interior_points.T
    assert np.all((x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0))
    assert not np.any((x > 0.5) & (y > 0.5))


def test_clockwise_polygon_is_reoriented():
    ccw = build_mesh({"polygon": L_SHAPE}, 0.1)
    cw = build_mesh({"polygon": L_SHAPE[::-1]}, 0.1)
    assert cw.n_interior == ccw.n_interior
    # the reversed list is walked in the CCW order, so the boundary
    # quadrature is the same bit for bit
    assert np.array_equal(cw.boundary_points, ccw.boundary_points)
    assert np.array_equal(cw.boundary_weights, ccw.boundary_weights)


def test_mesh_arrays_are_frozen():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    with pytest.raises(ValueError):
        mesh.interior_points[0, 0] = 99.0
    with pytest.raises(ValueError):
        mesh.boundary_weights[0] = 99.0


@pytest.mark.parametrize("shape,h", [
    ({"interval": [1.0, 1.0]}, 0.1),
    ({"interval": [2.0, 1.0]}, 0.1),
    ({"interval": [0.0, 1.0]}, 1.5),
    ({"rect": [[0.0, 0.0], [0.0, 1.0]]}, 0.1),
    ({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 1.0),
    ({"polygon": [[0.0, 0.0], [1.0, 0.0]]}, 0.1),
    ({"polygon": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}, 0.1),
    ({"polygon": [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]}, 0.1),
    ({"interval": [0.0, 1.0]}, 0.0),
    ({"interval": [0.0, 1.0]}, -0.1),
    ({"disk": [0.0, 0.0, 1.0]}, 0.1),
    ("interval", 0.1),
])
def test_build_mesh_rejects_bad_input(shape, h):
    with pytest.raises(MeshError):
        build_mesh(shape, h)


@pytest.mark.parametrize("h", [1e-300, 5e-324])
@pytest.mark.parametrize("shape", [
    {"interval": [0.0, 1.0]},
    {"rect": [[0.0, 0.0], [1.0, 1.0]]},
    {"polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
                 [0.0, 1.0]]},
])
def test_a_cell_size_too_small_to_lay_out_is_refused(shape, h):
    # about 1e300 cells per axis (infinitely many at 5e-324): refused
    # before any array is allocated, naming h and the per-axis counts
    with pytest.raises(MeshError, match="too small") as exc:
        build_mesh(shape, h)
    assert exc.value.info["h"] == h
    cells = exc.value.info["cells"]
    assert len(cells) == (1 if "interval" in shape else 2)
    assert all(c > 1e299 for c in cells)


def test_self_intersection_error_names_edges():
    # lopsided so the signed area stays nonzero and only the crossing trips
    bowtie = {"polygon": [[0.0, 0.0], [3.0, 1.0], [1.0, 0.0], [0.0, 2.0]]}
    with pytest.raises(MeshError) as exc:
        build_mesh(bowtie, 0.1)
    assert "self-intersecting" in str(exc.value)


@pytest.mark.parametrize("verts,edge", [
    # a closed ring, as GeoJSON writes it: the last side has length 0
    ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], 4),
    # a vertex listed twice in a row
    ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1),
])
def test_repeated_vertex_is_refused(verts, edge):
    with pytest.raises(MeshError, match="repeated vertex") as exc:
        build_mesh({"polygon": verts}, 0.1)
    assert exc.value.info["edge"] == edge


# ------------------------------------------------------------ neighbor_pairs

def test_neighbor_example_radius_03():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    table = neighbor_pairs(mesh, 0.3)
    assert table.neighbors(0).tolist() == [1]
    assert table.neighbors(1).tolist() == [0, 2]


def test_neighbor_radius_zero_empty():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    table = neighbor_pairs(mesh, 0.0)
    for i in range(mesh.n_interior):
        assert table.neighbors(i).size == 0
    for b in range(mesh.n_boundary):
        assert table.boundary_neighbors(b).size == 0


def test_neighbor_negative_radius_rejected():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    with pytest.raises(MeshError):
        neighbor_pairs(mesh, -0.1)


def test_neighbor_cloud_matches_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    mesh = cloud_mesh(pts)
    table = neighbor_pairs(mesh, 0.2)
    assert table_pairs(table) == brute_pairs(pts, 0.2)


def test_neighbor_brute_force_many_seeds():
    # 100 random clouds across dims and radii, exact set equality
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 2
        n = int(rng.integers(2, 40))
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        radius = float(rng.uniform(0.05, 0.8))
        mesh = cloud_mesh(pts, seed=seed)
        table = neighbor_pairs(mesh, radius)
        assert table_pairs(table) == brute_pairs(pts, radius), seed


def test_neighbor_grid_mesh_complete():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05)  # 400 nodes
    radius = 0.125
    table = neighbor_pairs(mesh, radius)
    assert table_pairs(table) == brute_pairs(mesh.interior_points, radius)


def test_neighbor_symmetry_and_order():
    mesh = build_mesh({"polygon": PENTAGON}, 0.08)
    table = neighbor_pairs(mesh, 0.2)
    seen = set()
    for i in range(mesh.n_interior):
        nbr = table.neighbors(i)
        assert np.all(np.diff(nbr) > 0)   # ascending, no duplicates
        assert i not in nbr
        for j in nbr.tolist():
            seen.add((i, j))
    for i, j in seen:
        assert (j, i) in seen


def test_interior_pairs_each_once():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.125)
    table = neighbor_pairs(mesh, 0.3)
    ii, jj = table.interior_pairs()
    assert np.all(ii < jj)
    pairs = set(zip(ii.tolist(), jj.tolist()))
    assert len(pairs) == ii.size
    # doubling back gives exactly the symmetric adjacency
    assert 2 * ii.size == table.indices.size


def test_boundary_lists_match_brute_force():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.1)
    radius = 0.21
    table = neighbor_pairs(mesh, radius)
    for b in range(mesh.n_boundary):
        d = np.linalg.norm(mesh.interior_points - mesh.boundary_points[b],
                           axis=1)
        want = np.nonzero(d <= radius)[0]
        assert table.boundary_neighbors(b).tolist() == want.tolist()


@pytest.mark.parametrize("shape, h, grid", [
    ({"interval": [0.0, 1.0]}, 0.1, (10,)),
    ({"rect": [[0.0, 0.0], [2.0, 1.0]]}, 0.3, (7, 3)),
    ({"polygon": L_SHAPE}, 0.125, (8, 8)),
    ({"polygon": PENTAGON}, 0.1, (16, 15)),
])
def test_lattice_index_rebuilds_the_nodes(shape, h, grid):
    # the 2 x 1 rect has unequal spacings 2/7 and 1/3 on its two axes
    mesh = build_mesh(shape, h)
    stencil = lattice_stencil(mesh, mesh.h)
    assert stencil.shape == grid
    index = np.column_stack(np.unravel_index(stencil.sites, grid))
    pts = mesh.interior_points
    low, high = pts.min(axis=0), pts.max(axis=0)
    assert np.all(index.min(axis=0) == 0)
    spacing = (high - low) / (np.array(grid) - 1)
    np.testing.assert_allclose(pts, low + index * spacing, atol=1e-12)
    assert len({tuple(k) for k in index}) == mesh.n_interior


@pytest.mark.parametrize("shift", [0.1, 0.0123456789, -1.0])
def test_lattice_index_refuses_off_lattice_nodes(shift):
    # the replaced mesh keeps the lattice build_mesh recorded, so each
    # shift moves node 5 off its recorded site, by -1 cell onto the
    # point of node 4, and the constructor refuses it
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)
    pts = mesh.interior_points.copy()
    pts[5, 1] += shift * mesh.h
    with pytest.raises(MeshError, match="off a uniform lattice") as exc:
        replace(mesh, interior_points=pts)
    assert exc.value.info == {"axis": 1, "spacing": mesh.h}


def test_a_nan_node_is_refused_at_construction():
    # a NaN coordinate is no distance from its site; unrefused, it
    # drops 6 of the 80 boundary pairs of this mesh's stencil at 2 h
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)
    pts = mesh.interior_points.copy()
    pts[5, 1] = np.nan
    with pytest.raises(MeshError, match="off a uniform lattice") as exc:
        replace(mesh, interior_points=pts)
    assert exc.value.info["axis"] == 1


@pytest.mark.parametrize("value", [0.0, -0.25, np.inf, np.nan])
def test_a_bad_lattice_spacing_is_refused_at_construction(value):
    # unrefused, a zero spacing ends in an OverflowError in
    # lattice_stencil
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)
    sites, shape, origin, spacing = mesh.lattice
    spacing = spacing.copy()
    spacing[0] = value
    with pytest.raises(MeshError, match="positive finite spacings"):
        replace(mesh, lattice=(sites, shape, origin, spacing))


def test_a_nonfinite_lattice_origin_is_refused_at_construction():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    sites, shape, origin, spacing = mesh.lattice
    with pytest.raises(MeshError, match="finite origin"):
        replace(mesh, lattice=(sites, shape, np.array([np.nan]), spacing))


def test_two_nodes_on_one_lattice_cell_are_refused():
    # node 1 moved onto node 0 and its site with it: each node sits on
    # its site, but one cell holds two
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    sites, shape, origin, spacing = mesh.lattice
    pts, sites = mesh.interior_points.copy(), sites.copy()
    pts[1], sites[1] = pts[0], sites[0]
    with pytest.raises(MeshError, match="share a lattice cell"):
        replace(mesh, interior_points=pts,
                lattice=(sites, shape, origin, spacing))


def test_a_nan_weight_is_refused_at_construction():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)
    weights = mesh.interior_weights.copy()
    weights[3] = np.nan
    with pytest.raises(MeshError, match="not the lattice cell measure") as exc:
        replace(mesh, interior_weights=weights)
    assert exc.value.info == {"cell": 0.0625}


def test_lattice_stencil_refuses_an_infinite_radius():
    # an infinite window has no cell count to take
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.1)
    with pytest.raises(MeshError, match="finite") as exc:
        lattice_stencil(mesh, np.inf)
    assert exc.value.info == {"radius": np.inf}


def test_lattice_stencil_needs_the_recorded_lattice():
    # no lattice is inferred from coordinates: a hand-built mesh on the
    # very nodes of a grid has none, and a mesh that drops a node no
    # longer fits the one its builder recorded
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.125)
    by_hand = DomainMesh(2, mesh.shape, mesh.h, mesh.interior_points,
                         mesh.interior_weights, mesh.boundary_points,
                         mesh.boundary_weights)
    with pytest.raises(MeshError, match="records no lattice"):
        lattice_stencil(by_hand, mesh.h)
    with pytest.raises(MeshError, match="site count") as exc:
        replace(mesh, interior_points=mesh.interior_points[:63])
    assert exc.value.info == {"sites": 64, "nodes": 63}


def test_neighbor_radius_is_inclusive():
    # grid spacing 0.25 with radius exactly 0.25 keeps adjacent cells
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.25)
    table = neighbor_pairs(mesh, 0.25)
    assert table.neighbors(1).tolist() == [0, 2]


@pytest.mark.parametrize("shape, h", [
    ({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.125),
    ({"rect": [[-0.25, 0.5], [1.0, 1.75]]}, 0.125),
    ({"polygon": L_SHAPE}, 0.125),
    ({"polygon": PENTAGON}, 0.1),
])
def test_neighbor_grid_ties_match_brute_force(shape, h):
    # radii k*h, sqrt(2)*h and sqrt(5)*h fall exactly on grid distances
    mesh = build_mesh(shape, h)
    pts = mesh.interior_points
    for factor in (1.0, 2.0, 3.0, np.sqrt(2.0), np.sqrt(5.0)):
        radius = factor * mesh.h
        table = neighbor_pairs(mesh, radius)
        assert table_pairs(table) == brute_pairs(pts, radius), factor
        for b in range(mesh.n_boundary):
            d2 = np.sum((pts - mesh.boundary_points[b]) ** 2, axis=1)
            want = np.nonzero(d2 <= radius * radius)[0]
            assert table.boundary_neighbors(b).tolist() == want.tolist()


def test_neighbor_radius_zero_skips_coincident_points():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.6, 0.4]])
    bpts = np.array([[0.1, 0.2], [0.0, 0.0]])
    mesh = DomainMesh(2, {"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.1, pts,
                      np.full(3, 0.01), bpts, np.full(2, 0.1))
    table = neighbor_pairs(mesh, 0.0)
    assert table.indices.size == 0
    assert table.boundary_indices.size == 0
    # any positive radius pairs the duplicates
    table = neighbor_pairs(mesh, 1e-9)
    assert table_pairs(table) == {(0, 1)}
    assert table.boundary_neighbors(0).tolist() == [0, 1]
