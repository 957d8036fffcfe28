import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmprec.errors import InvalidArgumentError
from helmprec.mesh import BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

IMP = BoundaryTag.IMPEDANCE
DIR = BoundaryTag.DIRICHLET


def test_interval_single_element():
    m = build_interval_mesh(0, 1, 1, IMP, IMP)
    assert m.n_nodes == 2
    assert m.n_elements == 1
    assert m.h == 1.0
    assert np.allclose(m.coords[:, 0], [0.0, 1.0])


def test_interval_uniform_subdivision():
    m = build_interval_mesh(0, 1, 4, DIR, IMP)
    assert m.n_nodes == 5
    assert m.h == 0.25
    left = [f for f in m.facets if 0 in f.nodes][0]
    assert left.tag == DIR
    right = [f for f in m.facets if 4 in f.nodes][0]
    assert right.tag == IMP


def test_interval_h_arithmetic():
    m = build_interval_mesh(0, 2, 8, IMP, IMP)
    assert m.h == pytest.approx(0.25, rel=1e-15)


def test_interval_errors():
    with pytest.raises(InvalidArgumentError):
        build_interval_mesh(0, 1, 0, IMP, IMP)
    with pytest.raises(InvalidArgumentError):
        build_interval_mesh(1, 1, 4, IMP, IMP)


def test_rect_unit_square_split():
    m = build_rect_mesh(1, 1, 1, 1, IMP)
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert m.h == pytest.approx(math.sqrt(2), rel=1e-15)


def test_rect_counting():
    m = build_rect_mesh(1, 1, 2, 2, IMP)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert len(m.facets) == 2 * (2 + 2)


def test_rect_h_recomputed_from_coords():
    m = build_rect_mesh(2, 1, 4, 2, IMP)
    # independent recomputation: max pairwise node distance within elements
    diam = 0.0
    for el in m.elements:
        pts = m.coords[el]
        for i in range(3):
            for j in range(i + 1, 3):
                diam = max(diam, float(np.linalg.norm(pts[i] - pts[j])))
    assert m.h == pytest.approx(diam, rel=1e-15)
    assert m.h == pytest.approx(math.sqrt(2) * 0.5, rel=1e-15)


def test_rect_errors():
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(0, 1, 2, 2, IMP)
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(1, 1, 0, 2, IMP)
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(1, 1, 2, 2, {"left": IMP})


@pytest.mark.parametrize("a,b,n", [(0, 1, 7), (-2, 3.5, 13), (0.25, 0.75, 2)])
def test_interval_measure_sum(a, b, n):
    m = build_interval_mesh(a, b, n, IMP, IMP)
    assert m.element_measures().sum() == pytest.approx(b - a, rel=1e-12)
    assert np.all(m.element_measures() > 0)
    assert len(m.facets) == 2


@pytest.mark.parametrize("w,h,nx,ny", [(1, 1, 3, 5), (2.5, 0.5, 4, 2)])
def test_rect_measure_sum_and_facets(w, h, nx, ny):
    m = build_rect_mesh(w, h, nx, ny, IMP)
    assert m.element_measures().sum() == pytest.approx(w * h, rel=1e-12)
    assert np.all(m.element_measures() > 0)
    assert len(m.facets) == 2 * (nx + ny)
    assert m.h == pytest.approx(m.element_diameters().max(), rel=1e-15)


def test_facet_belongs_to_its_element():
    for m in (build_interval_mesh(0, 1, 5, IMP, DIR), build_rect_mesh(1, 2, 3, 4, IMP)):
        for f in m.facets:
            assert set(f.nodes) <= set(m.elements[f.element].tolist())


def test_rect_per_side_tags():
    tags = {"left": DIR, "right": IMP, "bottom": BoundaryTag.NEUMANN, "top": IMP}
    m = build_rect_mesh(1, 1, 2, 3, tags)
    for f in m.facets:
        pts = m.coords[list(f.nodes)]
        if np.all(pts[:, 0] == 0):
            assert f.tag == DIR
        elif np.all(pts[:, 1] == 0):
            assert f.tag == BoundaryTag.NEUMANN


def test_locate_elements_roundtrip():
    m1 = build_interval_mesh(0, 1, 4, IMP, IMP)
    cents = m1.element_centroids()
    assert np.array_equal(m1.locate_elements(cents), np.arange(4))
    m2 = build_rect_mesh(1, 1, 2, 2, IMP)
    assert np.array_equal(
        m2.locate_elements(m2.element_centroids()), np.arange(m2.n_elements)
    )


def test_rect_layout_listing():
    """Elements, facets and tags of a 3x3 grid, listed explicitly."""
    NEU = BoundaryTag.NEUMANN
    m = build_rect_mesh(1, 1, 3, 3, {"left": DIR, "right": IMP, "bottom": NEU, "top": IMP})
    assert m.elements.tolist() == [
        [0, 4, 5], [0, 5, 1], [1, 5, 6], [1, 6, 2], [2, 6, 7], [2, 7, 3],
        [4, 8, 9], [4, 9, 5], [5, 9, 10], [5, 10, 6], [6, 10, 11], [6, 11, 7],
        [8, 12, 13], [8, 13, 9], [9, 13, 14], [9, 14, 10], [10, 14, 15], [10, 15, 11],
    ]
    assert [(f.nodes, f.element, f.tag) for f in m.facets] == [
        ((0, 4), 0, NEU), ((1, 0), 1, DIR), ((2, 1), 3, DIR), ((7, 3), 5, IMP),
        ((3, 2), 5, DIR), ((4, 8), 6, NEU), ((11, 7), 11, IMP), ((8, 12), 12, NEU),
        ((12, 13), 12, IMP), ((13, 14), 14, IMP), ((14, 15), 16, IMP), ((15, 11), 17, IMP),
    ]
    assert m.nodes_with_tag(DIR).tolist() == [0, 1, 2, 3]
    assert m.nodes_with_tag(NEU).tolist() == [0, 4, 8, 12]
    assert m.nodes_with_tag(IMP).tolist() == [3, 7, 11, 12, 13, 14, 15]
    empty = build_rect_mesh(1, 1, 2, 2, IMP).nodes_with_tag(DIR)
    assert empty.size == 0 and empty.dtype == int


def locate_reference(mesh, points):
    """Element-by-element point location, O(n_elements * n_points).

    The bucketed search of ``Mesh.locate_elements`` must return exactly
    this: the same tolerance, the lowest passing element index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pts = mesh.coords[mesh.elements]
    out = np.full(points.shape[0], -1, dtype=int)
    tol = 1e-12 * max(mesh.h, 1.0)
    for e in range(mesh.n_elements):
        if np.all(out >= 0):
            break
        a, b, c = pts[e]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        rel = points - a
        l1 = ((c[1] - a[1]) * rel[:, 0] - (c[0] - a[0]) * rel[:, 1]) / det
        l2 = (-(b[1] - a[1]) * rel[:, 0] + (b[0] - a[0]) * rel[:, 1]) / det
        inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1 + tol) & (out < 0)
        out[inside] = e
    if np.any(out < 0):
        raise InvalidArgumentError("point outside mesh in locate_elements")
    return out


def assert_locates_as_reference(mesh, points):
    expected = locate_reference(mesh, points)
    assert np.array_equal(mesh.locate_elements(points), expected)


def nodes_and_edge_midpoints(mesh):
    e = mesh.elements
    mids = [0.5 * (mesh.coords[e[:, i]] + mesh.coords[e[:, j]])
            for i, j in ((0, 1), (1, 2), (2, 0))]
    return np.vstack([mesh.coords[np.unique(e)], *mids])


@pytest.mark.parametrize("n_fine", [40, 48, 96])
def test_locate_non_nested_refinement_matches_reference(n_fine):
    """Remesh 30x30 -> n_fine: many fine centroids lie on coarse grid lines."""
    coarse = build_rect_mesh(1, 1, 30, 30, IMP)
    fine = build_rect_mesh(1, 1, n_fine, n_fine, IMP)
    assert_locates_as_reference(coarse, fine.element_centroids())


def test_locate_nodes_and_edge_midpoints_match_reference():
    for m in (build_rect_mesh(1, 1, 30, 30, IMP), build_rect_mesh(2.5, 0.5, 7, 3, IMP)):
        assert_locates_as_reference(m, nodes_and_edge_midpoints(m))


@settings(max_examples=25, deadline=None)
@given(
    w=st.floats(0.05, 20.0),
    h=st.floats(0.05, 20.0),
    nx=st.integers(1, 9),
    ny=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_locate_rect_property(w, h, nx, ny, seed):
    m = build_rect_mesh(w, h, nx, ny, IMP)
    other = build_rect_mesh(w, h, nx + 1, 2 * ny + 1, IMP)
    random = np.random.default_rng(seed).uniform((0, 0), (w, h), (200, 2))
    points = np.vstack([
        nodes_and_edge_midpoints(m), m.element_centroids(), other.element_centroids(),
        random,
    ])
    assert_locates_as_reference(m, points)


def test_locate_tolerance_band_at_boundary():
    m = build_rect_mesh(2, 1, 4, 5, IMP)  # cells 0.5 x 0.2
    tol = 1e-12 * max(m.h, 1.0)
    xs = np.array([0.3, 1.1, 1.7])
    ys = np.array([0.1, 0.5, 0.9])
    for delta, located in ((0.1 * tol, True), (1e3 * tol, False)):
        points = np.vstack([
            np.column_stack([xs, np.full(3, -delta)]),
            np.column_stack([xs, np.full(3, 1 + delta)]),
            np.column_stack([np.full(3, -delta), ys]),
            np.column_stack([np.full(3, 2 + delta), ys]),
        ])
        if located:
            assert_locates_as_reference(m, points)
        else:
            for p in points:
                with pytest.raises(InvalidArgumentError):
                    locate_reference(m, p)
                with pytest.raises(InvalidArgumentError):
                    m.locate_elements(p)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_locate_tolerance_band_at_hole_edge(n):
    """Points in the hole of an L-shaped mesh, within tolerance of its edges.

    Their only containing elements start exactly at the hole's edge, which
    for some n lies on a bucket boundary (x = 0.5 with 8 buckets at n = 6).
    """
    grid = build_rect_mesh(1, 1, n, n, IMP)
    cents = grid.element_centroids()
    keep = ~((cents[:, 0] < 0.5) & (cents[:, 1] > 0.5))
    m = Mesh(2, grid.coords, grid.elements[keep], (), h=grid.h)
    tol = 1e-12 * max(m.h, 1.0)
    delta = 0.1 * tol / n
    s = np.linspace(0.55, 0.95, 9)
    inside = np.vstack([
        np.column_stack([np.full(9, 0.5 - delta), s]),
        np.column_stack([s - 0.5, np.full(9, 0.5 + delta)]),
    ])
    assert_locates_as_reference(m, inside)
    for y in s:
        with pytest.raises(InvalidArgumentError):
            m.locate_elements([0.5 - 1e3 * delta, y])


def test_locate_irregular_mesh_matches_reference():
    """Jittered interior nodes and an L-shaped hole, unrelated to any grid."""
    rng = np.random.default_rng(7)
    grid = build_rect_mesh(1, 1, 12, 12, IMP)
    coords = grid.coords.copy()
    interior = np.all((coords > 0) & (coords < 1), axis=1)
    coords[interior] += rng.uniform(-0.03, 0.03, (interior.sum(), 2))
    keep = ~np.all(grid.element_centroids() > 0.5, axis=1)
    elements = grid.elements[keep]
    pts = coords[elements]
    diam = max(float(np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max())
               for i, j in ((0, 1), (1, 2), (2, 0)))
    m = Mesh(2, coords, elements, (), h=diam)
    assert np.array_equal(m.locate_elements(m.element_centroids()), np.arange(m.n_elements))
    assert_locates_as_reference(m, nodes_and_edge_midpoints(m))
    random = rng.uniform(0, 1, (3000, 2))
    # The jitter moves the hole's edges by at most 0.03 off x, y = 0.5.
    assert_locates_as_reference(m, random[~np.all(random > 0.46, axis=1)])
    for p in random[np.all(random > 0.54, axis=1)][:20]:
        with pytest.raises(InvalidArgumentError):
            m.locate_elements(p)


@pytest.mark.parametrize("point", [[np.nan, 0.5], [np.inf, 0.5]])
def test_locate_non_finite_point_raises(point):
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(1, 1, 3, 3, IMP).locate_elements(point)


def test_locate_interval_ties_low_and_outside_raises():
    m = build_interval_mesh(0, 1, 4, IMP, IMP)
    tol = 1e-12
    x = [0.0, 0.25, 0.5, 0.6, 1.0, -0.5 * tol, 1 + 0.5 * tol]
    assert m.locate_elements(np.reshape(x, (-1, 1))).tolist() == [0, 0, 1, 2, 3, 0, 3]
    for bad in ([[-5.0]], [[7.0]], [[-2 * tol]], [[1 + 2 * tol]], [[np.nan]]):
        with pytest.raises(InvalidArgumentError):
            m.locate_elements(bad)


def test_locate_interval_elements_in_any_order():
    """1D elements are located by their own end points, not by the rank of
    the sorted node coordinates."""
    m = Mesh(1, np.array([[0.0], [0.5], [1.0]]), np.array([[1, 2], [0, 1]]), (), h=0.5)
    assert m.locate_elements([[0.25], [0.75]]).tolist() == [1, 0]
    assert m.locate_elements([[0.0], [0.5], [1.0]]).tolist() == [1, 0, 0]
    # shuffled elements with reversed node order and shuffled nodes
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(0, 1, 9))
    perm = rng.permutation(9)
    coords = xs[perm].reshape(-1, 1)
    node_of = np.argsort(perm)  # node index of the i-th smallest coordinate
    elements = np.column_stack([node_of[1:], node_of[:-1]])[rng.permutation(8)]
    m = Mesh(1, coords, elements, (), h=float(np.diff(xs).max()))
    mids = coords[elements].mean(axis=1)
    assert m.locate_elements(mids).tolist() == list(range(8))
    with pytest.raises(InvalidArgumentError):
        m.locate_elements([[xs[0] - 0.1]])
