import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_oracle import element_measures

from helmprec.errors import InvalidArgumentError
from helmprec.io import build_mesh
from helmprec.mesh import BoundaryTag, build_interval_mesh, build_rect_mesh

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
    assert element_measures(m).sum() == pytest.approx(b - a, rel=1e-12)
    assert np.all(element_measures(m) > 0)
    assert len(m.facets) == 2


@pytest.mark.parametrize("w,h,nx,ny", [(1, 1, 3, 5), (2.5, 0.5, 4, 2)])
def test_rect_measure_sum_and_facets(w, h, nx, ny):
    m = build_rect_mesh(w, h, nx, ny, IMP)
    assert element_measures(m).sum() == pytest.approx(w * h, rel=1e-12)
    assert np.all(element_measures(m) > 0)
    assert len(m.facets) == 2 * (nx + ny)
    pts = m.coords[m.elements]
    diam = max(np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max()
               for i, j in ((0, 1), (1, 2), (2, 0)))
    assert m.h == pytest.approx(diam, rel=1e-15)


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

    The cell search of ``Mesh.locate_elements`` must return exactly this:
    the same tolerance, the lowest passing element index.
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
def test_locate_tolerance_band_at_interior_grid_lines(n):
    """A point within tolerance of the grid line between two cells lies in
    the elements of both; the lower index wins, on either side of the line."""
    m = build_rect_mesh(1, 1, n, n, IMP)
    delta = 0.1 * 1e-12 * max(m.h, 1.0) / n
    s = np.linspace(0.05, 0.95, 10)
    points = np.vstack(
        [np.column_stack([np.full(10, 0.5 + d), s]) for d in (-delta, delta)]
        + [np.column_stack([s, np.full(10, 0.5 + d)]) for d in (-delta, delta)]
    )
    assert_locates_as_reference(m, points)
    line = build_interval_mesh(0, 1, n, IMP, IMP)
    nodes = line.coords[1:-1, 0]
    for d in (-delta, delta):
        located = line.locate_elements((nodes + d).reshape(-1, 1))
        assert located.tolist() == list(range(n - 1))


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


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("problem", [
    {"dimension": 1, "domain": [0.5, 2.0], "k": 2.0,
     "boundary": {"left": "dirichlet", "right": "impedance"}},
    {"dimension": 2, "domain": [1.0, 1.0], "k": 3.0,
     "boundary": {"left": "dirichlet", "right": "impedance", "bottom": "neumann",
                  "top": "impedance"}},
    {"dimension": 2, "domain": [2.0, 1.0], "k": 3.0,
     "boundary": dict.fromkeys(("left", "right", "bottom", "top"), "impedance")},
], ids=["1d", "square", "non-square"])
def test_refined_is_the_nested_mesh(problem, r):
    """``refined(r)`` is the mesh of r times the cell counts, and each fine
    element lies in the coarse element its cell and diagonal side give."""
    coarse = build_mesh(dict(problem, resolution={"type": "per_k", "factor": 1.0}))
    fine = coarse.refined(r)
    expected = build_mesh(dict(problem, resolution={"type": "per_k", "factor": float(r)}))
    assert fine.cells == tuple(r * c for c in coarse.cells) == expected.cells
    assert np.array_equal(fine.coords, expected.coords)
    assert np.array_equal(fine.elements, expected.elements)
    assert fine.facets == expected.facets
    assert fine.h == expected.h

    e = np.arange(fine.n_elements)
    if coarse.dimension == 1:
        parent = e // r
    else:
        ny = fine.cells[1]
        ix, iy = np.divmod(e // 2, ny)
        cell = (ix // r) * coarse.cells[1] + iy // r
        # in thirds of a fine cell, the centroid's offset from the coarse
        # cell's corner: the lower-right triangle's is (2, 1), the other's (1, 2)
        lower = e % 2 == 0
        x3 = 3 * (ix % r) + np.where(lower, 2, 1)
        y3 = 3 * (iy % r) + np.where(lower, 1, 2)
        parent = 2 * cell + (y3 > x3)
    assert np.array_equal(coarse.locate_elements(fine.element_centroids()), parent)
