import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_oracle import element_measures, side_facets

from helmprec.errors import InvalidArgumentError
from helmprec.io import build_mesh
from helmprec.mesh import BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

IMP = BoundaryTag.IMPEDANCE
DIR = BoundaryTag.DIRICHLET
NEU = BoundaryTag.NEUMANN


def n_facets(mesh):
    return sum(len(mesh.facets_with_tag(tag)) for tag in BoundaryTag)


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
    assert m.facets_with_tag(DIR).tolist() == [[0]]
    assert m.facets_with_tag(IMP).tolist() == [[4]]
    assert m.facets_with_tag(NEU).shape == (0, 1)


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
    assert n_facets(m) == len(m.facets_with_tag(IMP)) == 2 * (2 + 2)


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


@pytest.mark.parametrize("build", [
    lambda: build_rect_mesh(math.nan, 1, 3, 3, IMP),
    lambda: build_rect_mesh(1, math.inf, 3, 3, IMP),
    lambda: build_rect_mesh(-1, 1, 3, 3, IMP),
    lambda: build_rect_mesh(1, 1, 3, 2.5, IMP),
    lambda: build_rect_mesh(1, 1, True, 3, IMP),
    lambda: build_interval_mesh(0, math.inf, 4, IMP, IMP),
    lambda: build_interval_mesh(-math.inf, 0, 4, IMP, IMP),
    lambda: build_interval_mesh(math.nan, 1, 4, IMP, IMP),
    lambda: build_interval_mesh(1, 0, 4, IMP, IMP),
    lambda: build_interval_mesh(0, 1, 4.0, IMP, IMP),
    lambda: Mesh((0.0,), (1.0,), (0,), (IMP, IMP)),
    lambda: Mesh((0.0,), (1.0,), (4,), (IMP,)),
    lambda: Mesh((0.0, 0.0), (1.0,), (4, 4), (IMP,) * 4),
    lambda: Mesh((0.0,) * 3, (1.0,) * 3, (2, 2, 2), (IMP,) * 6),
    lambda: Mesh((-1e308,), (1e308,), (2,), (IMP, IMP)),
    lambda: Mesh((0.0, -1e308), (1.0, 1e308), (2, 2), (IMP,) * 4),
], ids=["nan_width", "inf_height", "negative_width", "float_cells", "bool_cells", "inf_hi",
        "inf_lo", "nan_lo", "lo_above_hi", "float_count", "zero_cells", "one_tag_1d",
        "short_hi", "three_axes", "width_overflows", "height_overflows"])
def test_mesh_rejects_a_box_that_is_not_finite_or_a_bad_grid(build):
    with pytest.raises(InvalidArgumentError):
        build()


@pytest.mark.parametrize("r", [0, -1, 2.0, True, False, None])
def test_refined_rejects_a_non_integer_factor(r):
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(1, 1, 2, 2, IMP).refined(r)


def test_refined_accepts_a_numpy_integer():
    assert build_rect_mesh(1, 1, 2, 3, IMP).refined(np.int64(2)).cells == (4, 6)


@pytest.mark.parametrize("a,b,n", [(0, 1, 7), (-2, 3.5, 13), (0.25, 0.75, 2)])
def test_interval_measure_sum(a, b, n):
    m = build_interval_mesh(a, b, n, IMP, IMP)
    assert element_measures(m).sum() == pytest.approx(b - a, rel=1e-12)
    assert np.all(element_measures(m) > 0)
    assert n_facets(m) == 2


@pytest.mark.parametrize("w,h,nx,ny", [(1, 1, 3, 5), (2.5, 0.5, 4, 2)])
def test_rect_measure_sum_and_facets(w, h, nx, ny):
    m = build_rect_mesh(w, h, nx, ny, IMP)
    assert element_measures(m).sum() == pytest.approx(w * h, rel=1e-12)
    assert np.all(element_measures(m) > 0)
    assert n_facets(m) == 2 * (nx + ny)
    pts = m.coords[m.elements]
    diam = max(np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max()
               for i, j in ((0, 1), (1, 2), (2, 0)))
    assert m.h == pytest.approx(diam, rel=1e-15)


def test_facet_is_an_edge_of_exactly_one_element():
    """A facet is a face of exactly one element: in 1D an end point of one
    segment, in 2D an edge of one triangle."""
    for m in (build_interval_mesh(0, 1, 5, IMP, DIR), build_interval_mesh(0, 1, 1, IMP, IMP),
              build_rect_mesh(1, 2, 3, 4, IMP), build_rect_mesh(1, 1, 1, 1, IMP)):
        facets = np.concatenate([m.facets_with_tag(tag) for tag in BoundaryTag])
        assert len(facets) == n_facets(m)
        for f in facets:
            owners = [e for e in m.elements.tolist() if set(f.tolist()) <= set(e)]
            assert len(owners) == 1, f


def test_rect_per_side_tags():
    """Each tag's facets are those that the coordinates of the element edges
    put on the sides with that tag."""
    for m in (
        build_interval_mesh(-1, 2, 7, DIR, IMP),
        build_interval_mesh(0, 1, 3, NEU, NEU),
        build_rect_mesh(1, 1, 2, 3, {"left": DIR, "right": IMP, "bottom": NEU, "top": IMP}),
        build_rect_mesh(2.5, 0.7, 5, 3, {"left": IMP, "right": NEU, "bottom": DIR, "top": DIR}),
    ):
        for tag in BoundaryTag:
            facets = m.facets_with_tag(tag)
            assert facets.shape[1] == m.dimension and facets.dtype == int
            expected = side_facets(m, tag.value)
            assert sorted(map(sorted, facets.tolist())) == sorted(map(sorted, expected.tolist()))


def test_locate_elements_roundtrip():
    m1 = build_interval_mesh(0, 1, 4, IMP, IMP)
    cents = m1.element_centroids()
    assert np.array_equal(m1.locate_elements(cents), np.arange(4))
    m2 = build_rect_mesh(1, 1, 2, 2, IMP)
    assert np.array_equal(
        m2.locate_elements(m2.element_centroids()), np.arange(m2.n_elements)
    )


def test_locate_flat_points():
    """A flat array is P points on a 1D mesh and one point on a 2D mesh."""
    line = build_interval_mesh(0, 1, 4, IMP, IMP)
    assert line.locate_elements([0.3, 0.6]).tolist() == [1, 2]
    assert line.locate_elements([0.3]).tolist() == [1]
    square = build_rect_mesh(1, 1, 2, 2, IMP)
    assert square.locate_elements([0.3, 0.6]).tolist() == [2]
    assert square.locate_elements(np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("dimension,points", [
    (2, [0.5]),
    (2, [[0.5]]),
    (2, [0.2, 0.3, 0.4]),
    (2, [[0.2, 0.3, 0.4]]),
    (2, [0.2, 0.3, 0.4, 0.5]),
    (2, 0.5),
    (2, [[[0.2, 0.3]]]),
    (1, [[0.3, 0.6]]),
    (1, 0.5),
], ids=["2d_one_coord", "2d_one_coord_row", "2d_three_coords", "2d_three_coords_row",
        "2d_two_flat_points", "2d_scalar", "2d_3d_array", "1d_two_coords_row", "1d_scalar"])
def test_locate_points_of_the_wrong_shape_raise(dimension, points):
    mesh = (build_interval_mesh(0, 1, 4, IMP, IMP) if dimension == 1
            else build_rect_mesh(1, 1, 4, 4, IMP))
    with pytest.raises(InvalidArgumentError, match="shape"):
        mesh.locate_elements(points)


def test_rect_layout_listing():
    """Elements and the facets of each tag of a 3x3 grid, listed explicitly:
    the sides left, right, bottom and top in turn, each along its axis."""
    m = build_rect_mesh(1, 1, 3, 3, {"left": DIR, "right": IMP, "bottom": NEU, "top": IMP})
    assert m.elements.tolist() == [
        [0, 4, 5], [0, 5, 1], [1, 5, 6], [1, 6, 2], [2, 6, 7], [2, 7, 3],
        [4, 8, 9], [4, 9, 5], [5, 9, 10], [5, 10, 6], [6, 10, 11], [6, 11, 7],
        [8, 12, 13], [8, 13, 9], [9, 13, 14], [9, 14, 10], [10, 14, 15], [10, 15, 11],
    ]
    assert m.facets_with_tag(DIR).tolist() == [[0, 1], [1, 2], [2, 3]]
    assert m.facets_with_tag(NEU).tolist() == [[0, 4], [4, 8], [8, 12]]
    assert m.facets_with_tag(IMP).tolist() == [
        [12, 13], [13, 14], [14, 15], [3, 7], [7, 11], [11, 15]]
    assert np.unique(m.facets_with_tag(IMP)).tolist() == [3, 7, 11, 12, 13, 14, 15]
    empty = build_rect_mesh(1, 1, 2, 2, IMP).facets_with_tag(DIR)
    assert empty.shape == (0, 2) and empty.dtype == int


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


def test_locate_near_grid_lines_far_from_the_origin():
    """Far from the origin the rounding of coordinates exceeds the tolerance:
    points a few ulps from an interior node or grid line locate as the
    element-by-element tests do."""
    line = build_interval_mesh(3e5, 3e5 + 0.7, 7, IMP, IMP)
    tol = 1e-12 * max(line.h, 1.0)
    nodes = line.coords[:, 0]
    ulps = np.arange(-64, 65) * np.spacing(3e5)
    x = (nodes[1:-1, None] + ulps).ravel()
    expected = [min(e for e in range(7) if nodes[e] <= xi + tol and xi <= nodes[e + 1] + tol)
                for xi in x]
    assert line.locate_elements(x[:, None]).tolist() == expected

    box = Mesh((1e5, -3e5), (1e5 + 0.7, -3e5 + 0.3), (7, 3), (IMP,) * 4)
    xs, ys = np.unique(box.coords[:, 0])[1:-1], np.unique(box.coords[:, 1])[1:-1]
    ulps = np.arange(-64, 65, 4) * np.spacing(3e5)
    points = np.vstack(
        [np.column_stack([x + ulps, np.full(len(ulps), ys[0] + 0.02)]) for x in xs]
        + [np.column_stack([np.full(len(ulps), xs[2] + 0.06), y + ulps]) for y in ys]
    )
    assert_locates_as_reference(box, points)


@pytest.mark.parametrize("point", [[np.nan, 0.5], [np.inf, 0.5]])
def test_locate_non_finite_point_raises(point):
    with pytest.raises(InvalidArgumentError):
        build_rect_mesh(1, 1, 3, 3, IMP).locate_elements(point)


@pytest.mark.parametrize("dimension,point", [
    (2, [1e308, 0.5]), (2, [-1e308, -1e308]), (2, [0.5, 1.7e308]), (1, [1e308]), (1, [-1e308]),
])
def test_locate_a_point_far_outside_raises_without_a_warning(dimension, point):
    """The cell arithmetic of a point this far out overflows; that is the
    error, not a RuntimeWarning."""
    if dimension == 1:
        mesh = build_interval_mesh(0, 1, 30, IMP, IMP)
    else:
        mesh = build_rect_mesh(1, 1, 30, 30, IMP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="point outside mesh"):
            mesh.locate_elements([point])


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
    """``refined(r)`` is the mesh of r times the cell counts."""
    coarse = build_mesh(dict(problem, resolution={"type": "per_k", "factor": 1.0}))
    fine = coarse.refined(r)
    expected = build_mesh(dict(problem, resolution={"type": "per_k", "factor": float(r)}))
    assert fine.cells == tuple(r * c for c in coarse.cells) == expected.cells
    assert np.array_equal(fine.coords, expected.coords)
    assert np.array_equal(fine.elements, expected.elements)
    for tag in BoundaryTag:
        assert np.array_equal(fine.facets_with_tag(tag), expected.facets_with_tag(tag))
    assert fine.h == expected.h


def nested_parent(coarse, r):
    """The coarse element holding each element of ``coarse.refined(r)``, by
    index arithmetic: in 1D element i lies in i // r; in 2D the element of
    fine cell (ix, iy) lies in coarse cell (ix // r, iy // r), in the
    triangle on its centroid's side of that cell's diagonal."""
    e = np.arange(r ** coarse.dimension * coarse.n_elements)
    if coarse.dimension == 1:
        return e // r
    ix, iy = np.divmod(e // 2, r * coarse.cells[1])
    cell = (ix // r) * coarse.cells[1] + iy // r
    # in thirds of a fine cell, the centroid's offset from the coarse
    # cell's corner: the lower-right triangle's is (2, 1), the other's (1, 2)
    lower = e % 2 == 0
    x3 = 3 * (ix % r) + np.where(lower, 2, 1)
    y3 = 3 * (iy % r) + np.where(lower, 1, 2)
    return 2 * cell + (y3 > x3)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("coarse", [
    build_interval_mesh(-1, 2, 7, DIR, IMP),
    build_rect_mesh(1, 1, 4, 4, IMP),
    build_rect_mesh(2, 1, 5, 3, IMP),
], ids=["1d", "square", "non-square"])
def test_locate_refined_centroids_gives_the_nested_parent(coarse, r):
    """Locating the centroids of the nested refinement gives each fine
    element's arithmetic parent."""
    fine = coarse.refined(r)
    assert np.array_equal(coarse.locate_elements(fine.element_centroids()),
                          nested_parent(coarse, r))


def test_locate_allocates_little_per_point():
    """Cell arithmetic places the 18,432 centroids of a 48 x 48 mesh refined
    twice in a few arrays of one or two values per point; testing 8
    candidate triangles per point takes over 800 bytes per point."""
    coarse = build_rect_mesh(1, 1, 48, 48, IMP)
    points = coarse.refined(2).element_centroids()
    tracemalloc.start()
    try:
        found = coarse.locate_elements(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(found, nested_parent(coarse, 2))
    assert peak / len(points) < 256


def test_locate_tolerance_band_on_a_wide_mesh():
    """On a mesh with h >> 1 the tolerance 1e-12 * h is far above any fixed
    margin: points within it of an interior grid line or a diagonal, and
    points just beyond it, locate as the element-by-element reference."""
    m = build_rect_mesh(1e6, 4e5, 4, 5, IMP)  # cells 2.5e5 x 8e4
    tol = 1e-12 * m.h  # in barycentric coordinates, i.e. in cell widths
    dx, dy = 1e6 / 4, 4e5 / 5
    s = np.array([0.3, 0.55, 0.8])
    points = []
    for d in (-2 * tol, -0.5 * tol, 0.5 * tol, 2 * tol):
        for i in (1, 2, 3):  # interior vertical lines
            points.append(np.column_stack([np.full(3, (i + d) * dx), (1 + s) * dy]))
        for j in (1, 2, 4):  # interior horizontal lines
            points.append(np.column_stack([(2 + s) * dx, np.full(3, (j + d) * dy)]))
        for i, j in ((0, 0), (1, 3), (3, 2)):  # diagonals
            points.append(np.column_stack([(i + s) * dx, (j + s + d) * dy]))
    assert_locates_as_reference(m, np.vstack(points))
