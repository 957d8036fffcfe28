import math
import tracemalloc

import numpy as np
import pytest

from assembly_oracle import element_measures, side_facets
from conftest import nested_parent

from helmprec.errors import InvalidArgumentError
from helmprec.io import build_mesh
from helmprec.mesh import MAX_INDEX, BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

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


@pytest.mark.parametrize("build,nodes", [
    (lambda: Mesh((0.0,), (1.0,), (MAX_INDEX,), (IMP, IMP)), "2.15e+9"),
    (lambda: build_rect_mesh(1, 1, 46340, 46340, IMP), "2.15e+9"),
    (lambda: build_interval_mesh(0, 1, 60, IMP, IMP).refined(10 ** 14), "6.00e+15"),
    (lambda: build_rect_mesh(1, 1, 10 ** 300, 10 ** 300, IMP), "1.00e+600"),
], ids=["1d_one_above", "2d_one_row_above", "1d_refined", "2d_huge"])
def test_mesh_of_more_nodes_than_superlu_indexes_raises_before_allocating(build, nodes):
    """SuperLU indexes with C ints, so a mesh has at most MAX_INDEX nodes; a
    larger one is refused, its count in short form, before any array."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"a mesh of {nodes} nodes exceeds SuperLU's limit of 2147483647"
    assert peak < 1 << 16


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
    """A mesh is its own nested refinement, r = 1: each element holds itself."""
    for m in (build_interval_mesh(0, 1, 4, IMP, IMP), build_rect_mesh(1, 1, 2, 2, IMP)):
        assert np.array_equal(m.locate_elements(m.refined(1)), np.arange(m.n_elements))


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
    """The lowest-index element containing each point, tested element by
    element: in 1D the interval between its nodes, in 2D its barycentric
    coordinates."""
    pts = mesh.coords[mesh.elements]
    out = np.full(points.shape[0], -1, dtype=int)
    for e in range(mesh.n_elements):
        if mesh.dimension == 1:
            inside = (pts[e, 0, 0] <= points[:, 0]) & (points[:, 0] <= pts[e, 1, 0])
        else:
            a, b, c = pts[e]
            det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            rel = points - a
            l1 = ((c[1] - a[1]) * rel[:, 0] - (c[0] - a[0]) * rel[:, 1]) / det
            l2 = (-(b[1] - a[1]) * rel[:, 0] + (b[0] - a[0]) * rel[:, 1]) / det
            inside = (l1 >= 0) & (l2 >= 0) & (l1 + l2 <= 1)
        out[inside & (out < 0)] = e
    assert np.all(out >= 0)
    return out


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


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("coarse", [
    build_interval_mesh(-1, 2, 7, DIR, IMP),
    build_rect_mesh(1, 1, 4, 4, IMP),
    build_rect_mesh(2, 1, 5, 3, IMP),
], ids=["1d", "square", "non-square"])
def test_locate_refined_centroids_gives_the_nested_parent(coarse, r):
    """The parent map of the nested refinement is each fine element's
    arithmetic parent, and the element that contains its centroid."""
    fine = coarse.refined(r)
    parent = coarse.locate_elements(fine)
    assert np.array_equal(parent, nested_parent(coarse, r))
    assert np.array_equal(parent, locate_reference(coarse, fine.element_centroids()))


@pytest.mark.parametrize("coarse,fine", [
    (build_interval_mesh(0, 1, 4, IMP, IMP), build_interval_mesh(0.5, 1.5, 8, IMP, IMP)),
    (build_rect_mesh(1, 1, 4, 4, IMP), build_rect_mesh(2, 1, 8, 8, IMP)),
    (build_interval_mesh(0, 1, 4, IMP, IMP), build_interval_mesh(0, 1, 6, IMP, IMP)),
    (build_rect_mesh(1, 1, 30, 30, IMP), build_rect_mesh(1, 1, 40, 40, IMP)),
    (build_rect_mesh(1, 1, 4, 4, IMP), build_rect_mesh(1, 1, 8, 12, IMP)),
    (build_rect_mesh(1, 1, 8, 8, IMP), build_rect_mesh(1, 1, 4, 4, IMP)),
    (build_interval_mesh(0, 1, 4, IMP, IMP), build_rect_mesh(1, 1, 8, 8, IMP)),
    (build_rect_mesh(1, 1, 4, 4, IMP), build_interval_mesh(0, 1, 8, IMP, IMP)),
], ids=["1d_other_box", "2d_other_box", "1d_4_to_6", "30x30_to_40x40", "4x4_to_8x12",
        "coarser", "1d_in_2d", "2d_in_1d"])
def test_locate_a_mesh_that_is_not_a_nested_refinement_raises(coarse, fine):
    with pytest.raises(InvalidArgumentError, match="nested refinement"):
        coarse.locate_elements(fine)


def test_locate_allocates_little_per_point():
    """The parent map of the 18,432 elements of a 48 x 48 mesh refined twice
    takes a few index arrays of one value per element; testing 8 candidate
    triangles per element would take over 800 bytes per element."""
    coarse = build_rect_mesh(1, 1, 48, 48, IMP)
    fine = coarse.refined(2)
    tracemalloc.start()
    try:
        found = coarse.locate_elements(fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(found, nested_parent(coarse, 2))
    assert peak / fine.n_elements < 256
