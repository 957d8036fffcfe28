"""Structured meshes: uniform intervals and triangulated rectangles.

A mesh is its grid: the box corners ``lo`` and ``hi``, the number of
cells per axis and one boundary tag per side. In 1D the cells are the
elements; in 2D each rectangular cell is split into two right triangles.
Boundary facets (endpoints in 1D, edges in 2D) carry the tag of their
side, which decides the boundary treatment during assembly:

* DIRICHLET  - dof eliminated,
* IMPEDANCE  - lower-order boundary term assembled,
* NEUMANN    - natural condition, no boundary term.

Node ordering is lexicographic by coordinate, so mesh construction is
deterministic and suitable for golden tests. Refining every cell r times
per axis gives the nested mesh :meth:`Mesh.refined`, and point location
is cell arithmetic on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError


class BoundaryTag(Enum):
    DIRICHLET = "dirichlet"
    IMPEDANCE = "impedance"
    NEUMANN = "neumann"


# The sides of the box in the order of ``Mesh.tags``, per dimension.
SIDES = {1: ("left", "right"), 2: ("left", "right", "bottom", "top")}


@dataclass(frozen=True)
class Facet:
    """One boundary facet: its node indices, owning element, and tag."""

    nodes: tuple[int, ...]
    element: int
    tag: BoundaryTag


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable simplicial mesh of the box ``[lo, hi]`` with ``cells`` cells
    per axis: 1D segments or 2D triangles, two per cell.

    ``tags`` holds one boundary tag per side, in the order of ``SIDES``.
    The arrays are derived when the mesh is built: ``coords`` has shape
    (n_nodes, dim), ``elements`` shape (n_elements, dim + 1), ``facets``
    lists the boundary facets and ``h`` is the maximum element diameter.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]
    tags: tuple[BoundaryTag, ...]
    coords: np.ndarray = field(init=False, repr=False)
    elements: np.ndarray = field(init=False, repr=False)
    facets: tuple[Facet, ...] = field(init=False, repr=False)
    h: float = field(init=False)

    def __post_init__(self):
        if self.dimension == 1:
            derived = _interval_arrays(self.lo[0], self.hi[0], self.cells[0], *self.tags)
        else:
            derived = _rect_arrays(self.lo, self.hi, *self.cells, dict(zip(SIDES[2], self.tags)))
        for name, value in zip(("coords", "elements", "facets", "h"), derived):
            object.__setattr__(self, name, value)
        self.coords.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def refined(self, r: int) -> "Mesh":
        """The nested refinement: every cell split into r cells per axis."""
        if r < 1:
            raise InvalidArgumentError(f"refinement factor must be >= 1, got {r}")
        return Mesh(self.lo, self.hi, tuple(r * c for c in self.cells), self.tags)

    def element_centroids(self) -> np.ndarray:
        return self.coords[self.elements].mean(axis=1)

    def nodes_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Sorted indices of all nodes lying on facets with the given tag."""
        nodes = [n for f in self.facets if f.tag == tag for n in f.nodes]
        return np.unique(np.array(nodes, dtype=int))

    def locate_elements(self, points: np.ndarray) -> np.ndarray:
        """Element index containing each query point (ties broken low).

        Used to re-sample piecewise-constant data onto a refined mesh. A
        point belongs to an element when it lies in it up to the tolerance
        ``tol = 1e-12 * max(h, 1)``: in 1D within ``tol`` of its end
        points, in 2D with barycentric coordinates ``l1, l2 >= -tol`` and
        ``l1 + l2 <= 1 + tol``. A point in several elements (on a shared
        node or edge) gets the lowest of their indices.

        Only the elements of two candidate cells per axis are tested: the
        point's own cell and its neighbour across the nearer cell edge.
        Every element that can hold the point lies in one of them, as
        ``tol`` is far below half a cell width.

        Raises ``InvalidArgumentError`` for a point that no element
        contains (also a non-finite one).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        tol = 1e-12 * max(self.h, 1.0)
        cells = np.array(self.cells)
        u = (points - self.lo) * cells / np.subtract(self.hi, self.lo)
        near = np.clip(np.floor(u - 0.5), -1, cells - 1).astype(int)
        cand = np.clip(np.stack([near, near + 1]), 0, cells - 1)  # (2, points, dim)
        if self.dimension == 1:
            e = cand[..., 0]
            x, nodes = points[:, 0], self.coords[:, 0]
            inside = (nodes[e] <= x + tol) & (x <= nodes[e + 1] + tol)
        else:
            cell = cand[:, None, :, 0] * self.cells[1] + cand[None, :, :, 1]
            # the lower-right (2 * cell) and upper-left (2 * cell + 1) triangle
            e = (2 * cell[:, :, None] + np.arange(2)[:, None]).reshape(8, -1)
            # Barycentric coordinates with the operations, in order, of the
            # element-by-element reference loop in tests/test_mesh.py, so l1
            # and l2 are bit-equal to it.
            pts = self.coords[self.elements]
            ab = pts[:, 1] - pts[:, 0]
            ac = pts[:, 2] - pts[:, 0]
            det = (ab[:, 0] * ac[:, 1] - ac[:, 0] * ab[:, 1])[e]
            ab, ac = ab[e], ac[e]
            rel = points - pts[e, 0]
            l1 = (ac[..., 1] * rel[..., 0] - ac[..., 0] * rel[..., 1]) / det
            l2 = (-ab[..., 1] * rel[..., 0] + ab[..., 0] * rel[..., 1]) / det
            inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1 + tol)
        found = np.where(inside, e, self.n_elements).min(axis=0)
        if np.any(found == self.n_elements):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        return found


def _interval_arrays(a: float, b: float, n: int, left_tag, right_tag):
    """Coordinates, elements, facets and h of the uniform mesh of [a, b]."""
    coords = np.linspace(a, b, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = (
        Facet(nodes=(0,), element=0, tag=left_tag),
        Facet(nodes=(n,), element=n - 1, tag=right_tag),
    )
    return coords, elements, facets, (b - a) / n


def _rect_arrays(lo, hi, nx: int, ny: int, side_tags: dict):
    """Coordinates, elements, facets and h of the triangulated box."""
    dx, dy = (hi[0] - lo[0]) / nx, (hi[1] - lo[1]) / ny

    # Lexicographic by (x, y): node (ix, iy) -> ix*(ny+1) + iy.
    def nid(ix, iy):
        return ix * (ny + 1) + iy

    xs = np.repeat(lo[0] + np.arange(nx + 1) * dx, ny + 1)
    ys = np.tile(lo[1] + np.arange(ny + 1) * dy, nx + 1)
    coords = np.column_stack([xs, ys])

    # Per cell (ix, iy), in lexicographic order: the lower-right triangle
    # (ll, lr, ur), then the upper-left one (ll, ur, ul), both CCW.
    ll = nid(*np.divmod(np.arange(nx * ny), ny))
    lr, ul = ll + ny + 1, ll + 1
    ur = lr + 1
    elements = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)

    facets = []
    for ix in range(nx):
        rows = range(ny) if ix in (0, nx - 1) else sorted({0, ny - 1})
        for iy in rows:
            ll, lr = nid(ix, iy), nid(ix + 1, iy)
            ul, ur = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            lower = 2 * (ix * ny + iy)
            upper = lower + 1
            if iy == 0:
                facets.append(Facet((ll, lr), lower, side_tags["bottom"]))
            if ix == nx - 1:
                facets.append(Facet((lr, ur), lower, side_tags["right"]))
            if iy == ny - 1:
                facets.append(Facet((ur, ul), upper, side_tags["top"]))
            if ix == 0:
                facets.append(Facet((ul, ll), upper, side_tags["left"]))
    return coords, elements, tuple(facets), math.hypot(dx, dy)


def build_interval_mesh(
    a: float,
    b: float,
    n: int,
    left_tag: BoundaryTag,
    right_tag: BoundaryTag,
) -> Mesh:
    """Uniform mesh of [a, b] with n elements and tagged endpoints."""
    if n < 1:
        raise InvalidArgumentError(f"element count must be >= 1, got {n}")
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got a={a}, b={b}")
    return Mesh((a,), (b,), (n,), (left_tag, right_tag))


def build_rect_mesh(
    width: float,
    height: float,
    nx: int,
    ny: int,
    tags: BoundaryTag | dict[str, BoundaryTag],
) -> Mesh:
    """Triangulated [0,width] x [0,height], two right triangles per cell.

    ``tags`` is a single tag for all four sides or a dict with keys
    'left', 'right', 'bottom', 'top'.
    """
    if width <= 0 or height <= 0:
        raise InvalidArgumentError("width and height must be positive")
    if nx < 1 or ny < 1:
        raise InvalidArgumentError("nx and ny must be >= 1")
    if isinstance(tags, BoundaryTag):
        tags = dict.fromkeys(SIDES[2], tags)
    missing = set(SIDES[2]) - set(tags)
    if missing:
        raise InvalidArgumentError(f"missing side tags: {sorted(missing)}")
    return Mesh((0.0, 0.0), (width, height), (nx, ny), tuple(tags[s] for s in SIDES[2]))
