"""Structured meshes: uniform intervals and triangulated rectangles.

A mesh is its grid: the box corners ``lo`` and ``hi``, the number of
cells per axis and one boundary tag per side. In 1D the cells are the
elements; in 2D each rectangular cell is split into two right triangles.
The boundary facets (end points in 1D, edges in 2D) are the sides of the
node grid, and the tag of its side decides a facet's treatment during
assembly (:meth:`Mesh.facets_with_tag`):

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
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError


class BoundaryTag(Enum):
    DIRICHLET = "dirichlet"
    IMPEDANCE = "impedance"
    NEUMANN = "neumann"


# The sides of the box in the order of ``Mesh.tags``, per dimension.
SIDES = {1: ("left", "right"), 2: ("left", "right", "bottom", "top")}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable simplicial mesh of the box ``[lo, hi]`` with ``cells`` cells
    per axis: 1D segments or 2D triangles, two per cell.

    ``tags`` holds one boundary tag per side, in the order of ``SIDES``.
    The arrays are derived when the mesh is built: ``coords`` has shape
    (n_nodes, dim), ``elements`` shape (n_elements, dim + 1) and ``h`` is
    the maximum element diameter.

    Raises ``InvalidArgumentError`` unless the mesh has 1 or 2 axes, each
    with ``lo < hi``, a finite width ``hi - lo`` and a cell count that is
    an integer >= 1, and one tag per side.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]
    tags: tuple[BoundaryTag, ...]
    coords: np.ndarray = field(init=False, repr=False)
    elements: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)

    def __post_init__(self):
        d = self.dimension
        if d not in SIDES or not len(self.lo) == len(self.hi) == d or len(self.tags) != 2 * d:
            raise InvalidArgumentError(
                f"need 1 or 2 axes with lo, hi, cells per axis and a tag per side, got "
                f"lo={self.lo}, hi={self.hi}, cells={self.cells}, {len(self.tags)} tags"
            )
        # float() first: a numpy difference that overflows warns
        if not all(a < b and math.isfinite(float(b) - float(a))
                   for a, b in zip(self.lo, self.hi)):
            raise InvalidArgumentError(
                f"need lo < hi with a finite width hi - lo, got lo={self.lo}, hi={self.hi}")
        if not all(_is_count(c) for c in self.cells):
            raise InvalidArgumentError(f"cell counts must be integers >= 1, got {self.cells}")
        if d == 1:
            derived = _interval_arrays(self.lo[0], self.hi[0], self.cells[0])
        else:
            derived = _rect_arrays(self.lo, self.hi, *self.cells)
        for name, value in zip(("coords", "elements", "h"), derived):
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
        if not _is_count(r):
            raise InvalidArgumentError(f"refinement factor must be an integer >= 1, got {r}")
        return Mesh(self.lo, self.hi, tuple(r * c for c in self.cells), self.tags)

    def element_centroids(self) -> np.ndarray:
        return self.coords[self.elements].mean(axis=1)

    def facets_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Node indices of the boundary facets on the sides tagged ``tag``,
        shape (facets, dimension), side by side in the order of ``SIDES``.

        The sides are those of the node grid: left and right are its first
        and last row, bottom and top its first and last column, and in 1D
        they are its two end points.
        """
        d = self.dimension
        grid = np.arange(self.n_nodes).reshape([c + 1 for c in self.cells])
        sides = (grid[:1], grid[-1:]) if d == 1 else (grid[0], grid[-1], grid[:, 0], grid[:, -1])
        facets = [sliding_window_view(s, d) for s, t in zip(sides, self.tags) if t == tag]
        return np.concatenate([np.empty((0, d), dtype=int), *facets])

    # a point far outside the box overflows the cell arithmetic to inf or
    # nan, which no containment test accepts
    @np.errstate(over="ignore", invalid="ignore")
    def locate_elements(self, points: np.ndarray) -> np.ndarray:
        """Element index containing each query point (ties broken low).

        Used to re-sample piecewise-constant data onto a refined mesh.
        ``points`` has shape (P, dimension); a flat array is P points on a
        1D mesh and one point on a 2D mesh. Any other shape raises
        ``InvalidArgumentError``.

        A point belongs to an element when it lies in it up to the tolerance
        ``tol = 1e-12 * max(h, 1)``: in 1D within ``tol`` of its end
        points, in 2D with barycentric coordinates ``l1, l2 >= -tol`` and
        ``l1 + l2 <= 1 + tol``. A point in several elements (on a shared
        node or edge) gets the lowest of their indices.

        Cell arithmetic places each point: its cell is
        ``floor((p - lo) * cells / (hi - lo))``, and in 2D the side of the
        cell's diagonal picks the triangle. That element is the answer when
        the point's offset in its cell keeps a margin from the cell's edges
        and diagonal: four times ``tol`` (in cell widths) plus a bound on
        the rounding of both the offset and the containment test, so no
        other element can hold the point. Only the rest (points near a
        cell edge or the diagonal, or outside the mesh) have candidate
        elements tested one by one (:meth:`_search`).

        Raises ``InvalidArgumentError`` for a point that no element
        contains (also a non-finite one, or one so far out that the cell
        arithmetic overflows).
        """
        d = self.dimension
        points = np.asarray(points, dtype=float)
        if points.ndim == 1 and (d == 1 or points.size == d):
            points = points.reshape(-1, d)
        if points.ndim != 2 or points.shape[1] != d:
            raise InvalidArgumentError(
                f"points on a {d}D mesh must have shape (P, {d}), got {points.shape}"
            )
        if not np.all(np.isfinite(points)):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        tol = 1e-12 * max(self.h, 1.0)
        lo, hi, cells = np.array(self.lo), np.array(self.hi), np.array(self.cells)
        f = (points - lo) * (cells / (hi - lo))
        cell = np.clip(np.floor(f), 0, cells - 1)
        f -= cell  # the offset in the cell, in cell widths
        # tol is a length in 1D and barycentric (in cell widths) in 2D; the
        # offset and the containment test each err by a few ulps of the
        # coordinates, which are up to cells * (|lo| + |hi|) / (hi - lo) cell widths
        cell_tol = tol / self.h if d == 1 else tol
        rounding = 1e-13 * np.max(cells * (1 + (np.abs(lo) + np.abs(hi)) / (hi - lo)))
        margin = 4 * cell_tol + rounding
        sure = np.all((f > margin) & (f < 1 - margin), axis=1)
        cell = cell.astype(int)
        if d == 1:
            found = cell[:, 0]
        else:
            # the lower-right triangle (2 * cell) below the diagonal, the
            # upper-left one (2 * cell + 1) above it
            above = f[:, 1] - f[:, 0]
            sure &= np.abs(above) > margin
            found = 2 * (cell[:, 0] * self.cells[1] + cell[:, 1]) + (above > 0)
        rest = np.flatnonzero(~sure)
        if rest.size:
            found[rest] = self._search(points[rest], tol)
        return found

    def _search(self, points: np.ndarray, tol: float) -> np.ndarray:
        """Lowest-index element containing each point up to ``tol``.

        Only the elements of two candidate cells per axis are tested: the
        point's own cell and its neighbour across the nearer cell edge.
        Every element that can hold the point lies in one of them, as
        ``tol`` is far below half a cell width.
        """
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
            a, b, c = np.moveaxis(self.coords[self.elements[e]], -2, 0)  # (8, points, 2) each
            ab, ac, rel = b - a, c - a, points - a
            det = ab[..., 0] * ac[..., 1] - ac[..., 0] * ab[..., 1]
            l1 = (ac[..., 1] * rel[..., 0] - ac[..., 0] * rel[..., 1]) / det
            l2 = (-ab[..., 1] * rel[..., 0] + ab[..., 0] * rel[..., 1]) / det
            inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1 + tol)
        found = np.where(inside, e, self.n_elements).min(axis=0)
        if np.any(found == self.n_elements):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        return found


def _is_count(n) -> bool:
    """An integer >= 1 (not a bool)."""
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= 1


def _interval_arrays(a: float, b: float, n: int):
    """Coordinates, elements and h of the uniform mesh of [a, b]."""
    coords = np.linspace(a, b, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return coords, elements, (b - a) / n


def _rect_arrays(lo, hi, nx: int, ny: int):
    """Coordinates, elements and h of the triangulated box, with node
    (ix, iy) at index ix * (ny + 1) + iy, lexicographic by (x, y)."""
    dx, dy = (hi[0] - lo[0]) / nx, (hi[1] - lo[1]) / ny
    xs = np.repeat(lo[0] + np.arange(nx + 1) * dx, ny + 1)
    ys = np.tile(lo[1] + np.arange(ny + 1) * dy, nx + 1)
    coords = np.column_stack([xs, ys])

    # Per cell (ix, iy), in lexicographic order: the lower-right triangle
    # (ll, lr, ur), then the upper-left one (ll, ur, ul), both CCW.
    ll = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)[:-1, :-1].ravel()
    lr, ul = ll + ny + 1, ll + 1
    ur = lr + 1
    elements = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)

    return coords, elements, math.hypot(dx, dy)


def build_interval_mesh(
    a: float,
    b: float,
    n: int,
    left_tag: BoundaryTag,
    right_tag: BoundaryTag,
) -> Mesh:
    """Uniform mesh of [a, b] with n elements and tagged endpoints."""
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
    if isinstance(tags, BoundaryTag):
        tags = dict.fromkeys(SIDES[2], tags)
    missing = set(SIDES[2]) - set(tags)
    if missing:
        raise InvalidArgumentError(f"missing side tags: {sorted(missing)}")
    return Mesh((0.0, 0.0), (width, height), (nx, ny), tuple(tags[s] for s in SIDES[2]))
