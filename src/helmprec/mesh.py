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
per axis gives the nested mesh :meth:`Mesh.refined`, and the element that
holds each of its elements (:meth:`Mesh.locate_elements`) is index
arithmetic on the two grids.
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
# SuperLU indexes a matrix with C ints: scipy's splu casts its indices to them
MAX_INDEX = np.iinfo(np.intc).max


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
    an integer >= 1, one tag per side, and at most ``MAX_INDEX`` nodes.
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
        nodes = math.prod(int(c) + 1 for c in self.cells)
        if nodes > MAX_INDEX:
            # imported here: Decimal formats an int of any size, and importing
            # it costs every run about 0.3 MiB of resident memory
            from decimal import Decimal
            raise InvalidArgumentError(
                f"a mesh of {Decimal(nodes):.3g} nodes exceeds SuperLU's limit of {MAX_INDEX}")
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

    def locate_elements(self, fine: "Mesh") -> np.ndarray:
        """The element of this mesh that holds each element of ``fine``,
        its nested refinement ``self.refined(r)``: the parent map along
        which piecewise-constant data transfers exactly.

        In 1D fine element i lies in element i // r. In 2D fine element e
        lies in cell (ix // r) * ny + iy // r, where (ix, iy) =
        divmod(e // 2, r * ny) is its fine cell, and in that cell's
        upper-left triangle when iy % r - ix % r + e % 2 > 0: the fine cell
        lies above the diagonal, or on it and e is itself an upper-left
        triangle (odd).

        Raises ``InvalidArgumentError`` unless ``fine`` has this mesh's
        ``lo`` and ``hi`` and r times its cells on every axis, for one
        integer r >= 1; its tags do not matter.
        """
        r = fine.cells[0] // self.cells[0]
        if (fine.lo, fine.hi, fine.cells) != (self.lo, self.hi, tuple(r * c for c in self.cells)):
            raise InvalidArgumentError(
                f"locate_elements needs a nested refinement of {self.cells} cells on "
                f"[{self.lo}, {self.hi}], got {fine.cells} cells on [{fine.lo}, {fine.hi}]")
        e = np.arange(fine.n_elements)
        if self.dimension == 1:
            return e // r
        ny = self.cells[1]
        ix, iy = np.divmod(e // 2, r * ny)
        return 2 * ((ix // r) * ny + iy // r) + (iy % r - ix % r + e % 2 > 0)


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
