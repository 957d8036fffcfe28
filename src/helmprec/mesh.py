"""Structured meshes: uniform intervals and triangulated rectangles.

Only two mesh families are supported: uniform 1D interval meshes and
rectangles split into right triangles (two per grid cell). Boundary
facets (endpoints in 1D, edges in 2D) carry one of three tags that
decide the boundary treatment during assembly:

* DIRICHLET  - dof eliminated,
* IMPEDANCE  - lower-order boundary term assembled,
* NEUMANN    - natural condition, no boundary term.

Node ordering is lexicographic by coordinate, so mesh construction is
deterministic and suitable for golden tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError


class BoundaryTag(Enum):
    DIRICHLET = "dirichlet"
    IMPEDANCE = "impedance"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Facet:
    """One boundary facet: its node indices, owning element, and tag."""

    nodes: tuple[int, ...]
    element: int
    tag: BoundaryTag


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable simplicial mesh (1D segments or 2D triangles).

    ``coords`` has shape (n_nodes, dim), ``elements`` shape
    (n_elements, dim + 1). ``h`` is the maximum element diameter and is
    recomputable from the coordinates.
    """

    dimension: int
    coords: np.ndarray
    elements: np.ndarray
    facets: tuple[Facet, ...]
    h: float

    def __post_init__(self):
        self.coords.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_measures(self) -> np.ndarray:
        """Lengths (1D) or areas (2D) of all elements."""
        pts = self.coords[self.elements]
        if self.dimension == 1:
            return np.abs(pts[:, 1, 0] - pts[:, 0, 0])
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def element_centroids(self) -> np.ndarray:
        return self.coords[self.elements].mean(axis=1)

    def element_diameters(self) -> np.ndarray:
        pts = self.coords[self.elements]
        if self.dimension == 1:
            return np.abs(pts[:, 1, 0] - pts[:, 0, 0])
        # Triangle diameter equals its longest edge.
        e01 = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        e12 = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
        e20 = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
        return np.max(np.stack([e01, e12, e20]), axis=0)

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

        1D looks the points up among the elements sorted by their left
        end points (elements may be numbered in any order). 2D sorts
        the elements into a uniform grid of about ``n_elements`` square
        buckets over the bounding box, each element registered in every
        bucket its tolerance-padded bounding box overlaps, and tests each
        point against the elements of its bucket only, so the cost is
        O(n_elements + n_points) on quasi-uniform meshes.

        Raises ``InvalidArgumentError`` for a point that no element
        contains (also a non-finite one).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        tol = 1e-12 * max(self.h, 1.0)
        if self.dimension == 1:
            ends = np.sort(self.coords[self.elements, 0], axis=1)
            order = np.argsort(ends[:, 0], kind="stable")
            lo, hi = ends[order, 0], ends[order, 1]
            x = points[:, 0]
            # the last element (by left end) starting at or before x, and
            # the one before it, which contains x when x is on their node
            j = np.searchsorted(lo, x + tol, side="right") - 1
            found = np.full(x.shape, self.n_elements)
            for c in (j, j - 1):
                ok = (c >= 0) & (x <= hi[np.maximum(c, 0)] + tol)
                found[ok] = np.minimum(found[ok], order[c[ok]])
            if np.any(found == self.n_elements):
                raise InvalidArgumentError("point outside mesh in locate_elements")
            return found
        if not np.all(np.isfinite(points)):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        n_el = self.n_elements
        pts = self.coords[self.elements]

        # Bucket grid. The tolerance set of a triangle is the triangle
        # scaled by 1 + 3*tol about its centroid, which reaches at most
        # 2*tol*diameter < 3*tol*(largest box side) beyond it, so padding
        # each box by 4*tol*(largest box side) plus a rounding allowance
        # keeps every point an element accepts inside its padded box.
        lo_xy, hi_xy = pts.min(axis=1), pts.max(axis=1)
        origin = self.coords.min(axis=0)
        span = self.coords.max(axis=0) - origin
        side = math.sqrt(span[0] * span[1] / n_el) or 1.0
        n_b = np.clip(np.ceil(span / side), 1, n_el).astype(int)
        scale = n_b / np.where(span > 0, span, 1.0)

        def bucket_xy(xy):
            return np.clip(np.floor((xy - origin) * scale), 0, n_b - 1).astype(int)

        pad = 4 * tol * (hi_xy - lo_xy).max() + 1e-12 * np.abs(self.coords).max()
        lo = bucket_xy(lo_xy - pad)
        ext = bucket_xy(hi_xy + pad) - lo + 1
        count = ext[:, 0] * ext[:, 1]
        member = np.repeat(np.arange(n_el), count)
        k = _offsets_within(count)
        ix = lo[member, 0] + k % ext[member, 0]
        iy = lo[member, 1] + k // ext[member, 0]
        bucket = ix * n_b[1] + iy
        order = np.argsort(bucket)
        member = member[order]
        start = np.searchsorted(bucket[order], np.arange(n_b[0] * n_b[1] + 1))

        # Candidate (point, element) pairs from each point's bucket.
        q = bucket_xy(points)
        q = q[:, 0] * n_b[1] + q[:, 1]
        n_cand = start[q + 1] - start[q]
        pi = np.repeat(np.arange(points.shape[0]), n_cand)
        ei = member[np.repeat(start[q], n_cand) + _offsets_within(n_cand)]

        # Barycentric coordinates with the operations, in order, of the
        # element-by-element reference loop in tests/test_mesh.py, so l1
        # and l2 are bit-equal to it.
        ab = pts[:, 1] - pts[:, 0]
        ac = pts[:, 2] - pts[:, 0]
        det = (ab[:, 0] * ac[:, 1] - ac[:, 0] * ab[:, 1])[ei]
        ab, ac = ab[ei], ac[ei]
        rel = points[pi] - pts[ei, 0]
        l1 = (ac[:, 1] * rel[:, 0] - ac[:, 0] * rel[:, 1]) / det
        l2 = (-ab[:, 1] * rel[:, 0] + ab[:, 0] * rel[:, 1]) / det
        inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1 + tol)
        out = np.full(points.shape[0], n_el)
        np.minimum.at(out, pi[inside], ei[inside])
        if np.any(out == n_el):
            raise InvalidArgumentError("point outside mesh in locate_elements")
        return out


def _offsets_within(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


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
    coords = np.linspace(a, b, n + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = (
        Facet(nodes=(0,), element=0, tag=left_tag),
        Facet(nodes=(n,), element=n - 1, tag=right_tag),
    )
    return Mesh(1, coords, elements, facets, h=(b - a) / n)


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
        side_tags = {s: tags for s in ("left", "right", "bottom", "top")}
    else:
        missing = {"left", "right", "bottom", "top"} - set(tags)
        if missing:
            raise InvalidArgumentError(f"missing side tags: {sorted(missing)}")
        side_tags = dict(tags)

    dx, dy = width / nx, height / ny

    # Lexicographic by (x, y): node (ix, iy) -> ix*(ny+1) + iy.
    def nid(ix, iy):
        return ix * (ny + 1) + iy

    xs = np.repeat(np.arange(nx + 1) * dx, ny + 1)
    ys = np.tile(np.arange(ny + 1) * dy, nx + 1)
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

    h = math.hypot(dx, dy)
    return Mesh(2, coords, elements, tuple(facets), h=h)
