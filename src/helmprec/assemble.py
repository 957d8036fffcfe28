"""Galerkin assembly for continuous piecewise-linear elements.

For a problem with wavenumber k, coefficients (mu^{-1}, eps), and
impedance weight theta, the assembled complex system matrix is

    A = S + B - M_eps,
    S      weighted stiffness,   S_ij = k^{-2} (mu^{-1} grad phi_j, grad phi_i),
    B      impedance boundary,   B_ij = -i k^{-1} (theta phi_j, phi_i)_boundary,
    M_eps  weighted mass,        (M_eps)_ij = (eps phi_j, phi_i),

with the real SPD pair D = k^{-2} K + M (K the unweighted stiffness, M
the plain mass): the squared energy norm ||k^{-1} grad v||^2 + ||v||^2
of a finite-element function is V* D V for its coefficient vector V.
Element integrals are closed-form. Dirichlet rows and columns are never
assembled, which keeps D and M SPD on the free set.

A mesh is its grid, so its elements have at most two orientations: in
1D a segment of length h, in 2D a cell's lower-right triangle (even
element index) and upper-left one (odd), right triangles with legs dx
and dy. The local matrices are computed per orientation. A mesh's first
assembly builds its free-dof CSR pattern, with the data slot of every
element entry, K, M and the impedance boundary mass, which live as long
as the mesh. A is then one scatter of the element entries of S - M_eps
plus the boundary term, and D is arithmetic on data arrays. A, D and M
share the pattern's index arrays, and the systems on one mesh and k
share D and M, so a pair's perturbed system stores only its A.

Every system is a :class:`MatrixSystem`: one system matrix A with the
norm matrices D and M, owning their factors and the quantities derived
from them. A :class:`GalerkinSystem` adds the problem it came from; a
pair supplied as matrices (e.g. Maxwell edge-element matrices from
another code) is two matrix systems on the same D and M, checked by
:func:`validate_external`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientField, Role, absorption_shift
from .errors import (
    DegenerateSystemError,
    InvalidArgumentError,
    InvalidSystemError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .mesh import BoundaryTag, Mesh
from .numerics import (
    DEFAULT_SEED,
    SINGULAR_INF_SUP,
    GramFactor,
    InfSupReport,
    LUFactor,
    MassExtremes,
    discrete_inf_sup,
    gram_factor,
    lu_factor,
    mass_extremes,
    nearly_equal,
)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A concrete variational problem: k, mesh, coefficients, impedance weight.

    ``theta`` is one positive real for all impedance facets.
    """

    k: float
    mesh: Mesh
    mu_inv: CoefficientField
    eps: CoefficientField
    theta: float = 1.0

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise InvalidArgumentError(
                f"wavenumber must be positive and finite, got {self.k}"
            )
        if self.mu_inv.role != Role.MU_INV or self.eps.role != Role.EPS:
            raise InvalidArgumentError("coefficient roles do not match their slots")
        if self.mu_inv.mesh is not self.mesh or self.eps.mesh is not self.mesh:
            raise InvalidArgumentError("coefficient fields built on a different mesh")
        if not self.theta > 0:
            raise InvalidArgumentError(f"theta must be positive, got {self.theta}")
        object.__setattr__(self, "theta", float(self.theta))

    def with_eps(self, eps: CoefficientField) -> "ProblemSpec":
        return ProblemSpec(self.k, self.mesh, self.mu_inv, eps, self.theta)

    def with_absorption(self, alpha: float) -> "ProblemSpec":
        """The absorption perturbation eps -> (1 + i*alpha) eps."""
        return self.with_eps(absorption_shift(self.eps, alpha))


@dataclass(frozen=True, eq=False)
class MatrixSystem:
    """A system matrix ``A`` with the norm matrices ``D`` and ``M`` of its space.

    A system keeps the LU factors of A and the Gram factor of D, made on
    first use and alive as long as the system, so every quantity computed
    from it shares them. It caches per seed the discrete inf-sup report of
    A (LU solves and products with D) and the mass-matrix extremes, which
    factor sigma I - M and then M, one at a time, and keep neither factor.
    """

    A: sp.csr_matrix
    D: sp.csr_matrix
    M: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def lu(self) -> LUFactor:
        """LU factors of A, computed on first use."""
        return lu_factor(self.A)

    @cached_property
    def gram_d(self) -> GramFactor:
        return gram_factor(self.D)

    @cached_property
    def _derived(self) -> dict:
        return {}

    def inf_sup(self, seed: int = DEFAULT_SEED) -> InfSupReport:
        """Discrete inf-sup report of A (a singular matrix is reported, not
        raised), cached per seed. It takes products with D and never its
        Gram factor, so a system used only for its inf-sup constant, such
        as an inf-sup ladder's reference rung, factors A alone."""
        try:
            lu = self.lu
        except SingularSystemError:
            return SINGULAR_INF_SUP
        key = ("inf_sup", seed)
        if key not in self._derived:
            self._derived[key] = discrete_inf_sup(lu, self.D, seed=seed)
        return self._derived[key]

    def mass_extremes(self, seed: int = DEFAULT_SEED) -> MassExtremes:
        """Extreme eigenvalues of M, cached per seed; no factor is kept."""
        key = ("mass_extremes", seed)
        if key not in self._derived:
            # the numerics function: the method's name shadows it only as
            # an attribute, and the module-level name is looked up per call
            self._derived[key] = mass_extremes(self.M, seed=seed)
        return self._derived[key]


@dataclass(frozen=True, eq=False)
class GalerkinSystem(MatrixSystem):
    """Assembled matrices of one problem, restricted to free dofs."""

    spec: ProblemSpec


def _free_nodes(mesh: Mesh) -> np.ndarray:
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[mesh.nodes_with_tag(BoundaryTag.DIRICHLET)] = False
    return np.flatnonzero(free)


def _orientations(mesh: Mesh) -> tuple[np.ndarray, float]:
    """Barycentric gradients of the mesh's element orientations, shape
    (orientations, nodes, dim), and the element measure. Element e has
    orientation e % orientations."""
    step = np.subtract(mesh.hi, mesh.lo) / mesh.cells
    if mesh.dimension == 1:
        (h,) = step
        return np.array([[[-1 / h], [1 / h]]]), h
    dx, dy = step
    # the lower-right (ll, lr, ur) and the upper-left (ll, ur, ul) triangle
    grads = np.array([[[-1 / dx, 0], [1 / dx, -1 / dy], [0, 1 / dy]],
                      [[0, -1 / dy], [1 / dx, 0], [-1 / dx, 1 / dy]]])
    return grads, dx * dy / 2


@dataclass(frozen=True, eq=False)
class _GridPattern:
    """The free-dof CSR pattern of one mesh and its coefficient-free matrices.

    Entry (i, j) of element e, at flat position e * p^2 + i * p + j for p
    nodes per element, adds to the data slot ``slots`` holds there; an
    entry in a Dirichlet row or column goes to slot nnz, one past the end.
    ``stiffness`` and ``mass`` are the local matrices per orientation,
    flattened to (orientations, p^2); ``K`` is the data of the unweighted
    stiffness and ``boundary`` the (slots, values) of the impedance
    boundary mass with theta = 1.
    """

    grads: np.ndarray
    measure: float
    stiffness: np.ndarray
    mass: np.ndarray
    slots: np.ndarray
    K: np.ndarray
    M: sp.csr_matrix
    boundary: tuple[np.ndarray, np.ndarray]
    _d_at_k: dict

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with these data on the pattern, sharing its index arrays."""
        return sp.csr_matrix((data, self.M.indices, self.M.indptr), shape=self.M.shape)

    def D(self, k: float) -> sp.csr_matrix:
        """D = k^{-2} K + M, kept for the last k asked for."""
        if k not in self._d_at_k:
            self._d_at_k.clear()
            self._d_at_k[k] = self.csr(k ** -2 * self.K + self.M.data)
        return self._d_at_k[k]


def _scatter(slots: np.ndarray, values: np.ndarray, nnz: int) -> np.ndarray:
    """Data of the matrix whose element entries, in element order, are
    ``values``: one bincount per real and imaginary part."""
    if np.iscomplexobj(values):
        data = np.empty(nnz, dtype=complex)
        data.real = _scatter(slots, values.real, nnz)
        data.imag = _scatter(slots, values.imag, nnz)
        return data
    return np.bincount(slots, values.ravel(), nnz + 1)[:nnz]


def _build_pattern(mesh: Mesh) -> _GridPattern:
    free = _free_nodes(mesh)
    nf = free.size
    if nf == 0:
        raise DegenerateSystemError("all dofs eliminated by Dirichlet conditions")
    grads, measure = _orientations(mesh)
    p = mesh.dimension + 1
    stiffness = measure * np.einsum("oia,oja->oij", grads, grads).reshape(len(grads), -1)
    # the P1 mass of a d-simplex T: |T| (1 + delta_ij) / ((d + 1)(d + 2))
    mass = (measure / (p * (p + 1)) * (1 + np.eye(p))).reshape(1, -1)
    dof = np.full(mesh.n_nodes, nf)  # nf marks a Dirichlet node
    dof[free] = np.arange(nf)

    def keys(nodes):  # row-major key of each entry (i, j), nf^2 if eliminated
        rows, cols = np.repeat(nodes, nodes.shape[1], axis=1), np.tile(nodes, nodes.shape[1])
        return np.where((rows < nf) & (cols < nf), rows * nf + cols, nf * nf).ravel()

    pattern, slots = np.unique(keys(dof[mesh.elements]), return_inverse=True)
    pattern = pattern[pattern < nf * nf]  # the eliminated key, if any, is last
    shape = (mesh.n_elements // len(grads),) + stiffness.shape  # (cells, orientations, p^2)
    K = _scatter(slots, np.broadcast_to(stiffness, shape), pattern.size)
    M = _scatter(slots, np.broadcast_to(mass, shape), pattern.size)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pattern // nf, minlength=nf))])
    M = sp.csr_matrix((M, pattern % nf, indptr), shape=(nf, nf))

    # impedance facets: the P1 mass of a (d-1)-simplex F, |F| (1 + delta_ij) / (d (d + 1))
    d = mesh.dimension
    facets = np.array([f.nodes for f in mesh.facets if f.tag == BoundaryTag.IMPEDANCE],
                      dtype=int).reshape(-1, d)
    size = np.ones(len(facets)) if d == 1 else np.linalg.norm(
        mesh.coords[facets[:, 1]] - mesh.coords[facets[:, 0]], axis=1)
    values = (size[:, None] * ((1 + np.eye(d)) / (d * (d + 1))).reshape(1, -1)).ravel()
    key = keys(dof[facets])
    kept = key < nf * nf
    bslots, merged = np.unique(np.searchsorted(pattern, key[kept]), return_inverse=True)
    boundary = (bslots, np.bincount(merged, values[kept], bslots.size))
    return _GridPattern(grads, measure, stiffness, mass, slots, K, M, boundary, {})


# One pattern per live mesh, freed with the mesh.
_PATTERNS: "weakref.WeakKeyDictionary[Mesh, _GridPattern]" = weakref.WeakKeyDictionary()


def _grid_pattern(mesh: Mesh) -> _GridPattern:
    pattern = _PATTERNS.get(mesh)
    if pattern is None:
        pattern = _PATTERNS[mesh] = _build_pattern(mesh)
    return pattern


def assemble_system(spec: ProblemSpec) -> GalerkinSystem:
    """Assemble A, D and M of the problem on its mesh's free dofs."""
    pattern = _grid_pattern(spec.mesh)
    k2 = spec.k ** -2
    no, p2 = pattern.stiffness.shape
    mu = spec.mu_inv.values
    # the element entries of S - M_eps, shape (cells, orientations, p^2)
    if spec.mu_inv.is_matrix:
        g = pattern.grads
        values = np.einsum("oia,coab,ojb->coij", g, mu.reshape(-1, no, 2, 2), g)
        # the einsum rounds entries (i, j) and (j, i) differently; their
        # exact mean keeps A exactly symmetric, as in the scalar case
        values = 0.5 * (values + np.swapaxes(values, -1, -2))
        values = values.reshape(-1, no, p2) * (k2 * pattern.measure)
    else:
        values = (k2 * mu).reshape(-1, no, 1) * pattern.stiffness
    values -= spec.eps.values.reshape(-1, no, 1) * pattern.mass
    data = _scatter(pattern.slots, values, pattern.M.nnz)
    bslots, bvalues = pattern.boundary
    data[bslots] += (-1j * spec.theta / spec.k) * bvalues
    return GalerkinSystem(A=pattern.csr(data), D=pattern.D(spec.k), M=pattern.M, spec=spec)


def assemble_load(spec: ProblemSpec, f) -> np.ndarray:
    """Load vector F_i = (f, phi_i) for per-element data f, on free dofs."""
    mesh = spec.mesh
    f = np.asarray(f, dtype=complex)
    if f.ndim == 0:
        f = np.full(mesh.n_elements, complex(f))
    if f.shape != (mesh.n_elements,):
        raise InvalidArgumentError(
            f"load needs one value per element ({mesh.n_elements}), got {f.shape}"
        )
    npe = mesh.dimension + 1
    contrib = (f * _orientations(mesh)[1] / npe)[:, None].repeat(npe, axis=1)
    F = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(F, mesh.elements.ravel(), contrib.ravel())
    return F[_free_nodes(mesh)]


def _check_hermitian(X, name: str):
    if not nearly_equal(X, X.getH()):
        raise InvalidSystemError(f"matrix {name} is not Hermitian")


def validate_external(sys1: MatrixSystem, sys2: MatrixSystem,
                      seed: int = DEFAULT_SEED) -> None:
    """Check an imported pair: consistent nonzero dimensions, D and M Hermitian PD.

    D and M are those of ``sys1``; the bound report checks that ``sys2``
    has the same ones and shares their factors.
    """
    if sys1.n == 0:
        raise InvalidSystemError("matrix A1 is empty (0 x 0)")
    mats = {"A1": sys1.A, "A2": sys2.A, "D": sys1.D, "M": sys1.M}
    for name, X in mats.items():
        if X.shape[0] != X.shape[1]:
            raise InvalidSystemError(f"matrix {name} is not square: {X.shape}")
        if X.shape[0] != sys1.n:
            raise InvalidSystemError(
                f"matrix {name} has dimension {X.shape[0]}, expected {sys1.n}"
            )
    for name in ("D", "M"):
        X = mats[name]
        _check_hermitian(X, name)
        if X.nnz and abs(X.imag).max() > 0:
            raise InvalidSystemError(f"matrix {name} must be real symmetric")
        try:
            # certified by what a report at ``seed`` reuses: D's Gram
            # factor, and M's factor inside the mass extremes
            sys1.gram_d if name == "D" else sys1.mass_extremes(seed)
        except NotPositiveDefiniteError as exc:
            raise InvalidSystemError(f"matrix {name} is not positive definite") from exc
