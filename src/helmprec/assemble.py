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
Element integrals are closed-form. The boundary enters through the
facets of the tagged sides of the mesh's grid
(:meth:`~helmprec.mesh.Mesh.facets_with_tag`): B is the P1 mass of the
impedance facets, and the rows and columns of the nodes of Dirichlet
facets are never assembled, which keeps D and M SPD on the free set.

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
norm matrices D and M, owning the LU factor of A, the certified LU
factor of D (its Gram factor) and the quantities derived from them. A
:class:`GalerkinSystem` adds the problem it came from; a pair supplied
as matrices (e.g. Maxwell edge-element matrices from another code) is
two matrix systems on the same D and M, whose D and M
:func:`validate_external` certifies.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
import numpy as np
import scipy.sparse as sp

from .coeffs import CoefficientField, absorption_shift
from .errors import (
    DegenerateSystemError,
    InvalidArgumentError,
    InvalidCoefficientError,
    InvalidSystemError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .mesh import BoundaryTag, Mesh
from .numerics import (
    DEFAULT_SEED,
    LUFactor,
    MassExtremes,
    discrete_inf_sup,
    gram_factor,
    lu_factor,
    mass_extremes,
)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A concrete variational problem: k, mesh, coefficients, impedance weight.

    Both fields live on ``mesh``; Re(mu_inv) must be positive definite on
    every element, and eps, which multiplies the scalar u, scalar (else an
    InvalidCoefficientError). ``theta`` is one positive real for all
    impedance facets.
    """

    k: float
    mesh: Mesh
    mu_inv: CoefficientField
    eps: CoefficientField
    theta: float = 1.0

    def __post_init__(self):
        if not (re_min := self.mu_inv.real_min()) > 0:
            raise InvalidCoefficientError(
                f"Re(mu^-1) must be positive elementwise (min {re_min:g})")
        if self.eps.is_matrix:
            raise InvalidCoefficientError("eps values must be scalars")
        try:  # k^{-2} scales the stiffness, so it must be a finite float too
            valid = 0 < self.k < math.inf and float(self.k) ** -2 < math.inf
        except OverflowError:
            valid = False
        if not valid:
            raise InvalidArgumentError(
                f"wavenumber must be positive and finite, with k^-2 finite, got {self.k}"
            )
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

    A system keeps the Gram factor of D and the LU factors of A, each made
    on first use, so every quantity computed from it shares them. D's
    factor lives as long as the system; A's lives until :meth:`drop_lu`,
    which ``verify`` calls on A1 after the norm-equivalence report and
    ``import`` after A1's C_dis, before A2 is factored. It caches per seed
    the float C_dis of A (LU solves and products with D; inf for a singular
    A) and the mass-matrix extremes, which factor sigma I - M and then M,
    one at a time, and keep neither.
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

    def drop_lu(self) -> None:
        """Free A's LU factors, if made; the next use of ``lu`` factors A
        again, and the cached C_dis values stay."""
        vars(self).pop("lu", None)

    @cached_property
    def gram_d(self) -> LUFactor:
        return gram_factor(self.D)

    @cached_property
    def _derived(self) -> dict:
        return {}

    def c_dis(self, seed: int = DEFAULT_SEED) -> float:
        """C_dis of A (:func:`discrete_inf_sup`), cached per seed and read
        from the cache before A's LU factors are touched, so a cached value
        needs no factor, even after :meth:`drop_lu`. A singular A has no LU
        factors and C_dis = inf at every seed: the verdict is cached once,
        so A is factored once. It takes products with D and never its Gram
        factor, so a system used only for its C_dis, such as an inf-sup
        ladder's reference rung, factors A alone."""
        derived = self._derived
        key = ("c_dis", seed)
        if "singular" in derived:
            return math.inf
        if key not in derived:
            try:
                lu = self.lu
            except SingularSystemError:
                derived["singular"] = True
                return math.inf
            derived[key] = discrete_inf_sup(lu, self.D, seed=seed)
        return derived[key]

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
    free[mesh.facets_with_tag(BoundaryTag.DIRICHLET)] = False
    return np.flatnonzero(free)


def _orientations(mesh: Mesh) -> tuple[np.ndarray, float]:
    """Barycentric gradients of the mesh's element orientations, shape
    (orientations, nodes, dim), and the element measure. Element e has
    orientation e % orientations. The 1 / h of a subnormal cell overflows
    without a warning: the load uses the measure alone, and
    :func:`assemble_system` checks the matrices that the gradients make."""
    step = np.subtract(mesh.hi, mesh.lo) / mesh.cells
    with np.errstate(over="ignore"):
        inv = 1 / step
    if mesh.dimension == 1:
        return np.array([[[-inv[0]], [inv[0]]]]), step[0]
    (ix, iy), (dx, dy) = inv, step
    # the lower-right (ll, lr, ur) and the upper-left (ll, ur, ul) triangle
    grads = np.array([[[-ix, 0], [ix, -iy], [0, iy]],
                      [[0, -iy], [ix, 0], [-ix, iy]]])
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
    facets = mesh.facets_with_tag(BoundaryTag.IMPEDANCE)
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
    """Assemble A, D and M of the problem on its mesh's free dofs.

    Raises ``InvalidArgumentError`` naming the wavenumber and the mesh size
    h when an entry of A or D is not finite: a k whose k^{-2} is finite
    but overflows times the stiffness, or cells so small or so large that
    their element matrices overflow. So it does when D = k^{-2} K + M has
    lost M: some entry with M != 0 rounds to k^{-2} K, as when (kh)^2 is
    below the unit roundoff, and D no longer bounds M.
    """
    with np.errstate(all="ignore"):  # a non-finite A or D is raised below
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
        D = pattern.D(spec.k)
    where = f"wavenumber {spec.k} on a mesh with h = {spec.mesh.h:g}"
    if not (np.isfinite(data).all() and np.isfinite(D.data).all()):
        raise InvalidArgumentError(f"{where} makes A or D not finite")
    if np.any((D.data == k2 * pattern.K) & (pattern.M.data != 0)):
        raise InvalidArgumentError(f"{where} rounds M out of D = k^-2 K + M")
    return GalerkinSystem(A=pattern.csr(data), D=D, M=pattern.M, spec=spec)


def assemble_load(spec: ProblemSpec) -> np.ndarray:
    """Load vector F_i = (1, phi_i) of the unit load, on free dofs: each
    element adds the share 1 / (d + 1) of its measure to each of its nodes."""
    mesh = spec.mesh
    F = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(F, mesh.elements.ravel(), _orientations(mesh)[1] * (1 / (mesh.dimension + 1)))
    return F[_free_nodes(mesh)]


def validate_external(system: MatrixSystem, seed: int = DEFAULT_SEED) -> None:
    """Certify the D and M of an imported system symmetric positive definite
    by the :func:`~helmprec.numerics.gram_factor` factors a report at
    ``seed`` reuses: D's Gram factor and M's inside the mass extremes. An
    InvalidSystemError names the matrix that fails."""
    for name, certify in (("D", lambda: system.gram_d),
                          ("M", lambda: system.mass_extremes(seed))):
        try:
            certify()
        except (InvalidArgumentError, NotPositiveDefiniteError) as exc:
            raise InvalidSystemError(
                f"matrix {name} is not symmetric positive definite: {exc}") from exc
