"""Galerkin assembly for continuous piecewise-linear elements.

For a problem with wavenumber k, coefficients (mu^{-1}, eps), and
impedance weight theta, the assembled complex matrices are

    S      weighted stiffness,   S_ij = k^{-2} (mu^{-1} grad phi_j, grad phi_i),
    B      impedance boundary,   B_ij = -i k^{-1} (theta phi_j, phi_i)_boundary,
    M_eps  weighted mass,        (M_eps)_ij = (eps phi_j, phi_i),
    A      = S + B - M_eps,

together with the real SPD pair

    D = k^{-2} K + M   (K the unweighted stiffness, M the plain mass),

so that the squared energy norm ||k^{-1} grad v||^2 + ||v||^2 of a
finite-element function equals V* D V for its coefficient vector V.
All element integrals are closed-form (exact for affine elements and
piecewise-constant coefficients). Dirichlet dofs are eliminated by
symmetric row/column deletion, which keeps D and M SPD on the free set.

Every system is a :class:`MatrixSystem`: one system matrix A with the
norm matrices D and M, owning their factors and the quantities derived
from them. An assembled :class:`GalerkinSystem` adds the parts of A and
the problem it came from; a pair supplied as matrices (e.g. Maxwell
edge-element matrices from another code) is two matrix systems on the
same D and M, checked by :func:`validate_external`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np
import scipy.sparse as sp

from .coeffs import AbsorptionSpec, CoefficientField, Role, absorption_shift
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

_HERMITIAN_RTOL = 1e-12


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

    def with_absorption(self, alpha: AbsorptionSpec | float) -> "ProblemSpec":
        """The absorption perturbation eps -> (1 + i*alpha) eps."""
        return self.with_eps(absorption_shift(self.eps, alpha))


@dataclass(frozen=True, eq=False)
class MatrixSystem:
    """A system matrix ``A`` with the norm matrices ``D`` and ``M`` of its space.

    A system owns the factors of its matrices, computed on first use, so
    every quantity computed from one system shares them, and they live as
    long as the system. The derived quantities are cached per seed: the
    discrete inf-sup report of A (through the LU factors of A and products
    with D) and the mass-matrix extremes (through the Gram factor of M).
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
    def gram_m(self) -> GramFactor:
        return gram_factor(self.M)

    @cached_property
    def _derived(self) -> dict:
        return {}

    def share_norm_factors(self, other: "MatrixSystem") -> None:
        """Use the Gram factors of ``other``, whose D and M the caller has
        checked to equal this system's; factors already owned are kept."""
        if other is not self:
            self.__dict__.setdefault("gram_d", other.gram_d)
            self.__dict__.setdefault("gram_m", other.gram_m)

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
        """Extreme eigenvalues of M, through this system's Gram factor of M."""
        key = ("mass_extremes", seed)
        if key not in self._derived:
            # the numerics function: the method's name shadows it only as
            # an attribute, and the module-level name is looked up per call
            self._derived[key] = mass_extremes(self.gram_m, seed=seed)
        return self._derived[key]


@dataclass(frozen=True, eq=False)
class GalerkinSystem(MatrixSystem):
    """Assembled matrices of one problem, restricted to free dofs."""

    S: sp.csr_matrix
    B: sp.csr_matrix
    M_eps: sp.csr_matrix
    free_nodes: np.ndarray
    spec: ProblemSpec


def _free_nodes(mesh: Mesh) -> np.ndarray:
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[mesh.nodes_with_tag(BoundaryTag.DIRICHLET)] = False
    return np.flatnonzero(free)


def _stiffness_entries(mesh: Mesh, mu: CoefficientField):
    """COO pattern (rows, cols) and per-element values of the stiffness.

    Returns the values of the unweighted stiffness K and of the
    mu^{-1}-weighted one, each of shape (n_elements, nodes_per_el**2) so
    they sum into matrices sharing one pattern.
    """
    elems = mesh.elements
    if mesh.dimension == 1:
        h = mesh.element_measures()
        local = np.array([1.0, -1.0, -1.0, 1.0])
        rows = elems[:, [0, 0, 1, 1]]
        cols = elems[:, [0, 1, 0, 1]]
        kvals = local[None, :] / h[:, None]
        wvals = (mu.values / h)[:, None] * local[None, :]
        return rows.ravel(), cols.ravel(), kvals, wvals
    pts = mesh.coords[elems]
    area = mesh.element_measures()
    # grad of barycentric i: ([y_{i+1}-y_{i+2}, x_{i+2}-x_{i+1}]) / (2 * signed area)
    x, y = pts[:, :, 0], pts[:, :, 1]
    sgn_area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    grads = np.empty((elems.shape[0], 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (y[:, j] - y[:, k]) / sgn_area2
        grads[:, i, 1] = (x[:, k] - x[:, j]) / sgn_area2
    kvals = np.einsum("eia,eja->eij", grads, grads) * area[:, None, None]
    wvals = np.einsum("eia,eab,ejb->eij", grads, mu.as_matrix(), grads)
    wvals *= area[:, None, None]
    idx = np.arange(3)
    rows = elems[:, np.repeat(idx, 3)]
    cols = elems[:, np.tile(idx, 3)]
    ne = len(elems)
    return rows.ravel(), cols.ravel(), kvals.reshape(ne, 9), wvals.reshape(ne, 9)


def _mass_entries(mesh: Mesh):
    elems = mesh.elements
    meas = mesh.element_measures()
    if mesh.dimension == 1:
        local = np.array([2.0, 1.0, 1.0, 2.0]) / 6.0
        rows = elems[:, [0, 0, 1, 1]]
        cols = elems[:, [0, 1, 0, 1]]
    else:
        local = np.array([2, 1, 1, 1, 2, 1, 1, 1, 2], dtype=float) / 12.0
        idx = np.arange(3)
        rows = elems[:, np.repeat(idx, 3)]
        cols = elems[:, np.tile(idx, 3)]
    vals = meas[:, None] * local[None, :]
    return rows.ravel(), cols.ravel(), vals


def _boundary_entries(spec: ProblemSpec):
    """COO entries of the theta-weighted boundary mass on impedance facets."""
    mesh = spec.mesh
    rows, cols, vals = [], [], []
    theta = spec.theta
    for f in mesh.facets:
        if f.tag != BoundaryTag.IMPEDANCE:
            continue
        if mesh.dimension == 1:
            (j,) = f.nodes
            rows.append(j)
            cols.append(j)
            vals.append(theta)
        else:
            a, b = f.nodes
            length = float(np.linalg.norm(mesh.coords[b] - mesh.coords[a]))
            for (r, c, w) in (
                (a, a, 2.0),
                (a, b, 1.0),
                (b, a, 1.0),
                (b, b, 2.0),
            ):
                rows.append(r)
                cols.append(c)
                vals.append(theta * length * w / 6.0)
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals)


def _tocsr(rows, cols, vals, n, dtype):
    return sp.coo_matrix(
        (np.asarray(vals, dtype=dtype).ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def assemble_system(spec: ProblemSpec) -> GalerkinSystem:
    """Assemble all matrices of the problem and eliminate Dirichlet dofs."""
    mesh = spec.mesh
    nn = mesh.n_nodes
    k2 = spec.k ** -2

    rows_k, cols_k, kvals, wvals = _stiffness_entries(mesh, spec.mu_inv)
    rows_m, cols_m, mvals = _mass_entries(mesh)

    K = _tocsr(rows_k, cols_k, kvals, nn, float)
    M = _tocsr(rows_m, cols_m, mvals, nn, float)
    S = _tocsr(rows_k, cols_k, k2 * wvals, nn, complex)
    M_eps = _tocsr(rows_m, cols_m, spec.eps.values[:, None] * mvals, nn, complex)

    rows_b, cols_b, bvals = _boundary_entries(spec)
    if rows_b.size:
        B = _tocsr(rows_b, cols_b, (-1j / spec.k) * bvals.astype(complex), nn, complex)
    else:
        B = sp.csr_matrix((nn, nn), dtype=complex)

    free = _free_nodes(mesh)
    if free.size == 0:
        raise DegenerateSystemError("all dofs eliminated by Dirichlet conditions")

    def cut(X):
        return X[free][:, free].tocsr()

    S, B, M_eps, M = cut(S), cut(B), cut(M_eps), cut(M)
    D = (k2 * cut(K) + M).tocsr()
    A = (S + B - M_eps).tocsr()
    return GalerkinSystem(
        A=A, D=D, M=M, S=S, B=B, M_eps=M_eps, free_nodes=free, spec=spec
    )


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
    meas = mesh.element_measures()
    npe = mesh.dimension + 1
    contrib = (f * meas / npe)[:, None].repeat(npe, axis=1)
    F = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(F, mesh.elements.ravel(), contrib.ravel())
    return F[_free_nodes(mesh)]


def _check_hermitian(X, name: str):
    if not nearly_equal(X, X.getH(), _HERMITIAN_RTOL):
        raise InvalidSystemError(f"matrix {name} is not Hermitian")


def validate_external(sys1: MatrixSystem, sys2: MatrixSystem) -> None:
    """Check an imported pair: consistent dimensions, D and M Hermitian PD.

    D and M are those of ``sys1``; the bound report checks that ``sys2``
    has the same ones and shares their factors.
    """
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
            # the system's own factor: the certificate is the factorization
            # every later norm of this pair solves with
            getattr(sys1, "gram_" + name.lower())
        except NotPositiveDefiniteError as exc:
            raise InvalidSystemError(f"matrix {name} is not positive definite") from exc
