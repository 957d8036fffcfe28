"""Element-by-element reference assembler for the P1 Galerkin matrices.

Every element's stiffness and mass come from its own vertex coordinates,
the entries go through COO to CSR, and Dirichlet dofs are deleted from
the full matrices by row and column selection. It shares no code with
``helmprec.assemble``, which builds the same matrices from the grid
spacing on one pattern per mesh, and it keeps the parts of A:

    A = S + B - M_eps,   D = k^{-2} K + M.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from helmprec.errors import DegenerateSystemError
from helmprec.mesh import BoundaryTag


@dataclass(frozen=True)
class OracleSystem:
    A: sp.csr_matrix
    D: sp.csr_matrix
    M: sp.csr_matrix
    S: sp.csr_matrix
    B: sp.csr_matrix
    M_eps: sp.csr_matrix
    free_nodes: np.ndarray


def element_measures(mesh) -> np.ndarray:
    """Lengths (1D) or areas (2D) of all elements, from their coordinates."""
    pts = mesh.coords[mesh.elements]
    if mesh.dimension == 1:
        return np.abs(pts[:, 1, 0] - pts[:, 0, 0])
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _stiffness_entries(mesh, mu):
    """COO (rows, cols) and per-element values of K and of the mu-weighted
    stiffness, each of shape (n_elements, nodes_per_el**2)."""
    elems = mesh.elements
    if mesh.dimension == 1:
        h = element_measures(mesh)
        local = np.array([1.0, -1.0, -1.0, 1.0])
        rows = elems[:, [0, 0, 1, 1]]
        cols = elems[:, [0, 1, 0, 1]]
        kvals = local[None, :] / h[:, None]
        wvals = (mu.values / h)[:, None] * local[None, :]
        return rows.ravel(), cols.ravel(), kvals, wvals
    pts = mesh.coords[elems]
    area = element_measures(mesh)
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
    mu_matrix = mu.values if mu.is_matrix else mu.values[:, None, None] * np.eye(2)
    wvals = np.einsum("eia,eab,ejb->eij", grads, mu_matrix, grads)
    wvals *= area[:, None, None]
    idx = np.arange(3)
    rows = elems[:, np.repeat(idx, 3)]
    cols = elems[:, np.tile(idx, 3)]
    ne = len(elems)
    return rows.ravel(), cols.ravel(), kvals.reshape(ne, 9), wvals.reshape(ne, 9)


def _mass_entries(mesh):
    elems = mesh.elements
    meas = element_measures(mesh)
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


def _boundary_entries(spec):
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
            for (r, c, w) in ((a, a, 2.0), (a, b, 1.0), (b, a, 1.0), (b, b, 2.0)):
                rows.append(r)
                cols.append(c)
                vals.append(theta * length * w / 6.0)
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals)


def _tocsr(rows, cols, vals, n, dtype):
    return sp.coo_matrix(
        (np.asarray(vals, dtype=dtype).ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def oracle_system(spec) -> OracleSystem:
    """All matrices of the problem, Dirichlet dofs deleted at the end."""
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

    free = np.ones(nn, dtype=bool)
    free[mesh.nodes_with_tag(BoundaryTag.DIRICHLET)] = False
    free = np.flatnonzero(free)
    if free.size == 0:
        raise DegenerateSystemError("all dofs eliminated by Dirichlet conditions")

    def cut(X):
        return X[free][:, free].tocsr()

    S, B, M_eps, M = cut(S), cut(B), cut(M_eps), cut(M)
    D = (k2 * cut(K) + M).tocsr()
    A = (S + B - M_eps).tocsr()
    return OracleSystem(A=A, D=D, M=M, S=S, B=B, M_eps=M_eps, free_nodes=free)
