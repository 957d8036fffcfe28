"""Weighted matrix norms, inf-sup constants, and mass-matrix extremes.

Everything here reduces a functional-analytic quantity to a singular
value of a conjugated matrix. With D = L L* the Gram (energy-norm)
matrix and M = R R* the mass matrix:

    ||C||_D            = sigma_max(L* C L^{-*})     operator norm in the D norm
    ||C||_{D^{-1}}     = sigma_max(L^{-1} C L)
    gamma_dis          = sigma_min(L^{-1} A L^{-*}) discrete inf-sup constant
    C_dis = 1/gamma    = ||L* A^{-1} L||_2          discrete solution-operator norm
    ||A^{-1}||_{0->H}  = ||L* A^{-1} R||_2
    ||A^{-1}||_{0->0}  = ||R* A^{-1} R||_2

For real symmetric D, transposition keeps singular values, and
L^{-1} C^T L = (L^T C L^{-T})^T, so ||C^T||_{D^{-1}} = ||C||_D; also
||C^T||_2 = ||C||_2. :mod:`helmprec.bounds` uses these twin identities
to estimate one norm of each pair when both system matrices pass the
symmetry test ||A - A^T|| <= 1e-14 ||A|| (largest entries). The systems
of :mod:`helmprec.assemble` cache, per seed, the results of
:func:`discrete_inf_sup` and :func:`mass_extremes` next to their factors.

Each sigma_max is the top eigenvalue of a Hermitian pencil (X, B) with
X PSD and B PD, computed by Krylov iteration on B^{-1} X. That map is
self-adjoint in the B inner product, so the Ritz value comes with a
computable residual bound: |lambda - lambda_exact| <= ||B^{-1}X v -
lambda v||_B for a B-normalized iterate v. Iterations stop on that
bound (relative tolerance 1e-10 by default) and are capped; hitting the
cap raises, carrying the last estimate. Start vectors are seeded, so
all reported numbers are reproducible. Where B = I (Euclidean norms and
the mass-matrix extremes) Lanczos runs in standard mode, with no B
products or solves.

The extremes m_-^2 <= m_+^2 of M (the norm-equivalence constant m_+/m_-)
need care at the top, where the P1 mass spectrum clusters and Lanczos on
M stalls. m_+^2 is taken by shift-invert at the Gershgorin bound
sigma = max_i sum_j |M_ij| (for a mass matrix, the largest lumped mass):
sigma >= lambda_max(M) for any matrix, so sigma I - M is PSD and its
factor is certified like D and M. The top of (sigma I - M)^{-1} is never
less separated than the top of M, so the value of sigma affects only the
iteration count, never correctness. m_-^2 is 1/lambda_max(M^{-1})
through the factor of M.

Conjugations never form L^{-1} explicitly: the pencil formulation needs
only products and solves with D, M, and A. Solves go through sparse
factorizations under one fill-reducing ordering (minimum degree on the
pattern of A^T + A): complex LU for A, and for D and M a Cholesky-type
factorization P D P^T = L L^T of the symmetrically permuted matrix, so
L above stands for P^T L. Complex right-hand sides against the real D
and M factors are solved as one two-column real solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SingularSystemError,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAXIT = 50_000
DEFAULT_SEED = 0

_MODES = ("D", "D_inv", "euclid")

# Minimum-degree ordering of A^T + A (Liu, ACM TOMS 1985). The system and
# norm matrices are structurally symmetric, and on lexicographically
# numbered 2D meshes the natural order fills the whole band: this ordering
# cuts the factor fill of D, M and A there by more than half.
_FILL_ORDERING = "MMD_AT_PLUS_A"


def _square_csc(X) -> sp.csc_matrix:
    Xc = X.tocsc() if sp.issparse(X) else sp.csc_matrix(np.asarray(X))
    if Xc.shape[0] != Xc.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got {Xc.shape}")
    return Xc


@dataclass(frozen=True, eq=False)
class LUFactor:
    """Sparse LU factors of the square matrix ``A``; ``solve`` applies A^{-1}."""

    A: sp.csc_matrix
    superlu: spla.SuperLU

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self.superlu.solve(b, trans=trans)


def lu_factor(A, dtype=complex, **options) -> LUFactor:
    """Factor a square matrix once; an existing factor is returned unchanged.

    The package's only call into SuperLU: A is cast to ``dtype`` (system
    solves take complex right-hand sides), its columns are ordered by
    minimum degree on the pattern of A^T + A, and ``options`` pass through
    to ``splu``. An exactly singular matrix raises SingularSystemError.
    """
    if isinstance(A, LUFactor):
        return A
    Ac = _square_csc(A).astype(dtype, copy=False)
    try:
        return LUFactor(Ac, spla.splu(Ac, permc_spec=_FILL_ORDERING, **options))
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularSystemError("matrix is exactly singular") from exc
        raise


@dataclass(frozen=True, eq=False)
class GramFactor(LUFactor):
    """Cholesky-type factorization P D P^T = L L^T of a real SPD matrix D = ``A``.

    ``solve`` applies D^{-1} to real or complex vectors; ``norm``
    evaluates the induced vector norm sqrt(v* D v).
    """

    @property
    def D(self) -> sp.csc_matrix:
        return self.A

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        # the factorization is real and symmetric: a complex right-hand side
        # is solved as one real solve with its real and imaginary parts as columns
        b = np.asarray(b)
        if not np.iscomplexobj(b):
            return self.superlu.solve(b)
        cols = b.reshape(b.shape[0], -1)
        k = cols.shape[1]
        x = self.superlu.solve(np.hstack([cols.real, cols.imag]))
        return (x[:, :k] + 1j * x[:, k:]).reshape(b.shape)

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.vdot(x, self.A @ y))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, x).real, 0.0))


def gram_factor(D) -> GramFactor:
    """Factor a real symmetric positive definite matrix as P D P^T = L L^T.

    P is the fill-reducing symmetric permutation of :func:`lu_factor`.
    SuperLU runs in symmetric mode with diagonal pivots only, so rows
    are permuted like columns unless a diagonal pivot is exactly zero;
    for SPD input the result is the Cholesky factorization of P D P^T
    (L scaled by the square root of each pivot). Non-SPD input surfaces
    as a row interchange that differs from the column permutation or as
    a non-positive pivot. An existing Gram factor is returned unchanged.
    """
    if isinstance(D, GramFactor):
        return D
    Dc = _square_csc(D)
    if np.iscomplexobj(Dc):
        if Dc.nnz and abs(Dc.imag).max() > 0:
            raise InvalidArgumentError("gram_factor needs a real matrix")
        Dc = Dc.real.tocsc()
        Dc.data = np.ascontiguousarray(Dc.data)  # .real is a strided view
    scale = abs(Dc).max() if Dc.nnz else 0.0
    asym = abs(Dc - Dc.T)
    if Dc.nnz and asym.nnz and asym.max() > 1e-12 * scale:
        raise InvalidArgumentError("gram_factor needs a symmetric matrix")
    try:
        f = lu_factor(Dc, dtype=float, diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except SingularSystemError as exc:
        raise NotPositiveDefiniteError(f"factorization failed: {exc}") from exc
    lu = f.superlu
    # Rows permuted like columns make LU = P D P^T an LDL^T factorization,
    # and a symmetric matrix with such a factorization and positive pivots
    # is SPD.
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError("factorization needed row pivoting; not SPD")
    piv = lu.U.diagonal().real
    if not np.all(piv > 0) or not np.all(np.isfinite(piv)):
        raise NotPositiveDefiniteError(
            f"non-positive pivot encountered (min {piv.min():g})"
        )
    return GramFactor(f.A, lu)


@dataclass(frozen=True)
class MassExtremes:
    """Extreme eigenvalues m_-^2 <= m_+^2 of the mass matrix.

    m_+/m_- is the norm-equivalence constant between the Euclidean norm
    of a coefficient vector and the L2 norm of its function; its square
    is the condition number of M.
    """

    m_minus_sq: float
    m_plus_sq: float

    @property
    def m_minus(self) -> float:
        return math.sqrt(self.m_minus_sq)

    @property
    def m_plus(self) -> float:
        return math.sqrt(self.m_plus_sq)

    @property
    def ratio(self) -> float:
        return self.m_plus / self.m_minus


@dataclass(frozen=True)
class InfSupReport:
    """Discrete inf-sup constant gamma_dis and its reciprocal C_dis."""

    gamma: float
    c_dis: float
    iterations: int
    residual: float
    singular: bool = False


SINGULAR_INF_SUP = InfSupReport(
    gamma=0.0, c_dis=math.inf, iterations=0, residual=0.0, singular=True
)


@dataclass(frozen=True)
class SolutionOperatorNorms:
    """The M-weighted solution-operator norms (L2->H, L2->L2); the third,
    dual->H, is the C_dis of :class:`InfSupReport`."""

    h0_to_h: float
    h0_to_h0: float


_DENSE_PENCIL_N = 8


def _pencil_lambda_max(
    apply_x: Callable[[np.ndarray], np.ndarray],
    apply_b: Optional[Callable[[np.ndarray], np.ndarray]],
    solve_b: Optional[Callable[[np.ndarray], np.ndarray]],
    n: int,
    tol: float,
    max_it: int,
    seed: int,
    dtype=complex,
) -> tuple[float, int, float]:
    """Top eigenvalue of the Hermitian pencil X v = lambda B v (X PSD, B PD).

    Krylov iteration on B^{-1} X in the B inner product (ARPACK Lanczos
    with a seeded start vector); plain power iteration cannot be used
    here because the extreme eigenvalues of finite-element mass and
    Gram matrices cluster, which stalls single-vector iterations.
    ``apply_b = solve_b = None`` means B = I: Lanczos then runs in
    standard mode, with no B products or solves. ``dtype=float`` runs a
    real symmetric X from a real start vector.
    Returns (lambda, operator applications, final residual in the B
    norm); hitting the cap raises, carrying the last estimate.
    """
    if apply_b is None:
        apply_b = solve_b = lambda v: v
        b_kwargs = {}
    else:
        b_kwargs = {
            "M": spla.LinearOperator((n, n), matvec=apply_b, dtype=dtype),
            "Minv": spla.LinearOperator((n, n), matvec=solve_b, dtype=dtype),
        }
    if n <= _DENSE_PENCIL_N:
        eye = np.eye(n, dtype=dtype)
        X = np.column_stack([apply_x(eye[:, j]) for j in range(n)])
        B = np.column_stack([apply_b(eye[:, j]) for j in range(n)])
        import scipy.linalg as sla

        vals = sla.eigh(
            0.5 * (X + X.conj().T), 0.5 * (B + B.conj().T), eigvals_only=True
        )
        return max(float(vals[-1]), 0.0), n, 0.0

    counter = {"n": 0}

    def counted_x(v):
        counter["n"] += 1
        return apply_x(v)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    if not np.any(apply_x(v0)):
        # X annihilates a random probe: the (PSD) pencil top is zero.
        return 0.0, 1, 0.0
    ncv = min(n, 20)
    x_op = spla.LinearOperator((n, n), matvec=counted_x, dtype=dtype)
    try:
        vals, vecs = spla.eigsh(
            x_op,
            k=1,
            which="LA",
            v0=v0,
            ncv=ncv,
            tol=tol,
            maxiter=max(100, max_it // ncv),
            **b_kwargs,
        )
    except spla.ArpackNoConvergence as exc:
        est = float(exc.eigenvalues[-1]) if len(exc.eigenvalues) else None
        raise NoConvergenceError(
            f"eigensolver did not reach tolerance {tol:g} within the "
            f"iteration cap ({counter['n']} operator applications)",
            estimate=math.sqrt(est) if est and est > 0 else est,
            iterations=counter["n"],
        ) from exc
    lam = max(float(vals[0]), 0.0)
    v = vecs[:, 0]
    bv = apply_b(v)
    nb = math.sqrt(max(np.vdot(v, bv).real, 0.0))
    if nb > 0:
        v = v / nb
    r = solve_b(apply_x(v)) - lam * v
    res = math.sqrt(max(np.vdot(r, apply_b(r)).real, 0.0))
    return lam, counter["n"], res


def _operator_pair(op):
    """(matvec, adjoint matvec, n) for an ndarray/sparse/LinearOperator."""
    if isinstance(op, spla.LinearOperator):
        return op.matvec, op.rmatvec, op.shape[0]
    if sp.issparse(op):
        oph = op.getH().tocsr()
        opc = op.tocsr()
        return (lambda x: opc @ x), (lambda x: oph @ x), op.shape[0]
    arr = np.asarray(op)
    arrh = arr.conj().T
    return (lambda x: arr @ x), (lambda x: arrh @ x), arr.shape[0]


def weighted_operator_norm(
    op,
    gram: Optional[GramFactor],
    mode: str,
    tol: float = DEFAULT_TOL,
    max_it: int = DEFAULT_MAXIT,
    seed: int = DEFAULT_SEED,
) -> float:
    """Operator norm of ``op`` in the D norm, the D^{-1} norm, or Euclidean.

    ``op`` may be an ndarray, a sparse matrix, or a LinearOperator with
    ``matvec`` and ``rmatvec`` (the adjoint is required: the norm is a
    largest singular value, computed through the normal operator).
    ``mode`` selects 'D', 'D_inv', or 'euclid'; the Gram factor is
    ignored for 'euclid'.
    """
    if mode not in _MODES:
        raise InvalidArgumentError(f"mode must be one of {_MODES}, got {mode!r}")
    mv, rmv, n = _operator_pair(op)
    if mode == "euclid":
        apply_x = lambda v: rmv(mv(v))
        lam, _, _ = _pencil_lambda_max(apply_x, None, None, n, tol, max_it, seed)
        return math.sqrt(lam)
    if gram is None:
        raise InvalidArgumentError(f"mode {mode!r} requires a Gram factor")
    if gram.n != n:
        raise InvalidArgumentError(f"operator dim {n} != Gram factor dim {gram.n}")
    if mode == "D":
        # sigma_max(L* C L^{-*})^2 = lambda_max(C* D C, D)
        apply_x = lambda v: rmv(gram.apply(mv(v)))
        lam, _, _ = _pencil_lambda_max(
            apply_x, gram.apply, gram.solve, n, tol, max_it, seed
        )
    else:
        # sigma_max(L^{-1} C L)^2 = lambda_max(C* D^{-1} C, D^{-1})
        apply_x = lambda v: rmv(gram.solve(mv(v)))
        lam, _, _ = _pencil_lambda_max(
            apply_x, gram.solve, gram.apply, n, tol, max_it, seed
        )
    return math.sqrt(lam)


def discrete_inf_sup(
    A,
    gram: GramFactor,
    tol: float = DEFAULT_TOL,
    max_it: int = DEFAULT_MAXIT,
    seed: int = DEFAULT_SEED,
) -> InfSupReport:
    """Discrete inf-sup constant sigma_min(L^{-1} A L^{-*}) of a system.

    Computed as the reciprocal of ||L* A^{-1} L||_2 through the LU
    factors of A (``A`` may be a matrix or its :class:`LUFactor`); an
    exactly singular A yields gamma = 0 (a legitimate outcome near
    discrete eigenvalues), not an exception.
    """
    try:
        lu = lu_factor(A)
    except SingularSystemError:
        return SINGULAR_INF_SUP
    n = lu.n
    if gram.n != n:
        raise InvalidArgumentError("A and Gram factor dimensions disagree")
    # C_dis^2 = lambda_max(A^{-*} D A^{-1}, D^{-1})
    apply_x = lambda v: lu.solve(gram.apply(lu.solve(v)), trans="H")
    lam, it, res = _pencil_lambda_max(
        apply_x, gram.solve, gram.apply, n, tol, max_it, seed
    )
    c_dis = math.sqrt(lam)
    if c_dis == 0.0:
        return InfSupReport(
            gamma=0.0, c_dis=math.inf, iterations=it, residual=res, singular=True
        )
    return InfSupReport(gamma=1.0 / c_dis, c_dis=c_dis, iterations=it, residual=res)


def mass_extremes(
    M,
    tol: float = DEFAULT_TOL,
    max_it: int = DEFAULT_MAXIT,
    seed: int = DEFAULT_SEED,
) -> MassExtremes:
    """Extreme eigenvalues of a real SPD mass matrix (or its Gram factor).

    The top of a P1 mass spectrum is clustered (relative gap 6e-7 between
    the top two eigenvalues at n = 2,830 in 1D), which stalls Lanczos on
    M itself. lambda_max is therefore taken by shift-invert at the
    Gershgorin bound sigma = max_i sum_j |M_ij| (the largest lumped mass).
    sigma >= lambda_max for every matrix, so sigma I - M is PSD; it is
    factored once, under the SPD certificate of :func:`gram_factor`, and
    lambda_max = sigma - 1/tau for the top eigenvalue tau of
    (sigma I - M)^{-1}. With lambda_1 >= ... >= lambda_n the spectrum of
    M and g = lambda_1 - lambda_2, the top gap ratio of that inverse,
    g (sigma - lambda_n) / ((sigma - lambda_1)(lambda_2 - lambda_n)), is
    never below M's own g / (lambda_2 - lambda_n): correctness and
    convergence never depend on how tight sigma is. A shifted factor that
    fails the certificate means sigma I - M is singular to working
    precision, so sigma is itself the top eigenvalue (as when every row
    sum is equal). lambda_min is 1/lambda_max(M^{-1}) through the factor
    of M. Both eigensolves are real standard-mode (B = I) Lanczos runs;
    the shifted factor is not kept.
    """
    g = gram_factor(M)  # also certifies SPD
    n = g.n
    sigma = float(abs(g.D).sum(axis=1).max())
    try:
        shifted = gram_factor(sigma * sp.identity(n, format="csc") - g.D)
    except NotPositiveDefiniteError:
        lam_max = sigma
    else:
        tau, _, _ = _pencil_lambda_max(
            shifted.solve, None, None, n, tol, max_it, seed, dtype=float
        )
        lam_max = sigma - 1.0 / tau
    inv_max, _, _ = _pencil_lambda_max(
        g.solve, None, None, n, tol, max_it, seed, dtype=float
    )
    if inv_max <= 0:
        raise NotPositiveDefiniteError("mass matrix has non-positive spectrum")
    return MassExtremes(m_minus_sq=1.0 / inv_max, m_plus_sq=lam_max)


def solution_operator_norms(
    A,
    gram_d: GramFactor,
    gram_m: GramFactor,
    tol: float = DEFAULT_TOL,
    max_it: int = DEFAULT_MAXIT,
    seed: int = DEFAULT_SEED,
) -> SolutionOperatorNorms:
    """The two M-weighted discrete solution-operator norms of A^{-1}.

    ||L* A^{-1} R||_2 and ||R* A^{-1} R||_2 for D = L L^T and M = R R^T;
    ``A`` may be a matrix or its :class:`LUFactor`. The third norm of the
    chain, ||L* A^{-1} L||_2, is C_dis of :func:`discrete_inf_sup` (the
    same pencil). Raises on singular A.
    """
    lu = lu_factor(A)
    n = lu.n
    if gram_d.n != n or gram_m.n != n:
        raise InvalidArgumentError("Gram factor dimensions disagree with A")

    def z_apply(metric_mid):
        return lambda v: lu.solve(metric_mid(lu.solve(v)), trans="H")

    # ||L* A^{-1} R||^2 = lambda_max(A^{-*} D A^{-1}, M^{-1})
    lam_h0h, _, _ = _pencil_lambda_max(
        z_apply(gram_d.apply), gram_m.solve, gram_m.apply, n, tol, max_it, seed
    )
    # ||R* A^{-1} R||^2 = lambda_max(A^{-*} M A^{-1}, M^{-1})
    lam_h0h0, _, _ = _pencil_lambda_max(
        z_apply(gram_m.apply), gram_m.solve, gram_m.apply, n, tol, max_it, seed
    )
    return SolutionOperatorNorms(
        h0_to_h=math.sqrt(lam_h0h), h0_to_h0=math.sqrt(lam_h0h0)
    )
