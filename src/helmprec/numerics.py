"""Weighted matrix norms, inf-sup constants, and mass-matrix extremes.

Everything here reduces a functional-analytic quantity to a singular
value of a conjugated matrix. With D = L L^T the Gram (energy-norm)
matrix and M = R R^T the mass matrix (L, R real factors, never formed):

    ||C||_D            = sigma_max(L^T C L^{-T})    operator norm in the D norm
    ||C||_{D^{-1}}     = sigma_max(L^{-1} C L)
    gamma_dis          = sigma_min(L^{-1} A L^{-T}) discrete inf-sup constant
    C_dis = 1/gamma    = ||L^T A^{-1} L||_2         discrete solution-operator norm
    ||A^{-1}||_{0->H}  = ||L^T A^{-1} R||_2
    ||A^{-1}||_{0->0}  = ||R^T A^{-1} R||_2

For real symmetric D, transposition keeps singular values, and
L^{-1} C^T L = (L^T C L^{-T})^T, so ||C^T||_{D^{-1}} = ||C||_D; also
||C^T||_2 = ||C||_2. :mod:`helmprec.bounds` uses these twin identities
to estimate one norm of each pair when both system matrices are exactly
symmetric (:func:`is_symmetric`).

Each sigma_max^2 is the top eigenvalue nu of W B, with W Hermitian PSD
and B the norm matrix (B = I for the Euclidean quantities). W B is
self-adjoint in <u, v>_B = v^H B u and similar to the normal operator of
the conjugated matrix above:

    C_dis^2             = lambda_max(A^{-H} D A^{-1} . D)
    ||A^{-1}||_{0->H}^2 = lambda_max(A^{-H} D A^{-1} . M)
    ||A^{-1}||_{0->0}^2 = lambda_max(A^{-H} M A^{-1} . M)
    ||C||_{D^{-1}}^2    = lambda_max(C^H D^{-1} C . D)
    ||C||_D^2           = ||C^H||_{D^{-1}}^2 = lambda_max(C D^{-1} C^H . D)

Lanczos in the B inner product takes products with B only, neither a
solve with B nor a factor of it; ARPACK runs it as its shift-invert mode
at sigma = 0 with OPinv = W (:func:`_pencil_lambda_max`), in real
arithmetic on the float64 view of complex vectors, where the Hermitian
W is real symmetric. So C_dis and the solution-operator norms take two
solves with A per application and never factor D or M, and a
D-weighted operator norm takes one D solve.
The Ritz value comes with the residual bound |nu - nu_exact| <=
||W B v - nu v||_B for the B-unit Ritz vector v. Iterations stop on it
at the fixed relative tolerance ``DEFAULT_TOL`` = 1e-10 and are capped
(``DEFAULT_MAXIT``); hitting the cap raises, with no estimate (a capped
ARPACK run has no Ritz value).
Start vectors are seeded, so all reported numbers are reproducible.

The extremes m_-^2 <= m_+^2 of M (the norm-equivalence constant m_+/m_-)
need care at the top, where the P1 mass spectrum clusters and Lanczos on
M stalls. m_+^2 is taken by shift-invert at the Gershgorin bound
sigma = max_i sum_j |M_ij| (for a mass matrix, the largest lumped mass):
sigma >= lambda_max(M) for any matrix, so sigma I - M is PSD and its
factor is certified like D and M. The top of (sigma I - M)^{-1} is never
less separated than the top of M, so the value of sigma affects only the
iteration count, never correctness. m_-^2 is 1/lambda_max(M^{-1})
through the factor of M, made once the shifted one is freed.

Solves go through SuperLU factorizations in symmetric mode under one
fill-reducing ordering (minimum degree on the pattern of A^T + A):
complex LU for A, and for D and M an LDL^T-type factorization
P D P^T = L_0 U_0 certified SPD by its pivots (:func:`gram_factor`).
Complex vectors against the real factors are solved as two real
columns, and products of the real D and M with complex vectors are one
pass over the matrix with their float64 view, with no complex copy.

A Galerkin Helmholtz matrix is complex symmetric, A^T = A, and an LU
factor tests that once, exactly (:func:`is_symmetric`). Its
solves then run SuperLU's transposed sweep, which was about 25% faster
per column than the plain one at n = 1,681-9,409: A^{-1} b is the
solution of A^T x = b, and A^{-H} b = conj(A^{-1} conj(b)). A matrix
that is not exactly symmetric, such as an imported one, is solved as
asked.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
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
# SuperLU's symmetric mode: at the default threshold a diagonal pivot is
# taken only when it is the largest of its column, so partial pivoting is
# kept, and the fill of a 2D Helmholtz A drops by 5-19% (n = 1,681-9,409).
_SYMMETRIC_MODE = {"SymmetricMode": True}


def _square_csc(X) -> sp.csc_matrix:
    Xc = X.tocsc() if sp.issparse(X) else sp.csc_matrix(np.asarray(X))
    if Xc.shape[0] != Xc.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got {Xc.shape}")
    return Xc


def nearly_equal(X, Y) -> bool:
    """max |X - Y| <= 1e-12 times the largest entry of X or Y, for sparse X
    and Y; an exactly zero difference passes, so two zero matrices are equal."""
    diff = abs(X - Y)
    if diff.nnz == 0:
        return True
    scale = max(abs(X).max(), abs(Y).max(), 1e-300)
    return diff.max() <= 1e-12 * scale


def is_symmetric(A) -> bool:
    """A^T = A exactly, for a sparse A: no entry of A - A^T is nonzero."""
    return (A != A.T).nnz == 0


@dataclass(frozen=True, eq=False)
class LUFactor:
    """Sparse LU factors of the square matrix ``A``; ``solve`` applies A^{-1},
    A^{-T} (``trans="T"``) or A^{-H} (``trans="H"``)."""

    A: sp.csc_matrix
    superlu: spla.SuperLU

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def symmetric(self) -> bool:
        """A^T = A exactly (:func:`is_symmetric`), tested once."""
        return is_symmetric(self.A)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        if not self.symmetric:
            return self.superlu.solve(b, trans=trans)
        # SuperLU's transposed sweep is the faster one (about 25% per
        # column at n = 1,681-9,409), and for A = A^T it solves A x = b;
        # A^H = conj(A), so A^H x = b is conj(A^{-1} conj(b)).
        if trans == "H":
            return np.conj(self.superlu.solve(np.conj(b), trans="T"))
        return self.superlu.solve(b, trans="T")


def lu_factor(A, dtype=complex, **options) -> LUFactor:
    """Factor a square matrix.

    The package's only call into SuperLU: A is cast to ``dtype`` (system
    solves take complex right-hand sides), its columns are ordered by
    minimum degree on the pattern of A^T + A, SuperLU runs in symmetric
    mode, and ``options`` pass through to ``splu``. An exactly singular
    matrix raises SingularSystemError.
    """
    Ac = _square_csc(A).astype(dtype, copy=False)
    try:
        return LUFactor(Ac, spla.splu(Ac, permc_spec=_FILL_ORDERING,
                                      options=_SYMMETRIC_MODE, **options))
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularSystemError("matrix is exactly singular") from exc
        raise


def _real_product(X, x: np.ndarray) -> np.ndarray:
    """X @ x for a real sparse X; a complex x is multiplied as the (n, 2k)
    float64 view of its real and imaginary parts, in one pass over X and
    with no complex copy of X, bit for bit the product of each part."""
    if not np.iscomplexobj(x):
        return X @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = X @ x.view(np.float64).reshape(x.shape[0], -1)
    return y.view(np.complex128).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class GramFactor(LUFactor):
    """Certified factorization of a real SPD matrix D = ``A``.

    ``solve`` applies D^{-1} to real or complex vectors, ``apply`` applies
    D, and ``norm`` evaluates the induced vector norm sqrt(v* D v).
    """

    @property
    def D(self) -> sp.csc_matrix:
        return self.A

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _real_product(self.A, x)

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

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(np.vdot(x, self.apply(x)).real, 0.0))


def gram_factor(D) -> GramFactor:
    """Factor a real symmetric positive definite matrix, certifying it SPD.

    P is the fill-reducing symmetric permutation of :func:`lu_factor`.
    SuperLU takes diagonal pivots only, so rows are permuted like columns
    unless a diagonal pivot is exactly zero; for SPD input the result
    P D P^T = L_0 U_0 is an LDL^T factorization with positive pivots.
    Non-SPD input surfaces as a row interchange that differs from the
    column permutation or as a non-positive pivot.
    """
    Dc = _square_csc(D)
    if np.iscomplexobj(Dc):
        if Dc.nnz and abs(Dc.imag).max() > 0:
            raise InvalidArgumentError("gram_factor needs a real matrix")
        Dc = Dc.real.tocsc()
        Dc.data = np.ascontiguousarray(Dc.data)  # .real is a strided view
    if not nearly_equal(Dc, Dc.T):
        raise InvalidArgumentError("gram_factor needs a symmetric matrix")
    try:
        f = lu_factor(Dc, dtype=float, diag_pivot_thresh=0.0)
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

# ARPACK's Lanczos basis size (ncv), chosen by measurement; see
# _pencil_lambda_max.
_NCV = 15


class _ZeroOperator(Exception):
    """The operator annihilated the first vector ARPACK gave it."""


def _never_applied(x):
    raise AssertionError("shift-invert mode never applies A")


def _pencil_lambda_max(
    apply_w: Callable[[np.ndarray], np.ndarray],
    n: int,
    seed: int,
    dtype=complex,
    b=None,
) -> tuple[float, int, float]:
    """Top eigenvalue nu of W B, for the Hermitian PSD operator W applied by
    ``apply_w`` and the Hermitian PD matrix ``b`` (None for B = I).

    ARPACK's shift-invert mode at sigma = 0, given OPinv = W and M = B,
    runs Lanczos on W B in the B inner product from a seeded start vector
    (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998, mode 3),
    never applies its A, and reports 1/nu. Power iteration would stall on
    the clustered extremes of finite-element mass and Gram matrices.
    ARPACK sees float64 vectors only, so it takes its symmetric driver: a
    complex W (the default ``dtype``) acts on the interleaved float view of
    complex n-vectors and B on its (n, 2) view, where W B is B-symmetric on
    R^{2n} with every eigenvalue doubled; the complex start vector is viewed alike.
    ``dtype=float`` runs a real symmetric W from a real start vector.
    Iterations stop at the relative tolerance ``DEFAULT_TOL`` and are
    capped by ``DEFAULT_MAXIT`` applications, both read per call.
    Returns (nu, applications of W, residual ||W B v - nu v||_B of the
    B-unit Ritz vector v). Hitting the cap raises with the applications of
    W; its estimate, ARPACK's last converged Ritz value (:func:`_estimate_as`
    converts it), is None, as a capped run with k = 1 has none.

    When W maps the first vector it is given (the start vector, or B
    times it) to exactly zero, it annihilates a random vector, so the PSD
    operator's top is zero and (0.0, 1, 0.0) is returned at once. Other
    runs take ARPACK's applications of W plus one for the residual.

    The basis size ncv is also the restart length: ARPACK tests
    convergence only once it has built ncv vectors, so a run ends only at
    the end of a restart cycle, and a larger basis can overshoot
    convergence. ncv = 15 gave the fewest solves with A over the three
    benchmark workloads among ncv = 8..20 under the symmetric driver:
    3,068 at seed 0 (3,100 at seed 1; 3,603 and 3,635 LU solves in all),
    against 3,132 (3,132) at 14, 3,148 (3,160) at 12, 3,156 at 19, 3,160
    (3,128) at 16 and 3,208 (3,208) at 20.
    """
    if n <= _DENSE_PENCIL_N:
        eye = np.eye(n, dtype=dtype)
        W = np.column_stack([apply_w(eye[:, j]) for j in range(n)])
        W = 0.5 * (W + W.conj().T)
        B = np.eye(n) if b is None else sp.csr_matrix(b).toarray()
        vals = sla.eigh(B @ W @ B, B, eigvals_only=True)
        return max(float(vals[-1]), 0.0), n, 0.0

    def real_w(x):
        return np.ascontiguousarray(apply_w(x.view(dtype)), dtype=dtype).view(np.float64)

    count = 0

    def counted_w(x):
        nonlocal count
        count += 1
        y = real_w(x)
        if count == 1 and not np.any(y):
            raise _ZeroOperator
        return y

    def apply_b(x):
        return x if b is None else (b @ x.reshape(n, -1)).reshape(x.shape)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    x0 = v0.view(np.float64)
    ncv = min(n, _NCV)
    tol = DEFAULT_TOL

    def operator(matvec):
        return spla.LinearOperator((x0.size,) * 2, matvec=matvec, dtype=np.float64)

    try:
        vals, vecs = spla.eigsh(
            operator(_never_applied),
            k=1,
            sigma=0.0,
            OPinv=operator(counted_w),
            M=None if b is None else operator(apply_b),
            which="LM",
            v0=x0,
            ncv=ncv,
            tol=tol,
            maxiter=max(100, DEFAULT_MAXIT // ncv),
        )
    except _ZeroOperator:
        return 0.0, 1, 0.0
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(
            f"eigensolver did not reach tolerance {tol:g} within the "
            f"iteration cap ({count} operator applications)",
            estimate=1.0 / float(exc.eigenvalues[-1]) if len(exc.eigenvalues) else None,
            iterations=count,
        ) from exc
    nu = max(1.0 / float(vals[0]), 0.0)
    v = vecs[:, 0]
    bv = apply_b(v)
    r = real_w(bv) - nu * v  # the residual of v, scaled below to a B-unit v
    res = math.sqrt(max(r @ apply_b(r), 0.0) / (v @ bv))
    return nu, count, res


@contextmanager
def _estimate_as(convert: Callable[[float], Optional[float]]):
    """Re-express the raw Ritz value that a NoConvergenceError from
    :func:`_pencil_lambda_max` carries as the quantity the caller returns."""
    try:
        yield
    except NoConvergenceError as exc:
        if exc.estimate is not None:
            exc.estimate = convert(exc.estimate)
        raise


def _sigma_max(
    apply_w: Callable[[np.ndarray], np.ndarray], n: int, seed: int, b=None
) -> tuple[float, int, float]:
    """Largest singular value sigma of an operator whose sigma^2 is the top
    eigenvalue of W B (see :func:`_pencil_lambda_max`): (sigma, operator
    applications, eigenvalue residual)."""
    with _estimate_as(lambda nu: math.sqrt(max(nu, 0.0))):
        nu, it, res = _pencil_lambda_max(apply_w, n, seed, b=b)
    return math.sqrt(nu), it, res


def _norm_matrix(X, n: int) -> sp.spmatrix:
    """The n x n real matrix of a norm."""
    X = sp.csr_matrix(X)
    if X.shape != (n, n):
        raise InvalidArgumentError(f"norm matrix of shape {X.shape}, expected {(n, n)}")
    if np.iscomplexobj(X):  # products with it run on float64 views
        raise InvalidArgumentError("norm matrix must be real")
    return X


def weighted_operator_norm(
    op, gram: Optional[GramFactor], mode: str, seed: int = DEFAULT_SEED
) -> float:
    """Operator norm of ``op`` in the D norm, the D^{-1} norm, or Euclidean.

    ``op`` may be an ndarray, a sparse matrix, or a LinearOperator with
    ``matvec`` and ``rmatvec`` (the adjoint is required: the norm is a
    largest singular value, computed through the normal operator).
    ``mode`` selects 'D', 'D_inv', or 'euclid'; the Gram factor is
    ignored for 'euclid'. The weighted modes make one D solve and one
    product with D per operator application.
    """
    if mode not in _MODES:
        raise InvalidArgumentError(f"mode must be one of {_MODES}, got {mode!r}")
    op = spla.aslinearoperator(op)
    mv, rmv, n = op.matvec, op.rmatvec, op.shape[0]
    if mode == "euclid":
        return _sigma_max(lambda v: rmv(mv(v)), n, seed)[0]
    if gram is None:
        raise InvalidArgumentError(f"mode {mode!r} requires a Gram factor")
    if gram.n != n:
        raise InvalidArgumentError(f"operator dim {n} != Gram factor dim {gram.n}")
    # ||C||_{D^{-1}}^2 = lambda_max(C^H D^{-1} C D), and ||C||_D = ||C^H||_{D^{-1}}:
    # lambda_max(C D^{-1} C^H D)
    first, then = (rmv, mv) if mode == "D" else (mv, rmv)
    apply_w = lambda v: then(gram.solve(first(v)))
    return _sigma_max(apply_w, n, seed, b=gram.D)[0]


def _solution_normal(lu: LUFactor, mid) -> Callable[[np.ndarray], np.ndarray]:
    """W = A^{-H} X A^{-1} for the norm matrix X = ``mid``."""
    return lambda v: lu.solve(_real_product(mid, lu.solve(v)), trans="H")


def discrete_inf_sup(lu: LUFactor, D, seed: int = DEFAULT_SEED) -> InfSupReport:
    """Discrete inf-sup constant sigma_min(L^{-1} A L^{-T}) of a system.

    Computed as the reciprocal of C_dis = ||L^T A^{-1} L||_2, the square
    root of the top eigenvalue of A^{-H} D A^{-1} D in the D inner
    product, through the LU factors ``lu`` of A and products with the
    matrix D, which is never factored here. A NoConvergenceError carries
    the estimate of C_dis, or None after a capped ARPACK run.
    """
    n = lu.n
    D = _norm_matrix(D, n)
    c_dis, it, res = _sigma_max(_solution_normal(lu, D), n, seed, b=D)
    if c_dis == 0.0:
        return InfSupReport(
            gamma=0.0, c_dis=math.inf, iterations=it, residual=res, singular=True
        )
    return InfSupReport(gamma=1.0 / c_dis, c_dis=c_dis, iterations=it, residual=res)


def mass_extremes(M, seed: int = DEFAULT_SEED) -> MassExtremes:
    """Extreme eigenvalues of a real SPD mass matrix.

    The top of a P1 mass spectrum is clustered (relative gap 6e-7 between
    the top two eigenvalues at n = 2,830 in 1D), which stalls Lanczos on
    M itself. lambda_max is therefore taken by shift-invert at the
    Gershgorin bound sigma = max_i sum_j |M_ij| (the largest lumped mass).
    sigma >= lambda_max for every matrix, so sigma I - M is PSD; it is
    factored under the SPD certificate of :func:`gram_factor`, and
    lambda_max = sigma - 1/tau for the top eigenvalue tau of
    (sigma I - M)^{-1}. With lambda_1 >= ... >= lambda_n the spectrum of
    M and g = lambda_1 - lambda_2, the top gap ratio of that inverse,
    g (sigma - lambda_n) / ((sigma - lambda_1)(lambda_2 - lambda_n)), is
    never below M's own g / (lambda_2 - lambda_n): correctness and
    convergence never depend on how tight sigma is. A shifted factor that
    fails the certificate means sigma I - M is singular to working
    precision, so sigma is itself the top eigenvalue (as when every row
    sum is equal). lambda_min is 1/lambda_max(M^{-1}) through the factor
    of M, which certifies M SPD. Both eigensolves are real Lanczos runs
    with B = I, and the shifted factor is freed before M is factored. A
    NoConvergenceError carries the estimate of m_+^2 or m_-^2, whichever
    eigensolve stopped, or None after a capped ARPACK run.
    """
    X = _square_csc(M)
    n = X.shape[0]
    sigma = float(abs(X).sum(axis=1).max())
    try:
        shifted = gram_factor(sigma * sp.identity(n, format="csc") - X)
    except NotPositiveDefiniteError:
        lam_max = sigma
    else:
        with _estimate_as(lambda tau: sigma - 1.0 / tau if tau > 0 else None):
            tau, _, _ = _pencil_lambda_max(shifted.solve, n, seed, dtype=float)
        del shifted
        lam_max = sigma - 1.0 / tau
    g = gram_factor(X)  # certifies SPD
    with _estimate_as(lambda inv: 1.0 / inv if inv > 0 else None):
        inv_max, _, _ = _pencil_lambda_max(g.solve, n, seed, dtype=float)
    if inv_max <= 0:
        raise NotPositiveDefiniteError("mass matrix has non-positive spectrum")
    return MassExtremes(m_minus_sq=1.0 / inv_max, m_plus_sq=lam_max)


def solution_operator_norms(
    lu: LUFactor, D, M, seed: int = DEFAULT_SEED
) -> SolutionOperatorNorms:
    """The two M-weighted discrete solution-operator norms of A^{-1}.

    ||L^T A^{-1} R||_2 and ||R^T A^{-1} R||_2 for D = L L^T and M = R R^T:
    the roots of the top eigenvalues of A^{-H} D A^{-1} M and A^{-H} M
    A^{-1} M, through the LU factors ``lu`` of A and products with the
    matrices D and M. The third norm of the chain, ||L^T A^{-1} L||_2, is
    C_dis of :func:`discrete_inf_sup`.
    """
    n = lu.n
    D, M = _norm_matrix(D, n), _norm_matrix(M, n)
    h0_to_h, _, _ = _sigma_max(_solution_normal(lu, D), n, seed, b=M)
    h0_to_h0, _, _ = _sigma_max(_solution_normal(lu, M), n, seed, b=M)
    return SolutionOperatorNorms(h0_to_h=h0_to_h, h0_to_h0=h0_to_h0)
