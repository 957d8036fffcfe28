"""Weighted matrix norms, the solution-operator norm C_dis, mass extremes.

Everything here reduces a functional-analytic quantity to a singular
value of a conjugated matrix. With D = L L^T the Gram (energy-norm)
matrix and M = R R^T the mass matrix (L, R real factors, never formed):

    ||C||_D            = sigma_max(L^T C L^{-T})    operator norm in the D norm
    ||C||_{D^{-1}}     = sigma_max(L^{-1} C L)
    gamma_dis          = sigma_min(L^{-1} A L^{-T}) discrete inf-sup constant
    C_dis = 1/gamma    = ||L^T A^{-1} L||_2         discrete solution-operator norm
    ||A^{-1}||_{0->H}  = ||L^T A^{-1} R||_2
    ||A^{-1}||_{0->0}  = ||R^T A^{-1} R||_2

C_dis is passed as one float, and gamma_dis as 1/C_dis; a singular A,
which has no LU factors, has C_dis = inf (gamma_dis = 0).

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
One path serves every n. ARPACK runs on W divided by a power of 2 taken
from its first image, so each nu that is a normal float is estimated as
at scale 1, with the residual bound |nu - nu_exact| <= ||W B v - nu v||_B
for the B-unit Ritz vector v. Iterations stop on it at the relative
tolerance ``DEFAULT_TOL`` = 1e-10 and are capped at ``DEFAULT_MAXIT``
applications of W. A run that ends without an estimate (at the cap, on
an ARPACK failure, or on a nu outside the normal floats) raises a typed
error. Start and restart vectors are drawn from one generator of the
seed, so all reported numbers are reproducible.

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
Both are one :class:`LUFactor` type. A real factor solves a complex
vector as one plain solve on two real columns. Products of the real D
and M with complex vectors go through a complex twin of the matrix
(:func:`complex_twin`): its entries as complex numbers on its own index
arrays, so each product is one complex pass over the matrix. The
function that runs an eigensolve or a solver builds the twins it needs
once, and they are dropped when it returns.

A Galerkin Helmholtz matrix is complex symmetric, A^T = A, and D and M
are real symmetric; a factor tests that once, exactly
(:func:`is_symmetric`). Its other solves then run SuperLU's transposed
sweep, which was about 25% faster per column than the plain one for A
at n = 1,681-9,409: A^{-1} b is the solution of A^T x = b, and
A^{-H} b = conj(A^{-1} conj(b)). A matrix that is not exactly
symmetric, such as an imported one, is solved as asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SingularSystemError,
    UnderflowError,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAXIT = 50_000
DEFAULT_SEED = 0

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
        if self.A.dtype.kind == "f" and np.iscomplexobj(b):
            # a real factor solves a complex right-hand side as one plain
            # solve with its real and imaginary parts as columns: SuperLU
            # blocks the plain sweep over columns but not the transposed
            # one, which was 7-28% slower on two columns at n = 701-6,561
            b = np.asarray(b)
            cols = b.reshape(b.shape[0], -1)
            k = cols.shape[1]
            x = self.superlu.solve(np.hstack([cols.real, cols.imag]), trans=trans)
            return (x[:, :k] + 1j * x[:, k:]).reshape(b.shape)
        if not self.symmetric:
            return self.superlu.solve(b, trans=trans)
        # SuperLU's transposed sweep is the faster one (about 25% per
        # column at n = 1,681-9,409), and for A = A^T it solves A x = b;
        # A^H = conj(A), so A^H x = b is conj(A^{-1} conj(b)).
        if trans == "H":
            return np.conj(self.superlu.solve(np.conj(b), trans="T"))
        return self.superlu.solve(b, trans="T")


def lu_factor(A, **options) -> LUFactor:
    """Factor a square matrix.

    The package's only call into SuperLU: A is factored in its own kind,
    a complex A in complex128 and any other in float64, its columns are
    ordered by minimum degree on the pattern of A^T + A, SuperLU runs in
    symmetric mode, and ``options`` pass through to ``splu``. An exactly
    singular matrix raises SingularSystemError.
    """
    Ac = _square_csc(A)
    Ac = Ac.astype(complex if np.iscomplexobj(Ac) else float, copy=False)
    try:
        return LUFactor(Ac, spla.splu(Ac, permc_spec=_FILL_ORDERING,
                                      options=_SYMMETRIC_MODE, **options))
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularSystemError("matrix is exactly singular") from exc
        raise


def complex_twin(X) -> sp.spmatrix:
    """The CSR or CSC matrix X with complex data on X's own index arrays.

    For a real X, a product of the twin with a complex vector is one pass
    over the matrix, bit for bit the products of X with the vector's real
    and imaginary parts. The twin costs one complex copy of the entries,
    so callers build it once per eigensolve or solver run, not per product.
    """
    if not (sp.issparse(X) and X.format in ("csr", "csc")):
        X = sp.csr_matrix(X)
    return type(X)((X.data.astype(complex), X.indices, X.indptr), shape=X.shape)


def gram_factor(D) -> LUFactor:
    """Factor a real symmetric positive definite matrix, certifying it SPD.

    P is the fill-reducing symmetric permutation of :func:`lu_factor`.
    SuperLU takes diagonal pivots only, so rows are permuted like columns
    unless a diagonal pivot is exactly zero; for SPD input the result
    P D P^T = L_0 U_0 is an LDL^T factorization with positive pivots.
    Non-SPD input surfaces as a row interchange that differs from the
    column permutation or as a non-positive pivot. Returns the certified
    real :class:`LUFactor` of D, its Gram factor.
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
        f = lu_factor(Dc, diag_pivot_thresh=0.0)
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
    return f


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
    def ratio(self) -> float:
        return math.sqrt(self.m_plus_sq) / math.sqrt(self.m_minus_sq)


@dataclass(frozen=True)
class SolutionOperatorNorms:
    """The M-weighted solution-operator norms (L2->H, L2->L2); the third,
    dual->H, is the C_dis of :func:`discrete_inf_sup`."""

    h0_to_h: float
    h0_to_h0: float


# ARPACK's Lanczos basis size (ncv), chosen by measurement; see
# _pencil_lambda_max.
_NCV = 15


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
    runs Lanczos on W B in the B inner product (Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, SIAM 1998, mode 3), never applies its A, and
    reports 1/nu. One generator of ``seed`` draws its start vector and any
    restart vector that ARPACK asks for. Power iteration would stall on
    the clustered extremes of finite-element mass and Gram matrices.
    ARPACK sees float64 vectors only, so it takes its symmetric driver: a
    complex W (the default ``dtype``) and B act on the interleaved float
    view of complex n-vectors, where W B is B-symmetric on R^{2n} with
    every eigenvalue doubled; the complex start vector is viewed alike.
    Callers pass B as its :func:`complex_twin`, so each product with B is
    one complex pass. ``dtype=float`` runs a real symmetric W from a real
    start vector. One path serves every n: the basis holds
    min(real dimension, ``_NCV``) vectors, and a real 1 x 1 pencil, too
    small for ARPACK, is its one entry W B.
    Iterations stop at the relative tolerance ``DEFAULT_TOL`` and are
    capped at ``DEFAULT_MAXIT`` applications of W, both read per call.
    Returns (nu, applications of W, residual ||W B v - nu v||_B of the
    B-unit Ritz vector v).

    ARPACK runs on W / 2^e, with 2^(e-1) <= max|y| < 2^e for W's first
    image y, and nu and the residual are scaled back by 2^e, exactly
    while they are normal floats. A first image that is exactly zero
    means that W annihilates a random vector, so the PSD W's top is zero:
    (0.0, 1, 0.0) is returned. Other runs take ARPACK's applications of W
    plus one for the residual, or raise with no estimate: NoConvergenceError
    (with the applications made) when ARPACK asks for application
    ``DEFAULT_MAXIT`` + 1 (it holds no converged Ritz value mid-cycle) or
    fails in any other way, or when its Ritz value is 0 or not finite or
    nu overflows; UnderflowError when a positive nu is below the normal
    floats, or when the first image is not zero but its B-norm is.

    The basis size ncv is also the restart length: ARPACK tests
    convergence only once it has built ncv vectors, so a run ends only at
    the end of a restart cycle, and a larger basis can overshoot
    convergence. ncv = 15 gave the fewest solves with A over the three
    benchmark workloads among ncv = 8..20 under the symmetric driver:
    3,068 at seed 0 (3,100 at seed 1; 3,603 and 3,635 LU solves in all),
    against 3,132 (3,132) at 14, 3,148 (3,160) at 12, 3,156 at 19, 3,160
    (3,128) at 16 and 3,208 (3,208) at 20.
    """
    def real_w(x):
        return np.ascontiguousarray(apply_w(x.view(dtype)), dtype=dtype).view(np.float64)

    def apply_b(x):
        return x if b is None else (b @ x.view(dtype)).view(np.float64)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    x0 = v0.view(np.float64)
    if x0.size == 1:
        return max(float(real_w(apply_b(np.ones(1)))[0]), 0.0), 1, 0.0

    count, e, last = 0, 0, None

    def counted_w(x):
        nonlocal count, e, last
        if count == DEFAULT_MAXIT:
            raise NoConvergenceError(
                f"eigensolver did not reach tolerance {DEFAULT_TOL:g} within "
                f"{count} operator applications", iterations=count)
        count += 1
        y = real_w(x)
        if count == 1:  # 2^(e-1) <= max|y| < 2^e
            e = int(np.frexp(np.abs(y).max())[1])
        last = np.ldexp(y, -e)
        return last

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
            ncv=min(x0.size, _NCV),
            tol=DEFAULT_TOL,
            # each restart cycle applies W at least once, so this cap on
            # cycles never binds before the cap on applications
            maxiter=DEFAULT_MAXIT + 1,
            rng=rng,  # draws the restart vectors that ARPACK asks for
        )
    except spla.ArpackError as exc:
        # ArpackError keeps no error code; its error -9 is a first image of B-norm 0
        if count != 1 or last @ apply_b(last) != 0:
            raise NoConvergenceError(f"eigensolver failed: {exc}", iterations=count) from None
        if np.any(last):
            raise UnderflowError("eigensolve underflows: a first image of B-norm 0") from None
        return 0.0, 1, 0.0
    lam, v = float(vals[0]), vecs[:, 0]  # 1/nu of W / 2^e, and its Ritz vector
    bv = apply_b(v)
    vbv = float(v @ bv)
    if not (lam != 0.0 and math.isfinite(lam) and 0.0 < vbv < math.inf):
        raise NoConvergenceError(f"eigensolver ended on the Ritz value 1/{lam:g} with "
                                 f"a vector of B-norm^2 {vbv:g}", iterations=count)
    nu = max(1.0 / lam, 0.0)
    r = np.ldexp(real_w(bv), -e) - nu * v  # the residual of v, scaled below to a B-unit v
    res = math.sqrt(max(r @ apply_b(r), 0.0) / vbv)
    if math.frexp(max(nu, res))[1] + e > 1024:  # scaled back, it overflows
        raise NoConvergenceError(f"eigensolve overflows: {nu:g} * 2^{e}", iterations=count)
    nu, res = math.ldexp(nu, e), math.ldexp(res, e)
    if 0.0 < nu < np.finfo(float).tiny:
        raise UnderflowError(f"eigensolve underflows: nu = {nu:g} is below the normal floats")
    return nu, count, res


def _norm_matrix(X, n: int) -> sp.spmatrix:
    """The n x n real matrix of a norm."""
    X = sp.csr_matrix(X)
    if X.shape != (n, n):
        raise InvalidArgumentError(f"norm matrix of shape {X.shape}, expected {(n, n)}")
    if np.iscomplexobj(X):  # a norm matrix is real symmetric PD
        raise InvalidArgumentError("norm matrix must be real")
    return X


def weighted_operator_norm(op, gram: Optional[LUFactor], seed: int = DEFAULT_SEED) -> float:
    """Operator norm ||op||_D of ``op``, for D = ``gram.A`` of the Gram
    factor ``gram``, or its Euclidean norm when ``gram`` is None.

    ``op`` may be an ndarray, a sparse matrix, or a LinearOperator with
    ``matvec`` and ``rmatvec`` (the adjoint is required: the norm is a
    largest singular value, computed through the normal operator). The
    D^{-1} norm of an operator C is the D norm of its adjoint,
    ||C||_{D^{-1}} = ||C^H||_D, which a LinearOperator gives as ``C.H``.
    The D norm makes one D solve and one product with D per operator
    application.
    """
    op = spla.aslinearoperator(op)
    mv, rmv, n = op.matvec, op.rmatvec, op.shape[0]
    if gram is None:
        return math.sqrt(_pencil_lambda_max(lambda v: rmv(mv(v)), n, seed)[0])
    if gram.n != n:
        raise InvalidArgumentError(f"operator dim {n} != Gram factor dim {gram.n}")
    # ||C||_D^2 = ||C^H||_{D^{-1}}^2 = lambda_max(C D^{-1} C^H D)
    apply_w = lambda v: mv(gram.solve(rmv(v)))
    return math.sqrt(_pencil_lambda_max(apply_w, n, seed, b=complex_twin(gram.A))[0])


def _solution_normal(lu: LUFactor, mid) -> Callable[[np.ndarray], np.ndarray]:
    """W = A^{-H} X A^{-1} for the complex twin ``mid`` of the norm matrix X."""
    return lambda v: lu.solve(mid @ lu.solve(v), trans="H")


def discrete_inf_sup(lu: LUFactor, D, seed: int = DEFAULT_SEED) -> float:
    """C_dis = ||L^T A^{-1} L||_2 of a system, the reciprocal of its discrete
    inf-sup constant gamma_dis = sigma_min(L^{-1} A L^{-T}).

    C_dis is the square root of the top eigenvalue of A^{-H} D A^{-1} D in
    the D inner product, through the LU factors ``lu`` of A and products
    with the matrix D, which is never factored here. D is SPD and A^{-1}
    injective, so C_dis is positive, and a C_dis^2 of 0 or below the
    normal floats is an underflow: UnderflowError. A singular A has no LU
    factors: its C_dis is infinite (gamma_dis = 0), which
    :meth:`MatrixSystem.c_dis` returns as ``math.inf``.
    """
    n = lu.n
    D = complex_twin(_norm_matrix(D, n))  # one twin for W and B
    try:
        nu = _pencil_lambda_max(_solution_normal(lu, D), n, seed, b=D)[0]
    except UnderflowError:
        nu = 0.0
    if nu == 0.0:
        raise UnderflowError("C_dis underflows: A is too large for the norm of D")
    return math.sqrt(nu)


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
    with B = I, and the shifted factor is freed before M is factored.
    """
    X = _square_csc(M)
    n = X.shape[0]
    sigma = float(abs(X).sum(axis=1).max())
    try:
        shifted = gram_factor(sigma * sp.identity(n, format="csc") - X)
    except NotPositiveDefiniteError:
        lam_max = sigma
    else:
        tau, _, _ = _pencil_lambda_max(shifted.solve, n, seed, dtype=float)
        del shifted
        lam_max = sigma - 1.0 / tau
    g = gram_factor(X)  # certifies SPD
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
    D, M = _norm_matrix(D, n), complex_twin(_norm_matrix(M, n))  # B of both runs
    h0_to_h = _pencil_lambda_max(_solution_normal(lu, complex_twin(D)), n, seed, b=M)[0]
    h0_to_h0 = _pencil_lambda_max(_solution_normal(lu, M), n, seed, b=M)[0]
    return SolutionOperatorNorms(h0_to_h=math.sqrt(h0_to_h), h0_to_h0=math.sqrt(h0_to_h0))
