"""Weighted matrix norms, inf-sup constants, and mass-matrix extremes.

Everything here reduces a functional-analytic quantity to a singular
value of a conjugated matrix. With D = L L^T the Gram (energy-norm)
matrix and M = R R^T the mass matrix, L and R their real Cholesky
factors (below):

    ||C||_D            = sigma_max(L^T C L^{-T})    operator norm in the D norm
    ||C||_{D^{-1}}     = sigma_max(L^{-1} C L)
    gamma_dis          = sigma_min(L^{-1} A L^{-T}) discrete inf-sup constant
    C_dis = 1/gamma    = ||L^T A^{-1} L||_2         discrete solution-operator norm
    ||A^{-1}||_{0->H}  = ||L^T A^{-1} R||_2
    ||A^{-1}||_{0->0}  = ||R^T A^{-1} R||_2

For real symmetric D, transposition keeps singular values, and
L^{-1} C^T L = (L^T C L^{-T})^T, so ||C^T||_{D^{-1}} = ||C||_D; also
||C^T||_2 = ||C||_2. :mod:`helmprec.bounds` uses these twin identities
to estimate one norm of each pair when both system matrices pass the
symmetry test ||A - A^T|| <= 1e-14 ||A|| (largest entries). The systems
of :mod:`helmprec.assemble` cache, per seed, the results of
:func:`discrete_inf_sup` and :func:`mass_extremes` next to their factors.

Each sigma_max^2 is the top eigenvalue of a standard Hermitian PSD
operator T^H T, T the conjugated matrix, applied as a product chain in
the coordinates of the factor:

    C_dis^2            = lambda_max(L^T A^{-H} D A^{-1} L)
    ||A^{-1}||_{0->H}^2 = lambda_max(R^T A^{-H} D A^{-1} R)
    ||A^{-1}||_{0->0}^2 = lambda_max(R^T A^{-H} M A^{-1} R)
    ||C||_{D^{-1}}^2   = lambda_max(L^T C^H D^{-1} C L)
    ||C||_D^2          = ||C^H||_{D^{-1}}^2 = lambda_max(L^T C D^{-1} C^H L)

The factor turns each weighted norm into a Euclidean one, so there is no
B-operator: Lanczos runs in standard mode and never solves with D or M
to keep its basis B-orthogonal. The solution-operator norms take only
products with L, R, D and M besides the two solves with A, and a D-weighted
operator norm takes one D solve per application. The Ritz value comes
with a computable residual bound |lambda - lambda_exact| <=
||T^H T v - lambda v||_2 for a unit iterate v; the Euclidean norm in the
factor's coordinates is the B norm of the corresponding generalized
pencil, so the bound is the same one. Iterations stop on it (relative
tolerance 1e-10 by default) and are capped; hitting the cap raises,
carrying the last estimate as the quantity the function returns. Start
vectors are seeded, so all reported numbers are reproducible. ARPACK's
first application is to the start vector itself; an operator that maps
that random vector to exactly zero is the zero operator, whose top
eigenvalue 0 is returned after that one application, with no separate
probe.

The extremes m_-^2 <= m_+^2 of M (the norm-equivalence constant m_+/m_-)
need care at the top, where the P1 mass spectrum clusters and Lanczos on
M stalls. m_+^2 is taken by shift-invert at the Gershgorin bound
sigma = max_i sum_j |M_ij| (for a mass matrix, the largest lumped mass):
sigma >= lambda_max(M) for any matrix, so sigma I - M is PSD and its
factor is certified like D and M. The top of (sigma I - M)^{-1} is never
less separated than the top of M, so the value of sigma affects only the
iteration count, never correctness. m_-^2 is 1/lambda_max(M^{-1})
through the factor of M.

Conjugations never form L^{-1} explicitly. Solves go through sparse
factorizations under one fill-reducing ordering (minimum degree on the
pattern of A^T + A): complex LU for A, and for D and M a Cholesky-type
factorization P D P^T = L_0 U_0 of the symmetrically permuted matrix,
with U_0 = diag(pivots) L_0^T, so L above stands for P^T L_0
diag(sqrt(pivots)). Complex vectors against the real factors are
handled as two real columns, and products with the real D, M, L and L^T
as their real and imaginary parts, with no complex copy of the matrix.

A Galerkin Helmholtz matrix is complex symmetric, A^T = A, and an LU
factor tests that once, exactly (no entry of A - A^T is nonzero). Its
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


def nearly_equal(X, Y, rtol: float) -> bool:
    """max |X - Y| <= rtol times the largest entry of X or Y, for sparse X and
    Y; an exactly zero difference passes, so two zero matrices are equal."""
    diff = abs(X - Y)
    if diff.nnz == 0:
        return True
    scale = max(abs(X).max(), abs(Y).max(), 1e-300)
    return diff.max() <= rtol * scale


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
        """A^T = A exactly (no entry of A - A^T is nonzero), tested once."""
        return (self.A != self.A.T).nnz == 0

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


def _real_product(X, x: np.ndarray) -> np.ndarray:
    """X @ x for a real sparse X; a complex x is multiplied as its real and
    imaginary parts, which is exact and avoids the complex copy of X that
    ``X @ x`` would make on every call."""
    if not np.iscomplexobj(x):
        return X @ x
    return X @ x.real + 1j * (X @ x.imag)


@dataclass(frozen=True, eq=False)
class GramFactor(LUFactor):
    """Cholesky factorization D = L L^T of a real SPD matrix D = ``A``.

    ``solve`` applies D^{-1} to real or complex vectors, ``factor_mul``
    applies L or L^T, and ``norm`` evaluates the induced vector norm
    sqrt(v* D v). L = P^T L_0 diag(sqrt(pivots)) comes from the SuperLU
    factorization P D P^T = L_0 U_0 that :func:`gram_factor` certified
    (rows permuted like columns, positive pivots), so L is lower
    triangular up to the symmetric permutation P.
    """

    @property
    def D(self) -> sp.csc_matrix:
        return self.A

    @cached_property
    def cholesky(self) -> sp.csc_matrix:
        """The real factor L of D = L L^T, built once, on first use, from the
        existing factorization: no new factorization, one stored copy."""
        lu = self.superlu
        root = np.sqrt(lu.U.diagonal().real)
        L0 = lu.L  # a fresh copy on every access, so scaling it in place is safe
        L0.data *= np.repeat(root, np.diff(L0.indptr))
        # P^T moves row perm_c[i] of L_0 diag(sqrt(pivots)) to row i
        rows = np.empty_like(lu.perm_c)
        rows[lu.perm_c] = np.arange(self.n, dtype=rows.dtype)
        return sp.csc_matrix((L0.data, rows[L0.indices], L0.indptr), shape=L0.shape)

    @cached_property
    def _cholesky_T(self) -> sp.csr_matrix:
        # L^T as the CSR view of L: it shares L's arrays, so no second copy
        return self.cholesky.T

    def factor_mul(self, x: np.ndarray, trans: str = "N") -> np.ndarray:
        """L x, or L^T x for ``trans="T"``."""
        return _real_product(self.cholesky if trans == "N" else self._cholesky_T, x)

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
    """Factor a real symmetric positive definite matrix as D = L L^T.

    P is the fill-reducing symmetric permutation of :func:`lu_factor`.
    SuperLU runs in symmetric mode with diagonal pivots only, so rows
    are permuted like columns unless a diagonal pivot is exactly zero;
    for SPD input the result P D P^T = L_0 U_0 is the Cholesky
    factorization of P D P^T once L_0 is scaled by the square root of
    each pivot (:attr:`GramFactor.cholesky`). Non-SPD input surfaces
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
    if not nearly_equal(Dc, Dc.T, 1e-12):
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

# ARPACK's Lanczos basis size (ncv), chosen by measurement; see
# _pencil_lambda_max.
_NCV = 15


class _ZeroOperator(Exception):
    """The operator annihilated ARPACK's start vector."""


def _pencil_lambda_max(
    apply_x: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float,
    max_it: int,
    seed: int,
    dtype=complex,
) -> tuple[float, int, float]:
    """Top eigenvalue of the Hermitian PSD operator X applied by ``apply_x``.

    ARPACK Lanczos in standard mode from a seeded start vector; plain
    power iteration cannot be used here because the extreme eigenvalues
    of finite-element mass and Gram matrices cluster, which stalls
    single-vector iterations. Weighted problems reach this function
    already conjugated by a Cholesky factor, so there is no B-operator.
    ``dtype=float`` runs a real symmetric X from a real start vector.
    Returns (lambda, operator applications, residual ||X v - lambda v||_2
    of the unit Ritz vector v). Hitting the cap raises, carrying the last
    Ritz value of X itself; callers convert it with :func:`_estimate_as`.

    ARPACK's first application is to the seeded start vector itself; when
    it returns exactly zero, X annihilates a random vector, so the PSD
    operator's top is zero and (0.0, 1, 0.0) is returned at once. Other
    runs take ARPACK's applications plus one for the residual.

    The basis size ncv is also the restart length: ARPACK tests
    convergence only once it has built ncv vectors (Lehoucq, Sorensen &
    Yang, ARPACK Users' Guide, SIAM 1998), so a run ends only at the end
    of a restart cycle (at ncv = 20, most runs took 21 or 31
    applications), and a larger basis can overshoot convergence. ncv =
    15 gave the fewest LU solves over the three benchmark workloads
    (verify2d, sweep2d, sweep1d, seed 0) among ncv = 12..20: 3,643 in all
    (375 / 1,193 / 2,075), against 3,682 at 14, 3,686 at 16 and 3,844 at 20.
    """
    if n <= _DENSE_PENCIL_N:
        eye = np.eye(n, dtype=dtype)
        X = np.column_stack([apply_x(eye[:, j]) for j in range(n)])
        vals = np.linalg.eigvalsh(0.5 * (X + X.conj().T))
        return max(float(vals[-1]), 0.0), n, 0.0

    counter = {"n": 0}

    def counted_x(v):
        counter["n"] += 1
        y = apply_x(v)
        if counter["n"] == 1 and not np.any(y):
            raise _ZeroOperator
        return y

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    ncv = min(n, _NCV)
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
        )
    except _ZeroOperator:
        return 0.0, 1, 0.0
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(
            f"eigensolver did not reach tolerance {tol:g} within the "
            f"iteration cap ({counter['n']} operator applications)",
            estimate=float(exc.eigenvalues[-1]) if len(exc.eigenvalues) else None,
            iterations=counter["n"],
        ) from exc
    lam = max(float(vals[0]), 0.0)
    v = vecs[:, 0]  # unit norm
    res = float(np.linalg.norm(apply_x(v) - lam * v))
    return lam, counter["n"], res


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
    apply_normal: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float,
    max_it: int,
    seed: int,
) -> tuple[float, int, float]:
    """Largest singular value of T from its normal operator T^H T:
    (sigma, operator applications, eigenvalue residual)."""
    with _estimate_as(lambda lam: math.sqrt(max(lam, 0.0))):
        lam, it, res = _pencil_lambda_max(apply_normal, n, tol, max_it, seed)
    return math.sqrt(lam), it, res


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
    ignored for 'euclid'. The weighted modes make one D solve per
    operator application.
    """
    if mode not in _MODES:
        raise InvalidArgumentError(f"mode must be one of {_MODES}, got {mode!r}")
    op = spla.aslinearoperator(op)
    mv, rmv, n = op.matvec, op.rmatvec, op.shape[0]
    if mode == "euclid":
        apply_normal = lambda v: rmv(mv(v))
    elif gram is None:
        raise InvalidArgumentError(f"mode {mode!r} requires a Gram factor")
    elif gram.n != n:
        raise InvalidArgumentError(f"operator dim {n} != Gram factor dim {gram.n}")
    else:
        # ||C||_{D^{-1}}^2 = lambda_max(L^T C^H D^{-1} C L), and
        # ||C||_D = ||C^H||_{D^{-1}}: lambda_max(L^T C D^{-1} C^H L)
        first, then = (rmv, mv) if mode == "D" else (mv, rmv)
        apply_normal = lambda v: gram.factor_mul(
            then(gram.solve(first(gram.factor_mul(v)))), "T"
        )
    return _sigma_max(apply_normal, n, tol, max_it, seed)[0]


def _solution_normal(lu: LUFactor, right: GramFactor, mid: Callable):
    """The normal operator R^T A^{-H} W A^{-1} R of W^{1/2} A^{-1} R, for
    the factor R of ``right`` and W applied by ``mid``."""
    return lambda v: right.factor_mul(
        lu.solve(mid(lu.solve(right.factor_mul(v))), trans="H"), "T"
    )


def discrete_inf_sup(
    A,
    gram: GramFactor,
    tol: float = DEFAULT_TOL,
    max_it: int = DEFAULT_MAXIT,
    seed: int = DEFAULT_SEED,
) -> InfSupReport:
    """Discrete inf-sup constant sigma_min(L^{-1} A L^{-T}) of a system.

    Computed as the reciprocal of C_dis = ||L^T A^{-1} L||_2 through the
    LU factors of A (``A`` may be a matrix or its :class:`LUFactor`) and
    products with L and D; an exactly singular A yields gamma = 0 (a
    legitimate outcome near discrete eigenvalues), not an exception. A
    NoConvergenceError carries the estimate of C_dis.
    """
    try:
        lu = lu_factor(A)
    except SingularSystemError:
        return SINGULAR_INF_SUP
    n = lu.n
    if gram.n != n:
        raise InvalidArgumentError("A and Gram factor dimensions disagree")
    # C_dis^2 = lambda_max(L^T A^{-H} D A^{-1} L)
    c_dis, it, res = _sigma_max(
        _solution_normal(lu, gram, gram.apply), n, tol, max_it, seed
    )
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
    of M. Both eigensolves are real standard-mode Lanczos runs; the
    shifted factor is not kept. A NoConvergenceError carries the estimate
    of m_+^2 or of m_-^2, whichever eigensolve stopped.
    """
    g = gram_factor(M)  # also certifies SPD
    n = g.n
    sigma = float(abs(g.D).sum(axis=1).max())
    try:
        shifted = gram_factor(sigma * sp.identity(n, format="csc") - g.D)
    except NotPositiveDefiniteError:
        lam_max = sigma
    else:
        with _estimate_as(lambda tau: sigma - 1.0 / tau if tau > 0 else None):
            tau, _, _ = _pencil_lambda_max(
                shifted.solve, n, tol, max_it, seed, dtype=float
            )
        lam_max = sigma - 1.0 / tau
    with _estimate_as(lambda inv: 1.0 / inv if inv > 0 else None):
        inv_max, _, _ = _pencil_lambda_max(g.solve, n, tol, max_it, seed, dtype=float)
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

    ||L^T A^{-1} R||_2 and ||R^T A^{-1} R||_2 for D = L L^T and M = R R^T;
    ``A`` may be a matrix or its :class:`LUFactor`. Each takes solves with
    A and products with R, D or M only. The third norm of the chain,
    ||L^T A^{-1} L||_2, is C_dis of :func:`discrete_inf_sup`. Raises on
    singular A.
    """
    lu = lu_factor(A)
    n = lu.n
    if gram_d.n != n or gram_m.n != n:
        raise InvalidArgumentError("Gram factor dimensions disagree with A")
    # ||L^T A^{-1} R||^2 = lambda_max(R^T A^{-H} D A^{-1} R)
    h0_to_h, _, _ = _sigma_max(
        _solution_normal(lu, gram_m, gram_d.apply), n, tol, max_it, seed
    )
    # ||R^T A^{-1} R||^2 = lambda_max(R^T A^{-H} M A^{-1} R)
    h0_to_h0, _, _ = _sigma_max(
        _solution_normal(lu, gram_m, gram_m.apply), n, tol, max_it, seed
    )
    return SolutionOperatorNorms(h0_to_h=h0_to_h, h0_to_h0=h0_to_h0)
