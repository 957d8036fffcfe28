"""Direct solves, preconditioned fixed-point iteration, and GMRES.

The iterative solvers feed the sweep's iteration counts (``fp_iters``,
``gmres_iters``). When the contraction factor c = ||I - A2^{-1} A1||_D
is below one, both obey an exact envelope:

    fixed point   ||x - x^n||_D  <=  c^n ||x - x^0||_D,
    GMRES in D    ||r^n||_D      <=  c^n ||r^0||_D,

where the GMRES bound follows from the minimal-residual property with
the polynomial (1-z)^n. Both inequalities are exact, so the observed
rates are certified lower bounds on c that a check may gate on.

Both solvers measure in the D inner product <u, v> = v* D u through
products with the real matrix D, never a factor of it: each run builds
D's complex twin (:func:`~helmprec.numerics.complex_twin`) once, so a
product is one complex pass over D. GMRES is full (non-restarted): each
new vector is orthogonalized against the whole basis by classical
Gram-Schmidt run twice (two block passes, each one product with D;
"twice is enough", Giraud, Langou & Rozloznik 2005). Its basis and
Hessenberg matrix start with room for ``_START_STEPS`` steps and double
when full, so a run holds storage for at most twice the steps it took,
never for all ``MAX_IT``. Residual norms come from the Givens
recurrence, hence are non-increasing by construction. Both stop at the
fixed relative tolerance ``TOL`` or after ``MAX_IT`` steps, read per
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assemble import GalerkinSystem
from .errors import InvalidArgumentError, SingularSystemError
from .numerics import LUFactor, complex_twin

TOL = 1e-8
MAX_IT = 500
_BREAKDOWN = 1e-14
# GMRES steps the first basis has room for; see the module docstring.
_START_STEPS = 4


def _d_norm(Dc, u: np.ndarray) -> float:
    """||u||_D through the complex twin ``Dc`` of D."""
    return math.sqrt(max(np.vdot(u, Dc @ u).real, 0.0))


def _enlarged(X: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """X in the leading corner of a zero array of ``shape``, in X's memory
    order."""
    Y = np.zeros(shape, dtype=X.dtype, order="F" if X.flags.f_contiguous else "C")
    Y[: X.shape[0], : X.shape[1]] = X
    return Y


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Per-iteration norms of one solver run.

    ``norms[j]`` is the D norm of the error (fixed point) or of the
    residual (GMRES) after j iterations. For the sweep's runs, fixed point
    and D-GMRES on A2^{-1} A1, both are at most c^j ``norms[0]`` (see the
    module docstring).
    """

    norms: np.ndarray
    converged: bool
    solution: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.norms) - 1


def direct_solve(lu: LUFactor, b: np.ndarray) -> np.ndarray:
    """Reference solve through the LU factors ``lu`` of A, with a
    backward-error check."""
    b = np.asarray(b, dtype=complex)
    if lu.n != b.shape[0]:
        raise InvalidArgumentError(f"shape mismatch: A {lu.A.shape}, b {b.shape}")
    x = lu.solve(b)
    A = lu.A
    norm_a1 = abs(A).sum(axis=0).max()
    resid = np.linalg.norm(A @ x - b)
    bound = 1e-10 * (float(norm_a1) * np.linalg.norm(x) + np.linalg.norm(b))
    if resid > bound:
        raise SingularSystemError(
            f"solve residual {resid:.3e} exceeds stability bound {bound:.3e}"
        )
    return x


def fixed_point(
    sys1: GalerkinSystem,
    sys2: GalerkinSystem,
    b: np.ndarray,
) -> IterationTrace:
    """Preconditioned fixed-point iteration x <- x + A2^{-1} (b - A1 x) from
    a zero start, as :func:`gmres` starts.

    Error norms are measured in the D norm against a direct reference
    solve of A1 x = b, so the trace matches the contraction estimate
    exactly. Stops at relative error ``TOL`` or after ``MAX_IT`` steps.
    Uses the LU factors the two systems own and products with ``sys1.D``.
    """
    A1, D = sys1.A, complex_twin(sys1.D)
    x_ref = direct_solve(sys1.lu, b)
    lu2 = sys2.lu
    x = np.zeros(sys1.n, dtype=complex)
    err0 = _d_norm(D, x_ref - x)
    norms = [err0]
    converged = err0 == 0.0
    for _ in range(MAX_IT):
        if converged:
            break
        x = x + lu2.solve(b - A1 @ x)
        err = _d_norm(D, x_ref - x)
        norms.append(err)
        if err <= TOL * err0:
            converged = True
    return IterationTrace(np.array(norms), converged, x)


def gmres(
    apply_op: Callable[[np.ndarray], np.ndarray], b: np.ndarray, D
) -> IterationTrace:
    """Full GMRES from a zero start in the inner product of the real SPD D.

    Happy breakdown returns a converged trace; hitting the iteration cap
    returns a non-converged trace rather than raising.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if D.shape != (n, n):
        raise InvalidArgumentError("inner-product dimension does not match b")
    D = complex_twin(D)

    r0 = b  # zero initial guess
    beta = _d_norm(D, r0)
    if beta == 0.0:
        return IterationTrace(np.array([0.0]), True, np.zeros(n, dtype=complex))

    max_it = min(MAX_IT, n)
    steps = min(_START_STEPS, max_it)  # the steps V and H have room for
    # column-major, so each basis vector is contiguous
    V = np.zeros((n, steps + 1), dtype=complex, order="F")
    H = np.zeros((steps + 1, steps), dtype=complex)
    cs = np.zeros(max_it, dtype=complex)
    sn = np.zeros(max_it, dtype=complex)
    g = np.zeros(max_it + 1, dtype=complex)
    V[:, 0] = r0 / beta
    g[0] = beta
    res_norms = [beta]
    converged = False
    j_done = 0

    for j in range(max_it):
        if j == steps:  # full: double the room
            steps = min(2 * steps, max_it)
            V, H = _enlarged(V, (n, steps + 1)), _enlarged(H, (steps + 1, steps))
        w = apply_op(V[:, j])
        basis = V[:, : j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = ((D @ w).conj() @ basis).conj()  # basis* D w
            w = w - basis @ h
            H[: j + 1, j] += h
        hnext = _d_norm(D, w)
        H[j + 1, j] = hnext
        breakdown = hnext <= _BREAKDOWN * abs(H[: j + 2, j]).max()
        if not breakdown:
            V[:, j + 1] = w / hnext

        # apply stored Givens rotations, then a new one to kill H[j+1, j]
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + np.conj(cs[i]) * H[i + 1, j]
            H[i, j] = t
        denom = math.hypot(abs(H[j, j]), abs(H[j + 1, j]))
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = np.conj(H[j, j]) / denom
            sn[j] = np.conj(H[j + 1, j]) / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        H[j + 1, j] = 0.0
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] = cs[j] * g[j]

        res_norms.append(abs(g[j + 1]))
        j_done = j + 1
        if res_norms[-1] <= TOL * beta or breakdown:
            converged = True
            break

    y = np.linalg.solve(H[:j_done, :j_done], g[:j_done]) if j_done else np.array([])
    x = V[:, :j_done] @ y if j_done else np.zeros(n, dtype=complex)
    return IterationTrace(np.array(res_norms), converged, x)
