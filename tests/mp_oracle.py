"""High-precision oracles, in mpmath, for what double precision cannot judge.

The dense oracles of ``conftest`` compute in double from the same
matrices, so they share the rounding whose effect on an estimate is in
question. These convert a system's double matrices exactly and compute
in ``DPS`` decimal digits: what separates their value from the
package's estimate is the package's own rounding. Dense, so for n of a
few dozen at most.
"""

import mpmath as mp

DPS = 60


def _exact(X) -> mp.matrix:
    """The dense mpmath matrix of the entries of a sparse double matrix."""
    return mp.matrix(X.toarray().tolist())


def solution_operator_norms(A, D, M, dps: int = DPS) -> tuple[mp.mpf, mp.mpf]:
    """(C_dis, h0_to_h): ||L^T A^{-1} L||_2 and ||L^T A^{-1} R||_2 for the
    Cholesky factors D = L L^T and M = R R^T, each the largest singular
    value of its matrix."""
    with mp.workdps(dps):
        a_inv = mp.inverse(_exact(A))
        L, R = mp.cholesky(_exact(D)), mp.cholesky(_exact(M))
        return tuple(max(mp.svd_c(L.T * a_inv * X, compute_uv=False)) for X in (L, R))
