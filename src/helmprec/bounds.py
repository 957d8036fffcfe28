"""Two-sided evaluation of the preconditioner-quality inequalities.

For a pair of systems (A1, A2) sharing the norm matrices D and M, the
central estimates are

    max{ ||I - A2^{-1} A1||_D, ||I - A1 A2^{-1}||_{D^{-1}} }
        <= (dmu + deps) * C_dis_2,                       (nearby bound)

    max{ ||I - A2^{-1} A1||_2, ||I - A1 A2^{-1}||_2 }
        <= (m+/m-) * deps * C_dis_2      when mu1 = mu2, (Euclidean bound)

where dmu, deps are the sup norms of the coefficient differences and
C_dis_2 is the discrete solution-operator norm (reciprocal inf-sup
constant) of the perturbed system. Under the smallness condition
(dmu + deps) * C_dis_1 <= 1/2 the perturbed constant obeys
C_dis_2 <= 2 C_dis_1, turning the right-hand sides into quantities of
the unperturbed problem only. Reports evaluate both sides of every
inequality and carry pass/fail margins. A check passes when
lhs <= (1 + SLACK) rhs, with the fixed relative slack SLACK = 1e-9
absorbing the eigensolvers' relative tolerance of 1e-10.

Each system of a pair is a :class:`~helmprec.assemble.MatrixSystem`,
assembled or imported alike. A system owns its factors and caches, per
seed, its discrete inf-sup report and its mass-matrix extremes, so each
command computes C_dis_1, C_dis_2 and m+/m- once. The norms of a pair use
the first system's Gram factor of D, the mass extremes keep no factor, and
C_dis_2 takes products with D only: the second system factors only its A. Only the
coefficient-difference norms depend on the kind of system: they come
from the problems' fields for two Galerkin systems and are supplied
otherwise.

Helmholtz Galerkin matrices are complex symmetric, and when A1 and A2
both are, exactly (:func:`~helmprec.numerics.is_symmetric`), the
right-hand operator I - A1 A2^{-1} is the transpose of the left-hand
one, so by the twin identities of :mod:`helmprec.numerics`
||I - A1 A2^{-1}||_{D^{-1}} = ||I - A2^{-1} A1||_D and the two Euclidean
norms agree: only the left-hand side is estimated.

Note the smallness-condition checks use the measured discrete constant
C_dis_1 as a stand-in for its continuous counterpart; the refinement
ladder (:func:`infsup_ladder`) is the empirical instrument for that
identification: it compares each working system's C_dis, already
computed, with that of the same problem on a nested refinement.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Real
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import GalerkinSystem, MatrixSystem, ProblemSpec, assemble_system
from .coeffs import field_diff_sup_norm, resample_field
from .errors import InvalidArgumentError, InvalidPairError, SingularSystemError
from .mesh import Mesh
from .numerics import (
    InfSupReport,
    LUFactor,
    is_symmetric,
    nearly_equal,
    solution_operator_norms,
    weighted_operator_norm,
)

SLACK = 1e-9
IDENTITY_RTOL = 1e-12

# Samples per block of garding_check, chosen by measurement; see there.
_GARDING_BLOCK = 16

@dataclass(frozen=True)
class GardingConstants:
    """Constants (C_g1, C_g2) of the shifted-coercivity inequality.

    The theory needs both positive; C_g2 = 0 is admitted so that
    deliberately wrong constants can be fed to the sampling check. Both
    must be finite: a NaN constant would make every margin 0, a PASS.
    """

    c_g1: float
    c_g2: float

    def __post_init__(self):
        if not (0 < self.c_g1 < math.inf and 0 <= self.c_g2 < math.inf):
            raise InvalidArgumentError(
                f"need finite C_g1 > 0 and C_g2 >= 0, got ({self.c_g1}, {self.c_g2})"
            )


CANONICAL_GARDING = GardingConstants(1.0, 2.0)


@dataclass(frozen=True)
class Check:
    """One inequality: lhs <= rhs up to SLACK, with margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    margin: float


def _make_check(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, lhs, rhs, lhs <= rhs * (1.0 + SLACK), rhs - lhs)


def _make_lower_check(name: str, value: float, lower: float) -> Check:
    """value >= lower up to SLACK (stored as lhs=lower, rhs=value)."""
    return Check(name, lower, value, value >= lower * (1.0 - SLACK), value - lower)


@dataclass(frozen=True, eq=False)
class GardingReport:
    """Sampled verification of |v*Av + C_g2 v*Mv| >= C_g1 v*Dv."""

    constants: GardingConstants
    n_samples: int
    violations: int
    worst_rel_margin: float
    canonical: bool
    identity_max_rel_err: Optional[float]

    @property
    def passed(self) -> bool:
        ok = self.violations == 0
        if self.identity_max_rel_err is not None:
            ok = ok and self.identity_max_rel_err <= IDENTITY_RTOL
        return ok


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Both sides of every inequality for one pair of systems."""

    n: int
    dmu: float
    deps: float
    c_dis1: float
    c_dis2: float
    mass_ratio: float
    lhs_D: float
    lhs_Dinv: float
    lhs_2: float
    lhs_2p: float
    rhs_lemma: float
    rhs_lemma2: Optional[float]
    cond: float
    checks: tuple[Check, ...]
    singular: bool = False
    k: Optional[float] = None
    h: Optional[float] = None
    alpha: Optional[float] = None

    @property
    def contraction(self) -> float:
        """Fixed-point/GMRES contraction factor c = ||I - A2^{-1} A1||_D."""
        return self.lhs_D

    @property
    def passed(self) -> bool:
        return not self.singular and all(c.passed for c in self.checks)


@dataclass(frozen=True, eq=False)
class NormEquivalenceReport:
    """Solution-operator norm chains and the inf-sup lower bound."""

    constants: GardingConstants
    hstar_to_h: float
    h0_to_h: float
    h0_to_h0: float
    gamma: float
    c_dis: float
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class LadderEntry:
    k: float
    h: float
    h_ref: float
    n: int
    n_ref: int
    gamma: float
    gamma_ref: float
    ratio: float
    singular: bool


@dataclass(frozen=True, eq=False)
class InfSupLadder:
    """(k, h, inf-sup) triples at a working and a reference resolution."""

    entries: tuple[LadderEntry, ...]


def garding_constants_for(spec: ProblemSpec) -> GardingConstants:
    """Valid shifted-coercivity constants derived from coefficient ranges.

    With m = min eigenvalue of Re(mu^{-1}) over elements and
    E = max(Re eps, 0), the real part of the form is bounded below by
    m ||v||_H^2 - (m + E) ||v||_0^2, so (C_g1, C_g2) = (m, m + E) works;
    the homogeneous case gives exactly (1, 2).
    """
    mu = spec.mu_inv
    if mu.is_matrix:
        m = float(np.linalg.eigvalsh(mu.values.real).min())
    else:
        m = float(mu.values.real.min())
    e_max = max(float(spec.eps.values.real.max()), 0.0)
    return GardingConstants(m, m + e_max)


def _band_tables(A, M, D) -> list:
    """The quadratic forms of A, M and D, read off their diagonals.

    Grouping the entries of v*Kv by diagonal offset o >= 0 gives, for any
    square K,

        v*Kv = sum_o sum_i (K_{i,i+o} + K_{i+o,i}) p_{o,i}
                           + i (K_{i,i+o} - K_{i+o,i}) q_{o,i},

    with p + iq = conj(v_i) v_{i+o} and the main diagonal (o = 0, q = 0)
    counted once. For v = x + iy, p = x_i x_{i+o} + y_i y_{i+o} and
    q = x_i y_{i+o} - y_i x_{i+o}.

    Returns one ``(o, sym, skew)`` per offset o >= 0 of the union pattern
    of the three matrices. The columns of ``sym`` (n - o, 4) hold the sums
    of Re A, Im A, M and D: weighted by p they give Re v*Av, Im v*Av and
    the forms of the real M and D. The columns of ``skew`` (n - o, 2) hold
    -Im and Re of the differences of A: weighted by q they give the rest
    of Re v*Av and Im v*Av. ``skew`` is None on an offset where A is
    exactly symmetric. No symmetry is assumed. The tables hold about
    6 x offsets x n numbers: few for the package's banded systems.
    """
    n = A.shape[0]
    a, m, d = (sp.coo_matrix(K) for K in (A, M, D))
    dist = [np.abs(K.col.astype(np.int64) - K.row) for K in (a, m, d)]
    present = np.zeros(n, dtype=bool)
    for o in dist:
        present[o] = True
    offsets = np.flatnonzero(present)
    # entry (i, i+o) or (i+o, i) adds to row i of offset o's diagonal
    index = np.cumsum(present) - 1
    slots = [index[o] * n + np.minimum(K.row, K.col) for K, o in zip((a, m, d), dist)]

    def diagonals(slot, weights):
        return np.bincount(slot, weights, len(offsets) * n).reshape(-1, n)

    # shape (offsets, columns, n): each table below is a column-major view
    sym = np.stack([diagonals(slots[0], a.data.real), diagonals(slots[0], a.data.imag),
                    diagonals(slots[1], m.data), diagonals(slots[2], d.data)], axis=1)
    upper = a.col > a.row
    keep = upper | (a.col < a.row)  # the main diagonal has no skew part
    signed = np.where(upper, a.data, -a.data)[keep]
    skew = np.stack([-diagonals(slots[0][keep], signed.imag),
                     diagonals(slots[0][keep], signed.real)], axis=1)
    return [(o, s[:, : n - o].T, t[:, : n - o].T if np.any(t[:, : n - o]) else None)
            for o, s, t in zip(offsets.tolist(), sym, skew)]


def _band_forms(bands: list, x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Re v*Av, Im v*Av, v*Mv and v*Dv, one row per sample v = x[j, 0] +
    1j * x[j, 1] of a block ``x`` of shape (b, 2, n), from
    :func:`_band_tables`.

    Per offset o, one elementwise shifted product of the 2b rows of ``x``
    gives (x_i x_{i+o}, y_i y_{i+o}) of every sample, and one product
    with the offset's table weights them for all four forms at once; the
    two rows of a sample add up to p. On an offset where A is not
    symmetric a second product, with the real and imaginary rows
    swapped, gives q as the difference of a sample's two rows. The
    shifted products are written into ``work``, a C-contiguous array of
    at least 2b rows of n, so a block allocates nothing of size n.
    """
    b, _, n = x.shape
    rows = x.reshape(2 * b, n)
    prod = work[: 2 * b]
    pairs = prod.reshape(b, 2, n)  # the same memory, row 2j + r = pairs[j, r]
    by_p = np.zeros((2 * b, 4))
    by_q = np.zeros((2 * b, 2))
    for o, sym, skew in bands:
        m = n - o
        np.multiply(rows[:, :m], rows[:, o:], out=prod[:, :m])
        by_p += prod[:, :m] @ sym
        if skew is not None:
            np.multiply(x[:, :, :m], x[:, ::-1, o:], out=pairs[:, :, :m])
            by_q += prod[:, :m] @ skew
    forms = by_p.reshape(b, 2, 4).sum(axis=1)
    by_q = by_q.reshape(b, 2, 2)
    forms[:, :2] += by_q[:, 0] - by_q[:, 1]
    return forms


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def garding_check(
    sys: GalerkinSystem,
    constants: GardingConstants = CANONICAL_GARDING,
    n_samples: int = 1000,
    seed: int = 0,
) -> GardingReport:
    """Sample random coefficient vectors against the shifted-coercivity bound.

    For the canonical homogeneous impedance problem (mu^{-1} = eps = 1,
    real theta) the inequality with constants (1, 2) follows from the
    exact identity Re(v*Av) + 2 v*Mv = v*Dv, which is then asserted at
    relative tolerance ``IDENTITY_RTOL``; a sample violates the bound when
    its relative margin is below -``IDENTITY_RTOL``. At least one sample is
    required: an empty sample would report no violation without testing
    anything. A sample whose quadratic forms or margin are not finite
    counts as a violation with margin -inf, so a check that computed
    nothing cannot pass.

    The samples are drawn and evaluated in blocks of ``_GARDING_BLOCK``.
    Block i is filled by one ``standard_normal`` call of its own generator,
    ``default_rng(SeedSequence(seed).spawn(n_blocks)[i])`` (NumPy's seeding
    for parallel streams), so sample j is row j mod b of block j // b and
    the report depends on the seed alone, never on how many threads drew
    it or in which order. The blocks are mapped over a thread pool with one
    worker per core the process may run on (``os.sched_getaffinity``, else
    ``os.cpu_count()``), at most one per block: the normal fill, the
    elementwise products and the small matrix products release the GIL.
    The calling thread allocates one draw buffer and one product buffer
    per worker up front, so no worker allocates arrays of size n.

    No product with A, M or D is made: the diagonals of the three matrices
    are tabulated once per call (:func:`_band_tables`), and a block of b
    samples costs one elementwise shifted product of its b x 2 x n draws
    per diagonal offset o >= 0 of their pattern, times that offset's
    (n - o) x 4 table (:func:`_band_forms`): about offsets x b x n operations
    for all 3b forms. A P1 system has 2 offsets in 1D and 4 in 2D (0, 1,
    m and m + 1 for m free nodes per grid column); an offset where A is
    not exactly symmetric, as with a matrix-valued mu^{-1}, costs a
    second product. With 2 workers on a 2-core Xeon, 1,000 samples at
    n = 6,561 took 0.15-0.16 s in blocks of 16, 0.16-0.18 s in blocks of
    32 or 64, and in blocks of 8 the same as 16 within the noise; at
    n = 25,921 blocks of 16 took 0.73-0.79 s and of 8, 32 or 64
    0.71-0.88 s. On one core the same sample took 0.23 s and 0.98-1.29 s,
    most of it drawing the random numbers.
    """
    if n_samples < 1:
        raise InvalidArgumentError(f"n_samples must be >= 1, got {n_samples}")
    spec = sys.spec
    canonical = bool(
        not spec.mu_inv.is_matrix
        and np.all(spec.mu_inv.values == 1.0)
        and np.all(spec.eps.values == 1.0)
    )
    bands = _band_tables(sys.A, sys.M, sys.D)
    n_blocks = -(-n_samples // _GARDING_BLOCK)
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    workers = min(_cores(), n_blocks)
    buffers = queue.SimpleQueue()  # one (draws, products) pair per worker
    for _ in range(workers):
        buffers.put((np.empty((_GARDING_BLOCK, 2, sys.n)),  # (sample, re/im, dof)
                     np.empty((2 * _GARDING_BLOCK, sys.n))))

    def block(i):
        b = min(_GARDING_BLOCK, n_samples - i * _GARDING_BLOCK)
        draws, work = buffers.get()
        try:
            np.random.default_rng(streams[i]).standard_normal(out=draws[:b])
            with np.errstate(invalid="ignore", over="ignore"):  # non-finite fails below
                return _band_forms(bands, draws[:b], work)
        finally:
            buffers.put((draws, work))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        forms = np.concatenate(list(pool.map(block, range(n_blocks))))
    with np.errstate(invalid="ignore", over="ignore"):
        qa = forms[:, 0] + 1j * forms[:, 1]
        qm, qd = forms[:, 2], forms[:, 3]
        ident_err = None
        lhs = np.abs(qa + constants.c_g2 * qm)
        rhs = constants.c_g1 * qd
        margin = np.divide(lhs - rhs, rhs, out=np.zeros(n_samples), where=rhs > 0)
        if canonical:
            ident_err = float(np.max(np.abs(qa.real + 2.0 * qm - qd) / qd))
    finite = np.isfinite(qa) & np.isfinite(qm) & np.isfinite(qd) & np.isfinite(margin)
    margin[~finite] = -np.inf
    return GardingReport(
        constants=constants,
        n_samples=n_samples,
        violations=int(np.count_nonzero(margin < -IDENTITY_RTOL)),
        worst_rel_margin=float(margin.min()),
        canonical=canonical,
        identity_max_rel_err=ident_err,
    )


def _matrices_match(X, Y) -> bool:
    # the D and M of two systems on one mesh and k are one object each
    return X is Y or (X.shape == Y.shape and nearly_equal(X, Y))


def _difference_operators(A1, A2, lu2: LUFactor):
    """Actions of I - A2^{-1} A1 (left) and I - A1 A2^{-1} (right).

    Written as A2^{-1} (A2 - A1) and (A2 - A1) A2^{-1} over the LU
    factors ``lu2`` of A2: applying the difference matrix first makes an
    identical pair give exactly zero. Both operators come with adjoints
    (rmatvec) through the conjugate-transpose solve, as norm estimation
    requires.
    """
    E = (sp.csr_matrix(A2, dtype=complex) - sp.csr_matrix(A1, dtype=complex)).tocsr()
    Eh = E.getH().tocsr()
    n = E.shape[0]
    left = spla.LinearOperator(
        (n, n),
        matvec=lambda x: lu2.solve(E @ x),
        rmatvec=lambda y: Eh @ lu2.solve(y, trans="H"),
        dtype=complex,
    )
    right = spla.LinearOperator(
        (n, n),
        matvec=lambda x: E @ lu2.solve(x),
        rmatvec=lambda y: lu2.solve(Eh @ y, trans="H"),
        dtype=complex,
    )
    zero = E.nnz == 0 or abs(E).max() == 0.0
    return left, right, zero


def nearby_bound_report(
    sys1: MatrixSystem,
    sys2: MatrixSystem,
    dmu: Optional[float] = None,
    deps: Optional[float] = None,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> BoundReport:
    """Evaluate every nearby-preconditioner inequality for a system pair.

    The systems are assembled or supplied as matrices alike. The
    coefficient-difference norms are taken from the two problems' fields
    when both systems are Galerkin systems and can be overridden; for
    matrix systems they must be supplied. Either way they must be finite
    numbers >= 0, or InvalidArgumentError is raised.
    """
    A1, A2 = sys1.A, sys2.A
    if A1.shape != A2.shape:
        raise InvalidPairError(f"dimension mismatch: {A1.shape} vs {A2.shape}")
    if not (_matrices_match(sys1.D, sys2.D) and _matrices_match(sys1.M, sys2.M)):
        raise InvalidPairError("systems do not share the same D and M")

    if isinstance(sys1, GalerkinSystem) and isinstance(sys2, GalerkinSystem):
        spec1, spec2 = sys1.spec, sys2.spec
        if dmu is None:
            dmu = field_diff_sup_norm(spec1.mu_inv, spec2.mu_inv)
        if deps is None:
            deps = field_diff_sup_norm(spec1.eps, spec2.eps)
    if dmu is None or deps is None:
        raise InvalidArgumentError(
            "coefficient-difference norms unavailable; pass dmu and deps"
        )
    for name, value in (("dmu", dmu), ("deps", deps)):
        # an infinite norm would pass the nearby checks, a negative one
        # would emit the small-cond checks; a non-number would not compute
        number = isinstance(value, Real) and not isinstance(value, bool)
        if not (number and 0 <= value < math.inf):
            raise InvalidArgumentError(
                f"{name} must be a finite number >= 0, got {value!r}"
            )

    n = sys1.n
    k = h = None
    if isinstance(sys1, GalerkinSystem):
        k, h = sys1.spec.k, sys1.spec.mesh.h

    # first, so its factors of sigma I - M and M are freed before D's Gram
    # factor and A2's complex LU factors exist
    me = sys1.mass_extremes(seed)
    G = sys1.gram_d
    inf2 = sys2.inf_sup(seed)
    nan = math.nan
    if inf2.singular:
        return BoundReport(
            n=n, dmu=dmu, deps=deps, c_dis1=nan, c_dis2=math.inf, mass_ratio=nan,
            lhs_D=nan, lhs_Dinv=nan, lhs_2=nan, lhs_2p=nan,
            rhs_lemma=math.inf, rhs_lemma2=None, cond=nan, checks=(),
            singular=True, k=k, h=h, alpha=alpha,
        )
    inf1 = sys1.inf_sup(seed)
    op_left, op_right, zero_pair = _difference_operators(A1, A2, sys2.lu)

    if zero_pair:
        lhs_D = lhs_Dinv = lhs_2 = lhs_2p = 0.0
    else:
        lhs_D = weighted_operator_norm(op_left, G, "D", seed=seed)
        lhs_2 = weighted_operator_norm(op_left, None, "euclid", seed=seed)
        # A2's factor has tested A2 once already; a singular A1 has none
        if is_symmetric(A1) and sys2.lu.symmetric:
            # op_right is the transpose of op_left: the twin identities
            lhs_Dinv, lhs_2p = lhs_D, lhs_2
        else:
            lhs_Dinv = weighted_operator_norm(op_right, G, "D_inv", seed=seed)
            lhs_2p = weighted_operator_norm(op_right, None, "euclid", seed=seed)

    rhs_lemma = (dmu + deps) * inf2.c_dis
    rhs_lemma2 = me.ratio * deps * inf2.c_dis if dmu == 0.0 else None
    cond = (dmu + deps) * inf1.c_dis

    checks = [
        _make_check("nearby_D", lhs_D, rhs_lemma),
        _make_check("nearby_Dinv", lhs_Dinv, rhs_lemma),
    ]
    if rhs_lemma2 is not None:
        checks.append(_make_check("euclid_left", lhs_2, rhs_lemma2))
        checks.append(_make_check("euclid_right", lhs_2p, rhs_lemma2))
    if cond <= 0.5:
        checks.append(_make_check("perturbed_factor2", inf2.c_dis, 2.0 * inf1.c_dis))
        rhs_small = 2.0 * (dmu + deps) * inf1.c_dis
        checks.append(_make_check("small_cond_D", lhs_D, rhs_small))
        checks.append(_make_check("small_cond_Dinv", lhs_Dinv, rhs_small))

    return BoundReport(
        n=n, dmu=float(dmu), deps=float(deps),
        c_dis1=inf1.c_dis, c_dis2=inf2.c_dis, mass_ratio=me.ratio,
        lhs_D=lhs_D, lhs_Dinv=lhs_Dinv, lhs_2=lhs_2, lhs_2p=lhs_2p,
        rhs_lemma=rhs_lemma, rhs_lemma2=rhs_lemma2, cond=cond,
        checks=tuple(checks), k=k, h=h, alpha=alpha,
    )


def norm_equivalence_report(
    sys: MatrixSystem,
    constants: GardingConstants = CANONICAL_GARDING,
    seed: int = 0,
) -> NormEquivalenceReport:
    """Check the norm-equivalence chains of the discrete solution operator.

    With valid constants (C_g1, C_g2) the three norms obey

        h0_to_h <= hstar_to_h <= (1/C_g1) (1 + C_g2 * h0_to_h),
        h0_to_h0 <= h0_to_h <= C_g1^{-1/2} h0_to_h0 sqrt(C_g2 + 1/h0_to_h0),

    and the inf-sup constant is bounded below through the same argument,
    gamma >= 1 / ((1/C_g1)(1 + C_g2 * h0_to_h)). hstar_to_h is the
    system's cached C_dis (the same eigensolve), so the ``two_routes`` check,
    their difference, is zero by construction; it is kept for the
    report's format.
    """
    rep = sys.inf_sup(seed)
    if rep.singular:
        raise SingularSystemError("system matrix is singular")
    duo = solution_operator_norms(sys.lu, sys.D, sys.M, seed=seed)
    hstar_to_h = rep.c_dis
    cg1, cg2 = constants.c_g1, constants.c_g2
    upper1 = (1.0 / cg1) * (1.0 + cg2 * duo.h0_to_h)
    upper2 = duo.h0_to_h0 * math.sqrt(cg2 + 1.0 / duo.h0_to_h0) / math.sqrt(cg1)
    gamma_lower = 1.0 / upper1
    checks = (
        _make_check("chain1_lower", duo.h0_to_h, hstar_to_h),
        _make_check("chain1_upper", hstar_to_h, upper1),
        _make_check("chain2_lower", duo.h0_to_h0, duo.h0_to_h),
        _make_check("chain2_upper", duo.h0_to_h, upper2),
        _make_lower_check("infsup_lower", rep.gamma, gamma_lower),
        _make_check("two_routes", 0.0, 1e-8 * hstar_to_h),
    )
    return NormEquivalenceReport(
        constants=constants,
        hstar_to_h=hstar_to_h,
        h0_to_h=duo.h0_to_h,
        h0_to_h0=duo.h0_to_h0,
        gamma=rep.gamma,
        c_dis=rep.c_dis,
        checks=checks,
    )


def remesh_problem(spec: ProblemSpec, mesh: Mesh) -> ProblemSpec:
    """The problem ``spec`` on another mesh of its domain, at the same k and
    theta.

    The coefficient fields are transferred with :func:`resample_field`,
    which is exact when ``mesh`` refines ``spec.mesh`` (as
    ``spec.mesh.refined(r)`` does): both problems then see the same
    coefficient function. The boundary tags are the new mesh's own.
    """
    mu = resample_field(spec.mu_inv, mesh)
    eps = resample_field(spec.eps, mesh)
    return ProblemSpec(spec.k, mesh, mu, eps, spec.theta)


def _reference_rung(spec: ProblemSpec, refine: int, seed: int) -> tuple[int, float, float]:
    """(n_ref, h_ref, gamma_ref) of ``spec`` on its mesh refined ``refine``
    times; the reference system and its LU factors die on return."""
    ref = assemble_system(remesh_problem(spec, spec.mesh.refined(refine)))
    return ref.n, ref.spec.mesh.h, ref.inf_sup(seed).gamma


def infsup_ladder(
    rungs: Sequence[tuple[ProblemSpec, int, InfSupReport]],
    refine: int,
    seed: int = 0,
) -> InfSupLadder:
    """Discrete inf-sup constants along a refinement ladder in k.

    Each rung is a working system, given as its problem, its number of
    dofs and its inf-sup report under ``seed``; its reference is the same
    problem (:func:`remesh_problem`) on ``spec.mesh.refined(refine)``, the
    working mesh with every cell split ``refine`` times per axis, so the
    recorded ratio C_dis(h)/C_dis(h_ref) measures discretization error
    only: it is the empirical stability constant of the working
    resolution. Only the reference rung is assembled, factored and solved
    for here. Singular systems are recorded in the ladder rather than
    raised.
    """
    entries = []
    for spec, n, rep in rungs:
        n_ref, h_ref, gamma_ref = _reference_rung(spec, refine, seed)
        gamma = rep.gamma
        # singular reports carry gamma = 0
        singular = gamma == 0.0 or gamma_ref == 0.0
        entries.append(
            LadderEntry(
                k=float(spec.k), h=spec.mesh.h, h_ref=h_ref, n=n, n_ref=n_ref,
                gamma=gamma, gamma_ref=gamma_ref,
                # C_dis(h) / C_dis(h_ref) = gamma(h_ref) / gamma(h)
                ratio=math.nan if singular else gamma_ref / gamma, singular=singular,
            )
        )
    return InfSupLadder(tuple(entries))
