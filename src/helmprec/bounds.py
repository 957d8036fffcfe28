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
seed, its C_dis and its mass-matrix extremes, so each
command computes C_dis_1, C_dis_2 and m+/m- once. The norms of a pair use
the first system's Gram factor of D, the mass extremes keep no factor, and
C_dis_2 takes products with D only: the second system factors only its A.
A report reads C_dis_1 from its system's cache before that system's LU
factors, so the commands drop A1's LU once C_dis_1 is made: ``verify``
after the norm-equivalence report, ``import`` before the nearby report,
and A2 is factored beside D's Gram factor alone. Only the
coefficient-difference norms depend on the kind of system: they come
from the problems' fields for two Galerkin systems and are supplied
otherwise.

Helmholtz Galerkin matrices are complex symmetric, and when A1 and A2
both are, exactly (:func:`~helmprec.numerics.is_symmetric`), the
right-hand operator I - A1 A2^{-1} is the transpose of the left-hand
one, so by the twin identities of :mod:`helmprec.numerics`
||I - A1 A2^{-1}||_{D^{-1}} = ||I - A2^{-1} A1||_D and the two Euclidean
norms agree: only the left-hand side is estimated.

The shifted-coercivity (Gårding) inequality these bounds rest on is
sampled by :func:`garding_check`, on the calling thread, with a fixed
``GARDING_SAMPLES`` random vectors from one generator of the run's seed.

Note the smallness-condition checks use the measured discrete constant
C_dis_1 as a stand-in for its continuous counterpart; the refinement
ladder (:func:`infsup_ladder`) is the empirical instrument for that
identification: it compares each working system's C_dis, already
computed, with that of the same problem on a nested refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import GalerkinSystem, MatrixSystem, ProblemSpec, assemble_system
from .coeffs import field_diff_sup_norm, resample_field
from .errors import HelmprecError, InvalidArgumentError, InvalidPairError, SingularSystemError
from .mesh import Mesh
from .numerics import (
    LUFactor,
    is_symmetric,
    nearly_equal,
    solution_operator_norms,
    weighted_operator_norm,
)

SLACK = 1e-9
IDENTITY_RTOL = 1e-12

# The fixed sample count of garding_check, and its block size, chosen by
# measurement (see there).
GARDING_SAMPLES = 1000
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



@dataclass(frozen=True)
class Check:
    """One inequality: lhs <= rhs up to SLACK, with margin = rhs - lhs. The
    Gårding ``sampled`` check counts violating samples (lhs) against 0, and
    its margin is the worst relative margin of a sample."""

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

    c_g1: float
    c_g2: float
    n_samples: int
    violations: int
    worst_rel_margin: float
    canonical: bool
    identity_max_rel_err: Optional[float]

    JSON_KEYS = ("c_g1", "c_g2", "n_samples", "violations", "worst_rel_margin",
                 "canonical", "identity_max_rel_err", "passed")

    @property
    def checks(self) -> tuple[Check, ...]:
        """``sampled`` and, for a canonical problem, ``identity`` (garding_check)."""
        sampled = Check("sampled", self.violations, 0, self.violations == 0,
                        self.worst_rel_margin)
        err = self.identity_max_rel_err
        if err is None:
            return (sampled,)
        return sampled, Check("identity", err, IDENTITY_RTOL, err <= IDENTITY_RTOL,
                              IDENTITY_RTOL - err)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Both sides of every inequality for one pair of systems; k, h and
    alpha are None for an imported pair."""

    k: Optional[float]
    h: Optional[float]
    alpha: Optional[float]
    n: int
    dmu: float
    deps: float
    cdis1: float
    cdis2: float
    mass_ratio: float
    lhs_D: float
    lhs_Dinv: float
    lhs_2: float
    lhs_2p: float
    rhs_lemma: float
    rhs_lemma2: Optional[float]
    cond: float
    checks: tuple[Check, ...]

    CSV_COLUMNS = ("k", "h", "alpha", "n", "dmu", "deps", "cdis1", "cdis2", "mass_ratio",
                   "lhs_D", "lhs_Dinv", "lhs_2", "lhs_2p", "rhs_lemma", "rhs_lemma2",
                   "cond", "contraction", "singular", "passed")
    JSON_KEYS = CSV_COLUMNS + ("checks", "notes")
    notes = ("cond and the small_cond checks use the measured discrete constant of "
             "system 1 as a proxy for the continuous solution-operator norm",)

    @property
    def contraction(self) -> float:
        """Fixed-point/GMRES contraction factor c = ||I - A2^{-1} A1||_D."""
        return self.lhs_D

    @property
    def singular(self) -> bool:
        """A2 is singular: C_dis_2 = inf, and no norm was estimated."""
        return self.cdis2 == math.inf

    @property
    def passed(self) -> bool:
        return not self.singular and all(c.passed for c in self.checks)


@dataclass(frozen=True, eq=False)
class NormEquivalenceReport:
    """Solution-operator norm chains and the inf-sup lower bound."""

    c_g1: float
    c_g2: float
    hstar_to_h: float
    h0_to_h: float
    h0_to_h0: float
    gamma: float
    c_dis: float
    checks: tuple[Check, ...]

    JSON_KEYS = ("c_g1", "c_g2", "hstar_to_h", "h0_to_h", "h0_to_h0", "gamma", "c_dis",
                 "checks", "passed")

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

    CSV_COLUMNS = ("k", "h", "h_ref", "n", "n_ref", "gamma", "gamma_ref", "ratio", "singular")


def garding_constants_for(spec: ProblemSpec) -> GardingConstants:
    """Valid shifted-coercivity constants derived from coefficient ranges.

    With m = ``spec.mu_inv.real_min()``, the min eigenvalue of Re(mu^{-1})
    over elements, which ``ProblemSpec`` requires to be > 0, and
    E = max(Re eps, 0), the real part of the form is bounded below by
    m ||v||_H^2 - (m + E) ||v||_0^2, so (C_g1, C_g2) = (m, m + E) works;
    the homogeneous case gives exactly (1, 2).
    """
    m = spec.mu_inv.real_min()
    e_max = max(float(spec.eps.values.real.max()), 0.0)
    return GardingConstants(m, m + e_max)


def _band_tables(A, M, D) -> list:
    """The quadratic forms of A, M and D, read off their diagonals.

    Grouping the entries of v*Kv by diagonal offset o >= 0 gives, for a
    symmetric K (K^T = K),

        v*Kv = sum_o sum_i (K_{i,i+o} + K_{i+o,i}) p_{o,i},

    with p = Re(conj(v_i) v_{i+o}) and the main diagonal (o = 0) counted
    once: the imaginary parts cancel between (i, i+o) and (i+o, i). For
    v = x + iy, p = x_i x_{i+o} + y_i y_{i+o}.

    Returns one ``(o, sym)`` per offset o >= 0 of the union pattern of
    the three matrices. The columns of ``sym`` (n - o, 4) hold the sums of
    Re A, Im A, M and D: weighted by p they give Re v*Av, Im v*Av and the
    forms of the real M and D. A must be exactly symmetric, as every
    assembled A is (:func:`garding_check` refuses any other). The tables
    hold about 4 x offsets x n numbers: few for the package's banded
    systems.
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
    return [(o, s[:, : n - o].T) for o, s in zip(offsets.tolist(), sym)]


def _band_forms(bands: list, x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Re v*Av, Im v*Av, v*Mv and v*Dv, one row per sample v = x[j, 0] +
    1j * x[j, 1] of a block ``x`` of shape (b, 2, n), from
    :func:`_band_tables`.

    Per offset o, one elementwise shifted product of the 2b rows of ``x``
    gives (x_i x_{i+o}, y_i y_{i+o}) of every sample, and one product
    with the offset's table weights them for all four forms at once; the
    two rows of a sample add up to p. The shifted products are written
    into ``work``, a C-contiguous array of at least 2b rows of n, so a
    block allocates nothing of size n.
    """
    b, _, n = x.shape
    rows = x.reshape(2 * b, n)
    prod = work[: 2 * b]
    by_p = np.zeros((2 * b, 4))
    for o, sym in bands:
        m = n - o
        np.multiply(rows[:, :m], rows[:, o:], out=prod[:, :m])
        by_p += prod[:, :m] @ sym
    return by_p.reshape(b, 2, 4).sum(axis=1)


def garding_check(sys: GalerkinSystem, constants: GardingConstants,
                  seed: int = 0) -> GardingReport:
    """Sample random coefficient vectors against the shifted-coercivity bound.

    A must be exactly symmetric (:func:`~helmprec.numerics.is_symmetric`),
    as every assembled A is; any other A, one with a NaN entry too, is an
    ``InvalidArgumentError``.

    For the canonical homogeneous impedance problem (mu^{-1} = eps = 1,
    real theta) the inequality with constants (1, 2) follows from the
    exact identity Re A + 2M = D, which is then checked once, as a matrix
    identity: ``identity_max_rel_err`` = max |Re A + 2M - D| / max |D|
    over the entries must not exceed ``IDENTITY_RTOL``. A sample
    violates the bound when its relative margin is below
    -``IDENTITY_RTOL``. A sample whose quadratic forms or margin are not
    finite counts as a violation with margin -inf, so a check that
    computed nothing cannot pass.

    The ``GARDING_SAMPLES`` samples come from one generator,
    ``default_rng(seed)``, on the calling thread: sample j is row j of
    ``default_rng(seed).random((GARDING_SAMPLES, 2, n)) - 0.5``, real and
    imaginary parts. These centred uniforms have zero mean and a
    covariance proportional to I, like normals, at a fifth of the cost to
    draw, and each margin is a ratio of forms of degree 2, so their scale
    does not matter. They are drawn and evaluated in blocks of
    ``_GARDING_BLOCK`` into two buffers allocated once per call.

    No product with A, M or D is made: the diagonals of the three matrices
    are tabulated once per call (:func:`_band_tables`), and a block of b
    samples costs one elementwise shifted product of its b x 2 x n draws
    per diagonal offset o >= 0 of their pattern, times that offset's
    (n - o) x 4 table (:func:`_band_forms`): about offsets x b x n operations
    for all 3b forms. A P1 system has 2 offsets in 1D and 4 in 2D (0, 1,
    m and m + 1 for m free nodes per grid column). With one BLAS thread
    on a 2-core Xeon, the whole check took 0.072 s at n = 6,561 and
    0.344 s at n = 25,921, wall and CPU time alike. Blocks of 8 were 13%
    faster than blocks of 16 at n = 6,561 and 7% slower at n = 25,921;
    blocks of 32 were slower at both.
    """
    if not is_symmetric(sys.A):
        raise InvalidArgumentError("the Gårding check needs an exactly symmetric A")
    spec = sys.spec
    canonical = bool(
        not spec.mu_inv.is_matrix
        and np.all(spec.mu_inv.values == 1.0)
        and np.all(spec.eps.values == 1.0)
    )
    bands = _band_tables(sys.A, sys.M, sys.D)
    rng = np.random.default_rng(seed)
    draws = np.empty((_GARDING_BLOCK, 2, sys.n))  # (sample, re/im, dof)
    work = np.empty((2 * _GARDING_BLOCK, sys.n))
    forms = np.empty((GARDING_SAMPLES, 4))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite fails below
        for start in range(0, GARDING_SAMPLES, _GARDING_BLOCK):
            x = draws[: GARDING_SAMPLES - start]
            rng.random(out=x)
            x -= 0.5
            forms[start : start + len(x)] = _band_forms(bands, x, work)
        qa = forms[:, 0] + 1j * forms[:, 1]
        qm, qd = forms[:, 2], forms[:, 3]
        lhs = np.abs(qa + constants.c_g2 * qm)
        rhs = constants.c_g1 * qd
        margin = np.divide(lhs - rhs, rhs, out=np.zeros(GARDING_SAMPLES), where=rhs > 0)
        ident_err = None
        if canonical:
            ident_err = float(abs(sys.A.real + 2.0 * sys.M - sys.D).max() / abs(sys.D).max())
    finite = np.isfinite(qa) & np.isfinite(qm) & np.isfinite(qd) & np.isfinite(margin)
    margin[~finite] = -np.inf
    return GardingReport(
        c_g1=constants.c_g1,
        c_g2=constants.c_g2,
        n_samples=GARDING_SAMPLES,
        violations=int(np.count_nonzero(margin < -IDENTITY_RTOL)),
        worst_rel_margin=float(margin.min()),
        canonical=canonical,
        identity_max_rel_err=ident_err,
    )


def _matrices_match(X, Y) -> bool:
    # the D and M of two systems on one mesh and k are one object each
    return X is Y or (X.shape == Y.shape and nearly_equal(X, Y))


def _difference_operators(A1, A2, lu2: LUFactor):
    """(left, right, s): the actions of 2^s (I - A2^{-1} A1) (left) and
    2^s (I - A1 A2^{-1}) (right); ``math.ldexp(norm, -s)`` scales a norm of
    either back exactly.

    Written as A2^{-1} E and E A2^{-1} for E = A2 - A1 over the LU factors
    ``lu2`` of A2: applying the difference matrix first makes an identical
    pair give exactly zero, which the eigensolve reports as a zero norm
    after one application. E is scaled by 2^s to the binary exponent of
    max|A2| (s = 0 for E = 0), so a tiny perturbation's products, E twice
    in each normal operator, stay in the float range. Both operators come
    with adjoints (rmatvec) through the conjugate-transpose solve, as norm
    estimation requires.
    """
    A2 = sp.csr_matrix(A2, dtype=complex)
    E = (A2 - sp.csr_matrix(A1, dtype=complex)).tocsr()
    a_max, e_max = (np.abs(X.data).max(initial=0.0) for X in (A2, E))
    s = math.frexp(a_max)[1] - math.frexp(e_max)[1] if e_max else 0
    E.data = np.ldexp(E.data.real, s) + 1j * np.ldexp(E.data.imag, s)
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
    return left, right, s


def coefficient_differences(spec1: ProblemSpec, spec2: ProblemSpec) -> tuple[float, float]:
    """(dmu, deps): the sup norms of the differences of two problems'
    mu^{-1} and eps fields."""
    return (field_diff_sup_norm(spec1.mu_inv, spec2.mu_inv),
            field_diff_sup_norm(spec1.eps, spec2.eps))


def checked_norms(dmu, deps) -> tuple[float, float]:
    """The coefficient-difference norms (dmu, deps) as floats; each must be
    a finite number >= 0, or InvalidArgumentError is raised."""
    for name, value in (("dmu", dmu), ("deps", deps)):
        # an infinite norm would pass the nearby checks, a negative one
        # would emit the small-cond checks; a non-number would not compute
        number = isinstance(value, Real) and not isinstance(value, bool)
        if not (number and 0 <= value < math.inf):
            raise InvalidArgumentError(
                f"{name} must be a finite number >= 0, got {value!r}"
            )
    return float(dmu), float(deps)


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
    matrix systems they must be supplied. Either way :func:`checked_norms`
    checks them.
    """
    A1, A2 = sys1.A, sys2.A
    if A1.shape != A2.shape:
        raise InvalidPairError(f"dimension mismatch: {A1.shape} vs {A2.shape}")
    if not (_matrices_match(sys1.D, sys2.D) and _matrices_match(sys1.M, sys2.M)):
        raise InvalidPairError("systems do not share the same D and M")

    galerkin = isinstance(sys1, GalerkinSystem) and isinstance(sys2, GalerkinSystem)
    if galerkin and (dmu is None or deps is None):
        mu_norm, eps_norm = coefficient_differences(sys1.spec, sys2.spec)
        dmu = mu_norm if dmu is None else dmu
        deps = eps_norm if deps is None else deps
    dmu, deps = checked_norms(dmu, deps)

    n = sys1.n
    k = h = None
    if isinstance(sys1, GalerkinSystem):
        k, h = sys1.spec.k, sys1.spec.mesh.h

    # first, so its factors of sigma I - M and M are freed before D's Gram
    # factor and A2's complex LU factors exist
    me = sys1.mass_extremes(seed)
    G = sys1.gram_d
    cdis2 = sys2.c_dis(seed)
    nan = math.nan
    if cdis2 == math.inf:
        return BoundReport(
            k=k, h=h, alpha=alpha, n=n, dmu=dmu, deps=deps, cdis1=nan, cdis2=math.inf,
            mass_ratio=nan, lhs_D=nan, lhs_Dinv=nan, lhs_2=nan, lhs_2p=nan,
            rhs_lemma=math.inf, rhs_lemma2=None, cond=nan, checks=(),
        )
    cdis1 = sys1.c_dis(seed)
    op_left, op_right, s = _difference_operators(A1, A2, sys2.lu)
    lhs_D = math.ldexp(weighted_operator_norm(op_left, G, seed=seed), -s)
    lhs_2 = math.ldexp(weighted_operator_norm(op_left, None, seed=seed), -s)
    # A2's factor has tested A2 once already; a singular A1 has none
    if is_symmetric(A1) and sys2.lu.symmetric:
        # op_right is the transpose of op_left: the twin identities
        lhs_Dinv, lhs_2p = lhs_D, lhs_2
    else:  # ||C||_{D^{-1}} = ||C^H||_D
        lhs_Dinv = math.ldexp(weighted_operator_norm(op_right.H, G, seed=seed), -s)
        lhs_2p = math.ldexp(weighted_operator_norm(op_right, None, seed=seed), -s)

    rhs_lemma = (dmu + deps) * cdis2
    rhs_lemma2 = me.ratio * deps * cdis2 if dmu == 0.0 else None
    cond = (dmu + deps) * cdis1

    checks = [
        _make_check("nearby_D", lhs_D, rhs_lemma),
        _make_check("nearby_Dinv", lhs_Dinv, rhs_lemma),
    ]
    if rhs_lemma2 is not None:
        checks.append(_make_check("euclid_left", lhs_2, rhs_lemma2))
        checks.append(_make_check("euclid_right", lhs_2p, rhs_lemma2))
    if cond <= 0.5:
        checks.append(_make_check("perturbed_factor2", cdis2, 2.0 * cdis1))
        rhs_small = 2.0 * (dmu + deps) * cdis1
        checks.append(_make_check("small_cond_D", lhs_D, rhs_small))
        checks.append(_make_check("small_cond_Dinv", lhs_Dinv, rhs_small))

    return BoundReport(
        k=k, h=h, alpha=alpha, n=n, dmu=dmu, deps=deps,
        cdis1=cdis1, cdis2=cdis2, mass_ratio=me.ratio,
        lhs_D=lhs_D, lhs_Dinv=lhs_Dinv, lhs_2=lhs_2, lhs_2p=lhs_2p,
        rhs_lemma=rhs_lemma, rhs_lemma2=rhs_lemma2, cond=cond, checks=tuple(checks),
    )


def norm_equivalence_report(sys: MatrixSystem, constants: GardingConstants,
                            seed: int = 0) -> NormEquivalenceReport:
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
    hstar_to_h = sys.c_dis(seed)
    if hstar_to_h == math.inf:
        raise SingularSystemError("system matrix is singular")
    duo = solution_operator_norms(sys.lu, sys.D, sys.M, seed=seed)
    gamma = 1.0 / hstar_to_h
    cg1, cg2 = constants.c_g1, constants.c_g2
    upper1 = (1.0 / cg1) * (1.0 + cg2 * duo.h0_to_h)
    upper2 = duo.h0_to_h0 * math.sqrt(cg2 + 1.0 / duo.h0_to_h0) / math.sqrt(cg1)
    gamma_lower = 1.0 / upper1
    checks = (
        _make_check("chain1_lower", duo.h0_to_h, hstar_to_h),
        _make_check("chain1_upper", hstar_to_h, upper1),
        _make_check("chain2_lower", duo.h0_to_h0, duo.h0_to_h),
        _make_check("chain2_upper", duo.h0_to_h, upper2),
        _make_lower_check("infsup_lower", gamma, gamma_lower),
        _make_check("two_routes", 0.0, 1e-8 * hstar_to_h),
    )
    return NormEquivalenceReport(
        c_g1=cg1,
        c_g2=cg2,
        hstar_to_h=hstar_to_h,
        h0_to_h=duo.h0_to_h,
        h0_to_h0=duo.h0_to_h0,
        gamma=gamma,
        c_dis=hstar_to_h,
        checks=checks,
    )


def remesh_problem(spec: ProblemSpec, mesh: Mesh) -> ProblemSpec:
    """The problem ``spec`` on another mesh of its domain, at the same k and
    theta.

    ``mesh`` must be a nested refinement ``spec.mesh.refined(r)``, whose
    parent map (:meth:`Mesh.locate_elements`) carries both coefficient
    fields over with :func:`resample_field`, so both problems see the same
    coefficient function; any other mesh is an ``InvalidArgumentError``.
    The boundary tags are the new mesh's own.
    """
    parent = spec.mesh.locate_elements(mesh)
    mu = resample_field(spec.mu_inv, mesh, parent)
    eps = resample_field(spec.eps, mesh, parent)
    return ProblemSpec(spec.k, mesh, mu, eps, spec.theta)


def _reference_rung(spec: ProblemSpec, refine: int, seed: int) -> tuple[int, float, float]:
    """(n_ref, h_ref, C_dis) of ``spec`` on its mesh refined ``refine``
    times; the reference system and its LU factors die on return."""
    ref = assemble_system(remesh_problem(spec, spec.mesh.refined(refine)))
    return ref.n, ref.spec.mesh.h, ref.c_dis(seed)


def infsup_ladder(
    rungs: Sequence[tuple[ProblemSpec, int, float]],
    refine: int,
    seed: int = 0,
) -> InfSupLadder:
    """Discrete inf-sup constants along a refinement ladder in k.

    Each rung is a working system, given as its problem, its number of
    dofs and its C_dis under ``seed`` (inf when singular); its reference is
    the same problem (:func:`remesh_problem`) on ``spec.mesh.refined(refine)``,
    the working mesh with every cell split ``refine`` times per axis, so the
    recorded ratio C_dis(h)/C_dis(h_ref) measures discretization error
    only: it is the empirical stability constant of the working
    resolution. Only the reference rung is assembled, factored and solved
    for here. Each gamma is written as 1/C_dis, so a singular system is
    recorded in the ladder with gamma 0 rather than raised. A rung whose
    reference mesh, system or C_dis raises a HelmprecError has no entry, as
    a working rung that failed is never passed in.
    """
    entries = []
    for spec, n, c_dis in rungs:
        try:
            n_ref, h_ref, c_dis_ref = _reference_rung(spec, refine, seed)
        except HelmprecError:
            continue
        gamma, gamma_ref = 1.0 / c_dis, 1.0 / c_dis_ref
        singular = math.inf in (c_dis, c_dis_ref)
        entries.append(
            LadderEntry(
                k=float(spec.k), h=spec.mesh.h, h_ref=h_ref, n=n, n_ref=n_ref,
                gamma=gamma, gamma_ref=gamma_ref,
                # C_dis(h) / C_dis(h_ref) = gamma(h_ref) / gamma(h)
                ratio=math.nan if singular else gamma_ref / gamma, singular=singular,
            )
        )
    return InfSupLadder(tuple(entries))
