import dataclasses
import functools
import itertools
import math
import os
import sys as sys_module
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    DIR,
    IMP,
    canonical_1d,
    canonical_spec_1d,
    canonical_spec_2d,
    oracle_infsup,
    oracle_weighted_norm,
    working_rung,
)

from helmprec import bounds
from helmprec.assemble import MatrixSystem, assemble_system
from helmprec.bounds import (
    _GARDING_BLOCK,
    _band_forms,
    _band_tables,
    CANONICAL_GARDING,
    GardingConstants,
    GardingReport,
    garding_check,
    garding_constants_for,
    infsup_ladder,
    nearby_bound_report,
    norm_equivalence_report,
    remesh_problem,
)
from helmprec.coeffs import (
    CoefficientField,
    Role,
    absorption_shift,
    constant_field,
    piecewise_field,
    pml_profile_1d,
)
from helmprec.errors import (
    InvalidArgumentError,
    InvalidCoefficientError,
    InvalidPairError,
    SingularSystemError,
)
from helmprec.mesh import build_interval_mesh, build_rect_mesh
from helmprec.numerics import gram_factor, weighted_operator_norm
from helmprec.assemble import ProblemSpec


def eps_perturbed(spec, delta):
    eps2 = piecewise_field(
        spec.mesh, lambda x: 1.0 + delta if x < 0.5 else 1.0, Role.EPS
    )
    return assemble_system(ProblemSpec(spec.k, spec.mesh, spec.mu_inv, eps2, spec.theta))


def test_garding_canonical_identity_holds():
    rep = garding_check(canonical_1d(10.0, 60), CANONICAL_GARDING, n_samples=200)
    assert rep.canonical
    assert rep.violations == 0
    assert rep.identity_max_rel_err <= 1e-12
    assert rep.passed


def test_garding_zero_vector_is_degenerate_pass():
    s = canonical_1d(3.0, 10)
    v = np.zeros(s.n, dtype=complex)
    qa = np.vdot(v, s.A.toarray() @ v)
    qm = np.vdot(v, s.M.toarray() @ v).real
    qd = np.vdot(v, s.D.toarray() @ v).real
    assert abs(qa + 2 * qm) >= 1 * qd  # 0 >= 0


def test_garding_false_constants_reported():
    rep = garding_check(canonical_1d(10.0, 60), GardingConstants(10.0, 0.0),
                        n_samples=200)
    assert rep.violations > 0
    assert not rep.passed
    assert rep.worst_rel_margin < 0


B = _GARDING_BLOCK


@functools.cache
def block_draws(n, n_samples, seed, i):
    """The (B, 2, n) draws of block i: a full block of child stream i of
    the seed, of which a short last block uses the leading rows."""
    stream = np.random.SeedSequence(seed).spawn(-(-n_samples // B))[i]
    return np.random.default_rng(stream).standard_normal((B, 2, n))


def garding_reference(sys, constants, n_samples, seed, rtol=1e-12):
    """One vector at a time: the sample loop the blocked evaluation of
    ``garding_check`` must reproduce, with the same random vectors."""
    A, M, D = sys.A, sys.M, sys.D
    spec = sys.spec
    canonical = bool(
        not spec.mu_inv.is_matrix
        and np.all(spec.mu_inv.values == 1.0)
        and np.all(spec.eps.values == 1.0)
    )
    violations = 0
    worst = math.inf
    ident_err = 0.0
    for j in range(n_samples):
        x = block_draws(sys.n, n_samples, seed, j // B)[j % B]
        v = x[0] + 1j * x[1]
        qa = complex(np.vdot(v, A @ v))
        qm = float(np.vdot(v, M @ v).real)
        qd = float(np.vdot(v, D @ v).real)
        lhs = abs(qa + constants.c_g2 * qm)
        rhs = constants.c_g1 * qd
        margin = (lhs - rhs) / rhs if rhs > 0 else 0.0
        worst = min(worst, margin)
        if margin < -rtol:
            violations += 1
        if canonical:
            ident_err = max(ident_err, abs(qa.real + 2.0 * qm - qd) / qd)
    return GardingReport(
        constants=constants,
        n_samples=n_samples,
        violations=violations,
        worst_rel_margin=worst,
        canonical=canonical,
        identity_max_rel_err=ident_err if canonical else None,
    )


def _step_spec_2d():
    """Unit square, mu^-1 in {0.5, 2} split in x, eps in {1, 3} split in y."""
    mesh = build_rect_mesh(1, 1, 8, 8, IMP)
    mu = piecewise_field(mesh, lambda p: 0.5 if p[0] < 0.5 else 2.0, Role.MU_INV)
    eps = piecewise_field(mesh, lambda p: 1.0 if p[1] < 0.5 else 3.0, Role.EPS)
    return ProblemSpec(10.0, mesh, mu, eps, 1.0)


def _matrix_mu_spec_2d():
    """Rotated anisotropic complex-symmetric mu^-1 on a 12 x 17 square."""
    mesh = build_rect_mesh(1, 1, 12, 17, IMP)
    theta = np.pi * mesh.element_centroids().sum(axis=1)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    diag = np.zeros((mesh.n_elements, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, 0.1
    values = (rot @ diag @ np.swapaxes(rot, 1, 2)) * (1 + 0.2j)
    values = 0.5 * (values + np.swapaxes(values, 1, 2))
    mu = CoefficientField(mesh, values, Role.MU_INV)
    return ProblemSpec(5.0, mesh, mu, constant_field(mesh, 1.0, Role.EPS), 1.0)


@functools.cache
def _garding_case(name):
    """(system, constants) of one named Gårding case."""
    if name == "canonical_1d":
        return canonical_1d(10.0, 60), CANONICAL_GARDING
    if name == "canonical_2d":
        return assemble_system(canonical_spec_2d(10.0, 10, 10)), CANONICAL_GARDING
    if name == "false_constants":
        return canonical_1d(10.0, 60), GardingConstants(10.0, 0.0)
    if name == "nan_entry":
        sys = canonical_1d(3.0, 10)
        A = sys.A.tocoo()
        A.data[3] = np.nan
        return dataclasses.replace(sys, A=A.tocsr()), CANONICAL_GARDING
    if name == "overflow":  # mu^-1 = 1e306: finite entries whose forms overflow
        spec = canonical_spec_1d(3.0, 100)
        mu = constant_field(spec.mesh, 1e306, Role.MU_INV)
        spec = ProblemSpec(spec.k, spec.mesh, mu, spec.eps, spec.theta)
        return assemble_system(spec), CANONICAL_GARDING
    spec = _step_spec_2d() if name == "step_mu" else _matrix_mu_spec_2d()
    return assemble_system(spec), garding_constants_for(spec)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n_samples", [1, B - 1, B, B + 1, 1000])
@pytest.mark.parametrize("case", ["canonical_1d", "canonical_2d", "false_constants",
                                  "step_mu", "matrix_mu"])
def test_garding_blocks_match_reference(case, n_samples, seed):
    """Blocked evaluation = the per-vector loop, up to summation order."""
    sys, constants = _garding_case(case)
    rep = garding_check(sys, constants, n_samples=n_samples, seed=seed)
    ref = garding_reference(sys, constants, n_samples, seed)
    assert (rep.n_samples, rep.violations, rep.canonical, rep.passed) == (
        ref.n_samples, ref.violations, ref.canonical, ref.passed)
    assert abs(rep.worst_rel_margin - ref.worst_rel_margin) <= 1e-12
    if ref.canonical:
        assert rep.identity_max_rel_err <= 1e-12
    else:
        assert rep.identity_max_rel_err is None
    if case == "false_constants" and n_samples == 1000:
        assert rep.violations > 0


def _recording(sys):
    """``sys`` with A, M and D recording each operand multiplied into them,
    as (matrix name, operand copy), in call order."""
    log = []

    def recorder(name, X):
        class Recorded(type(X)):
            def __matmul__(self, other):
                log.append((name, np.array(other, copy=True)))
                return super().__matmul__(other)

        return Recorded(X)

    mats = {name: recorder(name, getattr(sys, name)) for name in ("A", "M", "D")}
    return dataclasses.replace(sys, **mats), log


@pytest.mark.parametrize("n_samples", [1, B - 1, B, B + 1, 2 * B + 3, 1000])
def test_garding_sparse_products_per_block(n_samples):
    """No product with A, M or D, neither per block nor per sample: the
    forms are read off the diagonals, with or without a skew part."""
    for case in ("canonical_1d", "matrix_mu"):
        sys, log = _recording(_garding_case(case)[0])
        garding_check(sys, n_samples=n_samples)
        assert log == []


def test_garding_samples_are_the_block_streams(monkeypatch):
    """Sample j is row j mod B of block j // B, drawn by one standard_normal
    fill from child stream j // B of the seed's SeedSequence."""
    n_samples, seed = 2 * B + 3, 5
    sys = canonical_1d(10.0, 60)
    log = []

    class Recording(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            out = super().standard_normal(*args, **kwargs)
            log.append((self.bit_generator.seed_seq.spawn_key, np.array(out, copy=True)))
            return out

    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: Recording(np.random.PCG64(s)))
    garding_check(sys, n_samples=n_samples, seed=seed)
    log.sort(key=lambda entry: entry[0])
    assert [key for key, _ in log] == [(0,), (1,), (2,)]
    drawn = np.concatenate([draws for _, draws in log])  # (sample, re/im, dof)
    expected = [block_draws(sys.n, n_samples, seed, j // B)[j % B] for j in range(n_samples)]
    assert np.array_equal(drawn, np.stack(expected))


def _dense_forms(A, M, D, x):
    """v*Av, v*Mv and v*Dv of v = x[:, 0] + 1j * x[:, 1], with dense products."""
    V = (x[:, 0] + 1j * x[:, 1]).T
    return [np.einsum("ij,ij->j", V.conj(), K.toarray() @ V) for K in (A, M, D)]


def assert_band_forms_exact(A, M, D, seed=0):
    x = np.random.default_rng(seed).standard_normal((B + 3, 2, A.shape[0]))
    forms = _band_forms(_band_tables(A, M, D), x, np.empty((2 * (B + 3), A.shape[0])))
    qa, qm, qd = _dense_forms(A, M, D, x)
    np.testing.assert_allclose(forms[:, 0] + 1j * forms[:, 1], qa, rtol=1e-13)
    np.testing.assert_allclose(forms[:, 2], qm.real, rtol=1e-13)
    np.testing.assert_allclose(forms[:, 3], qd.real, rtol=1e-13)


def test_band_forms_of_a_non_symmetric_banded_matrix():
    """Any complex A, with no symmetry: the skew part of each offset counts."""
    rng = np.random.default_rng(3)
    n, offsets = 40, [-7, -2, 0, 1, 5, 6]
    A = sp.diags([rng.standard_normal(n - abs(o)) + 1j * rng.standard_normal(n - abs(o))
                  for o in offsets], offsets, format="csr")
    M = sp.diags([rng.standard_normal(n - abs(o)) for o in (-1, 0, 3)], [-1, 0, 3],
                 format="csr")
    D = sp.identity(n, format="csr")
    assert (A - A.T).count_nonzero() > 0 and (M - M.T).count_nonzero() > 0
    assert [o for o, _, _ in _band_tables(A, M, D)] == [0, 1, 2, 3, 5, 6, 7]
    assert_band_forms_exact(A, M, D)


def test_band_forms_of_a_matrix_mu_system():
    """A matrix-valued mu^{-1} assembles an exactly symmetric A, so no offset
    carries a skew table, and the forms still match dense products."""
    sys = _garding_case("matrix_mu")[0]
    assert (sys.A != sys.A.T).nnz == 0
    assert all(skew is None for _, _, skew in _band_tables(sys.A, sys.M, sys.D))
    assert_band_forms_exact(sys.A, sys.M, sys.D)


def test_band_forms_of_an_absorption_pair():
    sys1 = assemble_system(canonical_spec_2d(10.0, 9, 7))
    sys2 = assemble_system(sys1.spec.with_absorption(0.3))
    for sys in (sys1, sys2):
        assert_band_forms_exact(sys.A, sys.M, sys.D)


SIDE_TAGS = [dict(zip(("left", "right", "bottom", "top"), tags))
             for tags in itertools.product([IMP, DIR], repeat=4)]


@pytest.mark.parametrize("tags", SIDE_TAGS,
                         ids=["".join("D" if t == DIR else "I" for t in tags.values())
                              for tags in SIDE_TAGS])
def test_band_forms_for_every_dirichlet_subset(tags):
    """At most 4 offsets >= 0 in 2D, with the forms exact whichever sides
    are Dirichlet."""
    sys = assemble_system(canonical_spec_2d(6.0, 9, 7, tags=tags))
    assert len(_band_tables(sys.A, sys.M, sys.D)) <= 4
    assert_band_forms_exact(sys.A, sys.M, sys.D)


@pytest.mark.parametrize("left,right", [(IMP, IMP), (DIR, IMP), (IMP, DIR), (DIR, DIR)])
def test_band_forms_1d(left, right):
    sys = canonical_1d(6.0, 30, left=left, right=right)
    assert [o for o, _, _ in _band_tables(sys.A, sys.M, sys.D)] == [0, 1]
    assert_band_forms_exact(sys.A, sys.M, sys.D)


@pytest.mark.parametrize("name", ["A", "M", "D"])
def test_garding_non_finite_form_is_a_violation(name):
    """A NaN entry, on the diagonal or off it, makes every sample's form
    with that matrix NaN: each sample is a violation, the worst margin is
    -inf and the report fails."""
    sys = canonical_1d(3.0, 10)
    for diagonal in (True, False):
        X = getattr(sys, name).tocoo()
        X.data[np.flatnonzero((X.row == X.col) == diagonal)[3]] = np.nan
        rep = garding_check(dataclasses.replace(sys, **{name: X.tocsr()}), n_samples=B + 1)
        assert rep.violations == B + 1
        assert rep.worst_rel_margin == -math.inf
        assert not rep.passed


def test_garding_overflowing_form_is_a_violation():
    """A finite system whose quadratic forms overflow (mu^-1 = 1e306 gives
    stiffness entries near 2e307) cannot pass."""
    spec = canonical_spec_1d(3.0, 100)
    mu = constant_field(spec.mesh, 1e306, Role.MU_INV)
    sys = assemble_system(ProblemSpec(spec.k, spec.mesh, mu, spec.eps, spec.theta))
    assert np.all(np.isfinite(sys.A.data))
    rep = garding_check(sys, n_samples=3)
    assert rep.violations == 3
    assert rep.worst_rel_margin == -math.inf
    assert not rep.passed


@pytest.mark.parametrize("case", ["canonical_2d", "step_mu", "matrix_mu", "nan_entry",
                                  "overflow"])
def test_garding_report_does_not_depend_on_the_workers(monkeypatch, case):
    """One worker, two or eight (the affinity lookup patched; more workers
    than cores, switching threads every microsecond so that two workers
    sharing a buffer would show): the same report field for field, and
    every worker thread is gone when the check returns."""
    sys, constants = _garding_case(case)
    pools = []

    class Pool(bounds.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(bounds, "ThreadPoolExecutor", Pool)
    reports = []
    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: set(range(c)))
            threads = threading.active_count()
            reports.append(garding_check(sys, constants, n_samples=1000, seed=7))
            assert threading.active_count() == threads
    finally:
        sys_module.setswitchinterval(interval)
    assert pools == [1, 2, 8]
    for report in reports[1:]:
        np.testing.assert_equal(dataclasses.asdict(report), dataclasses.asdict(reports[0]))
    if case in ("nan_entry", "overflow"):
        assert reports[0].worst_rel_margin == -math.inf and not reports[0].passed


def test_band_forms_allocate_no_shifted_product():
    """The shifted products go into the caller's work buffer: evaluating a
    block allocates a small fraction of one (2B, n) product (numpy's
    iterator may take a buffer of at most a few 8,192-element chunks)."""
    sys = assemble_system(canonical_spec_2d(10.0, 80, 80))
    bands = _band_tables(sys.A, sys.M, sys.D)
    x = np.random.default_rng(0).standard_normal((B, 2, sys.n))
    work = np.empty((2 * B, sys.n))
    tracemalloc.start()
    try:
        _band_forms(bands, x, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < work.nbytes / 4


@pytest.mark.parametrize("n_samples", [0, -1])
def test_garding_rejects_empty_sample(n_samples):
    """No samples would read as a PASS that tested nothing."""
    with pytest.raises(InvalidArgumentError):
        garding_check(canonical_1d(3.0, 10), n_samples=n_samples)


@pytest.mark.parametrize("c_g1,c_g2", [(math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0),
                                       (1.0, math.inf), (0.0, 2.0), (1.0, -1.0)])
def test_garding_constants_must_be_finite(c_g1, c_g2):
    """A NaN constant would leave every margin at 0, a PASS; C_g2 = 0 stays."""
    with pytest.raises(InvalidArgumentError):
        GardingConstants(c_g1, c_g2)
    assert GardingConstants(1.0, 0.0).c_g2 == 0.0


def test_garding_constants_for_fields():
    spec = canonical_spec_1d(5.0, 10)
    g = garding_constants_for(spec)
    assert (g.c_g1, g.c_g2) == (1.0, 2.0)
    mesh = spec.mesh
    spec2 = ProblemSpec(
        5.0, mesh, constant_field(mesh, 2.0, Role.MU_INV),
        constant_field(mesh, 3.0, Role.EPS), 1.0,
    )
    g2 = garding_constants_for(spec2)
    assert (g2.c_g1, g2.c_g2) == (2.0, 5.0)
    rep = garding_check(assemble_system(spec2), g2, n_samples=300)
    assert rep.violations == 0


def test_garding_constants_for_matrix_mu():
    """Rotated anisotropic Re(mu^-1): the element-by-element minimum eigenvalue."""
    mesh = build_rect_mesh(1, 1, 20, 20, IMP)
    theta = np.pi * mesh.element_centroids().sum(axis=1)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    scales = 1.0 + 0.5 * mesh.element_centroids()[:, 0]
    diag = np.zeros((mesh.n_elements, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = scales, 0.1 * scales
    values = rot @ diag @ np.swapaxes(rot, 1, 2)
    values = 0.5 * (values + np.swapaxes(values, 1, 2)) * (1 + 0.2j)
    loop_min = min(float(np.linalg.eigvalsh(v.real).min()) for v in values)
    mu = CoefficientField(mesh, values, Role.MU_INV)
    spec = ProblemSpec(5.0, mesh, mu, constant_field(mesh, 1.0, Role.EPS), 1.0)
    assert garding_constants_for(spec) == GardingConstants(loop_min, loop_min + 1.0)

    bad = values.copy()
    bad[137] = np.diag([1.0, -0.25])
    with pytest.raises(InvalidCoefficientError, match="min -0.25"):
        CoefficientField(mesh, bad, Role.MU_INV)


def test_singular_pair_report():
    """An exactly singular A2 is reported, with every estimate left unset."""
    s1 = canonical_1d(6.0, 40)
    bad = s1.A.tolil()
    bad[0, :] = 0
    rep = nearby_bound_report(s1, dataclasses.replace(s1, A=bad.tocsr()))
    assert rep.singular and not rep.passed
    assert rep.c_dis2 == math.inf and rep.rhs_lemma == math.inf
    assert rep.checks == () and rep.rhs_lemma2 is None
    for v in (rep.c_dis1, rep.mass_ratio, rep.lhs_D, rep.lhs_Dinv,
              rep.lhs_2, rep.lhs_2p, rep.cond):
        assert math.isnan(v)


def test_norm_equivalence_report_singular_raises():
    s = canonical_1d(5.0, 10)
    bad = s.A.tolil()
    bad[0, :] = 0
    with pytest.raises(SingularSystemError):
        norm_equivalence_report(MatrixSystem(bad.tocsr(), s.D, s.M))


def test_identity_pair_zero_report():
    s = canonical_1d(6.0, 40)
    rep = nearby_bound_report(s, s)
    assert rep.dmu == 0.0 and rep.deps == 0.0
    assert rep.lhs_D == 0.0 and rep.lhs_Dinv == 0.0
    assert rep.lhs_2 == 0.0 and rep.lhs_2p == 0.0
    assert rep.rhs_lemma == 0.0
    assert rep.passed
    for c in rep.checks:
        if c.name.startswith(("nearby", "euclid", "small_cond")):
            assert c.margin == 0.0


def test_nearby_bounds_dense_oracle_eps_perturbation():
    spec = canonical_spec_1d(10.0, 100)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.1)))
    rep = nearby_bound_report(s1, s2)
    assert rep.deps == pytest.approx(0.1, rel=1e-14)
    # both sides, independently: lhs via dense SVD, rhs via dense inf-sup
    C = np.eye(s1.n) - np.linalg.solve(s2.A.toarray(), s1.A.toarray())
    lhs_dense = oracle_weighted_norm(C, s1.D, "D")
    cdis2_dense = 1.0 / oracle_infsup(s2.A, s1.D)
    assert rep.lhs_D == pytest.approx(lhs_dense, rel=1e-8)
    assert rep.c_dis2 == pytest.approx(cdis2_dense, rel=1e-8)
    assert lhs_dense <= 0.1 * cdis2_dense
    assert rep.lhs_D <= rep.rhs_lemma
    assert rep.rhs_lemma - rep.lhs_D > 0  # strictly positive margin
    assert rep.lhs_2 <= rep.mass_ratio * 0.1 * rep.c_dis2 * (1 + 1e-9)
    assert rep.passed


def test_nearby_bounds_mu_perturbation():
    spec = canonical_spec_1d(4.0, 30)
    s1 = assemble_system(spec)
    mu2 = constant_field(spec.mesh, 2.0, Role.MU_INV)
    s2 = assemble_system(ProblemSpec(spec.k, spec.mesh, mu2, spec.eps, spec.theta))
    rep = nearby_bound_report(s1, s2)
    assert rep.dmu == pytest.approx(1.0, rel=1e-14)
    assert rep.rhs_lemma2 is None  # Euclidean bound needs mu fixed
    C = np.eye(s1.n) - np.linalg.solve(s2.A.toarray(), s1.A.toarray())
    assert rep.lhs_D == pytest.approx(oracle_weighted_norm(C, s1.D, "D"), rel=1e-8)
    assert rep.lhs_D <= rep.rhs_lemma * (1 + 1e-9)
    assert rep.passed


def test_absorption_zero_alpha_is_identity():
    s1 = canonical_1d(5.0, 20)
    rep = nearby_bound_report(s1, assemble_system(s1.spec.with_absorption(0.0)), alpha=0.0)
    assert rep.lhs_D == 0.0 and rep.rhs_lemma == 0.0 and rep.passed


def residual_operators(A1, A2) -> tuple[spla.LinearOperator, spla.LinearOperator]:
    """Actions of I - A2^{-1} A1 (left) and I - A1 A2^{-1} (right).

    The cancellation form of the residual operators, a reference route
    for the difference form the bound report uses. Both come with
    adjoints (rmatvec) through the conjugate-transpose solve of the same
    LU factorization, as required for norm estimation.
    """
    lu2 = spla.splu(sp.csc_matrix(A2, dtype=complex))
    A1c = sp.csr_matrix(A1, dtype=complex)
    A1h = A1c.getH().tocsr()
    n = A1c.shape[0]
    left = spla.LinearOperator(
        (n, n),
        matvec=lambda x: x - lu2.solve(A1c @ x),
        rmatvec=lambda y: y - A1h @ lu2.solve(y, trans="H"),
        dtype=complex,
    )
    right = spla.LinearOperator(
        (n, n),
        matvec=lambda x: x - A1c @ lu2.solve(x),
        rmatvec=lambda y: y - lu2.solve(A1h @ y, trans="H"),
        dtype=complex,
    )
    return left, right


def test_residual_identity_two_routes():
    spec = canonical_spec_1d(10.0, 80)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.2)))
    rep = nearby_bound_report(s1, s2)
    op_left, op_right = residual_operators(s1.A, s2.A)
    g = gram_factor(s1.D)
    direct = weighted_operator_norm(op_left, g, "D")
    assert direct == pytest.approx(rep.lhs_D, rel=1e-10)
    direct_r = weighted_operator_norm(op_right, g, "D_inv")
    assert direct_r == pytest.approx(rep.lhs_Dinv, rel=1e-10)


def test_adjoint_symmetry_of_right_norm():
    spec = canonical_spec_1d(8.0, 60)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.15)))
    rep = nearby_bound_report(s1, s2)
    op_left_adj, _ = residual_operators(s1.A.getH().tocsr(), s2.A.getH().tocsr())
    g = gram_factor(s1.D)
    val = weighted_operator_norm(op_left_adj, g, "D")
    assert val == pytest.approx(rep.lhs_Dinv, rel=1e-10)


def test_factor_two_under_smallness():
    s1 = canonical_1d(10.0, 100)
    rep = nearby_bound_report(s1, assemble_system(s1.spec.with_absorption(0.05)), alpha=0.05)
    assert rep.cond <= 0.5
    assert rep.c_dis2 <= 2 * rep.c_dis1 * (1 + 1e-9)
    names = [c.name for c in rep.checks]
    assert "perturbed_factor2" in names and "small_cond_D" in names
    assert rep.passed


def test_invalid_pairs_raise():
    s1 = canonical_1d(5.0, 20)
    s2 = canonical_1d(5.0, 21)
    with pytest.raises(InvalidPairError):
        nearby_bound_report(s1, s2)
    s3 = canonical_1d(5.0, 20, theta=2.0)  # same size, different D? no: different B only
    # same D/M but different theta is a legitimate pair; check it does not raise
    nearby_bound_report(s1, s3, dmu=0.0, deps=0.0)
    s4 = canonical_1d(5.0, 20, a=0.0, b=2.0)
    with pytest.raises(InvalidPairError):
        nearby_bound_report(s1, s4)


def test_external_pair_report_and_missing_norms():
    spec = canonical_spec_1d(9.0, 50)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.2)))
    rep_in = nearby_bound_report(s1, s2)
    b1 = MatrixSystem(s1.A, s1.D, s1.M)
    b2 = MatrixSystem(s2.A, s1.D, s1.M)
    with pytest.raises(InvalidArgumentError):
        nearby_bound_report(b1, b2)
    with pytest.raises(InvalidArgumentError):
        nearby_bound_report(b1, b2, dmu=0.0)
    rep_ext = nearby_bound_report(b1, b2, dmu=0.0, deps=0.2)
    assert rep_ext.lhs_D == rep_in.lhs_D
    assert rep_ext.rhs_lemma == rep_in.rhs_lemma


def test_norm_equivalence_trivial_system():
    # A = D with M = D: all three norms are 1 and the chains are tight
    s = canonical_1d(5.0, 20)
    rep = norm_equivalence_report(MatrixSystem(s.D.astype(complex).tocsr(), s.D, s.D))
    for v in (rep.hstar_to_h, rep.h0_to_h, rep.h0_to_h0, rep.gamma):
        assert v == pytest.approx(1.0, rel=1e-9)
    assert rep.passed


@pytest.mark.parametrize("k,n", [(5, 50), (20, 400)])
def test_norm_equivalence_report_canonical(k, n):
    rep = norm_equivalence_report(canonical_1d(float(k), n))
    assert rep.passed, [(c.name, c.passed) for c in rep.checks]
    assert rep.gamma >= 1.0 / (1.0 + 2.0 * rep.h0_to_h) * (1 - 1e-9)


def _interval_ladder(ks, elements, refine):
    """Ladder on canonical [0, 1] problems with ``elements(k)`` elements per
    working mesh, each refined ``refine`` times for its reference."""
    rungs = [working_rung(canonical_spec_1d(k, elements(k))) for k in ks]
    return infsup_ladder(rungs, refine)


def test_ladder_trivial_equal_rules():
    ladder = _interval_ladder([10.0], lambda k: 20, refine=1)
    assert len(ladder.entries) == 1
    e = ladder.entries[0]
    assert e.ratio == 1.0
    assert not e.singular
    assert (e.n, e.h) == (e.n_ref, e.h_ref) == (21, 0.05)


def test_ladder_preasymptotic_band():
    ladder = _interval_ladder(
        [10.0, 20.0, 40.0], lambda k: math.ceil(k ** 1.5), refine=4
    )
    for e in ladder.entries:
        assert not e.singular
        assert 1 / 3 <= e.ratio <= 3
        assert e.n_ref - 1 == 4 * (e.n - 1)
    ks = [e.k for e in ladder.entries]
    assert ks == [10.0, 20.0, 40.0]


def test_ladder_fixed_points_per_wavelength_recorded():
    ladder = _interval_ladder([10.0, 20.0], lambda k: int(2 * k), refine=4)
    assert len(ladder.entries) == 2
    for e in ladder.entries:
        assert math.isfinite(e.ratio)


def test_ladder_frees_each_reference_rung_before_the_next(monkeypatch, live_factors):
    """A reference system, with its LU factors, is dead before the next
    rung's reference is assembled, so the ladder holds one rung at a time."""
    systems, dead_at_assembly = [], []
    assemble = bounds.assemble_system

    def recording_assemble(spec):
        dead_at_assembly.append([ref() is None for ref in systems])
        system = assemble(spec)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(bounds, "assemble_system", recording_assemble)
    ladder = _interval_ladder([10.0, 20.0, 40.0], lambda k: int(2 * k), refine=2)
    assert len(ladder.entries) == 3
    assert dead_at_assembly == [[], [True], [True, True]]
    assert live_factors == [0] * 6  # three working and three reference LUs


def test_remesh_preserves_structure():
    """The nested transfer of a step field is exact: the fine problem sees
    the coefficient function of the coarse one, at the same k and theta."""
    mesh = build_interval_mesh(0, 2, 6, IMP, IMP)
    mu = piecewise_field(mesh, lambda x: 2.0 if x < 1.0 else 1.0, Role.MU_INV)
    eps = constant_field(mesh, 1.0, Role.EPS)
    spec = ProblemSpec(5.0, mesh, mu, eps, 1.5)
    fine = remesh_problem(spec, build_interval_mesh(0, 2, 24, IMP, IMP))
    assert fine.k == 5.0
    assert fine.mesh.n_elements == 24
    assert fine.theta == 1.5
    x = fine.mesh.element_centroids()[:, 0]
    assert np.array_equal(fine.mu_inv.values, np.where(x < 1.0, 2.0, 1.0))
    assert np.array_equal(fine.eps.values, np.ones(24))

    def step(p):
        return 3.0 if p[0] < 0.5 and p[1] >= 0.25 else 1.0

    coarse = build_rect_mesh(2.0, 1.0, 4, 4, IMP)
    spec2 = ProblemSpec(4.0, coarse, constant_field(coarse, 1.0, Role.MU_INV),
                        piecewise_field(coarse, step, Role.EPS))
    refined = build_rect_mesh(2.0, 1.0, 12, 12, IMP)
    fine2 = remesh_problem(spec2, refined)
    assert np.array_equal(fine2.eps.values, piecewise_field(refined, step, Role.EPS).values)


def _absorption_pair(spec, alpha):
    return assemble_system(spec), assemble_system(
        spec.with_eps(absorption_shift(spec.eps, alpha)))


def _pml_pair():
    spec = canonical_spec_1d(10.0, 80)
    mu, eps = pml_profile_1d(spec.mesh, 10.0, 0.7, 10.0)
    return assemble_system(spec), assemble_system(
        ProblemSpec(spec.k, spec.mesh, mu, eps, spec.theta))


@pytest.mark.parametrize("make_pair", [
    lambda: _absorption_pair(canonical_spec_1d(10.0, 60), 0.3),
    lambda: _absorption_pair(canonical_spec_2d(6.0, 10, 10), 0.2),
    _pml_pair,
], ids=["1d", "2d", "pml"])
def test_symmetric_twins_match_independent_estimates(make_pair):
    """For complex symmetric A1, A2 the right-hand norms are copies of the
    left-hand ones; an independent estimate of the right-hand operator
    I - A1 A2^{-1} agrees."""
    s1, s2 = make_pair()
    rep = nearby_bound_report(s1, s2)
    assert rep.lhs_Dinv == rep.lhs_D and rep.lhs_2p == rep.lhs_2
    right = np.eye(s1.n) - s1.A.toarray() @ np.linalg.inv(s2.A.toarray())
    g = gram_factor(s1.D)
    assert rep.lhs_Dinv == pytest.approx(
        weighted_operator_norm(right, g, "D_inv"), rel=1e-10)
    assert rep.lhs_2p == pytest.approx(
        weighted_operator_norm(right, None, "euclid"), rel=1e-10)


def test_non_symmetric_pair_estimates_all_four_norms(pencil_calls):
    """One asymmetric entry in A1: no twin identity, four norm eigensolves."""
    spec = canonical_spec_1d(8.0, 40)
    s1, s2 = _absorption_pair(spec, 0.2)
    A1 = s1.A.tolil()
    A1[3, 4] += 0.05
    A1 = A1.tocsr()
    rep = nearby_bound_report(MatrixSystem(A1, s1.D, s1.M), MatrixSystem(s2.A, s1.D, s1.M),
                              dmu=0.0, deps=0.2)
    # 2 mass extremes, C_dis of A2 and of A1, 4 norm estimates
    assert len(pencil_calls) == 2 + 2 + 4
    A1d, A2d = A1.toarray(), s2.A.toarray()
    left = np.eye(s1.n) - np.linalg.solve(A2d, A1d)
    right = np.eye(s1.n) - A1d @ np.linalg.inv(A2d)
    for value, C, mode in ((rep.lhs_D, left, "D"), (rep.lhs_Dinv, right, "D_inv"),
                           (rep.lhs_2, left, "euclid"), (rep.lhs_2p, right, "euclid")):
        assert value == pytest.approx(oracle_weighted_norm(C, s1.D, mode), rel=1e-8)
    assert rep.lhs_Dinv != rep.lhs_D


def test_pair_symmetric_to_rounding_estimates_all_four_norms(pencil_calls):
    """A1 with one off-diagonal entry scaled by 1 + 2^-52 is not exactly
    symmetric: no twin identity, four norm eigensolves, and the right-hand
    norms, estimated on their own, agree with the left-hand ones to 1e-10."""
    s1, s2 = _absorption_pair(canonical_spec_1d(8.0, 40), 0.2)
    A1 = s1.A.tolil()
    A1[3, 4] *= 1 + 2.0 ** -52
    A1 = A1.tocsr()
    assert (A1 != A1.T).nnz == 2
    rep = nearby_bound_report(MatrixSystem(A1, s1.D, s1.M), MatrixSystem(s2.A, s1.D, s1.M),
                              dmu=0.0, deps=0.2)
    # 2 mass extremes, C_dis of A2 and of A1, 4 norm estimates
    assert len(pencil_calls) == 2 + 2 + 4
    assert rep.lhs_Dinv == pytest.approx(rep.lhs_D, rel=1e-10)
    assert rep.lhs_2p == pytest.approx(rep.lhs_2, rel=1e-10)
    assert rep.passed


def test_pair_shares_factors_and_caches_derived(splu_calls, pencil_calls):
    """The mass extremes come first, factoring sigma I - M and then M; then
    sys1's Gram factor of D, which the norms use, and the LU factors of A2
    and A1. The second system builds no Gram factor (C_dis_2 takes products
    with D), and C_dis, the mass extremes and every kept factor are
    computed once per system and seed."""
    s1, s2 = _absorption_pair(canonical_spec_1d(8.0, 60), 0.2)
    rep = nearby_bound_report(s1, s2)
    assert "gram_d" not in vars(s2)
    # sigma I - M, M, D, A2, A1
    assert [dtype.kind for _, dtype in splu_calls] == ["f", "f", "f", "c", "c"]
    assert len(pencil_calls) == 2 + 2 + 2
    splu_calls.clear()
    pencil_calls.clear()
    again = nearby_bound_report(s1, s2)
    assert splu_calls == [] and len(pencil_calls) == 2  # the norm estimates only
    for field in ("c_dis1", "c_dis2", "mass_ratio", "lhs_D", "lhs_Dinv", "lhs_2"):
        assert getattr(again, field) == getattr(rep, field), field
    nrep = norm_equivalence_report(s1)
    assert splu_calls == [] and len(pencil_calls) == 2 + 2  # two M-weighted norms
    assert nrep.hstar_to_h == nrep.c_dis == rep.c_dis1
    assert s1.inf_sup(0) is s1.inf_sup(0)
    assert s1.inf_sup(1) is not s1.inf_sup(0)  # another seed: computed again
    assert s1.inf_sup(1).c_dis == pytest.approx(rep.c_dis1, rel=1e-9)
