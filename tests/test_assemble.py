import math

import numpy as np
import pytest

from conftest import DIR, IMP, NEU, canonical_1d, canonical_spec_1d, canonical_2d

from helmprec.assemble import (
    MatrixSystem,
    ProblemSpec,
    assemble_load,
    assemble_system,
    validate_external,
)
from helmprec.coeffs import Role, absorption_shift, constant_field, piecewise_field
from helmprec.errors import (
    DegenerateSystemError,
    InvalidArgumentError,
    InvalidSystemError,
)
from helmprec.mesh import build_interval_mesh
from helmprec.numerics import gram_factor


def test_single_element_matrices_hand_quadrature():
    s = canonical_1d(1.0, 1)
    assert np.allclose(
        s.A.toarray(),
        [[2 / 3 - 1j, -7 / 6], [-7 / 6, 2 / 3 - 1j]],
        rtol=0, atol=1e-14,
    )
    assert np.allclose(
        s.D.toarray(), [[4 / 3, -5 / 6], [-5 / 6, 4 / 3]], rtol=0, atol=1e-14
    )
    assert np.allclose(s.M.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    assert np.allclose(s.B.toarray(), [[-1j, 0], [0, -1j]], atol=1e-14)
    assert np.allclose(s.S.toarray(), [[1, -1], [-1, 1]], atol=1e-14)


def test_single_element_dirichlet_elimination():
    s = canonical_1d(1.0, 1, left=DIR)
    assert s.n == 1
    assert np.allclose(s.A.toarray(), [[2 / 3 - 1j]], atol=1e-14)
    assert np.allclose(s.D.toarray(), [[4 / 3]], atol=1e-14)


def test_absorption_difference_identity():
    spec = canonical_spec_1d(7.0, 23)
    s1 = assemble_system(spec)
    alpha = 0.4
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, alpha)))
    diff = (s2.A - s1.A).toarray()
    expected = -1j * alpha * s1.M_eps.toarray()
    scale = np.abs(expected).max()
    assert np.abs(diff - expected).max() <= 1e-12 * scale


def test_matrix_sum_identities():
    for s in (canonical_1d(5.0, 17), canonical_2d(5.0, 4, 3)):
        assert (abs(s.A - (s.S + s.B - s.M_eps))).max() == 0.0
        d_err = np.abs(s.D.toarray() - (s.S.toarray().real + s.M.toarray())).max()
        assert d_err <= 1e-12 * np.abs(s.D.toarray()).max()


def test_load_examples():
    spec = canonical_spec_1d(1.0, 1)
    assert np.allclose(assemble_load(spec, 1.0), [0.5, 0.5], atol=1e-15)
    assert np.all(assemble_load(spec, 0.0) == 0.0)
    assert np.allclose(assemble_load(spec, 2.0), 2 * assemble_load(spec, 1.0))


def test_load_dirichlet_restriction_and_2d():
    spec = canonical_spec_1d(1.0, 4, left=DIR)
    F = assemble_load(spec, 1.0)
    assert F.shape == (4,)
    spec2 = canonical_spec_1d(1.0, 4)
    assert np.allclose(assemble_load(spec2, 1.0).sum().real, 1.0, atol=1e-14)
    s2d = canonical_2d(2.0, 3, 3)
    F2 = assemble_load(s2d.spec, 1.0)
    assert F2.sum().real == pytest.approx(1.0, rel=1e-12)  # area of unit square


def test_load_size_mismatch():
    spec = canonical_spec_1d(1.0, 4)
    with pytest.raises(InvalidArgumentError):
        assemble_load(spec, np.ones(3))


def test_garding_identity_random_vectors():
    rng = np.random.default_rng(0)
    for s in (canonical_1d(9.0, 40), canonical_2d(4.0, 5, 5)):
        A, M, D = s.A.toarray(), s.M.toarray(), s.D.toarray()
        for _ in range(50):
            v = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
            qa = np.vdot(v, A @ v)
            qm = np.vdot(v, M @ v).real
            qd = np.vdot(v, D @ v).real
            assert abs(qa.real + 2 * qm - qd) <= 1e-12 * qd


def test_real_part_structure_for_real_coefficients():
    mesh = build_interval_mesh(0, 1, 12, IMP, IMP)
    mu = piecewise_field(mesh, lambda x: 2.0 if x < 0.3 else 0.5, Role.MU_INV)
    eps = piecewise_field(mesh, lambda x: 1.0 if x < 0.6 else 3.0, Role.EPS)
    s = assemble_system(ProblemSpec(4.0, mesh, mu, eps, 1.0))
    rng = np.random.default_rng(1)
    A, S, Me = s.A.toarray(), s.S.toarray(), s.M_eps.toarray()
    for _ in range(25):
        v = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
        lhs = np.vdot(v, A @ v).real
        rhs = np.vdot(v, S @ v).real - np.vdot(v, Me @ v).real
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_structure_flags():
    s = canonical_1d(3.0, 9)
    B = s.B.toarray()
    assert np.abs(B + B.conj().T).max() <= 1e-14  # anti-Hermitian
    S, Me = s.S.toarray(), s.M_eps.toarray()
    assert np.abs(S - S.conj().T).max() <= 1e-14
    assert np.abs(Me - Me.conj().T).max() <= 1e-14
    # D - M is positive semidefinite
    w = np.linalg.eigvalsh(s.D.toarray() - s.M.toarray())
    assert w.min() >= -1e-12 * w.max()


def test_eps_linearity():
    mesh = build_interval_mesh(0, 1, 8, IMP, IMP)
    mu = constant_field(mesh, 1.0, Role.MU_INV)
    e1 = piecewise_field(mesh, lambda x: 1.0 + 0.5j if x < 0.4 else 2.0, Role.EPS)
    e2 = piecewise_field(mesh, lambda x: 0.25 if x < 0.7 else 1j, Role.EPS)
    esum = e1.values + e2.values
    from helmprec.coeffs import CoefficientField

    s_sum = assemble_system(ProblemSpec(2.0, mesh, mu, CoefficientField(mesh, esum, Role.EPS)))
    s1 = assemble_system(ProblemSpec(2.0, mesh, mu, e1))
    s2 = assemble_system(ProblemSpec(2.0, mesh, mu, e2))
    diff = (s_sum.M_eps - (s1.M_eps + s2.M_eps)).toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(s_sum.M_eps.toarray()).max()


def test_refinement_keeps_d_spd():
    for n in (5, 10, 20, 40):
        gram_factor(canonical_1d(6.0, n).D)
    for nx in (2, 4, 8):
        gram_factor(canonical_2d(3.0, nx, nx).D)


def test_degenerate_all_dirichlet():
    with pytest.raises(DegenerateSystemError):
        canonical_1d(1.0, 1, left=DIR, right=DIR)


def test_theta_validation():
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    mu = constant_field(mesh, 1.0, Role.MU_INV)
    eps = constant_field(mesh, 1.0, Role.EPS)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(1.0, mesh, mu, eps, 0.0)


def test_neumann_means_no_boundary_term():
    s = canonical_1d(2.0, 6, left=NEU, right=NEU)
    assert s.B.nnz == 0 or abs(s.B).max() == 0.0


def test_spec_validation_errors():
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    other = build_interval_mesh(0, 1, 4, IMP, IMP)
    mu = constant_field(mesh, 1.0, Role.MU_INV)
    eps = constant_field(other, 1.0, Role.EPS)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(1.0, mesh, mu, eps)
    for k in (-1.0, math.inf, math.nan):  # k = inf would drop the stiffness
        with pytest.raises(InvalidArgumentError, match="wavenumber"):
            ProblemSpec(k, mesh, mu, constant_field(mesh, 1.0, Role.EPS))
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(1.0, mesh, constant_field(mesh, 1.0, Role.EPS), eps)


def test_validate_external_roundtrip_and_errors():
    s1 = canonical_1d(4.0, 10)
    s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, 0.2)))
    validate_external(s1, s2)

    def pair(D, M):
        return MatrixSystem(s1.A, D, M), MatrixSystem(s2.A, D, M)

    with pytest.raises(InvalidSystemError, match="D"):
        validate_external(*pair((-1.0 * s1.D).tocsr(), s1.M))
    # D and M are factored as real matrices, so any imaginary part is rejected
    with pytest.raises(InvalidSystemError, match="M must be real"):
        validate_external(*pair(s1.D, (s1.M * (1 + 1e-15j)).tocsr()))

    small = canonical_1d(4.0, 5)
    with pytest.raises(InvalidSystemError, match="M"):
        validate_external(*pair(s1.D, small.M))
