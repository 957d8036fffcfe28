import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmprec.coeffs import (
    AbsorptionSpec,
    CoefficientField,
    Role,
    absorption_shift,
    constant_field,
    field_diff_sup_norm,
    piecewise_field,
    pml_profile_1d,
    resample_field,
)
from helmprec.errors import InvalidArgumentError, InvalidCoefficientError
from helmprec.mesh import BoundaryTag, build_interval_mesh, build_rect_mesh

IMP = BoundaryTag.IMPEDANCE


@pytest.fixture
def mesh4():
    return build_interval_mesh(0, 1, 4, IMP, IMP)


def test_constant_field_values(mesh4):
    f = constant_field(mesh4, 1.0, Role.EPS)
    assert np.all(f.values == 1.0)
    g = constant_field(mesh4, 2.0, Role.MU_INV)
    assert np.all(g.values == 2.0)


def test_constant_field_rejects_nonpositive_mu(mesh4):
    with pytest.raises(InvalidCoefficientError):
        constant_field(mesh4, -1.0, Role.MU_INV)
    with pytest.raises(InvalidCoefficientError):
        constant_field(mesh4, 1j, Role.MU_INV)  # Re = 0 not admissible


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf),
                                 complex(np.nan, 0.0)])
@pytest.mark.parametrize("role", list(Role))
def test_field_rejects_non_finite_values(mesh4, role, bad):
    values = np.ones(mesh4.n_elements, dtype=complex)
    values[2] = bad
    with pytest.raises(InvalidCoefficientError, match="must be finite"):
        CoefficientField(mesh4, values, role)
    with pytest.raises(InvalidCoefficientError, match="must be finite"):
        constant_field(mesh4, bad, role)
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    with pytest.raises(InvalidCoefficientError, match="must be finite"):
        constant_field(mesh, np.array([[1.0, bad], [bad, 1.0]]), role)


def test_piecewise_step(mesh4):
    f = piecewise_field(mesh4, lambda x: 1.0 if x < 0.5 else 2.0, Role.EPS)
    assert np.allclose(f.values, [1, 1, 2, 2])


def test_piecewise_constant_consistency(mesh4):
    f = piecewise_field(mesh4, lambda x: 3.0, Role.EPS)
    g = constant_field(mesh4, 3.0, Role.EPS)
    assert np.array_equal(f.values, g.values)


def test_piecewise_checkerboard_2d():
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    rule = lambda p: 1.0 if (int(p[0] * 2) + int(p[1] * 2)) % 2 == 0 else 2.0
    f = piecewise_field(mesh, rule, Role.EPS)
    # independent evaluation at centroids
    expected = np.array([rule(c) for c in mesh.element_centroids()])
    assert np.array_equal(f.values, expected)
    assert set(np.unique(f.values.real)) == {1.0, 2.0}


def test_absorption_shift_arithmetic(mesh4):
    eps = constant_field(mesh4, 1.0, Role.EPS)
    assert np.all(absorption_shift(eps, 0.5).values == 1 + 0.5j)
    assert np.array_equal(absorption_shift(eps, 0.0).values, eps.values)
    eps2 = constant_field(mesh4, 2.0, Role.EPS)
    assert np.all(absorption_shift(eps2, AbsorptionSpec(1.0)).values == 2 + 2j)


def test_absorption_shift_role_and_alpha(mesh4):
    mu = constant_field(mesh4, 1.0, Role.MU_INV)
    with pytest.raises(InvalidArgumentError):
        absorption_shift(mu, 0.5)
    with pytest.raises(InvalidArgumentError):
        AbsorptionSpec(-0.1)


def test_pml_profile_values():
    mesh = build_interval_mesh(0, 2, 8, IMP, IMP)
    k, R, sigma0 = 5.0, 1.0, 2.0
    mu, eps = pml_profile_1d(mesh, k, R, sigma0)
    x = mesh.element_centroids()[:, 0]
    s = np.where(x > R, 1 + 1j * (sigma0 / k) * ((x - R) / (2 - R)) ** 2, 1.0 + 0j)
    assert np.allclose(eps.values, s, rtol=1e-15)
    assert np.allclose(mu.values, 1 / s, rtol=1e-15)
    assert np.all(eps.values[x <= R] == 1.0)
    assert np.all(mu.values.real > 0)


def test_pml_full_strength_algebra():
    # at ramp value 1 the stretching is 1 + i*sigma0/k; sigma0 = k gives 1 + i
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    k = 3.0
    mu, eps = pml_profile_1d(mesh, k, 0.0, k)
    x = mesh.element_centroids()[:, 0]
    s = 1 + 1j * x ** 2
    assert np.allclose(eps.values, s, rtol=1e-15)
    assert np.allclose(mu.values, 1 / s, rtol=1e-15)
    # the limiting value of the map itself
    assert (1 / (1 + 1j)) == (1 - 1j) / 2


def test_pml_sigma0_zero_identity():
    mesh = build_interval_mesh(0, 1, 3, IMP, IMP)
    mu, eps = pml_profile_1d(mesh, 2.0, 0.5, 0.0)
    assert np.all(mu.values == 1.0) and np.all(eps.values == 1.0)


def test_pml_errors():
    mesh = build_interval_mesh(0, 1, 3, IMP, IMP)
    with pytest.raises(InvalidArgumentError):
        pml_profile_1d(mesh, 2.0, 1.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        pml_profile_1d(mesh, 2.0, 0.5, -1.0)


def test_field_diff_examples(mesh4):
    eps = constant_field(mesh4, 1.0, Role.EPS)
    assert field_diff_sup_norm(eps, eps) == 0.0
    alpha = 0.25
    assert field_diff_sup_norm(eps, absorption_shift(eps, alpha)) == pytest.approx(
        alpha, rel=1e-15
    )
    f1 = piecewise_field(mesh4, lambda x: 1.0 if x < 0.5 else 2.0, Role.EPS)
    f2 = piecewise_field(mesh4, lambda x: 1.5 if x < 0.5 else 2.5, Role.EPS)
    assert field_diff_sup_norm(f1, f2) == pytest.approx(0.5, rel=1e-15)


def test_field_diff_mismatch_errors(mesh4):
    other = build_interval_mesh(0, 1, 4, IMP, IMP)
    f = constant_field(mesh4, 1.0, Role.EPS)
    with pytest.raises(InvalidArgumentError):
        field_diff_sup_norm(f, constant_field(other, 1.0, Role.EPS))
    with pytest.raises(InvalidArgumentError):
        field_diff_sup_norm(f, constant_field(mesh4, 1.0, Role.MU_INV))


def test_matrix_valued_fields():
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    val = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = constant_field(mesh, val, Role.MU_INV)
    assert f.is_matrix
    zero = constant_field(mesh, np.zeros((2, 2)), Role.EPS)
    assert field_diff_sup_norm(constant_field(mesh, val, Role.EPS), zero) == pytest.approx(
        np.linalg.norm(val, 2), rel=1e-14)
    with pytest.raises(InvalidCoefficientError):
        constant_field(mesh, np.array([[1.0, 2.0], [0.0, 1.0]]), Role.MU_INV)
    with pytest.raises(InvalidCoefficientError):
        constant_field(mesh, np.array([[-1.0, 0.0], [0.0, 1.0]]), Role.MU_INV)


def test_field_diff_matrix_case():
    mesh = build_rect_mesh(1, 1, 1, 1, IMP)
    a = constant_field(mesh, np.eye(2), Role.MU_INV)
    b = constant_field(mesh, 2 * np.eye(2), Role.MU_INV)
    assert field_diff_sup_norm(a, b) == pytest.approx(1.0, rel=1e-15)


_vals = st.lists(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(_vals, _vals, _vals)
def test_field_diff_is_a_metric(v1, v2, v3):
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    f1 = CoefficientField(mesh, np.array(v1), Role.EPS)
    f2 = CoefficientField(mesh, np.array(v2), Role.EPS)
    f3 = CoefficientField(mesh, np.array(v3), Role.EPS)
    d12 = field_diff_sup_norm(f1, f2)
    assert d12 == field_diff_sup_norm(f2, f1)
    assert (d12 == 0.0) == (np.array_equal(f1.values, f2.values))
    d13 = field_diff_sup_norm(f1, f3)
    d32 = field_diff_sup_norm(f3, f2)
    assert d12 <= d13 + d32 + 1e-9 * (d13 + d32)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0, max_value=10.0),
    st.floats(min_value=0, max_value=10.0),
)
def test_absorption_composition(a1, a2):
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    eps = CoefficientField(mesh, np.array([1.0, 2.0, 3.0 - 1j, 0.5j]), Role.EPS)
    twice = absorption_shift(absorption_shift(eps, a1), a2)
    direct = (1 + 1j * a1) * (1 + 1j * a2) * eps.values
    assert np.allclose(twice.values, direct, rtol=1e-14, atol=0)


def test_mass_weighting_multiplier_bound():
    # |v*(M_e1 - M_e2)v| <= sup|e1 - e2| * v*Mv for piecewise-constant fields,
    # with the weighted masses of the element-by-element oracle
    from assembly_oracle import oracle_system
    from helmprec.assemble import ProblemSpec, assemble_system

    mesh = build_interval_mesh(0, 1, 16, IMP, IMP)
    mu = constant_field(mesh, 1.0, Role.MU_INV)
    rng = np.random.default_rng(11)
    e1 = CoefficientField(mesh, rng.standard_normal(16) + 1j * rng.standard_normal(16),
                          Role.EPS)
    e2 = CoefficientField(mesh, rng.standard_normal(16) + 1j * rng.standard_normal(16),
                          Role.EPS)
    s1 = assemble_system(ProblemSpec(2.0, mesh, mu, e1))
    s2 = assemble_system(ProblemSpec(2.0, mesh, mu, e2))
    bound = field_diff_sup_norm(e1, e2)
    diff = (oracle_system(s1.spec).M_eps - oracle_system(s2.spec).M_eps).toarray()
    M = s1.M.toarray()
    for _ in range(100):
        v = rng.standard_normal(s1.n) + 1j * rng.standard_normal(s1.n)
        lhs = abs(np.vdot(v, diff @ v))
        rhs = bound * np.vdot(v, M @ v).real
        assert lhs <= rhs * (1 + 1e-12)


def test_resample_nested_refinement():
    coarse = build_interval_mesh(0, 1, 4, IMP, IMP)
    fine = build_interval_mesh(0, 1, 16, IMP, IMP)
    f = piecewise_field(coarse, lambda x: 1.0 if x < 0.5 else 2.0, Role.EPS)
    g = resample_field(f, fine)
    expected = np.where(fine.element_centroids()[:, 0] < 0.5, 1.0, 2.0)
    assert np.array_equal(g.values, expected)


def test_resample_2d():
    coarse = build_rect_mesh(1, 1, 2, 2, IMP)
    fine = build_rect_mesh(1, 1, 4, 4, IMP)
    f = piecewise_field(coarse, lambda p: 1.0 if p[0] < 0.5 else 3.0, Role.EPS)
    g = resample_field(f, fine)
    expected = np.where(fine.element_centroids()[:, 0] < 0.5, 1.0, 3.0)
    assert np.array_equal(g.values, expected)
