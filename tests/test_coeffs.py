import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmprec.assemble import ProblemSpec
from helmprec.coeffs import (
    CoefficientField,
    absorption_shift,
    constant_field,
    field_diff_sup_norm,
    piecewise_field,
    pml_profile_1d,
    resample_field,
)
from helmprec.errors import InvalidArgumentError, InvalidCoefficientError
from helmprec.io import field_from_rule
from helmprec.mesh import BoundaryTag, build_interval_mesh, build_rect_mesh

IMP = BoundaryTag.IMPEDANCE


@pytest.fixture
def mesh4():
    return build_interval_mesh(0, 1, 4, IMP, IMP)


def test_constant_field_values(mesh4):
    f = constant_field(mesh4, 1.0)
    assert np.all(f.values == 1.0)
    g = constant_field(mesh4, 2.0)
    assert np.all(g.values == 2.0)


def test_constant_field_rejects_nonpositive_mu(mesh4):
    """A field with Re <= 0 somewhere is a field; the mu_inv slot refuses it,
    and the eps slot takes it."""
    eps = constant_field(mesh4, 1.0)
    for value, shown in ((-1.0, "-1"), (1j, "0")):  # Re = 0 not admissible
        field = constant_field(mesh4, value)
        with pytest.raises(InvalidCoefficientError,
                           match=rf"Re\(mu\^-1\) must be positive elementwise \(min {shown}\)"):
            ProblemSpec(2.0, mesh4, field, eps)
        assert ProblemSpec(2.0, mesh4, eps, field).eps is field


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf),
                                 complex(np.nan, 0.0)])
# One case per coefficient slot; the ids are the ones this test has always had.
@pytest.mark.parametrize("key", [pytest.param("eps", id="Role.EPS"),
                                 pytest.param("mu_inv", id="Role.MU_INV")])
def test_field_rejects_non_finite_values(mesh4, key, bad):
    """The finiteness check does not depend on the slot: a rule of either
    coefficient key with a non-finite value is refused alike."""
    values = np.ones(mesh4.n_elements, dtype=complex)
    values[2] = bad
    with pytest.raises(InvalidCoefficientError, match="coefficient values must be finite"):
        CoefficientField(mesh4, values)
    with pytest.raises(InvalidCoefficientError, match="must be finite"):
        constant_field(mesh4, bad)
    for rule in ({"type": "constant", "value": bad},
                 {"type": "step", "axis": 0, "threshold": 0.5, "below": 1.0, "above": bad}):
        with pytest.raises(InvalidCoefficientError, match="must be finite"):
            field_from_rule(mesh4, rule, key, 2.0)
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    with pytest.raises(InvalidCoefficientError, match="must be finite"):
        constant_field(mesh, np.array([[1.0, bad], [bad, 1.0]]))


def test_piecewise_step(mesh4):
    f = piecewise_field(mesh4, lambda x: 1.0 if x < 0.5 else 2.0)
    assert np.allclose(f.values, [1, 1, 2, 2])


def test_piecewise_constant_consistency(mesh4):
    f = piecewise_field(mesh4, lambda x: 3.0)
    g = constant_field(mesh4, 3.0)
    assert np.array_equal(f.values, g.values)


def test_piecewise_checkerboard_2d():
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    rule = lambda p: 1.0 if (int(p[0] * 2) + int(p[1] * 2)) % 2 == 0 else 2.0
    f = piecewise_field(mesh, rule)
    # independent evaluation at centroids
    expected = np.array([rule(c) for c in mesh.element_centroids()])
    assert np.array_equal(f.values, expected)
    assert set(np.unique(f.values.real)) == {1.0, 2.0}


def test_absorption_shift_arithmetic(mesh4):
    eps = constant_field(mesh4, 1.0)
    assert np.all(absorption_shift(eps, 0.5).values == 1 + 0.5j)
    assert np.array_equal(absorption_shift(eps, 0.0).values, eps.values)
    eps2 = constant_field(mesh4, 2.0)
    for alpha in (1, 1.0, np.float64(1.0)):
        assert np.all(absorption_shift(eps2, alpha).values == 2 + 2j)


def test_absorption_shift_alpha(mesh4):
    eps = constant_field(mesh4, 1.0)
    for alpha in (-0.1, np.nan, np.inf, -np.inf, True, False, "0.3", None):
        with pytest.raises(InvalidArgumentError, match="alpha"):
            absorption_shift(eps, alpha)


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
    eps = constant_field(mesh4, 1.0)
    assert field_diff_sup_norm(eps, eps) == 0.0
    alpha = 0.25
    assert field_diff_sup_norm(eps, absorption_shift(eps, alpha)) == pytest.approx(
        alpha, rel=1e-15
    )
    f1 = piecewise_field(mesh4, lambda x: 1.0 if x < 0.5 else 2.0)
    f2 = piecewise_field(mesh4, lambda x: 1.5 if x < 0.5 else 2.5)
    assert field_diff_sup_norm(f1, f2) == pytest.approx(0.5, rel=1e-15)


def test_field_diff_mismatch_errors(mesh4):
    other = build_interval_mesh(0, 1, 4, IMP, IMP)
    f = constant_field(mesh4, 1.0)
    with pytest.raises(InvalidArgumentError, match="different meshes"):
        field_diff_sup_norm(f, constant_field(other, 1.0))
    mesh = build_rect_mesh(1, 1, 1, 1, IMP)
    with pytest.raises(InvalidArgumentError, match="different value shapes"):
        field_diff_sup_norm(constant_field(mesh, 1.0), constant_field(mesh, np.eye(2)))


def test_matrix_valued_fields():
    mesh = build_rect_mesh(1, 1, 2, 2, IMP)
    val = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = constant_field(mesh, val)
    assert f.is_matrix
    with pytest.raises(InvalidCoefficientError, match="symmetric"):
        constant_field(mesh, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidArgumentError, match="on a 2D mesh"):
        constant_field(build_interval_mesh(0, 1, 4, IMP, IMP), np.eye(2))
    # a field whose Re is not positive definite: the mu_inv slot refuses it
    eps = constant_field(mesh, 1.0)
    indefinite = constant_field(mesh, np.array([[-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidCoefficientError, match=r"positive elementwise \(min -1\)"):
        ProblemSpec(2.0, mesh, indefinite, eps)


def test_eps_values_must_be_scalars():
    """eps multiplies the scalar u: a 2x2 eps value passed validation and
    then broke the assembly's broadcast. A 2x2 field is a valid mu_inv, and
    the eps slot refuses it."""
    mesh = build_rect_mesh(1, 1, 4, 4, IMP)
    mu = constant_field(mesh, 1.0)
    for field in (constant_field(mesh, np.eye(2)),
                  piecewise_field(mesh, lambda p: np.eye(2) * (1 + p[0]))):
        with pytest.raises(InvalidCoefficientError, match="eps values must be scalars"):
            ProblemSpec(2.0, mesh, mu, field)
        assert ProblemSpec(2.0, mesh, field, mu).mu_inv is field


def test_field_diff_matrix_case():
    mesh = build_rect_mesh(1, 1, 1, 1, IMP)
    a = constant_field(mesh, np.eye(2))
    b = constant_field(mesh, 2 * np.eye(2))
    assert field_diff_sup_norm(a, b) == pytest.approx(1.0, rel=1e-15)


_vals = st.lists(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(_vals, _vals, _vals)
def test_field_diff_is_a_metric(v1, v2, v3):
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    f1 = CoefficientField(mesh, np.array(v1))
    f2 = CoefficientField(mesh, np.array(v2))
    f3 = CoefficientField(mesh, np.array(v3))
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
    eps = CoefficientField(mesh, np.array([1.0, 2.0, 3.0 - 1j, 0.5j]))
    twice = absorption_shift(absorption_shift(eps, a1), a2)
    direct = (1 + 1j * a1) * (1 + 1j * a2) * eps.values
    assert np.allclose(twice.values, direct, rtol=1e-14, atol=0)


def test_mass_weighting_multiplier_bound():
    # |v*(M_e1 - M_e2)v| <= sup|e1 - e2| * v*Mv for piecewise-constant fields,
    # with the weighted masses of the element-by-element oracle
    from assembly_oracle import oracle_system
    from helmprec.assemble import assemble_system

    mesh = build_interval_mesh(0, 1, 16, IMP, IMP)
    mu = constant_field(mesh, 1.0)
    rng = np.random.default_rng(11)
    e1 = CoefficientField(mesh, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    e2 = CoefficientField(mesh, rng.standard_normal(16) + 1j * rng.standard_normal(16))
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
    f = piecewise_field(coarse, lambda x: 1.0 if x < 0.5 else 2.0)
    g = resample_field(f, fine, coarse.locate_elements(fine))
    expected = np.where(fine.element_centroids()[:, 0] < 0.5, 1.0, 2.0)
    assert np.array_equal(g.values, expected)


def test_resample_2d():
    coarse = build_rect_mesh(1, 1, 2, 2, IMP)
    fine = build_rect_mesh(1, 1, 4, 4, IMP)
    f = piecewise_field(coarse, lambda p: 1.0 if p[0] < 0.5 else 3.0)
    g = resample_field(f, fine, coarse.locate_elements(fine))
    expected = np.where(fine.element_centroids()[:, 0] < 0.5, 1.0, 3.0)
    assert np.array_equal(g.values, expected)
