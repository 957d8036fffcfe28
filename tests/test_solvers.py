import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import canonical_1d

from helmprec.assemble import assemble_load, assemble_system
from helmprec.bounds import nearby_bound_report
from helmprec.coeffs import absorption_shift
from helmprec.errors import InvalidArgumentError, SingularSystemError
from helmprec.numerics import gram_factor, lu_factor
from helmprec.solvers import direct_solve, fixed_point, gmres


@pytest.fixture(scope="module")
def absorption_pair():
    s1 = canonical_1d(10.0, 100)
    s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, 0.3)))
    return s1, s2, nearby_bound_report(s1, s2, alpha=0.3).contraction


def test_direct_solve_trivials():
    x = direct_solve(lu_factor(sp.eye(4).tocsr()), np.arange(4.0))
    assert np.allclose(x, np.arange(4))
    x = direct_solve(lu_factor((2 * sp.eye(2)).tocsr()), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_direct_solve_single_element_closed_form():
    s = canonical_1d(1.0, 1)
    b = assemble_load(s.spec, 1.0)
    x = direct_solve(s.lu, b)
    # hand 2x2 inverse by adjugate
    a, off = 2 / 3 - 1j, -7 / 6
    det = a * a - off * off
    xref = np.array([(a - off) * 0.5, (a - off) * 0.5]) / det
    assert np.allclose(x, xref, rtol=1e-12)


def test_direct_solve_singular():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]), dtype=complex)
    with pytest.raises(SingularSystemError):
        direct_solve(lu_factor(A), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        direct_solve(lu_factor(sp.eye(3).tocsr()), np.ones(2))


def test_fixed_point_same_system_one_step(absorption_pair):
    s1, _, _ = absorption_pair
    b = assemble_load(s1.spec, 1.0)
    tr = fixed_point(s1, s1, b, np.zeros(s1.n, complex), max_it=5, tol=1e-12)
    assert tr.converged
    assert tr.norms[1] <= 1e-10 * tr.norms[0]


def test_fixed_point_exact_start(absorption_pair):
    s1, s2, _ = absorption_pair
    b = assemble_load(s1.spec, 1.0)
    x = direct_solve(s1.lu, b)
    tr = fixed_point(s1, s2, b, x, max_it=5, tol=1e-12)
    assert tr.iterations == 0
    assert tr.norms[0] == 0.0
    assert tr.converged


def test_fixed_point_contraction_envelope(absorption_pair):
    s1, s2, c = absorption_pair
    assert c < 1
    b = assemble_load(s1.spec, 1.0)
    tr = fixed_point(s1, s2, b, np.zeros(s1.n, complex), max_it=60, tol=1e-12)
    env_c = c ** np.arange(tr.iterations + 1)
    assert np.all(tr.norms <= env_c * tr.norms[0] * (1 + 1e-8))


def test_fixed_point_singular_preconditioner(absorption_pair):
    s1, _, _ = absorption_pair
    bad = s1.A.tolil()
    bad[0, :] = 0
    s_bad = dataclasses.replace(s1, A=bad.tocsr())
    b = assemble_load(s1.spec, 1.0)
    with pytest.raises(SingularSystemError):
        fixed_point(s1, s_bad, b, np.zeros(s1.n, complex))


def test_gmres_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    tr = gmres(lambda x: x, b, max_it=10, tol=1e-12)
    assert tr.converged
    assert tr.iterations == 1
    assert np.allclose(tr.solution, b)


def test_gmres_three_eigenvalues_three_iterations(rng):
    d = np.array([1.0, 2.0, 3.0] * 4)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    tr = gmres(lambda x: d * x, b, max_it=12, tol=1e-13)
    assert tr.converged
    assert tr.iterations <= 3
    assert np.allclose(d * tr.solution, b, rtol=1e-10)


def test_gmres_envelope_and_monotonicity(absorption_pair):
    s1, s2, c = absorption_pair
    b = assemble_load(s1.spec, 1.0)
    lu2 = spla.splu(sp.csc_matrix(s2.A, dtype=complex))
    g = gram_factor(s1.D)
    tr = gmres(lambda x: lu2.solve(s1.A @ x), lu2.solve(b), inner=g,
               max_it=100, tol=1e-12)
    assert tr.converged
    env_c = c ** np.arange(tr.iterations + 1)
    assert np.all(tr.norms <= env_c * tr.norms[0] * (1 + 1e-8))
    assert np.all(np.diff(tr.norms) <= 0)
    # solution solves the preconditioned system
    x = direct_solve(s1.lu, b)
    assert np.linalg.norm(tr.solution - x) <= 1e-8 * np.linalg.norm(x)


def test_gmres_identity_gram_equals_euclidean(rng):
    n = 30
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 5 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = gram_factor(sp.eye(n).tocsr())
    tr_d = gmres(lambda x: A @ x, b, inner=g, max_it=n, tol=1e-10)
    tr_e = gmres(lambda x: A @ x, b, inner=None, max_it=n, tol=1e-10)
    assert tr_d.iterations == tr_e.iterations
    assert np.allclose(tr_d.norms, tr_e.norms, rtol=1e-12, atol=0)


def test_gmres_zero_rhs_and_cap():
    tr = gmres(lambda x: x, np.zeros(4, complex))
    assert tr.converged and tr.norms[0] == 0.0
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40)) + 10 * np.eye(40)
    b = rng.standard_normal(40)
    tr2 = gmres(lambda x: A @ x, b.astype(complex), max_it=3, tol=1e-14)
    assert not tr2.converged
    assert tr2.iterations == 3  # trace length respects the cap
