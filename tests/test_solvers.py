import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import canonical_1d

from helmprec.assemble import assemble_load, assemble_system
from helmprec.bounds import nearby_bound_report
from helmprec.coeffs import absorption_shift
from helmprec.errors import InvalidArgumentError, SingularSystemError
from helmprec import solvers
from helmprec.numerics import lu_factor
from helmprec.solvers import direct_solve, fixed_point, gmres


@pytest.fixture(scope="module")
def absorption_pair():
    s1 = canonical_1d(10.0, 100)
    s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, 0.3)))
    return s1, s2, nearby_bound_report(s1, s2, alpha=0.3).contraction


@pytest.fixture
def settings(monkeypatch):
    """Sets the solvers' fixed iteration cap and tolerance for one test."""
    def set_settings(max_it, tol):
        monkeypatch.setattr(solvers, "MAX_IT", max_it)
        monkeypatch.setattr(solvers, "TOL", tol)
    return set_settings


def _eye(n):
    return sp.identity(n, format="csr")


def test_direct_solve_trivials():
    x = direct_solve(lu_factor(sp.eye(4).tocsr()), np.arange(4.0))
    assert np.allclose(x, np.arange(4))
    x = direct_solve(lu_factor((2 * sp.eye(2)).tocsr()), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_direct_solve_single_element_closed_form():
    s = canonical_1d(1.0, 1)
    b = assemble_load(s.spec)
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


def test_fixed_point_same_system_one_step(absorption_pair, settings):
    s1, _, _ = absorption_pair
    b = assemble_load(s1.spec)
    settings(5, 1e-12)
    tr = fixed_point(s1, s1, b)
    assert tr.converged
    assert tr.norms[1] <= 1e-10 * tr.norms[0]


def test_fixed_point_exact_start(absorption_pair, settings):
    """With b = 0 the zero start is the exact solution: no iteration is
    made."""
    s1, s2, _ = absorption_pair
    settings(5, 1e-12)
    tr = fixed_point(s1, s2, np.zeros(s1.n, complex))
    assert tr.iterations == 0
    assert tr.norms[0] == 0.0
    assert tr.converged


def test_fixed_point_contraction_envelope(absorption_pair, settings):
    s1, s2, c = absorption_pair
    assert c < 1
    b = assemble_load(s1.spec)
    settings(60, 1e-12)
    tr = fixed_point(s1, s2, b)
    env_c = c ** np.arange(tr.iterations + 1)
    assert np.all(tr.norms <= env_c * tr.norms[0] * (1 + 1e-8))


def test_fixed_point_singular_preconditioner(absorption_pair):
    s1, _, _ = absorption_pair
    bad = s1.A.tolil()
    bad[0, :] = 0
    s_bad = dataclasses.replace(s1, A=bad.tocsr())
    b = assemble_load(s1.spec)
    with pytest.raises(SingularSystemError):
        fixed_point(s1, s_bad, b)


def test_gmres_identity_one_iteration(settings):
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    settings(10, 1e-12)
    tr = gmres(lambda x: x, b, _eye(3))
    assert tr.converged
    assert tr.iterations == 1
    assert np.allclose(tr.solution, b)


def test_gmres_three_eigenvalues_three_iterations(rng, settings):
    d = np.array([1.0, 2.0, 3.0] * 4)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    settings(12, 1e-13)
    tr = gmres(lambda x: d * x, b, _eye(12))
    assert tr.converged
    assert tr.iterations <= 3
    assert np.allclose(d * tr.solution, b, rtol=1e-10)


def test_gmres_envelope_and_monotonicity(absorption_pair, settings):
    s1, s2, c = absorption_pair
    b = assemble_load(s1.spec)
    lu2 = spla.splu(sp.csc_matrix(s2.A, dtype=complex))
    settings(100, 1e-12)
    tr = gmres(lambda x: lu2.solve(s1.A @ x), lu2.solve(b), s1.D)
    assert tr.converged
    env_c = c ** np.arange(tr.iterations + 1)
    assert np.all(tr.norms <= env_c * tr.norms[0] * (1 + 1e-8))
    assert np.all(np.diff(tr.norms) <= 0)
    # solution solves the preconditioned system
    x = direct_solve(s1.lu, b)
    assert np.linalg.norm(tr.solution - x) <= 1e-8 * np.linalg.norm(x)


def test_gmres_identity_gram_equals_euclidean(rng, settings):
    """With D = I, the residual norm after j steps is the Euclidean minimum
    of ||b - A x|| over the Krylov space K_j(A, b), here from a dense least
    squares solve on a Householder-orthonormal basis, over the first 20
    steps, while the residual is still far above rounding."""
    n = 30
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 5 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    settings(n, 1e-10)
    tr = gmres(lambda x: A @ x, b, _eye(n))
    assert tr.iterations > 20
    basis = (b / np.linalg.norm(b))[:, None]
    for j in range(1, 21):
        y = np.linalg.lstsq(A @ basis, b, rcond=None)[0]
        assert tr.norms[j] == pytest.approx(np.linalg.norm(b - A @ basis @ y), rel=1e-12)
        basis = np.linalg.qr(np.column_stack([basis, A @ basis[:, -1]]))[0]


def test_gmres_zero_rhs_and_cap(settings):
    tr = gmres(lambda x: x, np.zeros(4, complex), _eye(4))
    assert tr.converged and tr.norms[0] == 0.0
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40)) + 10 * np.eye(40)
    b = rng.standard_normal(40)
    settings(3, 1e-14)
    tr2 = gmres(lambda x: A @ x, b.astype(complex), _eye(40))
    assert not tr2.converged
    assert tr2.iterations == 3  # trace length respects the cap


def test_gmres_storage_grows_with_the_steps_taken(rng, settings):
    """At n = 20,000, a run of 3 steps (an operator with 3 distinct
    eigenvalues) peaks below the size of 16 basis vectors, although the
    cap allows 500 steps: the basis is not allocated for the cap."""
    n = 20_000
    d = np.array([1.0, 2.0, 3.0])[np.arange(n) % 3]
    D = canonical_1d(10.0, n - 1).D
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    settings(500, 1e-13)
    tracemalloc.start()
    try:
        tr = gmres(lambda x: d * x, b, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.converged and tr.iterations <= 3
    assert peak < 16 * n * np.dtype(complex).itemsize


def test_gmres_storage_growth_is_bitwise_invisible(absorption_pair, rng, settings,
                                                  monkeypatch):
    """Runs whose basis doubles on the way (from room for 4 steps) give bit
    for bit the trace of a basis with room for every step from the start."""
    s1, s2, _ = absorption_pair
    lu2 = s2.lu
    n = 30
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 5 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    runs = ((lambda x: lu2.solve(s1.A @ x), lu2.solve(assemble_load(s1.spec)), s1.D),
            (lambda x: A @ x, b, _eye(n)))
    settings(100, 1e-12)
    start = solvers._START_STEPS
    traces = []
    for room in (start, solvers.MAX_IT):
        monkeypatch.setattr(solvers, "_START_STEPS", room)
        traces.append([gmres(*run) for run in runs])
    for grown, whole in zip(*traces):
        assert grown.iterations == whole.iterations > start
        assert grown.norms.tobytes() == whole.norms.tobytes()
        assert grown.solution.tobytes() == whole.solution.tobytes()
