import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    DIR,
    IMP,
    NEU,
    canonical_1d,
    canonical_2d,
    oracle_infsup,
    oracle_solution_norms,
    oracle_weighted_norm,
    random_spd,
)

from helmprec import (
    CoefficientField,
    ProblemSpec,
    Role,
    assemble_system,
    build_rect_mesh,
    constant_field,
)
from helmprec import numerics
from helmprec.errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotPositiveDefiniteError,
)
from helmprec.numerics import (
    _DENSE_PENCIL_N,
    LUFactor,
    _pencil_lambda_max,
    discrete_inf_sup,
    gram_factor,
    lu_factor,
    mass_extremes,
    solution_operator_norms,
    weighted_operator_norm,
)
from helmprec.solvers import direct_solve


def test_gram_factor_trivials():
    g = gram_factor(np.eye(3))
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(g.solve(b), b)
    assert g.norm(b) ** 2 == pytest.approx(14.0, rel=1e-15)
    g2 = gram_factor(np.array([[4.0]]))
    assert g2.solve(np.array([4.0]))[0] == pytest.approx(1.0, rel=1e-15)
    assert g2.norm(np.array([1.0])) == pytest.approx(2.0, rel=1e-15)


def _assert_gram_factor_of(g, D, rng):
    """D g.solve(b) = b, ||v||^2 = v* D v, and positive pivots."""
    scale = abs(D).max()
    for _ in range(3):
        b = rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0])
        assert np.abs(D @ g.solve(b) - b).max() <= 1e-12 * scale * np.abs(b).max()
        assert g.norm(b) ** 2 == pytest.approx(np.vdot(b, D @ b).real, rel=1e-14)
    assert np.all(g.superlu.U.diagonal() > 0)


def test_gram_factor_reproduces_single_element_d(rng):
    D = canonical_1d(1.0, 1).D
    _assert_gram_factor_of(gram_factor(D), D, rng)


def test_gram_factor_solves_with_positive_pivots(rng):
    D = canonical_1d(6.0, 25).D
    g = gram_factor(D)
    _assert_gram_factor_of(g, D, rng)
    assert np.array_equal(g.superlu.perm_r, g.superlu.perm_c)


def test_gram_factor_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError):
        gram_factor(np.diag([1.0, -2.0]))
    # symmetric indefinite with a zero diagonal: SuperLU pivots rows to
    # positive pivots, so only the row-interchange check rejects these
    for D in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]):
        with pytest.raises(NotPositiveDefiniteError):
            gram_factor(np.array(D))
    with pytest.raises(InvalidArgumentError):
        gram_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidArgumentError):
        gram_factor(np.array([[1.0 + 1j, 0], [0, 1.0]]))


def test_gram_factor_rejects_indefinite_with_nonzero_diagonal():
    """Under the fill-reducing ordering, indefinite input still meets a negative pivot."""
    s = canonical_2d(4.0, 6, 6)
    ev = sla.eigh(s.D.toarray(), s.M.toarray(), eigvals_only=True)
    assert ev[1] > ev[0] * (1 + 1e-3)
    shifted = (s.D - 0.5 * (ev[0] + ev[1]) * s.M).tocsr()
    assert np.all(shifted.diagonal() != 0)
    for D in (shifted, np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(NotPositiveDefiniteError, match="non-positive pivot"):
            gram_factor(D)


def test_factor_fill_below_half_of_natural_order():
    """2D factors stay under half the fill of the natural (banded) order."""
    s = canonical_2d(10.0, 40, 40)
    fill = lambda lu: lu.L.nnz + lu.U.nnz
    natural_d = spla.splu(s.D.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
    natural_a = spla.splu(s.A.tocsc(), permc_spec="NATURAL")
    assert fill(gram_factor(s.D).superlu) < fill(natural_d) / 2
    assert fill(lu_factor(s.A).superlu) < fill(natural_a) / 2


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_real_product_is_bitwise_the_product_of_each_part(fmt, rng):
    """A complex x, 1-D or (n, k) and in either memory order, is multiplied
    by a real sparse X in one pass over its float64 view, bit for bit equal
    to the products with its real and imaginary parts; a real x takes the
    plain product."""
    X = canonical_2d(4.0, 8, 8).D.asformat(fmt)
    n = X.shape[0]
    re, im = rng.standard_normal((2, n, 3))
    for x in (re[:, 0] + 1j * im[:, 0], re + 1j * im, np.asfortranarray(re + 1j * im)):
        got = numerics._real_product(X, x)
        assert got.shape == x.shape and got.dtype == np.complex128
        assert np.array_equal(got, X @ x.real + 1j * (X @ x.imag))
    for x in (re[:, 0], re):
        got = numerics._real_product(X, x)
        assert got.dtype == np.float64 and np.array_equal(got, X @ x)


def test_gram_factor_complex_solve_is_real_imag_split(rng):
    g = gram_factor(canonical_2d(4.0, 8, 8).D)
    re, im = rng.standard_normal((2, g.n, 3))
    for b in (re[:, 0] + 1j * im[:, 0], re + 1j * im):
        split = g.superlu.solve(b.real) + 1j * g.superlu.solve(b.imag)
        x = g.solve(b)
        assert x.shape == b.shape
        assert np.abs(x - split).max() <= 1e-14 * np.abs(split).max()
    x = g.solve(re[:, 0])
    assert not np.iscomplexobj(x)
    assert np.array_equal(x, g.superlu.solve(re[:, 0]))


def _matrix_mu_system():
    """2D system with a rotated anisotropic complex mu^{-1}, one 2x2 per element."""
    mesh = build_rect_mesh(1, 1, 8, 8, IMP)
    theta = np.pi * mesh.element_centroids().sum(axis=1)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    diag = np.zeros((mesh.n_elements, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.5, 0.2
    values = rot @ diag @ np.swapaxes(rot, 1, 2)
    values = 0.5 * (values + np.swapaxes(values, 1, 2)) * (1 + 0.2j)
    mu = CoefficientField(mesh, values, Role.MU_INV)
    return assemble_system(
        ProblemSpec(5.0, mesh, mu, constant_field(mesh, 1.0, Role.EPS), 1.0))


FACTOR_CASES = {
    "1d": lambda: canonical_1d(8.0, 40),
    "2d": lambda: canonical_2d(6.0, 12, 12),
    "matrix_mu": _matrix_mu_system,
    "dirichlet": lambda: canonical_2d(
        6.0, 10, 10, tags={"left": DIR, "right": IMP, "bottom": DIR, "top": NEU}),
}


@pytest.mark.parametrize("case", ["2d", "matrix_mu", "dirichlet"])
def test_lanczos_estimates_match_dense_oracles(case):
    """Above the dense cutoff, so ARPACK runs: C_dis, both solution norms
    and the three operator-norm modes, D_inv on a non-symmetric pair."""
    s = FACTOR_CASES[case]()
    assert s.n > _DENSE_PENCIL_N
    g = gram_factor(s.D)
    hstar, h0_to_h, h0_to_h0 = oracle_solution_norms(s.A, s.D, s.M)
    assert discrete_inf_sup(s.lu, s.D).c_dis == pytest.approx(hstar, rel=1e-9)
    duo = solution_operator_norms(s.lu, s.D, s.M)
    assert duo.h0_to_h == pytest.approx(h0_to_h, rel=1e-9)
    assert duo.h0_to_h0 == pytest.approx(h0_to_h0, rel=1e-9)
    A1 = s.A.tolil()
    A1[3, 4] += 0.05  # one asymmetric entry
    A1, A2 = A1.toarray(), (s.A - 0.2j * s.M).toarray()
    left = np.eye(s.n) - np.linalg.solve(A2, A1)
    right = np.eye(s.n) - A1 @ np.linalg.inv(A2)
    norms = {}
    for C, name in ((left, "left"), (right, "right")):
        for mode in ("D", "D_inv", "euclid"):
            norms[name, mode] = weighted_operator_norm(C, g, mode)
            assert norms[name, mode] == pytest.approx(
                oracle_weighted_norm(C, s.D, mode), rel=1e-9), (name, mode)
    # no twin identity for a non-symmetric pair
    assert norms["right", "D_inv"] != pytest.approx(norms["left", "D"], rel=1e-6)


class _RecordingSuperLU:
    """A SuperLU factor that records the ``trans`` of every solve."""

    def __init__(self, lu):
        self.lu, self.trans = lu, []

    def solve(self, b, trans="N"):
        self.trans.append(trans)
        return self.lu.solve(b, trans=trans)


def _helmholtz_variant(kind):
    """A complex symmetric 2D Helmholtz matrix, or the same matrix with one
    asymmetric entry (``asymmetric``) or one entry changed by 1e-15
    relative (``nudged``)."""
    A = canonical_2d(6.0, 12, 12).A.tolil()
    if kind == "asymmetric":
        A[3, 4] += 0.05
    elif kind == "nudged":
        A[3, 4] *= 1 + 1e-15
    return A.tocsc()


@pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "nudged"])
def test_lu_solve_paths_match_dense(kind, rng):
    """Solves with A, A^T and A^H match dense solves to 1e-12; an exactly
    symmetric A runs every one on SuperLU's transposed sweep, any other A
    (even one entry off by 1e-15 relative) solves as asked."""
    A = _helmholtz_variant(kind)
    lu = lu_factor(A)
    assert lu.symmetric == (kind == "symmetric")
    spy = _RecordingSuperLU(lu.superlu)
    lu = LUFactor(lu.A, spy)
    dense = A.toarray()
    b = rng.standard_normal((A.shape[0], 2)) @ np.array([1.0, 1j])
    for trans, op in (("N", dense), ("T", dense.T), ("H", dense.conj().T)):
        want = np.linalg.solve(op, b)
        got = lu.solve(b, trans)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), trans
    assert spy.trans == (["T"] * 3 if kind == "symmetric" else ["N", "T", "H"])


def _random_pencil(rng, n, dtype):
    """A Hermitian PSD W of dtype ``dtype`` and a random SPD B."""
    G = rng.standard_normal((n, n))
    if dtype is complex:
        G = G + 1j * rng.standard_normal((n, n))
    return G @ G.conj().T, random_spd(rng, n)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [_DENSE_PENCIL_N, 40])
def test_b_inner_product_eigensolve_matches_dense_pencil(
    n, dtype, rng, eigsh_calls, monkeypatch
):
    """nu = lambda_max(W B) is the top of the dense generalised problem
    B W B x = nu B x to 1e-10, on the dense path and through ARPACK, where
    the reported residual is the B-norm residual ||W B v - nu v||_B of the
    B-unit multiple v of the Ritz vector ARPACK returned (checked where it
    is well above rounding, at tolerance 1e-6), read through its complex
    view for a complex W."""
    W, B = _random_pencil(rng, n, dtype)
    top = sla.eigh(B @ W @ B, B, eigvals_only=True)[-1]
    for tol in (1e-10, 1e-6):
        eigsh_calls.clear()
        monkeypatch.setattr(numerics, "DEFAULT_TOL", tol)
        nu, it, res = _pencil_lambda_max(
            lambda v: W @ v, n, 0, dtype=dtype, b=sp.csr_matrix(B))
        assert nu == pytest.approx(top, rel=1e-10)
        if n <= _DENSE_PENCIL_N:
            assert eigsh_calls == [] and (it, res) == (n, 0.0)
            continue
        (call,) = eigsh_calls
        v = call["vecs"][:, 0].view(dtype)
        v = v / np.sqrt(np.vdot(v, B @ v).real)
        r = W @ (B @ v) - nu * v
        dense = np.sqrt(np.vdot(r, B @ r).real)
        assert abs(res - dense) <= 1e-5 * dense + 1e-14 * top
        assert res <= 10 * tol * top


@pytest.mark.parametrize("n", range(_DENSE_PENCIL_N + 1, 17))
def test_small_complex_pencils_match_dense_eigh(n, rng):
    """Just above the dense cutoff ARPACK's basis holds ncv = n vectors of
    R^{2n}, where each eigenvalue of a complex Hermitian W B is double, so
    the real Krylov space (dimension at most n) runs out: the top still
    agrees with a dense eigh to 1e-10, with and without a norm matrix."""
    W, B = _random_pencil(rng, n, complex)
    for b, want in ((None, sla.eigvalsh(W)[-1]),
                    (B, sla.eigh(B @ W @ B, B, eigvals_only=True)[-1])):
        nu, _, _ = _pencil_lambda_max(
            lambda v: W @ v, n, 0, b=None if b is None else sp.csr_matrix(b))
        assert nu == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("dtype", [float, complex])
def test_capped_eigensolve_carries_the_estimate_of_nu(dtype, rng, monkeypatch):
    """ARPACK's shift-invert mode reports Ritz values as 1/nu; a run that
    stops at the cap carries the estimate of nu = lambda_max(W B) itself."""
    n = 40
    W, B = _random_pencil(rng, n, dtype)
    top = sla.eigh(B @ W @ B, B, eigvals_only=True)[-1]
    assert top > 10.0  # nu and 1/nu differ
    eigsh = spla.eigsh

    def capped_eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("capped", *eigsh(*args, **kwargs))

    monkeypatch.setattr(numerics.spla, "eigsh", capped_eigsh)
    with pytest.raises(NoConvergenceError) as info:
        _pencil_lambda_max(lambda v: W @ v, n, 0, dtype=dtype, b=sp.csr_matrix(B))
    assert info.value.estimate == pytest.approx(top, rel=1e-10)


def test_capped_arpack_run_carries_no_estimate(monkeypatch):
    """Unstubbed: Lanczos on the 1D mass matrix itself (n = 2,830) stalls on
    its clustered top, and at a cap of 100 ARPACK stops with no converged
    Ritz value, so the error carries no estimate, only the applications."""
    monkeypatch.setattr(numerics, "DEFAULT_MAXIT", 100)
    M = canonical_1d(1.0, 2829).M
    with pytest.raises(NoConvergenceError) as info:
        _pencil_lambda_max(lambda v: M @ v, M.shape[0], 0, dtype=float)
    assert info.value.estimate is None
    assert info.value.iterations > 0


def test_no_arpack_workspace_outlives_an_eigensolve():
    """After discrete_inf_sup returns, the memory traced by tracemalloc is
    back to its level before the call, without a forced collection: SciPy's
    complex ARPACK driver with a B-operator sat in a reference cycle, which
    kept 0.7 MiB per call at this n = 2,401; the real symmetric driver that
    every eigensolve runs holds none."""
    s = canonical_2d(10.0, 48, 48)
    lu = lu_factor(s.A)
    discrete_inf_sup(lu, s.D)  # first-use caches of the factor
    tracemalloc.start()
    try:
        for seed in range(3):
            before = tracemalloc.get_traced_memory()[0]
            discrete_inf_sup(lu, s.D, seed=seed)
            assert tracemalloc.get_traced_memory()[0] - before < 64 * 1024, seed
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [complex, float])
def test_eigensolve_application_count(dtype, rng):
    """A zero operator is detected on ARPACK's first application; any other
    takes ARPACK's applications plus the one for the residual."""
    n = 30
    B = rng.standard_normal((n, n))
    X = B.T @ B
    for op, top in ((np.zeros((n, n)), 0.0), (X, np.linalg.eigvalsh(X)[-1])):
        calls = []

        def apply_x(v):
            calls.append(v)
            return op @ v

        lam, it, res = _pencil_lambda_max(apply_x, n, 0, dtype=dtype)
        assert lam == pytest.approx(top, rel=1e-9)
        if top == 0.0:
            assert (lam, it, res) == (0.0, 1, 0.0) and len(calls) == 1
        else:
            assert len(calls) == it + 1 and res <= 1e-8 * top


def _eigsh_stalling_after(converged):
    """eigsh that runs ``converged`` calls, then stops with Ritz value 4 of
    W B, which shift-invert mode reports as its reciprocal."""
    eigsh, calls = spla.eigsh, []

    def stalling(A, **kwargs):
        calls.append(A)
        if len(calls) > converged:
            raise spla.ArpackNoConvergence(
                "stalled", np.array([0.25]), np.zeros((A.shape[0], 1)))
        return eigsh(A, **kwargs)

    return stalling


def test_no_convergence_estimate_is_the_returned_quantity(monkeypatch):
    """A stopped eigensolve with last Ritz value 4 reports the estimate of
    what the function returns: a norm sqrt(4), m_+^2 = sigma - 1/4 by
    shift-invert and m_-^2 = 1/4 through M^{-1}."""
    stall_first, stall_second = _eigsh_stalling_after(0), _eigsh_stalling_after(1)
    monkeypatch.setattr(numerics.spla, "eigsh", stall_first)
    s = canonical_1d(5.0, 30)
    g = gram_factor(s.D)
    calls = [lambda mode=mode: weighted_operator_norm(np.eye(s.n), g, mode)
             for mode in ("D", "D_inv", "euclid")]
    calls += [lambda: discrete_inf_sup(s.lu, s.D),
              lambda: solution_operator_norms(s.lu, s.D, s.M)]
    for call in calls:
        with pytest.raises(NoConvergenceError) as info:
            call()
        assert info.value.estimate == 2.0
    sigma = abs(s.M).sum(axis=1).max()
    with pytest.raises(NoConvergenceError) as info:
        mass_extremes(s.M)
    assert info.value.estimate == pytest.approx(sigma - 0.25, rel=1e-15)
    monkeypatch.setattr(numerics.spla, "eigsh", stall_second)
    with pytest.raises(NoConvergenceError) as info:
        mass_extremes(s.M)  # the shifted eigensolve converges, M^{-1} stops
    assert info.value.estimate == 0.25


def test_weighted_norm_identity_and_scaling(rng):
    D = random_spd(rng, 12)
    g = gram_factor(D)
    for mode in ("D", "D_inv", "euclid"):
        assert weighted_operator_norm(np.eye(12), g, mode) == pytest.approx(
            1.0, rel=1e-10
        )
        assert weighted_operator_norm(2 * np.eye(12), g, mode) == pytest.approx(
            2.0, rel=1e-10
        )


def test_weighted_norm_matches_dense_svd(rng):
    for n in (20, 45):
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        D = random_spd(rng, n)
        g = gram_factor(D)
        for mode in ("D", "D_inv", "euclid"):
            est = weighted_operator_norm(C, g, mode)
            ora = oracle_weighted_norm(C, D, mode)
            assert est == pytest.approx(ora, rel=1e-8)


def test_weighted_norm_mode_validation(rng):
    g = gram_factor(random_spd(rng, 5))
    with pytest.raises(InvalidArgumentError):
        weighted_operator_norm(np.eye(5), g, "frobenius")
    with pytest.raises(InvalidArgumentError):
        weighted_operator_norm(np.eye(5), None, "D")
    with pytest.raises(InvalidArgumentError):
        weighted_operator_norm(np.eye(4), g, "D")
    # euclid ignores the factor entirely
    assert weighted_operator_norm(3 * np.eye(7), None, "euclid") == pytest.approx(3.0)


def test_discrete_inf_sup_trivials():
    s = canonical_1d(5.0, 30)
    rep = discrete_inf_sup(lu_factor(s.D), s.D)
    assert rep.gamma == pytest.approx(1.0, rel=1e-10)
    rep2 = discrete_inf_sup(lu_factor(2 * s.D), s.D)
    assert rep2.gamma == pytest.approx(2.0, rel=1e-10)
    assert rep2.gamma * rep2.c_dis == pytest.approx(1.0, rel=1e-12)


def test_discrete_inf_sup_vs_dense_oracle():
    s = canonical_1d(1.0, 1)
    rep = discrete_inf_sup(s.lu, s.D)
    assert rep.gamma == pytest.approx(oracle_infsup(s.A, s.D), rel=1e-10)
    s2 = canonical_1d(8.0, 60)
    rep2 = discrete_inf_sup(s2.lu, s2.D)
    assert rep2.gamma == pytest.approx(oracle_infsup(s2.A, s2.D), rel=1e-8)


def test_mass_extremes_identity_and_scaling():
    me = mass_extremes(sp.eye(10).tocsr())
    assert me.m_minus_sq == pytest.approx(1.0, rel=1e-12)
    assert me.m_plus_sq == pytest.approx(1.0, rel=1e-12)
    M = canonical_1d(1.0, 2).M
    me1 = mass_extremes(M)
    me2 = mass_extremes((2 * M).tocsr())
    assert me2.m_minus_sq == pytest.approx(2 * me1.m_minus_sq, rel=1e-10)
    assert me2.m_plus_sq == pytest.approx(2 * me1.m_plus_sq, rel=1e-10)
    assert me2.ratio == pytest.approx(me1.ratio, rel=1e-10)


def test_mass_extremes_two_element_closed_form():
    M = canonical_1d(1.0, 2).M  # (1/12) [[2,1,0],[1,4,1],[0,1,2]]
    expected = np.array([3 - np.sqrt(3), 2.0, 3 + np.sqrt(3)]) / 12
    me = mass_extremes(M)
    assert me.m_minus_sq == pytest.approx(expected[0], rel=1e-12)
    assert me.m_plus_sq == pytest.approx(expected[-1], rel=1e-12)
    assert me.ratio == pytest.approx(np.sqrt(expected[-1] / expected[0]), rel=1e-12)
    assert me.ratio == pytest.approx(1.932, abs=5e-4)


def test_mass_extremes_rejects_non_spd():
    with pytest.raises(NotPositiveDefiniteError):
        mass_extremes(np.diag([1.0, -1.0, 2.0]))


def _assert_extremes(me, lo, hi):
    assert me.m_minus_sq == pytest.approx(lo, rel=1e-12)
    assert me.m_plus_sq == pytest.approx(hi, rel=1e-12)


def test_mass_extremes_clustered_1d_top(monkeypatch):
    """k = 200 1D impedance mesh (n = 2,830): the top two eigenvalues of M
    are 6e-7 apart relatively, which stalls Lanczos on M itself; the
    shift-invert eigensolve converges within a cap of 2,000."""
    monkeypatch.setattr(numerics, "DEFAULT_MAXIT", 2000)
    M = canonical_1d(200.0, 2829).M
    assert M.shape == (2830, 2830)
    ev = sla.eigvalsh_tridiagonal(M.diagonal(), M.diagonal(1))
    assert (ev[-1] - ev[-2]) / ev[-1] < 1e-6
    _assert_extremes(mass_extremes(M), ev[0], ev[-1])


def test_mass_extremes_2d_matches_dense():
    M = canonical_2d(1.0, 30, 30).M
    ev = sla.eigvalsh(M.toarray())
    _assert_extremes(mass_extremes(M), ev[0], ev[-1])


def test_mass_extremes_equal_row_sums_is_exact_shift():
    """Periodic tridiag(1, 4, 1): every row sums to 6, so sigma I - M is
    singular and the Gershgorin shift itself is lambda_max."""
    n = 20
    M = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n)).tolil()
    M[0, n - 1] = M[n - 1, 0] = 1.0
    me = mass_extremes(M.tocsc())
    assert me.m_plus_sq == 6.0
    assert me.m_minus_sq == pytest.approx(2.0, rel=1e-12)


def test_mass_extremes_loose_gershgorin_shift(rng):
    """Random element lengths spread the lumped masses, so the shift sits
    well above lambda_max; the result must not depend on that."""
    h = rng.uniform(0.01, 1.0, size=300)
    diag = np.zeros(h.size + 1)
    diag[:-1] += h / 3
    diag[1:] += h / 3
    M = sp.diags([h / 6, diag, h / 6], [-1, 0, 1]).tocsc()
    ev = sla.eigvalsh(M.toarray())
    sigma = abs(M).sum(axis=1).max()
    assert (sigma - ev[-1]) / ev[-1] > 1e-3
    _assert_extremes(mass_extremes(M), ev[0], ev[-1])


def test_mass_extremes_holds_one_factor_at_a_time(monkeypatch, live_factors):
    """sigma I - M is factored first and freed before M is factored, and
    neither factor outlives the call: a second call finds none alive."""
    M = canonical_2d(1.0, 12, 12).M
    factored = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A.copy())
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    me = mass_extremes(M)
    assert mass_extremes(M) == me
    assert live_factors == [0, 0, 0, 0]
    sigma = abs(M).sum(axis=1).max()
    assert abs(factored[0] + M - sigma * sp.identity(M.shape[0])).max() <= 1e-15 * sigma
    assert abs(factored[1] - M).max() == 0


def test_numerics_never_factors_what_it_is_handed(splu_calls):
    """Given the LU factors of A and the Gram factor of D, the inf-sup
    constant, the solution-operator norms, the weighted operator norms and
    the direct solve make no factorization of their own."""
    s = canonical_1d(8.0, 40)
    lu, g = lu_factor(s.A), gram_factor(s.D)
    splu_calls.clear()
    discrete_inf_sup(lu, s.D)
    solution_operator_norms(lu, s.D, s.M)
    for mode in ("D", "euclid"):
        weighted_operator_norm(s.A, g, mode)
    direct_solve(lu, np.ones(s.n))
    assert splu_calls == []


def test_solution_operator_norms_closed_forms():
    s = canonical_1d(5.0, 25)
    lu = lu_factor(s.D)
    same = solution_operator_norms(lu, s.D, s.D)
    hstar = discrete_inf_sup(lu, s.D).c_dis
    for v in (hstar, same.h0_to_h, same.h0_to_h0):
        assert v == pytest.approx(1.0, rel=1e-10)
    scaled = solution_operator_norms(lu, s.D, s.D / 4)
    assert scaled.h0_to_h == pytest.approx(0.5, rel=1e-10)
    assert scaled.h0_to_h0 == pytest.approx(0.25, rel=1e-10)


def test_solution_operator_norms_vs_dense():
    s = canonical_1d(5.0, 50)
    duo = solution_operator_norms(s.lu, s.D, s.M)
    o1, o2, o3 = oracle_solution_norms(s.A, s.D, s.M)
    assert discrete_inf_sup(s.lu, s.D).c_dis == pytest.approx(o1, rel=1e-8)
    assert duo.h0_to_h == pytest.approx(o2, rel=1e-8)
    assert duo.h0_to_h0 == pytest.approx(o3, rel=1e-8)


@pytest.mark.parametrize("k,n", [(5, 50), (20, 400)])
def test_norm_chains_and_route_agreement(k, n):
    s = canonical_1d(float(k), n)
    duo = solution_operator_norms(s.lu, s.D, s.M)
    hstar = discrete_inf_sup(s.lu, s.D).c_dis
    slack = 1e-10 * hstar
    assert duo.h0_to_h <= hstar + slack
    assert hstar <= 1 + 2 * duo.h0_to_h + slack
    assert duo.h0_to_h0 <= duo.h0_to_h + slack
    assert duo.h0_to_h <= duo.h0_to_h0 * np.sqrt(2 + 1 / duo.h0_to_h0) + slack
    # the iterative C_dis against the dense inf-sup route
    assert hstar == pytest.approx(1.0 / oracle_infsup(s.A, s.D), rel=1e-8)


def test_l2_embedding_contraction():
    # ||L^{-1} R||_2 <= 1 since D - M is positive semidefinite
    s = canonical_1d(7.0, 35)
    L = np.linalg.cholesky(s.D.toarray())
    R = np.linalg.cholesky(s.M.toarray())
    sv = np.linalg.svd(np.linalg.solve(L, R), compute_uv=False)
    assert sv[0] <= 1 + 1e-12


def test_linear_operator_input(rng):
    import scipy.sparse.linalg as spla

    n = 24
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = spla.aslinearoperator(C)
    D = random_spd(rng, n)
    g = gram_factor(D)
    assert weighted_operator_norm(op, g, "D") == pytest.approx(
        oracle_weighted_norm(C, D, "D"), rel=1e-8
    )
