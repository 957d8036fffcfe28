import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from assembly_oracle import oracle_system
from conftest import (
    DIR, IMP, NEU, canonical_1d, canonical_spec_1d, canonical_2d, canonical_spec_2d,
    rebind_everywhere,
)

from helmprec.assemble import (
    MatrixSystem,
    ProblemSpec,
    assemble_load,
    assemble_system,
    validate_external,
)
from helmprec import assemble
from helmprec.cli import cmd_sweep
from helmprec.coeffs import (
    CoefficientField,
    absorption_shift,
    constant_field,
    piecewise_field,
    pml_profile_1d,
)
from helmprec.errors import (
    DegenerateSystemError,
    InvalidArgumentError,
    InvalidSystemError,
)
from helmprec.io import field_from_rule
from helmprec.mesh import SIDES, Mesh, build_interval_mesh
from helmprec.numerics import LUFactor, gram_factor

# relative agreement with the element-by-element oracle, in the largest entry
ORACLE_RTOL = 1e-14


def _rel_err(X, Y) -> float:
    diff = abs(X - Y)
    return (diff.max() if diff.nnz else 0.0) / abs(Y).max()


def test_single_element_matrices_hand_quadrature():
    s = canonical_1d(1.0, 1)
    o = oracle_system(s.spec)
    assert np.allclose(
        s.A.toarray(),
        [[2 / 3 - 1j, -7 / 6], [-7 / 6, 2 / 3 - 1j]],
        rtol=0, atol=1e-14,
    )
    assert np.allclose(
        s.D.toarray(), [[4 / 3, -5 / 6], [-5 / 6, 4 / 3]], rtol=0, atol=1e-14
    )
    assert np.allclose(s.M.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    assert np.allclose(o.B.toarray(), [[-1j, 0], [0, -1j]], atol=1e-14)
    assert np.allclose(o.S.toarray(), [[1, -1], [-1, 1]], atol=1e-14)
    assert np.allclose(o.M_eps.toarray(), s.M.toarray(), atol=1e-14)


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
    expected = -1j * alpha * oracle_system(spec).M_eps.toarray()
    scale = np.abs(expected).max()
    assert np.abs(diff - expected).max() <= 1e-12 * scale


def test_matrix_sum_identities():
    """A = S + B - M_eps holds exactly in the oracle, which assembles the
    parts; the assembled A agrees with it at the oracle tolerance."""
    for s in (canonical_1d(5.0, 17), canonical_2d(5.0, 4, 3)):
        o = oracle_system(s.spec)
        assert (abs(o.A - (o.S + o.B - o.M_eps))).max() == 0.0
        assert _rel_err(s.A, o.S + o.B - o.M_eps) <= ORACLE_RTOL
        d_err = np.abs(s.D.toarray() - (o.S.toarray().real + o.M.toarray())).max()
        assert d_err <= 1e-12 * np.abs(s.D.toarray()).max()


def test_load_examples():
    """The unit load of one element of length 1 puts 1/2 on each node; on
    the unit square each of its two triangles puts 1/6 on each of its
    nodes, so the diagonal (0, 0)-(1, 1) that both share gets 1/3."""
    F = assemble_load(canonical_spec_1d(1.0, 1))
    assert F.dtype == complex and np.array_equal(F, [0.5, 0.5])
    F2 = assemble_load(canonical_spec_2d(1.0, 1, 1))  # nodes (0,0) (0,1) (1,0) (1,1)
    assert np.allclose(F2, [1 / 3, 1 / 6, 1 / 6, 1 / 3], rtol=1e-15, atol=0)


def test_load_dirichlet_restriction_and_2d():
    spec = canonical_spec_1d(1.0, 4, left=DIR)
    F = assemble_load(spec)
    assert F.shape == (4,)
    spec2 = canonical_spec_1d(1.0, 4)
    assert np.allclose(assemble_load(spec2).sum().real, 1.0, atol=1e-14)
    s2d = canonical_2d(2.0, 3, 3)
    F2 = assemble_load(s2d.spec)
    assert F2.sum().real == pytest.approx(1.0, rel=1e-12)  # area of unit square


def test_load_on_subnormal_cells_is_finite_without_a_warning():
    """The load needs the element measure alone: on cells of width about
    2e-322 the gradients' 1 / h overflowed with a RuntimeWarning."""
    mesh = build_interval_mesh(0.0, 1e-320, 50, IMP, IMP)
    spec = ProblemSpec(10.0, mesh, constant_field(mesh, 1.0),
                       constant_field(mesh, 1.0), 1.0)
    F = assemble_load(spec)
    assert F.shape == (51,) and np.all(np.isfinite(F))
    assert np.all(F.real > 0) and np.all(F.imag == 0)


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
    mu = piecewise_field(mesh, lambda x: 2.0 if x < 0.3 else 0.5)
    eps = piecewise_field(mesh, lambda x: 1.0 if x < 0.6 else 3.0)
    s = assemble_system(ProblemSpec(4.0, mesh, mu, eps, 1.0))
    o = oracle_system(s.spec)
    rng = np.random.default_rng(1)
    A, S, Me = s.A.toarray(), o.S.toarray(), o.M_eps.toarray()
    for _ in range(25):
        v = rng.standard_normal(s.n) + 1j * rng.standard_normal(s.n)
        lhs = np.vdot(v, A @ v).real
        rhs = np.vdot(v, S @ v).real - np.vdot(v, Me @ v).real
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_structure_flags():
    s = canonical_1d(3.0, 9)
    o = oracle_system(s.spec)
    B = o.B.toarray()
    assert np.abs(B + B.conj().T).max() <= 1e-14  # anti-Hermitian
    S, Me = o.S.toarray(), o.M_eps.toarray()
    assert np.abs(S - S.conj().T).max() <= 1e-14
    assert np.abs(Me - Me.conj().T).max() <= 1e-14
    # D - M is positive semidefinite
    w = np.linalg.eigvalsh(s.D.toarray() - s.M.toarray())
    assert w.min() >= -1e-12 * w.max()


def test_eps_linearity():
    mesh = build_interval_mesh(0, 1, 8, IMP, IMP)
    mu = constant_field(mesh, 1.0)
    e1 = piecewise_field(mesh, lambda x: 1.0 + 0.5j if x < 0.4 else 2.0)
    e2 = piecewise_field(mesh, lambda x: 0.25 if x < 0.7 else 1j)
    esum = e1.values + e2.values
    from helmprec.coeffs import CoefficientField

    s_sum = assemble_system(ProblemSpec(2.0, mesh, mu, CoefficientField(mesh, esum)))
    s1 = assemble_system(ProblemSpec(2.0, mesh, mu, e1))
    s2 = assemble_system(ProblemSpec(2.0, mesh, mu, e2))
    # A(e) = S + B - M_e, so A(e1) + A(e2) - A(e1 + e2) = S + B
    o = oracle_system(s1.spec)
    diff = (s1.A + s2.A - s_sum.A - (o.S + o.B)).toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(s_sum.A.toarray()).max()
    o_sum, o2 = oracle_system(s_sum.spec), oracle_system(s2.spec)
    diff = (o_sum.M_eps - (o.M_eps + o2.M_eps)).toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(o_sum.M_eps.toarray()).max()


def test_refinement_keeps_d_spd():
    for n in (5, 10, 20, 40):
        gram_factor(canonical_1d(6.0, n).D)
    for nx in (2, 4, 8):
        gram_factor(canonical_2d(3.0, nx, nx).D)


def test_degenerate_all_dirichlet():
    with pytest.raises(DegenerateSystemError):
        canonical_1d(1.0, 1, left=DIR, right=DIR)
    with pytest.raises(DegenerateSystemError):  # a 1 x 3 grid has no interior node
        canonical_2d(1.0, 1, 3, tags=DIR)


def test_theta_validation():
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    mu = constant_field(mesh, 1.0)
    eps = constant_field(mesh, 1.0)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(1.0, mesh, mu, eps, 0.0)


def test_neumann_means_no_boundary_term():
    for s in (canonical_1d(2.0, 6, left=NEU, right=NEU), canonical_2d(2.0, 3, 2, tags=NEU)):
        o = oracle_system(s.spec)
        assert o.B.nnz == 0 or abs(o.B).max() == 0.0
        # real coefficients: only an impedance term makes A complex
        assert abs(s.A.imag).max() == 0.0


def test_spec_validation_errors():
    mesh = build_interval_mesh(0, 1, 4, IMP, IMP)
    other = build_interval_mesh(0, 1, 4, IMP, IMP)
    mu = constant_field(mesh, 1.0)
    eps = constant_field(other, 1.0)
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(1.0, mesh, mu, eps)
    for k in (-1.0, math.inf, math.nan):  # k = inf would drop the stiffness
        with pytest.raises(InvalidArgumentError, match="wavenumber"):
            ProblemSpec(k, mesh, mu, constant_field(mesh, 1.0))


def test_validate_external_roundtrip_and_errors():
    """D and M are certified by their factors, which refuse a matrix that
    is not SPD, not symmetric or not real; the error names the matrix."""
    s1 = canonical_1d(4.0, 10)
    validate_external(s1)

    def system(D, M):
        return MatrixSystem(s1.A, D, M)

    with pytest.raises(InvalidSystemError,
                       match="matrix D is not symmetric positive definite: non-positive pivot"):
        validate_external(system((-1.0 * s1.D).tocsr(), s1.M))
    skew = s1.D.tolil()
    skew[0, 1] += 1e-3
    with pytest.raises(InvalidSystemError, match="matrix D .*needs a symmetric matrix"):
        validate_external(system(skew.tocsr(), s1.M))
    # D and M are factored as real matrices, so any imaginary part is rejected
    with pytest.raises(InvalidSystemError, match="matrix M .*needs a real matrix"):
        validate_external(system(s1.D, (s1.M * (1 + 1e-15j)).tocsr()))


def test_system_keeps_only_the_factors_of_a_and_d():
    """A system keeps A's LU factors and D's Gram factor; its mass extremes
    are cached without a factor of M or of sigma I - M."""
    s = canonical_1d(4.0, 10)
    s.c_dis(), s.mass_extremes(), s.gram_d
    assert not hasattr(MatrixSystem, "gram_m")
    kept = {name for name, value in vars(s).items() if isinstance(value, LUFactor)}
    assert kept == {"lu", "gram_d"}


def test_singular_system_inf_sup_is_report_not_exception():
    s = canonical_1d(5.0, 20)
    bad = s.A.tolil()
    bad[3, :] = 0
    c_dis = MatrixSystem(bad.tocsr(), s.D, s.M).c_dis()
    assert c_dis == np.inf
    assert 1.0 / c_dis == 0.0  # the gamma that reports write


def test_singular_verdict_is_cached_across_seeds(splu_calls):
    """A singular A is factored once: its C_dis = inf holds at every seed."""
    s = canonical_1d(5.0, 4)
    bad = s.A.tolil()
    bad[3, :] = 0
    system = MatrixSystem(bad.tocsr(), s.D, s.M)
    splu_calls.clear()
    assert [system.c_dis(seed) for seed in (0, 0, 1, 1)] == [np.inf] * 4
    assert len(splu_calls) == 1


# (lo, hi, cells): unit and shifted domains, square and non-square cells
ORACLE_MESHES = {
    "1d_unit": ((0.0,), (1.0,), (5,)),
    "1d_shifted": ((-0.5,), (2.25,), (7,)),
    "2d_unit": ((0.0, 0.0), (1.0, 1.0), (4, 4)),
    "2d_box": ((-1.0, 0.5), (2.0, 1.25), (5, 3)),
}
ORACLE_COEFFICIENTS = {1: ("constant", "complex", "step", "pml"),
                       2: ("constant", "complex", "step", "matrix")}


def _coefficients(mesh, kind, k, rng):
    """(mu^{-1}, eps) of one kind on the mesh."""
    ne = mesh.n_elements
    if kind == "constant":
        return constant_field(mesh, 1.0), constant_field(mesh, 1.0)
    if kind == "pml":
        return pml_profile_1d(mesh, k, 0.5 * (mesh.lo[0] + mesh.hi[0]), 5.0)
    if kind == "step":
        axis = mesh.dimension - 1
        middle = 0.5 * (mesh.lo[axis] + mesh.hi[axis])
        rule = {"type": "step", "axis": axis, "threshold": middle}
        mu = field_from_rule(mesh, dict(rule, below=2.0, above=0.5), "mu_inv", k)
        eps = field_from_rule(mesh, dict(rule, below=1.0, above=[3.0, 0.5]), "eps", k)
        return mu, eps
    eps = CoefficientField(mesh, rng.standard_normal(ne) + 1j * rng.standard_normal(ne))
    if kind == "complex":
        values = 1 + rng.random(ne) + 0.5j * rng.standard_normal(ne)
    else:  # symmetric 2 x 2 with a positive-definite real part
        q = rng.standard_normal((ne, 2, 2))
        values = q @ np.swapaxes(q, 1, 2) + np.eye(2) + 0.3j * (q + np.swapaxes(q, 1, 2))
    return CoefficientField(mesh, values), eps


@pytest.mark.parametrize("mesh_name, kind", [
    (name, kind) for name, (_, _, cells) in ORACLE_MESHES.items()
    for kind in ORACLE_COEFFICIENTS[len(cells)]
])
def test_matches_element_oracle(mesh_name, kind):
    """A, D and M equal the element-by-element oracle's to 1e-14 relative,
    for every Dirichlet/Neumann/impedance mix of the sides, and store no
    explicit zero: their nnz is the oracle's after eliminate_zeros."""
    lo, hi, cells = ORACLE_MESHES[mesh_name]
    dim = len(cells)
    rng = np.random.default_rng(7)
    k, theta = 3.0, 1.7
    for tags in itertools.product((DIR, NEU, IMP), repeat=len(SIDES[dim])):
        mesh = Mesh(lo, hi, cells, tags)
        spec = ProblemSpec(k, mesh, *_coefficients(mesh, kind, k, rng), theta)
        s, o = assemble_system(spec), oracle_system(spec)
        assert s.n == len(o.free_nodes)
        for name in "ADM":
            X, Y = getattr(s, name), getattr(o, name)
            assert _rel_err(X, Y) <= ORACLE_RTOL, (tags, name)
            Y.eliminate_zeros()
            assert X.nnz == Y.nnz, (tags, name)


# the oracle meshes, and a 12 x 10 grid of the unit square, on which the
# element integrals of a matrix-valued mu^{-1} round (i, j) and (j, i) apart
SYMMETRY_MESHES = dict(ORACLE_MESHES, grid_12x10=((0.0, 0.0), (1.0, 1.0), (12, 10)))


@pytest.mark.parametrize("mesh_name, kind", [
    (name, kind) for name, (_, _, cells) in SYMMETRY_MESHES.items()
    for kind in ORACLE_COEFFICIENTS[len(cells)]
])
def test_every_galerkin_matrix_is_exactly_symmetric(mesh_name, kind):
    """A^T = A bit for bit, matrix-valued mu^{-1} included, for every
    Dirichlet/Neumann/impedance mix of the sides, so the LU factors of
    every system solve on the transposed sweep."""
    lo, hi, cells = SYMMETRY_MESHES[mesh_name]
    rng = np.random.default_rng(7)
    k, theta = 3.0, 1.7
    for tags in itertools.product((DIR, NEU, IMP), repeat=len(SIDES[len(cells)])):
        mesh = Mesh(lo, hi, cells, tags)
        s = assemble_system(ProblemSpec(k, mesh, *_coefficients(mesh, kind, k, rng), theta))
        assert (s.A != s.A.T).nnz == 0, tags
        assert s.lu.symmetric, tags


def test_sweep_builds_each_pattern_once(tmp_path, monkeypatch):
    """Within one sweep each mesh's pattern is built once (each k's working
    mesh and each ladder reference mesh), every alpha system shares the D
    and M of its k's first system, and A, D and M share one indptr and one
    indices array."""
    built, systems = [], []
    build, assemble_system_ = assemble._build_pattern, assemble.assemble_system

    def counting_build(mesh):
        built.append(mesh)
        return build(mesh)

    def recording_assemble(spec):
        systems.append(assemble_system_(spec))
        return systems[-1]

    monkeypatch.setattr(assemble, "_build_pattern", counting_build)
    rebind_everywhere(monkeypatch, assemble_system_, recording_assemble)
    cfg = {
        "problem": {"dimension": 2, "k": 4.0, "resolution": {"type": "per_k", "factor": 2}},
        "perturbation": {"mode": "absorption", "alpha": 0.2},
        "sweep": {"k_values": [4.0, 6.0], "alpha_values": [0.1, 0.3],
                  "ladder": {"refine": 2}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cmd_sweep(str(path), out_dir=str(tmp_path / "s")).exit_status == 0

    assert len(systems) == 2 * (1 + 2) + 2  # per k: sys1, one per alpha; 2 rungs
    meshes = {id(s.spec.mesh) for s in systems}
    assert len(built) == len(meshes) == 2 + 2
    assert {id(m) for m in built} == meshes
    first = {}
    for s in systems:
        sys1 = first.setdefault(id(s.spec.mesh), s)
        assert s.D is sys1.D and s.M is sys1.M
        for X in (s.A, s.D):
            assert np.shares_memory(X.indptr, s.M.indptr)
            assert np.shares_memory(X.indices, s.M.indices)


def test_absorption_system_keeps_only_its_matrix():
    """On the 2D benchmark mesh (80 x 80 cells, n = 6,561, k = 10) with its
    pattern built, assembling the absorption system of a pair keeps at most
    twice the bytes of its A's data: no parts and no second D or M."""
    spec = canonical_spec_2d(10.0, 80, 80)
    s1 = assemble_system(spec)
    spec2 = spec.with_absorption(0.3)
    tracemalloc.start()
    try:
        s2 = assemble_system(spec2)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2 * s2.A.data.nbytes
    assert s2.D is s1.D and s2.M is s1.M
