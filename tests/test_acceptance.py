"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
All tolerances are fixed here; nothing is deferred to calibration.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from assembly_oracle import oracle_system
from conftest import (
    CANONICAL_GARDING,
    canonical_1d,
    canonical_2d,
    canonical_spec_1d,
    estimated_norm,
    oracle_infsup,
    oracle_solution_norms,
    oracle_weighted_norm,
    random_spd,
    working_rung,
)

from helmprec import solvers
from helmprec.assemble import assemble_load, assemble_system
from helmprec.bounds import nearby_bound_report, norm_equivalence_report
from helmprec.coeffs import absorption_shift, piecewise_field
from helmprec.numerics import (
    discrete_inf_sup,
    gram_factor,
    lu_factor,
    mass_extremes,
    solution_operator_norms,
)
from helmprec.solvers import fixed_point, gmres

SLACK = 1e-9
ENV_SLACK = 1e-8

K_VALUES = (5.0, 10.0, 20.0, 40.0)
ALPHAS = (0.05, 0.1, 0.3, 1.0)
DELTAS = (0.05, 0.2)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


@dataclass
class Case:
    label: str
    k: float
    n: int
    sys1: object
    sys2: object
    rep: object


def _suite_systems():
    for k in K_VALUES:
        for n in (math.ceil(10 * k), math.ceil(k ** 1.5)):
            yield k, n


@pytest.fixture(scope="module")
def suite():
    """All (system, perturbation) cases of the 1D impedance suite."""
    cases = []
    for k, n in _suite_systems():
        s1 = canonical_1d(k, n)
        for alpha in ALPHAS:
            s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, alpha)))
            rep = nearby_bound_report(s1, s2, alpha=alpha)
            cases.append(Case(f"k={k:g},n={n},alpha={alpha}", k, n, s1, s2, rep))
        for delta in DELTAS:
            eps2 = piecewise_field(
                s1.spec.mesh, lambda x: 1.0 + delta if x < 0.5 else 1.0
            )
            s2 = assemble_system(s1.spec.with_eps(eps2))
            rep = nearby_bound_report(s1, s2)
            cases.append(Case(f"k={k:g},n={n},delta={delta}", k, n, s1, s2, rep))
    return cases


def test_exact_identities():
    with criterion("exact identities (1e-12 relative, < 1 s)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1234)
        for sys in (canonical_1d(10.0, 60), canonical_2d(5.0, 6, 6)):
            # A = S + B - M_eps entrywise: exactly in the element-by-element
            # oracle, which assembles the parts, and to 1e-14 relative here
            o = oracle_system(sys.spec)
            parts = o.S + o.B - o.M_eps
            assert abs(o.A - parts).max() == 0.0
            assert abs(sys.A - parts).max() <= 1e-14 * abs(parts).max()
            # D = S(mu = 1) + M entrywise
            d_err = np.abs(
                sys.D.toarray() - (o.S.toarray().real + o.M.toarray())
            ).max()
            assert d_err <= 1e-12 * np.abs(sys.D.toarray()).max()
            # Re(v*Av) + 2 v*Mv = v*Dv over 1000 seeded random vectors
            A, M, D = sys.A.tocsr(), sys.M.tocsr(), sys.D.tocsr()
            for _ in range(1000):
                v = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
                qa = np.vdot(v, A @ v).real
                qm = np.vdot(v, M @ v).real
                qd = np.vdot(v, D @ v).real
                assert abs(qa + 2 * qm - qd) <= 1e-12 * qd
        # A2 - A1 = -i alpha M_eps1 for an absorption pair
        s1 = canonical_1d(10.0, 60)
        for alpha in (0.1, 1.0):
            s2 = assemble_system(
                s1.spec.with_eps(absorption_shift(s1.spec.eps, alpha))
            )
            diff = (s2.A - s1.A).toarray()
            expect = -1j * alpha * oracle_system(s1.spec).M_eps.toarray()
            assert np.abs(diff - expect).max() <= 1e-12 * np.abs(expect).max()
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_lemma_main_suite(suite):
    with criterion("nearby/absorption bound suite (slack 1e-9, < 5 min)"):
        t0 = time.monotonic()
        assert len(suite) == 8 * (len(ALPHAS) + len(DELTAS))
        for case in suite:
            rep = case.rep
            assert not rep.singular, case.label
            assert rep.lhs_D <= rep.rhs_lemma * (1 + SLACK), case.label
            assert rep.lhs_Dinv <= rep.rhs_lemma * (1 + SLACK), case.label
            # mu is fixed in every suite case: Euclidean bound applies
            assert rep.dmu == 0.0
            rhs2 = rep.mass_ratio * rep.deps * rep.cdis2
            assert rep.lhs_2 <= rhs2 * (1 + SLACK), case.label
            assert rep.lhs_2p <= rhs2 * (1 + SLACK), case.label
            assert rep.passed, case.label
            # dense singular-value oracle for both sides at n <= 300 dofs
            if case.sys1.n <= 300:
                C = np.eye(case.sys1.n) - np.linalg.solve(
                    case.sys2.A.toarray(), case.sys1.A.toarray()
                )
                lhs_dense = oracle_weighted_norm(C, case.sys1.D, "D")
                assert rep.lhs_D == pytest.approx(lhs_dense, rel=1e-8), case.label
                cdis2_dense = 1.0 / oracle_infsup(case.sys2.A, case.sys1.D)
                assert rep.cdis2 == pytest.approx(cdis2_dense, rel=1e-8), case.label
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_perturbation_factor_two(suite):
    with criterion("factor-2 stability of the perturbed constant (slack 1e-9)"):
        small = [c for c in suite if c.rep.cond <= 0.5]
        assert small, "no suite case satisfies the smallness condition"
        for case in small:
            assert case.rep.cdis2 <= 2.0 * case.rep.cdis1 * (1 + SLACK), case.label


def test_norm_chains_and_infsup_lower_bound(suite):
    with criterion("solution-operator norm chains and inf-sup lower bound"):
        seen = set()
        for case in suite:
            key = (case.k, case.n)
            if key in seen:
                continue
            seen.add(key)
            rep = norm_equivalence_report(case.sys1, CANONICAL_GARDING)
            for c in rep.checks:
                assert c.passed, (case.label, c.name, c.lhs, c.rhs)
            lower = 1.0 / (1.0 + 2.0 * rep.h0_to_h)
            assert rep.gamma >= lower * (1 - SLACK), case.label
        assert len(seen) == 8


def test_oracle_equivalence(rng):
    with criterion("iterative vs dense oracle agreement (1e-8, >= 50 instances)"):
        instances = 0
        # weighted operator norms, all three modes
        for _ in range(18):
            n = int(rng.integers(20, 100))
            C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            D = random_spd(rng, n)
            g = gram_factor(D)
            for mode in ("D", "D_inv", "euclid"):
                est = estimated_norm(C, g, mode)
                assert est == pytest.approx(
                    oracle_weighted_norm(C, D, mode), rel=1e-8
                )
            instances += 1
        # discrete inf-sup constants
        for _ in range(12):
            n = int(rng.integers(20, 120))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            D = random_spd(rng, n)
            gamma = 1.0 / discrete_inf_sup(lu_factor(A), D)
            assert gamma == pytest.approx(oracle_infsup(A, D), rel=1e-8)
            instances += 1
        # mass extremes
        for _ in range(12):
            n = int(rng.integers(20, 120))
            M = random_spd(rng, n, shift=1.0)
            me = mass_extremes(M)
            w = np.linalg.eigvalsh(M)
            assert me.m_minus_sq == pytest.approx(w[0], rel=1e-8)
            assert me.m_plus_sq == pytest.approx(w[-1], rel=1e-8)
            instances += 1
        # solution-operator norms
        for _ in range(12):
            n = int(rng.integers(20, 80))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            D, M = random_spd(rng, n), random_spd(rng, n)
            lu = lu_factor(A)
            duo = solution_operator_norms(lu, D, M)
            c_dis = discrete_inf_sup(lu, D)
            o1, o2, o3 = oracle_solution_norms(A, D, M)
            assert c_dis == pytest.approx(o1, rel=1e-8)
            assert duo.h0_to_h == pytest.approx(o2, rel=1e-8)
            assert duo.h0_to_h0 == pytest.approx(o3, rel=1e-8)
            instances += 1
        assert instances >= 50


def _check_envelopes(sys1, sys2, c, label):
    b = assemble_load(sys1.spec)
    with pytest.MonkeyPatch.context() as settings:
        settings.setattr(solvers, "TOL", 1e-6)
        settings.setattr(solvers, "MAX_IT", 300)
        fp = fixed_point(sys1, sys2, b)
        lu2 = spla.splu(sp.csc_matrix(sys2.A, dtype=complex))
        settings.setattr(solvers, "MAX_IT", 200)
        gm = gmres(lambda x: lu2.solve(sys1.A @ x), lu2.solve(b), sys1.D)
    env_c = c ** np.arange(fp.iterations + 1)
    assert np.all(fp.norms <= env_c * fp.norms[0] * (1 + ENV_SLACK)), label
    env_c = c ** np.arange(gm.iterations + 1)
    assert np.all(gm.norms <= env_c * gm.norms[0] * (1 + ENV_SLACK)), label
    assert np.all(np.diff(gm.norms) <= 0), label


def test_convergence_envelopes(suite):
    with criterion("fixed-point and D-GMRES envelopes (slack 1e-8)"):
        contracting = [c for c in suite if c.rep.contraction < 1.0]
        assert contracting, "no contracting suite case"
        for case in contracting:
            _check_envelopes(case.sys1, case.sys2, case.rep.contraction, case.label)


def test_preasymptotic_ladder():
    with criterion("inf-sup refinement ladder in [1/3, 3] (< 10 min)"):
        t0 = time.monotonic()
        from helmprec.bounds import infsup_ladder

        # working h = k^-1.5, reference h/4 on the nested refinement
        ks = [10.0, 20.0, 40.0, 80.0]
        rungs = [working_rung(canonical_spec_1d(k, math.ceil(k ** 1.5))) for k in ks]
        ladder = infsup_ladder(rungs, 4)
        assert len(ladder.entries) == 4
        for e in ladder.entries:
            assert not e.singular, e
            assert 1 / 3 <= e.ratio <= 3, e
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_2d_smoke_suite():
    with criterion("2D impedance smoke suite (bounds + envelopes, < 10 min)"):
        t0 = time.monotonic()
        for k, nx in ((5.0, 50), (10.0, 100)):
            s1 = canonical_2d(k, nx, nx)
            assert s1.n <= 20_000
            s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, 0.3)))
            rep = nearby_bound_report(s1, s2, alpha=0.3)
            assert rep.lhs_D <= rep.rhs_lemma * (1 + SLACK)
            assert rep.lhs_Dinv <= rep.rhs_lemma * (1 + SLACK)
            rhs2 = rep.mass_ratio * rep.deps * rep.cdis2
            assert rep.lhs_2 <= rhs2 * (1 + SLACK)
            assert rep.lhs_2p <= rhs2 * (1 + SLACK)
            assert rep.passed
            assert rep.contraction < 1.0
            _check_envelopes(s1, s2, rep.contraction, f"2d k={k}")
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_sweep_determinism(tmp_path):
    with criterion("byte-identical sweep outputs for fixed config and seed"):
        from helmprec.cli import cmd_sweep

        cfg = {
            "problem": {"dimension": 1, "k": 5.0},
            "perturbation": {"mode": "absorption", "alpha": 0.2},
            "sweep": {
                "k_values": [5.0, 10.0],
                "alpha_values": [0.1, 0.3],
                "resolution": {"type": "k_power", "scale": 1.0, "exponent": 1.5},
                "ladder": {"refine": 4},
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r1 = cmd_sweep(str(path), out_dir=str(tmp_path / "a"), seed=7)
        r2 = cmd_sweep(str(path), out_dir=str(tmp_path / "b"), seed=7)
        assert r1.exit_status == 0 and r2.exit_status == 0
        for name in ("sweep", "ladder"):
            b1 = Path(r1.paths[name]).read_bytes()
            b2 = Path(r2.paths[name]).read_bytes()
            assert b1 == b2, name
