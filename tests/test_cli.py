import argparse
import csv
import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helmprec.cli import _parser, cmd_export, cmd_import, cmd_sweep, cmd_verify, main
from helmprec.errors import ConfigError, InvalidCoefficientError, InvalidSystemError
from helmprec.io import load_config, read_matrix_mm


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = {
        "problem": {
            "dimension": 1,
            "k": 8.0,
            "resolution": {"type": "elements", "n": 60},
        },
        "perturbation": {"mode": "absorption", "alpha": 0.2},
        "sweep": {"k_values": [4.0, 8.0], "alpha_values": [0.1, 0.2, 0.4]},
        "solver": {"garding_samples": 100},
        "output": {"dir": str(tmp_path / "out")},
    }
    if extra:
        for key, val in extra.items():
            cfg.setdefault(key, {}).update(val) if isinstance(val, dict) else cfg.update({key: val})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_passes_with_positive_margins(tmp_path):
    res = cmd_verify(write_cfg(tmp_path))
    assert res.exit_status == 0
    assert all(ok for _, ok, _ in res.summaries)
    for key in ("garding", "norm_equivalence", "bounds", "bounds_csv"):
        assert os.path.exists(res.paths[key])
    data = json.loads(open(res.paths["bounds"]).read())
    for check in data["checks"]:
        assert check["margin"] > 0, check
    # full run vs dense oracle: rebuild the config's pair independently
    from conftest import canonical_1d, oracle_weighted_norm
    from helmprec.assemble import assemble_system
    from helmprec.coeffs import absorption_shift

    s1 = canonical_1d(8.0, 60)
    s2 = assemble_system(s1.spec.with_eps(absorption_shift(s1.spec.eps, 0.2)))
    C = np.eye(s1.n) - np.linalg.solve(s2.A.toarray(), s1.A.toarray())
    assert data["lhs_D"] == pytest.approx(
        oracle_weighted_norm(C, s1.D, "D"), rel=1e-8
    )


def test_verify_identity_perturbation_zero_margins(tmp_path):
    path = write_cfg(tmp_path, {"perturbation": {"alpha": 0.0}})
    res = cmd_verify(path, out_dir=str(tmp_path / "oz"))
    assert res.exit_status == 0
    data = json.loads(open(res.paths["bounds"]).read())
    assert data["lhs_D"] == 0.0 and data["rhs_lemma"] == 0.0
    for check in data["checks"]:
        if check["name"].startswith(("nearby", "euclid", "small_cond")):
            assert check["margin"] == 0.0


def test_verify_false_garding_fails(tmp_path):
    path = write_cfg(tmp_path, {"problem": {"garding": {"c_g1": 10.0, "c_g2": 0.0}}})
    res = cmd_verify(path)
    assert res.exit_status == 1
    failed = [name for name, ok, _ in res.summaries if not ok]
    assert any("garding" in name for name in failed)


def test_main_exit_codes(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    bad = write_cfg(tmp_path, {"problem": {"garding": {"c_g1": 10.0, "c_g2": 0.0}}},
                    name="bad.json")
    assert main(["verify", "--config", bad, "--out-dir", str(tmp_path / "o2")]) == 1
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 1


def _step(axis):
    return {"type": "step", "axis": axis, "threshold": 0.5, "below": 1, "above": 2}


def _pml(start):
    return {"type": "pml", "start": start, "sigma0": 3}


PLANE = {"dimension": 2, "resolution": {"type": "elements", "n": 4}}


@pytest.mark.parametrize("extra,where", [
    ({"problem": {"resolution": {"type": "elements"}}},
     "problem.resolution: missing keys ['n']"),
    ({"problem": {"resolution": {"type": "per_k"}}}, "missing keys ['factor']"),
    ({"problem": {"resolution": {"type": "k_power", "scale": 1}}},
     "missing keys ['exponent']"),
    ({"problem": {"resolution": {"type": "elements", "n": "six"}}}, "problem.resolution.n"),
    ({"problem": {"eps": {"type": "step", "below": 1, "above": 2}}},
     "missing keys ['threshold']"),
    ({"problem": {"eps": {"type": "pml", "start": 0.5}}},
     "problem.eps: missing keys ['sigma0']"),
    ({"problem": {"mu_inv": {"type": "constant"}}}, "problem.mu_inv: missing keys ['value']"),
    ({"problem": {"mu_inv": {"type": "constant", "value": "one"}}}, "problem.mu_inv.value"),
    ({"problem": {"k": "abc"}}, "problem.k"),
    ({"problem": {"theta": [1.0]}}, "problem.theta"),
    ({"problem": dict(PLANE, eps=_step(3))}, "problem.eps.axis"),
    ({"problem": dict(PLANE, mu_inv=_step(-1))}, "problem.mu_inv.axis"),
    ({"problem": {"eps": _step(1)}}, "problem.eps.axis"),
    ({"perturbation": {"mode": "nearby", "eps": _step(2)}}, "perturbation.eps.axis"),
    ({"sweep": {"ladder": 5}}, "sweep.ladder"),
    ({"sweep": {"k_values": 5}}, "sweep.k_values"),
    ({"sweep": {"k_values": "12"}}, "sweep.k_values"),
    ({"sweep": {"alpha_values": 0.3}}, "sweep.alpha_values"),
    ({"problem": {"boundary": "dirichlet"}}, "problem.boundary"),
    ({"problem": {"garding": 5}}, "problem.garding"),
    ({"solver": [1]}, "solver"),
    ({"perturbation": "absorption"}, "perturbation"),
    ({"problem": 5}, "problem"),
    ({"output": {"dir": 5}}, "output.dir"),
    ({"problem": {"resolution": {"type": "elements", "n": 4.7}}}, "problem.resolution.n"),
    ({"problem": dict(PLANE, eps=_step(1.9))}, "problem.eps.axis"),
    ({"sweep": {"ladder": {"refine": 2.5}}}, "sweep.ladder.refine"),
    ({"solver": {"max_it": 20.5}}, "solver.max_it"),
    ({"solver": {"garding_samples": 10.5}}, "solver.garding_samples"),
    ({"solver": {"garding_samples": True}}, "solver.garding_samples"),
    ({"seed": 2.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"problem": {"k": float("inf")}}, "problem.k"),
    ({"problem": {"k": float("nan")}}, "problem.k"),
    ({"problem": {"k": 10 ** 400}}, "problem.k"),
    ({"problem": {"k": True}}, "problem.k"),
    ({"problem": {"theta": float("nan")}}, "problem.theta"),
    ({"perturbation": {"alpha": True}}, "perturbation.alpha"),
    ({"sweep": {"k_values": [4.0, float("inf")]}}, "sweep.k_values"),
    ({"problem": {"garding": {"c_g1": float("nan"), "c_g2": 2.0}}}, "problem.garding"),
    ({"problem": {"garding": {"c_g1": 1.0, "c_g2": float("inf")}}}, "problem.garding"),
    ({"problem": {"garding": {"c_g1": 0.0, "c_g2": 2.0}}}, "problem.garding"),
    ({"seed": -1}, "seed"),
    ({"problem": {"k": "8"}}, "problem.k"),
    ({"solver": {"tol": "1e-3"}}, "solver.tol"),
    ({"seed": "3"}, "seed"),
    ({"problem": {"resolution": {"type": "elements", "n": "30"}}}, "problem.resolution.n"),
    ({"problem": {"mu_inv": {"type": "constant", "value": True}}}, "problem.mu_inv.value"),
    ({"problem": {"eps": {"type": "constant", "value": [True, False]}}}, "problem.eps.value"),
    ({"problem": {"eps": {"type": "constant", "value": "2"}}}, "problem.eps.value"),
    ({"problem": {"dimension": True}}, "problem.dimension"),
    ({"schema_version": True}, "schema_version"),
    ({"problem": {"theta": 0}}, "problem.theta"),
    ({"problem": {"theta": -1.0}}, "problem.theta"),
    ({"problem": {"resolution": {"type": "elements", "n": 0}}}, "problem.resolution.n"),
    ({"problem": {"resolution": {"type": "elements", "n": -4}}}, "problem.resolution.n"),
    ({"problem": {"resolution": {"type": "per_k", "factor": 0}}},
     "problem.resolution.factor"),
    ({"sweep": {"resolution": {"type": "per_k", "factor": -0.4}}}, "sweep.resolution.factor"),
    ({"problem": {"resolution": {"type": "k_power", "scale": 0, "exponent": 1}}},
     "problem.resolution.scale"),
    ({"problem": {"eps": {"type": "pml", "start": 0.5, "sigma0": -1.0}}}, "problem.eps.sigma0"),
    ({"sweep": {"k_values": [4.0, -8.0]}}, "sweep.k_values"),
    ({"sweep": {"k_values": [0]}}, "sweep.k_values"),
    ({"problem": {"domain": [1.0, 0.0]}}, "problem.domain"),
    ({"problem": dict(PLANE, domain=[1.0, 0.0])}, "problem.domain"),
    ({"problem": dict(PLANE, domain=[-1.0, 1.0])}, "problem.domain"),
    ({"problem": dict(PLANE, eps=_pml(0.5))}, "problem.eps.start"),
    ({"problem": {"mu_inv": _pml(3.0)}}, "problem.mu_inv.start"),
    ({"problem": {"eps": _pml(1.0)}}, "problem.eps.start"),
    ({"problem": {"eps": _pml(-0.5)}}, "problem.eps.start"),
    ({"perturbation": {"mode": "nearby", "eps": _pml(1.5)}}, "perturbation.eps.start"),
    ({"problem": PLANE, "perturbation": {"mode": "nearby", "mu_inv": _pml(0.5)}},
     "perturbation.mu_inv.start"),
], ids=["elements", "per_k", "k_power", "n", "step", "pml", "constant", "value", "k",
        "theta", "axis_3", "axis_negative", "axis_1d", "perturbation_axis", "ladder",
        "k_values", "k_values_text", "alpha_values", "boundary", "garding", "solver", "perturbation",
        "problem", "output_dir", "n_fraction", "axis_fraction", "refine_fraction",
        "max_it_fraction", "samples_fraction", "samples_bool", "seed_fraction", "seed_bool",
        "k_infinity", "k_nan", "k_overflow", "k_bool", "theta_nan", "alpha_bool",
        "k_values_infinity", "garding_nan", "garding_infinity", "garding_zero", "seed_negative",
        "k_text", "tol_text", "seed_text", "n_text", "value_bool", "value_bool_pair",
        "value_text", "dimension_bool", "schema_version_bool", "theta_zero", "theta_negative",
        "n_zero", "n_negative", "factor_zero", "sweep_factor_negative", "scale_zero",
        "sigma0_negative", "k_values_negative", "k_values_zero", "domain_reversed",
        "domain_side_zero", "domain_side_negative", "pml_2d", "pml_start_beyond",
        "pml_start_at_end", "pml_start_before", "perturbation_pml_start",
        "perturbation_pml_2d"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, extra, where):
    path = write_cfg(tmp_path, extra)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert where in str(exc.value)
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("resolution", [
    {"type": "per_k", "factor": 1e308},
    {"type": "k_power", "scale": 1e-300, "exponent": 10},
    {"type": "k_power", "scale": 1e-300, "exponent": 30},
    {"type": "k_power", "exponent": -400},
], ids=["per_k_overflow", "k_power_overflow", "k_power_zero_diameter", "k_power_pow_overflow"])
def test_resolution_without_a_finite_element_count_is_an_error(tmp_path, capsys, resolution):
    """Valid numbers whose element count at k overflows (or whose element
    diameter does) are an error line, not a traceback from math.ceil."""
    path = write_cfg(tmp_path, {"problem": {"resolution": resolution}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resolution rule") and err.count("\n") == 1


# C_g1 = 50 is far above the valid constant: three norm checks fail.
WRONG_GARDING = {"problem": {"k": 6.0, "resolution": {"type": "elements", "n": 30},
                             "garding": {"c_g1": 50.0, "c_g2": 0.0}}}
WRONG_GARDING_FAILS = {"garding.sampled", "norms.chain1_upper", "norms.chain2_upper",
                       "norms.infsup_lower"}


def _command(name, path, tmp_path):
    if name == "import":
        return ["import", "--dir", str(tmp_path / "pair")]
    return [name, "--config", path, "--out-dir", str(tmp_path / name)]


def _rejected_by_argparse(argv):
    """True when argparse refuses the command line with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "sweep", "export", "import"])
@pytest.mark.parametrize("scale", ["inf", "nan", "-1", "1"])
def test_tol_scale_must_be_finite_and_non_negative(tmp_path, command, scale):
    """A scaled slack turned the failing norm checks into PASSes (an
    infinite one always, a scale of 1e12 for the three norm chains): no
    command takes a slack scale, whatever its value."""
    path = write_cfg(tmp_path, WRONG_GARDING)
    assert _rejected_by_argparse(_command(command, path, tmp_path) + ["--tol-scale", scale])


def test_tol_scale_one_keeps_its_verdicts(tmp_path):
    res = cmd_verify(write_cfg(tmp_path, WRONG_GARDING))
    assert res.exit_status == 1
    assert {name for name, ok, _ in res.summaries if not ok} == WRONG_GARDING_FAILS
    assert len(res.summaries) == 12


@pytest.mark.parametrize("command", ["verify", "sweep", "export", "import"])
def test_negative_seed_flag_is_an_error(tmp_path, capsys, command):
    """numpy's seeding rejects a negative seed with a ValueError; the flag
    is refused before anything runs, by every command that takes it."""
    path = write_cfg(tmp_path)
    argv = _command(command, path, tmp_path) + ["--seed", "-5"]
    if command == "export":  # draws nothing, so it takes no --seed
        assert _rejected_by_argparse(argv)
        return
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"


@pytest.mark.parametrize("role,value", [("eps", [float("nan"), 0.0]),
                                        ("eps", [1.0, float("inf")]),
                                        ("mu_inv", [float("inf"), 0.0])])
def test_non_finite_coefficient_is_an_error(tmp_path, capsys, role, value):
    """Not a singular matrix and not a PASS: the coefficient is rejected."""
    path = write_cfg(tmp_path, {"problem": {role: {"type": "constant", "value": value}}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {role} values must be finite\n"


def test_sweep_grid_rows_and_zero_alpha(tmp_path):
    path = write_cfg(tmp_path)
    cfg = json.loads(open(path).read())
    cfg["sweep"]["alpha_values"] = [0.0, 0.1, 0.3]
    open(path, "w").write(json.dumps(cfg))
    res = cmd_sweep(path, out_dir=str(tmp_path / "s"))
    assert res.exit_status == 0
    lines = open(res.paths["sweep"]).read().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + 2 k-values x 3 alphas
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["alpha"]) == 0.0
    assert float(first["lhs_D"]) == 0.0
    assert float(first["rhs_lemma"]) == 0.0


def test_sweep_deterministic(tmp_path):
    path = write_cfg(tmp_path)
    r1 = cmd_sweep(path, out_dir=str(tmp_path / "s1"))
    r2 = cmd_sweep(path, out_dir=str(tmp_path / "s2"))
    assert open(r1.paths["sweep"], "rb").read() == open(r2.paths["sweep"], "rb").read()


def _factor_kinds(splu_calls):
    """{'f': real factors, 'c': complex factors} among the recorded calls."""
    return dict(Counter(dtype.kind for _, dtype in splu_calls))


LADDER = {"sweep": {"ladder": {"refine": 2}}}


def test_each_matrix_factored_once(tmp_path, splu_calls):
    """verify factors D, M, A1 and A2 once each, plus the transient shifted
    mass matrix sigma I - M of ``mass_extremes``; a sweep factors the first
    four of them once per k and only A2 per (k, alpha) point, and its ladder
    factors only the A of each k's reference rung: the working rung is the
    sweep's own system, and an inf-sup constant takes products with D, not
    its factor."""
    path = write_cfg(tmp_path, LADDER)
    assert cmd_verify(path, out_dir=str(tmp_path / "v")).exit_status == 0
    assert len(splu_calls) == 5
    assert _factor_kinds(splu_calls) == {"f": 3, "c": 2}
    splu_calls.clear()
    res = cmd_sweep(path, out_dir=str(tmp_path / "s"))
    assert len(res.summaries) == 6 + 2  # 2 k-values x 3 alphas, 2 ladder rungs
    assert len(splu_calls) == 2 * (4 + 3) + 2 * 1
    assert _factor_kinds(splu_calls) == {"f": 2 * 3, "c": 2 * (1 + 3) + 2}


def test_verify_factors_beside_at_most_two_live_factors(tmp_path, live_factors):
    """verify factors A1 for the norm chains, then sigma I - M and M one at
    a time for the mass extremes, then D and A2: no factorization runs
    beside more than A1's LU and D's Gram factor."""
    assert cmd_verify(write_cfg(tmp_path), out_dir=str(tmp_path / "v")).exit_status == 0
    assert live_factors == [0, 1, 1, 1, 2]


def test_eigensolves_per_command(tmp_path, pencil_calls):
    """verify: 2 M-weighted solution norms, 1 C_dis per matrix, 2 mass
    extremes and 2 norm estimates (one per symmetric twin pair). A sweep
    computes C_dis_1 and the mass extremes once per k, and C_dis_2 and 2
    norm estimates per point; its ladder adds one C_dis per k, of the
    reference rung (60 elements refined twice: 121 dofs)."""
    path = write_cfg(tmp_path, LADDER)
    assert cmd_verify(path, out_dir=str(tmp_path / "v")).exit_status == 0
    assert pencil_calls == [61] * 8
    pencil_calls.clear()
    assert cmd_sweep(path, out_dir=str(tmp_path / "s")).exit_status == 0
    assert len(pencil_calls) == 2 * (3 + 3 * 3) + 2
    assert pencil_calls[:-2] == [61] * (2 * (3 + 3 * 3))
    assert pencil_calls[-2:] == [121, 121]


def test_eigensolves_run_in_shift_invert_mode(tmp_path, monkeypatch, eigsh_calls):
    """Every eigsh call is ARPACK's shift-invert mode at sigma = 0 with
    OPinv = W, and its M is the norm matrix B exactly when the eigensolve
    has one: always for the inf-sup constant and the solution-operator
    norms, which make no Gram-factor solve, never for the mass extremes. A
    D-weighted operator norm makes one Gram-factor solve per application.
    Every operator is float64, so eigsh runs its symmetric driver: of size
    2n for a complex W (the interleaved view of complex n-vectors), and of
    size n for the real W of the mass extremes."""
    import inspect

    from conftest import rebind_everywhere

    from helmprec import numerics

    scope, pencils = [], []
    solves, applies = Counter(), Counter()
    gram_solve = numerics.GramFactor.solve
    pencil = numerics._pencil_lambda_max
    signature = inspect.signature(pencil)

    def counting_solve(self, *args, **kwargs):
        solves[scope[-1] if scope else None] += 1
        return gram_solve(self, *args, **kwargs)

    def counting_pencil(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        key = (scope[-1], bound.get("b") is not None)
        apply_w = bound.pop("apply_w")

        def counted(v):
            applies[key] += 1
            return apply_w(v)

        first = len(eigsh_calls)
        try:
            return pencil(counted, **bound)
        finally:
            pencils.extend([(*key, bound["n"])] * (len(eigsh_calls) - first))

    def scoped(fn):
        def run(*args, **kwargs):
            scope.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()
        return run

    monkeypatch.setattr(numerics.GramFactor, "solve", counting_solve)
    rebind_everywhere(monkeypatch, pencil, counting_pencil)
    for fn in (numerics.discrete_inf_sup, numerics.solution_operator_norms,
               numerics.weighted_operator_norm, numerics.mass_extremes):
        rebind_everywhere(monkeypatch, fn, scoped(fn))

    path = write_cfg(tmp_path, {
        "problem": {"dimension": 2, "k": 4.0, "resolution": {"type": "elements", "n": 6}},
        "sweep": {"k_values": [4.0], "alpha_values": [0.2],
                  "resolution": {"type": "elements", "n": 6}, "ladder": {"refine": 2}},
    })
    assert cmd_verify(path, out_dir=str(tmp_path / "v")).exit_status == 0
    assert cmd_sweep(path, out_dir=str(tmp_path / "s")).exit_status == 0
    assert len(pencils) == len(eigsh_calls)
    assert {name for name, _, _ in pencils} == {
        "discrete_inf_sup", "solution_operator_norms", "weighted_operator_norm",
        "mass_extremes"}
    for (name, has_b, n), call in zip(pencils, eigsh_calls):
        kwargs = call["kwargs"]
        assert kwargs["sigma"] == 0.0 and kwargs["which"] == "LM", name
        assert kwargs["OPinv"] is not None and "Minv" not in kwargs, name
        assert (kwargs.get("M") is not None) == has_b, name
        size = n if name == "mass_extremes" else 2 * n
        assert call["dtype"] == kwargs["OPinv"].dtype == np.float64, name
        assert call["shape"] == kwargs["OPinv"].shape == (size, size), name
        if has_b:
            assert kwargs["M"].dtype == np.float64, name
            assert kwargs["M"].shape == (size, size), name
    for name in ("discrete_inf_sup", "solution_operator_norms"):
        assert applies[name, True] > 0 and applies[name, False] == 0, name
        assert solves[name] == 0, name
    assert applies["mass_extremes", True] == 0
    assert applies["weighted_operator_norm", False] > 0  # the Euclidean norms
    assert solves["weighted_operator_norm"] == applies["weighted_operator_norm", True] > 0


def test_import_factors_each_matrix_once(tmp_path, splu_calls):
    """import certifies D and M SPD with the factors its report solves
    with, at every seed: M's inside the mass extremes at the command's seed,
    which the report reuses."""
    exch = str(tmp_path / "exch")
    assert cmd_export(write_cfg(tmp_path), out_dir=exch).exit_status == 0
    for seed in (0, 1):
        splu_calls.clear()
        out = str(tmp_path / f"i{seed}")
        assert cmd_import(exch, out_dir=out, seed=seed).exit_status == 0
        assert len(splu_calls) == 5, seed
        assert _factor_kinds(splu_calls) == {"f": 3, "c": 2}, seed


def test_sweep_with_ladder(tmp_path):
    path = write_cfg(tmp_path, {
        "sweep": {"k_values": [4.0, 8.0], "alpha_values": [0.2],
                  "resolution": {"type": "k_power", "scale": 1.0, "exponent": 1.5},
                  "ladder": {"refine": 4}},
    })
    res = cmd_sweep(path, out_dir=str(tmp_path / "sl"))
    assert res.exit_status == 0
    lines = open(res.paths["ladder"]).read().splitlines()
    assert len(lines) == 3
    ratios = [float(l.split(",")[7]) for l in lines[1:]]
    assert all(1 / 3 <= r <= 3 for r in ratios)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_and_ladder(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = cmd_sweep(str(path), out_dir=str(tmp_path / "out"))
    assert res.exit_status == 0
    return _csv_rows(res.paths["sweep"]), _csv_rows(res.paths["ladder"])


def test_sweep_ladder_working_rung_is_the_sweep_system_pml(tmp_path):
    """The pml layer scales with k: every k's working rung is that k's own
    sweep system, so its gamma is 1/cdis1 of the sweep row at that k."""
    pml = {"type": "pml", "start": 0.7, "sigma0": 20.0}
    sweep, ladder = _sweep_and_ladder(tmp_path, {
        "problem": {"dimension": 1, "k": 10.0, "mu_inv": pml, "eps": pml,
                    "resolution": {"type": "per_k", "factor": 10}},
        "perturbation": {"mode": "absorption", "alpha": 0.3},
        "sweep": {"k_values": [10.0, 40.0], "alpha_values": [0.3],
                  "ladder": {"refine": 2}},
    })
    assert [r["k"] for r in ladder] == [r["k"] for r in sweep] == ["10.0", "40.0"]
    assert [int(r["n"]) for r in ladder] == [101, 401]
    for row, rung in zip(sweep, ladder):
        assert float(rung["gamma"]) == pytest.approx(1 / float(row["cdis1"]), rel=1e-12)
        assert int(rung["n_ref"]) == 2 * int(rung["n"]) - 1


def test_sweep_ladder_working_rung_is_the_sweep_mesh_non_square(tmp_path):
    """On a [2, 1] domain each axis is sized separately, for the sweep's
    mesh and for the ladder's working rung alike."""
    sweep, ladder = _sweep_and_ladder(tmp_path, {
        "problem": {"dimension": 2, "k": 4.0, "domain": [2.0, 1.0],
                    "resolution": {"type": "per_k", "factor": 3}},
        "perturbation": {"mode": "absorption", "alpha": 0.3},
        "sweep": {"k_values": [4.0, 5.0], "alpha_values": [0.3],
                  "ladder": {"refine": 2}},
    })
    assert sweep[0]["n"] == "325"
    assert len(ladder) == len(sweep) == 2
    for row, rung in zip(sweep, ladder):
        assert (rung["n"], rung["h"]) == (row["n"], row["h"])
        assert float(rung["h_ref"]) == pytest.approx(float(rung["h"]) / 2, rel=1e-15)


def test_sweep_ladder_raises_when_a_system_failed(tmp_path):
    """A k whose sweep system could not be built stops the ladder; the
    sweep's error rows are written first."""
    path = write_cfg(tmp_path, {
        "problem": {"mu_inv": {"type": "step", "axis": 0, "threshold": 0.5,
                               "below": [-1.0, 0.0], "above": [1.0, 0.0]}},
        "sweep": {"alpha_values": [0.1], "ladder": {"refine": 2}},
    })
    out = tmp_path / "sf"
    with pytest.raises(InvalidCoefficientError):
        cmd_sweep(path, out_dir=str(out))
    assert all(r["error"] == "InvalidCoefficientError"
               for r in _csv_rows(out / "sweep.csv"))
    assert not (out / "ladder.csv").exists()


def test_sweep_alpha_growth_and_small_alpha_linearity(tmp_path):
    path = write_cfg(tmp_path, {
        "sweep": {"k_values": [10.0, 20.0], "alpha_values": [0.05, 0.1, 0.3, 1.0],
                  "resolution": {"type": "k_power", "scale": 1.0, "exponent": 1.5}},
    })
    res = cmd_sweep(path, out_dir=str(tmp_path / "sg"))
    lines = open(res.paths["sweep"]).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    for k in ("10.0", "20.0"):
        sub = [r for r in rows if r["k"] == k]
        alphas = [float(r["alpha"]) for r in sub]
        lhs = [float(r["lhs_D"]) for r in sub]
        assert alphas == sorted(alphas)
        assert lhs == sorted(lhs)  # lhs_D grows with alpha at fixed k
        # in the small-absorption regime the growth is linear in alpha
        slopes = [l / a for l, a in zip(lhs[:2], alphas[:2])]
        assert max(slopes) / min(slopes) <= 2.0


def test_sweep_continues_past_per_point_failures(tmp_path):
    cfg = {
        "problem": {"dimension": 1, "k": 4.0,
                    "resolution": {"type": "elements", "n": 20}},
        "perturbation": {
            "mode": "nearby",
            "mu_inv": {"type": "step", "axis": 0, "threshold": 0.5,
                       "below": [-1.0, 0.0], "above": [1.0, 0.0]},
        },
        "sweep": {"k_values": [4.0, 8.0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    res = cmd_sweep(str(path), out_dir=str(tmp_path / "sf"))
    assert res.exit_status == 1  # failures reported
    lines = open(res.paths["sweep"]).read().splitlines()
    assert len(lines) == 3  # run continued through both grid points
    assert all("InvalidCoefficientError" in l for l in lines[1:])


def test_export_import_roundtrip_matches(tmp_path):
    cfg_path = write_cfg(tmp_path)
    exch = str(tmp_path / "exch")
    res = cmd_export(cfg_path, out_dir=exch)
    assert res.exit_status == 0
    res_v = cmd_verify(cfg_path, out_dir=str(tmp_path / "v"))
    res_i = cmd_import(exch, out_dir=str(tmp_path / "i"))
    assert res_i.exit_status == 0
    a = json.loads(open(res_v.paths["bounds"]).read())
    b = json.loads(open(res_i.paths["bounds"]).read())
    for key in ("dmu", "deps", "cdis1", "cdis2", "lhs_D", "lhs_2", "rhs_lemma"):
        assert a[key] == b[key], key


def test_import_errors(tmp_path):
    cfg_path = write_cfg(tmp_path)
    exch = str(tmp_path / "exch")
    cmd_export(cfg_path, out_dir=exch)
    os.remove(os.path.join(exch, "D.mtx"))
    assert main(["import", "--dir", exch]) == 1

    cmd_export(cfg_path, out_dir=exch)
    # overwrite D with a non-SPD matrix
    from helmprec.io import write_matrix_mm
    import scipy.sparse as sp

    n = json.loads(open(os.path.join(exch, "meta.json")).read()) and 60
    bad = sp.diags([-1.0] * 61).tocsr().astype(complex)
    write_matrix_mm(os.path.join(exch, "D.mtx"), bad, "hermitian")
    with pytest.raises(InvalidSystemError, match="D"):
        cmd_import(exch)

    # D is read as a real matrix only when it is one: a Hermitian D with a
    # nonzero imaginary part is refused
    cmd_export(cfg_path, out_dir=exch)
    D = read_matrix_mm(os.path.join(exch, "D.mtx"))
    D = D + 1e-15j * (sp.triu(D, 1) - sp.tril(D, -1))
    write_matrix_mm(os.path.join(exch, "D.mtx"), D, "hermitian")
    with pytest.raises(InvalidSystemError, match="matrix D must be real symmetric"):
        cmd_import(exch)


def test_import_refuses_an_indefinite_m_before_factoring_a(tmp_path, splu_calls):
    """An indefinite M is refused by the factor of M that the mass
    extremes make after sigma I - M's, before A1 or A2 is factored."""
    from helmprec.io import write_matrix_mm

    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    M = read_matrix_mm(os.path.join(exch, "M.mtx")).tolil()
    M[0, 0] = -M[0, 0]  # e_0^T M e_0 < 0 < e_1^T M e_1
    write_matrix_mm(os.path.join(exch, "M.mtx"), M, "hermitian")
    splu_calls.clear()
    with pytest.raises(InvalidSystemError, match="matrix M is not positive definite"):
        cmd_import(exch, out_dir=str(tmp_path / "i"))
    assert _factor_kinds(splu_calls) == {"f": 3}  # D, sigma I - M, M
    assert not os.path.exists(os.path.join(tmp_path, "i", "bounds.json"))


def test_import_of_an_empty_pair_is_an_error(tmp_path, capsys):
    """Four 0 x 0 matrices are refused with one error line, not a traceback."""
    exch = tmp_path / "exch"
    exch.mkdir()
    for name in ("A1", "A2", "D", "M"):
        (exch / f"{name}.mtx").write_text(
            "%%MatrixMarket matrix coordinate complex general\n0 0 0\n")
    (exch / "meta.json").write_text('{"dmu": 0.0, "deps": 0.2}')
    assert main(["import", "--dir", str(exch)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix A1 is empty (0 x 0)\n"


def test_import_norms_flags_over_meta(tmp_path):
    """import takes each coefficient-difference norm from its flag, else from
    the pair's meta.json, and fails without either."""
    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    meta_path = os.path.join(exch, "meta.json")
    meta = json.loads(open(meta_path).read())
    assert meta == {"dmu": 0.0, "deps": pytest.approx(0.2, rel=1e-15)}

    def bounds(directory):
        return json.loads(open(os.path.join(directory, "bounds.json")).read())

    cmd_import(exch, out_dir=str(tmp_path / "m"))
    from_meta = bounds(tmp_path / "m")
    assert (from_meta["dmu"], from_meta["deps"]) == (meta["dmu"], meta["deps"])
    cmd_import(exch, out_dir=str(tmp_path / "f"), deps=0.5)
    assert (bounds(tmp_path / "f")["dmu"], bounds(tmp_path / "f")["deps"]) == (0.0, 0.5)
    cmd_import(exch, out_dir=str(tmp_path / "g"), dmu=0.1, deps=0.5)
    assert (bounds(tmp_path / "g")["dmu"], bounds(tmp_path / "g")["deps"]) == (0.1, 0.5)

    os.remove(meta_path)
    out = str(tmp_path / "x")
    assert main(["import", "--dir", exch, "--out-dir", out]) == 1
    assert main(["import", "--dir", exch, "--out-dir", out, "--deps", "0.5"]) == 1
    assert not os.path.exists(os.path.join(out, "bounds.json"))
    flags = ["--dmu", repr(meta["dmu"]), "--deps", repr(meta["deps"])]
    assert main(["import", "--dir", exch, "--out-dir", out] + flags) == 0
    assert bounds(out)["rhs_lemma"] == from_meta["rhs_lemma"]


@pytest.mark.parametrize("flags,meta,message", [
    (["--dmu", "inf"], None, "dmu must be a finite number >= 0, got inf"),
    (["--dmu", "-5"], None, "dmu must be a finite number >= 0, got -5.0"),
    (["--deps", "nan"], None, "deps must be a finite number >= 0, got nan"),
    ([], '{"dmu": Infinity, "deps": 0.2}', "dmu must be a finite number >= 0, got inf"),
    ([], '{"dmu": "0", "deps": 0.2}', "dmu must be a finite number >= 0, got '0'"),
    ([], '{"dmu": true, "deps": 0.2}', "dmu must be a finite number >= 0, got True"),
    ([], '{"dmu": 0.0, "deps": ', "meta.json: Expecting value"),
    ([], "[0.0, 0.2]", "meta.json is not a JSON object"),
], ids=["flag_inf", "flag_negative", "flag_nan", "meta_inf", "meta_string", "meta_bool",
        "meta_not_json", "meta_list"])
def test_import_rejects_a_bad_norm(tmp_path, capsys, flags, meta, message):
    """An infinite coefficient-difference norm passed the nearby checks, a
    negative one emitted the small-cond checks, and a malformed meta.json
    ended in a traceback: each is one error line and exit status 1."""
    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    if meta is not None:
        with open(os.path.join(exch, "meta.json"), "w") as fh:
            fh.write(meta)
    capsys.readouterr()
    out = str(tmp_path / "i")
    assert main(["import", "--dir", exch, "--out-dir", out] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not os.path.exists(os.path.join(out, "bounds.json"))


def test_sweep_first_system_failure_fills_each_row_of_its_k(tmp_path):
    """k's first system is built once; when that fails, every alpha of
    that k gets the error row and the run continues."""
    path = write_cfg(tmp_path, {
        "problem": {"mu_inv": {"type": "step", "axis": 0, "threshold": 0.5,
                               "below": [-1.0, 0.0], "above": [1.0, 0.0]}},
        "sweep": {"alpha_values": [0.1, 0.2]},
    })
    res = cmd_sweep(path, out_dir=str(tmp_path / "sf"))
    assert res.exit_status == 1
    lines = open(res.paths["sweep"]).read().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert all(l.endswith("InvalidCoefficientError") for l in lines[1:])


def test_readme_synopsis_lists_each_commands_flags():
    """The README's command-line synopsis names, for every command, exactly
    the flags its parser declares."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        if line.startswith("helmprec "):
            flags = documented.setdefault(line.split()[1], set())
        flags.update(re.findall(r"--[a-z-]+", line))
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {flag for action in sp._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sp in commands.choices.items()
    }
    assert documented == declared
