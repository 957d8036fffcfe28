import argparse
import csv
import inspect
import json
import math
import os
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from helmprec.assemble import assemble_system
from helmprec.cli import _parser, cmd_export, cmd_import, cmd_sweep, cmd_verify, main
from helmprec.errors import (
    ConfigError,
    HelmprecError,
    InvalidArgumentError,
    InvalidCoefficientError,
    InvalidSystemError,
    MatrixExchangeError,
)
from helmprec.io import build_problem, load_config, read_matrix_mm


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = {
        "problem": {
            "dimension": 1,
            "k": 8.0,
            "resolution": {"type": "elements", "n": 60},
        },
        "perturbation": {"mode": "absorption", "alpha": 0.2},
        "sweep": {"k_values": [4.0, 8.0], "alpha_values": [0.1, 0.2, 0.4]},
    }
    extra = extra or {}
    if isinstance(extra.get("perturbation"), dict) and extra["perturbation"].get("mode") == "nearby":
        # keys that only absorption mode reads are refused in nearby mode
        del cfg["perturbation"]["alpha"], cfg["sweep"]["alpha_values"]
    for key, val in extra.items():
        cfg.setdefault(key, {}).update(val) if isinstance(val, dict) else cfg.update({key: val})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_passes_with_positive_margins(tmp_path):
    res = cmd_verify(write_cfg(tmp_path), out_dir=str(tmp_path / "out"))
    assert res.exit_status == 0
    assert all(ok for _, ok, _ in res.summaries)
    for key in ("garding", "norm_equivalence", "bounds", "bounds_csv"):
        assert os.path.exists(res.paths[key])
    data = json.loads(Path(res.paths["bounds"]).read_text())
    for check in data["checks"]:
        assert check["margin"] > 0, check
    # full run vs dense oracle: rebuild the config's pair independently
    from conftest import canonical_1d, oracle_weighted_norm
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
    data = json.loads(Path(res.paths["bounds"]).read_text())
    assert data["lhs_D"] == 0.0 and data["rhs_lemma"] == 0.0
    for check in data["checks"]:
        if check["name"].startswith(("nearby", "euclid", "small_cond")):
            assert check["margin"] == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the sampled Garding check passes constants that the dense "
    "pencil refutes; certifying them with one factorization makes this a FAIL"))
def test_verify_garding_refutes_too_large_c_g1(tmp_path, capsys):
    """Step mu^-1 in {0.5, 2} and eps in {1, 3} on a 10 x 10 unit square:
    lambda_min(Re A + 3.5 M, D) is 0.5, so C_g1 = 1.0 is false, and the
    garding.sampled line must not be a PASS."""
    step = {"type": "step", "threshold": 0.5}
    path = write_cfg(tmp_path, {"problem": {
        "dimension": 2, "k": 10.0, "resolution": {"type": "elements", "n": 10},
        "mu_inv": dict(step, axis=0, below=0.5, above=2.0),
        "eps": dict(step, axis=1, below=1.0, above=3.0),
        "garding": {"c_g1": 1.0, "c_g2": 3.5}}})
    sys = assemble_system(build_problem(load_config(path)["problem"]))
    assert sys.n == 121
    lam = eigh((sys.A.real + 3.5 * sys.M).toarray(), sys.D.toarray(), eigvals_only=True)
    assert lam.min() < 1.0
    main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")])
    lines = capsys.readouterr().out.splitlines()
    (sampled,) = [line for line in lines if " garding.sampled:" in line]
    assert not sampled.startswith("PASS")


def test_verify_false_garding_fails(tmp_path):
    path = write_cfg(tmp_path, {"problem": {"garding": {"c_g1": 10.0, "c_g2": 0.0}}})
    res = cmd_verify(path, out_dir=str(tmp_path / "out"))
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
    ({"output": {"dir": 5}}, "unknown keys ['output'] (output)"),
    ({"problem": {"resolution": {"type": "elements", "n": 4.7}}}, "problem.resolution.n"),
    ({"problem": dict(PLANE, eps=_step(1.9))}, "problem.eps.axis"),
    ({"sweep": {"ladder": {"refine": 2.5}}}, "sweep.ladder.refine"),
    ({"solver": {"max_it": 20.5}}, "unknown keys ['solver']"),
    ({"solver": {"garding_samples": 10.5}}, "unknown keys ['solver']"),
    ({"solver": {"garding_samples": True}}, "unknown keys ['solver']"),
    ({"seed": 2.5}, "unknown keys ['seed'] (seed)"),
    ({"seed": True}, "unknown keys ['seed'] (seed)"),
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
    ({"seed": -1}, "unknown keys ['seed'] (seed)"),
    ({"problem": {"k": "8"}}, "problem.k"),
    ({"solver": {"tol": "1e-3"}}, "unknown keys ['solver']"),
    ({"seed": "3"}, "unknown keys ['seed'] (seed)"),
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
    ({"seed": 0}, "unknown keys ['seed'] (seed)"),
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
        "perturbation_pml_2d", "seed"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, extra, where):
    path = write_cfg(tmp_path, extra)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert where in str(exc.value)
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("extra,message", [
    ({"perturbation": {"mode": "nearby", "alpha": 5, "eps": {"type": "constant", "value": 2}}},
     "perturbation.alpha is not read in nearby mode"),
    ({"perturbation": {"mode": "nearby", "eps": {"type": "constant", "value": 2}},
      "sweep": {"alpha_values": [0.1, 0.9]}}, "sweep.alpha_values is not read in nearby mode"),
    ({"perturbation": {"mode": "absorption", "eps": {"type": "constant", "value": 50}}},
     "perturbation.eps is not read in absorption mode"),
    ({"sweep": {"k_values": [3, 3], "alpha_values": [0.1]}},
     "sweep.k_values must be numbers > 0 that name distinct summary lines "
     "(6 significant digits), got [3.0, 3.0]"),
    ({"sweep": {"k_values": [3], "alpha_values": [0.1, 0.1]}},
     "sweep.alpha_values must be numbers >= 0 that name distinct summary lines "
     "(6 significant digits), got [0.1, 0.1]"),
    ({"sweep": {"k_values": [3.0000001, 3.0000002], "alpha_values": [0.1], "ladder": {}}},
     "sweep.k_values must be numbers > 0 that name distinct summary lines "
     "(6 significant digits), got [3.0000001, 3.0000002]"),
    ({"sweep": {"k_values": [3], "alpha_values": [0.1, 0.1000001]}},
     "sweep.alpha_values must be numbers >= 0 that name distinct summary lines "
     "(6 significant digits), got [0.1, 0.1000001]"),
], ids=["nearby_alpha", "nearby_alpha_values", "absorption_eps",
        "repeated_k", "repeated_alpha", "k_names_collide", "alpha_names_collide"])
def test_sweep_refuses_an_unread_key_or_a_repeated_grid_value(tmp_path, capsys, extra, message):
    """A sweep ignored alpha and alpha_values in nearby mode, printing one
    PASS line, and a coefficient rule in absorption mode; it solved a
    repeated k or alpha again under the same summary-line name, and so two
    values that print alike (PASS sweep[k=3,alpha=0.1] and ladder[k=3]
    twice): each is now a ConfigError that names the key."""
    path = write_cfg(tmp_path, extra)
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "s")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not (tmp_path / "s" / "sweep.csv").exists()


def test_config_that_is_not_utf8_is_an_error(tmp_path, capsys):
    """A config holding a byte that is not UTF-8 is one error line, not a
    traceback."""
    path = Path(write_cfg(tmp_path))
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(ConfigError, match="is not UTF-8 text"):
        load_config(str(path))
    assert main(["verify", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config") and err.count("\n") == 1


def test_wavenumber_without_a_finite_inverse_square_is_an_error(tmp_path, capsys):
    """k = 1e-160 is positive, but k^-2 overflows: verify prints one error
    line naming the wavenumber, and a sweep records the error in that k's
    row and goes on with the next k."""
    path = write_cfg(tmp_path, {"problem": {"k": 1e-160},
                                "sweep": {"k_values": [1e-160, 4.0], "alpha_values": [0.2]}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wavenumber") and "1e-160" in err and err.count("\n") == 1
    res = cmd_sweep(path, out_dir=str(tmp_path / "s"))
    assert res.exit_status == 1
    rows = list(csv.DictReader(Path(res.paths["sweep"]).read_text().splitlines()))
    assert [(row["error"], row["passed"]) for row in rows] == [
        ("InvalidArgumentError", ""), ("", "true")]


@pytest.mark.parametrize("k", [1e-154, 7.5e-155])
def test_wavenumber_whose_scaled_stiffness_overflows_is_an_error(tmp_path, capsys, k):
    """k^-2 is finite, but k^-2 times the stiffness of 60 elements is not:
    verify prints one error line naming the wavenumber, with no overflow
    warning, and a sweep records the error in that k's row."""
    path = write_cfg(tmp_path, {"problem": {"k": k},
                                "sweep": {"k_values": [k, 4.0], "alpha_values": [0.2]}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: wavenumber {k} ") and err.count("\n") == 1
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((tmp_path / "s" / "sweep.csv").read_text().splitlines()))
    assert [(row["error"], row["passed"]) for row in rows] == [
        ("InvalidArgumentError", ""), ("", "true")]


@pytest.mark.parametrize("dimension,domain,n,message", [
    (1, [0, 1e-320], 50, "wavenumber 10.0 on a mesh with h = 1.97626e-322 makes A or D not finite"),
    (1, [-1e308, 1e308], 50, "need lo < hi with a finite width hi - lo"),
    (2, [1e308, 1.0], 10, "wavenumber 10.0 on a mesh with h = 1e+307 makes A or D not finite"),
], ids=["subnormal_cells", "width_overflows", "long_cells"])
def test_domain_whose_arithmetic_overflows_is_an_error(tmp_path, capsys, dimension, domain, n,
                                                       message):
    """Extreme boxes printed RuntimeWarnings and then an error that blamed
    the wavenumber alone: verify prints one error line, which names the
    mesh size when the assembly fails."""
    path = write_cfg(tmp_path, {"problem": {"dimension": dimension, "k": 10.0, "domain": domain,
                                            "resolution": {"type": "elements", "n": n}}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("command,extra,nodes", [
    ("verify", {"problem": {"resolution": {"type": "elements", "n": 1e15}}}, "1.00e+15"),
    ("verify", {"problem": {"resolution": {"type": "per_k", "factor": 1e300}}}, "8.00e+300"),
    ("verify", {"problem": {"resolution": {"type": "elements", "n": 1e300}}}, "1.00e+300"),
    ("verify", {"problem": {"dimension": 2, "resolution": {"type": "elements", "n": 3e6}}},
     "9.00e+12"),
], ids=["1d_elements", "1d_per_k", "1d_elements_huge", "2d_elements"])
def test_mesh_beyond_the_superlu_index_limit_is_an_error(tmp_path, capsys, command, extra, nodes):
    """A resolution that the grammar accepts but that gives more nodes than
    SuperLU can index ended in a memory or size traceback: it is one error
    line that gives the count in short form."""
    path = write_cfg(tmp_path, extra)
    assert main([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a mesh of {nodes} nodes exceeds SuperLU's limit of 2147483647\n")


@pytest.mark.parametrize("sweep,errors,ladder", [
    ({"ladder": {"refine": 1e14}}, [""] * 6, {"ladder[k=4]": False, "ladder[k=8]": False}),
    ({"k_values": [4.0, 1e300], "resolution": {"type": "per_k", "factor": 10},
      "ladder": {"refine": 2}},
     [""] * 3 + ["InvalidArgumentError"] * 3, {"ladder[k=4]": True, "ladder[k=1e+300]": False}),
], ids=["reference_mesh", "working_mesh"])
def test_a_ladder_rung_that_cannot_be_built_fails_only_its_k(tmp_path, capsys, sweep, errors,
                                                             ladder):
    """A mesh too large to build (10 elements refined 1e14 times, 6e15
    nodes, or a k whose own mesh has 1e301 nodes) fails the ladder line of
    its k, and a working mesh its k's points too; every other line keeps
    its verdict and both files are written, as with a ladder of any other
    refinement. A check of every reference mesh before the first point
    made the whole sweep one error line instead."""
    path = write_cfg(tmp_path, {"problem": {"resolution": {"type": "elements", "n": 10}},
                                "sweep": sweep})
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [r["error"] for r in _csv_rows(out / "sweep.csv")] == errors
    verdicts = [line.split(":")[0].split() for line in captured.out.splitlines()]
    assert {name: flag == "PASS" for flag, name in verdicts
            if name.startswith("ladder[")} == ladder
    assert len(_csv_rows(out / "ladder.csv")) == sum(ladder.values())


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
    res = cmd_verify(write_cfg(tmp_path, WRONG_GARDING), out_dir=str(tmp_path / "out"))
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


@pytest.mark.parametrize("role,value", [
    ("eps", [float("nan"), 0.0]),
    ("eps", [1.0, float("inf")]),
    ("mu_inv", [float("inf"), 0.0]),
    ("eps", {"type": "step", "threshold": 0.5, "below": 1.0, "above": float("nan")}),
    ("perturbation.mu_inv", [float("nan"), 1.0]),
])
def test_non_finite_coefficient_is_an_error(tmp_path, capsys, role, value):
    """Not a singular matrix and not a PASS: the config reader rejects the
    value and names its key. The field named its role ("eps values must be
    finite"), which named the wrong section for a perturbation rule."""
    section, key = role.split(".") if "." in role else ("problem", role)
    rule = value if isinstance(value, dict) else {"type": "constant", "value": value}
    extra = {section: {key: rule}}
    if section == "perturbation":
        extra[section]["mode"] = "nearby"
    path = write_cfg(tmp_path, extra)
    where, shown = ((f"{section}.{key}.above", value["above"]) if isinstance(value, dict)
                    else (f"{section}.{key}.value", value))
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {where}: not a finite number: {shown!r}\n"


@pytest.mark.parametrize("role,rule", [
    ("mu_inv", {"type": "constant", "value": -1}),
    ("mu_inv", _step(0) | {"below": [0.0, 2.0]}),
    ("perturbation.mu_inv", {"type": "constant", "value": [-1.0, 0.0]}),
    ("perturbation.mu_inv", _step(0) | {"above": -0.5}),
], ids=["constant", "step_below", "perturbation_constant", "perturbation_step_above"])
def test_a_mu_inv_value_without_a_positive_real_part_names_its_key(tmp_path, capsys, role,
                                                                    rule):
    """ProblemSpec refused such a value without naming the section of its
    rule, after the output directory was made: the config reader names
    the key, and no directory is made."""
    section, key = role.split(".") if "." in role else ("problem", role)
    extra = {section: {key: rule}}
    if section == "perturbation":
        extra[section]["mode"] = "nearby"
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, extra), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {section}.{key} must be a rule whose values have real parts > 0, "
        f"got {rule!r}\n")
    assert not out.exists()


def test_sweep_grid_rows_and_zero_alpha(tmp_path):
    path = write_cfg(tmp_path)
    cfg = json.loads(Path(path).read_text())
    cfg["sweep"]["alpha_values"] = [0.0, 0.1, 0.3]
    Path(path).write_text(json.dumps(cfg))
    res = cmd_sweep(path, out_dir=str(tmp_path / "s"))
    assert res.exit_status == 0
    lines = Path(res.paths["sweep"]).read_text().splitlines()
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
    assert Path(r1.paths["sweep"]).read_bytes() == Path(r2.paths["sweep"]).read_bytes()


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


def test_verify_factors_beside_at_most_one_live_factor(tmp_path, live_factors):
    """verify factors A1 for the norm chains and drops it after them, then
    factors sigma I - M and M one at a time for the mass extremes, then D
    and A2: only A2's factorization runs beside another factor, D's Gram
    factor."""
    assert cmd_verify(write_cfg(tmp_path), out_dir=str(tmp_path / "v")).exit_status == 0
    assert live_factors == [0, 0, 0, 0, 1]


def test_import_factors_a1_before_a2_beside_one_live_factor(tmp_path, monkeypatch,
                                                            live_factors):
    """import certifies D and M (D's Gram factor, then sigma I - M and M),
    makes A1's C_dis and drops A1's factors, then factors A2: each
    factorization after D's runs beside D's Gram factor alone."""
    import scipy.sparse.linalg as spla

    exch = str(tmp_path / "exch")
    assert cmd_export(write_cfg(tmp_path), out_dir=exch).exit_status == 0
    factored = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    live_factors.clear()
    assert cmd_import(exch, out_dir=str(tmp_path / "i")).exit_status == 0
    assert live_factors == [0, 1, 1, 1, 1]
    A1, A2 = (read_matrix_mm(os.path.join(exch, f"{name}.mtx")) for name in ("A1", "A2"))
    assert [abs(X - A).max() for X, A in zip(factored[3:], (A1, A2))] == [0, 0]


def test_sweep_locates_each_reference_mesh_once(tmp_path, monkeypatch):
    """A 2D sweep with a ladder locates the reference mesh (6 x 6 cells
    refined twice, 288 triangles) in the working mesh once per k, for both
    coefficient fields."""
    from helmprec.mesh import Mesh

    located = []
    locate = Mesh.locate_elements

    def counting_locate(self, fine):
        located.append(fine.n_elements)
        return locate(self, fine)

    monkeypatch.setattr(Mesh, "locate_elements", counting_locate)
    path = write_cfg(tmp_path, {
        "problem": {"dimension": 2, "k": 4.0, "resolution": {"type": "elements", "n": 6}},
        "sweep": {"k_values": [4.0, 6.0], "alpha_values": [0.2],
                  "resolution": {"type": "elements", "n": 6}, "ladder": {"refine": 2}},
    })
    assert cmd_sweep(path, out_dir=str(tmp_path / "s")).exit_status == 0
    assert located == [288, 288]


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
    norms, which make no Gram-factor solve (a solve with a real factor),
    never for the mass extremes. A D-weighted operator norm makes one
    Gram-factor solve per application.
    Every operator is float64, so eigsh runs its symmetric driver: of size
    2n for a complex W (the interleaved view of complex n-vectors), and of
    size n for the real W of the mass extremes."""
    import inspect

    from conftest import rebind_everywhere

    from helmprec import numerics

    scope, pencils = [], []
    solves, applies = Counter(), Counter()
    lu_solve = numerics.LUFactor.solve
    pencil = numerics._pencil_lambda_max
    signature = inspect.signature(pencil)

    def counting_solve(self, *args, **kwargs):
        if not np.iscomplexobj(self.A):
            solves[scope[-1] if scope else None] += 1
        return lu_solve(self, *args, **kwargs)

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

    monkeypatch.setattr(numerics.LUFactor, "solve", counting_solve)
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
    lines = Path(res.paths["ladder"]).read_text().splitlines()
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


# a resolution whose meshes exceed SuperLU's index limit at every k
TOO_FINE = {"type": "per_k", "factor": 1e300}


def test_sweep_ladder_fails_the_k_whose_system_failed(tmp_path):
    """A k whose sweep system could not be built is an error row and a
    failed ladder line with no ladder entry; the sweep still writes both
    files."""
    path = write_cfg(tmp_path, {"sweep": {"alpha_values": [0.1], "ladder": {"refine": 2},
                                          "resolution": TOO_FINE}})
    out = tmp_path / "sf"
    res = cmd_sweep(path, out_dir=str(out))
    assert res.exit_status == 1
    assert all(r["error"] == "InvalidArgumentError"
               for r in _csv_rows(out / "sweep.csv"))
    assert _csv_rows(out / "ladder.csv") == []
    assert [s for s in res.summaries if s[0].startswith("ladder")] == [
        ("ladder[k=4]", False, pytest.approx(math.nan, nan_ok=True)),
        ("ladder[k=8]", False, pytest.approx(math.nan, nan_ok=True)),
    ]


def test_sweep_keeps_the_healthy_k_next_to_a_failed_one(tmp_path, capsys):
    """k = 1e-160 has no system (k^-2 overflows); k = 5 keeps its PASS
    lines and its ladder entry, and both files are written and announced."""
    path = write_cfg(tmp_path, {
        "problem": {"k": 5.0, "resolution": {"type": "elements", "n": 20}},
        "sweep": {"k_values": [1e-160, 5.0], "alpha_values": [0.1],
                  "ladder": {"refine": 2}},
    })
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "FAIL sweep[k=1e-160,alpha=0.1]", "PASS sweep[k=5,alpha=0.1]",
        "FAIL ladder[k=1e-160]", "PASS ladder[k=5]", "wrote sweep", "wrote ladder",
    ]
    assert "FAIL ladder[k=1e-160]: margin=nan" in captured.out.splitlines()
    assert [r["error"] for r in _csv_rows(out / "sweep.csv")] == ["InvalidArgumentError", ""]
    (entry,) = _csv_rows(out / "ladder.csv")
    assert (float(entry["k"]), entry["singular"]) == (5.0, "false")


def test_sweep_ladder_records_a_singular_working_rung(tmp_path, capsys, monkeypatch):
    """A working rung whose C_dis is infinite (a singular system) is a
    ladder entry with singular true and ratio nan, and a FAIL line."""
    from helmprec import cli
    from helmprec.assemble import MatrixSystem

    assemble, c_dis, made = cli.assemble_system, MatrixSystem.c_dis, []

    def recording_assemble(spec):  # the first system a sweep makes is k's own
        made.append(assemble(spec))
        return made[-1]

    monkeypatch.setattr(cli, "assemble_system", recording_assemble)
    monkeypatch.setattr(MatrixSystem, "c_dis",
                        lambda self, seed=0: math.inf if self is made[0] else c_dis(self, seed))
    path = write_cfg(tmp_path, {"sweep": {"k_values": [4.0], "alpha_values": [0.1],
                                          "ladder": {"refine": 2}}})
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out-dir", str(out)]) == 1
    assert "FAIL ladder[k=4]: margin=nan" in capsys.readouterr().out.splitlines()
    (entry,) = _csv_rows(out / "ladder.csv")
    assert (entry["singular"], entry["ratio"]) == ("true", "nan")


def test_sweep_fails_only_the_k_whose_reference_rung_failed(tmp_path, capsys):
    """On [0, 1e-5] with 20 elements, k = 0.1's reference mesh (refined 8
    times, h = 6.25e-8) rounds M out of D. That rung raised inside the
    ladder and ended the sweep with one error line, after sweep.csv was
    written, a file no line announced. It fails k = 0.1's ladder line only."""
    path = write_cfg(tmp_path, {
        "problem": {"k": 5.0, "domain": [0.0, 1e-5], "resolution": {"type": "elements", "n": 20}},
        "sweep": {"k_values": [0.1, 5.0], "alpha_values": [0.1], "ladder": {"refine": 8}},
    })
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS sweep[k=0.1,alpha=0.1]", "PASS sweep[k=5,alpha=0.1]",
        "FAIL ladder[k=0.1]", "PASS ladder[k=5]", "wrote sweep", "wrote ladder",
    ]
    assert "FAIL ladder[k=0.1]: margin=nan" in lines
    assert [float(r["k"]) for r in _csv_rows(out / "ladder.csv")] == [5.0]


# Where a sweep stage is made to fail, on the k it fails: (module whose
# assemble_system is wrapped, which of that k's calls, what fails). The cli
# assembles k's system first, then each point's A2; bounds assembles each
# reference rung. "raise" fails the assembly, "c_dis" the system's C_dis.
SWEEP_FAULTS = {
    "system": ("cli", 1, "raise"),
    "c_dis": ("cli", 1, "c_dis"),
    "A2": ("cli", 2, "raise"),
    "reference": ("bounds", 1, "raise"),
    "reference_c_dis": ("bounds", 1, "c_dis"),
}


def _inject_sweep_fault(monkeypatch, stage, bad_k):
    from helmprec import bounds, cli
    from helmprec.assemble import MatrixSystem

    name, call, what = SWEEP_FAULTS[stage]
    module = {"cli": cli, "bounds": bounds}[name]
    assemble, c_dis = module.assemble_system, MatrixSystem.c_dis
    calls, failing = Counter(), weakref.WeakSet()

    def faulty_assemble(spec):
        calls[spec.k] += 1
        hit = spec.k == bad_k and calls[spec.k] == call
        if hit and what == "raise":
            raise HelmprecError(f"injected at {stage}")
        system = assemble(spec)
        if hit:
            failing.add(system)
        return system

    def faulty_c_dis(self, seed=0):
        if self in failing:
            raise HelmprecError(f"injected at {stage}")
        return c_dis(self, seed)

    monkeypatch.setattr(module, "assemble_system", faulty_assemble)
    monkeypatch.setattr(MatrixSystem, "c_dis", faulty_c_dis)


@pytest.mark.parametrize("bad_k", [4.0, 8.0])
def test_a_sweep_never_leaves_an_unannounced_file(tmp_path, capsys, monkeypatch, bad_k):
    """Whichever stage of one k fails (its system, its C_dis, a point's A2,
    its reference assembly or its reference C_dis), every file the sweep
    writes has a wrote line, each k has one ladder line, and the other k's
    lines and ladder.csv row are those of a run without the failure."""
    path = write_cfg(tmp_path, {"sweep": {
        "k_values": [4.0, 8.0], "alpha_values": [0.1, 0.2],
        "resolution": {"type": "elements", "n": 20}, "ladder": {"refine": 2}}})
    good = 12.0 - bad_k

    def run(name):
        out = tmp_path / name
        status = main(["sweep", "--config", path, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert captured.err == "", (name, captured.err)
        ladder = [r for r in _csv_rows(out / "ladder.csv") if float(r["k"]) == good]
        lines = captured.out.splitlines()
        return status, lines, out, [line for line in lines if f"[k={good:g}" in line], ladder

    status, _, _, clean_lines, clean_ladder = run("clean")
    assert status == 0 and len(clean_lines) == 3 and len(clean_ladder) == 1
    for stage in SWEEP_FAULTS:
        with monkeypatch.context() as m:
            _inject_sweep_fault(m, stage, bad_k)
            status, lines, out, good_lines, good_ladder = run(stage)
        assert status == 1, stage
        wrote = {line.split(": ", 1)[1] for line in lines if line.startswith("wrote ")}
        assert wrote == {str(f) for f in out.iterdir()}, stage
        for k in (4.0, 8.0):
            rungs = [line for line in lines if line[5:].startswith(f"ladder[k={k:g}]")]
            assert len(rungs) == 1, (stage, k, lines)
        assert (good_lines, good_ladder) == (clean_lines, clean_ladder), stage


def test_sweep_frees_each_k_system_before_the_next(tmp_path, monkeypatch):
    """k's system, with its factors, is dead before the next k's system is
    assembled: at each assembly, only the current k's system may be alive."""
    from helmprec import bounds, cli

    made, alive = [], []

    def recording(assemble):
        def recording_assemble(spec):
            alive.append(sum(ref() is not None for ref in made))
            system = assemble(spec)
            made.append(weakref.ref(system))
            return system
        return recording_assemble

    for module in (cli, bounds):
        monkeypatch.setattr(module, "assemble_system", recording(module.assemble_system))
    path = write_cfg(tmp_path, {"sweep": {
        "k_values": [4.0, 8.0], "alpha_values": [0.1, 0.2],
        "resolution": {"type": "elements", "n": 20}, "ladder": {"refine": 2}}})
    assert cmd_sweep(path, out_dir=str(tmp_path / "s")).exit_status == 0
    # per k: its system, then each point's A2 beside it; then two reference rungs
    assert alive == [0, 1, 1, 0, 1, 1, 0, 0]


def test_sweep_alpha_growth_and_small_alpha_linearity(tmp_path):
    path = write_cfg(tmp_path, {
        "sweep": {"k_values": [10.0, 20.0], "alpha_values": [0.05, 0.1, 0.3, 1.0],
                  "resolution": {"type": "k_power", "scale": 1.0, "exponent": 1.5}},
    })
    res = cmd_sweep(path, out_dir=str(tmp_path / "sg"))
    lines = Path(res.paths["sweep"]).read_text().splitlines()
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
        # C_dis of each A2 underflows
        "perturbation": {"mode": "nearby", "eps": {"type": "constant", "value": 1e300}},
        "sweep": {"k_values": [4.0, 8.0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    res = cmd_sweep(str(path), out_dir=str(tmp_path / "sf"))
    assert res.exit_status == 1  # failures reported
    lines = Path(res.paths["sweep"]).read_text().splitlines()
    assert len(lines) == 3  # run continued through both grid points
    assert all(l.endswith(",UnderflowError") for l in lines[1:])


UNDERFLOW = {"problem": {"k": 3.0, "resolution": {"type": "elements", "n": 10}}}


@pytest.mark.parametrize("alpha", [1e300])
def test_verify_of_an_underflowing_c_dis_is_an_error(tmp_path, capsys, alpha):
    """A huge absorption makes C_dis of A2 underflow inside W: at alpha =
    1e300 W's first image is exactly 0, and verify printed FAIL
    bounds.nonsingular although A2 factors. It is one error line and exit
    status 1."""
    path = write_cfg(tmp_path, dict(UNDERFLOW, perturbation={"alpha": alpha}))
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*underflow[^\n]*\n", captured.err), captured.err


def test_a_d_that_rounded_m_away_is_an_error(tmp_path, capsys):
    """On [0, 1e-6] with 40 elements at k = 0.1, (kh)^2 = 6e-18 is below the
    unit roundoff, and every entry of D = k^-2 K + M rounded to k^-2 K:
    verify printed three FAIL norm lines, and PASSed bounds on a C_dis of
    4.89 where a 60-digit eigensolve of the same matrices gives 1.0. It is
    one error line; a sweep records that k as an error row and solves the
    next. On [0, 1e-5] with 20 elements D keeps M, and verify passes."""
    path = write_cfg(tmp_path, {
        "problem": {"k": 0.1, "domain": [0.0, 1e-6], "resolution": {"type": "elements", "n": 40}},
        "sweep": {"k_values": [0.1, 5.0], "alpha_values": [0.1]}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: wavenumber 0.1 on a mesh with h = 2.5e-08 rounds M out of D = k^-2 K + M\n")
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "s")]) == 1
    rows = _csv_rows(tmp_path / "s" / "sweep.csv")
    assert [(row["error"], row["passed"]) for row in rows] == [
        ("InvalidArgumentError", ""), ("", "true")]
    kept = write_cfg(tmp_path, {"problem": {
        "k": 0.1, "domain": [0.0, 1e-5], "resolution": {"type": "elements", "n": 20}}},
        name="kept.json")
    assert main(["verify", "--config", kept, "--out-dir", str(tmp_path / "k")]) == 0


def test_verify_estimates_a_tiny_c_dis(tmp_path, capsys):
    """At alpha = 1e100, C_dis of A2 is about 1e-98, a normal float whose
    W has images of B-norm^2 near 1e-392: the eigensolve runs on W scaled
    by a power of 2, so every line PASSes, and C_dis2 * alpha is the limit
    lambda_max(D, M) of A2 ~ -i alpha M."""
    from conftest import canonical_1d

    path = write_cfg(tmp_path, dict(UNDERFLOW, perturbation={"alpha": 1e100}))
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads((tmp_path / "v" / "bounds.json").read_text())
    s = canonical_1d(3.0, 10)
    limit = eigh(s.D.toarray(), s.M.toarray(), eigvals_only=True)[-1]
    assert report["cdis2"] * 1e100 == pytest.approx(limit, rel=1e-12)


def test_verify_estimates_a_tiny_perturbation(tmp_path):
    """lhs_D / alpha at alpha = 1e-150, where lhs_D^2 ~ 1.8e-300 is a
    normal float but the B-norm^2 of W's images is not, agrees with its
    value at alpha = 1e-20 to 1e-9. At 1e-200 and 1e-300 W applies E twice,
    and its first image underflowed to exactly 0: lhs_D and lhs_2 read 0.
    With E scaled to A2's exponent, lhs_D / alpha and lhs_2 / alpha equal
    their values at 1e-150 to 1e-12."""
    ratios = []
    for alpha in (1e-20, 1e-150, 1e-200, 1e-300):
        path = write_cfg(tmp_path, dict(UNDERFLOW, perturbation={"alpha": alpha}))
        out = tmp_path / f"v{alpha:g}"
        assert cmd_verify(path, out_dir=str(out)).exit_status == 0
        report = json.loads((out / "bounds.json").read_text())
        ratios.append((report["lhs_D"] / alpha, report["lhs_2"] / alpha))
    assert ratios[1][0] == pytest.approx(ratios[0][0], rel=1e-9)
    for lhs_D, lhs_2 in ratios[2:]:
        assert lhs_D == pytest.approx(ratios[1][0], rel=1e-12)
        assert lhs_2 == pytest.approx(ratios[1][1], rel=1e-12)


def test_verify_of_an_overflowing_absorption_is_an_error(tmp_path, capsys):
    """(1 + i alpha) eps with eps = 1e10 and alpha = 1e300 overflows: verify
    wrote a RuntimeWarning to stderr, then "eps values must be finite". It
    is one error line naming alpha and max|eps|, and no warning."""
    big = {"type": "constant", "value": [1e10, 0.0]}
    path = write_cfg(tmp_path, {"problem": dict(UNDERFLOW["problem"], eps=big),
                                "perturbation": {"alpha": 1e300}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 1
    assert capsys.readouterr().err == (
        "error: (1 + i alpha) eps overflows: alpha = 1e+300, max|eps| = 1e+10\n")


def test_verify_of_tiny_coefficients_writes_its_report(tmp_path, capsys):
    """mu^-1 = eps = 1e-80 makes C_dis about 2e81: the eigensolve's images
    overflowed the B inner product and verify ended in a RuntimeWarning;
    now it writes every report file."""
    tiny = {"type": "constant", "value": [1e-80, 0.0]}
    path = write_cfg(tmp_path, {"problem": {
        "k": 3.0, "resolution": {"type": "elements", "n": 12}, "mu_inv": tiny, "eps": tiny}})
    assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path / "v")) == [
        "bounds.csv", "bounds.json", "garding.json", "norm_equivalence.json"]


def _scaled_verify(tmp_path, dimension, j):
    """bounds.json and norm_equivalence.json of verify with a step mu^-1,
    eps and theta all multiplied by 2^j (absorption 0.3)."""
    c = 2.0 ** j
    step = {"type": "step", "axis": 0, "threshold": 0.5, "below": c, "above": 2 * c}
    path = write_cfg(tmp_path, {"problem": {
        "dimension": dimension, "k": 3.0, "theta": c,
        "resolution": {"type": "elements", "n": 12 if dimension == 1 else 6},
        "mu_inv": step, "eps": {"type": "constant", "value": c}},
        "perturbation": {"alpha": 0.3}}, name=f"cfg{dimension}_{j}.json")
    out = tmp_path / f"v{dimension}_{j}"
    cmd_verify(path, out_dir=str(out))
    return [json.loads((out / name).read_text())
            for name in ("bounds.json", "norm_equivalence.json")]


_ITEM_16 = pytest.mark.xfail(strict=True, raises=HelmprecError, reason=(
    "ROADMAP item 16: at |j| = 600 W's own products leave the float range, "
    "so verify ends in a typed error"))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("j", [pytest.param(-600, marks=_ITEM_16), -300, -100, 100, 300,
                               pytest.param(600, marks=_ITEM_16)])
def test_verify_is_covariant_under_coefficient_scaling(tmp_path, dimension, j):
    """Multiplying mu^-1, eps and theta by c = 2^j multiplies A1 and A2 by c
    exactly and leaves D and M as they are: every norm of I - A2^-1 A1, the
    rhs, mass ratio, cond and every verdict are bit-equal to those at j = 0,
    and C_dis and the solution-operator norms times c equal them exactly."""
    bounds0, norms0 = _scaled_verify(tmp_path, dimension, 0)
    bounds, norms = _scaled_verify(tmp_path, dimension, j)
    for key in ("lhs_D", "lhs_Dinv", "lhs_2", "lhs_2p", "rhs_lemma", "mass_ratio", "cond"):
        assert bounds[key] == bounds0[key], key
    for report, report0 in ((bounds, bounds0), (norms, norms0)):
        assert ([c["passed"] for c in report["checks"]]
                == [c["passed"] for c in report0["checks"]])
    for key in ("cdis1", "cdis2"):
        assert math.ldexp(bounds[key], j) == bounds0[key], key
    for key in ("h0_to_h", "h0_to_h0"):
        assert math.ldexp(norms[key], j) == norms0[key], key
    assert bounds["dmu"] == bounds0["dmu"] == 0.0
    assert math.ldexp(bounds["deps"], -j) == bounds0["deps"]
    # C_dis_2 <= 2 C_dis_1 scales with C_dis; the other checks do not move
    names = [c["name"] for c in bounds["checks"]]
    assert ("perturbed_factor2" in names) == (dimension == 2)
    for c, c0 in zip(bounds["checks"], bounds0["checks"]):
        scale = j if c["name"] == "perturbed_factor2" else 0
        for key in ("lhs", "rhs", "margin"):
            assert math.ldexp(c[key], scale) == c0[key], (c["name"], key)


def _domain_scaled_verify(tmp_path, dimension, j):
    """bounds.json without k and h, and norm_equivalence.json, of verify on
    the box times L = 2^j at k = 3/L, with a step mu^-1 0.5 | 2 whose
    threshold is 0.5 L and the element counts kept (absorption 0.3)."""
    L = 2.0 ** j
    step = {"type": "step", "axis": 0, "threshold": 0.5 * L, "below": 0.5, "above": 2.0}
    path = write_cfg(tmp_path, {"problem": {
        "dimension": dimension, "k": 3.0 / L,
        "domain": [0.0, L] if dimension == 1 else [L, L],
        "resolution": {"type": "elements", "n": 12 if dimension == 1 else 6},
        "mu_inv": step},
        "perturbation": {"alpha": 0.3}}, name=f"box{dimension}_{j}.json")
    out = tmp_path / f"box{dimension}_{j}"
    cmd_verify(path, out_dir=str(out))
    bounds, norms = (json.loads((out / name).read_text())
                     for name in ("bounds.json", "norm_equivalence.json"))
    return {key: v for key, v in bounds.items() if key not in ("k", "h")}, norms


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("j", [-300, -100, -10, 10, 100, 300])
def test_verify_is_invariant_under_domain_scaling(tmp_path, dimension, j):
    """Multiplying the box by L = 2^j and dividing k by L keeps kh and every
    coefficient, so the bound and norm-equivalence reports, but for k and
    h, are bit-identical to those at j = 0."""
    assert _domain_scaled_verify(tmp_path, dimension, j) == _domain_scaled_verify(
        tmp_path, dimension, 0)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("j", [-600, 600])
def test_a_domain_scaled_out_of_range_is_an_error(tmp_path, dimension, j):
    """At L = 2^600, k^-2 overflows; at L = 2^-600, A or D is not finite."""
    with pytest.raises(InvalidArgumentError, match="wavenumber"):
        _domain_scaled_verify(tmp_path, dimension, j)


def _mirrored_verify(tmp_path, n, sides, alpha, mirror, domain=(0.0, 2.0)):
    """(exit status, bounds.json, norm_equivalence.json) of verify in 1D on
    [a, b] = ``domain`` at k = 3, with mu^-1 0.5 | 2 at a + (b - a) / 4 and
    eps [1, 0.2] | 3 at a + 3 (b - a) / 4, or of its mirror image
    x -> a + b - x: the side tags swapped, and each step reflected to
    a + b - threshold with its values swapped."""
    a, b = domain
    mu, eps = (a + 0.25 * (b - a), 0.5, 2.0), (a + 0.75 * (b - a), [1.0, 0.2], 3.0)
    if mirror:
        sides = sides[::-1]
        mu, eps = ((a + b - thr, above, below) for thr, below, above in (mu, eps))
    step = lambda thr, below, above: {
        "type": "step", "axis": 0, "threshold": thr, "below": below, "above": above}
    path = write_cfg(tmp_path, {"problem": {
        "k": 3.0, "domain": [a, b], "resolution": {"type": "elements", "n": n},
        "boundary": dict(zip(("left", "right"), sides)), "mu_inv": step(*mu), "eps": step(*eps)},
        "perturbation": {"alpha": alpha}}, name=f"mirror{int(mirror)}.json")
    out = tmp_path / f"mirror{int(mirror)}"
    status = cmd_verify(path, out_dir=str(out)).exit_status
    return status, *(json.loads((out / name).read_text())
                     for name in ("bounds.json", "norm_equivalence.json"))


def _assert_mirror_invariant(tmp_path, n, sides, alpha, rtol, domain=(0.0, 2.0)):
    """The exit status, every verdict and every non-float are equal; every
    float of the two reports, and every check's lhs and rhs, agree to
    ``rtol`` relative, and each margin within ``rtol`` (|lhs| + |rhs|)."""
    status, *reports = _mirrored_verify(tmp_path, n, sides, alpha, False, domain)
    status_m, *mirrored = _mirrored_verify(tmp_path, n, sides, alpha, True, domain)
    assert status_m == status
    for report, report_m in zip(reports, mirrored):
        assert report.keys() == report_m.keys()
        for key, value in report.items():
            if isinstance(value, float):
                assert report_m[key] == pytest.approx(value, rel=rtol, abs=0), key
            elif key == "checks":
                for c, c_m in zip(value, report_m[key], strict=True):
                    assert (c_m["name"], c_m["passed"]) == (c["name"], c["passed"])
                    for field in ("lhs", "rhs"):
                        assert c_m[field] == pytest.approx(c[field], rel=rtol, abs=0), c
                    scale = abs(c["lhs"]) + abs(c["rhs"])
                    assert abs(c_m["margin"] - c["margin"]) <= rtol * scale, c
            else:
                assert report_m[key] == value, key
    return reports[0], mirrored[0]


@pytest.mark.parametrize("n,sides,alpha", [
    (12, ("dirichlet", "impedance"), 0.3),
    (13, ("impedance", "neumann"), 0.1),
    (40, ("dirichlet", "impedance"), 1.0),
])
def test_verify_is_invariant_under_mirroring_a_1d_problem(tmp_path, n, sides, alpha):
    """Mirroring x -> 2 - x with the coefficients and tags reverses the order
    of the unknowns: the exit status and every verdict are the same, and
    every float of the bound and norm-equivalence reports, and every
    check's lhs and rhs, agree to 1e-15 relative. A margin rhs - lhs
    carries their error: within 1e-15 (|lhs| + |rhs|), which is up to
    4.5e-15 of the margin."""
    _assert_mirror_invariant(tmp_path, n, sides, alpha, 1e-15)


@pytest.mark.parametrize("n,sides", [
    (16, ("impedance", "impedance")), (32, ("dirichlet", "impedance")),
    (37, ("impedance", "neumann")), (40, ("neumann", "impedance")),
    (53, ("impedance", "dirichlet")), (64, ("dirichlet", "neumann")),
    (128, ("impedance", "impedance")),
])
def test_verify_is_invariant_under_mirroring_an_interval_off_the_origin(tmp_path, n, sides):
    """On [-1, 2] the mirror is x -> 1 - x, and each step moves to 1 minus its
    threshold. The coefficient differences dmu and deps are bit-equal, and
    the reports agree as above to 1e-14 relative (measured at most 2.2e-15):
    the mirror solves in the reversed basis, so the invariance is not exact."""
    bounds, bounds_m = _assert_mirror_invariant(tmp_path, n, sides, 0.3, 1e-14, (-1.0, 2.0))
    assert (bounds_m["dmu"], bounds_m["deps"]) == (bounds["dmu"], bounds["deps"])


_SIDES = ("impedance", "dirichlet", "neumann")


def _tiny_config(rng):
    """A 1D config of 1-11 elements, with magnitudes drawn log-uniformly."""
    mag = lambda lo, hi: 10.0 ** rng.uniform(lo, hi)
    return {
        "problem": {
            "dimension": 1,
            "domain": [0.0, mag(-8, 8)],
            "boundary": {"left": _SIDES[rng.integers(3)], "right": _SIDES[rng.integers(3)]},
            "k": mag(-4, 4),
            "theta": mag(-3, 3),
            "resolution": {"type": "elements", "n": int(rng.integers(1, 12))},
            "mu_inv": {"type": "constant", "value": mag(-20, 20)},
            "eps": {"type": "constant", "value": [mag(-20, 20), rng.uniform() * mag(-5, 5)]},
        },
        "perturbation": {"mode": "absorption", "alpha": mag(-20, 20)},
    }


def test_a_seeded_scan_of_tiny_configs_raises_only_typed_errors(tmp_path, capsys):
    """verify on 100 drawn configs (n = 2-12 dofs, magnitudes within 10^+-20)
    ends in exit status 0 or 1, or in one error line, and never raises
    outside HelmprecError or warns (tier-1 turns warnings into errors). At
    this seed the dense eigh that served n <= 8 raised LinAlgError on 5
    draws. Two passes over the draws end each draw alike: ARPACK's restart
    vectors come from the seeded generator of its start vector."""
    rng = np.random.default_rng(27)
    cfgs = [_tiny_config(rng) for _ in range(100)]
    path, out = tmp_path / "cfg.json", str(tmp_path / "v")
    passes = []
    for _ in range(2):
        outcomes = []
        for draw, cfg in enumerate(cfgs):
            path.write_text(json.dumps(cfg))
            status = main(["verify", "--config", str(path), "--out-dir", out])
            err = capsys.readouterr().err
            assert status in (0, 1), (draw, cfg)
            assert err == "" or (status == 1 and re.fullmatch(r"error: [^\n]*\n", err)), (
                draw, err)
            outcomes.append((status, err))
        passes.append(outcomes)
    for draw, (first, second) in enumerate(zip(*passes)):
        assert first == second, (draw, cfgs[draw])


def test_sweep_records_an_underflowing_c_dis_in_its_row(tmp_path, capsys):
    path = write_cfg(tmp_path, dict(UNDERFLOW, sweep={"k_values": [3.0],
                                                      "alpha_values": [0.1, 1e300]}))
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "PASS sweep[k=3,alpha=0.1]: margin=0.000000e+00" in out
    assert "FAIL sweep[k=3,alpha=1e+300]: margin=nan" in out
    with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["", "UnderflowError"]


def test_singular_sweep_row_is_a_failure(tmp_path, capsys, monkeypatch):
    """A point whose perturbed system is singular fails, as it does in
    verify (``bounds.nonsingular``): the row prints FAIL and the exit
    status is 1."""
    from helmprec import cli
    from helmprec.bounds import BoundReport

    def singular_report(sys1, sys2, seed, alpha):
        nan = math.nan
        return BoundReport(
            k=sys1.spec.k, h=sys1.spec.mesh.h, alpha=alpha, n=sys1.n, dmu=0.0, deps=0.0,
            cdis1=nan, cdis2=math.inf, mass_ratio=nan, lhs_D=nan, lhs_Dinv=nan, lhs_2=nan,
            lhs_2p=nan, rhs_lemma=math.inf, rhs_lemma2=None, cond=nan, checks=())

    monkeypatch.setattr(cli, "nearby_bound_report", singular_report)
    path = write_cfg(tmp_path, {"sweep": {"k_values": [4.0], "alpha_values": [0.1]}})
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL sweep[k=4,alpha=0.1].nonsingular: margin=nan" in out


def test_export_import_roundtrip_matches(tmp_path):
    cfg_path = write_cfg(tmp_path)
    exch = str(tmp_path / "exch")
    res = cmd_export(cfg_path, out_dir=exch)
    assert res.exit_status == 0
    res_v = cmd_verify(cfg_path, out_dir=str(tmp_path / "v"))
    res_i = cmd_import(exch, out_dir=str(tmp_path / "i"))
    assert res_i.exit_status == 0
    a = json.loads(Path(res_v.paths["bounds"]).read_text())
    b = json.loads(Path(res_i.paths["bounds"]).read_text())
    for key in ("dmu", "deps", "cdis1", "cdis2", "lhs_D", "lhs_2", "rhs_lemma"):
        assert a[key] == b[key], key


def test_import_of_a_non_symmetric_a1_estimates_all_four_norms(tmp_path, capsys):
    """An A1 made non-symmetric by one entry has no twin identities: the
    import estimates lhs_Dinv and lhs_2p through A2's LU factors, and all
    four left-hand sides agree with the dense oracles."""
    from conftest import oracle_weighted_norm
    from helmprec.io import write_matrix_mm

    exch = tmp_path / "exch"
    assert cmd_export(write_cfg(tmp_path), out_dir=str(exch)).exit_status == 0
    A1 = read_matrix_mm(str(exch / "A1.mtx")).tolil()
    A1[3, 4] += 0.05
    write_matrix_mm(str(exch / "A1.mtx"), A1.tocsr())
    capsys.readouterr()
    assert main(["import", "--dir", str(exch), "--out-dir", str(tmp_path / "i")]) == 0
    report = json.loads((tmp_path / "i" / "bounds.json").read_text())
    A1d, A2d = A1.toarray(), read_matrix_mm(str(exch / "A2.mtx")).toarray()
    D = read_matrix_mm(str(exch / "D.mtx")).real
    left = np.eye(len(A1d)) - np.linalg.solve(A2d, A1d)
    right = np.eye(len(A1d)) - A1d @ np.linalg.inv(A2d)
    for key, C, mode in (("lhs_D", left, "D"), ("lhs_Dinv", right, "D_inv"),
                         ("lhs_2", left, "euclid"), ("lhs_2p", right, "euclid")):
        assert report[key] == pytest.approx(oracle_weighted_norm(C, D, mode), rel=1e-8), key
    assert report["lhs_Dinv"] != report["lhs_D"]


def test_singular_import_writes_its_norms_as_floats(tmp_path, capsys):
    """An imported pair whose A2 is singular writes the integer norms of its
    meta.json, 0 and 1, as 0.0 and 1.0, as a nonsingular pair does."""
    from helmprec.io import write_matrix_mm

    pair = tmp_path / "pair"
    assert cmd_export(write_cfg(tmp_path), out_dir=str(pair)).exit_status == 0
    A2 = read_matrix_mm(str(pair / "A2.mtx")).tolil()
    A2[0, :] = 0
    write_matrix_mm(str(pair / "A2.mtx"), A2.tocsr())
    (pair / "meta.json").write_text('{"dmu": 0, "deps": 1}')
    assert main(["import", "--dir", str(pair)]) == 1
    assert "FAIL bounds.nonsingular: margin=nan" in capsys.readouterr().out.splitlines()
    report = json.loads((pair / "bounds.json").read_text())
    assert [(report[key], type(report[key])) for key in ("dmu", "deps")] == [
        (0.0, float), (1.0, float)]
    (row,) = _csv_rows(pair / "bounds.csv")
    assert (row["dmu"], row["deps"]) == ("0.0", "1.0")


def test_report_layout_is_the_bench_references(tmp_path):
    """verify's report files have the key order of the committed benchmark
    references, every check included, and verify's and sweep's CSV files
    their headers; the benchmark compares key sets only."""
    from conftest import BENCH

    ref = Path(BENCH, "reference")
    path = write_cfg(tmp_path, {"sweep": {"k_values": [4.0], "alpha_values": [0.2],
                                          "ladder": {"refine": 2}}})
    cmd_verify(path, out_dir=str(tmp_path / "verify2d"))
    cmd_sweep(path, out_dir=str(tmp_path / "sweep2d"))
    for name in ("bounds.json", "garding.json", "norm_equivalence.json"):
        ours = json.loads((tmp_path / "verify2d" / name).read_text())
        theirs = json.loads((ref / "verify2d" / name).read_text())
        assert list(ours) == list(theirs), name
        for check in ours.get("checks", []):
            assert list(check) == list(theirs["checks"][0]), name
    for workload, name in (("verify2d", "bounds.csv"), ("sweep2d", "sweep.csv"),
                           ("sweep2d", "ladder.csv")):
        header = [(d / workload / name).read_text().split("\n")[0]
                  for d in (tmp_path, ref)]
        assert header[0] == header[1], name


@pytest.mark.parametrize("perm_seed", [1, 2, 3])
def test_import_is_invariant_under_a_permutation_of_the_unknowns(tmp_path, perm_seed):
    """P A1 P^T, P A2 P^T, P D P^T and P M P^T for one random permutation P
    have the norms of the exported pair: every float of the imported
    bounds.json agrees to 1e-15 relative, and every verdict is the same
    (2D, 20 x 20 cells, step mu^-1, n = 441)."""
    from helmprec.assemble import MatrixSystem
    from helmprec.io import read_matrix_exchange, write_matrix_exchange

    cfg_path = write_cfg(tmp_path, {
        "problem": dict(PLANE, resolution={"type": "elements", "n": 20}, mu_inv=_step(0)),
        "perturbation": {"alpha": 0.3}})
    exch, perm_exch = str(tmp_path / "exch"), str(tmp_path / "perm")
    cmd_export(cfg_path, out_dir=exch)
    sys1, sys2, norms = read_matrix_exchange(exch)
    assert sys1.n == 441
    p = np.random.default_rng(perm_seed).permutation(sys1.n)
    D, M = (X[p][:, p] for X in (sys1.D, sys1.M))
    write_matrix_exchange(MatrixSystem(sys1.A[p][:, p], D, M),
                          MatrixSystem(sys2.A[p][:, p], D, M), perm_exch, *norms)
    reports = [json.loads(Path(cmd_import(d, out_dir=d + "_i").paths["bounds"]).read_text())
               for d in (exch, perm_exch)]
    base, permuted = reports
    assert base.keys() == permuted.keys()
    for key, value in base.items():
        if isinstance(value, float):
            assert permuted[key] == pytest.approx(value, rel=1e-15, abs=0), key
        elif key == "checks":
            for c, c0 in zip(permuted[key], value):
                assert c["name"] == c0["name"] and c["passed"] == c0["passed"]
                for field in ("lhs", "rhs"):
                    assert c[field] == pytest.approx(c0[field], rel=1e-15, abs=0), c["name"]
        else:
            assert permuted[key] == value, key


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

    n = json.loads(Path(os.path.join(exch, "meta.json")).read_text()) and 60
    bad = sp.diags([-1.0] * 61).tocsr().astype(complex)
    write_matrix_mm(os.path.join(exch, "D.mtx"), bad, "hermitian")
    with pytest.raises(InvalidSystemError, match="D"):
        cmd_import(exch)

    # D is read as a real matrix only when it is one: a Hermitian D with a
    # nonzero imaginary part is refused by the reader, which names its file
    cmd_export(cfg_path, out_dir=exch)
    D = read_matrix_mm(os.path.join(exch, "D.mtx"))
    D = D + 1e-15j * (sp.triu(D, 1) - sp.tril(D, -1))
    write_matrix_mm(os.path.join(exch, "D.mtx"), D, "hermitian")
    with pytest.raises(MatrixExchangeError, match="D.mtx: matrix has a nonzero imaginary part"):
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
    with pytest.raises(InvalidSystemError, match="matrix M is not symmetric positive definite"):
        cmd_import(exch, out_dir=str(tmp_path / "i"))
    assert _factor_kinds(splu_calls) == {"f": 3}  # D, sigma I - M, M
    assert not os.path.exists(os.path.join(tmp_path, "i", "bounds.json"))


def test_import_refuses_a_bad_norm_before_factoring_a(tmp_path, splu_calls):
    """A bad coefficient-difference norm in meta.json is refused before
    anything is factored: not A1 or A2, and not D, sigma I - M or M."""
    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    Path(exch, "meta.json").write_text('{"dmu": Infinity, "deps": 0.2}')
    splu_calls.clear()
    with pytest.raises(MatrixExchangeError,
                       match="meta.json: dmu must be a finite number >= 0, got inf"):
        cmd_import(exch, out_dir=str(tmp_path / "i"))
    assert splu_calls == []


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
    assert captured.err == f"error: {exch / 'A1.mtx'}: matrix is 0x0, not square and non-empty\n"


def test_import_of_a_matrix_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    """An exported A2.mtx with a trailing byte that is not UTF-8 is one
    error line, not a traceback."""
    exch = tmp_path / "exch"
    cmd_export(write_cfg(tmp_path), out_dir=str(exch))
    a2 = exch / "A2.mtx"
    a2.write_bytes(a2.read_bytes() + b"\xff")
    with pytest.raises(MatrixExchangeError, match="A2.mtx: not UTF-8 text"):
        read_matrix_mm(str(a2))
    assert main(["import", "--dir", str(exch)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {a2}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name,entry,value", [
    ("A1", (5, 6), math.nan), ("A1", (5, 6), math.inf), ("A2", (5, 5), math.inf),
    ("A2", (5, 5), math.nan), ("D", (6, 5), math.nan),
])
def test_import_of_a_non_finite_entry_is_an_error(tmp_path, capsys, name, entry, value):
    """A non-finite entry ended in an ARPACK traceback, a FAIL line or a
    'not Hermitian' error: the reader refuses it at its line."""
    from helmprec.io import write_matrix_mm

    exch = tmp_path / "exch"
    cmd_export(write_cfg(tmp_path, {"problem": {"k": 10.0}, "perturbation": {"alpha": 0.3}}),
               out_dir=str(exch))
    path = exch / f"{name}.mtx"
    X = read_matrix_mm(str(path)).tolil()
    X[entry] = value
    write_matrix_mm(str(path), X, "hermitian" if name == "D" else "general")
    capsys.readouterr()
    assert main(["import", "--dir", str(exch), "--out-dir", str(tmp_path / "i")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    i, j = entry[0] + 1, entry[1] + 1
    match = re.fullmatch(rf"error: {re.escape(str(path))}: line (\d+): index \({i}, {j}\) "
                         r"has a value that is not finite\n", captured.err)
    assert match, captured.err
    line = path.read_text().splitlines()[int(match.group(1)) - 1]
    assert line.startswith(f"{i} {j} ")


def test_import_takes_its_norms_from_meta_json(tmp_path, capsys):
    """export writes both coefficient-difference norms into meta.json, the
    only place import reads them from; import takes no norm flags."""
    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    meta_path = os.path.join(exch, "meta.json")
    meta = json.loads(Path(meta_path).read_text())
    assert meta == {"dmu": 0.0, "deps": pytest.approx(0.2, rel=1e-15)}

    def bounds(directory):
        return json.loads(Path(os.path.join(directory, "bounds.json")).read_text())

    cmd_import(exch, out_dir=str(tmp_path / "m"))
    assert (bounds(tmp_path / "m")["dmu"], bounds(tmp_path / "m")["deps"]) == (
        meta["dmu"], meta["deps"])
    Path(meta_path).write_text('{"dmu": 0.1, "deps": 0.5}')
    cmd_import(exch, out_dir=str(tmp_path / "e"))
    assert (bounds(tmp_path / "e")["dmu"], bounds(tmp_path / "e")["deps"]) == (0.1, 0.5)

    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["import", "--help"])
    help_text = capsys.readouterr().out
    assert "--dir" in help_text and "--dmu" not in help_text and "--deps" not in help_text
    with pytest.raises(SystemExit):
        main(["import", "--dir", exch, "--dmu", "0.1"])
    assert "unrecognized arguments: --dmu 0.1" in capsys.readouterr().err


@pytest.mark.parametrize("meta,message", [
    ('{"dmu": Infinity, "deps": 0.2}', "dmu must be a finite number >= 0, got inf"),
    ('{"dmu": -5, "deps": 0.2}', "dmu must be a finite number >= 0, got -5"),
    ('{"dmu": 0.0, "deps": NaN}', "deps must be a finite number >= 0, got nan"),
    ('{"dmu": 0.0}', "deps must be a finite number >= 0, got None"),
    ('{"dmu": "0", "deps": 0.2}', "dmu must be a finite number >= 0, got '0'"),
    ('{"dmu": true, "deps": 0.2}', "dmu must be a finite number >= 0, got True"),
    ('{"dmu": 0.0, "deps": ', "meta.json: Expecting value"),
    ("[0.0, 0.2]", "meta.json: not a JSON object"),
    (None, "meta.json: not found"),
], ids=["meta_inf", "meta_negative", "meta_nan", "meta_missing_norm", "meta_string",
        "meta_bool", "meta_not_json", "meta_list", "meta_missing"])
def test_import_rejects_a_bad_norm(tmp_path, capsys, meta, message):
    """An infinite coefficient-difference norm passed the nearby checks, a
    negative one emitted the small-cond checks, and a malformed meta.json
    ended in a traceback: each, and a missing norm or meta.json, is one
    error line and exit status 1."""
    exch = str(tmp_path / "exch")
    cmd_export(write_cfg(tmp_path), out_dir=exch)
    if meta is None:
        os.remove(os.path.join(exch, "meta.json"))
    else:
        with open(os.path.join(exch, "meta.json"), "w") as fh:
            fh.write(meta)
    capsys.readouterr()
    out = str(tmp_path / "i")
    assert main(["import", "--dir", exch, "--out-dir", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {os.path.join(exch, 'meta.json')}: ")
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not os.path.exists(out)


def test_sweep_point_records_a_failed_k_without_growing_its_traceback(tmp_path):
    """The error that k's system build raised is recorded in each alpha's
    row as it is: its traceback gains no frame per alpha."""
    import traceback

    from helmprec.cli import ScenarioResult, _sweep_point

    try:
        raise InvalidArgumentError("k's system")
    except InvalidArgumentError as exc:
        error = exc
    cfg = load_config(write_cfg(tmp_path))
    result = ScenarioResult()
    rows = [_sweep_point(cfg, error, 8.0, alpha, 0, result) for alpha in (0.1, 0.2, 0.4)]
    assert len(traceback.extract_tb(error.__traceback__)) == 1  # its own raise only
    assert [row["error"] for row in rows] == ["InvalidArgumentError"] * 3
    assert [passed for _, passed, _ in result.summaries] == [False] * 3


def test_sweep_first_system_failure_fills_each_row_of_its_k(tmp_path):
    """k's first system is built once; when that fails, every alpha of
    that k gets the error row and the run continues."""
    path = write_cfg(tmp_path, {"sweep": {"alpha_values": [0.1, 0.2], "resolution": TOO_FINE}})
    res = cmd_sweep(path, out_dir=str(tmp_path / "sf"))
    assert res.exit_status == 1
    lines = Path(res.paths["sweep"]).read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert all(l.endswith("InvalidArgumentError") for l in lines[1:])


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


def test_each_commands_flags_are_its_functions_parameters():
    """main calls cmd_<command>(**args): each command's flags are exactly
    the parameters of its function, so no parameter is out of the command
    line's reach."""
    from helmprec import cli

    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        flags = {action.dest for action in sub._actions} - {"help"}
        assert flags == set(inspect.signature(getattr(cli, f"cmd_{name}")).parameters), name


def test_readme_config_example_reads():
    """The README's example config is read as written, every key it sets
    kept as set."""
    from helmprec.io import read_config

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = re.search(r"A minimal config\..*?```json\n(.*?)```", readme, re.S).group(1)
    cfg, written = read_config(text), json.loads(text)
    for section, keys in written.items():
        assert {key: cfg[section][key] for key in keys} == keys, section


def test_readme_library_sketch_runs(capsys):
    """The README's library sketch runs as written against the package."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].passed
    assert namespace["trace"].converged
    assert capsys.readouterr().out.startswith(f"{namespace['report'].contraction} True\n")
