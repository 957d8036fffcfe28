import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import canonical_1d, canonical_spec_1d, working_rung

from helmprec.assemble import assemble_system
from helmprec.bounds import absorption_report, garding_check, infsup_ladder, InfSupLadder
from helmprec.coeffs import absorption_shift
from helmprec.errors import ConfigError, InvalidArgumentError, MatrixExchangeError
from helmprec.io import (
    build_problem,
    read_config,
    read_matrix_exchange,
    read_matrix_mm,
    resolution_elements,
    write_matrix_exchange,
    write_matrix_mm,
    write_report,
)

MINIMAL = '{"problem": {"dimension": 1, "k": 10.0}}'


def test_minimal_config_defaults():
    cfg = read_config(MINIMAL)
    assert cfg.problem["domain"] == [0.0, 1.0]
    assert cfg.problem["boundary"] == {"left": "impedance", "right": "impedance"}
    assert cfg.problem["theta"] == 1.0
    assert cfg.perturbation["mode"] == "absorption"
    assert cfg.sweep["k_values"] == [10.0]
    assert cfg.solver["tol"] == 1e-8
    assert cfg.seed == 0


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="alpa"):
        read_config('{"problem": {"dimension": 1, "k": 1}, "perturbation": {"alpa": 0.3}}')


def test_missing_mandatory_named():
    with pytest.raises(ConfigError, match="problem.k"):
        read_config('{"problem": {"dimension": 1}}')
    with pytest.raises(ConfigError, match="problem"):
        read_config("{}")


# Every rule type but elements (the verify2d workload has it) and pml (a 1D
# rule, in PML_RULE), and the keys whose defaults are filled in.
EVERY_RULE = json.dumps({
    "problem": {"dimension": 2, "k": 6, "domain": [2, 1], "boundary": {"left": "dirichlet"},
                "resolution": {"type": "k_power", "exponent": 1.5},
                "mu_inv": {"type": "step", "axis": 1, "threshold": 0.5, "below": 1,
                           "above": [2, 0.5]},
                "garding": {"c_g1": 1, "c_g2": 2}},
    "perturbation": {"mode": "nearby", "eps": {"type": "constant", "value": 3}},
    "sweep": {"resolution": {"type": "per_k", "factor": 3}, "ladder": {}},
})
PML_RULE = json.dumps({
    "problem": {"dimension": 1, "k": 6, "domain": [-1, 1]},
    "perturbation": {"mode": "nearby", "eps": {"type": "pml", "start": 0.5, "sigma0": 3}},
})


def test_config_roundtrip_identity():
    """Re-reading the JSON dump of a config's data gives the same data: for
    the minimal config, every rule type and the benchmark workloads."""
    workloads = sorted(Path(__file__).parents[1].glob("bench/workloads/*.json"))
    assert len(workloads) == 3
    for text in [MINIMAL, EVERY_RULE, PML_RULE] + [p.read_text() for p in workloads]:
        cfg = read_config(text)
        assert read_config(json.dumps(cfg.data)).data == cfg.data
    every = read_config(EVERY_RULE).data
    assert every["problem"]["resolution"]["scale"] == 1.0
    assert every["perturbation"]["mu_inv"] is None
    assert every["sweep"]["ladder"] == {"refine": 4}


def test_integer_keys_take_integral_numbers():
    """1e3 and 3.0 are integers; fractions and booleans are ConfigErrors
    (test_cli's malformed-config cases)."""
    cfg = read_config('{"problem": {"dimension": 1, "k": 1}, "seed": 3.0, '
                      '"solver": {"garding_samples": 1e3}}')
    assert cfg.seed == 3 and type(cfg.seed) is int
    assert cfg.solver["garding_samples"] == 1000


def test_coefficient_values_take_numbers_and_pairs():
    """A coefficient value is a JSON number or a [re, im] pair of them;
    strings and booleans are ConfigErrors (test_cli's malformed cases)."""
    cfg = read_config('{"problem": {"dimension": 1, "k": 1, "mu_inv": {"type": "constant", '
                      '"value": 2}, "eps": {"type": "constant", "value": [3, -0.5]}, '
                      '"resolution": {"type": "elements", "n": 30.0}}}')
    spec = build_problem(cfg)
    assert spec.mesh.n_elements == 30
    assert np.all(spec.mu_inv.values == 2) and np.all(spec.eps.values == 3 - 0.5j)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN", "Infinity", "true"])
def test_float_keys_take_finite_numbers(literal):
    """An overflowing literal parses to inf and true to 1: both are
    ConfigErrors rather than k = inf or k = 1 (test_cli has the other keys)."""
    with pytest.raises(ConfigError, match="problem.k"):
        read_config(f'{{"problem": {{"dimension": 1, "k": {literal}}}}}')


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        read_config('{"problem": {"dimension": 3, "k": 1}}')
    with pytest.raises(ConfigError):
        read_config('{"problem": {"dimension": 1, "k": 1, "boundary": {"up": "impedance"}}}')
    with pytest.raises(ConfigError):
        read_config('{"problem": {"dimension": 1, "k": 1}, "perturbation": {"mode": "weird"}}')
    with pytest.raises(ConfigError):
        read_config('{"problem": {"dimension": 1, "k": 1}, "sweep": {"k_values": []}}')
    with pytest.raises(ConfigError):
        read_config('{"problem": {"dimension": 1, "k": 1}, "perturbation": {"mode": "nearby"}}')
    with pytest.raises(ConfigError, match="alpha_values"):
        read_config('{"problem": {"dimension": 1, "k": 1}, "sweep": {"alpha_values": [0.1, -0.3]}}')
    for key, value in (("garding_samples", 0), ("garding_samples", -5), ("max_it", 0),
                       ("tol", -1), ("tol", 0), ("tol", "nan")):
        with pytest.raises(ConfigError, match=f"solver.{key}"):
            read_config('{"problem": {"dimension": 1, "k": 1}, '
                        f'"solver": {{"{key}": {json.dumps(value)}}}}}')
    with pytest.raises(ConfigError):
        read_config("not json")
    with pytest.raises(ConfigError, match="schema_version"):
        read_config('{"schema_version": 99, "problem": {"dimension": 1, "k": 1}}')


def test_resolution_rules():
    assert resolution_elements({"type": "elements", "n": 17}, 5.0, 1.0) == 17
    assert resolution_elements({"type": "per_k", "factor": 10}, 5.0, 1.0) == 50
    n = resolution_elements({"type": "k_power", "scale": 1.0, "exponent": 1.5}, 4.0, 1.0)
    assert n == 8  # ceil(1 / 4^{-1.5}) = 8
    assert resolution_elements({"type": "elements", "n": 17}, 5.0, 2.0) == 17


def test_per_k_resolution_is_per_unit_length():
    """per_k gives factor * k elements per unit length on every axis, so the
    cells of a non-square domain stay square and a longer interval gets
    proportionally more elements."""
    cfg = read_config(
        '{"problem": {"dimension": 2, "k": 4.0, "domain": [2.0, 1.0], '
        '"resolution": {"type": "per_k", "factor": 3}}}'
    )
    mesh = build_problem(cfg).mesh
    assert mesh.n_nodes == 25 * 13 == 325
    for axis, cells in ((0, 24), (1, 12)):
        lines = np.unique(mesh.coords[:, axis])
        assert len(lines) == cells + 1
        assert np.allclose(np.diff(lines), 1 / 12, rtol=1e-12, atol=0)
    cfg1d = read_config(
        '{"problem": {"dimension": 1, "k": 5.0, "domain": [0.0, 2.0], '
        '"resolution": {"type": "per_k", "factor": 10}}}'
    )
    assert build_problem(cfg1d).mesh.n_elements == 100


def test_build_problem_and_fields():
    cfg = read_config(
        '{"problem": {"dimension": 1, "k": 4.0, '
        '"resolution": {"type": "elements", "n": 8}, '
        '"eps": {"type": "step", "axis": 0, "threshold": 0.5, '
        '"below": [1.0, 0.0], "above": [2.0, 0.0]}}}'
    )
    spec = build_problem(cfg)
    assert spec.mesh.n_elements == 8
    assert np.allclose(spec.eps.values[:4], 1.0)
    assert np.allclose(spec.eps.values[4:], 2.0)
    cfg2d = read_config(
        '{"problem": {"dimension": 2, "k": 2.0, '
        '"resolution": {"type": "elements", "n": 3}}}'
    )
    spec2 = build_problem(cfg2d)
    assert spec2.mesh.dimension == 2
    assert spec2.mesh.n_elements == 18


def test_pml_rule():
    cfg = read_config(
        '{"problem": {"dimension": 1, "k": 5.0, "domain": [0.0, 2.0], '
        '"resolution": {"type": "elements", "n": 10}, '
        '"mu_inv": {"type": "pml", "start": 1.0, "sigma0": 5.0}, '
        '"eps": {"type": "pml", "start": 1.0, "sigma0": 5.0}}}'
    )
    spec = build_problem(cfg)
    assert np.allclose(spec.mu_inv.values * spec.eps.values, 1.0)
    x = spec.mesh.element_centroids()[:, 0]
    assert np.all(spec.eps.values[x <= 1.0] == 1.0)
    assert np.all(spec.eps.values[x > 1.0].imag > 0)


def test_matrix_mm_roundtrip_exact(tmp_path, rng):
    n = 12
    X = sp.random(n, n, density=0.3, random_state=7, dtype=float).tocsr()
    X = (X + 1j * sp.random(n, n, density=0.3, random_state=8, dtype=float)).tocsr()
    path = tmp_path / "x.mtx"
    write_matrix_mm(str(path), X, "general")
    Y = read_matrix_mm(str(path))
    assert (abs(X - Y)).max() == 0.0  # bit-exact round trip


def test_matrix_mm_hermitian_roundtrip(tmp_path):
    D = canonical_1d(3.0, 6).D.astype(complex)
    path = tmp_path / "d.mtx"
    write_matrix_mm(str(path), D, "hermitian")
    text = path.read_text()
    assert "hermitian" in text.splitlines()[0]
    Y = read_matrix_mm(str(path))
    assert (abs(D - Y)).max() == 0.0


def test_matrix_mm_parse_errors(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
    with pytest.raises(MatrixExchangeError, match="line 1"):
        read_matrix_mm(str(p))
    p.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 1\n3 1 1.0 0.0\n")
    with pytest.raises(MatrixExchangeError, match="line 3"):
        read_matrix_mm(str(p))
    p.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 1\n0 1 1.0 0.0\n")
    with pytest.raises(MatrixExchangeError, match="1-based"):
        read_matrix_mm(str(p))
    p.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 0.0\n")
    with pytest.raises(MatrixExchangeError, match="expected 2 entries"):
        read_matrix_mm(str(p))
    p.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0\n")
    with pytest.raises(MatrixExchangeError, match="line 3"):
        read_matrix_mm(str(p))
    p.write_text("garbage\n")
    with pytest.raises(MatrixExchangeError, match="line 1"):
        read_matrix_mm(str(p))
    p.write_text("%%MatrixMarket matrix coordinate complex general\n-2 -2 0\n")
    with pytest.raises(MatrixExchangeError, match="line 2: size line must not be negative"):
        read_matrix_mm(str(p))


def test_matrix_exchange_dir_roundtrip(tmp_path):
    spec = canonical_spec_1d(6.0, 15)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.25)))
    d = tmp_path / "exch"
    paths = write_matrix_exchange(s1, s2, str(d), dmu=0.0, deps=0.25)
    assert set(paths) == {"A1.mtx", "A2.mtx", "D.mtx", "M.mtx", "meta.json"}
    b1, b2, meta = read_matrix_exchange(
        paths["A1.mtx"], paths["A2.mtx"], paths["D.mtx"], paths["M.mtx"]
    )
    assert (abs(b1.A - s1.A)).max() == 0.0
    assert (abs(b2.A - s2.A)).max() == 0.0
    assert (abs(b1.D - s1.D)).max() == 0.0
    assert b2.D is b1.D and b2.M is b1.M
    assert b1.D.dtype == b1.M.dtype == np.float64  # read as the real matrices they are
    assert meta == {"dmu": 0.0, "deps": 0.25}
    with pytest.raises(MatrixExchangeError, match="D"):
        read_matrix_exchange(paths["A1.mtx"], paths["A2.mtx"],
                             str(tmp_path / "missing.mtx"), paths["M.mtx"])


def test_bound_report_serialization(tmp_path):
    rep = absorption_report(canonical_1d(5.0, 30), 0.2)
    jpath = write_report(rep, str(tmp_path / "r.json"), "json")
    data = json.loads(open(jpath).read())
    assert data["alpha"] == 0.2
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"nearby_D", "nearby_Dinv"}
    cpath = write_report(rep, str(tmp_path / "r.csv"), "csv")
    lines = open(cpath).read().splitlines()
    assert lines[0].startswith("k,h,alpha,n,dmu,deps")
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["alpha"]) == 0.2
    assert row["passed"] == "true"


def test_trace_and_ladder_serialization(tmp_path):
    rung = working_rung(canonical_spec_1d(10.0, 10))
    ladder = infsup_ladder([rung], 4)
    lpath = write_report(ladder, str(tmp_path / "l.csv"), "csv")
    lines = open(lpath).read().splitlines()
    assert lines[0].startswith("k,h,h_ref")
    assert len(lines) == 2

    empty = InfSupLadder(())
    epath = write_report(empty, str(tmp_path / "e.csv"), "csv")
    assert open(epath).read().splitlines() == [
        "k,h,h_ref,n,n_ref,gamma,gamma_ref,ratio,singular"
    ]


def test_report_determinism(tmp_path):
    rep = garding_check(canonical_1d(4.0, 12), n_samples=50, seed=5)
    p1 = write_report(rep, str(tmp_path / "a.json"), "json")
    p2 = write_report(rep, str(tmp_path / "b.json"), "json")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    rep2 = garding_check(canonical_1d(4.0, 12), n_samples=50, seed=5)
    p3 = write_report(rep2, str(tmp_path / "c.json"), "json")
    assert open(p1, "rb").read() == open(p3, "rb").read()


def test_write_report_rejects_unknown(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_report(object(), str(tmp_path / "x.json"), "json")
    rep = garding_check(canonical_1d(4.0, 12), n_samples=10)
    with pytest.raises(InvalidArgumentError):
        write_report(rep, str(tmp_path / "x.yaml"), "yaml")
    # only the forms a command writes
    with pytest.raises(InvalidArgumentError):
        write_report(rep, str(tmp_path / "x.csv"), "csv")
    with pytest.raises(InvalidArgumentError):
        write_report(InfSupLadder(()), str(tmp_path / "x.json"), "json")
