import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CANONICAL_GARDING, canonical_1d, canonical_spec_1d, working_rung

from helmprec.assemble import assemble_system
from helmprec.bounds import garding_check, infsup_ladder, InfSupLadder, nearby_bound_report
from helmprec.coeffs import absorption_shift
from helmprec.errors import ConfigError, InvalidArgumentError, MatrixExchangeError
from helmprec.io import (
    _CONFIG,
    build_problem,
    point_name,
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
    assert cfg["problem"]["domain"] == [0.0, 1.0]
    assert cfg["problem"]["boundary"] == {"left": "impedance", "right": "impedance"}
    assert cfg["problem"]["theta"] == 1.0
    assert cfg["perturbation"]["mode"] == "absorption"
    assert cfg["sweep"]["k_values"] == [10.0]
    assert set(cfg) == {"schema_version", "problem", "perturbation", "sweep"}


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
    """Re-reading the JSON dump of a config gives the same config: for
    the minimal config, every rule type and the benchmark workloads."""
    workloads = sorted(Path(__file__).parents[1].glob("bench/workloads/*.json"))
    assert len(workloads) == 3
    for text in [MINIMAL, EVERY_RULE, PML_RULE] + [p.read_text() for p in workloads]:
        cfg = read_config(text)
        assert read_config(json.dumps(cfg)) == cfg
    every = read_config(EVERY_RULE)
    assert every["problem"]["resolution"]["scale"] == 1.0
    assert every["perturbation"]["mu_inv"] is None
    assert every["sweep"]["ladder"] == {"refine": 4}


def test_integer_keys_take_integral_numbers():
    """1e3 and 3.0 are integers; fractions and booleans are ConfigErrors
    (test_cli's malformed-config cases)."""
    cfg = read_config('{"problem": {"dimension": 1, "k": 1, "resolution": '
                      '{"type": "elements", "n": 1e3}}, "schema_version": 1.0}')
    assert cfg["schema_version"] == 1 and type(cfg["schema_version"]) is int
    n = cfg["problem"]["resolution"]["n"]
    assert n == 1000 and type(n) is int


def test_coefficient_values_take_numbers_and_pairs():
    """A coefficient value is a JSON number or a [re, im] pair of them;
    strings and booleans are ConfigErrors (test_cli's malformed cases)."""
    cfg = read_config('{"problem": {"dimension": 1, "k": 1, "mu_inv": {"type": "constant", '
                      '"value": 2}, "eps": {"type": "constant", "value": [3, -0.5]}, '
                      '"resolution": {"type": "elements", "n": 30.0}}}')
    spec = build_problem(cfg["problem"])
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
    # the Gårding sample count and the iterative solvers' settings are
    # fixed: the solver section that named them is an error
    for key, value in (("garding_samples", 1000), ("tol", 1e-8), ("max_it", 500)):
        with pytest.raises(ConfigError, match=r"unknown keys \['solver'\] \(solver\)"):
            read_config('{"problem": {"dimension": 1, "k": 1}, '
                        f'"solver": {{"{key}": {value}}}}}')
    with pytest.raises(ConfigError):
        read_config("not json")
    with pytest.raises(ConfigError, match="schema_version"):
        read_config('{"schema_version": 99, "problem": {"dimension": 1, "k": 1}}')


RULE = {"type": "constant", "value": 2}
# each key that only one perturbation mode reads: (mode, section, key, a value)
MODE_ONLY = [
    ("absorption", "perturbation", "alpha", 0.5),
    ("absorption", "sweep", "alpha_values", [0.1, 0.5]),
    ("nearby", "perturbation", "mu_inv", RULE),
    ("nearby", "perturbation", "eps", RULE),
]


def test_mode_only_table_lists_every_such_key():
    found = {(section, key) for section, (table, _, _) in _CONFIG.items()
             if isinstance(table, dict) for key, (kind, _, _) in table.items()
             if getattr(kind, "__qualname__", "").startswith("_mode_only.")}
    assert found == {(section, key) for _, section, key, _ in MODE_ONLY}


@pytest.mark.parametrize("mode,section,key,value", MODE_ONLY,
                         ids=[f"{section}.{key}" for _, section, key, _ in MODE_ONLY])
def test_a_key_one_mode_reads_is_refused_in_the_other(mode, section, key, value):
    """Read in its mode, where its JSON dump reads back alike; a written
    value in the other mode is a ConfigError naming the key, not ignored,
    and an unwritten one is None there."""
    other = {"absorption": "nearby", "nearby": "absorption"}[mode]

    def config(m, written=True):
        cfg = {"problem": {"dimension": 1, "k": 1}, "perturbation": {"mode": m}}
        if m == "nearby" and key != "mu_inv":  # nearby mode needs a rule
            cfg["perturbation"]["mu_inv"] = RULE
        if written:
            cfg.setdefault(section, {})[key] = value
        return json.dumps(cfg)

    cfg = read_config(config(mode))
    assert cfg[section][key] == value
    assert read_config(json.dumps(cfg)) == cfg
    with pytest.raises(ConfigError) as exc:
        read_config(config(other))
    assert str(exc.value) == f"{section}.{key} is not read in {other} mode; remove it"
    assert read_config(config(other, written=False))[section][key] is None


# values 1 + d for small d print alike in {:g} form: most draws collide
_grid_value = st.one_of(st.floats(0.0, 1e6), st.floats(1.0, 1.00001),
                        st.sampled_from([0.0, 1.0, 1.000001, 1e-7, 1.5e-7]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_grid_value, min_size=1, max_size=4),
       st.lists(_grid_value, min_size=1, max_size=4))
def test_an_accepted_sweep_prints_distinct_names(k_values, alpha_values):
    """The reader accepts a grid iff its values are in range and every sweep
    and ladder summary line gets its own name."""
    text = json.dumps({"problem": {"dimension": 1, "k": 1},
                       "sweep": {"k_values": k_values, "alpha_values": alpha_values,
                                 "ladder": {}}})
    names = ([point_name("sweep", k, a) for k in k_values for a in alpha_values]
             + [point_name("ladder", k, None) for k in k_values])
    in_range = min(k_values) > 0
    try:
        read_config(text)
    except ConfigError:
        assert not in_range or len(set(names)) < len(names)
    else:
        assert in_range and len(set(names)) == len(names)


def test_point_names_print_values_in_g_form():
    assert point_name("sweep", 10.0, 0.3) == "sweep[k=10,alpha=0.3]"
    assert point_name("sweep", 3.0000001, None) == point_name("sweep", 3.0000002, None)
    assert point_name("ladder", 1234567.0, None) == "ladder[k=1.23457e+06]"


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
    mesh = build_problem(cfg["problem"]).mesh
    assert mesh.n_nodes == 25 * 13 == 325
    for axis, cells in ((0, 24), (1, 12)):
        lines = np.unique(mesh.coords[:, axis])
        assert len(lines) == cells + 1
        assert np.allclose(np.diff(lines), 1 / 12, rtol=1e-12, atol=0)
    cfg1d = read_config(
        '{"problem": {"dimension": 1, "k": 5.0, "domain": [0.0, 2.0], '
        '"resolution": {"type": "per_k", "factor": 10}}}'
    )
    assert build_problem(cfg1d["problem"]).mesh.n_elements == 100


def test_build_problem_and_fields():
    cfg = read_config(
        '{"problem": {"dimension": 1, "k": 4.0, '
        '"resolution": {"type": "elements", "n": 8}, '
        '"eps": {"type": "step", "axis": 0, "threshold": 0.5, '
        '"below": [1.0, 0.0], "above": [2.0, 0.0]}}}'
    )
    spec = build_problem(cfg["problem"])
    assert spec.mesh.n_elements == 8
    assert np.allclose(spec.eps.values[:4], 1.0)
    assert np.allclose(spec.eps.values[4:], 2.0)
    cfg2d = read_config(
        '{"problem": {"dimension": 2, "k": 2.0, '
        '"resolution": {"type": "elements", "n": 3}}}'
    )
    spec2 = build_problem(cfg2d["problem"])
    assert spec2.mesh.dimension == 2
    assert spec2.mesh.n_elements == 18


def test_pml_rule():
    cfg = read_config(
        '{"problem": {"dimension": 1, "k": 5.0, "domain": [0.0, 2.0], '
        '"resolution": {"type": "elements", "n": 10}, '
        '"mu_inv": {"type": "pml", "start": 1.0, "sigma0": 5.0}, '
        '"eps": {"type": "pml", "start": 1.0, "sigma0": 5.0}}}'
    )
    spec = build_problem(cfg["problem"])
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


GENERAL = "%%MatrixMarket matrix coordinate complex general\n"
HERMITIAN = "%%MatrixMarket matrix coordinate complex hermitian\n"


# One defect per file: the text, the line that the error names and a part
# of its message.
MM_DEFECTS = pytest.mark.parametrize("text,line,message", [
    ("", 1, "empty file"),
    ("%%MatrixMarket matrix coordinate complex\n2 2 0\n", 1, "malformed header banner"),
    ("%%MatrixMarket matrix array complex general\n2 2\n", 1,
     "unsupported object/format matrix/array"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n", 1,
     "field must be 'complex', got 'real'"),
    ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n", 1,
     "unsupported symmetry 'symmetric'"),
    (GENERAL + "% no size line follows\n\n", 3, "missing size line"),
    (GENERAL + "2 2\n", 2, "size line must be 'rows cols nnz'"),
    (GENERAL + "2 2 1.0\n1 1 1 0\n", 2, "size line must contain integers"),
    (GENERAL + "2 -2 0\n", 2, "size line must not be negative"),
    (GENERAL + "99999999999999999999 2 0\n", 2, "at most 2147483647 rows and columns"),
    (GENERAL + "3000000000 3000000000 1\n1 1 1 0\n", 2,
     "at most 2147483647 rows and columns"),
    (GENERAL + "2 2 1\n1 1 1\n", 3, "entry must be 'i j re im'"),
    (GENERAL + "2 2 1\n1 1 1 0 0\n", 3, "entry must be 'i j re im'"),
    (GENERAL + "2 2 1\n1 1 x 0\n", 3, "unparseable entry"),
    (GENERAL + "2 2 1\n1.0 1 1 0\n", 3, "unparseable entry"),
    (GENERAL + "2 2 2\n1 1 1 0\n1 0 1 0\n", 4, "index (1, 0) violates the 1-based convention"),
    (GENERAL + "2 3 2\n1 1 1 0\n3 1 1 0\n", 4, "index (3, 1) out of range for 2x3"),
    (GENERAL + "3 2 2\n1 1 1 0\n1 3 1 0\n", 4, "index (1, 3) out of range for 3x2"),
    (HERMITIAN + "2 2 2\n1 1 1 0\n1 2 1 0\n", 4, "hermitian files store the lower triangle only"),
    (GENERAL + "2 2 2\n1 1 1 0\n", 3, "expected 2 entries, found 1"),
    (GENERAL + "2 2 1\n1 1 1 0\n2 2 1 0\n", 4, "expected 1 entries, found 2"),
    (GENERAL + "% c\n\n2 2 2\n\n% c\n1 1 1 0\n%\n\n2 3 1 0\n", 10,
     "index (2, 3) out of range for 2x2"),
], ids=["empty", "banner", "array", "real", "symmetric", "no_size_line", "size_2_tokens",
        "size_not_integer", "size_negative", "size_overflows", "size_too_large",
        "entry_3_tokens", "entry_5_tokens", "value_not_a_number", "index_not_an_integer",
        "index_0_based", "row_out_of_range", "column_out_of_range", "above_diagonal", "too_few",
        "too_many", "after_comments"])


@MM_DEFECTS
def test_matrix_mm_reader_names_the_line_of_each_defect(tmp_path, text, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixExchangeError) as exc:
        read_matrix_mm(str(path))
    assert (exc.value.path, exc.value.line) == (str(path), line)
    assert str(exc.value).startswith(f"{path}: line {line}: ")
    assert message in str(exc.value)


IDENTITY = "2 2 2\n1 1 1 0\n2 2 1 0\n"
EXCHANGE = {"A1.mtx": GENERAL + IDENTITY, "A2.mtx": GENERAL + IDENTITY,
            "D.mtx": HERMITIAN + IDENTITY, "M.mtx": HERMITIAN + IDENTITY,
            "meta.json": '{"dmu": 0.0, "deps": 0.1}'}


def _import_error(directory, name, text, capsys) -> str:
    """The stderr of ``helmprec import`` on a valid 2 x 2 exchange directory
    whose file ``name`` holds ``text`` instead (None: no such file)."""
    from helmprec.cli import main

    directory.mkdir()
    for file, content in EXCHANGE.items():
        if file != name:
            (directory / file).write_text(content)
        elif text is not None:
            (directory / file).write_bytes(text.encode() if isinstance(text, str) else text)
    assert main(["import", "--dir", str(directory)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert not (directory / "bounds.json").exists()
    return captured.err


@pytest.mark.parametrize("name", ["A1.mtx", "A2.mtx", "D.mtx", "M.mtx"])
@MM_DEFECTS
def test_import_names_the_file_and_line_of_each_defect(tmp_path, capsys, name, text, line,
                                                       message):
    """Each defect of the reader's table, planted in any one of the four
    matrix files, is one error line that names that file and the line."""
    err = _import_error(tmp_path / "x", name, text, capsys)
    path = tmp_path / "x" / name
    assert err.startswith(f"error: {path}: line {line}: ") and message in err, err


@pytest.mark.parametrize("name,text,message", [
    ("A1.mtx", None, "not found"),
    ("meta.json", b'{"dmu": 0.0, "deps": 0.1}\xff', "not UTF-8 text"),
    ("A1.mtx", GENERAL + "2 3 0\n", "matrix is 2x3, not square and non-empty"),
    ("A2.mtx", GENERAL + "3 3 0\n", "matrix is 3x3, not 2x2 as A1.mtx"),
    ("D.mtx", GENERAL + "2 3 2\n1 1 1 0\n2 2 1 0\n", "matrix is 2x3, not 2x2 as A1.mtx"),
    ("M.mtx", HERMITIAN + "1 1 1\n1 1 1 0\n", "matrix is 1x1, not 2x2 as A1.mtx"),
    ("D.mtx", HERMITIAN + "2 2 3\n1 1 1 0\n2 1 0 1e-300\n2 2 1 0\n",
     "matrix has a nonzero imaginary part; D and M must be real"),
    ("M.mtx", GENERAL + "2 2 2\n1 1 1 0\n2 2 1 -1\n", "nonzero imaginary part"),
], ids=["A1_missing", "meta_not_utf8", "A1_not_square", "A2_size", "D_not_square", "M_size",
        "D_complex", "M_complex"])
def test_import_names_the_file_of_each_exchange_defect(tmp_path, capsys, name, text, message):
    """What the exchange reader refuses beyond one file's format is one
    error line that names the file; test_cli's import tests hold the other
    meta.json defects."""
    err = _import_error(tmp_path / "x", name, text, capsys)
    assert err.startswith(f"error: {tmp_path / 'x' / name}: ") and message in err, err


@pytest.mark.parametrize("symmetry", ["general", "hermitian"])
@pytest.mark.parametrize("n", [3, 0])
def test_matrix_mm_roundtrip_of_a_matrix_without_entries(tmp_path, symmetry, n):
    path = tmp_path / "zero.mtx"
    write_matrix_mm(str(path), sp.csr_matrix((n, n), dtype=complex), symmetry)
    assert path.read_text().splitlines()[0] == (
        f"%%MatrixMarket matrix coordinate complex {symmetry}")
    Y = read_matrix_mm(str(path))
    assert Y.shape == (n, n) and Y.nnz == 0


def test_matrix_exchange_dir_roundtrip(tmp_path):
    spec = canonical_spec_1d(6.0, 15)
    s1 = assemble_system(spec)
    s2 = assemble_system(spec.with_eps(absorption_shift(spec.eps, 0.25)))
    d = tmp_path / "exch"
    paths = write_matrix_exchange(s1, s2, str(d), dmu=0.0, deps=0.25)
    assert set(paths) == {"A1.mtx", "A2.mtx", "D.mtx", "M.mtx", "meta.json"}
    b1, b2, norms = read_matrix_exchange(str(d))
    assert (abs(b1.A - s1.A)).max() == 0.0
    assert (abs(b2.A - s2.A)).max() == 0.0
    assert (abs(b1.D - s1.D)).max() == 0.0
    assert b2.D is b1.D and b2.M is b1.M
    assert b1.D.dtype == b1.M.dtype == np.float64  # read as the real matrices they are
    assert norms == (0.0, 0.25)
    (d / "meta.json").unlink()
    with pytest.raises(MatrixExchangeError, match="meta.json: not found"):
        read_matrix_exchange(str(d))
    (d / "D.mtx").unlink()
    with pytest.raises(MatrixExchangeError, match="D.mtx: not found"):
        read_matrix_exchange(str(d))


def test_bound_report_serialization(tmp_path):
    s1 = canonical_1d(5.0, 30)
    rep = nearby_bound_report(s1, assemble_system(s1.spec.with_absorption(0.2)), alpha=0.2)
    jpath = write_report(rep, str(tmp_path / "r.json"))
    data = json.loads(Path(jpath).read_text())
    assert data["alpha"] == 0.2
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"nearby_D", "nearby_Dinv"}
    cpath = write_report(rep, str(tmp_path / "r.csv"))
    lines = Path(cpath).read_text().splitlines()
    assert lines[0].startswith("k,h,alpha,n,dmu,deps")
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["alpha"]) == 0.2
    assert row["passed"] == "true"


def test_trace_and_ladder_serialization(tmp_path):
    rung = working_rung(canonical_spec_1d(10.0, 10))
    ladder = infsup_ladder([rung], 4)
    lpath = write_report(ladder, str(tmp_path / "l.csv"))
    lines = Path(lpath).read_text().splitlines()
    assert lines[0].startswith("k,h,h_ref")
    assert len(lines) == 2

    empty = InfSupLadder(())
    epath = write_report(empty, str(tmp_path / "e.csv"))
    assert Path(epath).read_text().splitlines() == [
        "k,h,h_ref,n,n_ref,gamma,gamma_ref,ratio,singular"
    ]


def test_report_determinism(tmp_path):
    rep = garding_check(canonical_1d(4.0, 12), CANONICAL_GARDING, seed=5)
    p1 = write_report(rep, str(tmp_path / "a.json"))
    p2 = write_report(rep, str(tmp_path / "b.json"))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    rep2 = garding_check(canonical_1d(4.0, 12), CANONICAL_GARDING, seed=5)
    p3 = write_report(rep2, str(tmp_path / "c.json"))
    assert Path(p1).read_bytes() == Path(p3).read_bytes()


def test_write_report_rejects_unknown(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_report(object(), str(tmp_path / "x.json"))
    rep = garding_check(canonical_1d(4.0, 12), CANONICAL_GARDING)
    for name in ("x.yaml", "x.JSON", "json"):
        with pytest.raises(InvalidArgumentError, match=r"does not end in \.json or \.csv"):
            write_report(rep, str(tmp_path / name))
    # only the forms a command writes
    with pytest.raises(InvalidArgumentError):
        write_report(rep, str(tmp_path / "x.csv"))
    with pytest.raises(InvalidArgumentError):
        write_report(InfSupLadder(()), str(tmp_path / "x.json"))
