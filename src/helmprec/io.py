"""Experiment configs, sparse-matrix exchange files, report serialization.

Configs are JSON with three blocks (problem, perturbation, sweep) plus
solver knobs and output paths; unknown keys, missing rule keys,
non-numeric values, sections that are not objects, grids that are not
lists and step axes that are not axes of the mesh are rejected by name,
and defaults are materialized, so re-reading the JSON dump of a config's
``data`` gives the same data.

Matrices travel in Matrix Market coordinate format with complex
entries (real/imag pairs), 1-based indices, and symmetry 'general' or
'hermitian'; values are written with 17 significant digits so doubles
round-trip exactly. Reports serialize with a fixed field order, so
identical inputs give byte-identical files: a bound report to JSON or
CSV, a Gårding or norm-equivalence report to JSON, and an inf-sup ladder
to CSV.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .assemble import MatrixSystem, ProblemSpec
from .bounds import (
    BoundReport,
    GardingConstants,
    GardingReport,
    InfSupLadder,
    NormEquivalenceReport,
)
from .coeffs import CoefficientField, Role, constant_field, piecewise_field, pml_profile_1d
from .errors import ConfigError, InvalidArgumentError, MatrixExchangeError
from .mesh import SIDES, BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

SCHEMA_VERSION = 1

_TAGS = {t.value: t for t in BoundaryTag}


def _as_complex(v) -> complex:
    """A validated coefficient value, a number or a [re, im] pair."""
    return complex(*v) if isinstance(v, list) else complex(v)


# The keys of each rule type besides 'type', with the conversion of their
# values; all are required except those in _OPTIONAL_KEYS.
_RULE_KEYS = {
    "constant": {"value": complex},
    "step": {"axis": int, "threshold": float, "below": complex, "above": complex},
    "pml": {"start": float, "sigma0": float},
}
_RES_KEYS = {
    "elements": {"n": int},
    "per_k": {"factor": float},
    "k_power": {"scale": float, "exponent": float},
}
_OPTIONAL_KEYS = {"axis", "scale"}

_SCHEMA = {
    "schema_version": None,
    "seed": None,
    "problem": {
        "dimension": None,
        "domain": None,
        "boundary": None,
        "k": None,
        "theta": None,
        "resolution": None,
        "mu_inv": None,
        "eps": None,
        "garding": None,
    },
    "perturbation": {"mode": None, "alpha": None, "mu_inv": None, "eps": None},
    "sweep": {"k_values": None, "alpha_values": None, "resolution": None, "ladder": None},
    "solver": {"tol": None, "max_it": None, "garding_samples": None},
    "output": {"dir": None},
}


def _check_unknown(data: dict, schema: dict, prefix: str, unknown: list):
    for key, val in data.items():
        if key not in schema:
            unknown.append(prefix + key)
        elif isinstance(schema[key], dict) and isinstance(val, dict):
            _check_unknown(val, schema[key], prefix + key + ".", unknown)


def _check_rule(rule, where: str, table: dict):
    if not isinstance(rule, dict) or "type" not in rule:
        raise ConfigError(f"{where}: expected an object with a 'type' key")
    rtype = rule["type"]
    if rtype not in table:
        raise ConfigError(f"{where}: unknown type {rtype!r} (one of {sorted(table)})")
    keys = table[rtype]
    extra = set(rule) - set(keys) - {"type"}
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    missing = set(keys) - _OPTIONAL_KEYS - set(rule)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    for key, kind in keys.items():
        if key in rule:
            _number(rule[key], f"{where}.{key}", kind)


def _number(value, where: str, kind=float):
    """``kind(value)`` of a JSON number, or a ConfigError naming the key.

    Only a JSON number is a number: a string or a boolean is rejected
    rather than converted, and a complex key takes a number or a [re, im]
    pair of numbers. An integer key rejects a non-integral number rather
    than truncating it (3.0 and 1e3 are integers). A float key rejects a
    non-finite number (``NaN``, ``Infinity`` or a literal that overflows,
    such as 1e400).
    """
    pair = kind is complex and isinstance(value, list) and len(value) == 2
    parts = value if pair else [value]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ConfigError(f"{where}: not a number: {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: not an integer: {value!r}")
    try:
        number = kind(*parts)
    except OverflowError as exc:
        raise ConfigError(f"{where}: not a valid number: {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{where}: not a finite number: {value!r}")
    return number


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _grid(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(x, where) for x in value]


def _check_coefficient_rule(rule, where: str, dim: int):
    """A coefficient rule, whose step ``axis`` must be an axis of the mesh."""
    _check_rule(rule, where, _RULE_KEYS)
    if rule["type"] == "step":
        axis = _number(rule.get("axis", 0), f"{where}.axis", int)
        if axis not in range(dim):
            raise ConfigError(f"{where}.axis must be in range({dim}), got {rule['axis']!r}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated experiment description with all defaults applied."""

    data: dict

    @property
    def problem(self) -> dict:
        return self.data["problem"]

    @property
    def perturbation(self) -> dict:
        return self.data["perturbation"]

    @property
    def sweep(self) -> dict:
        return self.data["sweep"]

    @property
    def solver(self) -> dict:
        return self.data["solver"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def output_dir(self) -> str:
        return self.data["output"]["dir"]


def read_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; apply defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown: list[str] = []
    _check_unknown(raw, _SCHEMA, "", unknown)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    version = _number(raw.get("schema_version", SCHEMA_VERSION), "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unrecognized schema_version {version!r}")

    prob = raw.get("problem")
    if prob is None:
        raise ConfigError("missing mandatory key: problem")
    _object(prob, "problem")
    missing = [k for k in ("dimension", "k") if k not in prob]
    if missing:
        raise ConfigError(
            "missing mandatory keys: " + ", ".join("problem." + m for m in missing)
        )
    dim = _number(prob["dimension"], "problem.dimension", int)
    if dim not in (1, 2):
        raise ConfigError(f"problem.dimension must be 1 or 2, got {dim!r}")
    k = _number(prob["k"], "problem.k")
    if k <= 0:
        raise ConfigError("problem.k must be positive")

    domain = prob.get("domain", [0.0, 1.0] if dim == 1 else [1.0, 1.0])
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
        raise ConfigError("problem.domain must be a pair of numbers")
    domain = [_number(x, "problem.domain") for x in domain]

    sides = SIDES[dim]
    boundary = dict(_object(prob.get("boundary", {}), "problem.boundary"))
    extra_sides = set(boundary) - set(sides)
    if extra_sides:
        raise ConfigError(f"unknown boundary sides: {sorted(extra_sides)}")
    for s in sides:
        boundary.setdefault(s, "impedance")
        if boundary[s] not in _TAGS:
            raise ConfigError(
                f"boundary.{s} must be one of {sorted(_TAGS)}, got {boundary[s]!r}"
            )
    boundary = {s: boundary[s] for s in sides}

    resolution = prob.get("resolution", {"type": "per_k", "factor": 10.0})
    _check_rule(resolution, "problem.resolution", _RES_KEYS)
    mu_rule = prob.get("mu_inv", {"type": "constant", "value": [1.0, 0.0]})
    eps_rule = prob.get("eps", {"type": "constant", "value": [1.0, 0.0]})
    for name, rule in (("problem.mu_inv", mu_rule), ("problem.eps", eps_rule)):
        _check_coefficient_rule(rule, name, dim)
    garding = prob.get("garding")
    if garding is not None:
        extra = set(_object(garding, "problem.garding")) - {"c_g1", "c_g2"}
        if extra or not {"c_g1", "c_g2"} <= set(garding):
            raise ConfigError("problem.garding needs exactly the keys c_g1, c_g2")
        garding = {c: _number(garding[c], f"problem.garding.{c}") for c in ("c_g1", "c_g2")}
        try:
            GardingConstants(**garding)
        except InvalidArgumentError as exc:
            raise ConfigError(f"problem.garding: {exc}") from exc

    pert_in = _object(raw.get("perturbation", {}), "perturbation")
    mode = pert_in.get("mode", "absorption")
    if mode not in ("absorption", "nearby"):
        raise ConfigError(f"perturbation.mode must be absorption|nearby, got {mode!r}")
    pert = {
        "mode": mode,
        "alpha": _number(pert_in.get("alpha", 0.3), "perturbation.alpha"),
        "mu_inv": pert_in.get("mu_inv"),
        "eps": pert_in.get("eps"),
    }
    for name in ("mu_inv", "eps"):
        if pert[name] is not None:
            _check_coefficient_rule(pert[name], f"perturbation.{name}", dim)
    if pert["alpha"] < 0:
        raise ConfigError("perturbation.alpha must be >= 0")
    if mode == "nearby" and pert["mu_inv"] is None and pert["eps"] is None:
        raise ConfigError("nearby perturbation needs mu_inv and/or eps rules")

    sweep_in = _object(raw.get("sweep", {}), "sweep")
    sweep = {
        "k_values": _grid(sweep_in.get("k_values", [k]), "sweep.k_values"),
        "alpha_values": _grid(sweep_in.get("alpha_values", [pert["alpha"]]),
                              "sweep.alpha_values"),
        "resolution": sweep_in.get("resolution", resolution),
        "ladder": sweep_in.get("ladder"),
    }
    _check_rule(sweep["resolution"], "sweep.resolution", _RES_KEYS)
    if not sweep["k_values"] or not sweep["alpha_values"]:
        raise ConfigError("sweep grids must be non-empty")
    if min(sweep["alpha_values"]) < 0:
        raise ConfigError("sweep.alpha_values must be >= 0")
    if sweep["ladder"] is not None:
        if set(_object(sweep["ladder"], "sweep.ladder")) - {"refine"}:
            raise ConfigError("sweep.ladder accepts only 'refine'")
        sweep["ladder"] = {
            "refine": _number(sweep["ladder"].get("refine", 4), "sweep.ladder.refine", int)
        }
        if sweep["ladder"]["refine"] < 2:
            raise ConfigError("sweep.ladder.refine must be >= 2")

    solver_in = _object(raw.get("solver", {}), "solver")
    solver = {
        "tol": _number(solver_in.get("tol", 1e-8), "solver.tol"),
        "max_it": _number(solver_in.get("max_it", 500), "solver.max_it", int),
        "garding_samples": _number(solver_in.get("garding_samples", 1000),
                                   "solver.garding_samples", int),
    }
    # zero samples or iterations would print PASS without checking anything
    if solver["garding_samples"] < 1:
        raise ConfigError("solver.garding_samples must be >= 1")
    if solver["max_it"] < 1:
        raise ConfigError("solver.max_it must be >= 1")
    if not solver["tol"] > 0:
        raise ConfigError("solver.tol must be > 0")

    out_dir = _object(raw.get("output", {}), "output").get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.dir must be a string, got {out_dir!r}")

    seed = _number(raw.get("seed", 0), "seed", int)
    if seed < 0:  # numpy's seeding takes non-negative integers only
        raise ConfigError(f"seed must be >= 0, got {seed}")

    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "problem": {
            "dimension": dim,
            "domain": domain,
            "boundary": boundary,
            "k": k,
            "theta": _number(prob.get("theta", 1.0), "problem.theta"),
            "resolution": resolution,
            "mu_inv": mu_rule,
            "eps": eps_rule,
            "garding": garding,
        },
        "perturbation": pert,
        "sweep": sweep,
        "solver": solver,
        "output": {"dir": out_dir},
    }
    return ExperimentConfig(data)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return read_config(fh.read())


# -- config -> problem objects ------------------------------------------------

def resolution_elements(rule: dict, k: float, length: float) -> int:
    """Number of mesh elements along a length for one resolution rule.

    ``elements`` is an explicit count per axis, whatever its length;
    ``per_k`` puts factor * k elements on each unit of length; ``k_power``
    fits elements of diameter scale * k^{-exponent} into ``length``.
    """
    if rule["type"] == "elements":
        n = int(rule["n"])
    elif rule["type"] == "per_k":
        n = math.ceil(float(rule["factor"]) * k * length)
    else:  # k_power: target h = scale * k^{-exponent}
        h = float(rule.get("scale", 1.0)) * k ** (-float(rule["exponent"]))
        n = math.ceil(length / h)
    if n < 1:
        raise ConfigError(f"resolution rule yields {n} elements")
    return n


def build_mesh(problem: dict, k: Optional[float] = None) -> Mesh:
    k = problem["k"] if k is None else k
    rule = problem["resolution"]
    if problem["dimension"] == 1:
        a, b = problem["domain"]
        n = resolution_elements(rule, k, b - a)
        return build_interval_mesh(
            a, b, n, _TAGS[problem["boundary"]["left"]], _TAGS[problem["boundary"]["right"]]
        )
    w, h = problem["domain"]
    # k_power sizes the element diameter, which is the cell diagonal
    stretch = math.sqrt(2.0) if rule["type"] == "k_power" else 1.0
    nx = resolution_elements(rule, k, w * stretch)
    ny = resolution_elements(rule, k, h * stretch)
    tags = {s: _TAGS[t] for s, t in problem["boundary"].items()}
    return build_rect_mesh(w, h, nx, ny, tags)


def field_from_rule(mesh: Mesh, rule: dict, role: Role, k: float) -> CoefficientField:
    """Materialize one coefficient rule on a mesh."""
    rtype = rule["type"]
    if rtype == "constant":
        return constant_field(mesh, _as_complex(rule["value"]), role)
    if rtype == "step":
        axis = int(rule.get("axis", 0))
        thr = float(rule["threshold"])
        below = _as_complex(rule["below"])
        above = _as_complex(rule["above"])
        if mesh.dimension == 1:
            f = lambda x: below if x < thr else above
        else:
            f = lambda p: below if p[axis] < thr else above
        return piecewise_field(mesh, f, role)
    if rtype == "pml":
        mu_inv, eps = pml_profile_1d(
            mesh, k, float(rule["start"]), float(rule["sigma0"])
        )
        return mu_inv if role == Role.MU_INV else eps
    raise ConfigError(f"unknown coefficient rule type {rtype!r}")


def build_problem(
    cfg: ExperimentConfig, k: Optional[float] = None, mesh: Optional[Mesh] = None
) -> ProblemSpec:
    """ProblemSpec for the config's primary problem, optionally at another k."""
    prob = cfg.problem
    k = prob["k"] if k is None else k
    if mesh is None:
        mesh = build_mesh(prob, k)
    mu = field_from_rule(mesh, prob["mu_inv"], Role.MU_INV, k)
    eps = field_from_rule(mesh, prob["eps"], Role.EPS, k)
    return ProblemSpec(k, mesh, mu, eps, prob["theta"])


# -- matrix exchange ----------------------------------------------------------

def write_matrix_mm(path: str, X, symmetry: str = "general"):
    """Write one sparse complex matrix in coordinate format.

    ``symmetry='hermitian'`` stores the lower triangle only. Values are
    written with 17 significant digits (lossless for doubles).
    """
    if symmetry not in ("general", "hermitian"):
        raise InvalidArgumentError(f"unsupported symmetry {symmetry!r}")
    coo = sp.coo_matrix(X, dtype=complex)
    n, m = coo.shape
    rows, cols, vals = coo.row, coo.col, coo.data
    if symmetry == "hermitian":
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    lines = [f"%%MatrixMarket matrix coordinate complex {symmetry}"]
    lines.append(f"{n} {m} {len(vals)}")
    for i, j, v in zip(rows, cols, vals):
        lines.append(f"{i + 1} {j + 1} {v.real:.16e} {v.imag:.16e}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_mm(path: str) -> sp.csr_matrix:
    """Read one coordinate-format complex matrix; errors carry line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixExchangeError("empty file", line=1)
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise MatrixExchangeError("malformed header banner", line=1)
    _, obj, fmt, field, symmetry = banner
    if (obj, fmt) != ("matrix", "coordinate"):
        raise MatrixExchangeError(f"unsupported object/format {obj}/{fmt}", line=1)
    if field != "complex":
        raise MatrixExchangeError(f"field must be 'complex', got {field!r}", line=1)
    if symmetry not in ("general", "hermitian"):
        raise MatrixExchangeError(f"unsupported symmetry {symmetry!r}", line=1)

    ln = 1
    size_line = None
    for ln, text in enumerate(lines[1:], start=2):
        if text.startswith("%") or not text.strip():
            continue
        size_line = text
        break
    if size_line is None:
        raise MatrixExchangeError("missing size line", line=len(lines))
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixExchangeError("size line must be 'rows cols nnz'", line=ln)
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixExchangeError("size line must contain integers", line=ln)

    rows, cols, vals = [], [], []
    entry_ln = ln
    for entry_ln, text in enumerate(lines[ln:], start=ln + 1):
        if text.startswith("%") or not text.strip():
            continue
        parts = text.split()
        if len(parts) != 4:
            raise MatrixExchangeError(
                "entry must be 'i j re im' (complex real/imag pair)", line=entry_ln
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError:
            raise MatrixExchangeError("unparseable entry", line=entry_ln)
        if i < 1 or j < 1:
            raise MatrixExchangeError(
                f"index ({i}, {j}) violates the 1-based convention", line=entry_ln
            )
        if i > n or j > m:
            raise MatrixExchangeError(
                f"index ({i}, {j}) out of range for {n}x{m}", line=entry_ln
            )
        if symmetry == "hermitian" and j > i:
            raise MatrixExchangeError(
                "hermitian files store the lower triangle only", line=entry_ln
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(complex(re, im))
    if len(vals) != nnz:
        raise MatrixExchangeError(
            f"expected {nnz} entries, found {len(vals)}", line=entry_ln
        )
    X = sp.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr()
    if symmetry == "hermitian":
        strict_lower = sp.tril(X, k=-1)
        X = (X + strict_lower.getH()).tocsr()
    return X


def write_matrix_exchange(
    sys1: MatrixSystem,
    sys2: MatrixSystem,
    directory: str,
    dmu: Optional[float] = None,
    deps: Optional[float] = None,
) -> dict[str, str]:
    """Write a system pair to a directory: A1.mtx and A2.mtx, the system
    matrices; D.mtx and M.mtx, the norm matrices of ``sys1``; and, when
    either coefficient-difference norm is given, meta.json with the given
    ones. Returns the written paths by file name."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, X, symmetry in (
        ("A1.mtx", sys1.A, "general"),
        ("A2.mtx", sys2.A, "general"),
        ("D.mtx", sys1.D, "hermitian"),
        ("M.mtx", sys1.M, "hermitian"),
    ):
        path = os.path.join(directory, name)
        write_matrix_mm(path, X, symmetry)
        paths[name] = path
    meta = {}
    if dmu is not None:
        meta["dmu"] = dmu
    if deps is not None:
        meta["deps"] = deps
    if meta:
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        paths["meta.json"] = meta_path
    return paths


def read_matrix_exchange(
    a1_path: str, a2_path: str, d_path: str, m_path: str
) -> tuple[MatrixSystem, MatrixSystem, dict]:
    """Read a system pair from four coordinate-format files.

    Returns ``(sys1, sys2, meta)``: the systems of A1 and A2, both on the
    same D and M objects, and the parsed ``meta.json`` next to the A1 file
    (the coefficient-difference norms of an exported pair), or ``{}``
    when there is none.
    """
    mats = {}
    for name, path in (
        ("A1", a1_path), ("A2", a2_path), ("D", d_path), ("M", m_path)
    ):
        if not os.path.exists(path):
            raise MatrixExchangeError(f"matrix file for {name} not found: {path}")
        mats[name] = read_matrix_mm(path)
    meta = {}
    meta_path = os.path.join(os.path.dirname(os.path.abspath(a1_path)), "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    D, M = mats["D"], mats["M"]
    return MatrixSystem(mats["A1"], D, M), MatrixSystem(mats["A2"], D, M), meta


# -- report serialization -----------------------------------------------------

def _jsonify(obj):
    """Recursively convert numpy scalars so json.dump accepts the payload."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _f(x) -> str:
    """Deterministic CSV float formatting (shortest round-trip repr)."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


BOUND_COLUMNS = (
    "k", "h", "alpha", "n", "dmu", "deps", "cdis1", "cdis2", "mass_ratio",
    "lhs_D", "lhs_Dinv", "lhs_2", "lhs_2p", "rhs_lemma", "rhs_lemma2",
    "cond", "contraction", "singular", "passed",
)


def bound_report_row(rep: BoundReport) -> dict:
    return {
        "k": rep.k, "h": rep.h, "alpha": rep.alpha, "n": rep.n,
        "dmu": rep.dmu, "deps": rep.deps, "cdis1": rep.c_dis1,
        "cdis2": rep.c_dis2, "mass_ratio": rep.mass_ratio,
        "lhs_D": rep.lhs_D, "lhs_Dinv": rep.lhs_Dinv, "lhs_2": rep.lhs_2,
        "lhs_2p": rep.lhs_2p, "rhs_lemma": rep.rhs_lemma,
        "rhs_lemma2": rep.rhs_lemma2, "cond": rep.cond,
        "contraction": rep.lhs_D, "singular": rep.singular, "passed": rep.passed,
    }


def _bound_report_json(rep: BoundReport) -> dict:
    out = bound_report_row(rep)
    out["checks"] = [
        {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed,
         "margin": c.margin}
        for c in rep.checks
    ]
    out["notes"] = [
        "cond and the small_cond checks use the measured discrete constant of "
        "system 1 as a proxy for the continuous solution-operator norm"
    ]
    return out


def _garding_json(rep: GardingReport) -> dict:
    return {
        "c_g1": rep.constants.c_g1, "c_g2": rep.constants.c_g2,
        "n_samples": rep.n_samples, "violations": rep.violations,
        "worst_rel_margin": rep.worst_rel_margin, "canonical": rep.canonical,
        "identity_max_rel_err": rep.identity_max_rel_err, "passed": rep.passed,
    }


def _norm_equiv_json(rep: NormEquivalenceReport) -> dict:
    return {
        "c_g1": rep.constants.c_g1, "c_g2": rep.constants.c_g2,
        "hstar_to_h": rep.hstar_to_h, "h0_to_h": rep.h0_to_h,
        "h0_to_h0": rep.h0_to_h0, "gamma": rep.gamma, "c_dis": rep.c_dis,
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed,
             "margin": c.margin}
            for c in rep.checks
        ],
        "passed": rep.passed,
    }


def _ladder_rows(ladder: InfSupLadder):
    return [
        {"k": e.k, "h": e.h, "h_ref": e.h_ref, "n": e.n, "n_ref": e.n_ref,
         "gamma": e.gamma, "gamma_ref": e.gamma_ref, "ratio": e.ratio,
         "singular": e.singular}
        for e in ladder.entries
    ]


def write_csv(path: str, columns, rows):
    """Write rows (dicts) under a documented header; deterministic output."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_f(row.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


LADDER_COLUMNS = ("k", "h", "h_ref", "n", "n_ref", "gamma", "gamma_ref",
                  "ratio", "singular")

# The forms each report type is written in: its JSON payload, or its CSV
# columns and rows.
_JSON_FORMS = {
    BoundReport: _bound_report_json,
    GardingReport: _garding_json,
    NormEquivalenceReport: _norm_equiv_json,
}
_CSV_FORMS = {
    BoundReport: (BOUND_COLUMNS, lambda rep: [bound_report_row(rep)]),
    InfSupLadder: (LADDER_COLUMNS, _ladder_rows),
}


def write_report(report, path: str, fmt: str = "json") -> str:
    """Serialize a report to JSON or CSV with deterministic field order."""
    forms = {"json": _JSON_FORMS, "csv": _CSV_FORMS}.get(fmt)
    if forms is None:
        raise InvalidArgumentError(f"format must be json or csv, got {fmt!r}")
    if type(report) not in forms:
        raise InvalidArgumentError(f"cannot write {type(report).__name__} as {fmt}")
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_jsonify(forms[type(report)](report)), fh, indent=2)
            fh.write("\n")
    else:
        columns, rows = forms[type(report)]
        write_csv(path, columns, rows(report))
    return path
