"""Experiment configs, sparse-matrix exchange files, report serialization.

A JSON config is read against one key table, ``_CONFIG``: each key of
each section maps to (kind, default, constraint). A kind is a nested
section's table or a reader: finite float, integer, complex (a number
or a [re, im] pair, kept as written), string, list or pair of numbers,
the boundary sides of the mesh, or a rule (an object whose 'type' names
the table of its other keys). A default is REQUIRED, a value, or a
function of the config read so far (``sweep.k_values`` defaults to
``[problem.k]``); a None default makes the key optional. A constraint
is None or (test, text), and a value failing test(value, cfg) "must be
<text>". The walker ``_section`` rejects unknown and missing keys,
reads a default as it reads a written value, applies the constraint
and names the key in every ``ConfigError``. Re-reading the JSON dump of
a config's ``data`` gives the same data.

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
from .bounds import BoundReport, GardingReport, InfSupLadder, NormEquivalenceReport
from .coeffs import CoefficientField, Role, constant_field, piecewise_field, pml_profile_1d
from .errors import ConfigError, InvalidArgumentError, MatrixExchangeError
from .mesh import SIDES, BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

SCHEMA_VERSION = 1

_TAGS = {t.value: t for t in BoundaryTag}


def _as_complex(v) -> complex:
    """A validated coefficient value, a number or a [re, im] pair."""
    return complex(*v) if isinstance(v, list) else complex(v)


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


# -- the config table (see the module docstring) ------------------------------
# A reader of a written value is a function (value, where, cfg).

REQUIRED = object()


def _reader(kind):
    """The reader of a JSON number of ``kind``, float or int."""
    return lambda value, where, cfg: _number(value, where, kind)


_float, _int = _reader(float), _reader(int)


def _complex(value, where, cfg):
    """A number or a [re, im] pair of numbers, kept as written."""
    _number(value, where, complex)
    return list(value) if isinstance(value, list) else value


def _str(value, where, cfg):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _numbers(value, where, cfg):
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {value!r}")
    return [_number(x, where) for x in value]


def _pair(value, where, cfg):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where} must be a pair of numbers, got {value!r}")
    return [_number(x, where) for x in value]


def _sides(value, where, cfg):
    """One boundary tag per side of the mesh, impedance by default."""
    tag = (_str, "impedance", _one_of(*_TAGS))
    return _section({s: tag for s in SIDES[cfg["problem"]["dimension"]]}, value, where, cfg)


def _rule(types: dict):
    """The kind of a rule: an object whose 'type' key names the table of
    its other keys."""
    def read(value, where, cfg):
        rtype = value.get("type") if isinstance(value, dict) else None
        if not (isinstance(rtype, str) and rtype in types):
            raise ConfigError(f"{where} must be an object whose 'type' is one of "
                              f"{sorted(types)}, got {value!r}")
        body = {key: v for key, v in value.items() if key != "type"}
        return {"type": rtype, **_section(types[rtype], body, where, cfg)}
    return read


def _at_least(bound):
    return (lambda x, cfg: x >= bound, f">= {bound}")


def _one_of(*options):
    return (lambda x, cfg: x in options, f"one of {list(options)}")


_POSITIVE = (lambda x, cfg: x > 0, "> 0")
_AXIS = (lambda axis, cfg: axis in range(cfg["problem"]["dimension"]),
         "an axis of the mesh, in range(problem.dimension)")
# 1D: the interval [a, b]; 2D: the sides of the rectangle [0, w] x [0, h]
_DOMAIN = (lambda d, cfg: d[0] < d[1] if cfg["problem"]["dimension"] == 1 else min(d) > 0,
           "[a, b] with a < b in 1D, or sides [w, h] > 0 in 2D")
_PML_START = (lambda start, cfg: cfg["problem"]["dimension"] == 1
              and cfg["problem"]["domain"][0] <= start < cfg["problem"]["domain"][1],
              "in [a, b) of a 1D problem's domain [a, b]")

_COEFFICIENT = _rule({
    "constant": {"value": (_complex, REQUIRED, None)},
    "step": {
        "axis": (_int, 0, _AXIS),
        "threshold": (_float, REQUIRED, None),
        "below": (_complex, REQUIRED, None),
        "above": (_complex, REQUIRED, None),
    },
    "pml": {"start": (_float, REQUIRED, _PML_START),
            "sigma0": (_float, REQUIRED, _at_least(0))},
})
_RESOLUTION = _rule({
    "elements": {"n": (_int, REQUIRED, _at_least(1))},
    "per_k": {"factor": (_float, REQUIRED, _POSITIVE)},
    "k_power": {"scale": (_float, 1.0, _POSITIVE), "exponent": (_float, REQUIRED, None)},
})
_CONSTANT_ONE = {"type": "constant", "value": [1.0, 0.0]}

_CONFIG = {
    "schema_version": (_int, SCHEMA_VERSION, _one_of(SCHEMA_VERSION)),
    "seed": (_int, 0, _at_least(0)),  # numpy's seeding takes non-negative integers only
    "problem": ({
        "dimension": (_int, REQUIRED, _one_of(1, 2)),
        "domain": (_pair, lambda cfg: [0.0, 1.0] if cfg["problem"]["dimension"] == 1
                   else [1.0, 1.0], _DOMAIN),
        "boundary": (_sides, {}, None),
        "k": (_float, REQUIRED, _POSITIVE),
        "theta": (_float, 1.0, _POSITIVE),
        "resolution": (_RESOLUTION, {"type": "per_k", "factor": 10.0}, None),
        "mu_inv": (_COEFFICIENT, _CONSTANT_ONE, None),
        "eps": (_COEFFICIENT, _CONSTANT_ONE, None),
        "garding": ({"c_g1": (_float, REQUIRED, _POSITIVE),
                     "c_g2": (_float, REQUIRED, _at_least(0))}, None, None),
    }, REQUIRED, None),
    "perturbation": ({
        "mode": (_str, "absorption", _one_of("absorption", "nearby")),
        "alpha": (_float, 0.3, _at_least(0)),
        "mu_inv": (_COEFFICIENT, None, None),
        "eps": (_COEFFICIENT, None, None),
    }, {}, (lambda p, cfg: p["mode"] == "absorption" or p["mu_inv"] or p["eps"],
            "absorption, or nearby with a mu_inv and/or eps rule")),
    "sweep": ({
        "k_values": (_numbers, lambda cfg: [cfg["problem"]["k"]],
                     (lambda ks, cfg: min(ks) > 0, "numbers > 0")),
        "alpha_values": (_numbers, lambda cfg: [cfg["perturbation"]["alpha"]],
                         (lambda alphas, cfg: min(alphas) >= 0, "numbers >= 0")),
        "resolution": (_RESOLUTION, lambda cfg: cfg["problem"]["resolution"], None),
        "ladder": ({"refine": (_int, 4, _at_least(2))}, None, None),
    }, {}, None),
    # zero samples or iterations would print PASS without checking anything
    "solver": ({
        "tol": (_float, 1e-8, _POSITIVE),
        "max_it": (_int, 500, _at_least(1)),
        "garding_samples": (_int, 1000, _at_least(1)),
    }, {}, None),
    "output": ({"dir": (_str, "out", None)}, {}, None),
}


def _section(table: dict, value, where: str, cfg: dict, out: Optional[dict] = None) -> dict:
    """Read one JSON object against its key table into ``out``."""
    out = {} if out is None else out
    name = where or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    path = {key: f"{where}.{key}" if where else key for key in {*table, *value}}
    required = {key for key, (_, default, _) in table.items() if default is REQUIRED}
    for problem, keys in (("unknown", set(value) - set(table)),
                          ("missing", required - set(value))):
        if keys:
            paths = ", ".join(path[key] for key in sorted(keys))
            raise ConfigError(f"{name}: {problem} keys {sorted(keys)} ({paths})")
    for key, entry in table.items():
        _value(entry, value, key, path[key], cfg, out)
    return out


def _value(entry: tuple, written: dict, key: str, where: str, cfg: dict, out: dict):
    """Read one key of a section into ``out``: its written value, else its
    default, read by its kind and checked by its constraint."""
    kind, default, check = entry
    value = written[key] if key in written else default(cfg) if callable(default) else default
    if value is None and default is None:
        out[key] = None
        return
    if isinstance(kind, dict):
        out[key] = {}  # the keys of a section see its earlier keys
        _section(kind, value, where, cfg, out[key])
    else:
        out[key] = kind(value, where, cfg)
    if check is not None and not check[0](out[key], cfg):
        raise ConfigError(f"{where} must be {check[1]}, got {out[key]!r}")


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
    """Parse a JSON experiment config and read it against ``_CONFIG``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    data: dict = {}
    return ExperimentConfig(_section(_CONFIG, raw, "", data, data))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return read_config(fh.read())


# -- config -> problem objects ------------------------------------------------

def resolution_elements(rule: dict, k: float, length: float) -> int:
    """Number of mesh elements along a length for one resolution rule.

    ``elements`` is an explicit count per axis, whatever its length;
    ``per_k`` puts factor * k elements on each unit of length; ``k_power``
    fits elements of diameter scale * k^{-exponent} into ``length``. A
    count that is not a positive finite number (the rule's numbers
    overflow or underflow at this k) is a ConfigError.
    """
    if rule["type"] == "elements":
        return rule["n"]
    try:
        if rule["type"] == "per_k":
            count = rule["factor"] * k * length
        else:  # k_power: target h = scale * k^{-exponent}
            count = length / (rule["scale"] * k ** (-rule["exponent"]))
    except (OverflowError, ZeroDivisionError):
        count = math.nan
    if not 0 < count < math.inf:
        raise ConfigError(
            f"resolution rule {rule} at k = {k:g} gives no positive finite element count"
        )
    return math.ceil(count)


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
    if rule["type"] == "constant":
        return constant_field(mesh, _as_complex(rule["value"]), role)
    if rule["type"] == "step":
        axis, thr = rule["axis"], rule["threshold"]
        below, above = _as_complex(rule["below"]), _as_complex(rule["above"])
        if mesh.dimension == 1:
            f = lambda x: below if x < thr else above
        else:
            f = lambda p: below if p[axis] < thr else above
        return piecewise_field(mesh, f, role)
    mu_inv, eps = pml_profile_1d(mesh, k, rule["start"], rule["sigma0"])
    return mu_inv if role == Role.MU_INV else eps


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
    if min(n, m, nnz) < 0:
        raise MatrixExchangeError("size line must not be negative", line=ln)

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
    same D and M objects (float64 when their entries are real; a complex
    one is left for :func:`validate_external` to refuse), and the
    parsed ``meta.json`` next to the A1 file (the coefficient-difference
    norms of an exported pair), or ``{}`` when there is none. A meta.json
    that is not a JSON object raises MatrixExchangeError.
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
            try:
                meta = json.load(fh)
            except ValueError as exc:  # also a file that is not UTF-8
                raise MatrixExchangeError(f"{meta_path}: {exc}") from None
        if not isinstance(meta, dict):
            raise MatrixExchangeError(f"{meta_path} is not a JSON object")
    D, M = (X if X.imag.count_nonzero() else X.real.astype(float)
            for X in (mats["D"], mats["M"]))
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
