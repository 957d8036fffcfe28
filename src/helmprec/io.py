"""Experiment configs, sparse-matrix exchange files, report serialization.

A JSON config is read against one key table, ``_CONFIG``: each key of
each section maps to (kind, default, constraint). A kind is a nested
section's table or a reader: finite float, integer, finite complex (a
number or a [re, im] pair, kept as written), string, list or pair of numbers,
the boundary sides of the mesh, or a rule (an object whose 'type' names
the table of its other keys). A default is REQUIRED, a value, or a
function of the config read so far (``sweep.k_values`` defaults to
``[problem.k]``); a None default, or a function that gives None, makes
the key optional. A constraint is None or (test, text), and a value
failing test(value, cfg) "must be <text>". A key that only one
perturbation mode reads (``perturbation.alpha`` and ``sweep.alpha_values``
in absorption mode, the rules ``perturbation.mu_inv`` and
``perturbation.eps`` in nearby mode) is None in the other mode, where
writing one is an error. The values of a sweep grid must print distinct
summary-line names (``point_name``), and the values of a mu_inv rule
must have real parts > 0. What a coefficient's slot needs of its field
(a positive-definite Re(mu^-1), a scalar eps) ``ProblemSpec`` checks. The
walker ``_section`` rejects unknown and missing keys, reads a default as
it reads a written value, applies the constraint and names the key in
every ``ConfigError``. A read config is the plain
dict of its sections, every default filled in, and re-reading its JSON
dump gives the same dict. A config that is not UTF-8 text is a
``ConfigError`` too; a matrix file that is not is a
``MatrixExchangeError``.

Matrices travel in Matrix Market coordinate format with complex
entries (real/imag pairs), 1-based indices, and symmetry 'general' or
'hermitian', written by ``scipy.io.mmwrite`` in shortest round-trip
digits so doubles round-trip exactly. An exchange directory holds
A1.mtx, A2.mtx, D.mtx, M.mtx and meta.json, and is read and written
whole; its reader alone refuses a malformed one, naming the file. Each
report class declares its file forms, as the ordered names of the
attributes they hold: ``JSON_KEYS`` for a JSON object, and
``CSV_COLUMNS`` for CSV rows, one per entry of a ladder, else one for
the report. ``write_report`` writes either form, as the file's suffix
names, from that declaration alone, so identical inputs give
byte-identical files; a form the class does not declare is refused. In
JSON a check is the object of its fields, and a numpy scalar the Python
number it holds.

A config describes a problem only: a run's seed and output directory
are the command line's ``--seed`` and ``--out-dir``, and a config with a
``seed`` or ``output`` key is a ``ConfigError`` that names the key.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .assemble import MatrixSystem, ProblemSpec
from .bounds import checked_norms
from .coeffs import CoefficientField, constant_field, piecewise_field, pml_profile_1d
from .errors import ConfigError, InvalidArgumentError, MatrixExchangeError
from .mesh import MAX_INDEX, SIDES, BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh

SCHEMA_VERSION = 1

_TAGS = {t.value: t for t in BoundaryTag}
COEFFICIENTS = ("mu_inv", "eps")  # the config keys, and ProblemSpec slots, of the coefficients


def _as_complex(v) -> complex:
    """A validated coefficient value, a number or a [re, im] pair."""
    return complex(*v) if isinstance(v, list) else complex(v)


def _number(value, where: str, kind=float):
    """``kind(value)`` of a JSON number, or a ConfigError naming the key.

    Only a JSON number is a number: a string or a boolean is rejected
    rather than converted, and a complex key takes a number or a [re, im]
    pair of numbers. An integer key rejects a non-integral number rather
    than truncating it (3.0 and 1e3 are integers). A float or complex key
    rejects a non-finite number (``NaN``, ``Infinity`` or a literal that
    overflows, such as 1e400), or a pair with one.
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
    if kind is not int and not cmath.isfinite(number):
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


def _mode_only(mode: str, kind, default, check) -> tuple:
    """The table entry of a key that only perturbation mode ``mode`` reads:
    its default is ``default(cfg)`` in that mode and None in the other,
    where a written value is refused, not ignored."""
    def read(value, where, cfg):
        if cfg["perturbation"]["mode"] != mode:
            raise ConfigError(
                f"{where} is not read in {cfg['perturbation']['mode']} mode; remove it")
        return kind(value, where, cfg)
    return (read, lambda cfg: default(cfg) if cfg["perturbation"]["mode"] == mode else None,
            check)


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
# a pml rule's 1/s has Re > 0 unless it underflows, which ProblemSpec refuses
_MU_INV = (lambda rule, cfg: all(_as_complex(rule[key]).real > 0
                                 for key in ("value", "below", "above") if key in rule),
           "a rule whose values have real parts > 0")
_RESOLUTION = _rule({
    "elements": {"n": (_int, REQUIRED, _at_least(1))},
    "per_k": {"factor": (_float, REQUIRED, _POSITIVE)},
    "k_power": {"scale": (_float, 1.0, _POSITIVE), "exponent": (_float, REQUIRED, None)},
})
_CONSTANT_ONE = {"type": "constant", "value": [1.0, 0.0]}


def point_name(prefix: str, k: float, alpha: Optional[float]) -> str:
    """The summary-line name of a sweep point or a ladder entry, such as
    ``sweep[k=10,alpha=0.3]``, or ``ladder[k=10]`` for alpha None: each
    value in ``{:g}`` form, to 6 significant digits."""
    return f"{prefix}[k={k:g}" + (f",alpha={alpha:g}]" if alpha is not None else "]")


# a sweep names its summary lines by k and alpha, so no two values of a grid
# may give the same name
_K_VALUES = (lambda ks, cfg: min(ks) > 0
             and len({point_name("sweep", k, None) for k in ks}) == len(ks),
             "numbers > 0 that name distinct summary lines (6 significant digits)")
_ALPHA_VALUES = (lambda alphas, cfg: min(alphas) >= 0
                 and len({point_name("sweep", cfg["sweep"]["k_values"][0], a)
                          for a in alphas}) == len(alphas),
                 "numbers >= 0 that name distinct summary lines (6 significant digits)")

_CONFIG = {
    "schema_version": (_int, SCHEMA_VERSION, _one_of(SCHEMA_VERSION)),
    "problem": ({
        "dimension": (_int, REQUIRED, _one_of(1, 2)),
        "domain": (_pair, lambda cfg: [0.0, 1.0] if cfg["problem"]["dimension"] == 1
                   else [1.0, 1.0], _DOMAIN),
        "boundary": (_sides, {}, None),
        "k": (_float, REQUIRED, _POSITIVE),
        "theta": (_float, 1.0, _POSITIVE),
        "resolution": (_RESOLUTION, {"type": "per_k", "factor": 10.0}, None),
        "mu_inv": (_COEFFICIENT, _CONSTANT_ONE, _MU_INV),
        "eps": (_COEFFICIENT, _CONSTANT_ONE, None),
        "garding": ({"c_g1": (_float, REQUIRED, _POSITIVE),
                     "c_g2": (_float, REQUIRED, _at_least(0))}, None, None),
    }, REQUIRED, None),
    "perturbation": ({
        "mode": (_str, "absorption", _one_of("absorption", "nearby")),
        "alpha": _mode_only("absorption", _float, lambda cfg: 0.3, _at_least(0)),
        "mu_inv": _mode_only("nearby", _COEFFICIENT, lambda cfg: None, _MU_INV),
        "eps": _mode_only("nearby", _COEFFICIENT, lambda cfg: None, None),
    }, {}, (lambda p, cfg: p["mode"] == "absorption" or p["mu_inv"] or p["eps"],
            "absorption, or nearby with a mu_inv and/or eps rule")),
    "sweep": ({
        "k_values": (_numbers, lambda cfg: [cfg["problem"]["k"]], _K_VALUES),
        "alpha_values": _mode_only("absorption", _numbers,
                                   lambda cfg: [cfg["perturbation"]["alpha"]], _ALPHA_VALUES),
        "resolution": (_RESOLUTION, lambda cfg: cfg["problem"]["resolution"], None),
        "ladder": ({"refine": (_int, 4, _at_least(2))}, None, None),
    }, {}, None),
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
    if callable(default):
        default = default(cfg)
    value = written[key] if key in written else default
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


def read_config(text: str) -> dict:
    """Parse a JSON experiment config and read it against ``_CONFIG``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg: dict = {}
    return _section(_CONFIG, raw, "", cfg, cfg)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    return read_config(text)


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


def field_from_rule(mesh: Mesh, rule: dict, key: str, k: float) -> CoefficientField:
    """Materialize the rule of coefficient ``key`` (of ``COEFFICIENTS``) on a
    mesh; only a ``pml`` rule reads the key, to pick its half of the pair."""
    if rule["type"] == "constant":
        return constant_field(mesh, _as_complex(rule["value"]))
    if rule["type"] == "step":
        axis, thr = rule["axis"], rule["threshold"]
        below, above = _as_complex(rule["below"]), _as_complex(rule["above"])
        if mesh.dimension == 1:
            f = lambda x: below if x < thr else above
        else:
            f = lambda p: below if p[axis] < thr else above
        return piecewise_field(mesh, f)
    return dict(zip(COEFFICIENTS, pml_profile_1d(mesh, k, rule["start"], rule["sigma0"])))[key]


def build_problem(problem: dict, k: Optional[float] = None) -> ProblemSpec:
    """ProblemSpec of a config's problem section on its own mesh,
    optionally at another k."""
    k = problem["k"] if k is None else k
    mesh = build_mesh(problem, k)
    fields = [field_from_rule(mesh, problem[key], key, k) for key in COEFFICIENTS]
    return ProblemSpec(k, mesh, *fields, problem["theta"])


# -- matrix exchange ----------------------------------------------------------

# One entry line of a coordinate file: i j re im.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])


def write_matrix_mm(path: str, X, symmetry: str = "general"):
    """Write one sparse complex matrix in coordinate format with
    ``scipy.io.mmwrite``, values in shortest round-trip digits (lossless
    for doubles). ``symmetry='hermitian'`` stores the lower triangle only.
    """
    if symmetry not in ("general", "hermitian"):
        raise InvalidArgumentError(f"unsupported symmetry {symmetry!r}")
    coo = sp.coo_matrix(X, dtype=complex)
    if symmetry == "hermitian":
        coo = sp.tril(coo, format="coo")
    with open(path, "wb") as fh:  # mmwrite adds .mtx to a path without it
        if coo.nnz == 0:  # mmwrite would label it 'real'
            n, m = coo.shape
            fh.write(f"%%MatrixMarket matrix coordinate complex {symmetry}\n{n} {m} 0\n".encode())
            return
        import scipy.io  # here: at module level it slows every command's start-up

        scipy.io.mmwrite(fh, coo, field="complex", symmetry=symmetry)


def _read_text(path: str) -> str:
    """The text of an exchange file, or a MatrixExchangeError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise MatrixExchangeError("not found", path) from None
    except UnicodeDecodeError as exc:
        raise MatrixExchangeError(f"not UTF-8 text: {exc}", path) from None


def read_matrix_mm(path: str) -> sp.csr_matrix:
    """Read one coordinate-format complex matrix; each error names ``path``
    and, where one is at fault, its line.

    Comment and blank lines may stand anywhere after the banner. One
    ``np.loadtxt`` call parses the entry lines; array masks check their
    indices and values, and each reports its first hit.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise MatrixExchangeError("empty file", path, 1)
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise MatrixExchangeError("malformed header banner", path, 1)
    _, obj, fmt, field, symmetry = banner
    if (obj, fmt) != ("matrix", "coordinate"):
        raise MatrixExchangeError(f"unsupported object/format {obj}/{fmt}", path, 1)
    if field != "complex":
        raise MatrixExchangeError(f"field must be 'complex', got {field!r}", path, 1)
    if symmetry not in ("general", "hermitian"):
        raise MatrixExchangeError(f"unsupported symmetry {symmetry!r}", path, 1)

    # the numbers of the lines after the banner that are not comments or blank
    numbers = [ln for ln, text in enumerate(lines[1:], start=2)
               if not text.startswith("%") and text.strip()]
    if not numbers:
        raise MatrixExchangeError("missing size line", path, len(lines))
    ln, numbers = numbers[0], numbers[1:]
    parts = lines[ln - 1].split()
    if len(parts) != 3:
        raise MatrixExchangeError("size line must be 'rows cols nnz'", path, ln)
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixExchangeError("size line must contain integers", path, ln)
    if min(n, m, nnz) < 0:
        raise MatrixExchangeError("size line must not be negative", path, ln)
    if max(n, m) > MAX_INDEX:
        raise MatrixExchangeError(
            f"size line must give at most {MAX_INDEX} rows and columns", path, ln)

    texts = [lines[k - 1] for k in numbers]
    entries = np.empty(0, _ENTRY)
    try:
        if texts:  # np.loadtxt warns on empty input
            entries = np.loadtxt(texts, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        for ln, text in zip(numbers, texts):  # name the first line that fails alone
            try:
                np.loadtxt([text], dtype=_ENTRY, comments=None)
            except ValueError:
                problem = ("unparseable entry" if len(text.split()) == 4
                           else "entry must be 'i j re im' (complex real/imag pair)")
                raise MatrixExchangeError(problem, path, ln) from None
        raise
    i, j = entries["i"], entries["j"]
    vals = np.empty(len(entries), dtype=complex)
    # not re + 1j * im, which makes the real part nan where im is infinite
    vals.real, vals.imag = entries["re"], entries["im"]
    for bad, problem in (
        ((i < 1) | (j < 1), "violates the 1-based convention"),
        ((i > n) | (j > m), f"out of range for {n}x{m}"),
        ((j > i) & (symmetry == "hermitian"),
         "is above the diagonal: hermitian files store the lower triangle only"),
        (~np.isfinite(vals), "has a value that is not finite"),
    ):
        if bad.any():
            first = np.argmax(bad)
            raise MatrixExchangeError(f"index ({i[first]}, {j[first]}) {problem}",
                                      path, numbers[first])
    if len(entries) != nnz:
        raise MatrixExchangeError(
            f"expected {nnz} entries, found {len(entries)}", path, len(lines)
        )
    X = sp.coo_matrix((vals, (i - 1, j - 1)), shape=(n, m)).tocsr()
    if symmetry == "hermitian":
        X = (X + sp.tril(X, k=-1).getH()).tocsr()
    return X


def write_matrix_exchange(sys1: MatrixSystem, sys2: MatrixSystem, directory: str,
                          dmu: float, deps: float) -> dict[str, str]:
    """Write a system pair to a directory: A1.mtx and A2.mtx, the system
    matrices; D.mtx and M.mtx, the norm matrices of ``sys1``; and
    meta.json with the coefficient-difference norms ``dmu`` and ``deps``,
    which an import reads. Returns the written paths by file name."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, X, symmetry in (
        ("A1.mtx", sys1.A, "general"),
        ("A2.mtx", sys2.A, "general"),
        ("D.mtx", sys1.D, "hermitian"),
        ("M.mtx", sys1.M, "hermitian"),
    ):
        paths[name] = os.path.join(directory, name)
        write_matrix_mm(paths[name], X, symmetry)
    paths["meta.json"] = os.path.join(directory, "meta.json")
    with open(paths["meta.json"], "w", encoding="utf-8") as fh:
        json.dump({"dmu": dmu, "deps": deps}, fh, indent=2)
        fh.write("\n")
    return paths


def read_matrix_exchange(directory: str) -> tuple[MatrixSystem, MatrixSystem,
                                                  tuple[float, float]]:
    """Read a system pair from the directory :func:`write_matrix_exchange`
    writes: A1.mtx, A2.mtx, D.mtx, M.mtx and meta.json.

    Returns ``(sys1, sys2, (dmu, deps))``: the systems of A1 and A2 on
    the same float64 D and M objects, and meta.json's norms, checked by
    :func:`~helmprec.bounds.checked_norms`. A MatrixExchangeError names
    the file at fault: one missing or not UTF-8, one :func:`read_matrix_mm`
    refuses, an A1 not square and non-empty, a matrix not of A1's size, a
    D or M that is not real, or a meta.json that is not such an object.
    """
    mats = {}
    for name in ("A1", "A2", "D", "M"):
        path = os.path.join(directory, f"{name}.mtx")
        X = read_matrix_mm(path)
        n = mats["A1"].shape[0] if mats else X.shape[0]
        if X.shape != (n, n) or not n:
            want = f"{n}x{n} as A1.mtx" if mats else "square and non-empty"
            raise MatrixExchangeError(f"matrix is {X.shape[0]}x{X.shape[1]}, not {want}", path)
        if name in ("D", "M"):
            if X.imag.count_nonzero():
                raise MatrixExchangeError(
                    "matrix has a nonzero imaginary part; D and M must be real", path)
            X = X.real.astype(float)
        mats[name] = X
    meta_path = os.path.join(directory, "meta.json")
    try:
        meta = json.loads(_read_text(meta_path))
    except ValueError as exc:
        raise MatrixExchangeError(str(exc), meta_path) from None
    if not isinstance(meta, dict):
        raise MatrixExchangeError("not a JSON object", meta_path)
    try:
        norms = checked_norms(meta.get("dmu"), meta.get("deps"))
    except InvalidArgumentError as exc:
        raise MatrixExchangeError(str(exc), meta_path) from None
    A1, A2, D, M = mats.values()
    return MatrixSystem(A1, D, M), MatrixSystem(A2, D, M), norms


# -- report serialization -----------------------------------------------------

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


def _create(path: str):
    """``path`` opened to write text, its directory made first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path: str, columns, rows):
    """Write rows (dicts) under a documented header; deterministic output."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_f(row.get(c)) for c in columns))
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report, path: str) -> str:
    """Serialize a report in the form its class declares, to JSON or CSV as
    the suffix of ``path`` says, ``.json`` or ``.csv``: the object of its
    ``JSON_KEYS``, or one row of its ``CSV_COLUMNS`` per entry of a ladder,
    else of the report itself. The file's directory is made if missing."""
    fmt = os.path.splitext(path)[1]
    if fmt not in (".json", ".csv"):
        raise InvalidArgumentError(f"report path {path!r} does not end in .json or .csv")
    keys = getattr(report, "JSON_KEYS" if fmt == ".json" else "CSV_COLUMNS", None)
    if keys is None:
        raise InvalidArgumentError(f"cannot write {type(report).__name__} as {fmt}")
    if fmt == ".csv":
        rows = getattr(report, "entries", (report,))
        write_csv(path, keys, [{key: getattr(row, key) for key in keys} for row in rows])
        return path
    with _create(path) as fh:
        # a check is the object of its fields; np.float64 is a float, but
        # np.bool_ and np.integer need their item()
        json.dump({key: getattr(report, key) for key in keys}, fh, indent=2,
                  default=lambda o: dataclasses.asdict(o) if dataclasses.is_dataclass(o)
                  else o.item())
        fh.write("\n")
    return path
