"""Output check of one helmprec run against the committed reference.

The reference (``reference/<workload>/``) holds the report files and the
summary verdicts of a seed-0 run. Verdicts, ``n``, ``n_ref``, iteration
counts and ``error`` must match exactly; every other float must agree
within the package's 1e-12 relative contract. Gårding's sampled worst
margin and identity error depend on the seed, so only their verdicts are
checked. A mismatch is charged to the summary line(s) the value belongs to.

A reference row that records an error (the known ``NoConvergenceError``
rows of ``sweep1d``) is not frozen: a later run in which that row succeeds
counts as an improvement, provided the row is complete and numeric.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

REL_TOL = 1e-12
EXACT_COLUMNS = {"n", "n_ref", "fp_iters", "gmres_iters", "error", "singular", "passed"}
SEED_SAMPLED = {"worst_rel_margin", "identity_max_rel_err"}
_LINE = re.compile(r"^([A-Z]+) (\S+): margin=")


def parse_summary(stdout: str) -> dict[str, str]:
    """{check name: verdict} from the CLI's summary lines, in order."""
    lines = {}
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            lines[m.group(2)] = m.group(1)
    return lines


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _row_line(prefix: str, row: dict) -> str:
    """Summary-line name of a sweep or ladder CSV row (as ``cli`` prints it)."""
    name = f"{prefix}[k={float(row['k']):g}"
    if prefix == "sweep" and row.get("alpha"):
        name += f",alpha={float(row['alpha']):g}"
    return name + "]"


def _compare_csv(ref_path: str, got_path: str, prefix: str, per_row: bool):
    with open(ref_path, newline="") as fh:
        ref = list(csv.DictReader(fh))
    with open(got_path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
        header = reader.fieldnames
    if header != list(ref[0].keys()) or len(got) != len(ref):
        yield prefix, f"{os.path.basename(got_path)}: header or row count differs"
        return
    for r, g in zip(ref, got):
        line = _row_line(prefix, r) if per_row else prefix
        if per_row and _row_line(prefix, g) != line:
            yield line, f"row order differs at {line}"
            continue
        if r.get("error") and not g.get("error"):
            # a reference failure that now succeeds: check the row is complete
            empty = [c for c in ("n", "cdis1", "cdis2", "lhs_D", "passed") if not g[c]]
            bad = [c for c, v in g.items()
                   if c not in EXACT_COLUMNS and v and _float(v) is None]
            if empty or bad:
                yield line, f"{line}: recovered row incomplete ({empty + bad})"
            continue
        for col, rv in r.items():
            gv = g[col]
            if col in EXACT_COLUMNS or not rv or not gv:
                ok = rv == gv
            else:
                rf, gf = _float(rv), _float(gv)
                ok = rv == gv if rf is None or gf is None else close(rf, gf)
            if not ok:
                yield line, f"{line}.{col}: {gv} != reference {rv}"


def _compare_json(ref, got, prefix: str, where: str = ""):
    """Recursive comparison; check entries are charged to their own line."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            yield prefix, f"{where or prefix}: keys differ"
            return
        for key, rv in ref.items():
            if key in SEED_SAMPLED:
                continue
            if key == "checks" and isinstance(rv, list) and isinstance(got[key], list) \
                    and len(rv) == len(got[key]):
                for rc, gc in zip(rv, got[key]):
                    line = f"{prefix}.{rc.get('name')}"
                    yield from _compare_json(rc, gc, line, line)
                continue
            yield from _compare_json(rv, got[key], prefix, f"{where}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            yield prefix, f"{where}: length differs"
            return
        for i, (rv, gv) in enumerate(zip(ref, got)):
            yield from _compare_json(rv, gv, prefix, f"{where}[{i}]")
    elif isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not close(ref, float(got)):
            yield prefix, f"{where}: {got!r} != reference {ref!r}"
    elif type(ref) is not type(got) or ref != got:
        yield prefix, f"{where}: {got!r} != reference {ref!r}"


def compare_file(ref_dir: str, out_dir: str, name: str, prefix: str):
    """(line or prefix, message) for every mismatch in one report file."""
    ref_path, got_path = os.path.join(ref_dir, name), os.path.join(out_dir, name)
    if not os.path.exists(got_path):
        return [(prefix, f"{name}: missing")]
    if name.endswith(".csv"):
        return list(_compare_csv(ref_path, got_path, prefix, prefix in ("sweep", "ladder")))
    with open(ref_path) as fh:
        ref = json.load(fh)
    try:
        with open(got_path) as fh:
            got = json.load(fh)
    except json.JSONDecodeError as exc:
        return [(prefix, f"{name}: not JSON ({exc})")]
    return list(_compare_json(ref, got, prefix))


def reference_lines(ref_dir: str) -> dict[str, str]:
    with open(os.path.join(ref_dir, "summary.json")) as fh:
        return json.load(fh)["lines"]


def check_run(ref_dir: str, out_dir: str, files, stdout: str, exit_code):
    """Verdicts and failures of one run.

    Returns ``(verdicts, failed, messages)``: the run's {line: verdict},
    the set of reference lines that failed the check (verdict changed for
    the worse, value mismatch, missing output) and readable reasons.
    """
    ref_lines = reference_lines(ref_dir)
    got = parse_summary(stdout)
    failed, messages = set(), []
    if exit_code is None:
        return got, set(ref_lines), ["run crashed"]
    for name in set(got) - set(ref_lines):
        failed.add(name)
        messages.append(f"{name}: not in the reference")
    for name, verdict in ref_lines.items():
        g = got.get(name)
        if g is None or (g != verdict and not (verdict == "FAIL" and g == "PASS")):
            failed.add(name)
            messages.append(f"{name}: {g} (reference {verdict})")
    for fname, prefix in files:
        for where, msg in compare_file(ref_dir, out_dir, fname, prefix):
            hit = [n for n in ref_lines if n == where]
            if not hit:  # a file-wide value: charge every line of the report
                hit = [n for n in ref_lines if n.startswith(where)]
            failed.update(hit or [where])
            messages.append(msg)
    expected_exit = 0 if all(v == "PASS" for v in got.values()) else 1
    if exit_code != expected_exit:
        failed.update(ref_lines)
        messages.append(f"exit code {exit_code}, expected {expected_exit}")
    return got, failed, messages
