"""Batch command-line interface: verify, sweep, import, export.

Every command reads its input in one call, a config (a dict) or an
exchange directory, runs its checks, writes report files into the output
directory, which its first write makes, prints one summary line per
check, and exits nonzero iff an asserted inequality failed or an error
occurred. Runs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from . import io as hio
from .assemble import (
    ProblemSpec,
    assemble_load,
    assemble_system,
    validate_external,
)
from .bounds import (
    BoundReport,
    GardingConstants,
    coefficient_differences,
    garding_check,
    garding_constants_for,
    infsup_ladder,
    nearby_bound_report,
    norm_equivalence_report,
)
from .errors import HelmprecError, InvalidArgumentError
from .solvers import fixed_point, gmres

SWEEP_COLUMNS = BoundReport.CSV_COLUMNS + ("fp_iters", "gmres_iters", "error")


@dataclass
class ScenarioResult:
    """Paths of emitted reports, per-check summaries, and the exit status."""

    paths: dict[str, str] = field(default_factory=dict)
    summaries: list[tuple[str, bool, float]] = field(default_factory=list)
    exit_status: int = 0

    def add(self, name: str, passed: bool, margin: float):
        self.summaries.append((name, passed, margin))
        if not passed:
            self.exit_status = 1

    def print_summary(self):
        for name, passed, margin in self.summaries:
            flag = "PASS" if passed else "FAIL"
            print(f"{flag} {name}: margin={margin:.6e}")


def _add_report_checks(result: ScenarioResult, prefix: str, checks):
    for c in checks:
        result.add(f"{prefix}.{c.name}", c.passed, c.margin)


def _add_bound_report(result: ScenarioResult, rep, out: str):
    """Write a bound report as bounds.json and bounds.csv and add its checks."""
    for key, name in (("bounds", "bounds.json"), ("bounds_csv", "bounds.csv")):
        result.paths[key] = hio.write_report(rep, os.path.join(out, name))
    if rep.singular:
        result.add("bounds.nonsingular", False, math.nan)
    else:
        _add_report_checks(result, "bounds", rep.checks)


def _check_seed(seed: int):
    """numpy's seeding takes non-negative seeds only."""
    if seed < 0:
        raise InvalidArgumentError(f"--seed must be >= 0, got {seed}")


def _perturbed(cfg: dict, sys1, alpha=None):
    """(sys2, absorption or None): the perturbed system of the config's pair."""
    pert, spec1 = cfg["perturbation"], sys1.spec
    if pert["mode"] == "absorption":
        a = pert["alpha"] if alpha is None else alpha
        return assemble_system(spec1.with_absorption(a)), a
    fields = [
        getattr(spec1, key) if pert[key] is None
        else hio.field_from_rule(spec1.mesh, pert[key], key, spec1.k)
        for key in hio.COEFFICIENTS
    ]
    return assemble_system(ProblemSpec(spec1.k, spec1.mesh, *fields, spec1.theta)), None


def cmd_verify(config_path: str, out_dir: str = "out", seed: int = 0) -> ScenarioResult:
    """Run the full bound-verification scenario of one config.

    A1's LU factors serve the norm-equivalence report, which makes A1's
    C_dis, and are dropped right after it: the nearby report reads that
    C_dis from the cache, so A2's factors are made and used beside D's
    Gram factor only."""
    _check_seed(seed)
    cfg = hio.load_config(config_path)
    result = ScenarioResult()

    sys1 = assemble_system(hio.build_problem(cfg["problem"]))
    sys2, alpha = _perturbed(cfg, sys1)
    if cfg["problem"]["garding"] is not None:
        constants = GardingConstants(**cfg["problem"]["garding"])
    else:
        constants = garding_constants_for(sys1.spec)

    grep = garding_check(sys1, constants, seed=seed)
    result.paths["garding"] = hio.write_report(grep, os.path.join(out_dir, "garding.json"))
    _add_report_checks(result, "garding", grep.checks)

    nrep = norm_equivalence_report(sys1, constants, seed=seed)
    result.paths["norm_equivalence"] = hio.write_report(
        nrep, os.path.join(out_dir, "norm_equivalence.json"))
    _add_report_checks(result, "norms", nrep.checks)
    sys1.drop_lu()

    brep = nearby_bound_report(sys1, sys2, seed=seed, alpha=alpha)
    _add_bound_report(result, brep, out_dir)
    return result


def _sweep_point(cfg, sys1, k, alpha, seed, result: ScenarioResult):
    """One (k, alpha) row, whose summary line it adds to ``result``: FAIL with
    margin nan on an error, FAIL ``.nonsingular`` for a singular A2, else the
    report's verdict. ``sys1`` is k's system or the error building it raised."""
    row = {c: None for c in SWEEP_COLUMNS}
    row.update({"k": k, "alpha": alpha, "error": ""})
    name = hio.point_name("sweep", k, alpha)

    def failed(exc: HelmprecError) -> dict:
        row["error"] = type(exc).__name__
        result.add(name, False, math.nan)
        return row

    if isinstance(sys1, HelmprecError):
        # recorded, not raised: a raise would add a frame to its traceback
        # at every alpha
        return failed(sys1)
    try:
        sys2, alpha = _perturbed(cfg, sys1, alpha)
        rep = nearby_bound_report(sys1, sys2, seed=seed, alpha=alpha)
        row.update({c: getattr(rep, c) for c in BoundReport.CSV_COLUMNS})
        if rep.singular:
            result.add(name + ".nonsingular", False, math.nan)
            return row
        b = assemble_load(sys1.spec)
        fp = fixed_point(sys1, sys2, b)
        lu2 = sys2.lu
        gm = gmres(lambda x: lu2.solve(sys1.A @ x), lu2.solve(b), sys1.D)
        row["fp_iters"] = fp.iterations
        row["gmres_iters"] = gm.iterations
    except HelmprecError as exc:
        return failed(exc)
    result.add(name, rep.passed, 0.0)
    return row


def cmd_sweep(config_path: str, out_dir: str = "out", seed: int = 0) -> ScenarioResult:
    """Evaluate the config's (k, alpha) grid; one CSV row and one summary line
    per point. Each k's first system, with its factors, C_dis and mass
    extremes, serves every alpha and is the working rung of the inf-sup
    ladder; it is freed before the next k is assembled. A k whose system,
    C_dis or reference rung fails has no ladder entry and a FAIL ladder line
    with margin nan; the other k keep theirs."""
    _check_seed(seed)
    cfg = hio.load_config(config_path)
    result = ScenarioResult()

    sweep = cfg["sweep"]
    problem = dict(cfg["problem"], resolution=sweep["resolution"])
    alphas = sweep["alpha_values"] or [None]  # None in nearby mode
    rows, rungs = [], []
    for k in sweep["k_values"]:
        try:
            sys1 = assemble_system(hio.build_problem(problem, k))
        except HelmprecError as exc:
            sys1 = exc
        rows += [_sweep_point(cfg, sys1, k, a, seed, result) for a in alphas]
        if sweep["ladder"] is not None and not isinstance(sys1, HelmprecError):
            try:
                rungs.append((sys1.spec, sys1.n, sys1.c_dis(seed)))
            except HelmprecError:
                pass  # no working rung: k's ladder line fails below
        sys1 = None  # k's factors must not stay alive beside the next k's

    sweep_path = os.path.join(out_dir, "sweep.csv")
    hio.write_csv(sweep_path, SWEEP_COLUMNS, rows)
    result.paths["sweep"] = sweep_path

    if sweep["ladder"] is not None:
        ladder = infsup_ladder(rungs, sweep["ladder"]["refine"], seed=seed)
        result.paths["ladder"] = hio.write_report(ladder, os.path.join(out_dir, "ladder.csv"))
        entries = {e.k: e for e in ladder.entries}
        for k in sweep["k_values"]:
            e = entries.get(k)
            if e is None:  # k's system, its C_dis or its reference rung failed
                result.add(hio.point_name("ladder", k, None), False, math.nan)
            else:  # a singular entry's ratio is nan
                result.add(hio.point_name("ladder", k, None), not e.singular, e.ratio)
    return result


def cmd_export(config_path: str, out_dir: str = "out") -> ScenarioResult:
    """Assemble the config's pair and write it as matrix exchange files; it
    checks nothing, so its result holds only the written paths."""
    cfg = hio.load_config(config_path)
    sys1 = assemble_system(hio.build_problem(cfg["problem"]))
    sys2, _ = _perturbed(cfg, sys1)
    norms = coefficient_differences(sys1.spec, sys2.spec)
    result = ScenarioResult()
    result.paths.update(hio.write_matrix_exchange(sys1, sys2, out_dir, *norms))
    return result


def cmd_import(matrix_dir: str, out_dir: str | None = None, seed: int = 0) -> ScenarioResult:
    """Read an external pair, certify its D and M, and run the nearby bound
    report.

    The exchange directory, meta.json's norms included, is the command's
    only input, and its reader refuses a malformed one before anything is
    factored. A1's C_dis is made after D and M are certified, and its LU
    factors are dropped, so A2's are made and used beside D's Gram factor
    only.
    """
    _check_seed(seed)
    sys1, sys2, (dmu, deps) = hio.read_matrix_exchange(matrix_dir)
    validate_external(sys1, seed)
    sys1.c_dis(seed)
    sys1.drop_lu()
    rep = nearby_bound_report(sys1, sys2, dmu=dmu, deps=deps, seed=seed)
    result = ScenarioResult()
    _add_bound_report(result, rep, out_dir or matrix_dir)
    return result


def _parser() -> argparse.ArgumentParser:
    """The command line: each command declares only the flags it uses, each
    under the name of its command function's parameter."""
    p = argparse.ArgumentParser(
        prog="helmprec",
        description="Assemble Helmholtz systems and verify preconditioner bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)
    config = ("--config", dict(dest="config_path", required=True, help="path to JSON config"))
    out_dir = ("--out-dir", dict(default="out", help="output directory (default: out)"))
    seed = ("--seed", dict(type=int, default=0, help="seed of the estimates (default: 0)"))
    for name, doc, flags in (
        ("verify", "run bound checks for one config", (config, out_dir, seed)),
        ("sweep", "evaluate the (k, alpha) grid of one config", (config, out_dir, seed)),
        ("export", "write the config's system pair as matrix files", (config, out_dir)),
        ("import", "run bound checks on external matrices", (
            ("--dir", dict(dest="matrix_dir", required=True,
                           help="directory with A1.mtx, A2.mtx, D.mtx, M.mtx and meta.json")),
            ("--out-dir", dict(default=None, help="output directory (default: --dir)")), seed,
        )),
    ):
        sp = sub.add_parser(name, help=doc)
        for flag, options in flags:
            sp.add_argument(flag, **options)
    return p


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    # looked up when called, so a rebinding of a cmd_* function is what runs
    command = globals()["cmd_" + args.pop("command")]
    try:
        result = command(**args)
    except (HelmprecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result.print_summary()
    for name, path in result.paths.items():
        print(f"wrote {name}: {path}")
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())
