"""Batch command-line interface: verify, sweep, import, export.

Every command reads a config (or matrix files), runs its checks, writes
report files into the output directory, prints one summary line per
check, and exits nonzero iff an asserted inequality failed or an error
occurred. Runs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io as hio
from .assemble import (
    ProblemSpec,
    assemble_load,
    assemble_system,
    validate_external,
)
from .bounds import (
    IDENTITY_RTOL,
    GardingConstants,
    garding_check,
    garding_constants_for,
    infsup_ladder,
    nearby_bound_report,
    norm_equivalence_report,
)
from .coeffs import Role, field_diff_sup_norm
from .errors import HelmprecError, InvalidArgumentError
from .solvers import fixed_point, gmres

SWEEP_COLUMNS = hio.BOUND_COLUMNS + ("fp_iters", "gmres_iters", "error")


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

    def print_summary(self, out=None):
        out = sys.stdout if out is None else out
        for name, passed, margin in self.summaries:
            flag = "PASS" if passed else "FAIL"
            print(f"{flag} {name}: margin={margin:.6e}", file=out)


def _add_report_checks(result: ScenarioResult, prefix: str, checks):
    for c in checks:
        result.add(f"{prefix}.{c.name}", c.passed, c.margin)


def _add_bound_report(result: ScenarioResult, rep, out: str):
    """Write a bound report as bounds.json and bounds.csv and add its checks."""
    for key, name, fmt in (("bounds", "bounds.json", "json"),
                           ("bounds_csv", "bounds.csv", "csv")):
        result.paths[key] = hio.write_report(rep, os.path.join(out, name), fmt)
    if rep.singular:
        result.add("bounds.nonsingular", False, math.nan)
    else:
        _add_report_checks(result, "bounds", rep.checks)


def _check_seed(seed):
    """numpy's seeding takes non-negative seeds only."""
    if seed is not None and seed < 0:
        raise InvalidArgumentError(f"--seed must be >= 0, got {seed}")


def _load(config_path: str, out_dir):
    """(config, output directory) of a config command; makes the directory."""
    cfg = hio.load_config(config_path)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _prologue(config_path: str, out_dir, seed):
    """(config, output directory, seed) of a checking config command."""
    _check_seed(seed)
    cfg, out = _load(config_path, out_dir)
    return cfg, out, cfg.seed if seed is None else seed


def _perturbed(cfg: hio.ExperimentConfig, sys1, alpha=None):
    """(sys2, absorption or None): the perturbed system of the config's pair."""
    pert, spec1 = cfg.perturbation, sys1.spec
    if pert["mode"] == "absorption":
        a = pert["alpha"] if alpha is None else alpha
        return assemble_system(spec1.with_absorption(a)), a
    fields = [
        getattr(spec1, key) if pert[key] is None
        else hio.field_from_rule(spec1.mesh, pert[key], role, spec1.k)
        for key, role in (("mu_inv", Role.MU_INV), ("eps", Role.EPS))
    ]
    return assemble_system(ProblemSpec(spec1.k, spec1.mesh, *fields, spec1.theta)), None


def cmd_verify(
    config_path: str,
    out_dir: str | None = None,
    seed: int | None = None,
) -> ScenarioResult:
    """Run the full bound-verification scenario of one config."""
    cfg, out, seed = _prologue(config_path, out_dir, seed)
    result = ScenarioResult()

    sys1 = assemble_system(hio.build_problem(cfg))
    sys2, alpha = _perturbed(cfg, sys1)
    if cfg.problem["garding"] is not None:
        constants = GardingConstants(**cfg.problem["garding"])
    else:
        constants = garding_constants_for(sys1.spec)

    grep = garding_check(
        sys1, constants, n_samples=cfg.solver["garding_samples"], seed=seed
    )
    result.paths["garding"] = hio.write_report(
        grep, os.path.join(out, "garding.json"), "json"
    )
    result.add("garding.sampled", grep.violations == 0, grep.worst_rel_margin)
    if grep.identity_max_rel_err is not None:
        result.add(
            "garding.identity",
            grep.identity_max_rel_err <= IDENTITY_RTOL,
            IDENTITY_RTOL - grep.identity_max_rel_err,
        )

    nrep = norm_equivalence_report(sys1, constants, seed=seed)
    result.paths["norm_equivalence"] = hio.write_report(
        nrep, os.path.join(out, "norm_equivalence.json"), "json"
    )
    _add_report_checks(result, "norms", nrep.checks)

    brep = nearby_bound_report(sys1, sys2, seed=seed, alpha=alpha)
    _add_bound_report(result, brep, out)
    return result


def _sweep_point(cfg, sys1, k, alpha, seed):
    """One (k, alpha) row; ``sys1`` is k's system or the error building it raised."""
    row = {c: None for c in SWEEP_COLUMNS}
    row.update({"k": k, "alpha": alpha, "error": ""})
    try:
        if isinstance(sys1, HelmprecError):
            raise sys1
        sys2, alpha = _perturbed(cfg, sys1, alpha)
        rep = nearby_bound_report(sys1, sys2, seed=seed, alpha=alpha)
        row.update(hio.bound_report_row(rep))
        if rep.singular:
            return row
        b = assemble_load(sys1.spec, 1.0)
        fp = fixed_point(
            sys1, sys2, b, np.zeros(sys1.n, dtype=complex),
            max_it=cfg.solver["max_it"], tol=cfg.solver["tol"],
        )
        lu2 = sys2.lu
        gm = gmres(
            lambda x: lu2.solve(sys1.A @ x), lu2.solve(b), inner=sys1.gram_d,
            max_it=cfg.solver["max_it"], tol=cfg.solver["tol"],
        )
        row["fp_iters"] = fp.iterations
        row["gmres_iters"] = gm.iterations
    except HelmprecError as exc:
        row["error"] = type(exc).__name__
    return row


def _ladder_rung(sys1, seed):
    """k's working ladder rung, (spec, n, C_dis report) of its sweep system,
    or the error that building the system or its C_dis raised."""
    if isinstance(sys1, HelmprecError):
        return sys1
    try:
        return sys1.spec, sys1.n, sys1.inf_sup(seed)
    except HelmprecError as exc:
        return exc


def cmd_sweep(
    config_path: str,
    out_dir: str | None = None,
    seed: int | None = None,
) -> ScenarioResult:
    """Evaluate the config's (k, alpha) grid; one CSV row per point. Each k's
    first system, with its factors, C_dis and mass extremes, serves every alpha
    and is the working rung of the inf-sup ladder."""
    cfg, out, seed = _prologue(config_path, out_dir, seed)
    result = ScenarioResult()

    problem = dict(cfg.problem, resolution=cfg.sweep["resolution"])
    alphas = cfg.sweep["alpha_values"] if cfg.perturbation["mode"] == "absorption" else [None]
    grid = [(k, a) for k in cfg.sweep["k_values"] for a in alphas]
    rows, rungs = [], []
    for k in cfg.sweep["k_values"]:
        try:
            mesh = hio.build_mesh(problem, k)
            sys1 = assemble_system(hio.build_problem(cfg, k=k, mesh=mesh))
        except HelmprecError as exc:
            sys1 = exc
        rows += [_sweep_point(cfg, sys1, k, a, seed) for a in alphas]
        if cfg.sweep["ladder"] is not None:
            rungs.append(_ladder_rung(sys1, seed))
    del sys1  # the last k's factors must not stay alive through the ladder

    sweep_path = os.path.join(out, "sweep.csv")
    hio.write_csv(sweep_path, SWEEP_COLUMNS, rows)
    result.paths["sweep"] = sweep_path
    for row, (k, a) in zip(rows, grid):
        name = f"sweep[k={k:g}" + (f",alpha={a:g}]" if a is not None else "]")
        if row["error"]:
            result.add(name, False, math.nan)
        elif row["singular"]:
            result.add(name + ".singular", True, math.nan)
        else:
            result.add(name, bool(row["passed"]), 0.0)

    if cfg.sweep["ladder"] is not None:
        for rung in rungs:
            if isinstance(rung, HelmprecError):
                raise rung
        ladder = infsup_ladder(rungs, cfg.sweep["ladder"]["refine"], seed=seed)
        ladder_path = os.path.join(out, "ladder.csv")
        hio.write_report(ladder, ladder_path, "csv")
        result.paths["ladder"] = ladder_path
        for e in ladder.entries:
            result.add(
                f"ladder[k={e.k:g}]", not e.singular,
                e.ratio if not e.singular else math.nan,
            )
    return result


def cmd_export(config_path: str, out_dir: str | None = None) -> ScenarioResult:
    """Assemble the config's pair and write it as matrix exchange files; it
    checks nothing, so its result holds only the written paths."""
    cfg, out = _load(config_path, out_dir)
    sys1 = assemble_system(hio.build_problem(cfg))
    sys2, _ = _perturbed(cfg, sys1)
    dmu = field_diff_sup_norm(sys1.spec.mu_inv, sys2.spec.mu_inv)
    deps = field_diff_sup_norm(sys1.spec.eps, sys2.spec.eps)
    result = ScenarioResult()
    result.paths.update(hio.write_matrix_exchange(sys1, sys2, out, dmu=dmu, deps=deps))
    return result


def cmd_import(
    matrix_dir: str,
    d_path: str | None = None,
    m_path: str | None = None,
    out_dir: str | None = None,
    seed: int = 0,
    dmu: float | None = None,
    deps: float | None = None,
) -> ScenarioResult:
    """Read an external pair, validate it, and run the nearby bound report.

    Each coefficient-difference norm is the one given here, else the one
    in the pair's meta.json; without either the report cannot be made.
    """
    _check_seed(seed)
    a1 = os.path.join(matrix_dir, "A1.mtx")
    a2 = os.path.join(matrix_dir, "A2.mtx")
    d_path = d_path or os.path.join(matrix_dir, "D.mtx")
    m_path = m_path or os.path.join(matrix_dir, "M.mtx")
    sys1, sys2, meta = hio.read_matrix_exchange(a1, a2, d_path, m_path)
    validate_external(sys1, sys2, seed)
    dmu = meta.get("dmu") if dmu is None else dmu
    deps = meta.get("deps") if deps is None else deps
    rep = nearby_bound_report(sys1, sys2, dmu=dmu, deps=deps, seed=seed)
    out = out_dir or matrix_dir
    os.makedirs(out, exist_ok=True)
    result = ScenarioResult()
    _add_bound_report(result, rep, out)
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
    out_dir = ("--out-dir", dict(default=None, help="override output directory"))
    seed = ("--seed", dict(type=int, default=None, help="override config seed"))
    for name, doc, flags in (
        ("verify", "run bound checks for one config", (config, out_dir, seed)),
        ("sweep", "evaluate the (k, alpha) grid of one config", (config, out_dir, seed)),
        ("export", "write the config's system pair as matrix files", (config, out_dir)),
        ("import", "run bound checks on external matrices", (
            ("--dir", dict(dest="matrix_dir", required=True,
                           help="directory with A1.mtx and A2.mtx")),
            ("--d", dict(dest="d_path", default=None,
                         help="path to D matrix (default dir/D.mtx)")),
            ("--m", dict(dest="m_path", default=None,
                         help="path to M matrix (default dir/M.mtx)")),
            ("--dmu", dict(type=float, default=None,
                           help="sup norm of the diffusion coefficient difference")),
            ("--deps", dict(type=float, default=None,
                            help="sup norm of the low-order coefficient difference")),
            out_dir, ("--seed", dict(type=int, default=0, help="seed of the estimates")),
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
