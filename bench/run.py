"""Benchmark harness for helmprec: end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify2d|sweep2d|sweep1d|all
                         [--seed 0] [--seconds 20] [--trace 0|1]

Each workload is one real ``helmprec`` CLI command (config in
``workloads/``), run as a closed loop: one command at a time, each in a
fresh process, the next starting when the previous one exits. Every run's
report files are checked against ``reference/<workload>/``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time of
the call into ``helmprec.cli.main``, imports excluded), ``setup_s``
(median time to import ``helmprec.cli`` in a fresh process), both in
seconds at reference machine speed (see ``measure``), ``peak_rss_mb`` and
``pass_frac`` (PASS summary lines over all lines).
``--trace 1`` runs the command once untraced and once with the layer
tracer of ``tracer.py``, and prints the per-layer metrics plus the tracing
overhead; the two runs' report files must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (summary lines checked), ``failed`` (lines
whose verdict or values differ from the reference, or that crashed) and
``metrics``. ``--write-reference`` stores one run's outputs as the new
reference instead.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(BENCH, "child.py")

SETUP_PROBES = 2      # probes before the first command (one more follows each)
# Median speedometer time on the 2-core development box. Timings are
# reported in seconds at this machine speed: raw seconds x SPEED_REF_S /
# speedometer seconds measured next to them. The constant only scales.
SPEED_REF_S = 0.35
BUDGET_S = 170.0      # a run must end well within 180 s
BLAS_THREADS = 1      # each command is the plain single-threaded baseline
SWEEP_FILES = (("sweep.csv", "sweep"), ("ladder.csv", "ladder"))
# Span names each workload must record at least once in a traced run: a
# missing one means a binding the tracer did not reach.
COMMON_SPANS = (
    "lu.factor", "lu.solve", "arpack", "numerics.gram_factor", "numerics.inf_sup",
    "numerics.op_norm", "numerics.mass_extremes", "bounds.nearby_report",
    "mesh.build", "coeffs.field", "assemble.system", "io.config", "io.write",
    "cli.main", "cli.cmd",
)
SWEEP_SPANS = COMMON_SPANS + (
    "bounds.ladder", "bounds.remesh", "mesh.locate", "coeffs.resample",
    "solvers.fixed_point", "solvers.gmres", "solvers.direct_solve", "cli.point",
)
WORKLOADS = {
    "verify2d": {
        "command": "verify",
        "files": (("garding.json", "garding"), ("norm_equivalence.json", "norms"),
                  ("bounds.json", "bounds"), ("bounds.csv", "bounds")),
        "spans": COMMON_SPANS + (
            "numerics.solution_norms", "bounds.garding", "bounds.norm_equiv"),
    },
    "sweep2d": {"command": "sweep", "files": SWEEP_FILES, "spans": SWEEP_SPANS},
    "sweep1d": {"command": "sweep", "files": SWEEP_FILES, "spans": SWEEP_SPANS},
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or no time left)."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict:
    """The run environment: BLAS and OpenMP pools of one thread (at most nproc)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts child processes against one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = _child_env()
        self.dir = os.path.join(RUN_DIR, workload)
        os.makedirs(self.dir, exist_ok=True)

    def child(self, tag: str, extra: list[str], cli_args: list[str]):
        result_path = os.path.join(self.dir, f"{tag}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before the next process")
        argv = [sys.executable, CHILD, "--src", SRC, "--result", result_path, *extra,
                "--", *cli_args]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: process did not finish in time") from exc
        result = None
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        return result, proc

    def probe(self, tag: str) -> dict:
        """A fresh process that times ``import helmprec.cli``, then the speedometer."""
        result, proc = self.child(tag, ["--import-only"], [])
        if result is None:
            raise BenchError(f"import of helmprec.cli failed:\n{proc.stderr[-2000:]}")
        return result

    def command(self, tag: str, traced: bool = False) -> dict:
        """One CLI run in a fresh process, checked against the reference."""
        spec = WORKLOADS[self.workload]
        out_dir = os.path.join(self.dir, tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        extra = []
        if traced:
            run_id = f"{self.workload}-s{self.seed}-{os.getpid()}-{time.time_ns()}"
            extra = ["--trace", os.path.join(self.dir, f"{tag}_spans.npz"), "--run-id", run_id]
        result, proc = self.child(tag, extra, self.cli_args(out_dir))
        exit_code = None if result is None else result["exit_code"]
        ref_dir = os.path.join(BENCH, "reference", self.workload)
        verdicts, failed, messages = check.check_run(
            ref_dir, out_dir, spec["files"], proc.stdout, exit_code)
        if result is None:
            messages.append(proc.stderr[-2000:])
        lines = check.reference_lines(ref_dir)
        passed = sum(verdicts.get(n) == "PASS" and n not in failed for n in lines)
        return {"tag": tag, "result": result, "out_dir": out_dir, "failed": failed,
                "messages": messages, "lines": len(lines), "passed": passed}

    def cli_args(self, out_dir: str) -> list[str]:
        return [WORKLOADS[self.workload]["command"], "--config",
                os.path.join(BENCH, "workloads", f"{self.workload}.json"),
                "--out-dir", out_dir, "--seed", str(self.seed)]


def _sizes(workload: str, out_dir: str) -> dict:
    """n and n_ref of the run's systems, read from its report files."""
    if workload == "verify2d":
        with open(os.path.join(out_dir, "bounds.json")) as fh:
            return {"n": [json.load(fh)["n"]], "n_ref": []}
    n, n_ref = set(), set()
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        n.update(int(r["n"]) for r in csv.DictReader(fh) if r["n"])
    with open(os.path.join(out_dir, "ladder.csv"), newline="") as fh:
        for r in csv.DictReader(fh):
            n.add(int(r["n"]))
            n_ref.add(int(r["n_ref"]))
    return {"n": sorted(n), "n_ref": sorted(n_ref)}


def _llc_bytes():
    """Size of the highest-level CPU cache, from sysfs (None if unreadable)."""
    best = (0, None)
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level >= best[0]:
            best = (level, size)
    return best[1]


def provenance(workload: str, seed: int, runs: list[dict]) -> dict:
    ok = [r for r in runs if r["result"] is not None]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": _nproc(), "blas_threads": BLAS_THREADS,
        "llc_bytes": _llc_bytes(),
        **(_sizes(workload, ok[0]["out_dir"]) if ok else {}),
    }


def _tally(runs: list[dict]) -> tuple[int, int, int]:
    """(lines attempted, lines failed against the reference, lines passed)."""
    return (sum(r["lines"] for r in runs), sum(len(r["failed"]) for r in runs),
            sum(r["passed"] for r in runs))


def _messages(runs: list[dict]) -> list[str]:
    return [f"[{r['tag']}] {msg}" for r in runs for msg in r["messages"]]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one run of the closed loop.

    Each command is bracketed by probe processes; a command's wall time is
    scaled by the mean speedometer reading of the probes on either side,
    and each probe's import time by its own reading. This takes out the
    drift of the shared machine's speed (tens of percent within minutes,
    in CPU time as much as in wall time), which no number of repetitions
    inside one run averages away.
    """
    runner = Runner(workload, seed)
    runner.probe("warmup")  # fills the file cache and bytecode cache
    start = time.monotonic()
    probes = [runner.probe(f"probe{i}") for i in range(SETUP_PROBES)]
    runs = []
    while True:
        runs.append(runner.command(f"run{len(runs)}"))
        probes.append(runner.probe(f"probe{len(probes)}"))
        elapsed = time.monotonic() - start
        per_command = elapsed / len(runs)
        # stop at `seconds`, and start no command expected to end after
        # 1.5x `seconds`: a slow spell of the machine must not stretch the run
        if elapsed >= seconds or elapsed + per_command > 1.5 * seconds \
                or time.monotonic() + per_command > runner.deadline:
            break
    speed = [p["speed_s"] for p in probes]
    walls, adjusted = [], []
    for i, r in enumerate(runs, start=SETUP_PROBES - 1):
        if r["result"] is not None:
            walls.append(r["result"]["wall_s"])
            adjusted.append(walls[-1] * SPEED_REF_S / ((speed[i] + speed[i + 1]) / 2))
    if not walls:
        raise BenchError("no command completed:\n" + "\n".join(_messages(runs)))
    imports = [p["import_s"] for p in probes]
    attempted, failed, passed = _tally(runs)
    metrics = {
        "wall_s": statistics.median(adjusted),
        "setup_s": statistics.median(t * SPEED_REF_S / v for t, v in zip(imports, speed)),
        "peak_rss_mb": statistics.median(r["result"]["peak_rss_mb"] for r in runs
                                         if r["result"] is not None),
        "pass_frac": passed / attempted,
    }
    return {
        "correct": failed == 0 and len(walls) == len(runs),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": {"wall_s (adjusted)": adjusted, "wall_s (raw)": walls,
                    "setup_s (raw)": imports, "speedometer_s": speed},
        "provenance": provenance(workload, seed, runs),
        "messages": _messages(runs),
    }


def measure_traced(workload: str, seed: int, per_layer_units: dict) -> dict:
    """Per-layer metrics: one untraced and one traced command, compared."""
    runner = Runner(workload, seed)
    plain = runner.command("plain")
    traced = runner.command("traced", traced=True)
    runs = [plain, traced]
    messages = _messages(runs)
    if plain["result"] is None or traced["result"] is None:
        raise BenchError("a traced-run command crashed:\n" + "\n".join(messages))
    transparent = True
    names = sorted(os.listdir(plain["out_dir"]))
    if names != sorted(os.listdir(traced["out_dir"])):
        transparent = False
        messages.append("traced run wrote a different set of files")
    for name in names:
        if not filecmp.cmp(os.path.join(plain["out_dir"], name),
                           os.path.join(traced["out_dir"], name), shallow=False):
            transparent = False
            messages.append(f"traced run changed {name}")
    trace = traced["result"]["trace"]
    for name in WORKLOADS[workload]["spans"]:
        if trace["spans"].get(name, 0) < 1:
            transparent = False
            messages.append(f"no span recorded for {name}")
    for name, n in trace["rebinds"].items():
        if n < 1:
            transparent = False
            messages.append(f"wrapper {name} bound to nothing")
    layers = dict(trace["layers"])
    layers["trace.wall_s"] = traced["result"]["wall_s"]
    layers["trace.overhead_s"] = traced["result"]["wall_s"] - plain["result"]["wall_s"]
    missing = set(per_layer_units) - set(layers)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    attempted, failed, _ = _tally(runs)
    return {
        "correct": failed == 0 and transparent,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in per_layer_units.items()},
        "run_id": trace["run_id"],
        "provenance": provenance(workload, seed, runs),
        "messages": messages,
    }


def write_reference(workload: str, seed: int):
    """Store one run's report files and verdicts as the workload's reference."""
    runner = Runner(workload, seed)
    ref_dir = os.path.join(BENCH, "reference", workload)
    out_dir = os.path.join(runner.dir, "reference")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result, proc = runner.child("reference", [], runner.cli_args(out_dir))
    if result is None:
        raise BenchError(proc.stderr[-2000:])
    shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(ref_dir)
    for name, _ in WORKLOADS[workload]["files"]:
        shutil.copy(os.path.join(out_dir, name), ref_dir)
    with open(os.path.join(ref_dir, "summary.json"), "w") as fh:
        json.dump({"seed": seed, "exit_code": result["exit_code"],
                   "lines": check.parse_summary(proc.stdout)}, fh, indent=1)
        fh.write("\n")
    print(f"wrote reference for {workload} to {ref_dir}")


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _print_human(workload: str, out: dict):
    print(f"== {workload}: correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for key, values in out.get("samples", {}).items():
        print(f"  samples {key} (n={len(values)}): " + " ".join(f"{v:.4f}" for v in values))
    for msg in out["messages"]:
        print(f"  ! {msg}")
    print("provenance " + json.dumps(out["provenance"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="passed to helmprec --seed (default 0; 1 is the documented alternative)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "helmprec", "cli.py")):
        print(f"error: no helmprec sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.write_reference:
            for w in workloads:
                write_reference(w, args.seed)
            return 0
        units = _per_layer_units() if args.trace else None
        results = {}
        for w in workloads:
            out = (measure_traced(w, args.seed, units) if args.trace
                   else measure(w, args.seed, args.seconds))
            _print_human(w, out)
            results[w] = out
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (out,) = results.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, out in results.items() for k, m in out["metrics"].items()}
    final = {
        "correct": all(o["correct"] for o in results.values()),
        "attempted": sum(o["attempted"] for o in results.values()),
        "failed": sum(o["failed"] for o in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
