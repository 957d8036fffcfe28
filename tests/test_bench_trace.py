"""The benchmark's traced mode still reaches every layer it reports.

Runs the benchmark's measured process, ``bench/child.py --trace``, on tiny
1D ``verify`` and ``sweep`` configs and a tiny 2D ``sweep``, whose ladder
transfers its coefficients along the 2D parent map. Every span name
the benchmark requires of that command (``WORKLOADS[...]["spans"]`` in
``bench/run.py``) must be recorded, and every tracer wrapper must have
been bound to at least one module attribute. A refactor that renames a
traced function, or captures it where the tracer cannot rebind it, fails
here rather than in a benchmark run. The test only reads ``bench/``.
"""

import json
import os
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT, bench_run

PROBLEM = {"dimension": 1, "k": 6.0, "resolution": {"type": "elements", "n": 30}}
CONFIGS = {
    "verify2d": {
        "problem": PROBLEM,
        "perturbation": {"mode": "absorption", "alpha": 0.3},
    },
    "sweep1d": {
        "problem": PROBLEM,
        "perturbation": {"mode": "absorption", "alpha": 0.3},
        "sweep": {"k_values": [4.0, 6.0], "alpha_values": [0.1, 0.3],
                  "resolution": {"type": "k_power", "scale": 1, "exponent": 1.5},
                  "ladder": {"refine": 2}},
    },
    "sweep2d": {
        "problem": {"dimension": 2, "k": 4.0, "resolution": {"type": "elements", "n": 4}},
        "perturbation": {"mode": "absorption", "alpha": 0.3},
        "sweep": {"k_values": [4.0], "alpha_values": [0.3],
                  "resolution": {"type": "elements", "n": 6}, "ladder": {"refine": 2}},
    },
}


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_traced_child_records_every_required_span(tmp_path, workload):
    spec = bench_run().WORKLOADS[workload]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS[workload]))
    result = tmp_path / "result.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"),
         "--src", os.path.join(ROOT, "src"), "--result", str(result),
         "--trace", str(tmp_path / "spans.npz"), "--run-id", "guard",
         "--", spec["command"], "--config", str(cfg),
         "--out-dir", str(tmp_path / "out"), "--seed", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(result.read_text())
    assert out["exit_code"] == 0, proc.stdout
    trace = out["trace"]
    missing = [name for name in spec["spans"] if not trace["spans"].get(name)]
    assert missing == []
    unbound = [name for name, count in trace["rebinds"].items() if count == 0]
    assert unbound == []
