"""The benchmark workloads still reproduce the committed reference values.

Runs each ``bench/workloads/*.json`` config in-process at seeds 0 and 1
(``bench/README.md``: one reference serves every seed) and checks its
summary verdicts and report files with ``bench/check.py``'s
``check_run`` against ``bench/reference/<workload>/``: verdicts, sizes
and iteration counts exactly, every other value to the package's 1e-12
relative contract. A numerics change that drifts past it fails here, not
only in a benchmark run. The test only reads ``bench/``.
"""

import os

import pytest
from conftest import BENCH, bench_run

from helmprec.cli import main

WORKLOADS = sorted(name[:-len(".json")]
                   for name in os.listdir(os.path.join(BENCH, "workloads")))
RUNS = [pytest.param(workload, seed, id=workload + (f"-seed{seed}" if seed else ""))
        for workload in WORKLOADS for seed in (0, 1)]


@pytest.mark.parametrize("workload,seed", RUNS)
def test_workload_matches_reference(tmp_path, capsys, workload, seed):
    run = bench_run()
    spec = run.WORKLOADS[workload]
    code = main([spec["command"], "--config",
                 os.path.join(BENCH, "workloads", f"{workload}.json"),
                 "--out-dir", str(tmp_path), "--seed", str(seed)])
    verdicts, failed, messages = run.check.check_run(
        os.path.join(BENCH, "reference", workload), str(tmp_path), spec["files"],
        capsys.readouterr().out, code)
    assert messages == []
    assert failed == set() and verdicts
