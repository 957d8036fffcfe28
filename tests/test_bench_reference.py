"""The benchmark workloads still reproduce the committed reference values.

Runs each ``bench/workloads/*.json`` config in-process at seed 0 and
checks its summary verdicts and report files with ``bench/check.py``'s
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_reference(tmp_path, capsys, workload):
    run = bench_run()
    spec = run.WORKLOADS[workload]
    code = main([spec["command"], "--config",
                 os.path.join(BENCH, "workloads", f"{workload}.json"),
                 "--out-dir", str(tmp_path), "--seed", "0"])
    verdicts, failed, messages = run.check.check_run(
        os.path.join(BENCH, "reference", workload), str(tmp_path), spec["files"],
        capsys.readouterr().out, code)
    assert messages == []
    assert failed == set() and verdicts
