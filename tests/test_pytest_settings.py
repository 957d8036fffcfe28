"""The test settings of ``pyproject.toml`` themselves.

Every warning is an error in the suite. A failing ``hypothesis`` test
makes its pytest plugin import libcst, which warns on import; that
warning alone is ignored, so the failure is reported as a failure and the
session goes on, rather than ending in INTERNALERROR.
"""

import os
import subprocess
import sys

from conftest import ROOT

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_another_deprecation_warning_is_still_an_error():
    warnings.warn("some other API is deprecated", DeprecationWarning)


def test_a_passing_case():
    pass
'''


def test_a_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out, out
