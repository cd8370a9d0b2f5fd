"""The suite's own pytest configuration: a failing hypothesis test must be
reported as a failure, with its falsifying example, and the run must go on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_later():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING_FILE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
