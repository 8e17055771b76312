"""The test configuration itself."""

import subprocess
import sys
from pathlib import Path


FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_passes(x):
    assert x == x


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after_the_failure():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report raised a DeprecationWarning, which the
    # warnings-as-errors setting turned into an INTERNALERROR (exit 3) that
    # left the later tests unrun
    (tmp_path / "test_probe.py").write_text(FAILING_GIVEN, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 2 passed" in result.stdout
