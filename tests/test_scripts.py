"""The example scripts run to completion against the package in src, and
print the same output on every run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["two_generator_survey.py", "5"],
        ["continuation_portrait.py"],
        ["trace_gap_scan.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_0(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
