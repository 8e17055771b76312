"""Guard for the benchmark's grid check.

`perfbench/gridcheck.py` re-derives the eigenvalue lists of the
`continue-verify` workload.  It imports `spectra.DiracSpectrum`,
`super_tail_log` and the quadrature branch of `log_zeta_by_path` from the
workbench, which nothing else in the suite runs from outside, so a change
to them would otherwise surface only when the script is next run.  It runs
without writing bytecode.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

GRIDCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "gridcheck.py"


def test_gridcheck_finds_generator_seed_0_fit(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", str(GRIDCHECK), "0", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("   0  worst "), proc.stdout
    assert proc.stdout.rstrip().endswith("fit"), proc.stdout
