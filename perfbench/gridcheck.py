"""Find the eigenvalue lists of `continue-verify` whose continued grid the
program gets right at every point.

    python3 perfbench/gridcheck.py FIRST LAST

For each generator seed in FIRST..LAST-1 it runs the program's path
continuation in this process at every grid point on both detour sides,
compares exp(log) with the closed-form product and prints the largest
relative error.  Seeds at or below 1e-8 are fit for GRID_SEEDS.
"""

from __future__ import annotations

import cmath
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import continue_verify as cv  # noqa: E402
from common import SRC  # noqa: E402


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    from zeta_workbench.continuation import (
        continued_super_logderiv,
        log_zeta_by_path,
        singularity_catalog,
        super_tail_log,
    )
    from zeta_workbench.spectra import DiracSpectrum

    first, last = int(argv[1]), int(argv[2])
    for generator_seed in range(first, last):
        entries = cv.eigenvalues(generator_seed)
        dirac = DiracSpectrum(tuple(entries))
        poles = [r for r in singularity_catalog(dirac) if r.zeta_kind == "super"]
        start, stop, count = cv.grid()
        step = (stop - start) / (count - 1)
        worst, where = 0.0, None
        for side in ("above", "below"):
            for i in range(count):
                s = start + i * step
                log = log_zeta_by_path(
                    s, lambda z: continued_super_logderiv(z, dirac), catalog=poles,
                    detour_radius=cv.RADIUS, detour_side=side,
                    tail=lambda w: super_tail_log(dirac, w),
                )
                closed = sum(m * cmath.log((s - 1j * ev) / (s + 1j * ev)) for ev, m in entries)
                error = abs(cmath.exp(log - closed) - 1.0)
                if error > worst:
                    worst, where = error, s
        verdict = "fit" if worst <= 1e-8 else "left out"
        print(f"{generator_seed:4d}  worst {worst:.2e} at s={where}  {verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
