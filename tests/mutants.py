"""The kept mutation table, and a runner for it.

Each row is a one-line mutant: a file, the exact text it replaces (found
exactly once in that file), the new text, and the test file that must
kill it.  The runner copies src/, tests/ and pyproject.toml to a temporary
directory, applies the mutant there and runs `pytest -x` on the test file:
pyproject's pythonpath puts the copy's src/ first, ahead of PYTHONPATH, so
a mutant must live in a copy of the whole tree.  A mutant is killed when
pytest reports a failed test (exit code 1); a clean pass, or a collection
or usage error, is not a kill.

Rules: a mutant that survives is killed by a new test or listed among the
survivors with the reason; a row is never removed to make the table pass.

    python tests/mutants.py            # every row of MUTANTS
    python tests/mutants.py M2 M9      # the named rows, survivors too
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "id file old new test what")

MUTANTS = (
    Mutant("M2", "src/zeta_workbench/zeta.py",
           "if not s.real > a:", "if not s.real >= a:",
           "tests/test_zeta.py", "the region gate admits s at the abscissa"),
    Mutant("M3", "src/zeta_workbench/traces.py",
           "prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 1.5",
           "prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 0.5",
           "tests/test_traceform.py", "the Dirac side's t^1.5"),
    Mutant("M4", "src/zeta_workbench/traces.py",
           "geodesic / math.sqrt(4.0 * math.pi * t)",
           "geodesic / math.sqrt(2.0 * math.pi * t)",
           "tests/test_traceform.py", "the heat side's 4 pi t"),
    Mutant("M5", "src/zeta_workbench/continuation.py",
           "(s.imag < r.location.imag)", "(s.imag <= r.location.imag)",
           "tests/test_continuation.py", "the winding's strict <"),
    Mutant("M6", "src/zeta_workbench/reps.py",
           "return 1.0 - 2.0 * e * math.cos(angle) + e * e",
           "return 1.0 - 2.0 * e * math.cos(angle) + e",
           "tests/test_reps.py", "ad_nbar_det's e^2"),
    Mutant("M7", "src/zeta_workbench/zeta.py",
           "alpha = beta - growth - b", "alpha = beta - growth",
           "tests/test_zeta.py", "the tail counts the twist's observed growth b"),
    Mutant("M8", "src/zeta_workbench/traces.py",
           "identity = 2.0 * dim_chi * spectrum.volume * identity_term_heat(k, t)",
           "identity = dim_chi * spectrum.volume * identity_term_heat(k, t)",
           "tests/test_traceform.py", "the heat identity term's factor 2"),
    Mutant("M9", "src/zeta_workbench/spectra.py",
           "if y <= -math.pi:", "if y < -math.pi:",
           "tests/test_spectra.py", "wrap_angle's branch (-pi, pi]"),
    Mutant("M11", "src/zeta_workbench/spectra.py",
           "or 0 < value < math.inf):", "or 0 < value):",
           "tests/test_spectra.py", "a spectrum bound of inf is accepted"),
    Mutant("M12", "src/zeta_workbench/zeta.py",
           "-(s + RHO)", "-s",
           "tests/test_zeta.py", "the Selberg-type exponent carries exp(-rho l)"),
    Mutant("M13", "src/zeta_workbench/spectra.py",
           "window = 2 * EIGENVALUE_TOL", "window = 0.5 * EIGENVALUE_TOL",
           "tests/test_spectra.py", "the merge window covers the whole tolerance"),
    Mutant("M14", "src/zeta_workbench/continuation.py",
           "if minus != plus:", "if True:",
           "tests/test_continuation.py", "a root at 0 counts once in m(nu^2)"),
    Mutant("M15", "src/zeta_workbench/continuation.py",
           "abs(loc - other) < 2.0 * detour_radius", "abs(loc - other) < detour_radius",
           "tests/test_continuation.py", "detour circles overlap within twice the radius"),
    Mutant("M16", "src/zeta_workbench/continuation.py",
           "natural = {loc for loc in distinct if loc.imag <= s.imag}",
           "natural = {loc for loc in distinct if loc.imag < s.imag}",
           "tests/test_continuation.py", "a pole on the ray is passed above on its natural side"),
    Mutant("M17", "src/zeta_workbench/reps.py",
           "sum(map(mul, head[0], tail[1]))", "sum(map(mul, head[0], tail[0]))",
           "tests/test_reps.py", "tr(H T) pairs H_ij with T_ji"),
    Mutant("M18", "src/zeta_workbench/reps.py",
           "rows[col], rows[pivot] = rows[pivot], rows[col]",
           "rows[col], rows[pivot] = rows[col], rows[pivot]",
           "tests/test_reps.py", "the inverse swaps the pivot row up"),
    Mutant("M19", "src/zeta_workbench/zeta.py",
           "a = convergence_abscissa(kind, growth) + b", "a = convergence_abscissa(kind, growth)",
           "tests/test_zeta.py", "the gate moves right by the twist's growth b"),
    Mutant("M20", "src/zeta_workbench/continuation.py",
           "total += ring(n, range(1, n, 2))", "total = ring(n, range(1, n, 2))",
           "tests/test_continuation.py", "a doubled ring keeps the previous ring's sum"),
    Mutant("M21", "src/zeta_workbench/quadrature.py",
           "pairs.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))",
           "pairs.append((x, 1.0 / ((1.0 - x * x) * dp * dp)))",
           "tests/test_traceform.py", "the Gauss-Legendre weight's factor 2"),
    Mutant("M22", "src/zeta_workbench/spectra.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)",
           "tests/test_spectra.py", "the records refuse assignment"),
    Mutant("M23", "src/zeta_workbench/spectra.py",
           '_fields = ("cutoff", "classes", "tolerance", "volume", "source")',
           '_fields = ("cutoff", "classes", "tolerance", "source")',
           "tests/test_spectra.py", "spectrum equality counts the volume"),
    Mutant("M24", "src/zeta_workbench/spectra.py",
           "return LengthSpectrum(self.cutoff, self.classes, self.tolerance, volume, self.source)",
           "copy = object.__new__(LengthSpectrum); "
           "copy.__dict__.update(self.__dict__, volume=volume, memo={}); return copy",
           "tests/test_spectra.py", "with_volume checks the new spectrum"),
    Mutant("M25", "src/zeta_workbench/reps.py",
           "if math.isfinite(k) and math.isinf(2.0 * k):", "if False:",
           "tests/test_cli.py", "a weight whose 2k overflows is refused"),
    Mutant("M26", "src/zeta_workbench/reps.py",
           "MAX_WEIGHT = 2.0**20", "MAX_WEIGHT = 2.0**21",
           "tests/test_cli.py", "the weight cap is 2**20"),
    Mutant("M27", "src/zeta_workbench/cli.py",
           'raise WorkbenchError(f"{what} is not a finite number")', "return value",
           "tests/test_cli.py", "a modulus past the float range is refused"),
)

# Mutants that the suite does not kill yet: no test holds tail_bound
# against an independent truth.  They wait for an exact oracle (the
# elementary group) and a certified truncation of Schottky walks.
SURVIVORS = (
    Mutant("M1", "src/zeta_workbench/zeta.py",
           "det_floor = (1.0 - math.exp(-L)) ** 2 if with_det else 1.0",
           "det_floor = (1.0 - math.exp(-L)) ** 1 if with_det else 1.0",
           "tests/test_zeta.py", "the tail's determinant floor is squared"),
    Mutant("M10", "src/zeta_workbench/zeta.py",
           "base = chi_bound * sigma_bound * C * growth / det_floor",
           "base = chi_bound * C * growth / det_floor",
           "tests/test_zeta.py", "the tail counts |tr sigma| <= 2 for the paired kinds"),
)


def mutated_copy(mutant: Mutant, into: Path) -> Path:
    """A copy of the tree under `into` with the mutant applied."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    target = into / mutant.file
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return into


def run_mutant(mutant: Mutant) -> subprocess.CompletedProcess:
    """pytest -x on the mutant's test file, in a mutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.id}-") as tmp:
        tree = mutated_copy(mutant, Path(tmp))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             mutant.test],
            cwd=tree, capture_output=True, text=True,
        )


def run_table(mutants=MUTANTS) -> dict[str, int]:
    """Each mutant's pytest exit code; 1 means it was killed.  Two run at a
    time, each in its own pytest process."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(run_mutant, mutants)
        return {m.id: r.returncode for m, r in zip(mutants, results)}


def main(argv: list[str]) -> int:
    rows = {m.id: m for m in MUTANTS + SURVIVORS}
    chosen = [rows[name] for name in argv] if argv else list(MUTANTS)
    codes = run_table(chosen)
    for m in chosen:
        verdict = "killed" if codes[m.id] == 1 else f"NOT killed (pytest exit {codes[m.id]})"
        print(f"{m.id} {m.file}: {m.what} -> {m.test}: {verdict}")
    return 0 if all(code == 1 for code in codes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
