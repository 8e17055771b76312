"""Workload `continue-verify`: catalog and path-continued super values from
eigenvalue lists, then the seven verification suites.

Inputs: an eigenvalue list of N_ENTRIES entries from one of GRID_SEEDS,
picked by the seed.  Entry j sits at
lam = +-(j H + d) + i e with j drawn without repeats from 1..J, |d| <= 0.01
and |e| <= 0.05; about a third of the entries come with their exact
negative at another multiplicity.  The continued grid is the vertical line
Re s = -0.5 from J H i down to -J H i in steps of H.

Grid rule.  The super log-derivative has poles at +-i lam, so every pole
lies within 0.01 of a grid ray (and is detoured around at a distance of
at least 0.09 with the default radius 0.1) or at least 0.24 = H - 0.01
from it.  No ray therefore passes a pole at about the detour radius, where
the ray-centred detour of `log_zeta_by_path` meets the pole.  Lists whose
grid meets the unchecked quadrature error elsewhere are left out of
GRID_SEEDS.  The suites run with `--seed` = seed mod 1000; all of 0..999
pass them.
"""

from __future__ import annotations

import cmath
import math
import random
from pathlib import Path

from common import from_pair, read_json, require, write_json

NAME = "continue-verify"
H = 0.25
J = 100
N_ENTRIES = 30
RADIUS = 0.1
RE_LINE = -0.5
# QUADPACK's default relative tolerance is 1.49e-8 per segment and a path
# has a few segments; 1e-7 keeps the check above that and far below the
# 1e-5 misses that `_segment_integral` lets through.
PATH_TOL = 1e-7
SUITES = ("kernels", "partial-fractions", "residues", "logderiv", "factorization",
          "parity", "trace-scaling")


# Generator seeds whose grids stay within 1e-8 of the closed form at every
# point on both detour sides (`python3 perfbench/gridcheck.py 0 40`).  Seed
# 6 is left out: at s = -0.5+0.75i the unchecked quadrature of the path
# integral is off by 1.7e-5 relative.
GRID_SEEDS = tuple(g for g in range(40) if g != 6)


def eigenvalues(generator_seed: int, n_entries=N_ENTRIES, j_max=J) -> list[tuple[complex, int]]:
    rng = random.Random(f"{NAME}:{generator_seed}")
    entries = []
    for j in sorted(rng.sample(range(1, j_max + 1), n_entries)):
        lam = complex(j * H + rng.uniform(-0.01, 0.01), rng.uniform(-0.05, 0.05))
        lam = lam if rng.random() < 0.6 else -lam
        entries.append((lam, rng.randint(1, 3)))
        if rng.random() < 0.35:
            entries.append((-lam, rng.randint(1, 3)))
    return entries


def grid(j_max=J) -> tuple[complex, complex, int]:
    """Start, stop and count of the continued grid."""
    return complex(RE_LINE, j_max * H), complex(RE_LINE, -j_max * H), 2 * j_max + 1


class Workload:
    def __init__(self, seed: int, inputs: Path, n_entries=N_ENTRIES, j_max=J):
        generator_seed = GRID_SEEDS[seed % len(GRID_SEEDS)]
        self.entries = eigenvalues(generator_seed, n_entries, j_max)
        self.suite_seed = seed % 1000
        self.j_max = j_max
        self.dirac = write_json(inputs / "dirac.json", eigen_doc(self.entries))
        self.laplace = write_json(inputs / "laplace.json", eigen_doc(squared(self.entries)))

    @property
    def grid(self) -> tuple[complex, complex, int]:
        return grid(self.j_max)

    def calls(self, out: Path) -> list[tuple[str, list[str], int]]:
        start, stop, count = self.grid
        calls = []
        for side in ("above", "below"):
            calls.append((
                f"continue-{side}",
                [
                    "continue", "--dirac", str(self.dirac), "--catalog",
                    "--s-start", repr(start.real), repr(start.imag),
                    "--s-stop", repr(stop.real), repr(stop.imag),
                    "--s-count", str(count), "--radius", repr(RADIUS),
                    "--detour", side, "--output", str(out / f"continue-{side}.json"),
                ],
                0,
            ))
        calls.append((
            "continue-laplace",
            ["continue", "--dirac", str(self.dirac), "--laplace", str(self.laplace),
             "--output", str(out / "continue-laplace.json")],
            0,
        ))
        calls.append((
            "report",
            ["report", "--seed", str(self.suite_seed), "--output", str(out / "report.json")],
            0,
        ))
        calls.append((
            "parity-injected",
            ["verify", "--suite", "parity", "--inject-parity-violation",
             "--seed", str(self.suite_seed), "--output", str(out / "parity-injected.json")],
            5,
        ))
        return calls

    # -- oracle ------------------------------------------------------------

    def multiplicity(self, nu: complex) -> int:
        return sum(m for ev, m in self.entries if abs(ev - nu) < 1e-12)

    def expected_catalog(self) -> list[tuple[str, complex, int]]:
        records = []
        freqs: list[complex] = []
        for ev, _ in self.entries:
            for nu in (ev, -ev):
                if all(abs(nu - f) >= 1e-12 for f in freqs):
                    freqs.append(nu)
        for nu in freqs:
            m_super = self.multiplicity(nu) - self.multiplicity(-nu)
            m_sym = self.multiplicity(nu) + self.multiplicity(-nu)  # m(lam^2)
            for kind, order in (("super", m_super), ("symmetrized", m_sym),
                                ("selberg", (m_super + m_sym) // 2)):
                if order:
                    records.append((kind, 1j * nu, order))
        return records

    def log_super(self, s: complex) -> complex:
        """sum m Log((s - i lam)/(s + i lam)): a log of prod ((s-i lam)/(s+i lam))^m."""
        return sum(m * cmath.log((s - 1j * ev) / (s + 1j * ev)) for ev, m in self.entries)

    # -- checks ------------------------------------------------------------

    def check_catalog(self, label: str, catalog) -> None:
        got = [(r["zeta_kind"], from_pair(r["location"]), r["order"]) for r in catalog]
        want = self.expected_catalog()
        require(len(got) == len(want), f"{label}: {len(got)} catalog records, expected {len(want)}")
        for kind, loc, order in want:
            hits = [g for g in got if g[0] == kind and abs(g[1] - loc) < 1e-9]
            require(
                len(hits) == 1 and hits[0][2] == order,
                f"{label}: {kind} at {loc} has {[h[2] for h in hits]}, expected order {order}",
            )

    def check(self, out: Path, stdout: dict[str, str]) -> None:
        start, stop, count = self.grid
        step = (stop - start) / (count - 1)
        docs = {side: read_json(out / f"continue-{side}.json") for side in ("above", "below")}
        for side, doc in docs.items():
            self.check_catalog(f"continue-{side}", doc["catalog"])
            rows = doc["rows"]
            require(len(rows) == count, f"continue-{side}: {len(rows)} rows")
            for i, row in enumerate(rows):
                s = from_pair(row["s"])
                require(abs(s - (start + i * step)) <= 1e-12, f"continue-{side}: row {i} at {s}")
                log = from_pair(row["log"])
                ratio = cmath.exp(log - self.log_super(s))
                require(
                    abs(ratio - 1.0) <= PATH_TOL,
                    f"continue-{side}: exp(log) at s={s} is off by {abs(ratio - 1.0):.2e} relative",
                )
                require(
                    abs(row["abs"] - math.exp(log.real)) <= 1e-12 * math.exp(log.real),
                    f"continue-{side}: abs at s={s} is not |exp(log)|",
                )
        for a, b in zip(docs["above"]["rows"], docs["below"]["rows"]):
            winding = (from_pair(a["log"]) - from_pair(b["log"])) / (2j * math.pi)
            require(
                abs(winding - round(winding.real)) <= PATH_TOL,
                f"above and below logs at s={a['s']} differ by 2 pi i x {winding}",
            )
        self.check_catalog("continue-laplace", read_json(out / "continue-laplace.json")["catalog"])
        report = read_json(out / "report.json")
        suites = [r["suite"] for r in report["reports"]]
        require(
            report["all_pass"] is True and sorted(suites) == sorted(SUITES)
            and all(r["pass"] is True for r in report["reports"]),
            f"report: all_pass={report['all_pass']}, suites {suites}",
        )
        injected = read_json(out / "parity-injected.json")
        require(
            injected["suite"] == "parity" and injected["pass"] is False,
            f"negative control reported pass={injected['pass']}",
        )


def squared(entries) -> list[tuple[complex, int]]:
    """The second-order list: lam^2 with the multiplicities of lam and -lam merged."""
    merged: dict[complex, int] = {}
    for ev, m in entries:
        merged[ev * ev] = merged.get(ev * ev, 0) + m
    return list(merged.items())


def eigen_doc(entries) -> dict:
    return {"entries": [{"re": ev.real, "im": ev.imag, "multiplicity": m} for ev, m in entries]}
