"""Workload `class-sums`: zeta class sums, chi twists and trace sides on one
spectrum of a few thousand classes.

Inputs: the benchmark's own necklace walk of a seeded Schottky pair to
word length DEPTH gives every conjugacy class once, with multiplicities
from word periods.  The seed also draws the weight k, the flat-bundle twist
chi (a 3-dimensional unitary image per generator), the volume and the
s- and t-grids.  The enumerator does no work here.
"""

from __future__ import annotations

import cmath
import math
import random
from pathlib import Path

import numpy as np

from common import (
    alphabet,
    from_pair,
    necklace_walk,
    pair,
    read_json,
    require,
    schottky_pair,
    write_json,
)

NAME = "class-sums"
DEPTH = 9
N_POINTS = 40
N_CHI_POINTS = 3
N_T = 16
KINDS = ("selberg", "ruelle", "symmetrized", "super", "super_ruelle")
# The program and the oracle add the same terms in another order and with
# another exp; N u sum|term| with N ~ 3600 classes and unit roundoff
# u = 1.1e-16 is 4e-13 of sum|term|.  The bound is 25 times that.
REL_TOL = 1e-11


def random_unitary(rng: random.Random, dim: int) -> np.ndarray:
    z = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    )
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def grid(start: complex, stop: complex, count: int) -> list[complex]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


class Workload:
    def __init__(self, seed: int, inputs: Path, depth=DEPTH, n_points=N_POINTS,
                 n_chi=N_CHI_POINTS, n_t=N_T):
        rng = random.Random(f"{NAME}:{seed}")
        a, b = schottky_pair(
            3.0 * cmath.exp(1j * rng.uniform(0.2, 0.6)),
            2.5 * cmath.exp(-1j * rng.uniform(0.5, 0.9)),
        )
        necklaces, _ = necklace_walk(alphabet(a, b), depth)
        necklaces.sort(key=lambda c: (c.length, c.angle, c.word))
        self.k = rng.choice((1.0, 1.5, 2.0))
        self.volume = rng.uniform(1.0, 3.0)
        self.chi_images = {name: random_unitary(rng, 3) for name in "ab"}
        u, v = rng.uniform(0.0, 0.3), rng.uniform(0.0, 1.0)
        self.s_start, self.s_stop = complex(2.4 + u, -2.5 - v), complex(3.8 + u, 2.5 + v)
        self.n_points = n_points
        self.chi_start, self.chi_stop = complex(2.6 + u, -0.4), complex(3.2 + u, 0.4)
        self.n_chi = n_chi
        self.ts = [0.25 * 1.25 ** i * rng.uniform(0.95, 1.05) for i in range(n_t)]

        cutoff = math.ceil(necklaces[-1].length * 1000.0) / 1000.0
        self.spectrum = write_json(
            inputs / "spectrum.json",
            {
                "dimension": 3,
                "cutoff": cutoff,
                "tolerance": 1e-9,
                "volume": None,
                "source": "necklace walk",
                "classes": [
                    {
                        "length": c.length,
                        "angle": c.angle,
                        "multiplicity": c.multiplicity,
                        "primitive": c.multiplicity == 1,
                        "word": c.word,
                    }
                    for c in necklaces
                ],
            },
        )
        self.chi = write_json(
            inputs / "chi.json",
            {
                "dimension": 3,
                "images": {n: [[pair(z) for z in row] for row in m] for n, m in self.chi_images.items()},
            },
        )
        self.l = np.array([c.length for c in necklaces])
        self.theta = np.array([c.angle for c in necklaces])
        self.n = np.array([c.multiplicity for c in necklaces], dtype=float)
        self.words = [c.word for c in necklaces]
        self._chi_traces = None

    @property
    def classes(self) -> int:
        return len(self.words)

    # -- calls -------------------------------------------------------------

    def _zeta(self, out, label, kind, k, start, stop, count, chi=False):
        args = [
            "zeta", "--spectrum", str(self.spectrum), "--kind", kind,
            "--sigma", repr(k),
            "--s-start", repr(start.real), repr(start.imag),
            "--s-stop", repr(stop.real), repr(stop.imag),
            "--s-count", str(count), "--output", str(out / f"{label}.json"),
        ]
        if chi:
            args += ["--chi", str(self.chi)]
        return (label, args, 0)

    def calls(self, out: Path) -> list[tuple[str, list[str], int]]:
        k, a, b, n = self.k, self.s_start, self.s_stop, self.n_points
        calls = [self._zeta(out, kind, kind, k, a, b, n) for kind in KINDS]
        calls += [
            self._zeta(out, "selberg-s-1", "selberg", k, a - 1, b - 1, n),
            self._zeta(out, "selberg-s+1", "selberg", k, a + 1, b + 1, n),
            self._zeta(out, "selberg-k+1", "selberg", k + 1, a, b, n),
            self._zeta(out, "selberg-k-1", "selberg", k - 1, a, b, n),
        ]
        for kind in ("selberg", "super"):
            calls.append(
                self._zeta(out, f"{kind}-chi", kind, k, self.chi_start, self.chi_stop, self.n_chi, chi=True)
            )
        for order in ("first", "second"):
            args = ["trace", "--spectrum", str(self.spectrum), "--sigma", repr(k), "--order", order]
            for t in self.ts:
                args += ["--t", repr(t)]
            if order == "second":
                args += ["--volume", repr(self.volume)]
            calls.append((f"trace-{order}", args + ["--output", str(out / f"trace-{order}.json")], 0))
        return calls

    # -- oracle ------------------------------------------------------------

    def chi_traces(self) -> np.ndarray:
        if self._chi_traces is None:
            images = dict(self.chi_images)
            images.update({n.upper(): np.linalg.inv(m) for n, m in self.chi_images.items()})
            traces = []
            for word in self.words:
                acc = np.eye(3, dtype=complex)
                for symbol in word:
                    acc = acc @ images[symbol]
                traces.append(np.trace(acc))
            self._chi_traces = np.array(traces)
        return self._chi_traces

    def _base_terms(self, s: np.ndarray, weight: float, selberg: bool, chi: bool):
        """Per-point, per-class terms of the weight-`weight` base sum."""
        l, theta, n = self.l, self.theta, self.n
        coef = np.exp(1j * weight * theta) / n
        if chi:
            coef = coef * self.chi_traces()
        if selberg:
            det = 1.0 - 2.0 * np.exp(-l) * np.cos(theta) + np.exp(-2.0 * l)
            return coef / det * np.exp(-np.outer(s + 1.0, l))
        return coef * np.exp(-np.outer(s, l))

    def log_sums(self, kind: str, s, k: float, chi: bool = False):
        """(log, sum|term|) per point of the class sums documented in zeta.py."""
        s = np.asarray(s, dtype=complex)
        selberg = kind in ("selberg", "symmetrized", "super")
        plus = self._base_terms(s, k, selberg, chi)
        if kind in ("selberg", "ruelle"):
            return -plus.sum(axis=1), np.abs(plus).sum(axis=1)
        minus = self._base_terms(s, -k, selberg, chi)
        scale = np.abs(plus).sum(axis=1) + np.abs(minus).sum(axis=1)
        if kind == "symmetrized":
            return -plus.sum(axis=1) - minus.sum(axis=1), scale
        return -plus.sum(axis=1) + minus.sum(axis=1), scale

    def trace_sides(self, order: str, ts):
        """(side, scale) per t of the geodesic sides documented in traces.py."""
        l, theta, n, k = self.l, self.theta, self.n, self.k
        det = 1.0 - 2.0 * np.exp(-l) * np.cos(theta) + np.exp(-2.0 * l)
        sides, scales = [], []
        for t in ts:
            gauss = np.exp(-l * l / (4.0 * t))
            if order == "first":
                pref = -2j * math.pi / (4.0 * math.pi * t) ** 1.5
                terms = pref * l * l * 2j * np.sin(k * theta) * gauss / (n * np.exp(l) * det)
                identity = 0.0
            else:
                terms = (l / n) * 2.0 * np.cos(k * theta) * np.exp(-l) / det * gauss
                terms = terms / math.sqrt(4.0 * math.pi * t)
                identity = (
                    2.0 * self.volume
                    * (k * k * math.sqrt(math.pi) * t ** -0.5 + 0.5 * math.sqrt(math.pi) * t ** -1.5)
                    / (4.0 * math.pi ** 2)
                )
            sides.append(identity + terms.sum())
            scales.append(abs(identity) + np.abs(terms).sum())
        return sides, scales

    # -- checks ------------------------------------------------------------

    def _rows(self, out: Path, label: str, kind: str, start, stop, count):
        doc = read_json(out / f"{label}.json")
        require(doc.get("kind") == kind, f"{label}: kind {doc.get('kind')!r}")
        rows = doc["rows"]
        require(len(rows) == count, f"{label}: {len(rows)} rows, asked for {count}")
        for want, row in zip(grid(start, stop, count), rows):
            got = from_pair(row["s"])
            require(abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"{label}: row at s={got}, expected {want}")
            log = from_pair(row["log"])
            value = from_pair(row["value"])
            require(
                abs(value - cmath.exp(log)) <= 1e-13 * abs(cmath.exp(log)) + 1e-300,
                f"{label}: value {value} is not exp(log) at s={got}",
            )
            tail = row["tail_bound"]
            require(isinstance(tail, float) and math.isfinite(tail) and tail >= 0.0, f"{label}: tail_bound {tail!r}")
            require(row["terms_used"] == self.classes, f"{label}: terms_used {row['terms_used']} != {self.classes}")
        return [from_pair(r["s"]) for r in rows], np.array([from_pair(r["log"]) for r in rows])

    def _compare(self, label, s, got, want, scale):
        for si, g, w, sc in zip(s, got, want, scale):
            require(abs(g - w) <= REL_TOL * sc, f"{label}: log {g} at s={si}, oracle {w} (sum|term| {sc:.3e})")

    def check(self, out: Path, stdout: dict[str, str]) -> None:
        k, a, b, n = self.k, self.s_start, self.s_stop, self.n_points
        logs, scales = {}, {}
        specs = [(kind, kind, k, a, b) for kind in KINDS] + [
            ("selberg-s-1", "selberg", k, a - 1, b - 1),
            ("selberg-s+1", "selberg", k, a + 1, b + 1),
            ("selberg-k+1", "selberg", k + 1, a, b),
            ("selberg-k-1", "selberg", k - 1, a, b),
        ]
        for label, kind, weight, start, stop in specs:
            s, got = self._rows(out, label, kind, start, stop, n)
            want, scale = self.log_sums(kind, s, weight)
            self._compare(label, s, got, want, scale)
            logs[label], scales[label] = got, scale
        for kind in ("selberg", "super"):
            label = f"{kind}-chi"
            s, got = self._rows(out, label, kind, self.chi_start, self.chi_stop, self.n_chi)
            want, scale = self.log_sums(kind, s, k, chi=True)
            self._compare(label, s, got, want, scale)
        # log R(s;k) = log Z(s-1;k) + log Z(s+1;k) - log Z(s;k+1) - log Z(s;k-1)
        parts = ("selberg-s-1", "selberg-s+1", "selberg-k+1", "selberg-k-1")
        combined = logs[parts[0]] + logs[parts[1]] - logs[parts[2]] - logs[parts[3]]
        total_scale = scales["ruelle"] + sum(scales[p] for p in parts)
        s = grid(a, b, n)
        for si, r, c, sc in zip(s, logs["ruelle"], combined, total_scale):
            require(abs(r - c) <= REL_TOL * sc, f"factorization at s={si}: log R {r} vs four Selberg factors {c}")
        for order in ("first", "second"):
            doc = read_json(out / f"trace-{order}.json")
            require(doc.get("order") == order and len(doc["rows"]) == len(self.ts), f"trace-{order}: wrong rows")
            sides, sc = self.trace_sides(order, self.ts)
            for row, t, want, scale in zip(doc["rows"], self.ts, sides, sc):
                require(row["t"] == t, f"trace-{order}: row t={row['t']}, expected {t}")
                got = from_pair(row["geometric"])
                require(abs(got - want) <= REL_TOL * scale, f"trace-{order} at t={t}: {got}, oracle {want}")
