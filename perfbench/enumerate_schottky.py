"""Workload `enumerate-schottky`: the enumerator on a free Schottky pair.

Inputs: a = diag(3 e^{i pa}, ...) and b conjugate to diag(2.5 e^{i pb}, ...)
as in the pair of the enumerator tests, with the phases pa and pb drawn
from the seed.  The moduli stay fixed, so every seed has the same number
of necklaces and about the same cost.  A round enumerates at each depth in
DEPTHS with cutoff 30, first into an empty cache directory and then twice
more from the cache.  With one slow call and two fast ones per round the
median call is a cache hit, not the midpoint between the two kinds.  Word length 9 keeps a round near 5 s; at word length 10
one call takes about 20 s, which leaves a run a single round.
"""

from __future__ import annotations

import bisect
import cmath
import random
from pathlib import Path

from common import (
    alphabet,
    complex_length,
    is_cyclically_reduced,
    least_rotation,
    necklace_walk,
    presentation_doc,
    primitive_period,
    read_json,
    require,
    schottky_pair,
    word_product,
    wrap_angle,
    write_json,
)

NAME = "enumerate-schottky"
DEPTHS = (9,)
CUTOFF = 30.0


class Workload:
    def __init__(self, seed: int, inputs: Path, depths=DEPTHS):
        rng = random.Random(f"{NAME}:{seed}")
        lam = 3.0 * cmath.exp(1j * rng.uniform(0.2, 0.6))
        mu = 2.5 * cmath.exp(-1j * rng.uniform(0.5, 0.9))
        self.a, self.b = schottky_pair(lam, mu)
        self.depths = tuple(depths)
        self.presentation = write_json(
            inputs / "presentation.json", presentation_doc(self.a, self.b)
        )
        self._walks: dict[int, tuple] = {}

    def calls(self, out: Path) -> list[tuple[str, list[str], int]]:
        """(label, CLI arguments, expected exit code) in call order."""
        calls = []
        for depth in self.depths:
            for phase in ("cold", "warm", "again"):
                calls.append(
                    (
                        f"d{depth}-{phase}",
                        [
                            "enumerate",
                            "--presentation", str(self.presentation),
                            "--max-word-length", str(depth),
                            "--cutoff", repr(CUTOFF),
                            "--output", str(out / f"d{depth}-{phase}.json"),
                        ],
                        0,
                    )
                )
        return calls

    def walk(self, depth: int):
        if depth not in self._walks:
            self._walks[depth] = necklace_walk(alphabet(self.a, self.b), depth)
        return self._walks[depth]

    def words_visited(self) -> int:
        return sum(self.walk(depth)[1] for depth in self.depths)

    def check(self, out: Path, stdout: dict[str, str]) -> None:
        for depth in self.depths:
            cold = (out / f"d{depth}-cold.json").read_bytes()
            for phase in ("warm", "again"):
                cached = (out / f"d{depth}-{phase}.json").read_bytes()
                require(cached == cold, f"depth {depth}: cached document differs from the first")
            doc = read_json(out / f"d{depth}-cold.json")
            for phase in ("cold", "warm", "again"):
                line = stdout[f"d{depth}-{phase}"].splitlines()[0]
                require(
                    line == f"classes: {len(doc['classes'])}",
                    f"depth {depth}: summary line {line!r} disagrees with the document",
                )
            check_spectrum(doc, alphabet(self.a, self.b), self.walk(depth)[0], depth)


def check_spectrum(doc: dict, letters: dict, necklaces, depth: int) -> None:
    """Properties every enumerated spectrum must have, against the
    benchmark's own products and necklace walk."""
    tol = float(doc["tolerance"])
    cutoff = float(doc["cutoff"])
    classes = doc["classes"]
    previous = 0.0
    canon: dict[str, dict] = {}
    for i, c in enumerate(classes):
        word = c["word"]
        require(isinstance(word, str) and 0 < len(word) <= depth, f"class {i}: bad word {word!r}")
        require(is_cyclically_reduced(word), f"class {i}: {word} is not cyclically reduced")
        key = least_rotation(word)
        require(key not in canon, f"class {i}: {word} is a rotation of {canon.get(key, {}).get('word')}")
        canon[key] = c
        length, angle = complex_length(word_product(letters, word))
        require(
            abs(length - c["length"]) <= tol and abs(wrap_angle(angle - c["angle"])) <= tol,
            f"class {i}: {word} has complex length ({length!r}, {angle!r}), "
            f"document says ({c['length']!r}, {c['angle']!r})",
        )
        require(c["length"] <= cutoff, f"class {i}: length {c['length']} above cutoff")
        require(c["length"] >= previous, f"class {i}: lengths not sorted")
        previous = c["length"]
        want = len(word) // primitive_period(word)
        require(
            c["multiplicity"] == want and c["primitive"] == (want == 1),
            f"class {i}: {word} has multiplicity {c['multiplicity']}, word period gives {want}",
        )
    # A missing necklace must share its complex length with a present class.
    # Its inverse does not count: it shares the complex length of every
    # class, and the enumerator never merges a class with its inverse.
    present = sorted((c["length"], c["angle"], least_rotation(c["word"])) for c in classes)
    lengths = [p[0] for p in present]
    for neck in necklaces:
        if neck.length > cutoff or neck.word in canon:
            continue
        inverse = least_rotation(neck.word[::-1].swapcase())
        lo = bisect.bisect_left(lengths, neck.length - tol)
        hi = bisect.bisect_right(lengths, neck.length + tol)
        require(
            any(
                abs(wrap_angle(present[j][1] - neck.angle)) <= tol and present[j][2] != inverse
                for j in range(lo, hi)
            ),
            f"necklace {neck.word} of length {neck.length!r} is missing and shares "
            "its complex length with no present class but its inverse",
        )
