"""Length-spectrum generation from generator matrices (dimension 3).

The group sits in the unit-determinant 2x2 complex matrices.  A loxodromic
element with larger eigenvalue lam has geodesic length 2*ln|lam| and
holonomy angle 2*arg(lam).

The presentation is taken as a free group on its generators, where two
cyclically reduced words are conjugate exactly when one is a rotation of
the other.  So each class is a necklace, listed once under its least
rotation, and a word that repeats a shorter word n times is the n-th power
class of that word's class.  Nothing is merged numerically: a word, its
inverse and its reversal share length and angle yet are distinct classes.
A presentation with relations may list one class under several necklaces.

The walk is the Fredricksen-Kessler-Maiorana necklace generation (Ruskey,
Savage and Wang, J. Algorithms 1992), depth-first over reduced
prenecklaces, the prefixes of least rotations.  The length p of a
prenecklace's longest Lyndon prefix says both which letters may follow it
and whether it is a necklace, so no other word is ever built.

Everything here runs on Python numbers, and the module loads no numpy: a
generator is a 2x2 of Python complex numbers, and for products of 2x2
matrices one at a time numpy's overhead makes it slower than plain complex
arithmetic at every word length.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InvariantViolation, NotLoxodromic, SchemaError
from .spectra import (
    ARRAY,
    ClassColumns,
    LengthSpectrum,
    array_shape,
    json_object,
    require,
    wrap_angle,
)

__all__ = [
    "GroupPresentation",
    "EnumerationConfig",
    "parse_group_presentation",
    "complex_length",
    "primitive_decomposition",
    "enumerate_spectrum",
]

_DET_TOL = 1e-12
_UNIT_CIRCLE_TOL = 1e-9
# the spectrum's matching tolerance
_TOLERANCE = 1e-9

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


def _as_matrix(m) -> Matrix | None:
    """m[i][j] as a 2x2 of Python complex numbers, or None unless m is a
    2x2 of numbers."""
    try:
        if len(m) == 2 and len(m[0]) == 2 and len(m[1]) == 2:
            return ((complex(m[0][0]), complex(m[0][1])), (complex(m[1][0]), complex(m[1][1])))
    except (TypeError, ValueError):
        pass
    return None


@dataclass(frozen=True)
class GroupPresentation:
    """Generator matrices with single-character names.

    A generator is any 2x2 that m[i][j] indexes, such as nested lists or a
    numpy array, and is kept as a tuple of rows of Python complex numbers.
    includes_inverses=True means the alphabet is exactly the supplied list
    (the caller either included inverses explicitly or wants a monoid walk);
    otherwise inverses are adjoined automatically under swapped-case names.
    """

    generators: tuple[Matrix, ...]
    names: tuple[str, ...]
    includes_inverses: bool = False

    def __post_init__(self):
        gens = []
        for i, g in enumerate(self.generators):
            mat = _as_matrix(g)
            if mat is None:
                raise InvariantViolation(f"generator {i} is not a 2x2 matrix")
            (a, b), (c, d) = mat
            det = a * d - b * c
            if abs(det - 1.0) > _DET_TOL:
                raise InvariantViolation(
                    f"generator {i} has determinant {det}, expected 1"
                )
            gens.append(mat)
        object.__setattr__(self, "generators", tuple(gens))
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) != len(gens):
            raise InvariantViolation("need exactly one name per generator")
        if len(set(names)) != len(names):
            raise InvariantViolation("generator names must be pairwise distinct")
        for name in names:
            if len(name) != 1:
                raise InvariantViolation(
                    f"generator name {name!r} must be a single character"
                )
        if not self.includes_inverses:
            for name in names:
                if name.swapcase() == name:
                    raise InvariantViolation(
                        f"generator name {name!r} has no case partner to name "
                        "its inverse; supply inverses explicitly"
                    )
                if name.swapcase() in names:
                    raise InvariantViolation(
                        f"names {name!r} and {name.swapcase()!r} collide with the "
                        "implicit inverse naming; set includes_inverses"
                    )


@dataclass(frozen=True)
class EnumerationConfig:
    max_word_length: int
    length_cutoff: float

    def __post_init__(self):
        if self.max_word_length < 1:
            raise InvariantViolation("max_word_length must be positive")
        if not (self.length_cutoff > 0):
            raise InvariantViolation("length_cutoff must be positive")


def parse_group_presentation(document: str | dict) -> GroupPresentation:
    """Parse {"generators": [{"name", "matrix"}], "includes_inverses"}.

    The matrix is four [re, im] pairs in row-major order; a nested 2x2
    layout of pairs is accepted too.
    """
    doc = json_object(document)
    generators = require(doc, "generators", list, "presentation")
    includes_inverses = require(doc, "includes_inverses", bool, "presentation")

    names, matrices = [], []
    for i, g in enumerate(generators):
        where = f"generator {i}"
        if not isinstance(g, dict):
            raise SchemaError(f"{where}: must be an object")
        names.append(require(g, "name", str, where))
        matrix = require(g, "matrix", ARRAY, where)
        shape = array_shape(matrix)
        if shape not in ((4, 2), (2, 2, 2)):
            raise SchemaError(
                f"{where}: matrix must be four [re, im] pairs, got shape {shape}"
            )
        entries = [
            complex(re, im) for re, im in (matrix if len(shape) == 2 else matrix[0] + matrix[1])
        ]
        matrices.append((tuple(entries[:2]), tuple(entries[2:])))
    try:
        return GroupPresentation(
            generators=tuple(matrices),
            names=tuple(names),
            includes_inverses=includes_inverses,
        )
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# complex length


def complex_length(mat, word: str | None = None) -> tuple[float, float]:
    """Geodesic length and holonomy angle of a loxodromic 2x2 of
    determinant 1, indexed mat[i][j].

    Returns (2*ln|lam|, 2*arg(lam) wrapped to (-pi, pi]) where lam is the
    eigenvalue of larger modulus.  Raises NotLoxodromic when both
    eigenvalues sit on the unit circle (elliptic, parabolic or trivial).
    """
    # for det 1: lam = tr/2 +- sqrt(tr^2/4 - 1)
    tr = complex(mat[0][0] + mat[1][1])
    disc = cmath.sqrt(tr * tr / 4.0 - 1.0)
    a, b = tr / 2.0 + disc, tr / 2.0 - disc
    lam = a if abs(a) >= abs(b) else b
    if abs(lam) <= 1.0 + _UNIT_CIRCLE_TOL:
        named = f" (word {word!r})" if word else ""
        raise NotLoxodromic(
            f"matrix has no eigenvalue off the unit circle"
            f" (|lam| = {abs(lam):.12g}){named}",
            word=word,
        )
    return 2.0 * math.log(abs(lam)), wrap_angle(2.0 * cmath.phase(lam))


# ---------------------------------------------------------------------------
# primitivity


def primitive_decomposition(words: Sequence[str]) -> list[int]:
    """The power multiplicity of each word's class, in the order given.

    A word w with primitive period p (the first nonzero offset at which w
    occurs in w + w) is the (len(w) / p)-th power of its first p letters, so
    in a free group its class is that power of a primitive class.
    """
    return [len(w) // (w + w).find(w, 1) for w in words]


# ---------------------------------------------------------------------------
# enumeration


def _product(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inverse(m: Matrix) -> Matrix:
    """The adjugate over the determinant."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def _walk(pres: GroupPresentation, cfg: EnumerationConfig) -> ClassColumns:
    """The necklace walk: every class below the cutoff, sorted by (length,
    angle, word), with its multiplicity."""
    mats = dict(zip(pres.names, pres.generators))
    if not pres.includes_inverses:
        mats |= {name.swapcase(): _inverse(mat) for name, mat in mats.items()}
    letters = sorted(mats)
    # cancellation applies whenever a symbol's formal inverse is in the
    # alphabet; a caseless name such as '1' is never its own inverse
    inverse_letter = {
        name: name.swapcase()
        for name in letters
        if name.swapcase() != name and name.swapcase() in mats
    }

    # the kept classes as columns: Python floats would triple their size
    lengths, angles, words = array("d"), array("d"), []
    failed: NotLoxodromic | None = None
    # (prenecklace, its matrix, length of its longest Lyndon prefix)
    stack = [(x, mats[x], 1) for x in reversed(letters)]
    while stack:
        word, mat, p = stack.pop()
        t = len(word)
        # a prenecklace is its own least rotation when its Lyndon prefix
        # tiles it; the class also needs a cyclically reduced word
        if t % p == 0 and (t == 1 or inverse_letter.get(word[0]) != word[-1]):
            try:
                length, angle = complex_length(mat, word=word)
            except NotLoxodromic as exc:
                # the error names the shortest such word, not the first
                # one the walk meets; its extensions are longer still
                if failed is None or t < len(failed.word):
                    failed = exc
                continue
            if length <= cfg.length_cutoff:
                lengths.append(length)
                angles.append(angle)
                words.append(word)
        if t == cfg.max_word_length:
            continue
        # a letter below word[t - p] would make a smaller rotation; pushed
        # in reverse, the words are visited in lexicographic order
        least, last = word[t - p], inverse_letter.get(word[-1])
        for x in reversed(letters):
            if x < least:
                break
            if x != last:
                stack.append((word + x, _product(mat, mats[x]), p if x == least else t + 1))
    if failed is not None:
        raise failed

    # the walk meets the words in string order, so stable sorts by angle,
    # then by length, order the classes by (length, angle, word)
    order = sorted(range(len(words)), key=angles.__getitem__)
    order.sort(key=lengths.__getitem__)
    words = [words[i] for i in order]
    return ClassColumns(
        map(lengths.__getitem__, order), map(angles.__getitem__, order),
        primitive_decomposition(words), words,
    )


def enumerate_spectrum(pres: GroupPresentation, cfg: EnumerationConfig) -> LengthSpectrum:
    """Walk reduced prenecklaces depth-first and emit one class per
    cyclically reduced necklace, carrying each word's matrix down the walk.

    Returns every class found with length <= cfg.length_cutoff among words
    of at most cfg.max_word_length symbols, with multiplicities and
    primitivity filled in.  The spectrum source records the configuration
    and a completeness heuristic: if the shortest class discovered at the
    maximal word length is still below the cutoff, longer words would
    plausibly contribute further classes and the walk is flagged incomplete.
    """
    classes = _walk(pres, cfg)
    shortest_at_max = min(
        (l for l, w in zip(classes.length, classes.words) if len(w) == cfg.max_word_length),
        default=None,
    )
    incomplete = shortest_at_max is not None and shortest_at_max < cfg.length_cutoff
    parts = [
        "enumerated",
        f"max_word_length={cfg.max_word_length}",
        f"length_cutoff={cfg.length_cutoff:g}",
        f"cutoff_incomplete={str(incomplete).lower()}",
    ]
    return LengthSpectrum(
        cutoff=cfg.length_cutoff,
        classes=classes,
        tolerance=_TOLERANCE,
        source="; ".join(parts),
    )
