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
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotLoxodromic, SchemaError, UnknownSymbol
from .spectra import ClassColumns, LengthSpectrum, json_object, wrap_angle

__all__ = [
    "GroupPresentation",
    "EnumerationConfig",
    "parse_group_presentation",
    "complex_length",
    "primitive_decomposition",
    "enumerate_spectrum",
    "validate_words",
    "word_matrix",
]

_DET_TOL = 1e-12
_UNIT_CIRCLE_TOL = 1e-9
# the spectrum's matching tolerance
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GroupPresentation:
    """Generator matrices with single-character names.

    includes_inverses=True means the alphabet is exactly the supplied list
    (the caller either included inverses explicitly or wants a monoid walk);
    otherwise inverses are adjoined automatically under swapped-case names.
    """

    generators: tuple[np.ndarray, ...]
    names: tuple[str, ...]
    includes_inverses: bool = False

    def __post_init__(self):
        gens = []
        for i, g in enumerate(self.generators):
            arr = np.asarray(g, dtype=complex)
            if arr.shape != (2, 2):
                raise InvariantViolation(f"generator {i} is not a 2x2 matrix")
            det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
            if abs(det - 1.0) > _DET_TOL:
                raise InvariantViolation(
                    f"generator {i} has determinant {det}, expected 1"
                )
            arr.setflags(write=False)
            gens.append(arr)
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
    if "generators" not in doc or not isinstance(doc["generators"], list):
        raise SchemaError("missing or non-list field 'generators'")
    if "includes_inverses" not in doc or not isinstance(doc["includes_inverses"], bool):
        raise SchemaError("missing or non-boolean field 'includes_inverses'")

    names, matrices = [], []
    for i, g in enumerate(doc["generators"]):
        if not isinstance(g, dict) or "name" not in g or "matrix" not in g:
            raise SchemaError(f"generator {i}: need 'name' and 'matrix'")
        if not isinstance(g["name"], str):
            raise SchemaError(f"generator {i}: 'name' must be a string")
        raw = g["matrix"]
        try:
            flat = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"generator {i}: matrix entries must be numbers") from exc
        if flat.shape == (4, 2):
            mat = (flat[:, 0] + 1j * flat[:, 1]).reshape(2, 2)
        elif flat.shape == (2, 2, 2):
            mat = flat[:, :, 0] + 1j * flat[:, :, 1]
        else:
            raise SchemaError(
                f"generator {i}: matrix must be four [re, im] pairs, got shape "
                f"{flat.shape}"
            )
        names.append(g["name"])
        matrices.append(mat)
    try:
        return GroupPresentation(
            generators=tuple(matrices),
            names=tuple(names),
            includes_inverses=doc["includes_inverses"],
        )
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# complex length


def _eigvals_2x2(mat: np.ndarray) -> tuple[complex, complex]:
    # for det 1: lam = tr/2 +- sqrt(tr^2/4 - 1)
    tr = complex(mat[0, 0] + mat[1, 1])
    disc = np.sqrt(complex(tr * tr / 4.0 - 1.0))
    return tr / 2.0 + disc, tr / 2.0 - disc


def complex_length(mat: np.ndarray, word: str | None = None) -> tuple[float, float]:
    """Geodesic length and holonomy angle of a loxodromic matrix.

    Returns (2*ln|lam|, 2*arg(lam) wrapped to (-pi, pi]) where lam is the
    eigenvalue of larger modulus.  Raises NotLoxodromic when both
    eigenvalues sit on the unit circle (elliptic, parabolic or trivial).
    """
    mat = np.asarray(mat, dtype=complex)
    a, b = _eigvals_2x2(mat)
    lam = a if abs(a) >= abs(b) else b
    if abs(lam) <= 1.0 + _UNIT_CIRCLE_TOL:
        named = f" (word {word!r})" if word else ""
        raise NotLoxodromic(
            f"matrix has no eigenvalue off the unit circle"
            f" (|lam| = {abs(lam):.12g}){named}",
            word=word,
        )
    return 2.0 * math.log(abs(lam)), wrap_angle(2.0 * np.angle(lam))


def word_matrix(pres: GroupPresentation, word: str) -> np.ndarray:
    """Ordered product of generator matrices over the word's symbols."""
    by_name = dict(zip(pres.names, pres.generators))
    acc = np.eye(2, dtype=complex)
    for sym in word:
        if sym in by_name:
            acc = acc @ by_name[sym]
        elif sym.swapcase() in by_name:
            acc = acc @ np.linalg.inv(by_name[sym.swapcase()])
        else:
            raise UnknownSymbol(f"symbol {sym!r} names no generator or inverse")
    return acc


# ---------------------------------------------------------------------------
# primitivity


def primitive_decomposition(classes: Iterable[tuple[float, float, str]]) -> ClassColumns:
    """Give each (length, angle, word) class its power multiplicity.

    A word w with primitive period p (the first nonzero offset at which w
    occurs in w + w) is the (len(w) / p)-th power of its first p letters, so
    in a free group its class is that power of a primitive class.  The
    classes come back as columns, in the order given.
    """
    length, angle, words = array("d"), array("d"), []
    for class_length, class_angle, word in classes:
        length.append(class_length)
        angle.append(class_angle)
        words.append(word)
    return ClassColumns(
        length, angle, [len(w) // (w + w).find(w, 1) for w in words], words
    )


# ---------------------------------------------------------------------------
# enumeration


def _walk(pres: GroupPresentation, cfg: EnumerationConfig) -> ClassColumns:
    """The necklace walk: every class below the cutoff, sorted by (length,
    angle, word), with its multiplicity."""
    mats = dict(zip(pres.names, pres.generators))
    if not pres.includes_inverses:
        mats |= {name.swapcase(): np.linalg.inv(mat) for name, mat in mats.items()}
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
                stack.append((word + x, mat @ mats[x], p if x == least else t + 1))
    if failed is not None:
        raise failed

    # the walk meets the words in string order, so a stable sort by length,
    # then angle, orders the classes by (length, angle, word)
    order = np.lexsort((angles, lengths))
    return primitive_decomposition(
        zip(np.asarray(lengths)[order], np.asarray(angles)[order], (words[i] for i in order))
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
        dimension=3,
        cutoff=cfg.length_cutoff,
        classes=classes,
        tolerance=_TOLERANCE,
        source="; ".join(parts),
    )


def spectrum_is_incomplete(spectrum: LengthSpectrum) -> bool:
    return "cutoff_incomplete=true" in spectrum.source


def validate_words(spectrum: LengthSpectrum, pres: GroupPresentation) -> None:
    """Check each class word reproduces its stored (length, angle)."""
    for i, c in enumerate(spectrum.classes):
        if c.word is None:
            continue
        length, angle = complex_length(word_matrix(pres, c.word), word=c.word)
        if (
            abs(length - c.length) > spectrum.tolerance
            or abs(wrap_angle(angle - c.angle)) > spectrum.tolerance
        ):
            raise InvariantViolation(
                f"class {i}: word {c.word!r} gives ({length:.12g}, {angle:.12g}), "
                f"stored ({c.length:.12g}, {c.angle:.12g})"
            )
