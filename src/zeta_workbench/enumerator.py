"""Length-spectrum generation from generator matrices (dimension 3).

The group sits in the unit-determinant 2x2 complex matrices.  A loxodromic
element with larger eigenvalue lam has geodesic length 2*ln|lam| and
holonomy angle 2*arg(lam).  Words over the generator alphabet are walked
breadth-first with immediate-inverse cancellation; conjugacy classes are
collected from cyclically reduced words, deduplicated exactly by cyclic
rotation and numerically by trace bucketing plus (length, angle) agreement.

A word and its formal inverse are never merged: they share length, angle
and trace, but in a free group no nontrivial element is conjugate to its
inverse, and no relations are available to say otherwise.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotLoxodromic, SchemaError
from .spectra import GeodesicClass, LengthSpectrum, wrap_angle

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
    trace_bucket_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_word_length < 1:
            raise InvariantViolation("max_word_length must be positive")
        if not (self.length_cutoff > 0):
            raise InvariantViolation("length_cutoff must be positive")
        if not (self.trace_bucket_tolerance > 0):
            raise InvariantViolation("trace_bucket_tolerance must be positive")


def parse_group_presentation(document: str | dict) -> GroupPresentation:
    """Parse {"generators": [{"name", "matrix"}], "includes_inverses"}.

    The matrix is four [re, im] pairs in row-major order; a nested 2x2
    layout of pairs is accepted too.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
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
    from .errors import UnknownSymbol

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


def conjugacy_key(mat: np.ndarray, tol: float) -> tuple[int, int]:
    """Hashable bucket key from the trace quantized at resolution tol."""
    tr = complex(mat[0, 0] + mat[1, 1])
    return (int(round(tr.real / tol)), int(round(tr.imag / tol)))


# ---------------------------------------------------------------------------
# primitivity


def primitive_decomposition(
    classes: list[tuple[float, float, str | None]],
    tolerance: float = 1e-9,
    notes: list[str] | None = None,
) -> list[GeodesicClass]:
    """Assign power multiplicities by root search within the class list.

    A class of length l and angle theta gets multiplicity n, the largest
    integer for which some class has length about l/n and an angle theta0
    with n*theta0 matching theta modulo a full turn.  Ambiguous root matches
    are appended to notes when given.

    The lengths are sorted once and each power n bisects them for a window
    of +-2*tolerance around l/n, so the search costs O(N n_max log N) for N
    classes and powers up to n_max; only the classes in the window are
    tested against the tolerance.
    """
    if not classes:
        return []
    by_length = sorted((c[0], c[1]) for c in classes)
    lengths = [rl for rl, _ in by_length]
    min_len = lengths[0]
    window = 2.0 * tolerance
    out = []
    for length, angle, word in classes:
        best_n = 1
        n = 2
        while length / n >= min_len - tolerance:
            target = length / n
            lo = bisect_left(lengths, target - window)
            hi = bisect_right(lengths, target + window, lo)
            hits = [
                (rl, ra)
                for rl, ra in by_length[lo:hi]
                if abs(rl - target) <= tolerance
                and abs(wrap_angle(n * ra - angle)) <= n * tolerance + 1e-12
            ]
            if len(hits) > 1 and notes is not None:
                notes.append(
                    f"ambiguous root for class at length {length:.12g}: "
                    f"{len(hits)} candidates at power {n}"
                )
            if hits:
                best_n = n
            n += 1
        out.append(
            GeodesicClass(
                length=length,
                angle=angle,
                multiplicity=best_n,
                primitive=best_n == 1,
                word=word,
            )
        )
    return out


# ---------------------------------------------------------------------------
# enumeration


def _canonical_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _formal_inverse(word: str) -> str:
    return word[::-1].swapcase()


@dataclass
class _ClassEntry:
    word: str
    canonical: str
    length: float
    angle: float


def enumerate_spectrum(pres: GroupPresentation, cfg: EnumerationConfig) -> LengthSpectrum:
    """Walk reduced words breadth-first and collect conjugacy classes.

    Returns every class found with length <= cfg.length_cutoff among words
    of at most cfg.max_word_length symbols, with multiplicities and
    primitivity filled in.  The spectrum source records the configuration
    and a completeness heuristic: if the shortest class discovered at the
    maximal word length is still below the cutoff, longer words would
    plausibly contribute further classes and the walk is flagged incomplete.
    """
    tol = cfg.trace_bucket_tolerance

    alphabet: list[tuple[str, np.ndarray]] = list(zip(pres.names, pres.generators))
    if not pres.includes_inverses:
        alphabet += [
            (name.swapcase(), np.linalg.inv(mat))
            for name, mat in zip(pres.names, pres.generators)
        ]
    letters = [name for name, _ in alphabet]
    mats = {name: mat for name, mat in alphabet}
    # cancellation applies whenever a symbol's formal inverse is in the alphabet
    inverse_letter = {
        name: name.swapcase() for name in letters if name.swapcase() in mats
    }

    if not alphabet:
        return LengthSpectrum(
            dimension=3,
            cutoff=cfg.length_cutoff,
            classes=(),
            tolerance=tol,
            source=_source_string(cfg, incomplete=False, notes=[]),
        )

    seen_canonical: set[str] = set()
    buckets: dict[tuple[int, int], list[_ClassEntry]] = {}
    kept: list[_ClassEntry] = []

    # frontier of all reduced words at the current depth
    frontier_words: list[str] = []
    frontier_mats_list: list[np.ndarray] = []

    def consider(word: str, mat: np.ndarray) -> None:
        # candidate classes come from cyclically reduced words only;
        # other words are conjugates of shorter ones already visited
        if len(word) > 1 and inverse_letter.get(word[0]) == word[-1]:
            return
        canonical = _canonical_rotation(word)
        if canonical in seen_canonical:
            return
        seen_canonical.add(canonical)
        length, angle = complex_length(mat, word=word)
        key = conjugacy_key(mat, tol)
        inv_canonical = _canonical_rotation(_formal_inverse(word))
        for dr in (-1, 0, 1):
            for di in (-1, 0, 1):
                for entry in buckets.get((key[0] + dr, key[1] + di), ()):
                    if (
                        abs(entry.length - length) <= tol
                        and abs(wrap_angle(entry.angle - angle)) <= tol
                    ):
                        same_inverse_pair = (
                            entry.canonical == inv_canonical
                            and entry.canonical != canonical
                        )
                        if not same_inverse_pair:
                            return  # same class, earlier word wins
        entry = _ClassEntry(word=word, canonical=canonical, length=length, angle=angle)
        buckets.setdefault(key, []).append(entry)
        if length <= cfg.length_cutoff:
            kept.append(entry)

    for depth in range(1, cfg.max_word_length + 1):
        if depth == 1:
            new_words = [name for name, _ in alphabet]
            new_mats = [mat for _, mat in alphabet]
        else:
            new_words = []
            new_mats = []
            if frontier_words:
                stacked = np.stack(frontier_mats_list)
                for letter in letters:
                    inv = inverse_letter.get(letter)
                    idx = [
                        i for i, w in enumerate(frontier_words) if w[-1] != inv
                    ]
                    if not idx:
                        continue
                    prod = stacked[idx] @ mats[letter]
                    for j, i in enumerate(idx):
                        new_words.append(frontier_words[i] + letter)
                        new_mats.append(prod[j])
        for word, mat in zip(new_words, new_mats):
            consider(word, mat)
        frontier_words = new_words
        frontier_mats_list = new_mats

    notes: list[str] = []
    decomposed = primitive_decomposition(
        [(e.length, e.angle, e.word) for e in kept], tolerance=tol, notes=notes
    )
    decomposed.sort(key=lambda c: (c.length, c.angle, c.word or ""))

    at_max = [e.length for e in kept if len(e.word) == cfg.max_word_length]
    incomplete = bool(at_max) and min(at_max) < cfg.length_cutoff

    return LengthSpectrum(
        dimension=3,
        cutoff=cfg.length_cutoff,
        classes=tuple(decomposed),
        tolerance=tol,
        source=_source_string(cfg, incomplete=incomplete, notes=notes),
    )


def _source_string(cfg: EnumerationConfig, incomplete: bool, notes: list[str]) -> str:
    parts = [
        "enumerated",
        f"max_word_length={cfg.max_word_length}",
        f"length_cutoff={cfg.length_cutoff:g}",
        f"trace_bucket_tolerance={cfg.trace_bucket_tolerance:g}",
        f"cutoff_incomplete={str(incomplete).lower()}",
    ]
    parts.extend(f"note:{n}" for n in notes)
    return "; ".join(parts)


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
