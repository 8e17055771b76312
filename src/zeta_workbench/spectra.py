"""Core domain types: geodesic length spectra and operator spectra.

A length spectrum is a finite set of conjugacy classes below a stated
cutoff, with manifold metadata.  It holds the classes as columns: read-only
length, angle and multiplicity arrays and a tuple of optional words, which
the class sums read directly.  The same classes read as GeodesicClass
records (length, holonomy angle, multiplicity, primitivity, word) through
LengthSpectrum.classes, built on first access.  Operator spectra are finite
eigenvalue lists with algebraic multiplicities; eigenvalues are complex
throughout because the group representation twisting the operator need
not be unitary.

All types are immutable after construction and validated eagerly; a
spectrum's columns are checked as arrays, and every refusal names the
first offending class.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, SchemaError
from .names import ZETA_KINDS

__all__ = [
    "ClassColumns",
    "GeodesicClass",
    "LengthSpectrum",
    "EigenvalueSpectrum",
    "DiracSpectrum",
    "LaplaceSpectrum",
    "SingularityRecord",
    "TruncatedValue",
    "wrap_angle",
    "parse_length_spectrum",
    "serialize_length_spectrum",
    "parse_eigenvalue_spectrum",
    "serialize_eigenvalue_spectrum",
    "square_spectrum",
    "super_multiplicity",
]

TAU = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    y = math.remainder(theta, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def angle_gap(delta: np.ndarray) -> np.ndarray:
    """|wrap_angle(delta)| for an array: the distance to the nearest multiple
    of 2 pi.  fmod is exact, and so is TAU - r for r >= pi, so this equals
    abs(math.remainder(delta, TAU)) bit for bit."""
    r = np.fmod(np.abs(delta), TAU)
    return np.minimum(r, TAU - r)


@dataclass(frozen=True)
class GeodesicClass:
    """One conjugacy class: hyperbolic length, holonomy angle, power data.

    multiplicity n means the class is the n-th power of a primitive class.
    """

    length: float
    angle: float
    multiplicity: int = 1
    primitive: bool = True
    word: str | None = None

    def __post_init__(self):
        if not (self.length > 0):
            raise InvariantViolation(f"class length must be positive, got {self.length}")
        if self.multiplicity < 1:
            raise InvariantViolation(
                f"class multiplicity must be >= 1, got {self.multiplicity}"
            )
        if self.primitive != (self.multiplicity == 1):
            raise InvariantViolation(
                "primitive flag must hold exactly when multiplicity is 1 "
                f"(multiplicity={self.multiplicity}, primitive={self.primitive})"
            )


class ClassColumns(Sequence):
    """A spectrum's classes as columns: read-only length and angle (float)
    and multiplicity (int) arrays and a tuple of words (str or None).

    As a sequence it yields GeodesicClass records, built on first item
    access; its length reads the columns.  Equality compares the columns,
    which is equality of the records.
    """

    def __init__(self, length, angle, multiplicity, words):
        # arrays and buffers of the right type are taken over, not copied
        self.length = np.asarray(length, dtype=float)
        self.angle = np.asarray(angle, dtype=float)
        self.multiplicity = np.asarray(multiplicity, dtype=int)
        for column in (self.length, self.angle, self.multiplicity):
            column.setflags(write=False)
        self.words = tuple(words)
        self._records = None

    @classmethod
    def of(cls, records) -> "ClassColumns":
        """The columns of GeodesicClass records, which are kept as they are."""
        records = tuple(records)
        columns = cls(
            [c.length for c in records],
            [c.angle for c in records],
            [c.multiplicity for c in records],
            [c.word for c in records],
        )
        columns._records = records
        return columns

    def _built(self) -> tuple[GeodesicClass, ...]:
        if self._records is None:
            self._records = tuple(
                GeodesicClass(length, angle, n, n == 1, word)
                for length, angle, n, word in zip(
                    self.length.tolist(),
                    self.angle.tolist(),
                    self.multiplicity.tolist(),
                    self.words,
                )
            )
        return self._records

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassColumns):
            return NotImplemented
        return (
            self.words == other.words
            and np.array_equal(self.length, other.length)
            and np.array_equal(self.angle, other.angle)
            and np.array_equal(self.multiplicity, other.multiplicity)
        )

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class LengthSpectrum:
    """Finite set of geodesic classes with length <= cutoff, plus metadata.

    classes takes GeodesicClass records or ClassColumns and holds
    ClassColumns; length, angle, multiplicity and words are its columns.
    memo is where zeta.py keeps the twist traces, class weights and tail
    model constants it last computed on this spectrum.
    """

    dimension: int
    cutoff: float
    classes: Sequence[GeodesicClass]
    tolerance: float = 1e-9
    volume: float | None = None
    source: str = ""
    length: np.ndarray = field(init=False, repr=False, compare=False)
    angle: np.ndarray = field(init=False, repr=False, compare=False)
    multiplicity: np.ndarray = field(init=False, repr=False, compare=False)
    words: tuple[str | None, ...] = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = self.classes
        if not isinstance(columns, ClassColumns):
            columns = ClassColumns.of(columns)
            object.__setattr__(self, "classes", columns)
        for name in ("length", "angle", "multiplicity", "words"):
            object.__setattr__(self, name, getattr(columns, name))
        _validate_spectrum(self)

    def with_volume(self, volume: float) -> "LengthSpectrum":
        return replace(self, volume=volume)


def close_pairs(length: np.ndarray, angle: np.ndarray, tol: float):
    """Index arrays (i, j), i < j, of the length-sorted classes whose lengths
    and angles agree within tol, in no particular order.

    Class i is paired with the classes after it up to the first one more
    than tol longer; offset d = j - i is one vectorised pass, and the sweep
    stops at the first offset where no class has a close enough partner.
    """
    firsts, seconds = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    reach = np.arange(len(length))  # classes whose run of close lengths goes on
    d = 1
    while True:
        reach = reach[reach + d < len(length)]
        reach = reach[length[reach + d] - length[reach] <= tol]
        if not reach.size:
            break
        i = reach[angle_gap(angle[reach + d] - angle[reach]) <= tol]
        firsts.append(i)
        seconds.append(i + d)
        d += 1
    return np.concatenate(firsts), np.concatenate(seconds)


def _validate_spectrum(spec: LengthSpectrum) -> None:
    if spec.dimension != 3:
        raise InvariantViolation(f"dimension must be 3, got {spec.dimension}")
    if not (spec.cutoff > 0):
        raise InvariantViolation(f"cutoff must be positive, got {spec.cutoff}")
    if not (spec.tolerance > 0):
        raise InvariantViolation(f"tolerance must be positive, got {spec.tolerance}")
    if spec.volume is not None and not (spec.volume > 0):
        raise InvariantViolation(f"volume must be positive, got {spec.volume}")

    tol, length, angle = spec.tolerance, spec.length, spec.angle
    # the longest class before each one (0 before the first)
    prev = np.maximum.accumulate(np.concatenate(([0.0], length)))[:-1]
    above = length > spec.cutoff + tol
    bad = np.flatnonzero(above | (length < prev - tol))
    if bad.size:
        i = int(bad[0])
        if above[i]:
            raise InvariantViolation(
                f"class {i} has length {float(length[i])} above cutoff {spec.cutoff}"
            )
        raise InvariantViolation(f"classes not sorted by length (index {i})")

    # Duplicate (length, angle) pairs are allowed only when the classes carry
    # distinct words: a class and its inverse share both invariants yet are
    # distinct conjugacy classes.
    i, j = close_pairs(length, angle, tol)
    words = np.array(spec.words, dtype=object)
    first, second = words[i], words[j]
    bad = np.equal(first, None) | np.equal(second, None) | (first == second)
    if bad.any():
        i, j = min(zip(i[bad].tolist(), j[bad].tolist()))
        raise InvariantViolation(
            f"classes {i} and {j} duplicate (length, angle) "
            f"({float(length[i])}, {float(angle[i])}) without distinguishing words"
        )

    # Every n-th power class must have its primitive root present.  The
    # lengths are sorted up to tol, so their running maximum bounds a window
    # of candidate roots that searchsorted finds; the exact test runs on it.
    powers = np.flatnonzero(spec.multiplicity > 1)
    n = spec.multiplicity[powers]
    root_len = length[powers] / n
    needed = root_len <= spec.cutoff + tol
    powers, n, root_len = powers[needed], n[needed], root_len[needed]
    top = np.maximum.accumulate(length)
    pad = 2.0 * tol + 1e-12 * root_len  # rounding room; the window only widens
    lo = np.searchsorted(top, root_len - pad, "left")
    hi = np.searchsorted(top, root_len + tol + pad, "right")
    found = np.zeros(len(powers), dtype=bool)
    for d in range(int(np.max(hi - lo, initial=0))):
        r = np.minimum(lo + d, len(length) - 1)
        found |= (
            (lo + d < hi)
            & (np.abs(length[r] - root_len) <= tol)
            & (angle_gap(n * angle[r] - angle[powers]) <= tol * n + 1e-12)
        )
    if not found.all():
        k = int(np.argmin(found))
        raise InvariantViolation(
            f"class {int(powers[k])} has multiplicity {int(n[k])} but no root class of length "
            f"{float(root_len[k]):.12g} with compatible angle is present"
        )


# ---------------------------------------------------------------------------
# eigenvalue spectra


@dataclass(frozen=True)
class EigenvalueSpectrum:
    """Finite eigenvalue list with algebraic multiplicities."""

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        entries = tuple((complex(ev), int(m)) for ev, m in self.entries)
        object.__setattr__(self, "entries", entries)
        seen: set[complex] = set()
        for ev, m in entries:
            if m < 1:
                raise InvariantViolation(f"multiplicity must be >= 1, got {m} at {ev}")
            if ev in seen:
                raise InvariantViolation(f"eigenvalue {ev} listed twice")
            seen.add(ev)

    def multiplicity(self, ev: complex) -> int:
        ev = complex(ev)
        return next((m for e, m in self.entries if e == ev), 0)


class DiracSpectrum(EigenvalueSpectrum):
    """Eigenvalues of a first-order twisted operator; signed spectrum."""


class LaplaceSpectrum(EigenvalueSpectrum):
    """Eigenvalues of the squared operator."""


@dataclass(frozen=True)
class SingularityRecord:
    """Catalogued singularity: location, integer order, owning zeta."""

    location: complex
    order: int
    zeta_kind: str

    def __post_init__(self):
        object.__setattr__(self, "location", complex(self.location))
        if self.order == 0:
            raise InvariantViolation("singularity order must be nonzero")
        if self.zeta_kind not in ZETA_KINDS:
            raise InvariantViolation(f"unknown zeta kind {self.zeta_kind!r}")


@dataclass(frozen=True)
class TruncatedValue:
    """Value of a truncated series plus a model-based bound on the tail."""

    value: complex
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if self.tail_bound < 0:
            raise InvariantViolation("tail_bound must be nonnegative")
        if self.terms_used < 0:
            raise InvariantViolation("terms_used must be nonnegative")


# ---------------------------------------------------------------------------
# serialization


def json_object(document: str | dict) -> dict:
    """The JSON object a parser reads: the document's text decoded, or the
    already-decoded dict; anything else is a SchemaError."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("top level must be an object")
    return document


def _require(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = doc[key]
    if not isinstance(val, types):
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(val).__name__}")
    # bool is an int subclass; reject it where a number is expected
    if isinstance(val, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"{where}: field {key!r} has wrong type bool")
    return val


_CLASS_FIELDS = {"length", "angle", "multiplicity", "primitive", "word"}
_MISSING = object()


def _misfits(values: list, types: tuple) -> list[bool]:
    """Per value, whether it lies outside types, bool counting as a number
    only where types name it.  One set of the exact types settles the
    common case of a clean column."""
    if set(map(type, values)) <= set(types):
        return []
    return [
        not isinstance(v, types) or (isinstance(v, bool) and bool not in types)
        for v in values
    ]


def _class_columns(raw: list, first: int = 0) -> ClassColumns:
    """Read the class objects into columns, one check per field across
    all classes, and refuse the document at the first check that fails.

    The classes are numbered from first.  The checks run in the order
    object, fields, length, angle, multiplicity, primitive, word, then the
    GeodesicClass invariants, so a single class is refused as a per-class
    reader refuses it.
    """

    def refuse(flags, error) -> None:
        hits = np.flatnonzero(np.asarray(flags, dtype=bool))
        if hits.size:
            raise error(int(hits[0]))

    def schema(message):
        return lambda i: SchemaError(f"class {first + i}: {message(i)}")

    refuse([not isinstance(rc, dict) for rc in raw], schema(lambda i: "must be an object"))
    if not set().union(*raw) <= _CLASS_FIELDS:
        refuse(
            [not _CLASS_FIELDS.issuperset(rc) for rc in raw],
            schema(lambda i: f"unknown field {min(set(raw[i]) - _CLASS_FIELDS)!r}"),
        )
    numbers = []
    for key in ("length", "angle"):
        values = [rc.get(key, _MISSING) for rc in raw]
        refuse(
            _misfits(values, (int, float)),
            schema(
                lambda i: f"missing field {key!r}"
                if values[i] is _MISSING
                else f"field {key!r} has wrong type {type(values[i]).__name__}"
            ),
        )
        numbers.append(values)
    mult = [rc.get("multiplicity", 1) for rc in raw]
    refuse(_misfits(mult, (int,)), schema(lambda i: "field 'multiplicity' must be an integer"))
    if mult and not -(2**63) < min(mult) <= max(mult) < 2**63:  # the column is int64
        refuse(
            [not -(2**63) < n < 2**63 for n in mult],
            schema(lambda i: "field 'multiplicity' is out of range"),
        )
    primitive = [rc.get("primitive", n == 1) for rc, n in zip(raw, mult)]
    refuse(_misfits(primitive, (bool,)), schema(lambda i: "field 'primitive' must be a boolean"))
    words = [rc.get("word") for rc in raw]
    refuse(
        _misfits(words, (str, type(None))),
        schema(lambda i: "field 'word' must be a string or null"),
    )

    length, angle = numbers
    columns = ClassColumns(length, angle, mult, words)
    n = columns.multiplicity
    # the faulty class's record raises the refusal in its own words
    refuse(
        ~(columns.length > 0) | (n < 1) | (np.array(primitive, dtype=bool) != (n == 1)),
        lambda i: GeodesicClass(float(length[i]), float(angle[i]), mult[i], primitive[i]),
    )
    return columns


def parse_length_spectrum(document: str | dict) -> LengthSpectrum:
    """Parse and validate a length-spectrum JSON document.

    Accepts the JSON text or an already-decoded dict.  The dimension must
    be 3, and a class carrying a field outside the schema is refused.  The
    classes are read field by field into ClassColumns; no record is built.
    """
    doc = json_object(document)

    dimension = _require(doc, "dimension", int, "spectrum")
    if dimension != 3:
        raise SchemaError(
            f"spectrum: dimension must be 3 (hyperbolic 3-manifolds), got {dimension}"
        )
    cutoff = float(_require(doc, "cutoff", (int, float), "spectrum"))
    tolerance = doc.get("tolerance", 1e-9)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        raise SchemaError("spectrum: field 'tolerance' must be a number")
    tolerance = float(tolerance)
    volume = doc.get("volume")
    if volume is not None:
        if isinstance(volume, bool) or not isinstance(volume, (int, float)):
            raise SchemaError("spectrum: field 'volume' must be a number or null")
        volume = float(volume)
    source = doc.get("source", "")
    if not isinstance(source, str):
        raise SchemaError("spectrum: field 'source' must be a string")
    raw_classes = _require(doc, "classes", list, "spectrum")

    try:
        classes = _class_columns(raw_classes)
    except (SchemaError, InvariantViolation):
        # the first faulty class, read alone, names the fault that a
        # class-by-class reading meets first
        for i, rc in enumerate(raw_classes):
            _class_columns([rc], first=i)
        raise
    return LengthSpectrum(
        dimension=dimension,
        cutoff=cutoff,
        classes=classes,
        tolerance=tolerance,
        volume=volume,
        source=source,
    )


def serialize_length_spectrum(spec: LengthSpectrum) -> str:
    """Emit the JSON document as `enumerate` writes it: sorted keys on one
    line (an indent would force json onto its pure-Python encoder) and a
    final newline; parse(serialize(x)) == x field for field.

    Each class is encoded on its own, so no object per class outlives its
    text; "classes" is the first key in sorted order, so the joined text
    is that of one dump of the whole document.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    classes = ", ".join(
        encode(
            {"length": length, "angle": angle, "multiplicity": n, "primitive": n == 1, "word": word}
        )
        for length, angle, n, word in zip(
            spec.length.tolist(), spec.angle.tolist(), spec.multiplicity.tolist(), spec.words
        )
    )
    rest = encode(
        {
            "dimension": spec.dimension,
            "cutoff": spec.cutoff,
            "tolerance": spec.tolerance,
            "volume": spec.volume,
            "source": spec.source,
        }
    )
    return '{"classes": [' + classes + "], " + rest[1:] + "\n"


def parse_eigenvalue_spectrum(document: str | dict, kind: str = "dirac") -> EigenvalueSpectrum:
    """Parse {"entries": [{"re", "im", "multiplicity"}]} into a spectrum."""
    doc = json_object(document)
    raw = _require(doc, "entries", list, "spectrum")
    entries = []
    for i, re in enumerate(raw):
        if not isinstance(re, dict):
            raise SchemaError(f"entry {i}: must be an object")
        where = f"entry {i}"
        ev_re = float(_require(re, "re", (int, float), where))
        ev_im = float(_require(re, "im", (int, float), where))
        mult = _require(re, "multiplicity", int, where)
        entries.append((complex(ev_re, ev_im), mult))
    cls = DiracSpectrum if kind == "dirac" else LaplaceSpectrum
    return cls(entries=tuple(entries))


def serialize_eigenvalue_spectrum(spec: EigenvalueSpectrum) -> str:
    doc = {
        "entries": [
            {"re": ev.real, "im": ev.imag, "multiplicity": m} for ev, m in spec.entries
        ]
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# spectral arithmetic


def square_spectrum(dirac: DiracSpectrum) -> LaplaceSpectrum:
    """Square each eigenvalue, merging multiplicities of coinciding squares."""
    squares: dict[complex, int] = {}
    order: list[complex] = []
    for ev, m in dirac.entries:
        mu = ev * ev
        if mu not in squares:
            squares[mu] = 0
            order.append(mu)
        squares[mu] += m
    return LaplaceSpectrum(entries=tuple((mu, squares[mu]) for mu in order))


def super_multiplicity(dirac: DiracSpectrum, ev: complex) -> int:
    """Signed multiplicity m(ev) - m(-ev), absent eigenvalues counting 0."""
    ev = complex(ev)
    return dirac.multiplicity(ev) - dirac.multiplicity(-ev)
