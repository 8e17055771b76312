"""Core domain types: geodesic length spectra and operator spectra.

A length spectrum is a finite set of conjugacy classes below a stated
cutoff, with manifold metadata.  It is built from ClassColumns: read-only
length, angle and multiplicity arrays and a tuple of optional words, which
the class sums read directly.  It reads back as those columns, or as
GeodesicClass records (length, holonomy angle, multiplicity, primitivity,
word) through LengthSpectrum.classes, built on first access.  Operator
spectra are finite eigenvalue lists with algebraic multiplicities;
eigenvalues are complex throughout because the group representation
twisting the operator need not be unitary.

All types are immutable after construction and validated eagerly.  The
class rules of a length spectrum are checked once, on its columns; a
document's classes are read in one pass, and every refusal names the
first offending class.  Eigenvalues have one equality rule,
merge_groups: entries closer than 1e-12, exact repeats included, merge at
construction, and the singularity catalog groups its locations alike.
"""

from __future__ import annotations

import json
import math
import sys
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
    """One conjugacy class as LengthSpectrum.classes yields it: hyperbolic
    length, holonomy angle, power data and word.

    multiplicity n means the class is the n-th power of a primitive class.
    """

    length: float
    angle: float
    multiplicity: int = 1
    word: str | None = None

    @property
    def primitive(self) -> bool:
        return self.multiplicity == 1


class ClassColumns(Sequence):
    """A spectrum's classes as columns: read-only length and angle (float)
    and multiplicity (int, ones by default) arrays and a tuple of words
    (str or None, all None by default).

    As a sequence it yields GeodesicClass records, built on first item
    access; its length reads the columns.  Equality compares the columns,
    which is equality of the records.
    """

    def __init__(self, length, angle, multiplicity=None, words=None):
        # arrays and buffers of the right type are taken over, not copied
        self.length = np.asarray(length, dtype=float)
        self.angle = np.asarray(angle, dtype=float)
        n = np.ones_like(self.length, dtype=int) if multiplicity is None else multiplicity
        self.multiplicity = np.asarray(n, dtype=int)
        for column in (self.length, self.angle, self.multiplicity):
            column.setflags(write=False)
        self.words = (None,) * len(self.length) if words is None else tuple(words)
        self._records = None

    def _built(self) -> tuple[GeodesicClass, ...]:
        if self._records is None:
            self._records = tuple(
                map(
                    GeodesicClass,
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

    A spectrum is built from ClassColumns, and nothing else, and reads back
    as columns (length, angle, multiplicity and words) or as GeodesicClass
    records (classes).  The class rules are checked once, on the columns.
    memo is where zeta.py keeps the twist traces, class weights and tail
    model constants it last computed on this spectrum.
    """

    cutoff: float
    classes: ClassColumns
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
            raise InvariantViolation(
                f"classes must be ClassColumns, got {type(columns).__name__}"
            )
        for name in ("length", "angle", "multiplicity", "words"):
            object.__setattr__(self, name, getattr(columns, name))
        _validate_spectrum(self)

    def with_volume(self, volume: float) -> "LengthSpectrum":
        return replace(self, volume=volume)


def _close_pairs(length: np.ndarray, angle: np.ndarray, tol: float):
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
    """The rules of a spectrum and of its classes, checked on the columns;
    a refusal names the first faulty class."""
    if not (spec.cutoff > 0):
        raise InvariantViolation(f"cutoff must be positive, got {spec.cutoff}")
    if not (spec.tolerance > 0):
        raise InvariantViolation(f"tolerance must be positive, got {spec.tolerance}")
    if spec.volume is not None and not (spec.volume > 0):
        raise InvariantViolation(f"volume must be positive, got {spec.volume}")

    sizes = {name: len(getattr(spec, name)) for name in ("length", "angle", "multiplicity", "words")}
    if len(set(sizes.values())) > 1:
        raise InvariantViolation(f"class {min(sizes.values())} is missing from a column: {sizes}")
    tol, length, angle, n = spec.tolerance, spec.length, spec.angle, spec.multiplicity
    bad = np.flatnonzero(~(length > 0) | (n < 1) | ~np.isfinite(angle))
    if bad.size:
        i = int(bad[0])
        if not length[i] > 0:
            raise InvariantViolation(f"class {i} has length {length[i]}; it must be positive")
        if n[i] < 1:
            raise InvariantViolation(f"class {i} has multiplicity {n[i]}; it must be >= 1")
        raise InvariantViolation(f"class {i} has angle {angle[i]}; it must be finite")
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
    i, j = _close_pairs(length, angle, tol)
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
    powers = np.flatnonzero(n > 1)
    n = n[powers]
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


EIGENVALUE_TOL = 1e-12  # eigenvalues closer than this are one
_BLOCK = 4096  # pairs per block of the all-pairs temporaries


def _near(queries: np.ndarray, values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (q, v) of the pairs with |queries[q] - values[v]| < tol.
    Every pair is compared, the queries in blocks of _BLOCK pairs, so the
    temporaries stay near 64 kB however many queries and values there are."""
    step = max(1, _BLOCK // max(values.size, 1))
    qs, vs = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for start in range(0, queries.size, step):
        q, v = np.nonzero(np.abs(queries[start : start + step, None] - values) < tol)
        qs.append(q + start)
        vs.append(v)
    return np.concatenate(qs), np.concatenate(vs)


def merge_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one closeness rule for eigenvalues: in order, a value joins the
    first kept value closer than EIGENVALUE_TOL, or else is kept itself.
    Returns the kept indices and, per value, the position of its kept one.

    An exact repeat joins the group of its first occurrence, so only the
    distinct values, in first-occurrence order, are compared: all pairs of
    them, which stays quadratic in the number of near-equal distinct values."""
    # each value's first index, equal values (0.0 and -0.0 too) sharing one;
    # a dict, not np.unique, whose complex sort pages in 0.5 MB of numpy
    listed = values.tolist()
    firsts = {}
    for i, v in enumerate(listed):
        firsts.setdefault(v, i)
    distinct = np.array(list(firsts.values()), dtype=int)  # in order
    later, first = _near(values[distinct], values[distinct], EIGENVALUE_TOL)
    group = np.arange(len(distinct))
    # every i < j is settled when j is reached: kept if group[i] == i
    for j, i in sorted(zip(later.tolist(), first.tolist())):
        if i < j and group[j] == j and group[i] == i:
            group[j] = i
    kept = np.arange(len(values))
    kept[distinct] = distinct[group]  # each first occurrence's kept index
    return np.unique(kept[[firsts[v] for v in listed]], return_inverse=True)


class EigenvalueSpectrum:
    """Finite eigenvalue list with algebraic multiplicities, built from
    (value, multiplicity) pairs and held as read-only values (complex) and
    multiplicity (int) arrays.  A non-finite value or a multiplicity below
    1 is refused, naming the entry, and so are multiplicities adding up to
    2**53 or more; entries merge by merge_groups, the kept entry giving the
    location and the group's multiplicities adding up."""

    def __init__(self, entries):
        pairs = [(complex(ev), int(m)) for ev, m in entries]
        if sum(abs(m) for _, m in pairs) >= 2**53:  # the catalog adds them up in float64
            raise InvariantViolation("the multiplicities must add up to less than 2**53")
        values = np.array([ev for ev, _ in pairs], dtype=complex)
        mult = np.array([m for _, m in pairs], dtype=int)
        bad = np.flatnonzero(~np.isfinite(values) | (mult < 1))
        if bad.size:
            i = int(bad[0])
            if not np.isfinite(values[i]):
                raise InvariantViolation(f"entry {i} has eigenvalue {values[i]}; it must be finite")
            raise InvariantViolation(f"entry {i} has multiplicity {mult[i]}; it must be >= 1")
        kept, column = merge_groups(values)
        self.values, self.multiplicity = values[kept], np.zeros(len(kept), dtype=int)
        np.add.at(self.multiplicity, column, mult)
        for array in (self.values, self.multiplicity):
            array.setflags(write=False)

    @property
    def entries(self) -> tuple[tuple[complex, int], ...]:
        return tuple(zip(self.values.tolist(), self.multiplicity.tolist()))


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
        except ValueError as exc:  # also an int literal past Python's digit limit
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("top level must be an object")
    return document


_FLOAT_MAX = sys.float_info.max
# what a field with a default, or an array, must be
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", None: "null",
          np.ndarray: "an array of finite numbers"}


def _is(value, kind) -> bool:
    """Whether a document value is of kind, as require defines the kinds."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and -_FLOAT_MAX <= value <= _FLOAT_MAX
    if kind is np.ndarray:  # a ragged nesting leaves lists among the items
        return isinstance(value, list) and all(
            _is(item, float) for item in np.array(value, dtype=object).flat
        )
    return value is None if kind is None else isinstance(value, kind)


def require(doc: dict, key: str, kinds, where: str, *default):
    """Field key of doc, refused with a SchemaError that names it unless it
    is of one of kinds (a type, None for null, or a tuple of them); an
    absent field reads as the default when one is given.

    This is the one rule for what a document number is: kind float is an
    int or a float that is not a bool and is finite, so NaN, Infinity,
    bools and numeric strings are refused.  Kind np.ndarray is nested
    lists of numbers of one shape, returned as a float array."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if key not in doc:
        if default:
            return default[0]
        raise SchemaError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not any(_is(value, kind) for kind in kinds):
        if float in kinds and isinstance(value, (int, float)) and not isinstance(value, bool):
            raise SchemaError(f"{where}: field {key!r} must be a finite number")
        if default or np.ndarray in kinds:
            wanted = " or ".join(_KINDS[kind] for kind in kinds)
            raise SchemaError(f"{where}: field {key!r} must be {wanted}")
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return np.array(value, dtype=float) if np.ndarray in kinds else value


_CLASS_FIELDS = {"length", "angle", "multiplicity", "primitive", "word"}


def _class_columns(raw: list) -> ClassColumns:
    """Read the class objects into columns in one pass.  A class that the
    inline test does not pass goes to _class_fields, which raises its
    first fault."""
    length, angle, mult, words = [], [], [], []
    for i, rc in enumerate(raw):
        # a shortcut past _class_fields, whose require calls make a class
        # about ten times slower to read: it must pass only what
        # _class_fields accepts, so its numbers go through _is and its last
        # three tests are the per-class refusals of _class_fields
        if not (
            type(rc) is dict
            and _CLASS_FIELDS.issuperset(rc)
            and _is(l := rc.get("length"), float)
            and _is(a := rc.get("angle"), float)
            and _is(n := rc.get("multiplicity", 1), int)
            and (type(w := rc.get("word")) is str or w is None)
            and l > 0
            and 0 < n < 2**63  # the column is int64
            and rc.get("primitive", n == 1) is (n == 1)
        ):
            l, a, n, w = _class_fields(i, rc)
        length.append(l)
        angle.append(a)
        mult.append(n)
        words.append(w)
    return ClassColumns(length, angle, mult, words)


def _class_fields(i: int, rc) -> tuple:
    """Class i's length, angle, multiplicity and word, checked in the order
    object, fields, length, angle, multiplicity, primitive, word, then
    positive length, multiplicity >= 1 and the primitive flag; the first
    fault is raised."""
    where = f"class {i}"
    if not isinstance(rc, dict):
        raise SchemaError(f"{where}: must be an object")
    unknown = set(rc) - _CLASS_FIELDS
    if unknown:
        raise SchemaError(f"{where}: unknown field {min(unknown)!r}")
    length = require(rc, "length", float, where)
    angle = require(rc, "angle", float, where)
    n = require(rc, "multiplicity", int, where, 1)
    if not -(2**63) < n < 2**63:
        raise SchemaError(f"{where}: field 'multiplicity' is out of range")
    primitive = require(rc, "primitive", bool, where, n == 1)
    word = require(rc, "word", (str, None), where, None)
    if not length > 0:
        raise InvariantViolation(f"class length must be positive, got {float(length)}")
    if n < 1:
        raise InvariantViolation(f"class multiplicity must be >= 1, got {n}")
    if primitive != (n == 1):
        raise InvariantViolation(
            "primitive flag must hold exactly when multiplicity is 1 "
            f"(multiplicity={n}, primitive={primitive})"
        )
    return length, angle, n, word


def parse_length_spectrum(document: str | dict) -> LengthSpectrum:
    """Parse and validate a length-spectrum JSON document.

    Accepts the JSON text or an already-decoded dict.  The dimension must
    be 3, the only one the workbench models, and a class carrying a field
    outside the schema is refused.  The classes are read in one pass into
    ClassColumns; no record is built, and a refusal names the first faulty
    class.
    """
    doc = json_object(document)
    if (dimension := require(doc, "dimension", int, "spectrum")) != 3:
        raise SchemaError(
            f"spectrum: dimension must be 3 (hyperbolic 3-manifolds), got {dimension}"
        )
    cutoff = float(require(doc, "cutoff", float, "spectrum"))
    tolerance = float(require(doc, "tolerance", float, "spectrum", 1e-9))
    volume = require(doc, "volume", (float, None), "spectrum", None)
    source = require(doc, "source", str, "spectrum", "")
    classes = _class_columns(require(doc, "classes", list, "spectrum"))
    return LengthSpectrum(
        cutoff=cutoff,
        classes=classes,
        tolerance=tolerance,
        volume=None if volume is None else float(volume),
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
            "dimension": 3,
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
    raw = require(doc, "entries", list, "spectrum")
    entries = []
    for i, re in enumerate(raw):
        if not isinstance(re, dict):
            raise SchemaError(f"entry {i}: must be an object")
        where = f"entry {i}"
        ev_re = float(require(re, "re", float, where))
        ev_im = float(require(re, "im", float, where))
        mult = require(re, "multiplicity", int, where)
        entries.append((complex(ev_re, ev_im), mult))
    cls = DiracSpectrum if kind == "dirac" else LaplaceSpectrum
    return cls(entries=tuple(entries))


def serialize_eigenvalue_spectrum(spec: EigenvalueSpectrum) -> str:
    entries = zip(spec.values.tolist(), spec.multiplicity.tolist())
    doc = {"entries": [{"re": ev.real, "im": ev.imag, "multiplicity": m} for ev, m in entries]}
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# spectral arithmetic


def square_spectrum(dirac: DiracSpectrum) -> LaplaceSpectrum:
    """Square each eigenvalue; squares closer than EIGENVALUE_TOL merge."""
    # Python's complex product: numpy's can differ in the last bit
    squares = [v * v for v in dirac.values.tolist()]
    return LaplaceSpectrum(zip(squares, dirac.multiplicity.tolist()))


def super_multiplicity(dirac: DiracSpectrum, ev: complex) -> int:
    """Signed multiplicity m(ev) - m(-ev): m(x) is the multiplicity of the
    first eigenvalue closer than EIGENVALUE_TOL to x, or 0."""
    near = np.abs(dirac.values - np.array([[ev], [-ev]])) < EIGENVALUE_TOL
    plus, minus = (int(dirac.multiplicity[row][:1].sum()) for row in near)
    return plus - minus
