"""Core domain types: geodesic length spectra and the document readers.

A length spectrum is a finite set of conjugacy classes below a stated
cutoff, with manifold metadata.  It is built from ClassColumns and reads
back as those columns only: read-only length, angle and multiplicity
buffers and a tuple of optional words, which the class sums wrap as numpy
arrays without copying.  A class is primitive exactly when its
multiplicity is 1.

All types are immutable after construction and validated eagerly.  The
class rules of a length spectrum are checked once, on its columns, with
Python numbers; a document's classes are read in one pass, and every
refusal names the first offending class.  A document is written from the
columns, one fixed template per class.  This module loads no numpy, so
neither does reading, walking or writing a length spectrum.  Operator
spectra, which do, are in eigenvalues.py.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

from .errors import InvariantViolation, SchemaError
from .names import ZETA_KINDS

__all__ = [
    "ClassColumns",
    "LengthSpectrum",
    "SingularityRecord",
    "TruncatedValue",
    "wrap_angle",
    "parse_length_spectrum",
    "serialize_length_spectrum",
]

TAU = 2.0 * math.pi

# the one name of eigenvalues.py still found here, for code that reads it
# from spectra (perfbench/gridcheck.py does)
_EIGENVALUE_NAMES = ("DiracSpectrum",)


def __getattr__(name: str):
    """A name of eigenvalues.py, which it loads, numpy with it, on first use."""
    if name not in _EIGENVALUE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import eigenvalues

    return getattr(eigenvalues, name)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    y = math.remainder(theta, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def _column(values, typecode: str) -> memoryview:
    """values copied into an array(typecode), behind a read-only view."""
    return memoryview(array(typecode, values)).toreadonly()


class ClassColumns:
    """A spectrum's classes as columns: length and angle (float64) and
    multiplicity (int64, ones by default) as read-only memoryviews over
    arrays, which np.asarray wraps without copying, and a tuple of words
    (str or None, all None by default).

    Its length is the number of classes; equality compares the columns.
    """

    def __init__(self, length, angle, multiplicity=None, words=None):
        self.length = _column(length, "d")
        self.angle = _column(angle, "d")
        n = array("q", [1]) * len(self.length) if multiplicity is None else multiplicity
        self.multiplicity = _column(n, "q")
        self.words = (None,) * len(self.length) if words is None else tuple(words)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassColumns):
            return NotImplemented
        return (
            self.words == other.words
            and self.length == other.length
            and self.angle == other.angle
            and self.multiplicity == other.multiplicity
        )

    def __hash__(self) -> int:
        return hash(self.words)


@dataclass(frozen=True)
class LengthSpectrum:
    """Finite set of geodesic classes with length <= cutoff, plus metadata.

    A spectrum is built from ClassColumns, and nothing else, and reads back
    as its columns: length, angle, multiplicity and words.  The class rules
    are checked once, on the columns.
    memo is where zeta.py keeps the twist traces, class weights and tail
    model constants it last computed on this spectrum.
    """

    cutoff: float
    classes: ClassColumns
    tolerance: float = 1e-9
    volume: float | None = None
    source: str = ""
    length: memoryview = field(init=False, repr=False, compare=False)
    angle: memoryview = field(init=False, repr=False, compare=False)
    multiplicity: memoryview = field(init=False, repr=False, compare=False)
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


def _validate_spectrum(spec: LengthSpectrum) -> None:
    """The rules of a spectrum and of its classes, checked on the columns;
    a refusal names the first faulty class.  The rules are checked in turn,
    each over every class: a class that breaks the first of them is named
    before an earlier class that breaks a later one."""
    if not (spec.cutoff > 0):
        raise InvariantViolation(f"cutoff must be positive, got {spec.cutoff}")
    if not (spec.tolerance > 0):
        raise InvariantViolation(f"tolerance must be positive, got {spec.tolerance}")
    if spec.volume is not None and not (spec.volume > 0):
        raise InvariantViolation(f"volume must be positive, got {spec.volume}")

    sizes = {name: len(getattr(spec, name)) for name in ("length", "angle", "multiplicity", "words")}
    if len(set(sizes.values())) > 1:
        raise InvariantViolation(f"class {min(sizes.values())} is missing from a column: {sizes}")
    tol, top_length = spec.tolerance, spec.cutoff + spec.tolerance
    length, angle, n, words = spec.length.tolist(), spec.angle, spec.multiplicity, spec.words
    # each class's own rules; the first class above the cutoff, or below
    # the longest before it (0 before the first) by more than tol, is kept
    # for after them.  A class above the cutoff that is not the longest so
    # far comes after one that was above it already
    isfinite, longest, late = math.isfinite, 0.0, None
    for i, (l, a, m) in enumerate(zip(length, angle, n)):
        if not (l > 0 and m >= 1 and isfinite(a)):
            if not l > 0:
                raise InvariantViolation(f"class {i} has length {l}; it must be positive")
            if m < 1:
                raise InvariantViolation(f"class {i} has multiplicity {m}; it must be >= 1")
            raise InvariantViolation(f"class {i} has angle {a}; it must be finite")
        if l > longest:
            longest = l
            if l > top_length and late is None:
                late = i
        elif l < longest - tol and late is None:
            late = i
    if late is not None:
        if length[late] > top_length:
            raise InvariantViolation(
                f"class {late} has length {length[late]} above cutoff {spec.cutoff}"
            )
        raise InvariantViolation(f"classes not sorted by length (index {late})")

    # Duplicate (length, angle) pairs are allowed only when the classes carry
    # distinct words: a class and its inverse share both invariants yet are
    # distinct conjugacy classes.  Class i meets the classes after it up to
    # the first one more than tol longer.
    size = len(length)
    for i, (l, a, w) in enumerate(zip(length, angle, words)):
        j = i + 1
        while j < size and length[j] - l <= tol:
            u = words[j]
            if (w is None or u is None or w == u) and abs(wrap_angle(angle[j] - a)) <= tol:
                raise InvariantViolation(
                    f"classes {i} and {j} duplicate (length, angle) "
                    f"({l}, {a}) without distinguishing words"
                )
            j += 1

    # Every n-th power class must have its primitive root present.  The
    # lengths are sorted up to tol, so their running maximum bounds a window
    # of candidate roots that bisection finds; the exact test runs on it.
    powers = [i for i, m in enumerate(n) if m > 1]
    top = list(itertools.accumulate(length, max)) if powers else []
    for i in powers:
        l, a, m = length[i], angle[i], n[i]
        root_len = l / m
        pad = 2.0 * tol + 1e-12 * root_len  # rounding room; the window only widens
        window = range(bisect_left(top, root_len - pad), bisect_right(top, root_len + tol + pad))
        if not any(
            abs(length[r] - root_len) <= tol
            and abs(wrap_angle(m * angle[r] - a)) <= tol * m + 1e-12
            for r in window
        ):
            raise InvariantViolation(
                f"class {i} has multiplicity {m} but no root class of length "
                f"{root_len:.12g} with compatible angle is present"
            )


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
ARRAY = "array"  # require's kind for nested lists of finite numbers of one shape
# what a field with a default, or an array, must be
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", None: "null",
          ARRAY: "an array of finite numbers"}


def _is(value, kind) -> bool:
    """Whether a document value is of kind, as require defines the kinds."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and -_FLOAT_MAX <= value <= _FLOAT_MAX
    if kind is ARRAY:
        return isinstance(value, list) and array_shape(value) is not None
    return value is None if kind is None else isinstance(value, kind)


def array_shape(value) -> tuple[int, ...] | None:
    """The shape of nested lists of finite numbers, () for a number, or
    None unless the lists at each depth share one shape."""
    if not isinstance(value, list):
        return () if _is(value, float) else None
    shapes = {array_shape(item) for item in value}
    if len(shapes) > 1 or None in shapes:
        return None
    return (len(value), *next(iter(shapes), ()))


def require(doc: dict, key: str, kinds, where: str, *default):
    """Field key of doc, refused with a SchemaError that names it unless it
    is of one of kinds (a type, None for null, ARRAY, or a tuple of them);
    an absent field reads as the default when one is given.

    This is the one rule for what a document number is: kind float is an
    int or a float that is not a bool and is finite, so NaN, Infinity,
    bools and numeric strings are refused.  Kind ARRAY is nested lists of
    such numbers of one shape, which array_shape reads; the lists are
    returned as they are."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if key not in doc:
        if default:
            return default[0]
        raise SchemaError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not any(_is(value, kind) for kind in kinds):
        if float in kinds and isinstance(value, (int, float)) and not isinstance(value, bool):
            raise SchemaError(f"{where}: field {key!r} must be a finite number")
        if default or ARRAY in kinds:
            wanted = " or ".join(_KINDS[kind] for kind in kinds)
            raise SchemaError(f"{where}: field {key!r} must be {wanted}")
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(value).__name__}")
    return value


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
        raise InvariantViolation(f"{where} has length {float(length)}; it must be positive")
    if n < 1:
        raise InvariantViolation(f"{where} has multiplicity {n}; it must be >= 1")
    if primitive != (n == 1):
        raise InvariantViolation(
            f"{where}: primitive flag must hold exactly when multiplicity is 1 "
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

    The classes are written from the columns, one fixed template per class,
    in the bytes of json.dumps(document, sort_keys=True): a float is its
    repr, as json writes a finite one.  The validator keeps every angle
    finite and every length at most cutoff + tolerance, so only an infinite
    bound lets a length be one json spells its own way.  "classes" is the
    first key in sorted order.
    """
    number = repr if math.isfinite(spec.cutoff + spec.tolerance) else json.dumps
    template = '{"angle": %r, "length": %s, "multiplicity": %d, "primitive": %s, "word": %s}'
    classes = ", ".join(
        template % (a, number(l), n, "true" if n == 1 else "false", json.dumps(w))
        for l, a, n, w in zip(
            spec.length.tolist(), spec.angle.tolist(), spec.multiplicity.tolist(), spec.words
        )
    )
    rest = json.dumps(
        {
            "dimension": 3,
            "cutoff": spec.cutoff,
            "tolerance": spec.tolerance,
            "volume": spec.volume,
            "source": spec.source,
        },
        sort_keys=True,
    )
    return '{"classes": [' + classes + "], " + rest[1:] + "\n"
