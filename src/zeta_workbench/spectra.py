"""Core domain types: geodesic length spectra and operator spectra.

A length spectrum is a finite list of conjugacy-class records (length,
holonomy angle, multiplicity, primitivity, optional word) below a stated
cutoff, together with manifold metadata, and the same classes read once
into read-only arrays for the class sums.  Operator spectra are finite
eigenvalue lists with algebraic multiplicities; eigenvalues are complex
throughout because the group representation twisting the operator need
not be unitary.

All types are immutable after construction and validated eagerly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, SchemaError

__all__ = [
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


@dataclass(frozen=True)
class LengthSpectrum:
    """Finite list of geodesic classes with length <= cutoff, plus metadata.

    length, angle and multiplicity hold the classes' fields as read-only
    arrays, built once; twist_memo is where zeta.chi_trace keeps the traces
    of the last twist read over the class words.
    """

    dimension: int
    cutoff: float
    classes: tuple[GeodesicClass, ...]
    tolerance: float = 1e-9
    volume: float | None = None
    source: str = ""
    length: np.ndarray = field(init=False, repr=False, compare=False)
    angle: np.ndarray = field(init=False, repr=False, compare=False)
    multiplicity: np.ndarray = field(init=False, repr=False, compare=False)
    twist_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        _validate_spectrum(self)
        for name in ("length", "angle", "multiplicity"):
            arr = np.array([getattr(c, name) for c in self.classes], dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def with_volume(self, volume: float) -> "LengthSpectrum":
        return replace(self, volume=volume)


def _close_pairs(classes, tol: float):
    """Yield the index pairs i < j of length-sorted classes whose lengths
    and angles agree within tol."""
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            b = classes[j]
            if b.length - a.length > tol:
                break
            if abs(wrap_angle(b.angle - a.angle)) <= tol:
                yield i, j


def _validate_spectrum(spec: LengthSpectrum) -> None:
    if spec.dimension != 3:
        raise InvariantViolation(f"dimension must be 3, got {spec.dimension}")
    if not (spec.cutoff > 0):
        raise InvariantViolation(f"cutoff must be positive, got {spec.cutoff}")
    if not (spec.tolerance > 0):
        raise InvariantViolation(f"tolerance must be positive, got {spec.tolerance}")
    if spec.volume is not None and not (spec.volume > 0):
        raise InvariantViolation(f"volume must be positive, got {spec.volume}")

    tol = spec.tolerance
    prev = 0.0
    for i, c in enumerate(spec.classes):
        if c.length > spec.cutoff + tol:
            raise InvariantViolation(
                f"class {i} has length {c.length} above cutoff {spec.cutoff}"
            )
        if c.length < prev - tol:
            raise InvariantViolation(f"classes not sorted by length (index {i})")
        prev = max(prev, c.length)

    # Duplicate (length, angle) pairs are allowed only when the classes carry
    # distinct words: a class and its inverse share both invariants yet are
    # distinct conjugacy classes.
    for i, j in _close_pairs(spec.classes, tol):
        a, b = spec.classes[i], spec.classes[j]
        if a.word is None or b.word is None or a.word == b.word:
            raise InvariantViolation(
                f"classes {i} and {j} duplicate (length, angle) "
                f"({a.length}, {a.angle}) without distinguishing words"
            )

    # Every n-th power class must have its primitive root present.
    for i, c in enumerate(spec.classes):
        n = c.multiplicity
        if n == 1:
            continue
        root_len = c.length / n
        if root_len > spec.cutoff + tol:
            continue
        found = any(
            abs(r.length - root_len) <= tol
            and abs(wrap_angle(n * r.angle - c.angle)) <= tol * n + 1e-12
            for r in spec.classes
        )
        if not found:
            raise InvariantViolation(
                f"class {i} has multiplicity {n} but no root class of length "
                f"{root_len:.12g} with compatible angle is present"
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

    def multiplicity(self, ev: complex, tol: float = 0.0) -> int:
        ev = complex(ev)
        for e, m in self.entries:
            if e == ev or (tol > 0 and abs(e - ev) <= tol):
                return m
        return 0


class DiracSpectrum(EigenvalueSpectrum):
    """Eigenvalues of a first-order twisted operator; signed spectrum."""


class LaplaceSpectrum(EigenvalueSpectrum):
    """Eigenvalues of the squared operator."""


ZETA_KINDS = ("selberg", "ruelle", "symmetrized", "super", "super_ruelle")


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


def parse_length_spectrum(document: str | dict) -> LengthSpectrum:
    """Parse and validate a length-spectrum JSON document.

    Accepts the JSON text or an already-decoded dict.  The dimension must
    be 3, and a class carrying a field outside the schema is refused.
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

    classes = []
    for i, rc in enumerate(raw_classes):
        if not isinstance(rc, dict):
            raise SchemaError(f"class {i}: must be an object")
        where = f"class {i}"
        unknown = sorted(set(rc) - _CLASS_FIELDS)
        if unknown:
            raise SchemaError(f"{where}: unknown field {unknown[0]!r}")
        length = float(_require(rc, "length", (int, float), where))
        angle = float(_require(rc, "angle", (int, float), where))
        mult = rc.get("multiplicity", 1)
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise SchemaError(f"{where}: field 'multiplicity' must be an integer")
        primitive = rc.get("primitive", mult == 1)
        if not isinstance(primitive, bool):
            raise SchemaError(f"{where}: field 'primitive' must be a boolean")
        word = rc.get("word")
        if word is not None and not isinstance(word, str):
            raise SchemaError(f"{where}: field 'word' must be a string or null")
        classes.append(
            GeodesicClass(
                length=length,
                angle=angle,
                multiplicity=mult,
                primitive=primitive,
                word=word,
            )
        )

    return LengthSpectrum(
        dimension=dimension,
        cutoff=cutoff,
        classes=tuple(classes),
        tolerance=tolerance,
        volume=volume,
        source=source,
    )


def serialize_length_spectrum(spec: LengthSpectrum) -> str:
    """Emit the JSON document as `enumerate` writes it: sorted keys on one
    line (an indent would force json onto its pure-Python encoder) and a
    final newline; parse(serialize(x)) == x field for field."""
    doc = {
        "dimension": spec.dimension,
        "cutoff": spec.cutoff,
        "tolerance": spec.tolerance,
        "volume": spec.volume,
        "source": spec.source,
        "classes": [
            {
                "length": c.length,
                "angle": c.angle,
                "multiplicity": c.multiplicity,
                "primitive": c.primitive,
                "word": c.word,
            }
            for c in spec.classes
        ],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def parse_eigenvalue_spectrum(document: str | dict, kind: str = "dirac") -> EigenvalueSpectrum:
    """Parse {"entries": [{"re", "im", "multiplicity"}]} into a spectrum."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
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
