"""Operator spectra: finite eigenvalue lists with algebraic multiplicities.

Eigenvalues are complex throughout because the group representation
twisting the operator need not be unitary.  A spectrum is immutable and
validated at construction.  Eigenvalues have one equality rule,
merge_groups: entries closer than 1e-12, exact repeats included, merge at
construction, and the singularity catalog groups its locations alike.

This is the numpy half of the domain types; spectra.py holds the length
spectra, which load no numpy.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvariantViolation, SchemaError
from .spectra import json_object, require

__all__ = [
    "EigenvalueSpectrum",
    "DiracSpectrum",
    "LaplaceSpectrum",
    "parse_eigenvalue_spectrum",
    "serialize_eigenvalue_spectrum",
    "square_spectrum",
    "super_multiplicity",
]


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


# ---------------------------------------------------------------------------
# serialization


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
