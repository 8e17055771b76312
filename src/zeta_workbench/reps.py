"""Weight bookkeeping and character evaluation for the d = 3 model.

Covers the finite-dimensional inputs the geodesic sums need: the weight k
of the isotropy representation, the group twist chi given by generator
matrices, the determinant factor det(Id - Ad|nbar), and the even Plancherel
polynomial weighting the identity contribution.

The isotropy torus is one-dimensional: a weight is a single number k
(integer or half-integer), the character at rotation angle theta is
exp(i*k*theta), and the order-two symmetry sends k to -k.  Weights with
k != 0 move under it ("case b"); the graded zeta kinds need one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import CaseAError, InvariantViolation, SchemaError, UnknownSymbol
from .spectra import ARRAY, array_shape, json_object, require

__all__ = [
    "GammaRep",
    "PlancherelPoly",
    "check_weight",
    "require_case_b",
    "character_sigma",
    "character_chi",
    "parse_gamma_rep",
    "ad_nbar_det",
    "plancherel",
    "DEFAULT_PLANCHEREL_NORMALIZATION",
]

DEFAULT_PLANCHEREL_NORMALIZATION = 1.0 / (4.0 * math.pi**2)


def check_weight(k: float) -> float:
    """The weight as a float; it must be an integer or a half-integer."""
    k = float(k)
    if not math.isfinite(k) or abs(2.0 * k - round(2.0 * k)) > 1e-12:
        raise InvariantViolation(f"weight must be an integer or half-integer, got {k}")
    return k


def require_case_b(k: float) -> None:
    """Refuse k = 0, the one weight the sign flip fixes."""
    if check_weight(k) == 0.0:
        raise CaseAError(
            f"weight {k} is symmetric under the sign flip; "
            "this operation needs an asymmetric weight"
        )


def character_sigma(k: float, angle):
    """Character value exp(i*k*theta) at rotation angle theta (or an array
    of angles)."""
    return np.exp(1j * k * angle)


# ---------------------------------------------------------------------------
# group twist


@dataclass(frozen=True)
class GammaRep:
    """Finite-dimensional, possibly non-unitary, representation of the group.

    images maps generator names to invertible dimension x dimension matrices.
    A symbol's inverse is named by swapping its case; its image, the matrix
    inverse, is computed once at construction rather than per word.
    """

    dimension: int
    images: dict[str, np.ndarray]
    _by_symbol: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        imgs = {}
        for name, mat in self.images.items():
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (self.dimension, self.dimension):
                raise InvariantViolation(
                    f"image of {name!r} has shape {arr.shape}, expected "
                    f"({self.dimension}, {self.dimension})"
                )
            if abs(np.linalg.det(arr)) == 0.0:
                raise InvariantViolation(f"image of {name!r} is singular")
            arr.setflags(write=False)
            imgs[name] = arr
        object.__setattr__(self, "images", imgs)
        by_symbol = dict(imgs)
        for name, arr in imgs.items():
            if name.swapcase() not in by_symbol:
                inverse = np.linalg.inv(arr)
                inverse.setflags(write=False)
                by_symbol[name.swapcase()] = inverse
        object.__setattr__(self, "_by_symbol", by_symbol)

    def image_of_symbol(self, symbol: str) -> np.ndarray:
        image = self._by_symbol.get(symbol)
        if image is None:
            raise UnknownSymbol(f"symbol {symbol!r} names no generator or inverse")
        return image


def character_chi(chi: GammaRep | None, word: str | Iterable[str]) -> complex | np.ndarray:
    """Trace of the ordered product of generator images over a word, or
    an array of them over a sequence of words.

    chi=None means the trivial one-dimensional twist.  The empty word maps
    to the identity, so its character is the representation dimension.
    The words of a sequence are multiplied out together, grouped by
    length: from the identity, one stacked product per letter position,
    left to right, which is the one-word product bit for bit.
    """
    if isinstance(word, str):
        return complex(character_chi(chi, [word])[0])
    words = list(word)
    if chi is None:
        return np.ones(len(words), dtype=complex)
    symbols = sorted(chi._by_symbol)
    code = {symbol: i for i, symbol in enumerate(symbols)}
    try:
        coded = [[code[x] for x in w] for w in words]
    except KeyError:
        for symbol in itertools.chain.from_iterable(words):
            chi.image_of_symbol(symbol)  # the first unknown symbol raises
    images = np.stack([chi._by_symbol[symbol] for symbol in symbols])
    by_length: dict[int, list[int]] = {}
    for i, codes in enumerate(coded):
        by_length.setdefault(len(codes), []).append(i)
    traces = np.empty(len(words), dtype=complex)
    identity = np.eye(chi.dimension, dtype=complex)
    for n, group in by_length.items():
        letters = np.array([coded[i] for i in group], dtype=int).reshape(len(group), n)
        acc = np.broadcast_to(identity, (len(group),) + identity.shape)
        for position in range(n):
            acc = acc @ images[letters[:, position]]
        traces[group] = np.trace(acc, axis1=1, axis2=2)
    return traces


def parse_gamma_rep(document: str | dict) -> GammaRep:
    """Parse {"dimension": int, "images": {name: [[[re,im], ...], ...]}}."""
    doc = json_object(document)
    dim = require(doc, "dimension", int, "chi")
    raw = require(doc, "images", dict, "chi")
    images = {}
    for name in raw:
        pairs = require(raw, name, ARRAY, "chi images")
        shape = array_shape(pairs)
        if len(shape) != 3 or shape[2] != 2:
            raise SchemaError(f"image of {name!r}: entries must be [re, im] pairs")
        images[name] = np.array(
            [[complex(re, im) for re, im in row] for row in pairs], dtype=complex
        )
    try:
        return GammaRep(dimension=dim, images=images)
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# adjoint factors on the negative root space


def ad_nbar_det(length, angle):
    """det(Id - Ad|nbar) for a loxodromic with given length and angle (or
    arrays of them).

    The adjoint action on the two-dimensional negative root space has
    eigenvalues exp(-l + i*theta) and exp(-l - i*theta), so the determinant
    is real: 1 - 2*exp(-l)*cos(theta) + exp(-2l).
    """
    e = np.exp(-length)
    return 1.0 - 2.0 * e * np.cos(angle) + e * e


# ---------------------------------------------------------------------------
# Plancherel polynomial


@dataclass(frozen=True)
class PlancherelPoly:
    """Even polynomial q with q(lam) the spectral density at parameter lam.

    even_coefficients stores (c_0, c_2, c_4, ...); odd coefficients are
    identically zero.  DEFAULT_PLANCHEREL_NORMALIZATION scales every
    evaluation.
    """

    even_coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "even_coefficients", tuple(float(c) for c in self.even_coefficients)
        )

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Full coefficient list (lam^0, lam^1, lam^2, ...); odd entries zero."""
        out: list[float] = []
        for c in self.even_coefficients:
            out.extend((c, 0.0))
        return tuple(out[:-1]) if out else (0.0,)

    def at_ilambda(self, lam: complex) -> complex:
        """Evaluate the density q(lam) (the polynomial at argument i*lam)."""
        lam2 = lam * lam
        total: complex = 0.0
        power: complex = 1.0
        for c in self.even_coefficients:
            total += c * power
            power *= lam2
        return DEFAULT_PLANCHEREL_NORMALIZATION * total

    def at_s(self, s: complex) -> complex:
        """Evaluate the polynomial at argument s, i.e. q(-i*s)."""
        return self.at_ilambda(-1j * s)


def plancherel(k: float) -> PlancherelPoly:
    """Density polynomial for the identity contribution:
    q(lam) = lam^2 + k^2, times the default normalization."""
    return PlancherelPoly((k * k, 1.0))
