"""Weight bookkeeping and character evaluation for the d = 3 model.

Covers the finite-dimensional inputs the geodesic sums need: the weight k
of the isotropy representation, the group twist chi given by generator
matrices, the determinant factor det(Id - Ad|nbar), and the Plancherel
density q(lam) = (lam^2 + k^2) / 4 pi^2 weighting the identity
contribution.

The isotropy torus is one-dimensional: a weight is a single number k
(integer or half-integer), the character at rotation angle theta is
exp(i*k*theta), and the order-two symmetry sends k to -k.  Weights with
k != 0 move under it ("case b"); the graded zeta kinds need one.

The characters and the determinant factor take a number, or a column of
them, and give a Python number, or a list.  A twist's images are tuples of
row tuples of complex numbers, inverted by Gauss-Jordan elimination, and
its traces over a list of words come from products of half words kept
for the call.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from operator import mul

from .errors import CaseAError, InvariantViolation, SchemaError, UnknownSymbol
from .spectra import ARRAY, Record, array_shape, json_object, require

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

# The largest |k| a weight may have.  An angle in (-pi, pi] is rounded by up
# to pi * 2**-53 rad, and the phase k*theta carries that error times |k|: at
# the cap it is 3.7e-10 rad, and past 2**53 / pi it is a radian or more, so
# exp(i k theta) has no correct digit left.
MAX_WEIGHT = 2.0**20


def check_weight(k: float) -> float:
    """The weight as a float; it must be an integer or a half-integer, 2k
    must be finite, and |k| at most MAX_WEIGHT."""
    k = float(k)
    if math.isfinite(k) and math.isinf(2.0 * k):
        raise InvariantViolation(f"weight {k} is too large: 2k is not finite")
    if not math.isfinite(k) or abs(2.0 * k - round(2.0 * k)) > 1e-12:
        raise InvariantViolation(f"weight must be an integer or half-integer, got {k}")
    if abs(k) > MAX_WEIGHT:
        error = MAX_WEIGHT * math.pi * 2**-53
        raise InvariantViolation(
            f"weight {k} is too large: |k| must be at most {MAX_WEIGHT:.0f}, past which "
            f"the phase k*theta carries a rounding error above {error:.2g} rad"
        )
    return k


def require_case_b(k: float) -> None:
    """Refuse k = 0, the one weight the sign flip fixes."""
    if check_weight(k) == 0.0:
        raise CaseAError(
            f"weight {k} is symmetric under the sign flip; "
            "this operation needs an asymmetric weight"
        )


def character_sigma(k: float, angle):
    """Character value exp(i*k*theta) at rotation angle theta, or the list
    of them over a column of angles."""
    ik = 1j * k
    if isinstance(angle, (int, float)):
        return cmath.exp(ik * angle)
    return [cmath.exp(ik * a) for a in angle]


# ---------------------------------------------------------------------------
# group twist


def _inverse(name: str, image: tuple) -> tuple:
    """The inverse by Gauss-Jordan elimination with partial pivoting; an
    exactly singular image, one that meets a zero pivot, is refused."""
    n = len(image)
    rows = [[*row, *(complex(i == j) for j in range(n))] for i, row in enumerate(image)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0:
            raise InvariantViolation(f"image of {name!r} is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        top[:] = [x / top[col] for x in top]
        for row in rows:
            factor = row[col]
            if row is not top and factor:
                row[:] = [x - factor * y for x, y in zip(row, top)]
    return tuple(tuple(row[n:]) for row in rows)


def _require_finite(what: str, rows: tuple) -> None:
    bad = next((z for row in rows for z in row if not cmath.isfinite(z)), None)
    if bad is not None:
        raise InvariantViolation(f"{what} has the non-finite entry {bad}")


class GammaRep(Record):
    """Finite-dimensional, possibly non-unitary, representation of the group.

    images maps generator names to invertible dimension x dimension
    matrices of finite numbers, any that m[i][j] indexes, held as tuples
    of row tuples.  A symbol's inverse is named by swapping its case; its
    image, the matrix inverse, is computed once at construction rather
    than per word, and refused if it leaves the float range.
    """

    _fields = ("dimension", "images")

    def __init__(self, dimension: int, images: dict[str, tuple]):
        d = dimension
        imgs = {}
        for name, image in images.items():
            try:
                rows = tuple(tuple(map(complex, row)) for row in image)
            except TypeError:
                raise InvariantViolation(f"image of {name!r} is not a matrix of numbers") from None
            shape = (len(rows), *{len(row) for row in rows})  # ragged rows give more widths
            if shape != (d, d):
                raise InvariantViolation(f"image of {name!r} has shape {shape}, expected ({d}, {d})")
            _require_finite(f"image of {name!r}", rows)
            imgs[name] = rows
        by_symbol = dict(imgs)
        for name, image in imgs.items():
            inverse = _inverse(name, image)  # refuses a singular image
            if name.swapcase() not in by_symbol:
                _require_finite(f"inverse of the image of {name!r}", inverse)
                by_symbol[name.swapcase()] = inverse
        self.__dict__.update(dimension=dimension, images=imgs, _by_symbol=by_symbol)

    def image_of_symbol(self, symbol: str) -> tuple:
        image = self._by_symbol.get(symbol)
        if image is None:
            raise UnknownSymbol(f"symbol {symbol!r} names no generator or inverse")
        return image


def character_chi(chi: GammaRep | None, word: str | Iterable[str]) -> complex | list[complex]:
    """Trace of the ordered product of generator images over a word, or
    the list of them over a sequence of words.

    chi=None means the trivial one-dimensional twist.  The empty word maps
    to the identity, so its character is the representation dimension.
    A word of n letters is split after its first ceil(n/2); the products H
    of the head and T of the tail are each multiplied out left to right,
    every prefix's product kept for the rest of the call, and the trace is
    tr(H T) = sum_ij H_ij T_ji.  A word alone follows the same rule, so it
    gives the same bits as it does in a sequence.
    """
    if isinstance(word, str):
        return character_chi(chi, [word])[0]
    if chi is None:
        return [1 + 0j for _ in word]
    d = chi.dimension
    cut = range(0, d * d, d)
    identity = tuple(complex(i % (d + 1) == 0) for i in range(d * d))
    products = {"": (identity, identity)}  # prefix: its product, row- and column-major

    def product(p: str):
        """The product over p, extended from its longest kept prefix."""
        n = len(p)
        while p[:n] not in products:
            n -= 1
        rows = products[p[:n]][0]
        for n in range(n, len(p)):
            image = chi.image_of_symbol(p[n])
            rows = tuple(sum(map(mul, rows[i : i + d], col)) for i in cut for col in zip(*image))
            products[p[: n + 1]] = rows, tuple(rows[i + j] for j in range(d) for i in cut)
        return products[p]

    traces = []
    for w in word:
        h = (len(w) + 1) // 2
        head = products.get(w[:h]) or product(w[:h])
        tail = products.get(w[h:]) or product(w[h:])
        traces.append(sum(map(mul, head[0], tail[1])))
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
        images[name] = [[complex(re, im) for re, im in row] for row in pairs]
    try:
        return GammaRep(dimension=dim, images=images)
    except InvariantViolation as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# adjoint factors on the negative root space


def ad_nbar_det(length, angle):
    """det(Id - Ad|nbar) for a loxodromic with given length and angle, or
    the list of them over columns of lengths and angles.

    The adjoint action on the two-dimensional negative root space has
    eigenvalues exp(-l + i*theta) and exp(-l - i*theta), so the determinant
    is real: 1 - 2*exp(-l)*cos(theta) + exp(-2l).
    """
    if not isinstance(length, (int, float)):
        return list(map(ad_nbar_det, length, angle))
    e = math.exp(-length)
    return 1.0 - 2.0 * e * math.cos(angle) + e * e


# ---------------------------------------------------------------------------
# Plancherel density


class PlancherelPoly(Record):
    """The d = 3 density of weight k, q(lam) = (lam^2 + k^2) / 4 pi^2.

    coefficients lists the polynomial lam^2 + k^2 from lam^0 upward;
    DEFAULT_PLANCHEREL_NORMALIZATION, the 1 / 4 pi^2, scales every
    evaluation.
    """

    _fields = ("k",)

    def __init__(self, k: float):
        self.__dict__.update(k=float(k))

    @property
    def coefficients(self) -> tuple[float, ...]:
        """(k^2, 0, 1), the coefficients of lam^0, lam^1 and lam^2."""
        return (self.k * self.k, 0.0, 1.0)

    def at_s(self, s: complex) -> complex:
        """The density at lam = -i s, (k^2 - s^2) / 4 pi^2."""
        return DEFAULT_PLANCHEREL_NORMALIZATION * (self.k * self.k - s * s)


def plancherel(k: float) -> PlancherelPoly:
    """The density weighting the identity contribution at weight k."""
    return PlancherelPoly(k)
