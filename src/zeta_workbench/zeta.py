"""Geodesic class-sum evaluation of the five zeta functions.

The model is d = 3: rho = 1, and the weight is one number k whose
character at holonomy angle theta is exp(i k theta).  Every zeta here is
evaluated through its logarithm as a sum over the nontrivial conjugacy
classes of the supplied spectrum.  Writing l for the class length, n for
its power multiplicity and det for det(Id - Ad|nbar):

    log Z(s)   = - sum  (1/n) trchi * exp(i k theta) * exp(-(s+1) l) / det
    log R(s)   = - sum  (1/n) trchi * exp(i k theta) * exp(-s l)

The two log forms are the termwise antiderivatives (in s) of the standard
logarithmic-derivative sums

    L_S(s)  = sum (l/n) (L(gamma; k) + L(gamma; -k)) exp(-s l)
    L^s(s)  = sum (l/n) (L(gamma; k) - L(gamma; -k)) exp(-s l)
    L(gamma; k) = trchi * exp(i k theta) * exp(-l) / det

and both vanish as Re(s) grows, which pins the integration constant.
The symmetrized, super and super-Ruelle variants are the sums and
differences of the base sums at k and at its sign flip -k.

A spectrum carries its classes as columns, tuples of Python numbers that
the sums read as they are.  chi_trace reads a twist over all the class
words in one batched character_chi call, once per (spectrum, twist), and
class_weights computes the per-class weights once per (spectrum, twist,
k, kind shape); the spectrum keeps the last of each, as tuples of Python
complex numbers, and the tail model's constants for its last (twist,
growth).
Every geodesic sum, here and in traces.py, is then one kernel,
class_sum: the weights times exp of one exponent per class, -(s+1) l or
-s l here and -(l^2/4t + l) for the trace sides, one grid point at a
time.  The Selberg-type factor exp(-rho l) is folded into the exponent,
never into the weights, so a long class meets exp(-(s+rho) l), which
underflows to zero, rather than exp(-rho l) * exp(-s l) = 0 * inf.
Everything here runs on Python numbers; a twist's traces are Python
complex numbers from reps.character_chi.

Sums are only evaluated above a model-based convergence abscissa derived
from an exponential geodesic-count model N(L) <= C exp(g L), moved right
by the growth rate b of a non-unitary twist's traces, |trchi| <= dim
exp(b l) on the spectrum's classes; requests below it are refused.  Tail
bounds use the same model and are estimates, not certificates.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import mul, truediv

from .errors import ConvergenceRegionError, InvariantViolation, WorkbenchError
from .reps import (
    GammaRep,
    ad_nbar_det,
    character_chi,
    character_sigma,
    check_weight,
    require_case_b,
)
from .names import ZETA_KINDS
from .spectra import LengthSpectrum, Record, TruncatedValue

__all__ = [
    "ZetaRequest",
    "chi_trace",
    "class_sum",
    "class_weights",
    "convergence_abscissa",
    "log_derivative_super",
    "log_derivative_symmetrized",
    "log_zeta",
]

RHO = 1.0  # half the sum of the positive restricted roots
DEFAULT_GROWTH = 2.0 * RHO  # volume entropy of hyperbolic 3-space

# per kind, in the order of ZETA_KINDS: sign of the flipped character in
# the weight (0: k alone), and whether the Selberg-type factor
# exp(-rho l) / det enters
_SHAPES = dict(
    zip(
        ZETA_KINDS,
        ((0, True), (0, False), (+1, True), (-1, True), (-1, False)),
        strict=True,
    )
)


# class weights and the kernel ---------------------------------------------


def chi_trace(spectrum: LengthSpectrum, chi: GammaRep) -> tuple[complex, ...]:
    """Trace of the twist chi over each class word.

    One batched character_chi call reads every class word.  The spectrum
    keeps the traces of the last twist it was read under, keyed by the
    twist's identity: both are immutable, so a grid of sums under one
    twist reads the words once.
    """
    memo = spectrum.memo.get("chi")
    if memo is not None and memo[0] is chi:
        return memo[1]
    if None in spectrum.words:
        raise InvariantViolation(
            f"class {spectrum.words.index(None)} carries no word; "
            "a nontrivial twist needs words"
        )
    trace = tuple(character_chi(chi, spectrum.words))
    spectrum.memo["chi"] = (chi, trace)
    return trace


def class_weights(
    spectrum: LengthSpectrum, chi: GammaRep | None, k: float, sign: int, selberg_type: bool
) -> tuple[complex, ...]:
    """trchi * (exp(i k theta) + sign * exp(-i k theta)) / n per class,
    divided by det(Id - Ad|nbar) for the Selberg-type sums, whose
    exp(-rho l) enters through the exponent instead.

    The spectrum keeps the last weights it gave, a tuple, keyed by the
    twist's identity, k and the kind's shape, so a grid of sums computes
    them once.  The key spells k in hex, which tells -0.0 from 0.0: their
    characters differ in the sign of a zero.
    """
    key = (float(k).hex(), sign, selberg_type)
    memo = spectrum.memo.get("weights")
    if memo is not None and memo[0] is chi and memo[1] == key:
        return memo[2]
    length, angle = spectrum.length, spectrum.angle
    trsigma = character_sigma(k, angle)
    if sign:
        trsigma = [a + sign * b for a, b in zip(trsigma, character_sigma(-k, angle))]
    divisors = spectrum.multiplicity
    if selberg_type:
        dets = ad_nbar_det(length, angle)
        if 0.0 in dets:  # a class too short for float64 to tell from parabolic
            i = dets.index(0.0)
            raise InvariantViolation(
                f"class {i} (length {length[i]}, angle {angle[i]}) has "
                "det(Id - Ad|nbar) = 0 in floating point"
            )
        divisors = list(map(mul, divisors, dets))
    w = map(truediv, trsigma, divisors)
    if chi is not None:
        w = map(mul, chi_trace(spectrum, chi), w)
    w = tuple(w)
    spectrum.memo["weights"] = (chi, key, w)
    return w


def class_sum(weights, exponents, name: str, point) -> complex:
    """The kernel of every geodesic sum: sum over the classes of
    weights * exp(exponents), with one exponent per class at the point
    name = point.  An exponent that exp cannot take, such as one whose
    imaginary part |Im s| l is past the float range, is refused naming
    the point."""
    try:
        return sum(map(mul, weights, map(cmath.exp, exponents)), 0j)
    except (ValueError, OverflowError):
        raise WorkbenchError(
            f"{name} = {point} takes a class exponent out of the float range"
        ) from None


def _exponents(s: complex, length: tuple[float, ...], selberg_type: bool):
    """-(s + rho) l per class for the Selberg-type sums, -s l otherwise."""
    return map(mul, repeat(-(s + RHO) if selberg_type else -s), length)


# requests -----------------------------------------------------------------


class ZetaRequest(Record):
    _fields = ("s", "k", "spectrum", "kind", "chi", "growth_constant")

    def __init__(
        self,
        s: complex,
        k: float,
        spectrum: LengthSpectrum,
        kind: str = "selberg",
        chi: GammaRep | None = None,
        growth_constant: float | None = None,  # default 2*rho
    ):
        s = complex(s)
        k = check_weight(k)
        if kind not in ZETA_KINDS:
            raise InvariantViolation(f"unknown zeta kind {kind!r}")
        if _SHAPES[kind][0]:
            require_case_b(k)
        _growth(growth_constant)
        self.__dict__.update(
            s=s, k=k, spectrum=spectrum, kind=kind, chi=chi, growth_constant=growth_constant
        )


def _growth(growth_constant: float | None) -> float:
    """The count model's growth constant: 2 rho when omitted, else positive."""
    if growth_constant is None:
        return DEFAULT_GROWTH
    if not (growth_constant > 0):
        raise InvariantViolation("growth_constant must be positive")
    return growth_constant


def convergence_abscissa(kind: str, growth: float) -> float:
    """Model abscissa: growth - rho for the Selberg-type sums, growth for
    the plain geodesic sums (no exp(-rho l) damping there)."""
    return growth - RHO if _SHAPES[kind][1] else growth


def _check_region(s: complex, kind: str, growth: float, b: float) -> None:
    """Refuse s unless Re s lies above the model abscissa moved right by
    the twist's growth rate b."""
    a = convergence_abscissa(kind, growth) + b
    if not s.real > a:  # a NaN s is refused too
        raise ConvergenceRegionError(s, a)


# tail model ---------------------------------------------------------------


def _tail_integral(p: int, alpha: float, L: float) -> float:
    """Closed form of integral_L^inf u^p exp(-alpha u) du for p in {0, 1}."""
    if p == 0:
        return math.exp(-alpha * L) / alpha
    return math.exp(-alpha * L) * (L / alpha + 1.0 / (alpha * alpha))


def _count_model(
    spectrum: LengthSpectrum, chi: GammaRep | None, growth: float
) -> tuple[float, float, float]:
    """The twist's dimension, its growth rate b and the count constant C
    of N(L) = C exp(g L), fitted by least squares to the class ranks of
    the nonempty spectrum.

    The model bounds |trchi| by dim exp(b l): b is the largest
    ln(|trchi| / dim) / l over the classes, floored at 0, so a unitary
    twist gives 0.  The classes give only a lower estimate of the rate a
    non-unitary twist reaches on longer words.  Like the weights, the
    spectrum keeps the triple for its last twist (by identity) and
    growth."""
    memo = spectrum.memo.get("count_model")
    if memo is not None and memo[0] is chi and memo[1] == growth:
        return memo[2]
    dim, b = 1.0, 0.0
    if chi is not None:
        dim = float(chi.dimension)
        for trace, l in zip(chi_trace(spectrum, chi), spectrum.length):
            if abs(trace) > dim:
                b = max(b, math.log(abs(trace) / dim) / l)
    logs = (math.log(rank) - growth * l for rank, l in enumerate(spectrum.length, 1))
    C = math.exp(math.fsum(logs) / len(spectrum.length))
    model = (dim, b, C)
    spectrum.memo["count_model"] = (chi, growth, model)
    return model


def _tail_bound(
    spectrum: LengthSpectrum,
    chi: GammaRep | None,
    growth: float,
    beta: float,
    sigma_bound: float,
    with_det: bool,
    with_length_factor: bool,
) -> float:
    """Model bound on the classes beyond the cutoff.

    beta is the exponential decay rate of one term; the count model
    N(L) = C exp(g L) contributes C g exp(g u) du, and |trchi| is at most
    dim exp(b u), so the tail decays like exp(-(beta-g-b) L).
    sigma_bound bounds |trsigma|: 1 for one character, 2 for a pair.
    """
    chi_bound, b, C = _count_model(spectrum, chi, growth)
    alpha = beta - growth - b
    if alpha <= 0:  # guarded by the abscissa check; belt and braces
        return math.inf
    L = spectrum.cutoff
    # det(l, theta) >= (1 - exp(-l))^2, decreasing in -l, so the cutoff
    # value floors every omitted term
    det_floor = (1.0 - math.exp(-L)) ** 2 if with_det else 1.0
    base = chi_bound * sigma_bound * C * growth / det_floor
    return base * _tail_integral(1 if with_length_factor else 0, alpha, L)


# class sums ---------------------------------------------------------------


def log_zeta(req: ZetaRequest) -> TruncatedValue:
    """Class-sum logarithm of the zeta of kind req.kind at req.s."""
    sign, selberg_type = _SHAPES[req.kind]
    spectrum, chi, growth = req.spectrum, req.chi, _growth(req.growth_constant)
    if not spectrum.classes:
        # empty sum: nothing to converge, nothing omitted
        return TruncatedValue(0.0, 0.0, 0)
    _check_region(req.s, req.kind, growth, _count_model(spectrum, chi, growth)[1])
    weights = class_weights(spectrum, chi, req.k, sign, selberg_type)
    value = -class_sum(weights, _exponents(req.s, spectrum.length, selberg_type), "s", req.s)
    tail = _tail_bound(
        spectrum,
        chi,
        growth,
        req.s.real + (RHO if selberg_type else 0.0),
        2.0 if sign else 1.0,
        with_det=selberg_type,
        with_length_factor=False,
    )
    return TruncatedValue(value, tail, len(spectrum.classes))


# logarithmic derivatives --------------------------------------------------


def _log_derivative(
    s: complex,
    k: float,
    chi: GammaRep | None,
    spectrum: LengthSpectrum,
    growth_constant: float | None,
    sign: int,
) -> TruncatedValue:
    """Dirichlet sum sum (l/n) (L(gamma; k) +- L(gamma; -k)) exp(-s l)."""
    require_case_b(k)
    s = complex(s)
    growth = _growth(growth_constant)
    if not spectrum.classes:
        return TruncatedValue(0.0, 0.0, 0)
    _check_region(s, "selberg", growth, _count_model(spectrum, chi, growth)[1])
    length = spectrum.length
    weights = map(mul, length, class_weights(spectrum, chi, k, sign, True))
    tail = _tail_bound(
        spectrum, chi, growth, s.real + RHO, 2.0, with_det=True, with_length_factor=True
    )
    value = class_sum(weights, _exponents(s, length, True), "s", s)
    return TruncatedValue(value, tail, len(spectrum.classes))


def log_derivative_super(
    s: complex,
    k: float,
    chi: GammaRep | None,
    spectrum: LengthSpectrum,
    growth_constant: float | None = None,
) -> TruncatedValue:
    """d/ds of log(Z(k)/Z(-k)) as a Dirichlet sum."""
    return _log_derivative(s, k, chi, spectrum, growth_constant, -1)


def log_derivative_symmetrized(
    s: complex,
    k: float,
    chi: GammaRep | None,
    spectrum: LengthSpectrum,
    growth_constant: float | None = None,
) -> TruncatedValue:
    """d/ds of log(Z(k) * Z(-k)) as a Dirichlet sum."""
    return _log_derivative(s, k, chi, spectrum, growth_constant, +1)
