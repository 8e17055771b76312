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

A spectrum carries its classes as columns, read-only buffers that
np.asarray wraps as float64 and int64 arrays without copying.  chi_trace
reads a twist over all the class words in one batched character_chi
call, once per (spectrum, twist), and class_weights computes the
per-class weights once per (spectrum, twist, k, kind shape); the
spectrum keeps the last of each, and the tail model's constants for its
last (twist, growth).
Every geodesic sum, here and in traces.py, is then one kernel,
class_sum: those weights dotted with exp(-s l) or exp(-l^2/4t), one grid
point at a time.

Sums are only evaluated above a model-based convergence abscissa derived
from an exponential geodesic-count model N(L) <= C exp(g L); requests
below it are refused.  Tail bounds use the same model and are estimates,
not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceRegionError, InvariantViolation
from .reps import (
    GammaRep,
    ad_nbar_det,
    character_chi,
    character_sigma,
    check_weight,
    require_case_b,
)
from .names import ZETA_KINDS
from .spectra import LengthSpectrum, TruncatedValue

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


def chi_trace(spectrum: LengthSpectrum, chi: GammaRep | None) -> np.ndarray:
    """Trace of chi over each class word; ones without a twist.

    One batched character_chi call reads every class word.  The spectrum
    keeps the traces of the last twist it was read under, keyed by the
    twist's identity: both are immutable, so a grid of sums under one
    twist reads the words once.
    """
    if chi is None:
        return np.ones(len(spectrum.words), dtype=complex)
    memo = spectrum.memo.get("chi")
    if memo is not None and memo[0] is chi:
        return memo[1]
    if None in spectrum.words:
        raise InvariantViolation(
            f"class {spectrum.words.index(None)} carries no word; "
            "a nontrivial twist needs words"
        )
    trace = character_chi(chi, spectrum.words)
    trace.setflags(write=False)
    spectrum.memo["chi"] = (chi, trace)
    return trace


def class_weights(
    spectrum: LengthSpectrum, chi: GammaRep | None, k: float, sign: int, selberg_type: bool
) -> np.ndarray:
    """trchi * (exp(i k theta) + sign * exp(-i k theta)) / n per class,
    times exp(-rho l) / det(Id - Ad|nbar) for the Selberg-type sums.

    The spectrum keeps the last weights it gave, read-only, keyed by the
    twist's identity, k and the kind's shape, so a grid of sums computes
    them once.  The key spells k in hex, which tells -0.0 from 0.0: their
    characters differ in the sign of a zero.
    """
    key = (float(k).hex(), sign, selberg_type)
    memo = spectrum.memo.get("weights")
    if memo is not None and memo[0] is chi and memo[1] == key:
        return memo[2]
    length, angle = np.asarray(spectrum.length), np.asarray(spectrum.angle)
    trsigma = character_sigma(k, angle)
    if sign:
        trsigma = trsigma + sign * character_sigma(-k, angle)
    w = chi_trace(spectrum, chi) * trsigma / np.asarray(spectrum.multiplicity)
    if selberg_type:
        w *= np.exp(-RHO * length) / ad_nbar_det(length, angle)
    w.setflags(write=False)
    spectrum.memo["weights"] = (chi, key, w)
    return w


def class_sum(weights: np.ndarray, exponent: np.ndarray) -> complex:
    """The kernel of every geodesic sum: sum over the classes of
    weights * exp(exponent), with exponent -s*l or -l^2/4t at one point."""
    return complex(np.dot(weights, np.exp(exponent)))


# requests -----------------------------------------------------------------


@dataclass(frozen=True)
class ZetaRequest:
    s: complex
    k: float
    spectrum: LengthSpectrum
    kind: str = "selberg"
    chi: GammaRep | None = None
    growth_constant: float | None = None  # default 2*rho

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "k", check_weight(self.k))
        if self.kind not in ZETA_KINDS:
            raise InvariantViolation(f"unknown zeta kind {self.kind!r}")
        if _SHAPES[self.kind][0]:
            require_case_b(self.k)
        _growth(self.growth_constant)


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


def _check_region(s: complex, kind: str, growth: float) -> None:
    a = convergence_abscissa(kind, growth)
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
) -> tuple[float, float]:
    """A bound on |trchi| over the nonempty spectrum's classes, and the
    count constant C of N(L) = C exp(g L), fitted by least squares to the
    class ranks.  Like the weights, the spectrum keeps the pair for its
    last twist (by identity) and growth."""
    memo = spectrum.memo.get("count_model")
    if memo is not None and memo[0] is chi and memo[1] == growth:
        return memo[2]
    chi_bound = 1.0
    if chi is not None:
        # the twist's dimension, or a larger trace that a non-unitary twist
        # shows on the spectrum
        observed = float(np.max(np.abs(chi_trace(spectrum, chi))))
        chi_bound = max(float(chi.dimension), observed)
    ranks = np.arange(1, len(spectrum.classes) + 1)
    C = math.exp(float(np.mean(np.log(ranks) - growth * np.asarray(spectrum.length))))
    model = (chi_bound, C)
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
    N(L) = C exp(g L) contributes C g exp(g u) du, so the tail decays
    like exp(-(beta-g) L).
    sigma_bound bounds |trsigma|: 1 for one character, 2 for a pair.
    """
    alpha = beta - growth
    if alpha <= 0:  # guarded by the abscissa check; belt and braces
        return math.inf
    L = spectrum.cutoff
    chi_bound, C = _count_model(spectrum, chi, growth)
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
    _check_region(req.s, req.kind, growth)
    weights = class_weights(spectrum, chi, req.k, sign, selberg_type)
    value = -class_sum(weights, -req.s * np.asarray(spectrum.length))
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
    _check_region(s, "selberg", growth)
    l = np.asarray(spectrum.length)
    weights = l * class_weights(spectrum, chi, k, sign, True)
    tail = _tail_bound(
        spectrum, chi, growth, s.real + RHO, 2.0, with_det=True, with_length_factor=True
    )
    return TruncatedValue(class_sum(weights, -s * l), tail, len(spectrum.classes))


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
