"""Heat-trace identities: geodesic sides, spectral sides, identity terms.

Two trace formulas are evaluated at desk scale, in the d = 3 model with
rho = 1 and weight k.  The first-order (odd/super) one pairs the spectral
sum

    sum_k m(lam_k) lam_k exp(-t lam_k^2)

with a geodesic sum whose per-class weight is

    (-2 pi i / (4 pi t)^{3/2}) l^2 trchi (exp(i k theta) - exp(-i k theta))
        exp(-l^2/4t) / (n D),    D = exp(l) det(Id - Ad|nbar),

and the second-order one pairs sum_k m(mu_k) exp(-t mu_k) with an identity
contribution 2 dim(V_chi) Vol integral exp(-t lam^2) P(i lam) dlam plus a
geodesic sum weighted by (l/n) (L(gamma; k) + L(gamma; -k)) exp(-l^2/4t)
(4 pi t)^{-1/2}.  Both geodesic sums are the one class-sum kernel of
zeta.py over the spectrum's length column, with the class weights of the
zeta sums and the exponent -(l^2/4t + rho l), which carries the exp(-l)
of D; both spectral sums add up an eigenvalue spectrum's entries with
cmath.  A side that is not a finite number is refused: a t far from 1
takes a power of t out of the float range, and an eigenvalue far from the
real axis makes exp overflow.  Everything here runs on Python numbers,
with a twist or without.

For synthetic inputs the two sides of either formula need not agree; the
package reports their gap as a diagnostic and never asserts equality.
Both identity contributions are closed-form sums of Gaussian moments.
The analytic kernel identities that tie the Gaussian-in-t weights to the
exponential-in-s weights of the zeta logs are checked in verify.py.
"""

from __future__ import annotations

import cmath
import functools
import math
from operator import mul

from .errors import InvariantViolation, MissingVolume, WorkbenchError
from .reps import (
    DEFAULT_PLANCHEREL_NORMALIZATION,
    GammaRep,
    ad_nbar_det,
    plancherel,
    require_case_b,
)
from .reps import (  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    character_chi,
    character_sigma,
)
from .spectra import DiracSpectrum, LaplaceSpectrum, LengthSpectrum
from .zeta import RHO, class_sum, class_weights

__all__ = [
    "dirac_geometric_side",
    "heat_geometric_side",
    "dirac_spectral_side",
    "heat_spectral_side",
    "identity_term_dirac",
    "identity_term_heat",
]


def _finite(side: str):
    """Decorate a trace side of (t, ...) so that a value that is not a
    finite number, or an overflow or a division by zero on the way, is
    refused with a WorkbenchError naming t."""

    def decorate(evaluate):
        @functools.wraps(evaluate)
        def checked(t, *args, **kwargs):
            try:
                value = evaluate(t, *args, **kwargs)
            except (OverflowError, ValueError, ZeroDivisionError):  # ValueError: exp of inf + inf i
                value = complex(math.inf)
            if not cmath.isfinite(value):
                raise WorkbenchError(f"the {side} side at t = {t} is not a finite number")
            return value

        return checked

    return decorate


def dee_gamma(length: float, angle: float) -> float:
    """Normalization D = exp(rho l) det(Id - Ad|nbar) used per class."""
    return math.exp(RHO * length) * ad_nbar_det(length, angle)


# ---------------------------------------------------------------------------
# geodesic sides


def _heat_exponents(length: tuple[float, ...], t: float) -> list[float]:
    """-(l^2/4t + rho l) per class: the Gaussian in l times the exp(-rho l)
    of the Selberg-type weights, as one exponent."""
    return [-(l * l / (4.0 * t) + RHO * l) for l in length]


@_finite("geometric")
def dirac_geometric_side(
    t: float,
    spectrum: LengthSpectrum,
    k: float,
    chi: GammaRep | None = None,
) -> complex:
    """Geodesic sum of the first-order trace formula at heat time t."""
    require_case_b(k)
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    length = spectrum.length
    prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 1.5
    weights = map(mul, (l * l for l in length), class_weights(spectrum, chi, k, -1, True))
    return prefactor * class_sum(weights, _heat_exponents(length, t), "t", t)


@_finite("geometric")
def heat_geometric_side(
    t: float,
    spectrum: LengthSpectrum,
    k: float,
    chi: GammaRep | None = None,
) -> complex:
    """Identity contribution plus geodesic sum of the second-order formula."""
    require_case_b(k)
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    if spectrum.volume is None:
        raise MissingVolume("spectrum carries no volume for the identity term")
    dim_chi = 1 if chi is None else chi.dimension
    identity = 2.0 * dim_chi * spectrum.volume * identity_term_heat(k, t)

    length = spectrum.length
    weights = map(mul, length, class_weights(spectrum, chi, k, +1, True))
    geodesic = class_sum(weights, _heat_exponents(length, t), "t", t)
    return identity + geodesic / math.sqrt(4.0 * math.pi * t)


# ---------------------------------------------------------------------------
# spectral sides


@_finite("spectral")
def dirac_spectral_side(t: float, dirac: DiracSpectrum) -> complex:
    """sum m(lam) lam exp(-t lam^2)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    return sum((m * ev * cmath.exp(-t * ev * ev) for ev, m in dirac.entries), 0j)


@_finite("spectral")
def heat_spectral_side(t: float, laplace: LaplaceSpectrum) -> complex:
    """sum m(mu) exp(-t mu)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    return sum((m * cmath.exp(-t * mu) for mu, m in laplace.entries), 0j)


# ---------------------------------------------------------------------------
# identity contribution


def gaussian_moment(t: float, m: int) -> float:
    """integral lam^{2m} exp(-t lam^2) dlam = Gamma(m + 1/2) / t^{m + 1/2}."""
    return math.gamma(m + 0.5) / t ** (m + 0.5)


def identity_term_heat(k: float, t: float) -> float:
    """integral exp(-t lam^2) P(i lam) dlam in closed Gaussian-moment form."""
    q = plancherel(k)
    return DEFAULT_PLANCHEREL_NORMALIZATION * sum(
        c * gaussian_moment(t, m) for m, c in enumerate(q.even_coefficients)
    )


def identity_term_dirac(
    k: float,
    t: float,
    plus_coefficients: tuple[float, ...] | None = None,
    minus_coefficients: tuple[float, ...] | None = None,
) -> complex:
    """Identity contribution of the first-order formula, in closed form.

    integral lam exp(-t lam^2) q_plus(lam) dlam minus the same with
    q_minus.  Only the odd powers lam^j survive, each giving the Gaussian
    moment of order (j + 1)/2.  With the default densities both
    polynomials are even and coincide, so the value is zero; coefficient
    overrides (full coefficient lists, lam^0 upward, odd powers allowed)
    exist so tests can verify the cancellation is actually detected.
    """
    q = plancherel(k)
    wq = plancherel(-k)
    plus = plus_coefficients if plus_coefficients is not None else q.coefficients
    minus = minus_coefficients if minus_coefficients is not None else wq.coefficients
    scale_plus = DEFAULT_PLANCHEREL_NORMALIZATION if plus_coefficients is None else 1.0
    scale_minus = DEFAULT_PLANCHEREL_NORMALIZATION if minus_coefficients is None else 1.0

    def odd_part(coeffs, scale):
        return sum(
            scale * c * gaussian_moment(t, (j + 1) // 2)
            for j, c in enumerate(coeffs)
            if j % 2 == 1
        )

    return complex(odd_part(plus, scale_plus) - odd_part(minus, scale_minus))
