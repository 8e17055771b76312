"""Heat-trace identities: geodesic sides, spectral sides, kernel checks.

Two trace formulas are evaluated at desk scale.  The first-order
(odd/super) one pairs the spectral sum

    sum_k m(lam_k) lam_k exp(-t lam_k^2)

with a geodesic sum whose per-class weight is

    (-2 pi i / (4 pi t)^{3/2}) l^2 trchi (trsigma - trwsigma)
        exp(-l^2/4t) / (n D),    D = exp(rho l) det(Id - Ad|nbar),

and the second-order one pairs sum_k m(mu_k) exp(-t mu_k) with an identity
contribution 2 dim(V_chi) Vol integral exp(-t lam^2) P(i lam) dlam plus a
geodesic sum weighted by (l/n) L(gamma; sigma + w sigma) exp(-l^2/4t)
(4 pi t)^{-1/2}.

For synthetic inputs the two sides of either formula need not agree; the
package reports their gap as a diagnostic and never asserts equality.
The module also houses the two analytic kernel identities that tie the
Gaussian-in-t weights to the exponential-in-s weights of the zeta logs,
each checked by adaptive quadrature against its closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    InvariantViolation,
    MissingVolume,
    QuadratureFailure,
    Unsupported,
)
from .reps import (
    GammaRep,
    MRep,
    PlancherelPoly,
    ad_nbar_det,
    character_chi,
    character_sigma,
    plancherel,
    require_case_b,
    rho_norm,
    weyl_action,
)
from .spectra import DiracSpectrum, LaplaceSpectrum, LengthSpectrum

__all__ = [
    "HeatParams",
    "dee_gamma",
    "dirac_geometric_side",
    "heat_geometric_side",
    "dirac_spectral_side",
    "heat_spectral_side",
    "laplace_kernel_check",
    "fourier_gaussian_check",
    "identity_term_dirac",
    "identity_term_heat",
    "gaussian_moment",
    "class_term_t_integral",
]


@dataclass(frozen=True)
class HeatParams:
    t: float
    quadrature_abs_tol: float = 1e-11
    lambda_window: float = 40.0

    def __post_init__(self):
        if not (self.t > 0):
            raise InvariantViolation("heat time t must be positive")
        if not (self.quadrature_abs_tol > 0):
            raise InvariantViolation("quadrature tolerance must be positive")
        if not (self.lambda_window > 0):
            raise InvariantViolation("lambda_window must be positive")


def dee_gamma(length: float, angle: float, dimension_d: int = 3) -> float:
    """Normalization D = exp(rho l) det(Id - Ad|nbar) used per class."""
    if dimension_d != 3:
        raise Unsupported("per-class normalization implemented for dimension 3 only")
    return math.exp(rho_norm(dimension_d) * length) * ad_nbar_det(length, angle)


def _chi_trace(chi: GammaRep | None, word: str | None, index: int) -> complex:
    if chi is None:
        return 1.0 + 0.0j
    if word is None:
        raise InvariantViolation(
            f"class {index} carries no word; a nontrivial twist needs words"
        )
    return character_chi(chi, word)


# ---------------------------------------------------------------------------
# geodesic sides


def dirac_geometric_side(
    t: float,
    spectrum: LengthSpectrum,
    sigma: MRep,
    chi: GammaRep | None = None,
) -> complex:
    """Geodesic sum of the first-order trace formula at heat time t."""
    require_case_b(sigma)
    if spectrum.dimension != 3:
        raise Unsupported("geodesic sides implemented for dimension 3 only")
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    wsigma = weyl_action(sigma)
    prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 1.5
    total = 0.0 + 0.0j
    for i, c in enumerate(spectrum.classes):
        diff = character_sigma(sigma, c.angle) - character_sigma(wsigma, c.angle)
        trchi = _chi_trace(chi, c.word, i)
        total += (
            prefactor
            * c.length**2
            * trchi
            * diff
            * math.exp(-c.length**2 / (4.0 * t))
            / (c.multiplicity * dee_gamma(c.length, c.angle))
        )
    return total


def heat_geometric_side(
    t: float,
    spectrum: LengthSpectrum,
    sigma: MRep,
    chi: GammaRep | None = None,
    poly: PlancherelPoly | None = None,
) -> complex:
    """Identity contribution plus geodesic sum of the second-order formula."""
    require_case_b(sigma)
    if spectrum.dimension != 3:
        raise Unsupported("geodesic sides implemented for dimension 3 only")
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    if spectrum.volume is None:
        raise MissingVolume("spectrum carries no volume for the identity term")
    dim_chi = 1 if chi is None else chi.dimension
    identity = 2.0 * dim_chi * spectrum.volume * identity_term_heat(sigma, t, poly=poly)

    rho = rho_norm(spectrum.dimension)
    wsigma = weyl_action(sigma)
    geodesic = 0.0 + 0.0j
    for i, c in enumerate(spectrum.classes):
        pair = character_sigma(sigma, c.angle) + character_sigma(wsigma, c.angle)
        trchi = _chi_trace(chi, c.word, i)
        lsym = trchi * pair * math.exp(-rho * c.length) / ad_nbar_det(c.length, c.angle)
        geodesic += (
            (c.length / c.multiplicity)
            * lsym
            * math.exp(-c.length**2 / (4.0 * t))
            / math.sqrt(4.0 * math.pi * t)
        )
    return identity + geodesic


# ---------------------------------------------------------------------------
# spectral sides


def dirac_spectral_side(t: float, dirac: DiracSpectrum) -> complex:
    """sum m(lam) lam exp(-t lam^2)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    return sum(m * ev * cmath.exp(-t * ev * ev) for ev, m in dirac.entries)


def heat_spectral_side(t: float, laplace: LaplaceSpectrum) -> complex:
    """sum m(mu) exp(-t mu)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    return sum(m * cmath.exp(-t * mu) for mu, m in laplace.entries)


# ---------------------------------------------------------------------------
# identity contribution


def gaussian_moment(t: float, m: int) -> float:
    """integral lam^{2m} exp(-t lam^2) dlam = Gamma(m + 1/2) / t^{m + 1/2}."""
    return math.gamma(m + 0.5) / t ** (m + 0.5)


def identity_term_heat(
    sigma: MRep, t: float, poly: PlancherelPoly | None = None
) -> float:
    """integral exp(-t lam^2) P(i lam) dlam in closed Gaussian-moment form."""
    q = poly if poly is not None else plancherel(sigma)
    return q.normalization * sum(
        c * gaussian_moment(t, m) for m, c in enumerate(q.even_coefficients)
    )


def identity_term_dirac(
    sigma: MRep,
    t: float,
    plus_coefficients: tuple[float, ...] | None = None,
    minus_coefficients: tuple[float, ...] | None = None,
    abs_tol: float = 1e-13,
) -> complex:
    """Identity contribution of the first-order formula, by quadrature.

    Computes integral lam exp(-t lam^2) q_plus(lam) dlam minus the same
    with q_minus.  With the default densities both integrands are odd in
    lam and the two densities coincide, so the value is zero; coefficient
    overrides (full coefficient lists, lam^0 upward, odd powers allowed)
    exist so tests can verify the cancellation is actually detected.
    """
    from scipy.integrate import quad

    q = plancherel(sigma)
    wq = plancherel(weyl_action(sigma))
    plus = plus_coefficients if plus_coefficients is not None else q.coefficients
    minus = minus_coefficients if minus_coefficients is not None else wq.coefficients
    scale_plus = q.normalization if plus_coefficients is None else 1.0
    scale_minus = wq.normalization if minus_coefficients is None else 1.0

    window = math.sqrt(200.0 / t)

    def polyval(coeffs, lam):
        total = 0.0
        power = 1.0
        for c in coeffs:
            total += c * power
            power *= lam
        return total

    def integrand(lam: float) -> float:
        gaussian = lam * math.exp(-t * lam * lam)
        return gaussian * (
            scale_plus * polyval(plus, lam) - scale_minus * polyval(minus, lam)
        )

    value, err = quad(integrand, -window, window, epsabs=abs_tol, limit=400)
    if err > 1e-8 * max(1.0, abs(value)):
        raise QuadratureFailure(f"identity-term quadrature error {err:g}")
    return complex(value)


# ---------------------------------------------------------------------------
# kernel identities


def _complex_quad(f, a, b, abs_tol, limit=400, points=None):
    from scipy.integrate import quad

    re, re_err = quad(
        lambda x: f(x).real, a, b, epsabs=abs_tol, limit=limit, points=points
    )
    im, im_err = quad(
        lambda x: f(x).imag, a, b, epsabs=abs_tol, limit=limit, points=points
    )
    return complex(re, im), re_err + im_err


def _heat_time_integral(
    c0: complex, length: float, s2: complex, abs_tol: float
) -> tuple[complex, float]:
    """integral_0^inf c0 t^{-3/2} exp(-l^2/4t) exp(-t s^2) dt, Re(s^2) > 0.

    Runs along the real axis to the saddle t* = l/(2|s|), then turns onto
    the ray where t s^2 advances through real values, so the integrand
    decays like exp(-tau |s|^2) without oscillation even when s^2 hugs
    the imaginary axis.  Both legs stay in the right half plane, where
    the principal branch of t^{-3/2} is smooth and exp(-l^2/4t) is
    bounded by one, so the rotation is legitimate.
    """
    budget = 120.0
    t_star = length / (2.0 * math.sqrt(abs(s2)))
    u0 = math.log(t_star)
    u_lo = math.log(length * length / (4.0 * budget))
    if u_lo >= u0:
        u_lo = u0 - 1.0

    def leg_small_t(u: float) -> complex:
        t = math.exp(u)
        return c0 * cmath.exp(-(length**2) / (4.0 * t) - t * s2 - 0.5 * u)

    small, err_small = _complex_quad(leg_small_t, u_lo, u0, abs_tol)

    ray = cmath.exp(-1j * cmath.phase(s2))
    horizon = budget / abs(s2)

    def leg_ray(tau: float) -> complex:
        t = t_star + ray * tau
        return c0 * t**-1.5 * cmath.exp(-(length**2) / (4.0 * t) - t * s2) * ray

    large, err_large = _complex_quad(leg_ray, 0.0, horizon, abs_tol)
    return small + large, err_small + err_large


def laplace_kernel_check(
    length: float, s: complex, abs_tol: float = 1e-12
) -> tuple[complex, complex, float]:
    """Check integral_0^inf exp(-t s^2) (4 pi t)^{-3/2} exp(-l^2/4t) dt
    against the closed form exp(-l s) / (4 pi l).

    Returns (lhs, rhs, gap).  The substitution t = exp(u) turns the
    integrand into a doubly exponentially decaying bump, which adaptive
    quadrature resolves cheaply.
    """
    s = complex(s)
    if not (length > 0):
        raise InvariantViolation("length must be positive")
    if s.real <= 0:
        raise InvariantViolation("need Re(s) > 0")
    s2 = s * s
    if s2.real <= 0:
        raise QuadratureFailure(
            "integral is not absolutely convergent for Re(s^2) <= 0"
        )

    lhs, err = _heat_time_integral((4.0 * math.pi) ** -1.5, length, s2, abs_tol)
    # the QUADPACK estimate is floored near 1e-11 by its roundoff accounting
    # for O(1) integrands; the returned gap is the real accuracy statement
    if err > 1e-8 * max(1.0, abs(lhs)):
        raise QuadratureFailure(f"kernel quadrature error {err:g}")
    rhs = cmath.exp(-length * s) / (4.0 * math.pi * length)
    return lhs, rhs, abs(lhs - rhs)


def fourier_gaussian_check(
    length: float, t: float, abs_tol: float = 1e-12
) -> tuple[complex, complex, float]:
    """Check (1/2pi) integral lam exp(-t lam^2) exp(-i l lam) dlam against
    -i l sqrt(pi) exp(-l^2/4t) / (4 pi t^{3/2}).

    Multiplying the closed form by l reproduces the per-class weight of the
    first-order geodesic side, which is how the two printed forms of that
    formula pass into one another.
    """
    if not (length > 0 and t > 0):
        raise InvariantViolation("length and t must be positive")
    window = math.sqrt(200.0 / t)

    from scipy.integrate import quad

    # lam cos(l lam) exp(-t lam^2) is odd, so only the sine part survives;
    # folding the domain keeps the cancellation out of the error estimate
    def integrand(lam: float) -> float:
        return lam * math.exp(-t * lam * lam) * math.sin(length * lam)

    half, err = quad(integrand, 0.0, window, epsabs=abs_tol, limit=800)
    if err > 1e-8 * max(1.0, abs(half)):
        raise QuadratureFailure(f"fourier quadrature error {err:g}")
    raw = -2j * half
    lhs = raw / (2.0 * math.pi)
    rhs = (
        -1j
        * length
        * math.sqrt(math.pi)
        * math.exp(-length**2 / (4.0 * t))
        / (4.0 * math.pi * t**1.5)
    )
    return lhs, rhs, abs(lhs - rhs)


def class_term_t_integral(
    length: float,
    angle: float,
    multiplicity: int,
    s: complex,
    abs_tol: float = 1e-12,
) -> tuple[complex, complex, float]:
    """Integrate the first-order per-class weight against exp(-t s^2) in t.

    The closed-form target is (-i/2) (l/n) exp(-rho l) exp(-l s) / det,
    which is exactly the per-class contribution to the super logarithmic
    derivative times (-i/2).  Agreement validates the adopted per-class
    normalization D.
    """
    s = complex(s)
    dee = dee_gamma(length, angle)
    c0 = (
        -2j
        * math.pi
        * (4.0 * math.pi) ** -1.5
        * length**2
        / (multiplicity * dee)
    )
    lhs, err = _heat_time_integral(c0, length, s * s, abs_tol)
    if err > 1e-8 * max(1.0, abs(lhs)):
        raise QuadratureFailure(f"class-term quadrature error {err:g}")
    rho = 1.0
    rhs = (
        (-0.5j)
        * (length / multiplicity)
        * math.exp(-rho * length)
        * cmath.exp(-length * s)
        / ad_nbar_det(length, angle)
    )
    return lhs, rhs, abs(lhs - rhs)
