"""Heat-trace identities: geodesic sides, spectral sides, kernel checks.

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
zeta.py over the spectrum's class columns, wrapped as numpy arrays, with
the class weights of the zeta sums and exp(-l^2/4t) in place of
exp(-s l); both spectral sums read the eigenvalue and multiplicity arrays.

For synthetic inputs the two sides of either formula need not agree; the
package reports their gap as a diagnostic and never asserts equality.
Both identity contributions are closed-form sums of Gaussian moments.
The module also houses the two analytic kernel identities that tie the
Gaussian-in-t weights to the exponential-in-s weights of the zeta logs,
and the per-class time integral; each is checked against its closed
form by the adaptive Gauss-Legendre rule of quadrature.py.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .eigenvalues import DiracSpectrum, LaplaceSpectrum
from .errors import InvariantViolation, MissingVolume, QuadratureFailure
from .quadrature import integrate
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
from .spectra import LengthSpectrum
from .zeta import RHO, class_sum, class_weights

__all__ = [
    "dirac_geometric_side",
    "heat_geometric_side",
    "dirac_spectral_side",
    "heat_spectral_side",
    "laplace_kernel_check",
    "fourier_gaussian_check",
    "identity_term_dirac",
    "identity_term_heat",
    "class_term_t_integral",
]


def dee_gamma(length: float, angle: float) -> float:
    """Normalization D = exp(rho l) det(Id - Ad|nbar) used per class."""
    return math.exp(RHO * length) * ad_nbar_det(length, angle)


# ---------------------------------------------------------------------------
# geodesic sides


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
    l = np.asarray(spectrum.length)
    prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 1.5
    weights = prefactor * l**2 * class_weights(spectrum, chi, k, -1, True)
    return class_sum(weights, -(l**2) / (4.0 * t))


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

    l = np.asarray(spectrum.length)
    weights = l * class_weights(spectrum, chi, k, +1, True) / math.sqrt(4.0 * math.pi * t)
    return identity + class_sum(weights, -(l**2) / (4.0 * t))


# ---------------------------------------------------------------------------
# spectral sides


def dirac_spectral_side(t: float, dirac: DiracSpectrum) -> complex:
    """sum m(lam) lam exp(-t lam^2)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    ev = dirac.values
    return complex(np.sum(dirac.multiplicity * ev * np.exp(-t * ev * ev)))


def heat_spectral_side(t: float, laplace: LaplaceSpectrum) -> complex:
    """sum m(mu) exp(-t mu)."""
    if not (t > 0):
        raise InvariantViolation("t must be positive")
    return complex(np.sum(laplace.multiplicity * np.exp(-t * laplace.values)))


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


# ---------------------------------------------------------------------------
# kernel identities


def _heat_time_integral(c0, length, s2):
    """integral_0^inf c0 t^{-3/2} exp(-l^2/4t) exp(-t s^2) dt, Re(s^2) > 0,
    for each element of c0, length and s2 (broadcast together), all in one
    batched integrate call per leg.

    Runs along the real axis to the saddle t* = l/(2|s|), then turns onto
    the ray where t s^2 advances through real values, so the integrand
    decays like exp(-tau |s|^2) without oscillation even when s^2 hugs
    the imaginary axis.  Both legs stay in the right half plane, where
    the principal branch of t^{-3/2} is smooth and exp(-l^2/4t) is
    bounded by one, so the rotation is legitimate.
    """
    shape = np.broadcast(c0, length, s2).shape
    c0, length, s2 = (np.ravel(v) for v in np.broadcast_arrays(c0, length, s2))
    budget = 120.0
    t_star = length / (2.0 * np.sqrt(np.abs(s2)))
    u0 = np.log(t_star)
    u_lo = np.log(length * length / (4.0 * budget))
    u_lo = np.where(u_lo >= u0, u0 - 1.0, u_lo)
    tau_hi = budget / np.abs(s2)
    ray = np.exp(-1j * np.angle(s2))
    # from here on columns: row i of a block of panel nodes takes integral i's constants
    c0, l2, s2, t_star, ray = (v[:, None] for v in (c0, length**2, s2, t_star, ray))

    def leg_small_t(u, i):
        t = np.exp(u)
        return c0[i] * np.exp(-l2[i] / (4.0 * t) - t * s2[i] - 0.5 * u)

    def leg_ray(tau, i):
        t = t_star[i] + ray[i] * tau
        return c0[i] * t**-1.5 * np.exp(-l2[i] / (4.0 * t) - t * s2[i]) * ray[i]

    total = integrate(leg_small_t, u_lo, u0) + integrate(leg_ray, 0.0, tau_hi)
    return total.reshape(shape)[()]


def laplace_kernel_check(length, s):
    """Check integral_0^inf exp(-t s^2) (4 pi t)^{-3/2} exp(-l^2/4t) dt
    against the closed form exp(-l s) / (4 pi l).

    length and s are numbers or arrays, broadcast together; returns (lhs,
    rhs, gap) of their shape.  The substitution t = exp(u) turns the
    integrand into a doubly exponentially decaying bump, which adaptive
    quadrature resolves cheaply.
    """
    length, s = np.broadcast_arrays(np.asarray(length, dtype=float), np.asarray(s, dtype=complex))
    if not np.all(length > 0):
        raise InvariantViolation("length must be positive")
    if np.any(s.real <= 0):
        raise InvariantViolation("need Re(s) > 0")
    s2 = s * s
    if np.any(s2.real <= 0):
        raise QuadratureFailure("integral is not absolutely convergent for Re(s^2) <= 0")

    lhs = _heat_time_integral((4.0 * math.pi) ** -1.5, length, s2)
    rhs = np.exp(-length * s) / (4.0 * math.pi * length)
    return lhs, rhs, np.abs(lhs - rhs)


def fourier_gaussian_check(length, t):
    """Check (1/2pi) integral lam exp(-t lam^2) exp(-i l lam) dlam against
    -i l sqrt(pi) exp(-l^2/4t) / (4 pi t^{3/2}).

    length and t are numbers or arrays, as for laplace_kernel_check.
    Multiplying the closed form by l reproduces the per-class weight of the
    first-order geodesic side, which is how the two printed forms of that
    formula pass into one another.
    """
    length, t = np.broadcast_arrays(np.asarray(length, dtype=float), np.asarray(t, dtype=float))
    if not (np.all(length > 0) and np.all(t > 0)):
        raise InvariantViolation("length and t must be positive")
    l_flat, t_flat = length.ravel(), t.ravel()

    # lam cos(l lam) exp(-t lam^2) is odd, so only the sine part survives;
    # folding the domain keeps the cancellation out of the error estimate
    def integrand(lam, i):
        return lam * np.exp(-t_flat[i, None] * lam * lam) * np.sin(l_flat[i, None] * lam)

    half = integrate(integrand, 0.0, np.sqrt(200.0 / t_flat)).reshape(length.shape)
    lhs = (-2j * half / (2.0 * math.pi))[()]
    rhs = -1j * length * math.sqrt(math.pi) * np.exp(-(length**2) / (4.0 * t))
    rhs = rhs / (4.0 * math.pi * t**1.5)
    return lhs, rhs, np.abs(lhs - rhs)


def class_term_t_integral(
    length: float,
    angle: float,
    multiplicity: int,
    s: complex,
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
    lhs = _heat_time_integral(c0, length, s * s)
    rhs = (
        (-0.5j)
        * (length / multiplicity)
        * math.exp(-RHO * length)
        * cmath.exp(-length * s)
        / ad_nbar_det(length, angle)
    )
    return lhs, rhs, abs(lhs - rhs)
