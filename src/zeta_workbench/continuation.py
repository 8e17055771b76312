"""Meromorphic continuation from spectral data.

The geodesic sums of the zeta logs converge only in a half-plane.  Their
logarithmic derivatives, however, have closed meromorphic forms in terms
of operator spectra:

    L_super(s) = 2i sum_k m(lam_k) lam_k / (lam_k^2 + s^2)
    L_sym(s)   = 2s sum_k m(mu_k) / (mu_k + s^2)
                 - 4 pi dim(V_chi) Vol P(s)

These are rational (plus an entire polynomial) and defined on all of C,
with simple poles at s = +-i lam_k and s = +-i sqrt(mu_k) whose residues
are the signed and plain algebraic multiplicities.  Both take a point or
an array of points, and every contour and path integrand in this module
maps an array of points to values, the contract of quadrature.integrate,
so a rule evaluates all its nodes in one call.  Everything else here
is bookkeeping on top: partial-fraction resolvent weights, contour-based
residue extraction, a catalog of singularities with integer orders, and
log-zeta recovery along a path to the right half-plane where the
logarithm vanishes.  The super log-derivative is exactly the partial
fractions of its catalog, sum order/(s - pole), so the continued super
log is written down in closed form with exact branch tracking:
sum order * Log(s - pole) plus 2 pi i times the integer winding of the
detoured path.  Quadrature along the path is kept only as a check, and
for integrands that are not pure partial fractions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    AtSingularity,
    DegenerateShifts,
    InvariantViolation,
    MissingVolume,
    NoConvergence,
    ParityViolation,
    PathThroughSingularity,
)
from .quadrature import integrate
from .reps import GammaRep, plancherel
from .spectra import (
    DiracSpectrum,
    LaplaceSpectrum,
    SingularityRecord,
    square_spectrum,
)
from .zeta import ZetaRequest, log_zeta

__all__ = [
    "partial_fraction_weights",
    "continued_super_logderiv",
    "continued_sym_logderiv",
    "residue_at",
    "singularity_catalog",
    "log_zeta_by_path",
    "super_tail_log",
    "super_winding",
    "ruelle_factorization_check",
]

_SINGULARITY_EPS = 1e-12


def partial_fraction_weights(shifts: tuple[complex, ...]) -> list[complex]:
    """Weights w_i = prod_{j != i} 1/(s_j^2 - s_i^2).

    They satisfy prod_i 1/(x + s_i^2) = sum_i w_i/(x + s_i^2) identically,
    which reduces a product of resolvents to a sum of single resolvents.
    The shifts must be distinct and have pairwise distinct squares.
    """
    shifts = [complex(s) for s in shifts]
    if not shifts:
        raise InvariantViolation("need at least one shift")
    for i, a in enumerate(shifts):
        for b in shifts[i + 1 :]:
            if a == b or abs(a * a - b * b) < 1e-14:
                raise DegenerateShifts(
                    f"shifts {a} and {b} coincide or have coinciding squares"
                )
    sq = [s * s for s in shifts]
    weights = []
    for i, si2 in enumerate(sq):
        w = 1.0 + 0.0j
        for j, sj2 in enumerate(sq):
            if j != i:
                w /= sj2 - si2
        weights.append(w)
    return weights


# ---------------------------------------------------------------------------
# continued logarithmic derivatives


def _spectral_arrays(entries) -> tuple[np.ndarray, np.ndarray]:
    values = np.array([v for v, _ in entries], dtype=complex)
    return values, np.array([m for _, m in entries], dtype=float)


def _refuse_poles(z: np.ndarray, poles: np.ndarray) -> None:
    hit = np.any(np.abs(z[..., None] - poles) < _SINGULARITY_EPS, axis=-1)
    if np.any(hit):
        at = complex(np.atleast_1d(z)[np.atleast_1d(hit)][0])
        raise AtSingularity(f"s = {at} sits on a pole", location=at)


def continued_super_logderiv(s, dirac: DiracSpectrum):
    """2i sum m(lam) lam / (lam^2 + s^2); poles +-i lam, residues +-m_s.

    s is a point or an array of points; the eigenvalue sum is broadcast
    over them, and any point on a pole is refused with AtSingularity.
    """
    z = np.asarray(s, dtype=complex)
    ev, m = _spectral_arrays(dirac.entries)
    _refuse_poles(z, np.concatenate([1j * ev, -1j * ev]))
    zz = z[..., None]
    return 2j * np.sum(m * ev / (ev * ev + zz * zz), axis=-1)


def continued_sym_logderiv(
    s,
    laplace: LaplaceSpectrum,
    k: float,
    chi: GammaRep | int | None,
    volume: float,
):
    """2s sum m(mu)/(mu + s^2) minus the entire density term.

    s is a point or an array of points, as for continued_super_logderiv.
    chi may be a representation or just its dimension; volume 0 disables
    the polynomial term explicitly.
    """
    if volume is None:
        raise MissingVolume("the density term needs a volume (0 to disable)")
    z = np.asarray(s, dtype=complex)
    mu, m = _spectral_arrays(laplace.entries)
    roots = 1j * np.sqrt(mu)
    _refuse_poles(z, np.concatenate([roots, -roots]))
    zz = z[..., None]
    rational = 2.0 * z * np.sum(m / (mu + zz * zz), axis=-1)
    dim_chi = chi.dimension if isinstance(chi, GammaRep) else (chi or 1)
    return rational - 4.0 * math.pi * dim_chi * volume * plancherel(k).at_s(z)


# ---------------------------------------------------------------------------
# residues


def residue_at(f, s0: complex, radius: float) -> complex:
    """(1/2 pi i) contour integral of f on the circle |s - s0| = radius.

    f maps an array of points to values, as in quadrature.integrate, and
    is called once per node count.  The trapezoidal rule on the circle
    converges geometrically for integrands analytic in an annulus; it
    starts at 16 nodes and doubles them until two successive values agree
    to 1e-10, and raises NoConvergence after 2^17 nodes.
    """
    if not (radius > 0):
        raise InvariantViolation("radius must be positive")
    s0 = complex(s0)
    previous = None
    n = 16
    while n <= 1 << 17:
        nodes = s0 + radius * np.exp(2j * math.pi * np.arange(n) / n)
        # (1/2 pi i) integral f dz with dz = i (z - s0) dphi
        total = complex(np.mean(np.asarray(f(nodes)) * (nodes - s0)))
        if previous is not None and abs(total - previous) < 1e-10:
            return total
        previous = total
        n *= 2
    raise NoConvergence(
        f"contour values at {s0} did not settle (last delta around "
        f"{abs(total - previous):g})"
    )


# ---------------------------------------------------------------------------
# singularity catalog


def _half(x: int, context: str) -> int:
    if x % 2 != 0:
        raise ParityViolation(f"odd order sum in {context}")
    return x // 2


def singularity_catalog(
    dirac: DiracSpectrum,
    laplace: LaplaceSpectrum | None = None,
) -> tuple[SingularityRecord, ...]:
    """Locations and integer orders for the super, symmetrized and plain
    Selberg-type zetas, from spectral data alone.

    laplace defaults to the squared first-order spectrum.  Supplying an
    independent second-order spectrum is allowed; the catalog then checks
    the grading parity m_s(lam) = m(lam^2) mod 2 at every location and
    refuses data that no graded operator pair could produce.
    """
    lap = laplace if laplace is not None else square_spectrum(dirac)

    # work over the set of distinct "frequencies" nu: location is i*nu
    freqs: list[complex] = []

    def push(nu: complex) -> None:
        for known in freqs:
            if abs(known - nu) < _SINGULARITY_EPS:
                return
        freqs.append(nu)

    for ev, _ in dirac.entries:
        push(complex(ev))
        push(-complex(ev))
    for mu, _ in lap.entries:
        root = cmath.sqrt(mu)
        push(root)
        push(-root)

    def m_dirac(nu: complex) -> int:
        return dirac.multiplicity(nu, tol=_SINGULARITY_EPS)

    def m_lap(mu: complex) -> int:
        for known, m in lap.entries:
            if abs(known - mu) < _SINGULARITY_EPS:
                return m
        return 0

    records: list[SingularityRecord] = []
    for nu in freqs:
        m_super = m_dirac(nu) - m_dirac(-nu)
        mu = nu * nu
        m_second = m_lap(mu)
        location = 1j * nu
        at_zero = abs(nu) < _SINGULARITY_EPS
        if at_zero:
            # the signed multiplicity vanishes identically at zero; the
            # second-order residue there is 2 m(0), giving plain order m(0)
            order_sym = 2 * m_second
            order_z = m_second
        else:
            if (m_super - m_second) % 2 != 0:
                raise ParityViolation(
                    f"signed multiplicity {m_super} and squared multiplicity "
                    f"{m_second} disagree mod 2 at eigenvalue {nu}",
                    eigenvalue=nu,
                )
            order_sym = m_second
            order_z = _half(m_super + order_sym, f"plain order at {location}")
        if m_super != 0:
            records.append(SingularityRecord(location, m_super, "super"))
        if order_sym != 0:
            records.append(SingularityRecord(location, order_sym, "symmetrized"))
        if order_z != 0:
            records.append(SingularityRecord(location, order_z, "selberg"))

    records.sort(key=lambda r: (r.zeta_kind, r.location.real, r.location.imag))
    return tuple(records)


# ---------------------------------------------------------------------------
# log zeta along a path


def super_tail_log(dirac: DiracSpectrum, w: complex) -> complex:
    """Closed form of -integral_w^inf of the continued super log-derivative
    along the rightward horizontal ray, on the principal branch.

    Valid once Re(w) dominates every |lam|; each eigenvalue contributes
    m * Log((w - i lam)/(w + i lam)), which decays like 1/w.
    """
    total = 0.0 + 0.0j
    for ev, m in dirac.entries:
        total += m * cmath.log((w - 1j * ev) / (w + 1j * ev))
    return total


def _path_plan(
    s: complex, locations, detour_radius: float, detour_side: str
) -> tuple[dict[complex, bool], list[complex]]:
    """Decide on which side the path from s passes each catalogued pole.

    The path runs right from s along the horizontal ray.  A pole ahead of
    s and closer than detour_radius to the ray is passed on detour_side,
    along the circle of detour_radius centred on it; every other pole is
    passed on its natural side, above it when it lies on or below the ray.
    The path therefore keeps at least detour_radius from every pole.  A
    start point closer than that to a pole, and a detour circle that
    overlaps the circle around another pole, are refused.

    Returns whether each distinct location is passed above, and the
    detoured locations in the order the path meets them.
    """
    if not detour_radius > 0:
        raise InvariantViolation("detour_radius must be positive")
    if detour_side not in ("above", "below"):
        raise InvariantViolation(f"detour_side must be 'above' or 'below', not {detour_side!r}")
    # records of several zeta kinds share locations; plan each point once
    distinct = list(dict.fromkeys(locations))
    above: dict[complex, bool] = {}
    detoured: list[complex] = []
    for loc in distinct:
        if abs(s - loc) < detour_radius:
            raise PathThroughSingularity(
                f"start point {s} is within {detour_radius} of singularity {loc}"
            )
        if loc.real > s.real and abs(loc.imag - s.imag) < detour_radius:
            above[loc] = detour_side == "above"
            detoured.append(loc)
        else:
            above[loc] = loc.imag <= s.imag
    for loc in detoured:
        for other in distinct:
            if other != loc and abs(other - loc) < 2.0 * detour_radius:
                raise PathThroughSingularity(
                    f"detour circles around {loc} and {other} overlap; "
                    f"reduce detour_radius"
                )
    detoured.sort(key=lambda z: z.real)
    return above, detoured


def _winding(s: complex, loc: complex, above: bool) -> int:
    """Signed crossings of the path from s with the cut {loc - t : t > 0}
    of the principal Log(z - loc): the log continued back along the path
    ends at Log(s - loc) + 2 pi i * winding."""
    if above and s.imag < loc.imag:
        return 1
    if not above and s.imag >= loc.imag:
        return -1
    return 0


def _super_records(catalog) -> list[SingularityRecord]:
    records = [r for r in catalog if r.zeta_kind == "super"]
    if sum(r.order for r in records) != 0:
        raise InvariantViolation(
            "super orders must sum to 0: the catalog is not the complete "
            "partial-fraction expansion of the super log-derivative"
        )
    return records


def _principal_log(z: complex) -> complex:
    # on the cut cmath.log returns -pi for a negative zero imaginary part;
    # the winding rule counts the cut as +pi
    return cmath.log(complex(z.real, z.imag + 0.0))


def super_winding(
    s: complex,
    catalog,
    detour_radius: float = 0.1,
    detour_side: str = "above",
) -> int:
    """Branch offset of the continued super log at s.

    Sum of order * w over the catalog's super records, where w in
    {-1, 0, +1} counts the crossings of the path with the cut of
    Log(s - location): +1 for a pole passed above from below its height,
    -1 for a pole passed below from its height or above, else 0.  The
    continued log is sum order * Log(s - location) + 2 pi i * winding.
    """
    s = complex(s)
    above, _ = _path_plan(s, [r.location for r in catalog], detour_radius, detour_side)
    return sum(
        rec.order * _winding(s, rec.location, above[rec.location])
        for rec in _super_records(catalog)
    )


def _segment_integral(f, a: complex, b: complex, breaks=()) -> complex:
    """Integral of f along the horizontal segment from a right to b; the
    real parts in breaks become panel edges."""
    return integrate(lambda x: f(x + 1j * a.imag), a.real, b.real, breaks)


def _arc_integral(
    f, center: complex, radius: float, phi_from: float, phi_to: float
) -> complex:
    def integrand(phi):
        offset = radius * np.exp(1j * phi)
        return f(center + offset) * 1j * offset

    return integrate(integrand, phi_from, phi_to)


def log_zeta_by_path(
    s: complex,
    logderiv=None,
    catalog: list[SingularityRecord] | None = None,
    detour_radius: float = 0.1,
    detour_side: str = "above",
    tail=None,
) -> complex:
    """-integral_s^inf of a continued log-derivative along a rightward ray.

    Exponentiating the result gives the continued zeta value; different
    detour sides change the log by 2 pi i times the enclosed integer
    order, never the exponential.  Catalogued singularities closer than
    detour_radius to the ray ahead of s are passed on detour_side
    ('above' or 'below') along circles of detour_radius centred on them;
    the path keeps that distance from every singularity, and a start
    point or detour that cannot is refused with PathThroughSingularity.

    With logderiv omitted the integrand is the partial-fraction sum of the
    catalog's super records, sum order/(z - location), and the value is
    the closed form sum order * Log(s - location) + 2 pi i * super_winding
    (no quadrature; tail is not used).  A given logderiv maps an array of
    points to values, the contract of quadrature.integrate, and the path
    is integrated by that adaptive Gauss-Legendre rule, with the poles'
    real parts as panel edges; this serves as a check of the closed form
    and for integrands that are not pure partial fractions, and a segment
    or arc that misses the rule's tolerance raises QuadratureFailure.
    tail(w) must then return the remaining -integral_w^inf; when omitted,
    the ray is extended by doubling until |logderiv| * |w| falls below
    1e-12, which covers integrands with quadratic decay.
    """
    s = complex(s)
    catalog = list(catalog or ())
    if logderiv is None:
        principal = sum(
            (rec.order * _principal_log(s - rec.location) for rec in _super_records(catalog)),
            0.0 + 0.0j,
        )
        return principal + 2j * math.pi * super_winding(s, catalog, detour_radius, detour_side)

    locations = [r.location for r in catalog]
    above, detoured = _path_plan(s, locations, detour_radius, detour_side)

    reach = max([abs(loc) for loc in locations] + [abs(s), 1.0])
    s_max = complex(max(20.0, 5.0 * reach), s.imag)
    if tail is None:
        w = s_max
        for _ in range(60):
            if abs(logderiv(w)) * abs(w) < 1e-12:
                break
            w = complex(w.real * 2.0, w.imag)
        else:
            raise NoConvergence(
                "log-derivative does not decay along the ray; no path tail"
            )
        s_max = w
        tail_value = 0.0 + 0.0j
    else:
        tail_value = tail(s_max)

    breaks = [loc.real for loc in above]
    total = 0.0 + 0.0j
    cursor = s
    for loc in detoured:
        # straight run up to the pole's circle, then round it on its side
        depth = loc.imag - s.imag
        half_chord = math.sqrt(detour_radius * detour_radius - depth * depth)
        exit_angle = math.atan2(-depth, half_chord)
        total += _segment_integral(logderiv, cursor, complex(loc.real - half_chord, s.imag), breaks)
        total += _arc_integral(
            logderiv,
            loc,
            detour_radius,
            math.pi - exit_angle,
            exit_angle if above[loc] else 2.0 * math.pi + exit_angle,
        )
        cursor = complex(loc.real + half_chord, s.imag)
    total += _segment_integral(logderiv, cursor, s_max, breaks)
    return -(total) + tail_value


# ---------------------------------------------------------------------------
# factorization of the plain geodesic zeta into Selberg-type factors


def ruelle_factorization_check(
    s: complex,
    k: float,
    chi,
    spectrum,
    growth_constant: float | None = None,
) -> tuple[complex, complex, float]:
    """Compare R(s; k) with Z(s-1; k) Z(s+1; k) / (Z(s; k+1) Z(s; k-1)).

    All five factors are evaluated as geodesic sums in the common
    convergence region, so this is a pure identity check of the adjoint
    determinant expansion.  Returns (lhs, rhs, relative gap).
    """
    def log(kind: str, s_arg: complex, k_arg: float) -> complex:
        req = ZetaRequest(
            s=s_arg,
            k=k_arg,
            spectrum=spectrum,
            kind=kind,
            chi=chi,
            growth_constant=growth_constant,
        )
        return log_zeta(req).value

    lhs = cmath.exp(log("ruelle", s, k))
    rhs = cmath.exp(
        log("selberg", s - 1.0, k)
        + log("selberg", s + 1.0, k)
        - log("selberg", s, k + 1.0)
        - log("selberg", s, k - 1.0)
    )
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, gap
