"""Meromorphic continuation from spectral data.

The geodesic sums of the zeta logs converge only in a half-plane.  Their
logarithmic derivatives, however, have closed meromorphic forms in terms
of operator spectra:

    L_super(s) = 2i sum_k m(lam_k) lam_k / (lam_k^2 + s^2)
    L_sym(s)   = 2s sum_k m(mu_k) / (mu_k + s^2)
                 - 4 pi dim(V_chi) Vol P(s)

These are rational (plus an entire polynomial) and defined on all of C,
with simple poles at s = +-i lam_k and s = +-i sqrt(mu_k) whose residues
are the signed and plain algebraic multiplicities.  Both take one point,
and every contour and path integrand in this module maps one point to its
value, the contract of quadrature.integrate.  Everything else here
is bookkeeping on top: partial-fraction resolvent weights, contour-based
residue extraction, a catalog of singularities with integer orders (its
locations grouped by the eigenvalues' own closeness rule, so a list's own
square is never refused), and log-zeta recovery along a path to the right
half-plane where the logarithm vanishes.  The super log-derivative is
exactly the partial fractions of its catalog, sum order/(s - pole), so the
continued super log is written down in closed form with exact branch
tracking: sum order * Log(s - pole) plus 2 pi i times the integer winding
of the detoured path.  Quadrature along the path is kept only as a check, and
for integrands that are not pure partial fractions.

Everything here works on Python numbers.  The path from s is planned
against each catalogued location in catalog order, and the closed-form
log is the sum of order * Log(s - location) over the super records in
record order.  quadrature is imported only by the path quadrature, so the
catalog and the closed form do not load it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from operator import mul

from .errors import (
    AtSingularity,
    DegenerateShifts,
    InvariantViolation,
    MissingVolume,
    NoConvergence,
    ParityViolation,
    PathThroughSingularity,
)
from .reps import plancherel
from .spectra import (
    EIGENVALUE_TOL,
    DiracSpectrum,
    EigenvalueSpectrum,
    LaplaceSpectrum,
    SingularityRecord,
    merge_groups,
)

__all__ = [
    "partial_fraction_weights",
    "continued_super_logderiv",
    "continued_sym_logderiv",
    "residue_at",
    "singularity_catalog",
    "log_zeta_by_path",
    "super_tail_log",
    "super_winding",
]


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


@functools.lru_cache(maxsize=8)
def _columns(spectrum: EigenvalueSpectrum, second_order: bool):
    """A spectrum's resolvent sum and its poles, laid out for evaluation
    point by point: the numerators num, the roots, and the poles s = +-i
    root held as w = -i s = +-root, sorted by real part, with those real
    parts.  (num, root) is (m lam, lam) for a first-order spectrum and
    (m, sqrt(mu)) for a second-order one.  Spectra are immutable, so the
    last few are kept."""
    values, mult = spectrum.values, spectrum.multiplicity
    if second_order:
        num, roots = mult, [cmath.sqrt(mu) for mu in values]
    else:
        num, roots = tuple(map(mul, mult, values)), values
    poles = sorted([*roots, *(-r for r in roots)], key=lambda p: p.real)
    return num, roots, [p.real for p in poles], poles


def _resolvent_sum(s: complex, spectrum: EigenvalueSpectrum, second_order: bool) -> complex:
    """sum num/(root^2 + s^2) at the point s, over the columns of
    _columns.  A point within EIGENVALUE_TOL of a pole is refused with
    AtSingularity; it is compared only with the poles whose real parts,
    in w = -i s, lie within EIGENVALUE_TOL of its own, found by bisection.
    The denominator is formed as (root - w)(root + w), whose factors carry
    no cancellation, so a point near a pole far from the origin keeps its
    digits and a point off every pole never divides by zero."""
    num, roots, reals, poles = _columns(spectrum, second_order)
    w = -1j * s  # |s - i p| = |w - p|, so the pole s = i p is w = p
    lo = bisect_left(reals, w.real - EIGENVALUE_TOL)
    hi = bisect_right(reals, w.real + EIGENVALUE_TOL)
    for p in poles[lo:hi]:
        if abs(w - p) < EIGENVALUE_TOL:
            raise AtSingularity(f"s = {s} sits on a pole", location=s)
    return sum([a / ((r - w) * (r + w)) for a, r in zip(num, roots)])


def continued_super_logderiv(s: complex, dirac: DiracSpectrum) -> complex:
    """2i sum m(lam) lam / (lam^2 + s^2) at the point s; poles +-i lam,
    residues +-m_s.  A point within EIGENVALUE_TOL of a pole is refused
    with AtSingularity."""
    return 2j * _resolvent_sum(complex(s), dirac, False)


def continued_sym_logderiv(
    s: complex,
    laplace: LaplaceSpectrum,
    k: float,
    dim_chi: int,
    volume: float,
) -> complex:
    """2s sum m(mu)/(mu + s^2) minus the entire density term, at the point
    s; poles +-i sqrt(mu), refused as for continued_super_logderiv.

    dim_chi is the dimension of the twist; volume 0 disables the
    polynomial term explicitly.
    """
    if volume is None:
        raise MissingVolume("the density term needs a volume (0 to disable)")
    s = complex(s)
    rational = 2.0 * s * _resolvent_sum(s, laplace, True)
    return rational - 4.0 * math.pi * dim_chi * volume * plancherel(k).at_s(s)


# ---------------------------------------------------------------------------
# residues


def residue_at(f, s0: complex, radius: float) -> complex:
    """(1/2 pi i) contour integral of f on the circle |s - s0| = radius.

    f maps one point to its value.  The trapezoidal rule on the circle
    converges geometrically for integrands analytic in an annulus; it
    starts at 16 nodes and doubles them, keeping the sum over the nodes
    it has and evaluating only the new ones, between them, and stops once
    two successive values agree to 1e-10.  It raises NoConvergence after
    2^17 nodes.
    """
    if not (radius > 0):
        raise InvariantViolation("radius must be positive")
    s0 = complex(s0)

    def ring(n: int, nodes: range) -> complex:
        # (1/2 pi i) integral f dz, with dz = i (z - s0) dphi, is the mean
        # of f(z) (z - s0) over the n nodes: this sums the given ones
        total = 0j
        for j in nodes:
            offset = radius * cmath.exp(2j * math.pi * j / n)
            total += f(s0 + offset) * offset
        return total

    n = 16
    total = ring(n, range(n))
    previous = total / n
    while n < 1 << 17:
        n *= 2
        total += ring(n, range(1, n, 2))  # the new nodes, between the old
        value = total / n
        delta = abs(value - previous)
        if delta < 1e-10:
            return value
        previous = value
    raise NoConvergence(
        f"contour values at {s0} did not settle (last delta around {delta:g})"
    )


# ---------------------------------------------------------------------------
# singularity catalog


def singularity_catalog(
    dirac: DiracSpectrum,
    laplace: LaplaceSpectrum | None = None,
) -> tuple[SingularityRecord, ...]:
    """Locations and integer orders for the super, symmetrized and plain
    Selberg-type zetas, from spectral data alone.

    laplace defaults to the squared first-order spectrum, whose roots are
    the first-order values themselves.  Supplying an independent
    second-order spectrum is allowed; the catalog then checks the grading
    parity m_s(lam) = m(lam^2) mod 2 at every location and refuses data
    that no graded operator pair could produce.  Each of +-lam and
    +-sqrt(mu) joins one location by spectra.merge_groups.
    """
    lam, m_lam = dirac.values, dirac.multiplicity
    roots, m_root = lam, m_lam  # with no laplace, no square is taken
    if laplace is not None:
        roots, m_root = [cmath.sqrt(mu) for mu in laplace.values], laplace.multiplicity

    # candidates 2i and 2i + 1 are lam_i and -lam_i, then root_i and
    # -root_i; each joins one distinct "frequency" nu, location i*nu
    candidates = [x for v in (*lam, *roots) for x in (v, -v)]
    kept, column = merge_groups(candidates)
    # the signed multiplicity m(nu) - m(-nu), and the squared one m(nu^2),
    # to which a root and its negative count once when they share nu, at 0
    m_signed, m_squared = [0] * len(kept), [0] * len(kept)
    for m, plus, minus in zip(m_lam, column[0::2], column[1::2]):
        m_signed[plus] += m
        m_signed[minus] -= m
    second = column[2 * len(lam) :]
    for m, plus, minus in zip(m_root, second[0::2], second[1::2]):
        m_squared[plus] += m
        if minus != plus:
            m_squared[minus] += m

    records: list[SingularityRecord] = []
    for nu, m_super, m_second in zip([candidates[i] for i in kept], m_signed, m_squared):
        if abs(nu) < EIGENVALUE_TOL:
            # the signed multiplicity vanishes identically at zero; the
            # second-order residue there is 2 m(0), giving plain order m(0)
            orders = (m_super, 2 * m_second, m_second)
        elif (m_super - m_second) % 2 != 0:
            raise ParityViolation(
                f"signed multiplicity {m_super} and squared multiplicity "
                f"{m_second} disagree mod 2 at eigenvalue {nu}",
                eigenvalue=nu,
            )
        else:  # the plain order is whole: the parity was checked just above
            orders = (m_super, m_second, (m_super + m_second) // 2)
        records += [
            SingularityRecord(1j * nu, order, kind)
            for kind, order in zip(("super", "symmetrized", "selberg"), orders)
            if order != 0
        ]

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
    return sum((m * cmath.log((w - 1j * ev) / (w + 1j * ev)) for ev, m in dirac.entries), 0j)


def _path_plan(
    s: complex, locations, detour_radius: float, detour_side: str
) -> tuple[list[complex], set[complex], list[complex]]:
    """Decide on which side the path from the start point s passes each
    catalogued pole.

    The path runs right from s along the horizontal ray.  A pole ahead of
    s and closer than detour_radius to the ray is passed on detour_side,
    along the circle of detour_radius centred on it; every other pole is
    passed on its natural side, above it when it lies on or below the ray.
    The path therefore keeps at least detour_radius from every pole.  A
    start point closer than that to a pole is refused, naming the first
    such pole, and so is a detour circle that overlaps the circle around
    another pole, naming the first detoured pole whose circle meets
    another's and the first pole it meets.

    Returns the distinct locations, in catalog order, the set of those
    passed above and the list of those detoured, in catalog order.
    """
    if not detour_radius > 0:
        raise InvariantViolation("detour_radius must be positive")
    if detour_side not in ("above", "below"):
        raise InvariantViolation(f"detour_side must be 'above' or 'below', not {detour_side!r}")
    # records of several zeta kinds share locations; plan each once
    distinct = list(dict.fromkeys(locations))
    for loc in distinct:
        if abs(s - loc) < detour_radius:
            raise PathThroughSingularity(
                f"start point {s} is within {detour_radius} of singularity {loc}"
            )
    detoured = [
        loc for loc in distinct if loc.real > s.real and abs(loc.imag - s.imag) < detour_radius
    ]
    for loc, other in itertools.product(detoured, distinct):
        if other != loc and abs(loc - other) < 2.0 * detour_radius:
            raise PathThroughSingularity(
                f"detour circles around {loc} and {other} overlap; reduce detour_radius"
            )
    natural = {loc for loc in distinct if loc.imag <= s.imag}
    above = natural | set(detoured) if detour_side == "above" else natural - set(detoured)
    return distinct, above, detoured


def _super_records(catalog) -> list[SingularityRecord]:
    records = [r for r in catalog if r.zeta_kind == "super"]
    if sum(r.order for r in records) != 0:
        raise InvariantViolation(
            "super orders must sum to 0: the catalog is not the complete "
            "partial-fraction expansion of the super log-derivative"
        )
    return records


def super_winding(
    s: complex,
    catalog,
    detour_radius: float = 0.1,
    detour_side: str = "above",
) -> int:
    """Branch offset of the continued super log at the point s.

    Sum of order * w over the catalog's super records, where w in
    {-1, 0, +1} counts the crossings of the path with the cut of
    Log(s - location): +1 for a pole passed above from below its height,
    -1 for a pole passed below from its height or above, else 0.  The
    continued log is sum order * Log(s - location) + 2 pi i * winding.
    """
    s = complex(s)
    _, above, _ = _path_plan(s, [r.location for r in catalog], detour_radius, detour_side)
    # w = (s below the pole's height) + (pole passed above) - 1
    return sum(
        r.order * ((s.imag < r.location.imag) + (r.location in above) - 1)
        for r in _super_records(catalog)
    )


def _segment_integral(f, a: complex, b: complex, breaks=()) -> complex:
    """Integral of f along the horizontal segment from a right to b; the
    real parts in breaks become panel edges."""
    from .quadrature import integrate

    return integrate(lambda x: f(complex(x, a.imag)), a.real, b.real, breaks)


def _arc_integral(
    f, center: complex, radius: float, phi_from: float, phi_to: float
) -> complex:
    from .quadrature import integrate

    def integrand(phi):
        offset = radius * cmath.exp(1j * phi)
        return f(center + offset) * 1j * offset

    return integrate(integrand, phi_from, phi_to)


def log_zeta_by_path(
    s: complex,
    logderiv=None,
    catalog: list[SingularityRecord] | None = None,
    detour_radius: float = 0.1,
    detour_side: str = "above",
    tail=None,
    return_winding: bool = False,
):
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
    at the point s (no quadrature; tail is not used); with return_winding
    it returns (log, winding).  A given logderiv maps one point to its
    value, the contract of quadrature.integrate, and the path from s
    is integrated by that adaptive Gauss-Legendre rule, with the poles'
    real parts as panel edges; this serves as a check of the closed form
    and for integrands that are not pure partial fractions, and a segment
    or arc that misses the rule's tolerance raises QuadratureFailure.
    tail(w) must then return the remaining -integral_w^inf; a logderiv
    without tail is refused with InvariantViolation.
    """
    s = complex(s)
    catalog = list(catalog or ())
    if return_winding and logderiv is not None:
        raise InvariantViolation("return_winding needs the closed form: omit logderiv")
    if logderiv is not None and tail is None:
        raise InvariantViolation("a given logderiv needs tail, the remaining integral")
    if logderiv is None:
        records = _super_records(catalog)
        # the plan refuses a point on a pole before its log is taken
        winding = super_winding(s, catalog, detour_radius, detour_side)
        # + 0j makes a zero imaginary part positive: the winding rule
        # counts the cut as +pi
        principal = 0j
        for r in records:
            principal += r.order * cmath.log(s - r.location + 0j)
        log = principal + 2j * math.pi * winding
        return (log, winding) if return_winding else log

    locations = [r.location for r in catalog]
    distinct, _, detoured = _path_plan(s, locations, detour_radius, detour_side)

    reach = max([abs(loc) for loc in locations] + [abs(s), 1.0])
    s_max = complex(max(20.0, 5.0 * reach), s.imag)
    tail_value = tail(s_max)

    breaks = [loc.real for loc in distinct]
    total = 0.0 + 0.0j
    cursor = s
    for loc in sorted(detoured, key=lambda loc: loc.real):
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
            exit_angle if detour_side == "above" else 2.0 * math.pi + exit_angle,
        )
        cursor = complex(loc.real + half_chord, s.imag)
    total += _segment_integral(logderiv, cursor, s_max, breaks)
    return -(total) + tail_value
