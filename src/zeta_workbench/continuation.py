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
residue extraction, a catalog of singularities with integer orders (its
locations grouped by the eigenvalues' own closeness rule, so a list's own
square is never refused), and log-zeta recovery along a path to the right
half-plane where the logarithm vanishes.  The super log-derivative is
exactly the partial fractions of its catalog, sum order/(s - pole), so the
continued super log is written down in closed form with exact branch
tracking: sum order * Log(s - pole) plus 2 pi i times the integer winding
of the detoured path.  Quadrature along the path is kept only as a check, and
for integrands that are not pure partial fractions.

The closed form, the winding, the path plan and residue_at take a point
or an array of points (of centres, for residue_at) and work on the whole
array at once: the logs and the winding rule are arrays over (points x
catalog records), and a grid's refusals are masks over the same, so an
array gives what the points give one by one and the first point refused
raises the error that point would raise alone.  A point gives a number.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .eigenvalues import (
    _BLOCK,
    EIGENVALUE_TOL,
    DiracSpectrum,
    LaplaceSpectrum,
    _near,
    merge_groups,
)
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
from .reps import plancherel
from .spectra import SingularityRecord

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


def _number_or_array(s, values: np.ndarray):
    """values for the points of s: a Python number when s is one point."""
    return values.item() if np.ndim(s) == 0 else values


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


def _refuse_poles(z: np.ndarray, poles: np.ndarray) -> None:
    hit, _ = _near(z.ravel(), poles, EIGENVALUE_TOL)
    if hit.size:
        at = complex(z.ravel()[hit.min()])
        raise AtSingularity(f"s = {at} sits on a pole", location=at)


def _spectral_sum(term, z: np.ndarray, size: int) -> np.ndarray:
    """sum_k term(z)_k at each point of z, where term maps a column of
    points to a (points x size) array.  The points go in blocks, so that
    the temporaries stay near 64 kB however many points and eigenvalues
    there are; each point's sum is the same in any block."""
    flat = z.reshape(-1, 1)
    step = max(1, _BLOCK // max(size, 1))
    out = np.empty(len(flat), dtype=complex)
    for start in range(0, len(flat), step):
        out[start : start + step] = np.sum(term(flat[start : start + step]), axis=-1)
    return out.reshape(z.shape)


def continued_super_logderiv(s, dirac: DiracSpectrum):
    """2i sum m(lam) lam / (lam^2 + s^2); poles +-i lam, residues +-m_s.

    s is a point or an array of points; the eigenvalue sum is broadcast
    over them, and any point on a pole is refused with AtSingularity.
    """
    z = np.asarray(s, dtype=complex)
    ev, m = dirac.values, dirac.multiplicity
    _refuse_poles(z, np.concatenate([1j * ev, -1j * ev]))
    return 2j * _spectral_sum(lambda zz: m * ev / (ev * ev + zz * zz), z, len(ev))


def continued_sym_logderiv(
    s,
    laplace: LaplaceSpectrum,
    k: float,
    dim_chi: int,
    volume: float,
):
    """2s sum m(mu)/(mu + s^2) minus the entire density term.

    s is a point or an array of points, as for continued_super_logderiv.
    dim_chi is the dimension of the twist; volume 0 disables the
    polynomial term explicitly.
    """
    if volume is None:
        raise MissingVolume("the density term needs a volume (0 to disable)")
    z = np.asarray(s, dtype=complex)
    mu, m = laplace.values, laplace.multiplicity
    roots = 1j * np.sqrt(mu)
    _refuse_poles(z, np.concatenate([roots, -roots]))
    rational = 2.0 * z * _spectral_sum(lambda zz: m / (mu + zz * zz), z, len(mu))
    return rational - 4.0 * math.pi * dim_chi * volume * plancherel(k).at_s(z)


# ---------------------------------------------------------------------------
# residues


def residue_at(f, s0, radius: float):
    """(1/2 pi i) contour integral of f on the circle |s - s0| = radius.

    s0 is a centre or an array of centres.  f maps an array of points to
    values, as in quadrature.integrate, and is called once per node count:
    with the n nodes of the circle for one centre, and with one row of n
    nodes per centre still open for an array.  The trapezoidal rule on
    the circle converges geometrically for integrands analytic in an
    annulus; it starts at 16 nodes and doubles them, each centre stopping
    once two successive values agree to 1e-10, and raises NoConvergence
    after 2^17 nodes, naming the first centre still open.
    """
    if not (radius > 0):
        raise InvariantViolation("radius must be positive")
    centres = np.asarray(s0, dtype=complex)
    rows = centres.reshape(-1, 1)
    result = np.empty(len(rows), dtype=complex)
    open_ = np.arange(len(rows))
    previous = None
    n = 16
    while n <= 1 << 17:
        nodes = rows[open_] + radius * np.exp(2j * math.pi * np.arange(n) / n)
        values = np.asarray(f(nodes if centres.ndim else nodes[0])).reshape(nodes.shape)
        # (1/2 pi i) integral f dz with dz = i (z - s0) dphi
        total = np.mean(values * (nodes - rows[open_]), axis=-1)
        if previous is not None:
            delta = np.abs(total - previous)
            settled = delta < 1e-10
            result[open_[settled]] = total[settled]
            open_, total, delta = open_[~settled], total[~settled], delta[~settled]
            if not open_.size:
                return _number_or_array(s0, result.reshape(centres.shape))
        previous = total
        n *= 2
    raise NoConvergence(
        f"contour values at {complex(rows[open_[0], 0])} did not settle (last delta "
        f"around {delta[0]:g})"
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
    +-sqrt(mu) joins one location by eigenvalues.merge_groups.
    """
    lam, m_lam = dirac.values, dirac.multiplicity
    roots, m_root = lam, m_lam  # with no laplace, no square is taken
    if laplace is not None:
        roots, m_root = np.sqrt(laplace.values), laplace.multiplicity

    # candidates 2i and 2i + 1 are lam_i and -lam_i, then root_i and
    # -root_i; each joins one distinct "frequency" nu, location i*nu
    candidates = np.stack([np.concatenate([lam, roots]), -np.concatenate([lam, roots])], 1).ravel()
    kept, column = merge_groups(candidates)
    freqs = candidates[kept]
    first, second = np.split(column, [2 * len(lam)])
    # the signed multiplicity m(nu) - m(-nu), and the squared one m(nu^2),
    # to which a root and its negative count once when they share nu, at 0
    signed = np.stack([m_lam, -m_lam], 1).ravel()
    m_signed = np.bincount(first, weights=signed, minlength=len(freqs))
    per_root = np.stack([m_root, np.where(second[::2] != second[1::2], m_root, 0)], 1)
    m_squared = np.bincount(second, weights=per_root.ravel(), minlength=len(freqs))

    records: list[SingularityRecord] = []
    for nu, m_super, m_second in zip(freqs.tolist(), map(int, m_signed), map(int, m_squared)):
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
    ev = dirac.values
    return complex(np.sum(dirac.multiplicity * np.log((w - 1j * ev) / (w + 1j * ev))))


def _path_plan(
    z: np.ndarray, locations, detour_radius: float, detour_side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide on which side the path from each start point in the 1-d
    array z passes each catalogued pole.

    The path runs right from s along the horizontal ray.  A pole ahead of
    s and closer than detour_radius to the ray is passed on detour_side,
    along the circle of detour_radius centred on it; every other pole is
    passed on its natural side, above it when it lies on or below the ray.
    The path therefore keeps at least detour_radius from every pole.  A
    start point closer than that to a pole, and a detour circle that
    overlaps the circle around another pole, are refused: the first point
    refused raises, naming the first pole within reach of it or else its
    first detoured pole whose circle meets another's.

    Returns the distinct locations, in catalog order, and two masks over
    (points x locations): the locations passed above and those detoured.
    """
    if not detour_radius > 0:
        raise InvariantViolation("detour_radius must be positive")
    if detour_side not in ("above", "below"):
        raise InvariantViolation(f"detour_side must be 'above' or 'below', not {detour_side!r}")
    # records of several zeta kinds share locations; plan each point once
    distinct = np.array(list(dict.fromkeys(locations)), dtype=complex)
    s = z[:, None]
    too_close = np.abs(s - distinct) < detour_radius
    detoured = (distinct.real > s.real) & (np.abs(distinct.imag - s.imag) < detour_radius)
    above = np.where(detoured, detour_side == "above", distinct.imag <= s.imag)
    # the closeness of the distinct locations does not depend on the point
    loc, other = _near(distinct, distinct, 2.0 * detour_radius)
    loc, other = loc[loc != other], other[loc != other]
    crowded = np.bincount(loc, minlength=len(distinct)) > 0
    refused = np.flatnonzero(too_close.any(axis=1) | (detoured & crowded).any(axis=1))
    if refused.size:
        p = refused[0]
        start = complex(z[p])
        if too_close[p].any():
            raise PathThroughSingularity(
                f"start point {start} is within {detour_radius} of singularity "
                f"{complex(distinct[np.argmax(too_close[p])])}"
            )
        j = np.argmax(detoured[p] & crowded)
        raise PathThroughSingularity(
            f"detour circles around {complex(distinct[j])} and "
            f"{complex(distinct[other[loc == j].min()])} overlap; reduce detour_radius"
        )
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
    s,
    catalog,
    detour_radius: float = 0.1,
    detour_side: str = "above",
):
    """Branch offset of the continued super log at s, a point or an array.

    Sum of order * w over the catalog's super records, where w in
    {-1, 0, +1} counts the crossings of the path with the cut of
    Log(s - location): +1 for a pole passed above from below its height,
    -1 for a pole passed below from its height or above, else 0.  The
    continued log is sum order * Log(s - location) + 2 pi i * winding.
    """
    z = np.asarray(s, dtype=complex)
    locations = [r.location for r in catalog]
    distinct, above, _ = _path_plan(z.ravel(), locations, detour_radius, detour_side)
    records = _super_records(catalog)
    column = {loc: j for j, loc in enumerate(distinct.tolist())}
    columns = [column[r.location] for r in records]
    passed_above = above[:, columns]
    below_height = z.reshape(-1, 1).imag < distinct.imag[columns]
    crossings = (passed_above & below_height).astype(int) - (~passed_above & ~below_height)
    winding = crossings @ np.array([r.order for r in records], dtype=int)
    return _number_or_array(s, winding.reshape(z.shape))


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
    s,
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
    (no quadrature; tail is not used), for a point or for an array of
    points at once; with return_winding it returns (log, winding) from
    its one path plan.  A given logderiv maps an array of points to values,
    the contract of quadrature.integrate, and the path from the one point
    s is integrated by that adaptive Gauss-Legendre rule, with the poles'
    real parts as panel edges; this serves as a check of the closed form
    and for integrands that are not pure partial fractions, and a segment
    or arc that misses the rule's tolerance raises QuadratureFailure.
    tail(w) must then return the remaining -integral_w^inf; a logderiv
    without tail is refused with InvariantViolation.
    """
    catalog = list(catalog or ())
    if return_winding and logderiv is not None:
        raise InvariantViolation("return_winding needs the closed form: omit logderiv")
    if logderiv is not None and tail is None:
        raise InvariantViolation("a given logderiv needs tail, the remaining integral")
    if logderiv is None:
        z = np.asarray(s, dtype=complex)
        records = _super_records(catalog)
        # the plan refuses a point on a pole before its log is taken
        winding = super_winding(z, catalog, detour_radius, detour_side)
        # + 0.0 makes a zero imaginary part positive: the winding rule
        # counts the cut as +pi.  cmath.log, not np.log, whose log|z| can
        # differ in the last bit: each point's log is its scalar formula's
        offsets = z.reshape(-1, 1) - np.array([r.location for r in records], dtype=complex) + 0.0
        logs = np.fromiter(map(cmath.log, offsets.ravel().tolist()), complex, offsets.size)
        principal = np.zeros(z.size, dtype=complex)
        for rec, column in zip(records, logs.reshape(offsets.shape).T):
            principal = principal + rec.order * column
        log = _number_or_array(s, principal.reshape(z.shape) + 2j * math.pi * winding)
        return (log, winding) if return_winding else log

    s = complex(s)
    locations = [r.location for r in catalog]
    distinct, above, detoured = _path_plan(np.array([s]), locations, detour_radius, detour_side)

    reach = max([abs(loc) for loc in locations] + [abs(s), 1.0])
    s_max = complex(max(20.0, 5.0 * reach), s.imag)
    tail_value = tail(s_max)

    breaks = distinct.real.tolist()
    total = 0.0 + 0.0j
    cursor = s
    ahead = np.flatnonzero(detoured[0])
    for j in ahead[np.argsort(distinct.real[ahead], kind="stable")].tolist():
        # straight run up to the pole's circle, then round it on its side
        loc = complex(distinct[j])
        depth = loc.imag - s.imag
        half_chord = math.sqrt(detour_radius * detour_radius - depth * depth)
        exit_angle = math.atan2(-depth, half_chord)
        total += _segment_integral(logderiv, cursor, complex(loc.real - half_chord, s.imag), breaks)
        total += _arc_integral(
            logderiv,
            loc,
            detour_radius,
            math.pi - exit_angle,
            exit_angle if above[0, j] else 2.0 * math.pi + exit_angle,
        )
        cursor = complex(loc.real + half_chord, s.imag)
    total += _segment_integral(logderiv, cursor, s_max, breaks)
    return -(total) + tail_value
