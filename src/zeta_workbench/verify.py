"""Self-contained verification suites.

Each suite exercises one family of identities with fresh, seeded random
data and records every case on one ledger: a gap against its tolerance,
or a requirement that is not a gap (a sensitivity control, a slope, a
refusal).  The ledger returns a machine-readable report:

    {"suite": name, "cases": n, "max_gap": g, "pass": bool,
     "seed": seed, "counterexample": str | None}

pass means no case failed; the counterexample is the label of the worst
failure, by gap over tolerance (a failed requirement counts as worst).

Suites: kernels, partial-fractions, residues, logderiv, factorization,
parity, trace-scaling.

The data is drawn from random.Random(seed), the standard library's
Mersenne Twister, and every suite is a plain loop over its draws on
Python numbers: each case is one call of the function it checks.
"""

from __future__ import annotations

import cmath
import math
import random

from .continuation import (
    continued_super_logderiv,
    continued_sym_logderiv,
    partial_fraction_weights,
    residue_at,
    singularity_catalog,
)
from .errors import InvariantViolation, ParityViolation, QuadratureFailure, WorkbenchError
from .names import SUITE_NAMES
from .quadrature import integrate
from .reps import ad_nbar_det, plancherel
from .spectra import (
    ClassColumns,
    DiracSpectrum,
    LaplaceSpectrum,
    LengthSpectrum,
    square_spectrum,
    super_multiplicity,
    wrap_angle,
)
from .traces import (
    dee_gamma,
    dirac_geometric_side,
    heat_geometric_side,
    identity_term_dirac,
    identity_term_heat,
)
from .zeta import (
    RHO,
    ZetaRequest,
    log_derivative_super,
    log_derivative_symmetrized,
    log_zeta,
)

__all__ = [
    "SUITES",
    "run_suite",
    "run_all",
    "ruelle_factorization_check",
    "toy_spectrum",
    "single_class_spectrum",
    "laplace_kernel_check",
    "fourier_gaussian_check",
    "class_term_t_integral",
]


class _Ledger:
    """The cases of one suite run and its worst failure."""

    def __init__(self, suite: str, seed: int):
        self.suite, self.seed = suite, seed
        self.cases, self.max_gap = 0, 0.0
        self.worst: tuple[float, str] | None = None  # (gap / tolerance, label)

    def gap(self, value: float, tol: float, label: str, *args) -> None:
        """One case; label.format(*args) names it, and is formatted only
        for a case that fails."""
        self.cases += 1
        if value > self.max_gap:  # NaN is no maximum
            self.max_gap = value
        if not value <= tol:  # a NaN gap fails too
            self._fail(value / tol if value > tol else math.inf, label.format(*args))

    def require(self, ok: bool, label: str, *args) -> None:
        """One case that fails unless ok; named as for gap."""
        self.cases += 1
        if not ok:
            self._fail(math.inf, label.format(*args))

    def _fail(self, excess: float, label: str) -> None:
        if self.worst is None or excess > self.worst[0]:
            self.worst = (excess, label)

    def report(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "max_gap": self.max_gap,
            "pass": self.worst is None,
            "seed": self.seed,
            "counterexample": None if self.worst is None else self.worst[1],
        }


# shared fixtures -----------------------------------------------------------


def toy_spectrum(volume: float | None = 1.0) -> LengthSpectrum:
    """Three primitive classes with incommensurate lengths and angles."""
    classes = ClassColumns([1.0, 1.3, 1.7], [0.7, -2.1, 2.9])
    return LengthSpectrum(cutoff=2.0, classes=classes, volume=volume, source="toy")


def single_class_spectrum(
    l0: float, theta0: float, powers: int, volume: float | None = None
) -> LengthSpectrum:
    """One primitive class and its first `powers` powers."""
    ns = range(1, powers + 1)
    classes = ClassColumns([n * l0 for n in ns], [wrap_angle(n * theta0) for n in ns], ns)
    return LengthSpectrum(
        cutoff=powers * l0, classes=classes, volume=volume, source="single-class family"
    )


def random_dirac_spectrum(rng: random.Random, max_entries: int = 20) -> DiracSpectrum:
    """Well-separated eigenvalues near the positive real axis, some negated.

    Separation of all +-i lam locations stays above 0.3 so that contour
    radius 0.1 is safe.
    """
    n = rng.randrange(1, max_entries // 2 + 1)
    entries = []
    for i in range(n):
        re = 0.7 * (i + 1) + rng.uniform(-0.15, 0.15)
        im = rng.uniform(-0.1, 0.1) * min(1.0, 0.4 * re)
        lam = complex(re, im)
        m = rng.randrange(1, 5)
        entries.append((lam, m))
        if rng.random() < 0.4 and len(entries) < max_entries:
            entries.append((-lam, rng.randrange(1, 5)))
    return DiracSpectrum(entries=tuple(entries))


# factorization of the plain geodesic zeta into Selberg-type factors ----------


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


# kernel identities ---------------------------------------------------------
#
# The two analytic identities that tie the Gaussian-in-t weights of the
# trace sides to the exponential-in-s weights of the zeta logs, and the
# per-class time integral; each is checked against its closed form by the
# adaptive Gauss-Legendre rule of quadrature.py.


def _heat_time_integral(c0: complex, length: float, s2: complex) -> complex:
    """integral_0^inf c0 t^{-3/2} exp(-l^2/4t) exp(-t s^2) dt, Re(s^2) > 0.

    Runs along the real axis to the saddle t* = l/(2|s|), then turns onto
    the ray where t s^2 advances through real values, so the integrand
    decays like exp(-tau |s|^2) without oscillation even when s^2 hugs
    the imaginary axis.  Both legs stay in the right half plane, where
    the principal branch of t^{-3/2} is smooth and exp(-l^2/4t) is
    bounded by one, so the rotation is legitimate.
    """
    budget = 120.0
    quarter = 0.25 * length * length
    t_star = length / (2.0 * math.sqrt(abs(s2)))
    u0 = math.log(t_star)
    u_lo = math.log(quarter / budget)
    if u_lo >= u0:
        u_lo = u0 - 1.0
    ray = cmath.exp(-1j * cmath.phase(s2))
    c_ray = c0 * ray

    def leg_small_t(u):
        t = math.exp(u)
        return c0 * cmath.exp(-quarter / t - t * s2 - 0.5 * u)

    def leg_ray(tau):
        t = t_star + ray * tau
        return c_ray * t**-1.5 * cmath.exp(-quarter / t - t * s2)

    return integrate(leg_small_t, u_lo, u0) + integrate(leg_ray, 0.0, budget / abs(s2))


def laplace_kernel_check(length: float, s: complex) -> tuple[complex, complex, float]:
    """Check integral_0^inf exp(-t s^2) (4 pi t)^{-3/2} exp(-l^2/4t) dt
    against the closed form exp(-l s) / (4 pi l); returns (lhs, rhs, gap).

    The substitution t = exp(u) turns the integrand into a doubly
    exponentially decaying bump, which adaptive quadrature resolves
    cheaply.
    """
    length, s = float(length), complex(s)
    if not length > 0:
        raise InvariantViolation("length must be positive")
    if s.real <= 0:
        raise InvariantViolation("need Re(s) > 0")
    s2 = s * s
    if s2.real <= 0:
        raise QuadratureFailure("integral is not absolutely convergent for Re(s^2) <= 0")

    lhs = _heat_time_integral((4.0 * math.pi) ** -1.5, length, s2)
    rhs = cmath.exp(-length * s) / (4.0 * math.pi * length)
    return lhs, rhs, abs(lhs - rhs)


def fourier_gaussian_check(length: float, t: float) -> tuple[complex, complex, float]:
    """Check (1/2pi) integral lam exp(-t lam^2) exp(-i l lam) dlam against
    -i l sqrt(pi) exp(-l^2/4t) / (4 pi t^{3/2}); returns (lhs, rhs, gap).

    Multiplying the closed form by l reproduces the per-class weight of the
    first-order geodesic side, which is how the two printed forms of that
    formula pass into one another.
    """
    length, t = float(length), float(t)
    if not (length > 0 and t > 0):
        raise InvariantViolation("length and t must be positive")

    # lam cos(l lam) exp(-t lam^2) is odd, so only the sine part survives;
    # folding the domain keeps the cancellation out of the error estimate
    def integrand(lam):
        return lam * math.exp(-t * lam * lam) * math.sin(length * lam)

    half = integrate(integrand, 0.0, math.sqrt(200.0 / t))
    lhs = -2j * half / (2.0 * math.pi)
    rhs = -1j * length * math.sqrt(math.pi) * math.exp(-(length**2) / (4.0 * t))
    rhs = rhs / (4.0 * math.pi * t**1.5)
    return lhs, rhs, abs(lhs - rhs)


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


# suites --------------------------------------------------------------------


def suite_kernels(seed: int = 0) -> dict:
    """Both analytic kernel identities on a 10x10 log-spaced grid."""
    grid = [10.0 ** (i * (2.0 / 9.0) - 1.0) for i in range(9)] + [10.0]
    ledger = _Ledger("kernels", seed)
    for length in grid:
        for par in grid:
            _, _, gap = laplace_kernel_check(length, complex(par))
            ledger.gap(gap, 1e-10, "laplace kernel at l={:g}, par={:g}", length, par)
            _, _, gap = fourier_gaussian_check(length, par)
            ledger.gap(gap, 1e-10, "fourier kernel at l={:g}, par={:g}", length, par)
    return ledger.report()


def suite_partial_fractions(seed: int = 0) -> dict:
    """Resolvent-product identity plus the full-grid spectral reductions."""
    rng = random.Random(seed)
    ledger = _Ledger("partial-fractions", seed)

    for trial in range(100):
        n = rng.randrange(1, 7)
        shifts = []
        while len(shifts) < n:
            cand = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
            # keep the squared shifts separated so the weights stay O(1);
            # nearly-coincident grids are ill-conditioned by nature and the
            # exactly degenerate case is rejected as DegenerateShifts
            if all(abs(cand * cand - s * s) > 0.25 for s in shifts):
                shifts.append(cand)
        pairs = list(zip(partial_fraction_weights(tuple(shifts)), [s * s for s in shifts]))
        # re then im, one point after another
        for x in [complex(rng.uniform(-0.4, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(20)]:
            denominators = [x + sq for _, sq in pairs]
            if min(map(abs, denominators)) < 1e-2:  # too close to a pole: skipped
                continue
            product, sum_form = 1.0 + 0j, 0j
            for (w, _), d in zip(pairs, denominators):
                product /= d
                sum_form += w / d
            rel = abs(product - sum_form) / max(abs(product), 1e-300)
            ledger.gap(rel, 1e-10, "grid {}: N={}, x={}", trial, n, x)

    # full-grid reductions: weighted sums of the continued log-derivatives
    # must equal the direct double sums over (eigenvalue, shift)
    k = 1.0
    poly = plancherel(k)
    for trial in range(20):
        n = rng.randrange(1, 6)
        shifts = []
        while len(shifts) < n:
            cand = complex(rng.uniform(2.2, 5.0), rng.uniform(-0.5, 0.5))
            if all(abs(cand * cand - s * s) > 1e-3 for s in shifts):
                shifts.append(cand)
        weights = partial_fraction_weights(tuple(shifts))
        dirac = random_dirac_spectrum(rng, max_entries=12)
        laplace = square_spectrum(dirac)

        lhs = sum(w * (-0.5j * continued_super_logderiv(s, dirac)) for w, s in zip(weights, shifts))
        terms = [
            w * m * ev / (ev * ev + s * s)
            for ev, m in dirac.entries
            for w, s in zip(weights, shifts)
        ]
        rhs = sum(terms)
        # +lam/-lam eigenvalue pairs cancel exactly, so normalize by the
        # mass of the summed terms rather than by the (possibly zero) total
        scale = max(sum(abs(t) for t in terms), 1e-12)
        ledger.gap(abs(lhs - rhs) / scale, 1e-10, "first-order reduction, trial {}", trial)

        vol = 1.0
        lhs2 = sum(
            w * continued_sym_logderiv(s, laplace, k, 1, vol) for w, s in zip(weights, shifts)
        )
        terms2 = [
            w * 2.0 * s * m / (mu + s * s)
            for mu, m in laplace.entries
            for w, s in zip(weights, shifts)
        ] + [
            -w * 4.0 * math.pi * vol * poly.at_s(s) for w, s in zip(weights, shifts)
        ]
        rhs2 = sum(terms2)
        scale2 = max(sum(abs(t) for t in terms2), 1e-12)
        ledger.gap(abs(lhs2 - rhs2) / scale2, 1e-10, "second-order reduction, trial {}", trial)
    return ledger.report()


def suite_residues(seed: int = 0) -> dict:
    """Contour residues equal multiplicities, for both continued sums."""
    rng = random.Random(seed)
    k = 1.0
    ledger = _Ledger("residues", seed)

    for trial in range(25):
        dirac = random_dirac_spectrum(rng)

        def l_super(z):
            return continued_super_logderiv(z, dirac)

        for ev in dirac.values:
            want = super_multiplicity(dirac, ev)
            got = residue_at(l_super, 1j * ev, 0.1)
            ledger.gap(abs(got - want), 1e-8, "first order, trial {}, ev={}", trial, ev)
            got = residue_at(l_super, -1j * ev, 0.1)
            ledger.gap(abs(got + want), 1e-8, "first order at -i ev, trial {}, ev={}", trial, ev)

        laplace = square_spectrum(dirac)

        def l_sym(z):
            return continued_sym_logderiv(z, laplace, k, 1, 1.0)

        for mu, m in laplace.entries:
            got = residue_at(l_sym, 1j * cmath.sqrt(mu), 0.05)
            ledger.gap(abs(got - m), 1e-8, "second order, trial {}, mu={}", trial, mu)

    # zero eigenvalue: second-order residue doubles
    dirac0 = DiracSpectrum(entries=((0.0, 3), (1.5, 1)))
    lap0 = square_spectrum(dirac0)
    got = residue_at(
        lambda z: continued_sym_logderiv(z, lap0, k, 1, 0.0), 0.0, 0.2
    )
    ledger.gap(abs(got - 6), 1e-8, "second order at zero")

    # the density term is entire: no residue anywhere
    empty = LaplaceSpectrum(entries=())
    got = residue_at(
        lambda z: continued_sym_logderiv(z, empty, k, 1, 1.0),
        complex(0.7, 0.2),
        0.3,
    )
    ledger.gap(abs(got), 1e-8, "density-term contour")
    return ledger.report()


def suite_logderiv(seed: int = 0) -> dict:
    """Finite differences of the log sums against the Dirichlet sums, and
    the class-sum logs against brute-force truncated products."""
    rng = random.Random(seed)
    spectrum = toy_spectrum()
    k = 1.0
    h = 1e-4
    ledger = _Ledger("logderiv", seed)

    def log_at(kind, s):
        return log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, kind=kind)).value

    for i in range(10):
        s = complex(rng.uniform(2.0, 4.0), rng.uniform(-1.0, 1.0))
        for kind, derivative in (
            ("super", log_derivative_super),
            ("symmetrized", log_derivative_symmetrized),
        ):
            got = (log_at(kind, s + h) - log_at(kind, s - h)) / (2.0 * h)
            want = derivative(s, k, None, spectrum).value
            ledger.gap(abs(got - want), 1e-6, "{} derivative at s={}", kind, s)

    # product oracles: truncate the defining products directly
    for l0, theta0 in ((2.0, 0.0), (1.5, 1.1)):
        family = single_class_spectrum(l0, theta0, powers=40)
        for s_real in (3.0, 4.0):
            s = complex(s_real)
            oracle_z = 0.0 + 0.0j
            for kk in range(41):
                for a in range(kk + 1):
                    w = (
                        cmath.exp(1j * k * theta0)
                        * cmath.exp(1j * (2 * a - kk) * theta0)
                        * cmath.exp(-(kk + s + 1.0) * l0)
                    )
                    oracle_z += cmath.log(1.0 - w)
            oracle_r = cmath.log(1.0 - cmath.exp(1j * k * theta0) * cmath.exp(-s * l0))
            for kind, oracle in (("selberg", oracle_z), ("ruelle", oracle_r)):
                got = log_zeta(ZetaRequest(s=s, k=k, spectrum=family, kind=kind)).value
                label = "{} product oracle at l0={}, s={}"
                ledger.gap(abs(got - oracle), 1e-10, label, kind, l0, s_real)
    return ledger.report()


def suite_factorization(seed: int = 0) -> dict:
    """Four-factor product identity for the plain geodesic zeta."""
    rng = random.Random(seed)
    ledger = _Ledger("factorization", seed)
    spectra = (
        toy_spectrum(volume=None),
        single_class_spectrum(1.2, 0.9, powers=3),
    )
    for k in (1.0, 0.5, 2.0):
        for spectrum in spectra:
            for i in range(5):
                s = complex(3.2 + 0.45 * i, rng.uniform(-0.3, 0.3))
                _, _, gap = ruelle_factorization_check(s, k, None, spectrum)
                ledger.gap(gap, 1e-9, "k={}, s={}", k, s)
    return ledger.report()


def suite_parity(seed: int = 0, inject_violation: bool = False) -> dict:
    """Catalog construction, antisymmetry, order-vs-residue agreement, and
    rejection of graded-parity violations."""
    rng = random.Random(seed)
    k = 1.0
    ledger = _Ledger("parity", seed)

    for trial in range(10):
        dirac = random_dirac_spectrum(rng, max_entries=8)
        for ev in dirac.values:
            ledger.require(
                super_multiplicity(dirac, ev) == -super_multiplicity(dirac, -ev),
                "antisymmetry broken at {}",
                ev,
            )
        catalog = singularity_catalog(dirac)
        laplace = square_spectrum(dirac)

        def l_plain(z):
            return 0.5 * (
                continued_sym_logderiv(z, laplace, k, 1, 1.0)
                + continued_super_logderiv(z, dirac)
            )

        plain = [record for record in catalog if record.zeta_kind == "selberg"]
        for record in plain:
            got = residue_at(l_plain, record.location, 0.05)
            ledger.gap(abs(got - record.order), 1e-8, "order mismatch at {}", record.location)

    # a spectrum pair no graded operator couple can produce must be refused
    bad_dirac = DiracSpectrum(entries=((1.0, 1),))
    bad_laplace = LaplaceSpectrum(entries=((1.0, 2),))
    try:
        singularity_catalog(bad_dirac, bad_laplace)
        rejected = False
    except ParityViolation:
        rejected = True
    if inject_violation:
        # caller asked to push the bad pair through as if it were good data
        ledger.require(
            not rejected, "injected parity violation: catalog refused the spectrum pair"
        )
    else:
        ledger.require(rejected, "parity violation was not rejected")
    return ledger.report()


def suite_trace_scaling(seed: int = 0) -> dict:
    """Identity-term cancellation plus linearity/scaling of the trace sides."""
    k = 1.0
    ledger = _Ledger("trace-scaling", seed)

    # odd integrand against matched densities: exact zero
    for t in (0.1, 1.0, 10.0):
        ledger.gap(abs(identity_term_dirac(k, t)), 1e-12, "identity term at t={}", t)

    # sensitivity control: an odd density perturbation must show up
    base = plancherel(k)
    perturbed = (base.coefficients[0], 0.1, base.coefficients[2])
    for t in (0.1, 1.0, 10.0):
        value = abs(
            identity_term_dirac(
                k,
                t,
                plus_coefficients=perturbed,
                minus_coefficients=base.coefficients,
            )
        )
        ledger.require(value > 1e-3, "odd perturbation invisible at t={} (value {:g})", t, value)

    # 1/n weighting: a primitive class plus its square must equal the
    # primitive side plus half the side of a lone class at the doubled length
    l0, th0 = 0.9, 0.7
    family = single_class_spectrum(l0, th0, powers=2)
    lone = single_class_spectrum(l0, th0, powers=1)
    lone_sq = single_class_spectrum(2 * l0, wrap_angle(2 * th0), powers=1)
    for t in (0.5, 2.0):
        whole = dirac_geometric_side(t, family, k)
        parts = dirac_geometric_side(t, lone, k) + 0.5 * dirac_geometric_side(
            t, lone_sq, k
        )
        gap = abs(whole - parts) / max(abs(whole), 1e-300)
        ledger.gap(gap, 1e-12, "multiplicity weighting at t={}", t)

    # identity term scales linearly in volume and twist dimension
    t = 0.7
    one = heat_geometric_side(t, toy_spectrum(volume=1.0), k)
    three = heat_geometric_side(t, toy_spectrum(volume=3.0), k)
    geod = one - 2.0 * identity_term_heat(k, t)
    gap = abs((three - geod) - 3.0 * (one - geod)) / max(abs(one), 1e-300)
    ledger.gap(gap, 1e-12, "volume linearity")

    # long-time decay of the first-order geodesic sum: slope -3/2
    skew = single_class_spectrum(1.0, 0.9, powers=1)
    t1, t2 = 5.0, 50.0
    v1 = abs(dirac_geometric_side(t1, skew, k))
    v2 = abs(dirac_geometric_side(t2, skew, k))
    # exp(-l^2/4t) drifts toward 1; remove it to isolate the power law
    v1 /= math.exp(-1.0 / (4.0 * t1))
    v2 /= math.exp(-1.0 / (4.0 * t2))
    slope = (math.log(v2) - math.log(v1)) / (math.log(t2) - math.log(t1))
    ledger.require(abs(slope + 1.5) <= 0.1, "long-time slope {:.3f} is not -1.5", slope)

    # the per-class normalization: t-integration against exp(-t s^2)
    # reproduces the super log-derivative weight
    for length, angle, mult, s in (
        (1.0, 0.7, 1, complex(2.0)),
        (1.7, -2.1, 2, complex(2.5, 0.4)),
        (0.8, 2.9, 1, complex(3.0, -0.2)),
    ):
        _, _, gap = class_term_t_integral(length, angle, mult, s)
        ledger.gap(gap, 1e-9, "class integral at l={}", length)
    return ledger.report()


SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in SUITE_NAMES}


def run_suite(name: str, seed: int = 0, inject_parity_violation: bool = False) -> dict:
    if name not in SUITES:
        raise WorkbenchError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    if name == "parity":
        return suite_parity(seed, inject_violation=inject_parity_violation)
    return SUITES[name](seed)


def run_all(seed: int = 0) -> list[dict]:
    return [run_suite(name, seed) for name in SUITES]
