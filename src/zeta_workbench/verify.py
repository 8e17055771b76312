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
Mersenne Twister.  numpy's generators would load numpy.random, which
imports secrets and hashlib and so maps OpenSSL's libcrypto: 5.5 MB of
peak resident memory for a report call (CPython 3.11, numpy 2.4, Linux).
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

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

    def gap(self, value: float, tol: float, label: str) -> None:
        self.gaps([value], tol, lambda i: label)

    def gaps(self, values, tol: float, label) -> None:
        """One case per value, in order; label(i) names case i, and is
        formatted only for a case that fails."""
        values = np.asarray(values, dtype=float)
        self.cases += values.size
        self.max_gap = float(np.fmax.reduce(values, initial=self.max_gap))  # NaN is no maximum
        for i in np.flatnonzero(~(values <= tol)).tolist():  # a NaN gap fails too
            value = float(values[i])
            self._fail(value / tol if value > tol else math.inf, label(i))

    def require(self, ok: bool, label: str) -> None:
        self.cases += 1
        if not ok:
            self._fail(math.inf, label)

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


# suites --------------------------------------------------------------------


def suite_kernels(seed: int = 0) -> dict:
    """Both analytic kernel identities on a 10x10 log-spaced grid, one
    batched check per identity."""
    grid = np.logspace(-1.0, 1.0, 10)
    ledger = _Ledger("kernels", seed)
    lengths, pars = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    _, _, laplace_gaps = laplace_kernel_check(lengths, pars.astype(complex))
    _, _, fourier_gaps = fourier_gaussian_check(lengths, pars)
    # case 2i is the laplace identity at grid point i, case 2i + 1 the fourier one
    def label(i: int) -> str:
        kernel, (l, x) = ("laplace", "fourier")[i % 2], (lengths[i // 2], pars[i // 2])
        return f"{kernel} kernel at l={l:g}, par={x:g}"

    ledger.gaps(np.stack([laplace_gaps, fourier_gaps], 1).ravel(), 1e-10, label)
    return ledger.report()


def suite_partial_fractions(seed: int = 0) -> dict:
    """Resolvent-product identity plus the full-grid spectral reductions."""
    rng = random.Random(seed)
    ledger = _Ledger("partial-fractions", seed)

    # every trial is drawn first, in the order of one trial at a time, and
    # then all are checked in one array pass: row t holds trial t's 20
    # points, and its missing shifts are padded with weight 0 and a
    # denominator of 1, which leave its products and sums as they are
    most = 6
    sizes, squares, weights, points = [], [], [], []
    for _ in range(100):
        n = rng.randrange(1, most + 1)
        shifts = []
        while len(shifts) < n:
            cand = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
            # keep the squared shifts separated so the weights stay O(1);
            # nearly-coincident grids are ill-conditioned by nature and the
            # exactly degenerate case is rejected as DegenerateShifts
            if all(abs(cand * cand - s * s) > 0.25 for s in shifts):
                shifts.append(cand)
        sizes.append(n)
        squares.append([s * s for s in shifts] + [0j] * (most - n))
        weights.append(partial_fraction_weights(tuple(shifts)) + [0j] * (most - n))
        # re then im, one point after another
        points.append([complex(rng.uniform(-0.4, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(20)])
    x, sq, w = np.array(points), np.array(squares), np.array(weights)
    valid = np.arange(most) < np.array(sizes)[:, None]
    keep = np.ones(x.shape, dtype=bool)  # points within 1e-2 of a pole are skipped
    product = np.ones(x.shape, dtype=complex)
    sum_form = np.zeros(x.shape, dtype=complex)
    for j in range(most):
        denominator = np.where(valid[:, j, None], x + sq[:, j, None], 1.0)
        keep &= ~valid[:, j, None] | (np.abs(denominator) >= 1e-2)
        product = product / denominator
        sum_form = sum_form + w[:, j, None] / denominator
    rel = np.abs(product - sum_form) / np.maximum(np.abs(product), 1e-300)
    trial, kept = np.nonzero(keep)[0], x[keep]
    ledger.gaps(
        rel[keep], 1e-10, lambda i: f"grid {trial[i]}: N={sizes[trial[i]]}, x={complex(kept[i])}"
    )

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

        points = np.array(shifts)
        lhs = np.dot(weights, -0.5j * continued_super_logderiv(points, dirac))
        terms = [
            w * m * ev / (ev * ev + s * s)
            for ev, m in dirac.entries
            for w, s in zip(weights, shifts)
        ]
        rhs = sum(terms)
        # +lam/-lam eigenvalue pairs cancel exactly, so normalize by the
        # mass of the summed terms rather than by the (possibly zero) total
        scale = max(sum(abs(t) for t in terms), 1e-12)
        ledger.gap(abs(lhs - rhs) / scale, 1e-10, f"first-order reduction, trial {trial}")

        vol = 1.0
        lhs2 = np.dot(weights, continued_sym_logderiv(points, laplace, k, 1, vol))
        terms2 = [
            w * 2.0 * s * m / (mu + s * s)
            for mu, m in laplace.entries
            for w, s in zip(weights, shifts)
        ] + [
            -w * 4.0 * math.pi * vol * poly.at_s(s) for w, s in zip(weights, shifts)
        ]
        rhs2 = sum(terms2)
        scale2 = max(sum(abs(t) for t in terms2), 1e-12)
        ledger.gap(abs(lhs2 - rhs2) / scale2, 1e-10, f"second-order reduction, trial {trial}")
    return ledger.report()


def suite_residues(seed: int = 0) -> dict:
    """Contour residues equal multiplicities, for both continued sums; one
    batched residue_at call per continued sum and trial."""
    rng = random.Random(seed)
    k = 1.0
    ledger = _Ledger("residues", seed)

    for trial in range(25):
        dirac = random_dirac_spectrum(rng)
        ev = np.array(dirac.values)

        def l_super(z):
            return continued_super_logderiv(z, dirac)

        got = residue_at(l_super, np.concatenate([1j * ev, -1j * ev]), 0.1)
        want = np.array([super_multiplicity(dirac, e) for e in dirac.values])
        # case 2i is the residue at i ev_i, case 2i + 1 the one at -i ev_i
        gaps = np.stack(np.split(np.abs(got - np.concatenate([want, -want])), 2), 1).ravel()

        def label(i: int) -> str:
            at = ("", " at -i ev")[i % 2]
            return f"first order{at}, trial {trial}, ev={complex(ev[i // 2])}"

        ledger.gaps(gaps, 1e-8, label)

        laplace = square_spectrum(dirac)

        def l_sym(z):
            return continued_sym_logderiv(z, laplace, k, 1, 1.0)

        roots = [1j * cmath.sqrt(mu) for mu in laplace.values]
        ledger.gaps(
            np.abs(residue_at(l_sym, np.array(roots), 0.05) - laplace.multiplicity),
            1e-8,
            lambda i: f"second order, trial {trial}, mu={laplace.values[i]}",
        )

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
            ledger.gap(abs(got - want), 1e-6, f"{kind} derivative at s={s}")

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
                label = f"{kind} product oracle at l0={l0}, s={s_real}"
                ledger.gap(abs(got - oracle), 1e-10, label)
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
                ledger.gap(gap, 1e-9, f"k={k}, s={s}")
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
                f"antisymmetry broken at {ev}",
            )
        catalog = singularity_catalog(dirac)
        laplace = square_spectrum(dirac)

        def l_plain(z):
            return 0.5 * (
                continued_sym_logderiv(z, laplace, k, 1, 1.0)
                + continued_super_logderiv(z, dirac)
            )

        plain = [record for record in catalog if record.zeta_kind == "selberg"]
        got = residue_at(l_plain, np.array([record.location for record in plain]), 0.05)
        ledger.gaps(
            np.abs(got - np.array([record.order for record in plain])),
            1e-8,
            lambda i: f"order mismatch at {plain[i].location}",
        )

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
        ledger.gap(abs(identity_term_dirac(k, t)), 1e-12, f"identity term at t={t}")

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
        ledger.require(value > 1e-3, f"odd perturbation invisible at t={t} (value {value:g})")

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
        ledger.gap(gap, 1e-12, f"multiplicity weighting at t={t}")

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
    ledger.require(abs(slope + 1.5) <= 0.1, f"long-time slope {slope:.3f} is not -1.5")

    # the per-class normalization: t-integration against exp(-t s^2)
    # reproduces the super log-derivative weight
    for length, angle, mult, s in (
        (1.0, 0.7, 1, complex(2.0)),
        (1.7, -2.1, 2, complex(2.5, 0.4)),
        (0.8, 2.9, 1, complex(3.0, -0.2)),
    ):
        _, _, gap = class_term_t_integral(length, angle, mult, s)
        ledger.gap(gap, 1e-9, f"class integral at l={length}")
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
