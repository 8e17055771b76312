from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_workbench import (
    DiracSpectrum,
    InvariantViolation,
    LaplaceSpectrum,
    MissingVolume,
    QuadratureFailure,
    ad_nbar_det,
    class_term_t_integral,
    dirac_geometric_side,
    dirac_spectral_side,
    fourier_gaussian_check,
    heat_geometric_side,
    heat_spectral_side,
    identity_term_dirac,
    identity_term_heat,
    laplace_kernel_check,
    plancherel,
)
from zeta_workbench.quadrature import integrate
from zeta_workbench.traces import dee_gamma, gaussian_moment
from zeta_workbench.verify import single_class_spectrum


def test_dee_gamma_is_exponential_times_det():
    l, th = 1.2, 0.9
    assert dee_gamma(l, th) == pytest.approx(math.exp(l) * ad_nbar_det(l, th))


def test_laplace_kernel_identity_samples():
    for l in (0.3, 1.0, 4.0):
        for s in (complex(0.5), complex(2.0, 0.7), complex(1.0, -0.9)):
            lhs, rhs, gap = laplace_kernel_check(l, s)
            assert gap <= 1e-12, (l, s, gap)
            assert rhs == pytest.approx(cmath.exp(-l * s) / (4 * math.pi * l))


def test_laplace_kernel_rejects_bad_arguments():
    with pytest.raises(InvariantViolation):
        laplace_kernel_check(1.0, complex(-2.0))
    with pytest.raises(QuadratureFailure):
        # Re(s^2) < 0: not absolutely convergent
        laplace_kernel_check(1.0, complex(0.3, 2.0))


def test_fourier_gaussian_identity_samples():
    for l in (0.4, 1.5):
        for t in (0.2, 1.0, 6.0):
            lhs, rhs, gap = fourier_gaussian_check(l, t)
            assert gap <= 1e-12, (l, t, gap)


def test_gaussian_moment_matches_gamma():
    # mpmath at 40 digits is the oracle: Gamma(m + 1/2) / t^(m + 1/2)
    with mpmath.workdps(40):
        for t in (0.05, 0.5, 1.0, 2.0, 7.5):
            for m in range(9):
                half = mpmath.mpf(m) + mpmath.mpf(1) / 2
                expected = mpmath.gamma(half) / mpmath.mpf(t) ** half
                assert abs(gaussian_moment(t, m) - expected) <= 1e-15 * expected, (t, m)


def test_identity_term_heat_closed_form():
    k = 2.0
    t = 0.8
    # density (lam^2 + 4) / (4 pi^2): integral of e^{-t lam^2} P d lam
    expected = (gaussian_moment(t, 1) + 4.0 * gaussian_moment(t, 0)) / (
        4.0 * math.pi**2
    )
    assert identity_term_heat(k, t) == pytest.approx(expected, rel=1e-12)


def test_identity_term_dirac_cancels_and_detects():
    k = 1.0
    for t in (0.1, 1.0, 10.0):
        assert abs(identity_term_dirac(k, t)) <= 1e-12
    # an odd perturbation of one density breaks the cancellation
    base = plancherel(k).coefficients
    bumped = (base[0], 0.05, base[2])
    val = identity_term_dirac(
        k, 1.0, plus_coefficients=bumped, minus_coefficients=base
    )
    assert abs(val) > 1e-3


def test_dirac_geometric_side_manual_sum(sigma_k1):
    spec = single_class_spectrum(1.1, 0.6, powers=3)
    t = 0.8
    expected = 0.0j
    for n in range(1, 4):
        l, th = n * 1.1, n * 0.6
        pair = cmath.exp(1j * th) - cmath.exp(-1j * th)
        dee = dee_gamma(l, ((th + math.pi) % (2 * math.pi)) - math.pi)
        expected += (
            (-2j * math.pi)
            / (4.0 * math.pi * t) ** 1.5
            * l
            * 1.1
            * pair
            * math.exp(-(l**2) / (4.0 * t))
            / dee
        )
    got = dirac_geometric_side(t, spec, sigma_k1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_dirac_geometric_side_vanishes_on_real_axis(sigma_k1):
    spec = single_class_spectrum(1.0, 0.0, powers=4)
    assert abs(dirac_geometric_side(1.0, spec, sigma_k1)) == 0.0


def test_heat_geometric_side_needs_volume(sigma_k1):
    spec = single_class_spectrum(1.0, 0.4, powers=2)  # no volume recorded
    with pytest.raises(MissingVolume):
        heat_geometric_side(1.0, spec, sigma_k1)


def test_heat_geometric_side_manual_sum(sigma_k1):
    spec = single_class_spectrum(1.0, 0.4, powers=2, volume=2.0)
    t = 0.6
    identity = 2.0 * 1 * 2.0 * identity_term_heat(sigma_k1, t)
    geod = 0.0j
    for n in (1, 2):
        l, th = n * 1.0, n * 0.4
        pair = cmath.exp(1j * th) + cmath.exp(-1j * th)
        det = ad_nbar_det(l, th)
        lsym = pair * math.exp(-l) / det
        geod += (1.0) * lsym * math.exp(-(l**2) / (4 * t)) / math.sqrt(
            4 * math.pi * t
        )
    got = heat_geometric_side(t, spec, sigma_k1)
    assert got == pytest.approx(identity + geod, rel=1e-12)


def test_spectral_sides_are_weighted_sums():
    dirac = DiracSpectrum(entries=((1.0, 2), (-2.0, 1)))
    t = 0.7
    expected = 2 * 1.0 * math.exp(-t) + 1 * (-2.0) * math.exp(-t * 4.0)
    assert dirac_spectral_side(t, dirac) == pytest.approx(expected, rel=1e-14)

    lap = LaplaceSpectrum(entries=((0.5, 3), (2.0, 1)))
    expected2 = 3 * math.exp(-t * 0.5) + 1 * math.exp(-t * 2.0)
    assert heat_spectral_side(t, lap) == pytest.approx(expected2, rel=1e-14)


def fsum_complex(terms) -> complex:
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


@pytest.mark.parametrize("t", [0.05, 0.7, 4.0])
def test_spectral_sides_are_the_per_entry_sums(t):
    # complex eigenvalues, some of them paired with their negatives; the
    # oracle sums each entry's term exactly
    rng = np.random.default_rng(7)
    values = rng.uniform(-2.5, 2.5, 40) + 1j * rng.uniform(-0.4, 0.4, 40)
    values[::5] = -values[1::5]
    mult = rng.integers(1, 5, 40).tolist()
    dirac = DiracSpectrum(zip(values.tolist(), mult))
    laplace = LaplaceSpectrum(zip((values * values).tolist(), mult))
    for side, spectrum, term in (
        (dirac_spectral_side, dirac, lambda ev, m: m * ev * cmath.exp(-t * ev * ev)),
        (heat_spectral_side, laplace, lambda mu, m: m * cmath.exp(-t * mu)),
    ):
        terms = [term(ev, m) for ev, m in spectrum.entries]
        scale = math.fsum(abs(z) for z in terms)
        assert abs(side(t, spectrum) - fsum_complex(terms)) <= 1e-14 * scale, side.__name__


def test_class_term_t_integral_consistency():
    for l, th, n, s in (
        (1.0, 0.7, 1, complex(2.0)),
        (0.6, -1.2, 2, complex(1.5, 0.3)),
        (2.0, 2.9, 1, complex(3.0, -0.5)),
    ):
        lhs, rhs, gap = class_term_t_integral(l, th, n, s)
        assert gap <= 1e-9, (l, th, n, s, gap)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.2, 5.0))
def test_kernel_identity_property(l, t):
    _, _, gap = fourier_gaussian_check(l, t)
    assert gap <= 1e-10


# independent oracles: mpmath quadrature at 30 digits -------------------------


def mp_heat_integral(c0, length, s):
    """integral_0^inf c0 t^{-3/2} exp(-l^2/4t - t s^2) dt along the real
    t axis, split at every period of exp(-i t Im(s^2))."""
    with mpmath.workdps(30):
        s2 = mpmath.mpc(s) ** 2
        l2 = mpmath.mpf(length) ** 2
        period = 2 * mpmath.pi / max(abs(s2.imag), 1)
        edges = [period * k for k in range(int(70 / s2.real / period) + 2)]
        value = mpmath.quad(
            lambda t: c0 * t**-1.5 * mpmath.exp(-l2 / (4 * t) - t * s2),
            edges + [mpmath.inf],
        )
        return complex(value)


def test_laplace_kernel_lhs_matches_mpmath():
    # s = 1 + 0.9i puts s^2 = 0.19 + 1.8i close to the imaginary axis
    for l, s in ((1.0, complex(1.0, 0.9)), (0.3, complex(0.5)), (4.0, complex(2.0, 0.7))):
        lhs, _, _ = laplace_kernel_check(l, s)
        assert abs(lhs - mp_heat_integral((4 * math.pi) ** -1.5, l, s)) <= 1e-12, (l, s)


def test_fourier_gaussian_lhs_matches_mpmath():
    for l, t in ((10.0, 0.1), (1.5, 1.0), (0.4, 6.0)):
        lhs, _, _ = fourier_gaussian_check(l, t)
        with mpmath.workdps(30):
            reach = mpmath.sqrt(80 / mpmath.mpf(t))
            period = 2 * mpmath.pi / l
            n = int(reach / period) + 1
            edges = [-mpmath.inf] + [period * k for k in range(-n, n + 1)] + [mpmath.inf]
            full = mpmath.quad(
                lambda lam: lam * mpmath.exp(-t * lam**2 - 1j * l * lam), edges
            )
            want = complex(full / (2 * mpmath.pi))
        assert abs(lhs - want) <= 1e-12, (l, t)


def test_class_term_t_integral_lhs_matches_mpmath():
    for l, th, n, s in (
        (1.0, 0.7, 1, complex(2.0)),
        (0.6, -1.2, 2, complex(1.5, 0.3)),
        (2.0, 2.9, 1, complex(1.0, 0.9)),
    ):
        lhs, _, _ = class_term_t_integral(l, th, n, s)
        c0 = -2j * math.pi * (4 * math.pi) ** -1.5 * l**2 / (n * dee_gamma(l, th))
        assert abs(lhs - mp_heat_integral(c0, l, s)) <= 1e-12, (l, th, n, s)


def test_identity_term_dirac_matches_mpmath():
    base = plancherel(1.0).coefficients
    plus = (0.3, 0.05, 1.0, -0.02)
    for t in (0.1, 1.0, 10.0):
        got = identity_term_dirac(1.0, t, plus_coefficients=plus, minus_coefficients=base)
        with mpmath.workdps(30):
            def density(lam):
                return mpmath.polyval(plus[::-1], lam) - mpmath.polyval(base[::-1], lam)

            want = mpmath.quad(
                lambda lam: lam * mpmath.exp(-t * lam**2) * density(lam),
                [-mpmath.inf, 0, mpmath.inf],
            )
        assert abs(got - complex(want)) <= 1e-12, t


# the quadrature rule ---------------------------------------------------------


def test_integrate_refuses_a_divergent_integral():
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_integrate_resolves_a_narrow_peak_on_a_breakpoint():
    width = 1e-3

    def peak(x):
        return np.exp(-0.5 * ((x - 0.3) / width) ** 2) / (width * math.sqrt(2 * math.pi))

    assert abs(integrate(peak, 0.0, 1.0, breaks=(0.3,)) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 4.0)),
        min_size=1,
        max_size=8,
    )
)
def test_batched_integrate_is_the_integrals_one_by_one(cases):
    a, b, width = (np.array(column) for column in zip(*cases))

    def f(x, which):
        w = width[which][:, None]
        return np.exp(-((x - 0.5) / w) ** 2) * (1.0 + 1j * np.sin(x / w))

    got = integrate(f, a, b, breaks=(0.5, -1.0))
    for i in range(len(cases)):
        alone = integrate(lambda x: f(x, np.full(len(x), i)), a[i], b[i], breaks=(0.5, -1.0))
        assert type(alone) is complex
        assert got[i : i + 1].view(np.uint64).tolist() == np.array([alone]).view(np.uint64).tolist()


def test_each_integral_of_a_batch_has_its_own_budget_and_message():
    def f(x, which):
        # integral 1 diverges at 0; integral 0 is smooth
        return np.where(which[:, None] == 1, 1.0 / np.where(x == 0, 1e-300, x), np.cos(x))

    with pytest.raises(QuadratureFailure, match=r"panels of \[0, 1\] still miss"):
        integrate(f, np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    smooth = integrate(f, np.array([0.0, 0.5]), np.array([2.0, 1.0]))
    assert smooth == pytest.approx([math.sin(2.0), math.log(2.0)], abs=1e-13)


def test_kernel_checks_take_arrays():
    lengths = np.array([0.3, 1.0, 4.0])
    s = np.array([complex(0.5), complex(2.0, 0.7), complex(1.0, -0.9)])
    lhs, rhs, gap = laplace_kernel_check(lengths, s)
    assert lhs.shape == rhs.shape == gap.shape == (3,)
    for i in range(3):
        one = laplace_kernel_check(lengths[i], s[i])
        assert lhs[i] == one[0] and gap[i] <= 1e-12
    lhs, _, gap = fourier_gaussian_check(lengths[:, None], np.array([0.2, 6.0]))
    assert lhs.shape == (3, 2) and np.all(gap <= 1e-12)
    assert lhs[2, 1] == fourier_gaussian_check(4.0, 6.0)[0]
