from __future__ import annotations

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_workbench import (
    ClassColumns,
    ConvergenceRegionError,
    InvariantViolation,
    LengthSpectrum,
    SchemaError,
    ZetaRequest,
    ad_nbar_det,
    convergence_abscissa,
    log_derivative_super,
    log_derivative_symmetrized,
    log_zeta,
    parse_length_spectrum,
)
from zeta_workbench import dirac_geometric_side, heat_geometric_side
from zeta_workbench.names import ZETA_KINDS
from zeta_workbench.spectra import wrap_angle
from zeta_workbench.verify import single_class_spectrum
from conftest import TWO_LN_2, schottky_pair


def test_selberg_class_sum_against_product_oracle():
    # single primitive class: the double product over symmetric powers and
    # repetitions is log Z = sum_{kk} sum over lattice points of Sym^kk of
    # log(1 - e^{i k theta0} e^{i (a - b) theta0} e^{-(s + 1 + kk) l0})
    l0, theta0, k = 1.1, 0.8, 1.0
    s = complex(3.0)
    oracle = 0.0 + 0.0j
    for kk in range(41):
        for a in range(kk + 1):
            w = cmath.exp(1j * k * theta0) * cmath.exp(
                1j * (2 * a - kk) * theta0
            ) * cmath.exp(-(s + 1.0 + kk) * l0)
            oracle += cmath.log(1.0 - w)
    spectrum = single_class_spectrum(l0, theta0, powers=40)
    got = log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, kind="selberg"))
    assert got.value == pytest.approx(oracle, abs=1e-10)
    # frozen value of the truncated product itself
    assert oracle == pytest.approx(
        complex(-0.013218455580373012, -0.013687247392997825), abs=1e-14
    )


def test_ruelle_class_sum_against_product_oracle():
    l0, theta0, k = 1.1, 0.8, 1.0
    s = complex(3.0)
    oracle = cmath.log(1.0 - cmath.exp(1j * k * theta0) * cmath.exp(-s * l0))
    spectrum = single_class_spectrum(l0, theta0, powers=40)
    got = log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, kind="ruelle"))
    assert got.value == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(
        complex(-0.025664085573284135, -0.027149518063063403), abs=1e-14
    )


def test_symmetrized_is_sum_of_selberg_pair(toy_spectrum, sigma_k1):
    s = complex(2.5, 0.3)
    left = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="symmetrized")
    ).value
    plus = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="selberg")
    ).value
    minus = log_zeta(
        ZetaRequest(s=s, k=-1.0, spectrum=toy_spectrum, kind="selberg")
    ).value
    assert left == pytest.approx(plus + minus, abs=1e-14)


def test_super_is_difference_of_selberg_pair(toy_spectrum, sigma_k1):
    s = complex(2.5, -0.4)
    left = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="super")
    ).value
    plus = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="selberg")
    ).value
    minus = log_zeta(
        ZetaRequest(
            s=s, k=-1.0, spectrum=toy_spectrum, kind="selberg"
        )
    ).value
    assert left == pytest.approx(plus - minus, abs=1e-14)


def test_super_ruelle_matches_ruelle_pair(toy_spectrum, sigma_k1):
    s = complex(3.5)
    left = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="super_ruelle")
    ).value
    plus = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=toy_spectrum, kind="ruelle")
    ).value
    minus = log_zeta(
        ZetaRequest(
            s=s, k=-1.0, spectrum=toy_spectrum, kind="ruelle"
        )
    ).value
    assert left == pytest.approx(plus - minus, abs=1e-14)


def test_region_gate_refuses_a_nan_point(toy_spectrum, sigma_k1):
    for kind in ("selberg", "ruelle"):
        with pytest.raises(ConvergenceRegionError):
            log_zeta(ZetaRequest(s=complex(math.nan, 0.0), k=sigma_k1, spectrum=toy_spectrum,
                                 kind=kind))


def test_case_a_rejected_for_graded_kinds(toy_spectrum):
    from zeta_workbench import CaseAError

    with pytest.raises(CaseAError):
        ZetaRequest(s=3.0, k=0.0, spectrum=toy_spectrum, kind="super")
    # plain kinds accept case a
    log_zeta(ZetaRequest(s=3.0, k=0.0, spectrum=toy_spectrum, kind="selberg"))


def test_abscissas_and_region_gate(toy_spectrum, sigma_k1):
    assert convergence_abscissa("selberg", growth=2.0) == 1.0
    assert convergence_abscissa("ruelle", growth=2.0) == 2.0
    with pytest.raises(ConvergenceRegionError):
        log_zeta(
            ZetaRequest(s=0.99, k=sigma_k1, spectrum=toy_spectrum, kind="selberg")
        )
    with pytest.raises(ConvergenceRegionError):
        log_zeta(
            ZetaRequest(s=1.5, k=sigma_k1, spectrum=toy_spectrum, kind="ruelle")
        )
    # a custom growth constant moves the gate
    log_zeta(
        ZetaRequest(
            s=1.5,
            k=sigma_k1,
            spectrum=toy_spectrum,
            kind="ruelle",
            growth_constant=1.0,
        )
    )
    # the region is open: s exactly at the abscissa is refused
    for kind, s, growth in (("selberg", 1.0, None), ("ruelle", 2.0, None), ("ruelle", 1.0, 1.0)):
        request = ZetaRequest(
            s=s, k=sigma_k1, spectrum=toy_spectrum, kind=kind, growth_constant=growth
        )
        with pytest.raises(ConvergenceRegionError):
            log_zeta(request)


def test_empty_spectrum_gives_log_zero(sigma_k1):
    empty = LengthSpectrum(cutoff=1.0, classes=ClassColumns([], []))
    for kind in ("selberg", "ruelle", "symmetrized"):
        out = log_zeta(ZetaRequest(s=0.2, k=sigma_k1, spectrum=empty, kind=kind))
        assert out.value == 0.0
        assert out.tail_bound == 0.0
        assert out.terms_used == 0


def test_empty_spectrum_gives_log_derivative_zero(sigma_k1):
    empty = LengthSpectrum(cutoff=1.0, classes=ClassColumns([], []))
    for derivative in (log_derivative_super, log_derivative_symmetrized):
        out = derivative(complex(2.5, 0.3), sigma_k1, None, empty)
        assert (out.value, out.tail_bound, out.terms_used) == (0.0, 0.0, 0)


def test_tail_bound_brackets_missing_terms(sigma_k1):
    # truncating the power family early must be covered by the tail bound
    s = complex(2.2)
    full = single_class_spectrum(0.9, 0.5, powers=60)
    short = single_class_spectrum(0.9, 0.5, powers=6)
    a = log_zeta(ZetaRequest(s=s, k=sigma_k1, spectrum=full, kind="selberg"))
    b = log_zeta(ZetaRequest(s=s, k=sigma_k1, spectrum=short, kind="selberg"))
    missing = abs(a.value - b.value)
    assert missing <= b.tail_bound
    assert b.tail_bound < 0.05


def test_tail_bound_shrinks_with_cutoff(sigma_k1):
    s = complex(2.2)
    bounds = []
    for powers in (4, 8, 16):
        spec = single_class_spectrum(0.9, 0.5, powers=powers)
        bounds.append(
            log_zeta(
                ZetaRequest(s=s, k=sigma_k1, spectrum=spec, kind="selberg")
            ).tail_bound
        )
    assert bounds[0] > bounds[1] > bounds[2]


def test_chi_twist_scales_by_dimension(toy_spectrum, sigma_k1):
    # a trivial 3-dim twist multiplies every class weight by 3, but the
    # toy spectrum has no words, so build a worded variant
    from zeta_workbench import GammaRep

    worded = LengthSpectrum(
        cutoff=2.0,
        classes=ClassColumns(toy_spectrum.length, toy_spectrum.angle, words=("a", "b", "ab")),
        volume=1.0,
    )
    chi = GammaRep(dimension=3, images={"a": np.eye(3), "b": np.eye(3)})
    s = complex(3.0)
    plain = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=worded, kind="selberg")
    ).value
    twisted = log_zeta(
        ZetaRequest(s=s, k=sigma_k1, spectrum=worded, kind="selberg", chi=chi)
    ).value
    assert twisted == pytest.approx(3.0 * plain, abs=1e-14)


def test_log_derivative_matches_finite_difference(toy_spectrum, sigma_k1):
    s = complex(2.7, 0.2)
    h = 1e-5

    def sym_at(z):
        return log_zeta(
            ZetaRequest(s=z, k=sigma_k1, spectrum=toy_spectrum, kind="symmetrized")
        ).value

    def sup_at(z):
        return log_zeta(
            ZetaRequest(s=z, k=sigma_k1, spectrum=toy_spectrum, kind="super")
        ).value

    fd_sym = (sym_at(s + h) - sym_at(s - h)) / (2 * h)
    fd_sup = (sup_at(s + h) - sup_at(s - h)) / (2 * h)
    got_sym = log_derivative_symmetrized(s, sigma_k1, None, toy_spectrum).value
    got_sup = log_derivative_super(s, sigma_k1, None, toy_spectrum).value
    assert got_sym == pytest.approx(fd_sym, abs=1e-7)
    assert got_sup == pytest.approx(fd_sup, abs=1e-7)


def test_log_derivative_dirichlet_form(sigma_k1):
    # single class: the sums have one visible term per power
    l0, th0 = 1.0, 0.9
    spec = single_class_spectrum(l0, th0, powers=30)
    s = complex(2.4)
    k = 1.0
    expect_sup = 0.0j
    expect_sym = 0.0j
    for n in range(1, 31):
        ln, thn = n * l0, n * th0
        det = ad_nbar_det(ln, thn)
        pair_minus = cmath.exp(1j * k * thn) - cmath.exp(-1j * k * thn)
        pair_plus = cmath.exp(1j * k * thn) + cmath.exp(-1j * k * thn)
        expect_sup += (l0) * pair_minus * math.exp(-ln) / det * cmath.exp(-s * ln)
        expect_sym += (l0) * pair_plus * math.exp(-ln) / det * cmath.exp(-s * ln)
    got_sup = log_derivative_super(s, sigma_k1, None, spec).value
    got_sym = log_derivative_symmetrized(s, sigma_k1, None, spec).value
    assert got_sup == pytest.approx(expect_sup, abs=1e-12)
    assert got_sym == pytest.approx(expect_sym, abs=1e-12)


def test_dimension_five_selberg_unsupported():
    # the model is d = 3: a spectrum of any other dimension is refused as
    # input, before any class sum is attempted
    doc = {"dimension": 5, "cutoff": 2.0, "classes": [{"length": 1.0, "angle": 0.0}]}
    with pytest.raises(SchemaError, match="dimension must be 3"):
        parse_length_spectrum(doc)


@settings(max_examples=25, deadline=None)
@given(st.floats(2.1, 6.0), st.floats(-2.0, 2.0))
def test_log_values_conjugate_symmetry(re, im):
    # real spectra: log Z(conj s) = conj log Z(s)
    spectrum = single_class_spectrum(1.0, 0.6, powers=10)
    k = 1.0
    s = complex(re, im)
    a = log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, kind="selberg"))
    b = log_zeta(
        ZetaRequest(s=s.conjugate(), k=-1.0, spectrum=spectrum, kind="selberg")
    )
    assert b.value == pytest.approx(a.value.conjugate(), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("derivative", [log_derivative_super, log_derivative_symmetrized])
@pytest.mark.parametrize("growth", [0.0, -1.0])
def test_log_derivatives_refuse_nonpositive_growth(toy_spectrum, derivative, growth):
    with pytest.raises(InvariantViolation, match="growth_constant must be positive"):
        ZetaRequest(s=3.0, k=1.0, spectrum=toy_spectrum, growth_constant=growth)
    with pytest.raises(InvariantViolation, match="growth_constant must be positive"):
        derivative(3.0, 1.0, None, toy_spectrum, growth_constant=growth)


def test_twist_memo_never_serves_a_stale_twist():
    from zeta_workbench import GammaRep, serialize_length_spectrum

    classes = ClassColumns([1.0, 1.3, 1.7], [0.7, -2.1, 2.9], words=("a", "b", "ab"))
    spectrum = LengthSpectrum(cutoff=2.0, classes=classes)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    twist_a = GammaRep(dimension=2, images={"a": swap, "b": shear})
    twist_b = GammaRep(dimension=2, images={"a": shear, "b": swap @ shear})

    def value(spec, chi):
        return log_zeta(ZetaRequest(s=3.0, k=1.0, spectrum=spec, kind="selberg", chi=chi))

    for chi in (twist_a, twist_b, twist_a):
        fresh = parse_length_spectrum(serialize_length_spectrum(spectrum))
        assert value(spectrum, chi) == value(fresh, chi)
    assert value(spectrum, twist_a) != value(spectrum, twist_b)


def test_weight_memo_serves_only_its_own_twist_weight_and_kind():
    from zeta_workbench import GammaRep, serialize_length_spectrum
    from zeta_workbench.zeta import chi_trace, class_weights

    classes = ClassColumns([1.0, 1.3, 1.7], [0.7, -2.1, 2.9], words=("a", "b", "ab"))
    spectrum = LengthSpectrum(cutoff=2.0, classes=classes)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    twist_a = GammaRep(dimension=2, images={"a": swap, "b": shear})
    twist_b = GammaRep(dimension=2, images={"a": shear, "b": swap @ shear})

    def value(spec, chi, k, kind):
        return log_zeta(ZetaRequest(s=3.0, k=k, spectrum=spec, kind=kind, chi=chi))

    sequence = [
        (twist_a, 1.0, "selberg"),
        (twist_a, 2.0, "super"),
        (twist_b, 1.0, "selberg"),
        (twist_a, 1.0, "selberg"),
    ]
    seen = []
    for chi, k, kind in sequence:
        fresh = parse_length_spectrum(serialize_length_spectrum(spectrum))
        got = value(spectrum, chi, k, kind)
        assert got == value(fresh, chi, k, kind)
        seen.append(got.value)
    assert len(set(seen[:3])) == 3 and seen[3] == seen[0]

    # the weights and traces handed out are tuples, so no caller can change
    # a later sum through them
    before = value(spectrum, twist_a, 1.0, "selberg")
    handed = (class_weights(spectrum, twist_a, 1.0, 0, True), chi_trace(spectrum, twist_a))
    for handed_out in handed:
        assert type(handed_out) is tuple
        with pytest.raises(TypeError):
            handed_out[0] = 0.0
    assert value(spectrum, twist_a, 1.0, "selberg") == before


def test_count_model_memo_serves_only_its_own_twist_and_growth():
    from zeta_workbench import GammaRep, serialize_length_spectrum

    classes = ClassColumns([1.0, 1.3, 1.7], [0.7, -2.1, 2.9], words=("a", "b", "ab"))
    spectrum = LengthSpectrum(cutoff=2.0, classes=classes)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    twist_a = GammaRep(dimension=2, images={"a": swap, "b": shear})
    # non-unitary: |tr| reaches 3 on "a", above the dimension
    twist_b = GammaRep(dimension=2, images={"a": np.diag([2.0, 1.0]), "b": swap @ shear})

    def tail(spec, chi, growth, s=5.0):
        request = ZetaRequest(s=s, k=1.0, spectrum=spec, kind="super", chi=chi,
                              growth_constant=growth)
        return log_zeta(request).tail_bound

    sequence = [(twist_a, None), (twist_a, 3.0), (twist_b, 3.0), (None, 3.0), (twist_a, None)]
    seen = []
    for chi, growth in sequence:
        fresh = parse_length_spectrum(serialize_length_spectrum(spectrum))
        got = tail(spectrum, chi, growth)
        assert got == tail(fresh, chi, growth)
        seen.append(got)
    assert len(set(seen[:4])) == 4 and seen[4] == seen[0]

    # a grid under one twist and growth fits the model once
    model = spectrum.memo["count_model"]
    tail(spectrum, twist_a, None, s=6.0)
    assert spectrum.memo["count_model"] is model


# the kernel against an independent numpy evaluation -------------------------


@st.composite
def powered_spectra(draw):
    """Primitive classes, each with its first powers, sorted by length; a
    distinct word per class keeps equal invariants apart."""
    classes = []
    for i in range(draw(st.integers(1, 6))):
        l0 = draw(st.floats(0.1, 4.0))
        theta0 = draw(st.floats(-math.pi, math.pi))
        for p in range(1, draw(st.integers(1, 3)) + 1):
            classes.append((p * l0, wrap_angle(p * theta0), p, f"c{i}^{p}"))
    classes.sort()
    length, angle, mult, words = zip(*classes)
    columns = ClassColumns(length, angle, mult, words)
    return LengthSpectrum(cutoff=length[-1], classes=columns, volume=draw(st.floats(0.5, 3.0)))


def numpy_base_terms(spectrum, s, weight, selberg_type):
    """Per-class terms of the base sum at weight `weight`, as documented in
    zeta.py, with exp(-(s+1) l) / det for the Selberg type."""
    l, theta = np.array(spectrum.length), np.array(spectrum.angle)
    n = np.array(spectrum.multiplicity, dtype=float)
    coef = np.exp(1j * weight * theta) / n
    if selberg_type:
        det = 1.0 - 2.0 * np.exp(-l) * np.cos(theta) + np.exp(-2.0 * l)
        return coef / det * np.exp(-(s + 1.0) * l)
    return coef * np.exp(-s * l)


def numpy_log_zeta(spectrum, s, k, kind):
    """(log, sum |term|) of kind at s, by numpy."""
    selberg_type = kind in ("selberg", "symmetrized", "super")
    plus = numpy_base_terms(spectrum, s, k, selberg_type)
    if kind in ("selberg", "ruelle"):
        return -plus.sum(), np.abs(plus).sum()
    minus = numpy_base_terms(spectrum, s, -k, selberg_type)
    sign = 1.0 if kind == "symmetrized" else -1.0
    return -plus.sum() - sign * minus.sum(), np.abs(plus).sum() + np.abs(minus).sum()


@settings(max_examples=60, deadline=None)
@given(
    powered_spectra(),
    st.sampled_from(ZETA_KINDS),
    st.sampled_from((0.5, 1.0, 1.5, 2.0, -1.0)),
    st.floats(0.05, 3.0),
    st.floats(-6.0, 6.0),
)
def test_class_sums_match_a_numpy_oracle(spectrum, kind, k, margin, im):
    s = complex(convergence_abscissa(kind, 2.0) + margin, im)
    got = log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, kind=kind)).value
    want, scale = numpy_log_zeta(spectrum, s, k, kind)
    assert abs(got - want) <= 1e-13 * scale, (kind, s, got, want)


@settings(max_examples=60, deadline=None)
@given(powered_spectra(), st.sampled_from((0.5, 1.0, 1.5, 2.0, -1.0)), st.floats(0.02, 20.0))
def test_geodesic_sides_match_a_numpy_oracle(spectrum, k, t):
    l, theta = np.array(spectrum.length), np.array(spectrum.angle)
    n = np.array(spectrum.multiplicity, dtype=float)
    det = 1.0 - 2.0 * np.exp(-l) * np.cos(theta) + np.exp(-2.0 * l)
    gauss = np.exp(-l * l / (4.0 * t))
    prefactor = -2j * math.pi / (4.0 * math.pi * t) ** 1.5
    odd = prefactor * l * l * 2j * np.sin(k * theta) * gauss / (n * np.exp(l) * det)
    got = dirac_geometric_side(t, spectrum, k)
    # sin(k theta) of a tiny angle can leave the whole side subnormal, where
    # float64 rounds by a fixed step rather than relatively: the relative
    # bound is measured no finer than the smallest normal float
    scale = max(np.abs(odd).sum(), sys.float_info.min)
    assert abs(got - odd.sum()) <= 1e-13 * scale, (t, got, odd.sum())

    even = (l / n) * 2.0 * np.cos(k * theta) * np.exp(-l) / det * gauss
    even = even / math.sqrt(4.0 * math.pi * t)
    # the Gaussian moments of the density (k^2 + lam^2) / (4 pi^2)
    identity = (
        2.0 * spectrum.volume
        * (k * k * math.sqrt(math.pi) * t**-0.5 + 0.5 * math.sqrt(math.pi) * t**-1.5)
        / (4.0 * math.pi**2)
    )
    got = heat_geometric_side(t, spectrum, k)
    scale = identity + np.abs(even).sum()
    assert abs(got - (identity + even.sum())) <= 1e-13 * scale, (t, got)


# a long class's term underflows; it never makes a NaN ------------------------


def long_class_spectrum() -> LengthSpectrum:
    """A short class and one at length 1500, where exp(-rho l) underflows
    to 0 and exp(-s l) overflows for Re s < 0."""
    return LengthSpectrum(cutoff=1500.0, classes=ClassColumns([1.0, 1500.0], [0.3, 0.3]))


def test_a_long_class_leaves_the_short_class_closed_form():
    spectrum = long_class_spectrum()
    s, k, theta = complex(-0.5, 0.0), 1.0, 0.3
    damping = cmath.exp(-(s + 1.0) * 1.0) / ad_nbar_det(1.0, theta)
    got = log_zeta(ZetaRequest(s=s, k=k, spectrum=spectrum, growth_constant=0.1))
    want = -cmath.exp(1j * k * theta) * damping
    assert abs(got.value - want) <= 1e-15 * abs(want)
    assert math.isfinite(got.tail_bound)
    for derivative, pair in ((log_derivative_super, -1), (log_derivative_symmetrized, +1)):
        got = derivative(s, k, None, spectrum, growth_constant=0.1)
        want = (cmath.exp(1j * k * theta) + pair * cmath.exp(-1j * k * theta)) * damping
        assert abs(got.value - want) <= 1e-15 * abs(want), derivative.__name__


def test_a_class_whose_determinant_rounds_to_zero_is_refused(sigma_k1):
    # exp(-1e-17) is 1.0, so det(Id - Ad|nbar) = 1 - 2 + 1 = 0 at angle 0
    spectrum = LengthSpectrum(cutoff=1.0, classes=ClassColumns([1e-17, 0.5], [0.0, 0.3]))
    for kind in ("selberg", "symmetrized", "super"):
        with pytest.raises(InvariantViolation, match="class 0 .* det"):
            log_zeta(ZetaRequest(s=3.0, k=sigma_k1, spectrum=spectrum, kind=kind))
    with pytest.raises(InvariantViolation, match="class 0 .* det"):
        dirac_geometric_side(1.0, spectrum, sigma_k1)
    # the plain geodesic sums have no determinant
    assert math.isfinite(abs(log_zeta(ZetaRequest(s=3.0, k=1.0, spectrum=spectrum, kind="ruelle")).value))


# a non-unitary twist gates on its own growth ---------------------------------


def worded_family(l0: float, theta0: float, powers: int) -> LengthSpectrum:
    """single_class_spectrum's classes a^n, each with its word."""
    family = single_class_spectrum(l0, theta0, powers)
    words = tuple("a" * n for n in family.multiplicity)
    columns = ClassColumns(family.length, family.angle, family.multiplicity, words)
    return LengthSpectrum(cutoff=family.cutoff, classes=columns)


def elementary_log_selberg(l0, theta0, c, s, k, terms=60):
    """log Z(s; k) of the group generated by one class (l0, theta0), with a
    one-dimensional twist c: the product over the symmetric powers,
    sum_{a,b} log(1 - c exp(i(k+a-b) theta0) exp(-(s+1+a+b) l0))."""
    return sum(
        cmath.log(1.0 - c * cmath.exp(1j * (k + a - b) * theta0 - (s + 1.0 + a + b) * l0))
        for a in range(terms)
        for b in range(terms)
    )


def test_a_non_unitary_twist_moves_the_gate_by_its_growth():
    # chi(a) = e^3 on the classes a^j, l = 1.3 j: |tr chi| = exp(b l) with
    # b = 3/1.3, so the Selberg gate moves from 1 to 1 + 3/1.3.  Without b
    # the gate accepted s = 1.1 and 1.25, with tail bounds 5.8e6 and 4.8e5
    from zeta_workbench import GammaRep

    spectrum = worded_family(1.3, 0.7, 8)
    chi = GammaRep(dimension=1, images={"a": [[math.exp(3.0)]]})
    refusals = [
        lambda s: log_zeta(ZetaRequest(s=s, k=1.0, spectrum=spectrum, kind="selberg", chi=chi)),
        lambda s: log_derivative_super(s, 1.0, chi, spectrum),
        lambda s: log_derivative_symmetrized(s, 1.0, chi, spectrum),
    ]
    for evaluate in refusals:
        for s in (1.1, 1.25, 3.3):
            with pytest.raises(ConvergenceRegionError) as refused:
                evaluate(s)
            assert refused.value.abscissa == pytest.approx(1.0 + 3.0 / 1.3, rel=1e-14)
    # above the gate, the class sum meets the group's product within its tail
    for s in (3.35, 4.0, complex(3.4, 2.0)):
        got = log_zeta(ZetaRequest(s=s, k=1.0, spectrum=spectrum, kind="selberg", chi=chi))
        exact = elementary_log_selberg(1.3, 0.7, math.exp(3.0), s, 1.0)
        assert abs(got.value - exact) <= got.tail_bound


def test_a_twisted_tail_bound_covers_the_missing_powers():
    # chi(a) = e^3 on a^j, l = 0.9 j: the traces grow like exp(3 l / 0.9),
    # which the tail must count beyond the cutoff
    from zeta_workbench import GammaRep

    chi = GammaRep(dimension=1, images={"a": [[math.exp(3.0)]]})
    s = 1.0 + 3.0 / 0.9 + 0.3
    full, short = (
        log_zeta(ZetaRequest(s=s, k=1.0, spectrum=worded_family(0.9, 0.7, powers), chi=chi))
        for powers in (80, 6)
    )
    missing = abs(full.value - short.value)
    assert 1e-8 < missing <= short.tail_bound


def test_a_unitary_twist_leaves_the_gate_at_the_model_abscissa():
    from zeta_workbench import EnumerationConfig, GammaRep, enumerate_spectrum

    spectrum = enumerate_spectrum(
        schottky_pair(), EnumerationConfig(max_word_length=6, length_cutoff=30.0)
    )
    rng = np.random.default_rng(5)
    images = {}
    for name in "ab":
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        images[name] = q * (np.diag(r) / np.abs(np.diag(r)))
    chi = GammaRep(dimension=3, images=images)
    for kind in ("selberg", "ruelle"):
        with pytest.raises(ConvergenceRegionError) as refused:
            log_zeta(ZetaRequest(s=0.5, k=1.0, spectrum=spectrum, kind=kind, chi=chi))
        b = refused.value.abscissa - convergence_abscissa(kind, 2.0)
        assert 0.0 <= b <= 1e-12
