from __future__ import annotations

import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeta_workbench import (
    AtSingularity,
    DegenerateShifts,
    DiracSpectrum,
    LaplaceSpectrum,
    ParityViolation,
    PathThroughSingularity,
    QuadratureFailure,
    continued_super_logderiv,
    continued_sym_logderiv,
    log_zeta_by_path,
    partial_fraction_weights,
    residue_at,
    ruelle_factorization_check,
    singularity_catalog,
    square_spectrum,
    super_tail_log,
    super_winding,
)
from zeta_workbench.continuation import _near
from zeta_workbench.errors import InvariantViolation, NoConvergence
from zeta_workbench.spectra import SingularityRecord
from zeta_workbench.verify import random_dirac_spectrum, single_class_spectrum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# partial fractions -----------------------------------------------------------


def test_partial_fraction_weights_hand_values():
    w = partial_fraction_weights((1.0, 2.0))
    assert w[0] == pytest.approx(1.0 / 3.0)
    assert w[1] == pytest.approx(-1.0 / 3.0)
    w3 = partial_fraction_weights((1.0, 2.0, 3.0))
    assert w3[0] == pytest.approx(1.0 / 24.0)
    assert w3[1] == pytest.approx(-1.0 / 15.0)
    assert w3[2] == pytest.approx(1.0 / 40.0)


def test_partial_fraction_identity_n4():
    shifts = (1.0, 2.0, complex(1.5, 0.5), 3.0)
    weights = partial_fraction_weights(shifts)
    x = complex(0.7, 0.3)
    product = 1.0 + 0.0j
    for s in shifts:
        product /= x + s * s
    series = sum(w / (x + s * s) for w, s in zip(weights, shifts))
    assert series == pytest.approx(product, rel=1e-13)


def test_degenerate_shifts_rejected():
    with pytest.raises(DegenerateShifts):
        partial_fraction_weights((1.0, 1.0))
    with pytest.raises(DegenerateShifts):
        # opposite signs square to the same value
        partial_fraction_weights((2.0, -2.0))


# continued log-derivatives ---------------------------------------------------


def test_continued_super_logderiv_hand_value(dirac_pm):
    # m_s(1) = 1: L^s(s) = 2i / (1 + s^2); at s = 2 this is 0.4i
    val = continued_super_logderiv(2.0, dirac_pm)
    assert val == pytest.approx(0.4j, abs=1e-14)


def test_continued_super_logderiv_refuses_poles(dirac_pm):
    with pytest.raises(AtSingularity):
        continued_super_logderiv(1j, dirac_pm)


def test_continued_logderivs_take_arrays():
    rng = np.random.default_rng(5)
    dirac = random_dirac_spectrum(rng)
    laplace = square_spectrum(dirac)
    points = rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    for f in (
        lambda z: continued_super_logderiv(z, dirac),
        lambda z: continued_sym_logderiv(z, laplace, 1.0, 1, volume=1.0),
    ):
        values = f(points)
        assert values.shape == points.shape
        scalars = np.array([f(complex(z)) for z in points])
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)


def test_array_with_a_point_on_a_pole_is_refused(dirac_pm):
    points = np.array([2.0, 0.5 + 0.5j, 1j, 3.0])
    with pytest.raises(AtSingularity) as caught:
        continued_super_logderiv(points, dirac_pm)
    assert caught.value.location == 1j
    lap = square_spectrum(dirac_pm)
    with pytest.raises(AtSingularity):
        continued_sym_logderiv(points, lap, 1.0, 1, volume=1.0)


def test_continued_sym_logderiv_hand_value():
    lap = LaplaceSpectrum(entries=((1.0, 3),))
    k = 1.0
    got = continued_sym_logderiv(2.0, lap, k, 1, volume=1.0)
    # 2 s m / (mu + s^2) - 4 pi Vol (k^2 - s^2)/(4 pi^2)
    expected = 2.0 * 2.0 * 3 / 5.0 - (1.0 - 4.0) / math.pi
    assert got == pytest.approx(expected, rel=1e-14)


def test_continued_sym_density_term_scales_with_the_twist_dimension():
    lap = LaplaceSpectrum(entries=((1.0, 3),))
    points = np.array([2.0, 0.5 + 1.5j])
    rational = continued_sym_logderiv(points, lap, 1.0, 1, volume=0.0)
    one, two = (continued_sym_logderiv(points, lap, 1.0, d, volume=1.0) - rational
                for d in (1, 2))
    assert np.all(one != 0)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-14)


# contour residues ------------------------------------------------------------


def test_residue_at_known_function():
    z0 = complex(0.3, -0.2)

    def f(z):
        return 5.0 / (z - z0) + np.cos(z)

    got = residue_at(f, z0, 0.4)
    assert got == pytest.approx(5.0, abs=1e-11)


def test_residue_of_analytic_function_is_zero():
    got = residue_at(np.exp, 0.1 + 0.2j, 0.5)
    assert abs(got) <= 1e-12


def test_residue_at_calls_its_integrand_once_per_node_count():
    calls = []

    def counted(g):
        def f(z):
            calls.append(np.shape(z))
            return g(z)

        return f

    assert residue_at(counted(lambda z: 1.0 / (z - 0.3)), 0.3, 0.2) == pytest.approx(1.0, abs=1e-12)
    assert calls == [(16,), (32,)]

    # a step on the circle at angles +-1: the trapezoid values never
    # settle, so the rule runs through every node count and refuses
    calls.clear()
    step = 0.3 + 0.2 * math.cos(1.0)
    with pytest.raises(NoConvergence):
        residue_at(counted(lambda z: np.where(z.real > step, 1.0, 0.0)), 0.3, 0.2)
    assert len(calls) == math.ceil(math.log2((1 << 17) / 16)) + 1
    assert calls == [(16 << i,) for i in range(len(calls))]


def test_residues_recover_multiplicities(dirac_pm):
    # at +i: m_s(1) = 2 - 1 = 1; at -i: -1
    got_plus = residue_at(lambda z: continued_super_logderiv(z, dirac_pm), 1j, 0.2)
    got_minus = residue_at(lambda z: continued_super_logderiv(z, dirac_pm), -1j, 0.2)
    assert got_plus == pytest.approx(1.0, abs=1e-10)
    assert got_minus == pytest.approx(-1.0, abs=1e-10)

    lap = square_spectrum(dirac_pm)
    k = 1.0

    def l_sym(z):
        return continued_sym_logderiv(z, lap, k, 1, volume=1.0)

    got = residue_at(l_sym, 1j, 0.2)
    assert got == pytest.approx(3.0, abs=1e-10)


def test_zero_mode_residue_doubles():
    dirac = DiracSpectrum(entries=((0.0, 2), (1.0, 1)))
    lap = square_spectrum(dirac)
    k = 1.0
    got = residue_at(
        lambda z: continued_sym_logderiv(z, lap, k, 1, volume=0.0), 0.0, 0.3
    )
    assert got == pytest.approx(4.0, abs=1e-10)


# singularity catalog ---------------------------------------------------------


def test_catalog_worked_example(dirac_pm):
    records = singularity_catalog(dirac_pm)
    table = {(r.zeta_kind, complex(r.location)): r.order for r in records}
    assert table == {
        ("super", 1j): 1,
        ("super", -1j): -1,
        ("symmetrized", 1j): 3,
        ("symmetrized", -1j): 3,
        ("selberg", 1j): 2,
        ("selberg", -1j): 1,
    }


def test_catalog_zero_mode():
    dirac = DiracSpectrum(entries=((0.0, 2), (1.0, 1)))
    records = singularity_catalog(dirac)
    table = {(r.zeta_kind, complex(r.location)): r.order for r in records}
    assert table == {
        ("selberg", 0j): 2,
        ("selberg", 1j): 1,
        ("symmetrized", 0j): 4,
        ("symmetrized", 1j): 1,
        ("symmetrized", -1j): 1,
        ("super", 1j): 1,
        ("super", -1j): -1,
    }


def test_catalog_rejects_parity_violation():
    dirac = DiracSpectrum(entries=((1.0, 1),))
    laplace = LaplaceSpectrum(entries=((1.0, 2),))
    with pytest.raises(ParityViolation):
        singularity_catalog(dirac, laplace)


def test_catalog_accepts_consistent_override():
    dirac = DiracSpectrum(entries=((1.0, 1),))
    laplace = LaplaceSpectrum(entries=((1.0, 3),))  # same parity as 1
    records = singularity_catalog(dirac, laplace)
    table = {(r.zeta_kind, complex(r.location)): r.order for r in records}
    assert table[("selberg", 1j)] == 2  # (1 + 3) / 2


def test_empty_catalog():
    assert singularity_catalog(DiracSpectrum(entries=())) == ()


def residue_oracles(dirac, laplace):
    """Each zeta kind's continued log-derivative, whose residues are the
    catalog's orders for that kind."""

    def l_super(z):
        return continued_super_logderiv(z, dirac)

    def l_sym(z):
        return continued_sym_logderiv(z, laplace, 1.0, 1, volume=0.0)

    def l_plain(z):
        return 0.5 * (l_sym(z) + l_super(z))

    return {"super": l_super, "symmetrized": l_sym, "selberg": l_plain}


@pytest.mark.parametrize("laplace", [None, LaplaceSpectrum(entries=((1.0, 1), (1.0 + 2e-13, 2)))])
def test_catalog_sums_the_multiplicities_of_entries_within_the_tolerance(laplace):
    # 1.0 and 1.0 + 1e-13 are one eigenvalue to the catalog, which kept the
    # first entry's multiplicity only: order 1 at i where the residue is 3
    dirac = DiracSpectrum(entries=((1.0, 1), (1.0 + 1e-13, 2)))
    catalog = singularity_catalog(dirac, laplace)
    table = {(r.zeta_kind, r.location): r.order for r in catalog}
    assert table == {
        ("super", 1j): 3,
        ("super", -1j): -3,
        ("symmetrized", 1j): 3,
        ("symmetrized", -1j): 3,
        ("selberg", 1j): 3,
    }
    oracles = residue_oracles(dirac, laplace or square_spectrum(dirac))
    for record in catalog:
        got = residue_at(oracles[record.zeta_kind], record.location, 0.1)
        assert got == pytest.approx(record.order, abs=1e-9), record
    # the continued log is sum m Log((s - i lam)/(s + i lam)) over the data,
    # up to whole turns; it was -0.482-4.129i against -1.446+6.463i
    s = complex(-0.5, 0.3)
    got = by_closed_form(dirac, s, "above")
    want = sum(m * cmath.log((s - 1j * ev) / (s + 1j * ev)) for ev, m in dirac.entries)
    assert cmath.exp(got) == pytest.approx(cmath.exp(want), rel=1e-9)
    turns = (got - want) / (2j * math.pi)
    assert abs(turns - round(turns.real)) < 1e-9


def brute_force_catalog(dirac, laplace=None):
    """The catalog by a pairwise scan: each of +-lam, then +-sqrt(mu), joins
    the first kept frequency closer than 1e-12, or is kept itself; the kept
    one gives the location, and its group the orders.  With no second-order
    list the roots are the first-order values."""
    near = 1e-12
    roots = dirac.entries if laplace is None else [(cmath.sqrt(mu), m) for mu, m in laplace.entries]
    freqs, signed, squared = [], [], []

    def join(nu):
        for g, known in enumerate(freqs):
            if abs(known - nu) < near:
                return g
        freqs.append(nu)
        signed.append(0)
        squared.append(0)
        return len(freqs) - 1

    for ev, mult in dirac.entries:
        plus, minus = join(ev), join(-ev)
        signed[plus] += mult
        signed[minus] -= mult
    for root, mult in roots:
        for g in {join(root), join(-root)}:  # a root and its negative in one group count once
            squared[g] += mult

    table = {}
    for nu, m_super, m_second in zip(freqs, signed, squared):
        if abs(nu) < near:
            orders = {"super": m_super, "symmetrized": 2 * m_second, "selberg": m_second}
        elif (m_super - m_second) % 2:
            return ParityViolation
        else:
            orders = {"super": m_super, "symmetrized": m_second}
            orders["selberg"] = (m_super + m_second) // 2
        table.update({(kind, 1j * nu): order for kind, order in orders.items() if order})
    return table


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, complex(1.5, 0.2), 3j]),
            st.sampled_from([0.0, 3e-13, -4e-13, 9e-13, 2e-12, 1e-13j]),
            st.sampled_from([1, -1]),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[2] * (t[0] + t[1]),
    ),
    st.booleans(),
)
# a list's own square, refused when the catalog compared nu^2 with mu
@example([(1.0, 0.0, 1, 1), (1.0, 6e-13, 1, 1)], False)
@example([(complex(1.5, 0.2), 0.0, 1, 1), (complex(1.5, 0.2), -4e-13, -1, 1)], False)
def test_catalog_matches_the_pairwise_scan(entries, own_laplace):
    dirac = DiracSpectrum(entries=tuple((sign * (base + d), m) for base, d, sign, m in entries))
    laplace = None
    if own_laplace:  # a second-order list whose squares sit off those of the first
        squares = square_spectrum(dirac).entries
        laplace = LaplaceSpectrum(entries=tuple((mu * (1 + 1e-13), m) for mu, m in squares))
    want = brute_force_catalog(dirac, laplace)
    if want is ParityViolation:
        # no graded pair violates parity with its own square
        assert own_laplace, f"the catalog of {dirac.entries} refuses the list's own square"
        with pytest.raises(ParityViolation):
            singularity_catalog(dirac, laplace)
        return
    assert {(r.zeta_kind, r.location): r.order for r in singularity_catalog(dirac, laplace)} == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 120),
    st.integers(1, 120),
    st.sampled_from([1e-12, 0.05, 0.3]),
    st.booleans(),
    st.sampled_from([1.0, 4e4, 1e9]),
)
def test_closeness_scan_finds_every_close_pair(seed, n_queries, n_values, tol, on_a_line, scale):
    # far from the origin the ulp exceeds 1e-12, and only exact repeats are
    # that close; some values repeat exactly, and half the queries are values
    rng = np.random.default_rng(seed)
    values = scale * (rng.uniform(-2.0, 2.0, n_values) + 1j * rng.uniform(-2.0, 2.0, n_values))
    if on_a_line:  # spread along the imaginary axis only, as the poles i lam are
        values = 1j * values.imag + 0.01 * values.real
    values[rng.integers(0, n_values, n_values // 4)] = values[rng.integers(0, n_values, n_values // 4)]
    picks = values[rng.integers(0, n_values, n_queries)]
    jitter = tol * (rng.uniform(-1.5, 1.5, n_queries) + 1j * rng.uniform(-1.5, 1.5, n_queries))
    queries = np.where(rng.random(n_queries) < 0.5, picks + jitter, picks)
    q, v = _near(queries, values, tol)
    want = {(i, j) for i in range(n_queries) for j in range(n_values) if abs(queries[i] - values[j]) < tol}
    assert sorted(zip(q.tolist(), v.tolist())) == sorted(want)


@pytest.mark.parametrize("large", [4e4, 200.0, 1e9])
def test_catalog_of_a_long_list_merges_exact_repeats_far_from_the_origin(large):
    # 47 entries: past 2^15 (here at a frequency, or at a square for 200)
    # the ulp exceeds 1e-12, so a value is close only to its exact repeats,
    # such as itself and the root of its square
    entries = [(0.37 * k, 1) for k in range(1, 45)] + [(large, 2), (-large, 1), (3.0, 2)]
    dirac = DiracSpectrum(entries=tuple(entries))
    want = brute_force_catalog(dirac, square_spectrum(dirac))
    assert want[("super", 1j * large)] == 1 and want[("symmetrized", 1j * large)] == 3
    assert {(r.zeta_kind, r.location): r.order for r in singularity_catalog(dirac)} == want


def test_long_arrays_refuse_a_point_on_a_pole_far_from_the_origin():
    dirac = DiracSpectrum(entries=tuple((0.37 * k, 1) for k in range(1, 60)) + ((4e4, 1),))
    points = np.linspace(0.5, 2.0, 100) + 0.1j
    points[57] = 4e4j
    with pytest.raises(AtSingularity, match=r"s = 40000j sits on a pole"):
        continued_super_logderiv(points, dirac)
    with pytest.raises(AtSingularity):
        continued_sym_logderiv(points, square_spectrum(dirac), 1.0, 1, 0.0)


def test_catalog_keeps_the_first_location_of_a_merged_eigenvalue():
    dirac = DiracSpectrum(entries=((1.0 + 1e-13, 2), (1.0, 1), (-1.0 - 5e-13, 1)))
    catalog = singularity_catalog(dirac)
    super_orders = {r.location: r.order for r in catalog if r.zeta_kind == "super"}
    assert super_orders == {1j * (1.0 + 1e-13): 2, -1j * (1.0 + 1e-13): -2}


# path continuation -----------------------------------------------------------


def test_super_tail_log_closed_form(dirac_pm):
    w = complex(5.0, 0.3)
    expected = 1.0 * cmath.log((w - 1j) / (w + 1j))
    assert super_tail_log(dirac_pm, w) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("w", [complex(8.0, 0.3), complex(30.0, -2.0)])
def test_super_tail_log_is_the_per_entry_sum(w):
    rng = np.random.default_rng(11)
    values = rng.uniform(-5.0, 5.0, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
    dirac = DiracSpectrum(zip(values.tolist(), rng.integers(1, 5, 40).tolist()))
    terms = [m * cmath.log((w - 1j * ev) / (w + 1j * ev)) for ev, m in dirac.entries]
    want = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    assert abs(super_tail_log(dirac, w) - want) <= 1e-14 * math.fsum(abs(z) for z in terms)


def test_path_value_matches_closed_form(dirac_pm):
    s = complex(2.0)
    got = log_zeta_by_path(
        s,
        lambda z: continued_super_logderiv(z, dirac_pm),
        catalog=list(singularity_catalog(dirac_pm)),
        tail=lambda w: super_tail_log(dirac_pm, w),
    )
    want = super_tail_log(dirac_pm, s)
    assert got == pytest.approx(want, abs=1e-9)


def test_path_value_left_of_poles(dirac_pm):
    # the continued value at a negative real point: path along the real
    # axis never comes near +-i, so no detours fire
    s = complex(-1.5)
    got = log_zeta_by_path(
        s,
        lambda z: continued_super_logderiv(z, dirac_pm),
        catalog=list(singularity_catalog(dirac_pm)),
        tail=lambda w: super_tail_log(dirac_pm, w),
    )
    want = super_tail_log(dirac_pm, s)
    assert cmath.exp(got) == pytest.approx(cmath.exp(want), rel=1e-9)
    # log branches can only differ by whole turns
    turns = (got - want) / (2j * math.pi)
    assert abs(turns - round(turns.real)) < 1e-9


def test_detour_sides_differ_by_winding():
    # a tilted eigenvalue puts the pole at -0.05 + i, straight in the way
    # of the horizontal path at height 1
    dirac = DiracSpectrum(entries=((complex(1.0, 0.05), 1),))
    catalog = list(singularity_catalog(dirac))
    s = complex(-0.8, 1.0)

    def logderiv(z):
        return continued_super_logderiv(z, dirac)

    def tail(w):
        return super_tail_log(dirac, w)

    above = log_zeta_by_path(s, logderiv, catalog=catalog, detour_side="above", tail=tail)
    below = log_zeta_by_path(s, logderiv, catalog=catalog, detour_side="below", tail=tail)
    assert cmath.exp(above) == pytest.approx(cmath.exp(below), rel=1e-8)
    turns = (above - below) / (2j * math.pi)
    assert round(turns.real) != 0 or abs(turns) < 1e-9
    assert abs(turns - round(turns.real)) < 1e-8


def test_path_refuses_start_on_singularity(dirac_pm):
    with pytest.raises(PathThroughSingularity):
        log_zeta_by_path(
            1j + 0.01,
            lambda z: continued_super_logderiv(z, dirac_pm),
            catalog=list(singularity_catalog(dirac_pm)),
            tail=lambda w: super_tail_log(dirac_pm, w),
        )


# closed form and branch tracking ---------------------------------------------


def super_catalog(dirac):
    return [r for r in singularity_catalog(dirac) if r.zeta_kind == "super"]


def by_quadrature(dirac, s, side, radius=0.1):
    return log_zeta_by_path(
        s,
        lambda z: continued_super_logderiv(z, dirac),
        catalog=super_catalog(dirac),
        detour_radius=radius,
        detour_side=side,
        tail=lambda w: super_tail_log(dirac, w),
    )


def by_closed_form(dirac, s, side, radius=0.1):
    return log_zeta_by_path(
        s, catalog=super_catalog(dirac), detour_radius=radius, detour_side=side
    )


def mp_product(dirac, s):
    """prod ((s - i lam)/(s + i lam))^m at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(s.real, s.imag)
        value = mpmath.mpf(1)
        for ev, m in dirac.entries:
            lam = mpmath.mpc(ev.real, ev.imag)
            value *= ((z - 1j * lam) / (z + 1j * lam)) ** m
        return complex(value)


@pytest.mark.parametrize("side", ["above", "below"])
def test_closed_form_equals_principal_logs_plus_winding(side):
    dirac = DiracSpectrum(entries=((complex(1.0, 0.05), 2), (2.0, 1), (-2.0, 3)))
    catalog = super_catalog(dirac)
    for s in (complex(-0.8, 1.0), complex(-0.5, -2.0), complex(0.3, 0.0), complex(4.0, 1.0)):
        got = by_closed_form(dirac, s, side)
        principal = sum(r.order * cmath.log(s - r.location) for r in catalog)
        winding = super_winding(s, catalog, 0.1, side)
        assert got == pytest.approx(principal + 2j * math.pi * winding, abs=1e-13)
        assert got == pytest.approx(by_quadrature(dirac, s, side), abs=1e-10)
        assert cmath.exp(got) == pytest.approx(mp_product(dirac, s), rel=1e-12)


@pytest.mark.parametrize("side", ["above", "below"])
def test_quadrature_check_catches_former_misses(side, monkeypatch):
    # at the default tolerances and without breakpoints at the poles' real
    # parts, quad missed the first two points by about 1e-5 relative while
    # its own error estimate said 3.6e-8; with breakpoints but the default
    # relative tolerance it missed the third by 1.7e-5
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import continue_verify

    cases = [
        (random_dirac_spectrum(np.random.default_rng(2)), complex(-0.5, 7.9)),
        (DiracSpectrum(tuple(continue_verify.eigenvalues(6))), complex(-0.5, 0.75)),
        (DiracSpectrum(tuple(continue_verify.eigenvalues(2))), complex(-0.5, 10.0)),
    ]
    for dirac, s in cases:
        closed = by_closed_form(dirac, s, side)
        assert by_quadrature(dirac, s, side) == pytest.approx(closed, abs=1e-10)
        assert cmath.exp(closed) == pytest.approx(mp_product(dirac, s), rel=1e-12)


def test_quadrature_check_refuses_a_missed_integral():
    # a pole at 1 that the catalog does not list lies on the path, so the
    # integral diverges; the check used to return a finite value for it
    with pytest.raises(QuadratureFailure):
        log_zeta_by_path(0j, lambda z: 1 / (z - 1), catalog=[], tail=lambda w: 0j)


def test_quadrature_check_needs_its_tail(dirac_pm):
    # the path ends at a fixed point of the ray; the caller gives the
    # integral beyond it
    with pytest.raises(InvariantViolation, match="tail"):
        log_zeta_by_path(complex(2.0), lambda z: continued_super_logderiv(z, dirac_pm),
                         catalog=super_catalog(dirac_pm))


@pytest.mark.parametrize("offset", [0.0999999, 0.1, 0.1000001, -0.0999999, -0.1, -0.1000001])
def test_pole_at_detour_radius_from_the_ray(offset):
    # the pole i lam sits offset above (or below) the ray through s; its
    # partner -i lam is far away.  A detour centred on the ray used to run
    # within 1e-7 of the pole (wrong sign) or through it (exit 7).
    dirac = DiracSpectrum(entries=((complex(1.0 + offset, 0.3), 2),))
    s = complex(-1.0, 1.0)
    pole = 1j * dirac.entries[0][0]
    detoured = abs(pole.imag - s.imag) < 0.1
    want = mp_product(dirac, s)
    logs = {}
    for side in ("above", "below"):
        closed = by_closed_form(dirac, s, side)
        assert cmath.exp(closed) == pytest.approx(want, rel=1e-12)
        assert cmath.exp(by_quadrature(dirac, s, side)) == pytest.approx(want, rel=1e-12)
        assert by_quadrature(dirac, s, side) == pytest.approx(closed, abs=1e-10)
        logs[side] = closed
    catalog = super_catalog(dirac)
    order = 2 if detoured else 0
    assert super_winding(s, catalog, 0.1, "above") - super_winding(s, catalog, 0.1, "below") == order
    assert logs["above"] - logs["below"] == pytest.approx(2j * math.pi * order, abs=1e-12)


def test_detour_sides_differ_by_detoured_orders():
    # poles of orders 2 and -3 near the ray, at heights 1.05 and 0.97; the
    # others far off it
    dirac = DiracSpectrum(entries=((complex(1.05, 0.4), 2), (complex(-0.97, 0.2), 3), (3.0, 1)))
    catalog = super_catalog(dirac)
    s = complex(-1.0, 1.0)
    detoured = [r for r in catalog if r.location.real > s.real and abs(r.location.imag - 1.0) < 0.1]
    assert len(detoured) == 2
    expected = sum(r.order for r in detoured)
    assert super_winding(s, catalog, 0.1, "above") - super_winding(s, catalog, 0.1, "below") == expected
    for f in (by_closed_form, by_quadrature):
        difference = f(dirac, s, "above") - f(dirac, s, "below")
        assert difference == pytest.approx(2j * math.pi * expected, abs=1e-9)


def test_path_refuses_overlapping_detour_circles():
    # a detoured pole 0.15 from another pole: the circles of radius 0.1 overlap
    dirac = DiracSpectrum(entries=((complex(1.0, 0.0), 1), (complex(1.15, 0.0), 2)))
    s = complex(-1.0, 1.0)
    for f in (by_closed_form, by_quadrature):
        with pytest.raises(PathThroughSingularity, match="overlap"):
            f(dirac, s, "above")
    # a smaller radius separates them
    assert by_closed_form(dirac, s, "above", radius=0.05) == pytest.approx(
        by_quadrature(dirac, s, "above", radius=0.05), abs=1e-10
    )


def test_closed_form_refuses_start_on_singularity(dirac_pm):
    with pytest.raises(PathThroughSingularity):
        by_closed_form(dirac_pm, 1j + 0.01, "above")


def test_closed_form_needs_the_complete_partial_fractions(dirac_pm):
    partial = [r for r in super_catalog(dirac_pm) if r.order > 0]
    with pytest.raises(InvariantViolation, match="sum to 0"):
        log_zeta_by_path(complex(2.0), catalog=partial)
    with pytest.raises(InvariantViolation):
        log_zeta_by_path(complex(2.0), catalog=super_catalog(dirac_pm), detour_radius=0.0)
    with pytest.raises(InvariantViolation, match="closed form"):
        log_zeta_by_path(complex(2.0), lambda z: continued_super_logderiv(z, dirac_pm),
                         catalog=super_catalog(dirac_pm), return_winding=True)


def test_closed_form_ignores_the_sign_of_a_zero_imaginary_part():
    # lam = 2i puts poles on the real axis, on the ray through s = -3
    dirac = DiracSpectrum(entries=((2j, 1),))
    for side in ("above", "below"):
        plus = by_closed_form(dirac, complex(-3.0, 0.0), side)
        assert by_closed_form(dirac, complex(-3.0, -0.0), side) == plus
        assert by_quadrature(dirac, complex(-3.0, 0.0), side) == pytest.approx(plus, abs=1e-10)


def test_closed_form_reads_only_super_records(dirac_pm):
    s = complex(-0.5, 0.3)
    mixed = list(singularity_catalog(dirac_pm)) + [SingularityRecord(3j, 5, "selberg")]
    assert log_zeta_by_path(s, catalog=mixed) == log_zeta_by_path(s, catalog=super_catalog(dirac_pm))


# array forms -----------------------------------------------------------------


def bits(values) -> np.ndarray:
    """The bytes of complex values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=complex).view(np.uint64)


GRID_DIRACS = (
    DiracSpectrum(entries=((0.9, 2), (-0.9, 1), (complex(1.7, 0.1), 1), (2.6, 3))),
    DiracSpectrum(entries=((complex(1.0, 0.05), 2), (2.0, 1), (-2.0, 3))),
    DiracSpectrum(entries=((2j, 1), (complex(1.05, 0.4), 2), (complex(-0.97, 0.2), 3))),
)


@st.composite
def grids(draw):
    """A spectrum and up to 12 points, many at a pole's exact height, on
    the real axis with either sign of zero, or near a pole."""
    dirac = draw(st.sampled_from(GRID_DIRACS))
    poles = [r.location for r in super_catalog(dirac)]
    heights = st.sampled_from([p.imag for p in poles] + [0.0, -0.0])
    point = st.one_of(
        st.builds(complex, st.floats(-4.0, 4.0), st.one_of(heights, st.floats(-4.0, 4.0))),
        st.builds(
            lambda p, d: p + d, st.sampled_from(poles), st.complex_numbers(max_magnitude=0.3)
        ),
    )
    return dirac, draw(st.lists(point, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(grids(), st.sampled_from(["above", "below"]), st.sampled_from([0.05, 0.1, 0.25]))
def test_array_path_is_the_points_one_by_one(case, side, radius):
    dirac, points = case
    catalog = super_catalog(dirac)
    options = dict(detour_radius=radius, detour_side=side)
    try:
        logs = [log_zeta_by_path(s, catalog=catalog, **options) for s in points]
        windings = [super_winding(s, catalog, radius, side) for s in points]
    except PathThroughSingularity as refusal:
        # the array refuses with the first refused point's own message
        for f in (lambda z: log_zeta_by_path(z, catalog=catalog, **options),
                  lambda z: super_winding(z, catalog, radius, side)):
            with pytest.raises(PathThroughSingularity) as caught:
                f(np.array(points))
            assert str(caught.value) == str(refusal)
        return
    assert all(type(w) is int for w in windings) and all(type(v) is complex for v in logs)
    got = log_zeta_by_path(np.array(points), catalog=catalog, **options)
    assert np.array_equal(bits(got), bits(logs))
    assert super_winding(np.array(points), catalog, radius, side).tolist() == windings
    both = log_zeta_by_path(np.array(points), catalog=catalog, return_winding=True, **options)
    assert np.array_equal(bits(both[0]), bits(logs)) and both[1].tolist() == windings
    assert log_zeta_by_path(points[0], catalog=catalog, return_winding=True, **options) == (
        logs[0], windings[0])
    grid = np.array(points[:1] * 6).reshape(2, 3)
    assert log_zeta_by_path(grid, catalog=catalog, **options).shape == (2, 3)


def test_array_path_keeps_a_negative_zero_imaginary_part_on_the_cut():
    dirac = DiracSpectrum(entries=((2j, 1),))  # poles on the real axis
    points = np.array([complex(-3.0, 0.0), complex(-3.0, -0.0)])
    for side in ("above", "below"):
        got = log_zeta_by_path(points, catalog=super_catalog(dirac), detour_side=side)
        assert np.array_equal(bits(got[1:]), bits(got[:1]))
        assert got[0] == by_closed_form(dirac, points[1], side)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.05, 0.1]))
def test_array_residues_are_the_centres_one_by_one(seed, radius):
    dirac = random_dirac_spectrum(np.random.default_rng(seed))
    laplace = square_spectrum(dirac)
    ev = np.array([e for e, _ in dirac.entries])
    centres = np.concatenate([1j * ev, -1j * ev, [0.35 + 0.2j]])
    for f in (lambda z: continued_super_logderiv(z, dirac),
              lambda z: continued_sym_logderiv(z, laplace, 1.0, 1, volume=1.0)):
        got = residue_at(f, centres, radius)
        assert np.array_equal(bits(got), bits([residue_at(f, c, radius) for c in centres]))
        assert residue_at(f, centres.reshape(1, -1), radius).shape == (1, len(centres))


def test_array_residue_refusal_names_the_first_open_centre():
    step = 0.3 + 0.2 * math.cos(1.0)

    def f(z):  # a step on the circle around 0.3: its values never settle
        return np.where(np.abs(z - 0.3) < 0.25, np.where(z.real > step, 1.0, 0.0), 1.0 / (z - 2.0))

    with pytest.raises(NoConvergence, match=r"at \(0\.3\+0j\)"):
        residue_at(f, np.array([2.0, 0.3, 0.3 + 0.0j]), 0.2)


# factorization ---------------------------------------------------------------


def test_ruelle_factorization_points(toy_spectrum):
    for k in (1.0, 0.5):
        for s in (complex(3.2), complex(3.8, 0.2)):
            lhs, rhs, gap = ruelle_factorization_check(s, k, None, toy_spectrum)
            assert gap <= 1e-9, (k, s, gap)


def test_ruelle_factorization_single_class():
    spec = single_class_spectrum(1.2, 0.9, powers=3)
    k = 1.0
    lhs, rhs, gap = ruelle_factorization_check(complex(4.0), k, None, spec)
    assert gap <= 1e-12
