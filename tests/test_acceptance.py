"""Acceptance gate: the ten guarantees this package ships with.

One test per guarantee, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion. Suite-backed criteria run end to end through
the command-line verify path; the rest assert the stated bounds directly
against library calls. Runtime budgets are checked with wall-clock timers.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from zeta_workbench import (
    DiracSpectrum,
    EnumerationConfig,
    GroupPresentation,
    LaplaceSpectrum,
    ZetaRequest,
    complex_length,
    continued_sym_logderiv,
    enumerate_spectrum,
    identity_term_dirac,
    log_zeta,
    plancherel,
    residue_at,
    singularity_catalog,
)
from zeta_workbench.cli import main
from zeta_workbench.verify import single_class_spectrum


def cli_verify(capsys, suite, *extra):
    start = time.monotonic()
    code = main(["verify", "--suite", suite, "--seed", "0", *extra])
    elapsed = time.monotonic() - start
    report = json.loads(capsys.readouterr().out)
    return code, report, elapsed


def test_criterion_01_kernel_identities(capsys):
    # closed-form heat and Fourier-transform kernels against adaptive
    # quadrature on a 10x10 log-spaced grid, gap at most 1e-10, under 5 s
    code, report, elapsed = cli_verify(capsys, "kernels")
    assert code == 0
    assert report["cases"] >= 200
    assert report["max_gap"] <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_partial_fraction_weights(capsys):
    # product of resolvents equals the weighted sum of resolvents to 1e-11
    # relative on 100 random shift grids of size up to 6, under 1 s
    code, report, elapsed = cli_verify(capsys, "partial-fractions")
    assert code == 0
    assert report["cases"] >= 100
    assert report["max_gap"] <= 1e-11
    assert elapsed < 1.0


def test_criterion_03_first_order_residues_match_multiplicities(capsys):
    # contour residues of the continued first-order resolvent sum at +-i*lam
    # recover the signed multiplicities within 1e-8 on 25 random spectra of
    # up to 20 entries, under 30 s
    code, report, elapsed = cli_verify(capsys, "residues")
    assert code == 0
    assert report["cases"] >= 25
    assert report["max_gap"] <= 1e-8
    assert elapsed < 30.0


def test_criterion_04_second_order_residues_and_entire_density(capsys):
    # the suite checks residues at +-i*sqrt(mu); here the zero mode and the
    # no-residue claim for the density term are also pinned down directly
    code, report, _ = cli_verify(capsys, "residues")
    assert code == 0
    assert report["max_gap"] <= 1e-8

    k = 1.0

    laplace = LaplaceSpectrum(((0.0, 2), (2.25, 1)))
    f = lambda z: continued_sym_logderiv(z, laplace, k, 1, volume=1.0)
    zero_mode = residue_at(f, 0.0 + 0.0j, 0.05)
    assert abs(zero_mode - 4.0) < 1e-8
    top = residue_at(f, 1.5j, 0.05)
    assert abs(top - 1.0) < 1e-8

    # with no eigenvalues left the function is the density term alone,
    # an entire function: every contour integral vanishes
    g = lambda z: continued_sym_logderiv(z, LaplaceSpectrum(()), k, 1, volume=2.0)
    for center in (0.0 + 0.0j, 1.0j, 0.7 + 0.3j):
        assert abs(residue_at(g, center, 0.1)) <= 1e-12


def test_criterion_05_catalog_orders_parity_and_injection(capsys):
    # catalogued orders are integers built as half sums of signed and
    # squared multiplicities; they match contour residues of the averaged
    # log-derivative within 1e-8; forged parity pairs are rejected
    code, report, _ = cli_verify(capsys, "parity")
    assert code == 0
    assert report["max_gap"] <= 1e-8

    dirac = DiracSpectrum(((0.8, 3), (-0.8, 1), (1.6, 2)))
    catalog = singularity_catalog(dirac)
    assert catalog
    assert all(isinstance(rec.order, int) for rec in catalog)
    plain = {
        rec.location: rec.order for rec in catalog if rec.zeta_kind == "selberg"
    }
    # m_s(0.8) = 2 and m(0.64) = 4 give orders (2+4)/2 and (-2+4)/2
    assert plain[0.8j] == 3
    assert plain[-0.8j] == 1

    code, report, _ = cli_verify(capsys, "parity", "--inject-parity-violation")
    assert code == 5
    assert report["pass"] is False


def test_criterion_06_log_derivative_finite_differences(capsys):
    # central differences of the summed logs match the direct derivative
    # series within 1e-6 at 10 points with Re(s) at least one above the
    # convergence abscissa (the suite fails early if that part breaks)
    code, report, _ = cli_verify(capsys, "logderiv")
    assert code == 0
    assert report["pass"] is True


def test_criterion_07_truncated_product_oracles():
    # class-sum logs against literal truncated products on single-class
    # spectra, symmetric-power index and iterate count up to 40, gap 1e-10
    k = 1.0
    worst = 0.0
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
            got_z = log_zeta(
                ZetaRequest(s=s, k=k, spectrum=family, kind="selberg")
            ).value
            worst = max(worst, abs(got_z - oracle_z))

            oracle_r = cmath.log(
                1.0 - cmath.exp(1j * k * theta0) * cmath.exp(-s * l0)
            )
            got_r = log_zeta(
                ZetaRequest(s=s, k=k, spectrum=family, kind="ruelle")
            ).value
            worst = max(worst, abs(got_r - oracle_r))
    assert worst <= 1e-10


def test_criterion_08_ruelle_factorization(capsys):
    # the plain geodesic zeta equals its four-factor combination of shifted
    # and weight-shifted factors to 1e-9 at five points per spectrum, with
    # integer and half-integer weights both exercised
    code, report, _ = cli_verify(capsys, "factorization")
    assert code == 0
    assert report["max_gap"] <= 1e-9
    assert report["cases"] == 30  # 3 weights x 2 spectra x 5 points


def test_criterion_09_identity_term_cancellation():
    # matched even densities integrate to zero against an odd factor;
    # the bound must come from cancellation, not from smallness, so an
    # odd density perturbation has to be clearly visible
    k = 1.0
    for t in (0.1, 1.0, 10.0):
        assert abs(identity_term_dirac(k, t)) <= 1e-12

    base = plancherel(k)
    perturbed = (base.coefficients[0], 0.1, base.coefficients[2])
    control = abs(
        identity_term_dirac(
            k,
            1.0,
            plus_coefficients=perturbed,
            minus_coefficients=base.coefficients,
        )
    )
    assert control > 1e-3


def test_criterion_10_enumerator_sanity():
    # (a) cyclic group: lengths n*2ln2 with multiplicity n, exactly
    g = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    pres = GroupPresentation(generators=(g,), names=("g",), includes_inverses=True)
    spec = enumerate_spectrum(
        pres, EnumerationConfig(max_word_length=6, length_cutoff=7.0)
    )
    got = sorted(zip(spec.length.tolist(), spec.multiplicity.tolist()))
    assert len(got) == 5
    for n, (length, mult) in enumerate(got, start=1):
        assert mult == n
        assert length == pytest.approx(n * 2.0 * math.log(2.0), abs=1e-12)

    # (b) complex length is a conjugation invariant to 1e-9
    base = 1.5 * cmath.exp(0.3j)
    lox = np.array([[base, 0.0], [0.0, 1.0 / base]], dtype=complex)
    reference = complex_length(lox)
    conjugators = [
        np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.5, 1.0]], dtype=complex),
        np.array([[2.0, 1.0], [3.0, 2.0]], dtype=complex),
        np.array([[1.0, 0.3j], [0.0, 1.0]], dtype=complex),
        np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex),
    ]
    for c in conjugators:
        c_inv = np.linalg.inv(c)
        length, angle = complex_length(c @ lox @ c_inv)
        assert abs(length - reference[0]) < 1e-9
        assert abs(angle - reference[1]) < 1e-9

    # (c) a free two-generator walk to word length 10 finishes in budget
    lam = 3.0 * cmath.exp(0.4j)
    mu = 2.5 * cmath.exp(-0.7j)
    a = np.array([[lam, 0.0], [0.0, 1.0 / lam]], dtype=complex)
    m = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    m_inv = np.array([[2.0, -1.0], [-1.0, 1.0]], dtype=complex)
    b = m @ np.array([[mu, 0.0], [0.0, 1.0 / mu]], dtype=complex) @ m_inv
    two_gen = GroupPresentation(generators=(a, b), names=("a", "b"))
    start = time.monotonic()
    spec = enumerate_spectrum(
        two_gen, EnumerationConfig(max_word_length=10, length_cutoff=30.0)
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert len(spec.classes) > 1000
