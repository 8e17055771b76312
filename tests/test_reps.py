from __future__ import annotations

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeta_workbench import (
    CaseAError,
    GammaRep,
    InvariantViolation,
    SchemaError,
    UnknownSymbol,
    ad_nbar_det,
    character_chi,
    character_sigma,
    check_weight,
    parse_gamma_rep,
    plancherel,
)
from zeta_workbench.reps import require_case_b
from conftest import NOT_NUMBERS, with_literal


def serialize_gamma_rep(chi: GammaRep) -> str:
    doc = {
        "dimension": chi.dimension,
        "images": {
            name: [[[z.real, z.imag] for z in row] for row in mat]
            for name, mat in sorted(chi.images.items())
        },
    }
    return json.dumps(doc, sort_keys=True)


def sym_power_trace(k: int, length: float, angle: float) -> complex:
    """Trace of the k-th symmetric power of the adjoint action on nbar:
    exp(-k*l) * sum_{a+b=k} exp(i*(a-b)*theta).
    """
    if k < 0:
        raise InvariantViolation("symmetric power index must be nonnegative")
    total = 0.0 + 0.0j
    for a in range(k + 1):
        total += cmath.exp(1j * (2 * a - k) * angle)
    return math.exp(-k * length) * total


def test_weight_validation():
    assert check_weight(2) == 2.0
    assert check_weight(0.5) == 0.5
    assert check_weight(-1.5) == -1.5
    with pytest.raises(InvariantViolation):
        check_weight(0.3)  # neither integer nor half-integer
    with pytest.raises(InvariantViolation):
        check_weight(1.25)


def test_weyl_action_and_case():
    # the sign flip sends k to -k, which conjugates the character at a
    # real angle; only k = 0 (case a) is fixed by it
    for k in (2.0, 0.5):
        assert character_sigma(-k, 0.3) == pytest.approx(np.conj(character_sigma(k, 0.3)))
        require_case_b(k)
        require_case_b(-k)
    with pytest.raises(CaseAError):
        require_case_b(0.0)
    with pytest.raises(InvariantViolation):
        require_case_b(0.3)


def test_spin_representations():
    # the spin weights k = +-1/2 are valid and each other's sign flip;
    # their character changes sign over one full turn
    assert check_weight(0.5) == -check_weight(-0.5)
    assert character_sigma(0.5, 2 * math.pi) == pytest.approx(-1.0)
    assert character_sigma(-0.5, 2 * math.pi) == pytest.approx(-1.0)


def test_character_sigma_is_unit_circle():
    value = character_sigma(2.0, 0.3)
    assert value == pytest.approx(cmath.exp(2j * 0.3))
    # arrays of angles evaluate elementwise
    angles = np.array([0.3, -1.2, 2.9])
    np.testing.assert_allclose(
        character_sigma(2.0, angles), [cmath.exp(2j * a) for a in angles], rtol=1e-15
    )


# ad_nbar_det and symmetric-power traces -------------------------------------


def test_ad_nbar_det_oracle():
    # det(1 - e^{-l} R(theta)) over the 2-dim contracting slot:
    # eigenvalues e^{-l} e^{+-i theta}
    l, theta = 0.9, 1.1
    expected = (1 - cmath.exp(-l + 1j * theta)) * (1 - cmath.exp(-l - 1j * theta))
    assert ad_nbar_det(l, theta) == pytest.approx(expected.real)
    assert abs(expected.imag) < 1e-15


@given(
    st.floats(0.2, 5.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_ad_nbar_det_positive(l, theta):
    assert ad_nbar_det(l, theta) > 0.0


def test_sym_power_trace_oracle():
    # trace of Sym^k of diag(e^{i theta}, e^{-i theta}) scaled by e^{-l}:
    # sum over a+b = k of e^{i (a-b) theta} e^{-k l}
    l, theta = 0.7, 0.4
    for k in range(6):
        brute = sum(
            cmath.exp(1j * (a - (k - a)) * theta) for a in range(k + 1)
        ) * math.exp(-k * l)
        assert sym_power_trace(k, l, theta) == pytest.approx(brute, abs=1e-14)


@given(
    st.floats(0.3, 4.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_geometric_series_of_sym_traces(l, theta):
    # sum_k tr Sym^k = 1 / det(1 - contracting block)
    total = sum(sym_power_trace(k, l, theta) for k in range(200))
    assert total.real == pytest.approx(1.0 / ad_nbar_det(l, theta), rel=1e-10)


# Plancherel polynomial -------------------------------------------------------


def test_plancherel_for_weight_k():
    poly = plancherel(2.0)
    lam = 1.3
    expected = (lam * lam + 4.0) / (4.0 * math.pi**2)
    assert poly.at_ilambda(lam) == pytest.approx(expected)
    # at_s evaluates the same polynomial at lambda = -i s
    s = complex(0.8, 0.1)
    assert poly.at_s(s) == pytest.approx(poly.at_ilambda(-1j * s))


# flat-bundle twist -----------------------------------------------------------


def test_gamma_rep_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    GammaRep(dimension=2, images={"a": good})
    with pytest.raises(InvariantViolation):
        GammaRep(dimension=2, images={"a": np.zeros((2, 2))})
    with pytest.raises(InvariantViolation):
        GammaRep(dimension=2, images={"a": np.eye(3)})


def test_character_chi_trivial_and_products():
    assert character_chi(None, "abc") == 1.0 + 0.0j
    chi = GammaRep(dimension=2, images={"a": np.eye(2), "b": np.eye(2)})
    assert character_chi(chi, "ab") == pytest.approx(2.0 + 0.0j)

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    chi2 = GammaRep(dimension=2, images={"a": swap, "b": np.eye(2)})
    assert character_chi(chi2, "a") == pytest.approx(0.0)
    assert character_chi(chi2, "aa") == pytest.approx(2.0)
    # inverse symbols fall back to the matrix inverse
    assert character_chi(chi2, "A") == pytest.approx(0.0)
    with pytest.raises(UnknownSymbol):
        character_chi(chi2, "z")


def test_inverse_images_inverted_once(monkeypatch):
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.5j], [0.0, 1.0]])
    chi = GammaRep(dimension=2, images={"a": a, "b": b})
    assert set(chi.images) == {"a", "b"}
    np.testing.assert_array_equal(chi.image_of_symbol("A"), np.linalg.inv(a))
    np.testing.assert_array_equal(chi.image_of_symbol("B"), np.linalg.inv(b))
    expected = character_chi(chi, "aBAb" * 5)

    def no_inverse(*args, **kwargs):
        raise AssertionError("a word must not invert a generator image")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    assert character_chi(chi, "aBAb" * 5) == expected


@given(st.text(alphabet="ab", min_size=1, max_size=6), st.integers(0, 5))
def test_character_chi_cyclic_invariance(word, rot):
    mats = {
        "a": np.array([[1.0, 1.0], [0.0, 1.0]]),
        "b": np.array([[1.0, 0.0], [2.0, 1.0]]),
    }
    chi = GammaRep(dimension=2, images=mats)
    r = rot % len(word)
    rotated = word[r:] + word[:r]
    assert character_chi(chi, rotated) == pytest.approx(
        character_chi(chi, word), abs=1e-9
    )


def test_gamma_rep_round_trip():
    chi = GammaRep(
        dimension=2,
        images={
            "a": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "b": np.array([[1.0, 1.0], [0.0, 1.0]]),
        },
    )
    doc = serialize_gamma_rep(chi)
    back = parse_gamma_rep(doc)
    assert back.dimension == 2
    for name in ("a", "b"):
        np.testing.assert_allclose(back.image_of_symbol(name), chi.image_of_symbol(name))
    with pytest.raises(SchemaError):
        parse_gamma_rep({"dimension": 2})


def _random_twist(rng, unitary: bool) -> GammaRep:
    images = {}
    for name in "ab":
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if unitary:
            q, r = np.linalg.qr(z)
            z = q * (np.diag(r) / np.abs(np.diag(r)))
        images[name] = z
    return GammaRep(dimension=3, images=images)


@pytest.mark.parametrize("unitary", [True, False])
def test_batched_character_chi_is_the_per_word_product(unitary):
    rng = np.random.default_rng(12 if unitary else 13)
    chi = _random_twist(rng, unitary)
    words = [""] + [
        "".join(rng.choice(list("aAbB"), size=rng.integers(1, 11))) for _ in range(400)
    ]
    expected = []
    for word in words:
        acc = np.eye(3, dtype=complex)
        for symbol in word:
            acc = acc @ chi.image_of_symbol(symbol)
        expected.append(np.trace(acc))
    batched = character_chi(chi, words)
    assert batched.shape == (len(words),)
    assert np.array_equal(batched, np.array(expected))
    assert [character_chi(chi, w) for w in words[:20]] == expected[:20]
    assert np.array_equal(character_chi(None, words), np.ones(len(words)))


def test_batched_character_chi_names_an_unknown_letter():
    chi = _random_twist(np.random.default_rng(14), True)
    with pytest.raises(UnknownSymbol, match="'x'"):
        character_chi(chi, ["ab", "aBxb", "Ay"])
    with pytest.raises(UnknownSymbol, match="'x'"):
        character_chi(chi, "abx")


def test_weight_must_be_finite():
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantViolation):
            check_weight(k)


def test_gamma_rep_refuses_what_is_no_finite_number():
    def doc(entry="@", rows=None, dimension=2):
        rows = rows or [[[1, 0], entry], [[0, 0], [1, 0]]]
        return {"dimension": dimension, "images": {"a": rows}}

    cases = [(with_literal(doc(), literal), "field 'a'") for literal in NOT_NUMBERS]
    cases += [
        (json.dumps(doc(entry=[0, 0, 0])), "field 'a'"),  # not exactly a pair
        (json.dumps(doc(entry=[0])), "field 'a'"),
        (json.dumps(doc(rows=[[[1, 0], [0, 0]], [[1, 0]]])), "field 'a'"),  # ragged rows
        (json.dumps(doc(dimension=True)), "field 'dimension'"),
    ]
    for text, field in cases:
        with pytest.raises(SchemaError, match=field) as refused:
            parse_gamma_rep(text)
        assert refused.value.exit_code == 2
