from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_workbench import (
    EnumerationConfig,
    GroupPresentation,
    InvariantViolation,
    NotLoxodromic,
    SchemaError,
    complex_length,
    enumerate_spectrum,
    parse_group_presentation,
    primitive_decomposition,
    spectrum_is_incomplete,
    validate_words,
    word_matrix,
    wrap_angle,
)
from conftest import TWO_LN_2, schottky_pair


def test_complex_length_diagonal_oracle():
    mat = np.diag([2.0, 0.5]).astype(complex)
    length, angle = complex_length(mat)
    assert length == pytest.approx(TWO_LN_2, abs=1e-14)
    assert angle == pytest.approx(0.0, abs=1e-14)


def test_complex_length_rotational_part():
    lam = 2.0 * np.exp(0.3j)
    mat = np.diag([lam, 1.0 / lam])
    length, angle = complex_length(mat)
    assert length == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert angle == pytest.approx(0.6, abs=1e-12)


def test_complex_length_rejects_elliptic():
    rot = np.array([[np.exp(0.5j), 0.0], [0.0, np.exp(-0.5j)]])
    with pytest.raises(NotLoxodromic):
        complex_length(rot)
    with pytest.raises(NotLoxodromic):
        complex_length(np.eye(2, dtype=complex), word="aA")


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.2, 4.0),
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_complex_length_conjugation_invariance(r, theta, p, q, alpha):
    lam = r * np.exp(1j * theta)
    mat = np.diag([lam, 1.0 / lam])
    # build a unimodular conjugator from a shear, a twist and a rotation
    shear = np.array([[1.0, p], [0.0, 1.0]], dtype=complex)
    twist = np.array([[1.0, 0.0], [q, 1.0]], dtype=complex)
    rot = np.array(
        [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]],
        dtype=complex,
    )
    g = shear @ twist @ rot
    g_inv = np.linalg.inv(g)
    l0, a0 = complex_length(mat)
    l1, a1 = complex_length(g @ mat @ g_inv)
    assert l1 == pytest.approx(l0, abs=1e-9)
    assert a1 == pytest.approx(a0, abs=1e-9)


def test_presentation_validation():
    good = np.diag([2.0, 0.5]).astype(complex)
    GroupPresentation(generators=(good,), names=("g",))
    with pytest.raises(InvariantViolation):
        GroupPresentation(generators=(2.0 * np.eye(2),), names=("g",))  # det 4
    with pytest.raises(InvariantViolation):
        GroupPresentation(generators=(good, good), names=("g", "g"))
    with pytest.raises(InvariantViolation):
        # name collides with its own inverse symbol
        GroupPresentation(generators=(good, good @ good), names=("g", "G"))


def test_presentation_round_trip():
    pres = schottky_pair(3.0)
    doc = {
        "generators": [
            {"name": name, "matrix": [[z.real, z.imag] for z in mat.reshape(-1)]}
            for name, mat in zip(pres.names, pres.generators)
        ],
        "includes_inverses": pres.includes_inverses,
    }
    back = parse_group_presentation(json.dumps(doc))
    assert back.names == pres.names
    for a, b in zip(back.generators, pres.generators):
        np.testing.assert_allclose(a, b, atol=1e-15)
    with pytest.raises(SchemaError):
        parse_group_presentation({"generators": "nope"})


def test_word_matrix_composition():
    pres = schottky_pair(3.0)
    a, b = pres.generators
    np.testing.assert_allclose(word_matrix(pres, "ab"), a @ b)
    np.testing.assert_allclose(
        word_matrix(pres, "aB"), a @ np.linalg.inv(b), atol=1e-12
    )


# cyclic group ----------------------------------------------------------------


def test_cyclic_enumeration_exact(cyclic_presentation):
    # depth 6 words reach 6 * 2 ln 2 > 7, certifying the cutoff-7 listing
    config = EnumerationConfig(max_word_length=6, length_cutoff=7.0)
    spectrum = enumerate_spectrum(cyclic_presentation, config)
    lengths = [c.length for c in spectrum.classes]
    mults = [c.multiplicity for c in spectrum.classes]
    assert lengths == pytest.approx(
        [n * TWO_LN_2 for n in range(1, 6)], abs=1e-12
    )
    assert mults == [1, 2, 3, 4, 5]
    assert [c.primitive for c in spectrum.classes] == [True] + [False] * 4
    assert not spectrum_is_incomplete(spectrum)
    validate_words(spectrum, cyclic_presentation)


def test_cyclic_cutoff_truncates(cyclic_presentation):
    config = EnumerationConfig(max_word_length=5, length_cutoff=3.0)
    spectrum = enumerate_spectrum(cyclic_presentation, config)
    assert [c.multiplicity for c in spectrum.classes] == [1, 2]


def test_generator_and_inverse_are_two_classes():
    g = np.diag([2.0, 0.5]).astype(complex)
    pres = GroupPresentation(generators=(g,), names=("g",))
    config = EnumerationConfig(max_word_length=1, length_cutoff=3.0)
    spectrum = enumerate_spectrum(pres, config)
    assert len(spectrum.classes) == 2
    words = sorted(c.word for c in spectrum.classes)
    assert words == ["G", "g"]
    assert spectrum.classes[0].length == pytest.approx(spectrum.classes[1].length)


def test_incomplete_flag_when_depth_truncates():
    g = np.diag([2.0, 0.5]).astype(complex)
    pres = GroupPresentation(generators=(g,), names=("g",), includes_inverses=True)
    config = EnumerationConfig(max_word_length=2, length_cutoff=50.0)
    spectrum = enumerate_spectrum(pres, config)
    assert spectrum_is_incomplete(spectrum)


# free two-generator group ----------------------------------------------------


def test_free_group_enumeration(free_two_generator):
    config = EnumerationConfig(max_word_length=4, length_cutoff=10.0)
    spectrum = enumerate_spectrum(free_two_generator, config)
    assert len(spectrum.classes) > 0
    validate_words(spectrum, free_two_generator)
    # every stored length/angle matches its word's matrix
    for cls in spectrum.classes:
        mat = word_matrix(free_two_generator, cls.word)
        length, angle = complex_length(mat)
        assert length == pytest.approx(cls.length, abs=1e-9)
        assert angle == pytest.approx(cls.angle, abs=1e-9)


def test_free_group_counts_conjugates_once(free_two_generator):
    config = EnumerationConfig(max_word_length=3, length_cutoff=20.0)
    spectrum = enumerate_spectrum(free_two_generator, config)
    words = [c.word for c in spectrum.classes]
    # ab and ba are conjugate: only one may appear
    assert not ("ab" in words and "ba" in words)
    # a word and its inverse are distinct classes in a free group
    assert "a" in words and "A" in words


def test_free_group_class_count_matches_necklace_count(free_two_generator):
    # cyclically reduced necklaces over {a, A, b, B} of length <= 3:
    # length 1: 4; length 2: 8 pairs xy with y != x^-1, /2 rotations -> 4+2[xx]
    # brute force instead: count orbits of cyclically reduced words
    import itertools

    alphabet = "aAbB"
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}

    def reduced(w):
        return all(w[i] != inverse[w[i - 1]] for i in range(len(w))) and (
            len(w) == 1 or w[0] != inverse[w[-1]]
        )

    necklaces = set()
    for n in (1, 2, 3):
        for tup in itertools.product(alphabet, repeat=n):
            w = "".join(tup)
            if not reduced(w):
                continue
            canon = min(w[i:] + w[:i] for i in range(len(w)))
            necklaces.add(canon)
    config = EnumerationConfig(max_word_length=3, length_cutoff=100.0)
    spectrum = enumerate_spectrum(free_two_generator, config)
    assert len(spectrum.classes) == len(necklaces)


# ---------------------------------------------------------------------------
# root search against the all-pairs scan


def reference_primitive_decomposition(classes, tolerance, notes):
    """The O(N^2 n_max) scan over all class pairs, kept as the oracle."""
    min_len = min(c[0] for c in classes)
    out = []
    for length, angle, word in classes:
        best_n = 1
        n = 2
        while length / n >= min_len - tolerance:
            target = length / n
            hits = [
                (rl, ra)
                for rl, ra, _ in classes
                if abs(rl - target) <= tolerance
                and abs(wrap_angle(n * ra - angle)) <= n * tolerance + 1e-12
            ]
            if len(hits) > 1:
                notes.append(
                    f"ambiguous root for class at length {length:.12g}: "
                    f"{len(hits)} candidates at power {n}"
                )
            if hits:
                best_n = n
            n += 1
        out.append((length, angle, best_n, best_n == 1, word))
    return out


def random_class_list(rng, tol):
    """Primitive classes, some with angles at the +-pi seam, their exact
    powers up to 6, second roots that make a power ambiguous, and roots at
    l/n +- tol (1 +- 1e-6), just inside and just outside the tolerance."""
    seam = math.pi - 1e-10
    classes = []
    for _ in range(25):
        l0 = rng.uniform(0.5, 3.0)
        theta0 = [rng.uniform(-math.pi, math.pi), seam, -seam, math.pi][rng.integers(4)]
        classes.append((l0, wrap_angle(theta0)))
        for n in range(2, int(rng.integers(2, 7)) + 1):
            classes.append((n * l0, wrap_angle(n * theta0)))
    for _ in range(6):
        l0, theta0 = classes[rng.integers(len(classes))]
        n = int(rng.integers(2, 7))
        classes.append((l0, wrap_angle(theta0 + 2.0 * math.pi / n)))
        classes.append((n * l0, wrap_angle(n * theta0)))
    for _ in range(12):
        length, angle = classes[rng.integers(len(classes))]
        n = int(rng.integers(2, 7))
        offset = tol * (1.0 + rng.choice([-1e-6, 1e-6])) * rng.choice([-1.0, 1.0])
        classes.append((length / n + offset, wrap_angle(angle / n)))
    order = rng.permutation(len(classes))
    return [(classes[i][0], classes[i][1], f"w{i}") for i in order]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_root_search_matches_all_pairs_scan(seed, tol):
    classes = random_class_list(np.random.default_rng(seed), tol)
    notes, expected_notes = [], []
    got = primitive_decomposition(classes, tolerance=tol, notes=notes)
    expected = reference_primitive_decomposition(classes, tol, expected_notes)
    assert [
        (c.length, c.angle, c.multiplicity, c.primitive, c.word) for c in got
    ] == expected
    assert notes == expected_notes
    assert expected_notes, "no ambiguous root was generated"
    assert max(c.multiplicity for c in got) >= 6


def test_root_search_tolerance_edges():
    # the square of a root at 0.8 is found exactly when the root lies
    # within the tolerance, on either side of l/n
    tol = 1e-9
    for factor, squared in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        for sign in (1.0, -1.0):
            root = (0.8 + sign * tol * factor, 0.2, "r")
            power = primitive_decomposition([root, (1.6, 0.4, "p")], tol)[1]
            assert power.multiplicity == (2 if squared else 1)
