from __future__ import annotations

import json
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_workbench import (
    ClassColumns,
    EnumerationConfig,
    GroupPresentation,
    InvariantViolation,
    LengthSpectrum,
    NotLoxodromic,
    SchemaError,
    complex_length,
    enumerate_spectrum,
    parse_group_presentation,
    primitive_decomposition,
    wrap_angle,
)
from zeta_workbench.names import source_is_incomplete
from conftest import NOT_NUMBERS, TWO_LN_2, schottky_pair, with_literal


# helpers on numpy matrices, independent of the walk's own arithmetic


def word_matrix(pres, word):
    """Ordered product of generator matrices over the word's symbols, an
    inverse from np.linalg.inv."""
    by_name = {name: np.array(g, dtype=complex) for name, g in zip(pres.names, pres.generators)}
    acc = np.eye(2, dtype=complex)
    for sym in word:
        acc = acc @ (by_name[sym] if sym in by_name else np.linalg.inv(by_name[sym.swapcase()]))
    return acc


Class = namedtuple("Class", "length angle multiplicity word")


def classes(spectrum):
    """The spectrum's classes as records read off its columns."""
    columns = list(spectrum.length), list(spectrum.angle), list(spectrum.multiplicity)
    return [Class(*row) for row in zip(*columns, spectrum.words)]


def validate_words(spectrum, pres):
    """Each class word's matrix reproduces its stored (length, angle)."""
    for i, c in enumerate(classes(spectrum)):
        length, angle = complex_length(word_matrix(pres, c.word), word=c.word)
        assert abs(length - c.length) <= spectrum.tolerance, (i, c, length)
        assert abs(wrap_angle(angle - c.angle)) <= spectrum.tolerance, (i, c, angle)


def spectrum_is_incomplete(spectrum):
    return source_is_incomplete(spectrum.source)


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


def test_enumeration_config_refuses_a_cutoff_that_is_no_finite_number():
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InvariantViolation, match="length_cutoff must be positive and finite"):
            EnumerationConfig(3, bad)


def test_presentation_round_trip():
    pres = schottky_pair(3.0)
    doc = {
        "generators": [
            {"name": name, "matrix": [[z.real, z.imag] for row in mat for z in row]}
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


def test_presentation_nested_layout_reads_as_the_flat_one():
    pres = schottky_pair(3.0)

    def doc(layout):
        return {
            "generators": [
                {"name": name, "matrix": layout([[z.real, z.imag] for row in mat for z in row])}
                for name, mat in zip(pres.names, pres.generators)
            ],
            "includes_inverses": False,
        }

    flat = parse_group_presentation(doc(lambda pairs: pairs))
    nested = parse_group_presentation(doc(lambda pairs: [pairs[:2], pairs[2:]]))
    assert nested.names == flat.names
    for a, b in zip(nested.generators, flat.generators):
        np.testing.assert_array_equal(a, b)
    for layout in (lambda pairs: pairs[:3], lambda pairs: [p[0] for p in pairs]):
        with pytest.raises(SchemaError, match="four \\[re, im\\] pairs"):
            parse_group_presentation(doc(layout))


def test_presentation_refuses_what_is_no_finite_number():
    def doc(matrix):
        return {"generators": [{"name": "a", "matrix": matrix}], "includes_inverses": False}

    cases = [
        with_literal(doc([[2.0, 0.0], [0.0, "@"], [0.0, 0.0], [0.5, 0.0]]), literal)
        for literal in NOT_NUMBERS
    ]
    cases += [
        json.dumps(doc([[2.0, 0.0], [0.0], [0.0, 0.0], [0.5, 0.0]])),  # ragged
        with_literal(doc([[[2, 0], [0, 0]], [[0, 0], "@"]]), "NaN"),  # nested layout
    ]
    for text in cases:
        with pytest.raises(SchemaError, match="generator 0: field 'matrix'") as refused:
            parse_group_presentation(text)
        assert refused.value.exit_code == 2


def test_word_matrix_composition():
    pres = schottky_pair(3.0)
    a, b = np.array(pres.generators)
    np.testing.assert_allclose(word_matrix(pres, "ab"), a @ b)
    np.testing.assert_allclose(
        word_matrix(pres, "aB"), a @ np.linalg.inv(b), atol=1e-12
    )


# cyclic group ----------------------------------------------------------------


def test_cyclic_enumeration_exact(cyclic_presentation):
    # depth 6 words reach 6 * 2 ln 2 > 7, certifying the cutoff-7 listing
    config = EnumerationConfig(max_word_length=6, length_cutoff=7.0)
    spectrum = enumerate_spectrum(cyclic_presentation, config)
    lengths = list(spectrum.length)
    mults = list(spectrum.multiplicity)
    assert lengths == pytest.approx(
        [n * TWO_LN_2 for n in range(1, 6)], abs=1e-12
    )
    assert mults == [1, 2, 3, 4, 5]
    assert not spectrum_is_incomplete(spectrum)
    validate_words(spectrum, cyclic_presentation)


def test_cyclic_cutoff_truncates(cyclic_presentation):
    config = EnumerationConfig(max_word_length=5, length_cutoff=3.0)
    spectrum = enumerate_spectrum(cyclic_presentation, config)
    assert list(spectrum.multiplicity) == [1, 2]


def test_generator_and_inverse_are_two_classes():
    g = np.diag([2.0, 0.5]).astype(complex)
    pres = GroupPresentation(generators=(g,), names=("g",))
    config = EnumerationConfig(max_word_length=1, length_cutoff=3.0)
    spectrum = enumerate_spectrum(pres, config)
    assert len(spectrum.classes) == 2
    words = sorted(spectrum.words)
    assert words == ["G", "g"]
    assert spectrum.length[0] == pytest.approx(spectrum.length[1])


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
    for cls in classes(spectrum):
        mat = word_matrix(free_two_generator, cls.word)
        length, angle = complex_length(mat)
        assert length == pytest.approx(cls.length, abs=1e-9)
        assert angle == pytest.approx(cls.angle, abs=1e-9)


def test_classes_come_sorted_by_length_angle_word(free_two_generator):
    # many classes tie exactly in (length, angle), so the word decides
    spectrum = enumerate_spectrum(
        free_two_generator, EnumerationConfig(max_word_length=7, length_cutoff=30.0)
    )
    keys = list(zip(list(spectrum.length), list(spectrum.angle), spectrum.words))
    ties = sum(a[:2] == b[:2] for a, b in zip(keys, keys[1:]))
    assert ties > 10
    assert keys == sorted(keys)


def test_free_group_counts_conjugates_once(free_two_generator):
    config = EnumerationConfig(max_word_length=3, length_cutoff=20.0)
    spectrum = enumerate_spectrum(free_two_generator, config)
    words = spectrum.words
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
# necklaces and word periods on the free pair of test_criterion_10


def least_rotation(word):
    return min(word[i:] + word[:i] for i in range(len(word)))


def brute_force_necklaces(depth, alphabet="aAbB"):
    """Least rotations of all cyclically reduced words over the alphabet,
    where a letter cancels against its case partner if that is a letter."""
    inverse = {x: x.swapcase() for x in alphabet if x.swapcase() in alphabet}
    out = set()
    stack = list(alphabet)
    while stack:
        word = stack.pop()
        if len(word) == 1 or inverse.get(word[0]) != word[-1]:
            out.add(least_rotation(word))
        if len(word) < depth:
            stack.extend(word + x for x in alphabet if x != inverse.get(word[-1]))
    return out


def smallest_period(word):
    n = len(word)
    return next(p for p in range(1, n + 1) if n % p == 0 and word[p:] + word[:p] == word)


def over_alphabet(pair, alphabet):
    """The free pair for aAbB, a free triple for aAbBcC (c fixes -1/2 and
    -1, apart from the fixed points of a and b) and the monoid walk for ab."""
    if alphabet == "aAbBcC":
        m = np.array([[-1.0, 1.0], [1.0, -2.0]], dtype=complex)
        lam = 4.0 * np.exp(0.9j)
        c = m @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(m)
        return GroupPresentation(generators=(*pair.generators, c), names=("a", "b", "c"))
    if alphabet == "ab":
        return GroupPresentation(
            generators=pair.generators, names=("a", "b"), includes_inverses=True
        )
    return pair


@pytest.mark.parametrize(
    "alphabet, depth, count",
    [
        pytest.param("aAbB", 6, 234, id="6-234"),
        pytest.param("aAbB", 8, 1386, id="8-1386"),
        pytest.param("aAbB", 9, 3582, id="9-3582"),
        pytest.param("aAbBcC", 5, 868, id="three-generators-5-868"),
        # no case partners: one class per binary necklace of length 1-8
        pytest.param("ab", 8, 93, id="monoid-8-93"),
    ],
)
def test_one_class_per_necklace(free_two_generator, alphabet, depth, count):
    spectrum = enumerate_spectrum(
        over_alphabet(free_two_generator, alphabet),
        EnumerationConfig(max_word_length=depth, length_cutoff=30.0),
    )
    words = spectrum.words
    assert len(words) == count
    assert set(words) == brute_force_necklaces(depth, alphabet)
    for c in classes(spectrum):
        n = len(c.word) // smallest_period(c.word)
        assert c.multiplicity == n, c.word


def test_explicit_inverse_names_match_implicit(free_two_generator):
    def inverse(m):  # the adjugate over the determinant, as the walk inverts
        (a, b), (c, d) = m
        det = a * d - b * c
        return ((d / det, -b / det), (-c / det, a / det))

    a, b = free_two_generator.generators
    explicit = GroupPresentation(
        generators=(a, inverse(a), b, inverse(b)),
        names=("a", "A", "b", "B"),
        includes_inverses=True,
    )
    config = EnumerationConfig(max_word_length=7, length_cutoff=30.0)
    assert enumerate_spectrum(explicit, config) == enumerate_spectrum(
        free_two_generator, config
    )


def test_walk_memory_stays_near_result_size(free_two_generator):
    # the walk keeps a stack of prenecklaces, not every reduced word of a
    # depth (4 * 3**7 words and matrices at depth 8)
    config = EnumerationConfig(max_word_length=8, length_cutoff=30.0)
    enumerate_spectrum(free_two_generator, config)  # first-call allocations
    tracemalloc.start()
    try:
        spectrum = enumerate_spectrum(free_two_generator, config)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spectrum.classes) == 1386
    assert peak < 2 * result, (peak, result)


def test_planted_powers_and_reversal_pair(free_two_generator):
    spectrum = enumerate_spectrum(
        free_two_generator, EnumerationConfig(max_word_length=6, length_cutoff=30.0)
    )
    by_word = {c.word: c for c in classes(spectrum)}
    for word, power, root in (("abab", 2, "ab"), ("aBaBaB", 3, "aB"), ("bbb", 3, "b")):
        cls, root_cls = by_word[least_rotation(word)], by_word[least_rotation(root)]
        assert cls.multiplicity == power
        assert cls.length == pytest.approx(power * root_cls.length, abs=1e-9)
    # a word and its reversal share the trace, yet are two classes
    reversal = by_word["Baaba"], by_word["Babaa"]
    assert reversal[0].length == pytest.approx(reversal[1].length, abs=1e-12)
    assert wrap_angle(reversal[0].angle - reversal[1].angle) == pytest.approx(0.0, abs=1e-12)
    validate_words(spectrum, free_two_generator)


def test_not_loxodromic_names_a_shortest_word():
    # b is elliptic; in lexicographic order the walk meets AABB first
    rot = np.array([[np.cos(0.7), np.sin(0.7)], [-np.sin(0.7), np.cos(0.7)]])
    pres = GroupPresentation(generators=(np.diag([3.0, 1 / 3.0]), rot), names=("a", "b"))
    with pytest.raises(NotLoxodromic) as info:
        enumerate_spectrum(pres, EnumerationConfig(max_word_length=5, length_cutoff=30.0))
    assert info.value.word in ("b", "B")


def test_primitive_decomposition_period_rule():
    assert primitive_decomposition(["ab", "abab", "aaa", "abaab", "b"]) == [1, 2, 3, 1, 1]


def test_caseless_names_are_never_their_own_inverse(free_two_generator):
    # the monoid walk over a and b, and the same matrices named 1 and 2: a
    # caseless name has no case partner, so 11 is a word, not a cancellation
    config = EnumerationConfig(max_word_length=9, length_cutoff=30.0)
    lettered, digits = (
        enumerate_spectrum(
            GroupPresentation(
                generators=free_two_generator.generators, names=names, includes_inverses=True
            ),
            config,
        )
        for names in (("a", "b"), ("1", "2"))
    )
    rename = str.maketrans("ab", "12")
    renamed = LengthSpectrum(
        cutoff=lettered.cutoff,
        classes=ClassColumns(
            lettered.length, lettered.angle, lettered.multiplicity,
            [w.translate(rename) for w in lettered.words],
        ),
        tolerance=lettered.tolerance,
        volume=lettered.volume,
        source=lettered.source,
    )
    assert renamed == digits
    assert len(digits.classes) == 153
    # the free pair with implicit inverses is unchanged
    free = enumerate_spectrum(free_two_generator, config)
    assert len(free.classes) == 3582


# ---------------------------------------------------------------------------
# independent oracles: products and eigenvalues in mpmath at 30 digits, and
# the least rotations by brute force


def mp_complex_length(pres, word):
    """(2 ln|lam|, 2 arg lam) of the word's product, lam the eigenvalue of
    larger modulus, in mpmath at 30 digits from the exact generator entries."""
    import mpmath

    with mpmath.workdps(30):
        mats = {name: mpmath.matrix([[mpmath.mpc(z) for z in row] for row in g])
                for name, g in zip(pres.names, pres.generators)}
        acc = mpmath.eye(2)
        for sym in word:
            acc = acc * (mats[sym] if sym in mats else mats[sym.swapcase()] ** -1)
        tr = acc[0, 0] + acc[1, 1]
        disc = mpmath.sqrt(tr * tr / 4 - 1)
        lam = max(tr / 2 + disc, tr / 2 - disc, key=abs)
        return float(2 * mpmath.log(abs(lam))), float(2 * mpmath.arg(lam))


@pytest.mark.parametrize("seed", [11, 29])
def test_seeded_schottky_classes_match_mpmath_and_brute_force(seed):
    rng = np.random.default_rng(seed)
    pres = schottky_pair(
        3.0 * np.exp(1j * rng.uniform(0.2, 0.6)), 2.5 * np.exp(-1j * rng.uniform(0.5, 0.9))
    )
    for depth in (4, 6):
        # a cutoff past every word of the depth keeps every necklace
        spectrum = enumerate_spectrum(pres, EnumerationConfig(depth, length_cutoff=100.0))
        necklaces = brute_force_necklaces(depth)
        assert len(spectrum.words) == len(necklaces)
        assert set(spectrum.words) == necklaces
        for c in classes(spectrum):
            length, angle = mp_complex_length(pres, c.word)
            assert abs(c.length - length) <= 1e-12, c
            assert abs(wrap_angle(c.angle - angle)) <= 1e-12, c
            n = len(c.word) // smallest_period(c.word)
            assert c.multiplicity == n, c


def test_generators_take_any_indexable_2x2():
    # nested lists, tuples and numpy arrays give one presentation; any other
    # shape is no 2x2 matrix, and the determinant must be 1
    lam = 2.0 + 0.5j
    rows = [[lam, 0.0], [0.0, 1.0 / lam]]
    forms = (rows, tuple(map(tuple, rows)), np.array(rows))
    spectra = {
        enumerate_spectrum(
            GroupPresentation(generators=(g,), names=("g",)), EnumerationConfig(3, 30.0)
        ).classes
        for g in forms
    }
    assert len(spectra) == 1
    for bad in (np.eye(3), [lam, 0.0, 0.0, 1.0 / lam], [[lam, 0.0]], np.ones((2, 2, 2)), "ab"):
        with pytest.raises(InvariantViolation, match="generator 0 is not a 2x2 matrix"):
            GroupPresentation(generators=(bad,), names=("g",))
    with pytest.raises(InvariantViolation, match=r"determinant \(4\+0j\), expected 1"):
        GroupPresentation(generators=([[2.0, 0.0], [0.0, 2.0]],), names=("g",))
