from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeta_workbench import (
    DiracSpectrum,
    GeodesicClass,
    InvariantViolation,
    LaplaceSpectrum,
    LengthSpectrum,
    SchemaError,
    parse_eigenvalue_spectrum,
    parse_length_spectrum,
    serialize_eigenvalue_spectrum,
    serialize_length_spectrum,
    square_spectrum,
    super_multiplicity,
    wrap_angle,
)


# wrap_angle ----------------------------------------------------------------


def test_wrap_angle_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    # the seam maps to +pi, not -pi
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_wrap_angle_range_and_congruence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi + 1e-15
    # congruent modulo 2 pi
    k = round((theta - w) / (2 * math.pi))
    assert abs(theta - w - 2 * math.pi * k) < 1e-6


@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_wrap_angle_identity_inside(theta):
    if -math.pi < theta <= math.pi:
        assert wrap_angle(theta) == pytest.approx(theta, abs=1e-15)


# GeodesicClass -------------------------------------------------------------


def test_class_invariants():
    with pytest.raises(InvariantViolation):
        GeodesicClass(length=0.0, angle=0.0)
    with pytest.raises(InvariantViolation):
        GeodesicClass(length=1.0, angle=0.0, multiplicity=0)
    with pytest.raises(InvariantViolation):
        GeodesicClass(length=1.0, angle=0.0, multiplicity=2, primitive=True)
    with pytest.raises(InvariantViolation):
        GeodesicClass(length=1.0, angle=0.0, multiplicity=1, primitive=False)


def test_spectrum_orders_and_cutoff():
    with pytest.raises(InvariantViolation):
        LengthSpectrum(
            dimension=3,
            cutoff=0.5,
            classes=(GeodesicClass(length=1.0, angle=0.0),),
        )
    # the model is d = 3; another dimension is a schema violation
    with pytest.raises(SchemaError, match="dimension must be 3"):
        parse_length_spectrum({"dimension": 4, "cutoff": 2.0, "classes": []})
    # unsorted lengths are refused
    with pytest.raises(InvariantViolation):
        LengthSpectrum(
            dimension=3,
            cutoff=2.0,
            classes=(
                GeodesicClass(length=1.5, angle=0.0),
                GeodesicClass(length=1.0, angle=0.1),
            ),
        )


def test_nonprimitive_needs_root():
    root = GeodesicClass(length=1.0, angle=0.3)
    ok = GeodesicClass(
        length=2.0, angle=wrap_angle(0.6), multiplicity=2, primitive=False
    )
    LengthSpectrum(dimension=3, cutoff=2.5, classes=(root, ok))
    with pytest.raises(InvariantViolation):
        LengthSpectrum(dimension=3, cutoff=2.5, classes=(ok,))
    # wrong angle relation also fails
    bad = GeodesicClass(length=2.0, angle=1.9, multiplicity=2, primitive=False)
    with pytest.raises(InvariantViolation):
        LengthSpectrum(dimension=3, cutoff=2.5, classes=(root, bad))


def test_equal_length_angle_needs_distinct_words():
    a = GeodesicClass(length=1.0, angle=0.5, word="g")
    b = GeodesicClass(length=1.0, angle=0.5, word="G")
    LengthSpectrum(dimension=3, cutoff=2.0, classes=(a, b))
    anon = GeodesicClass(length=1.0, angle=0.5)
    with pytest.raises(InvariantViolation):
        LengthSpectrum(dimension=3, cutoff=2.0, classes=(anon, anon))


# parsing / serialization ---------------------------------------------------


def test_length_spectrum_round_trip(toy_spectrum):
    text = serialize_length_spectrum(toy_spectrum)
    back = parse_length_spectrum(text)
    assert back.dimension == toy_spectrum.dimension
    assert back.cutoff == toy_spectrum.cutoff
    assert back.volume == toy_spectrum.volume
    assert back.classes == toy_spectrum.classes
    # a second round trip is byte-identical
    assert serialize_length_spectrum(back) == text


def test_parse_rejects_malformed():
    with pytest.raises(SchemaError):
        parse_length_spectrum("{not json")
    with pytest.raises(SchemaError):
        parse_length_spectrum({"dimension": 3})
    with pytest.raises(SchemaError):
        parse_length_spectrum(
            {
                "dimension": 3,
                "cutoff": 2.0,
                "classes": [{"length": "one", "angle": 0.0}],
            }
        )
    # booleans are not numbers
    with pytest.raises(SchemaError):
        parse_length_spectrum(
            {"dimension": 3, "cutoff": True, "classes": []}
        )


def test_parse_reports_field_name():
    try:
        parse_length_spectrum({"dimension": 3, "cutoff": 2.0, "classes": [{"angle": 0.0}]})
    except SchemaError as exc:
        assert "length" in str(exc)
    else:
        pytest.fail("expected SchemaError")


# eigenvalue spectra --------------------------------------------------------


def test_eigenvalue_round_trip():
    spec = DiracSpectrum(entries=((complex(1.0, 0.2), 2), (-1.5, 1)))
    text = serialize_eigenvalue_spectrum(spec)
    back = parse_eigenvalue_spectrum(json.loads(text), kind="dirac")
    assert back.entries == spec.entries


def test_eigenvalue_validation():
    with pytest.raises(InvariantViolation):
        DiracSpectrum(entries=((1.0, 0),))
    with pytest.raises(InvariantViolation):
        DiracSpectrum(entries=((1.0, 1), (1.0, 2)))


def test_square_spectrum_merges():
    dirac = DiracSpectrum(entries=((1.0, 2), (-1.0, 1), (2.0, 3)))
    lap = square_spectrum(dirac)
    assert isinstance(lap, LaplaceSpectrum)
    as_dict = {ev: m for ev, m in lap.entries}
    assert as_dict == {complex(1.0): 3, complex(4.0): 3}


def test_super_multiplicity_antisymmetric():
    dirac = DiracSpectrum(entries=((1.0, 2), (-1.0, 1), (0.5, 4)))
    assert super_multiplicity(dirac, 1.0) == 1
    assert super_multiplicity(dirac, -1.0) == -1
    assert super_multiplicity(dirac, 0.5) == 4
    assert super_multiplicity(dirac, -0.5) == -4
    assert super_multiplicity(dirac, 7.0) == 0


@given(
    st.lists(
        st.tuples(
            st.integers(-5, 5).filter(lambda x: x != 0), st.integers(1, 4)
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_super_multiplicity_is_odd_function(entries):
    dirac = DiracSpectrum(entries=tuple((complex(e), m) for e, m in entries))
    for ev, _ in dirac.entries:
        assert super_multiplicity(dirac, ev) == -super_multiplicity(dirac, -ev)
