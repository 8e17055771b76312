from __future__ import annotations

import json
import math
import random

import numpy as np
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
    WorkbenchError,
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tolerance", "1e-9", "'tolerance' must be a number"),
        ("tolerance", True, "'tolerance' must be a number"),
        ("volume", "1.0", "'volume' must be a number or null"),
        ("source", 7, "'source' must be a string"),
    ],
)
def test_parse_refuses_malformed_metadata(field, value, message):
    doc = {"dimension": 3, "cutoff": 2.0, "classes": [], field: value}
    with pytest.raises(SchemaError, match=message):
        parse_length_spectrum(doc)


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


# the columnwise parser against the per-class one ---------------------------

_ORACLE_FIELDS = {"length", "angle", "multiplicity", "primitive", "word"}


def _oracle_require(doc, key, types, where):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = doc[key]
    if not isinstance(val, types):
        raise SchemaError(f"{where}: field {key!r} has wrong type {type(val).__name__}")
    if isinstance(val, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"{where}: field {key!r} has wrong type bool")
    return val


def oracle_parse_classes(doc):
    """The per-class parser and validator the columns replaced: one
    GeodesicClass per class, each check a loop over the records."""
    classes = []
    for i, rc in enumerate(doc["classes"]):
        if not isinstance(rc, dict):
            raise SchemaError(f"class {i}: must be an object")
        where = f"class {i}"
        unknown = sorted(set(rc) - _ORACLE_FIELDS)
        if unknown:
            raise SchemaError(f"{where}: unknown field {unknown[0]!r}")
        length = float(_oracle_require(rc, "length", (int, float), where))
        angle = float(_oracle_require(rc, "angle", (int, float), where))
        mult = rc.get("multiplicity", 1)
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise SchemaError(f"{where}: field 'multiplicity' must be an integer")
        primitive = rc.get("primitive", mult == 1)
        if not isinstance(primitive, bool):
            raise SchemaError(f"{where}: field 'primitive' must be a boolean")
        word = rc.get("word")
        if word is not None and not isinstance(word, str):
            raise SchemaError(f"{where}: field 'word' must be a string or null")
        classes.append(GeodesicClass(length, angle, mult, primitive, word))

    cutoff, tol = float(doc["cutoff"]), doc.get("tolerance", 1e-9)
    prev = 0.0
    for i, c in enumerate(classes):
        if c.length > cutoff + tol:
            raise InvariantViolation(f"class {i} has length {c.length} above cutoff {cutoff}")
        if c.length < prev - tol:
            raise InvariantViolation(f"classes not sorted by length (index {i})")
        prev = max(prev, c.length)
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            b = classes[j]
            if b.length - a.length > tol:
                break
            if abs(wrap_angle(b.angle - a.angle)) <= tol and (
                a.word is None or b.word is None or a.word == b.word
            ):
                raise InvariantViolation(
                    f"classes {i} and {j} duplicate (length, angle) "
                    f"({a.length}, {a.angle}) without distinguishing words"
                )
    for i, c in enumerate(classes):
        n = c.multiplicity
        root_len = c.length / n
        if n == 1 or root_len > cutoff + tol:
            continue
        if not any(
            abs(r.length - root_len) <= tol
            and abs(wrap_angle(n * r.angle - c.angle)) <= tol * n + 1e-12
            for r in classes
        ):
            raise InvariantViolation(
                f"class {i} has multiplicity {n} but no root class of length "
                f"{root_len:.12g} with compatible angle is present"
            )
    return tuple(classes)


def seeded_document(rng):
    """A valid document: primitive classes, some worded, some sharing a
    (length, angle) with a partner of another word, and powers of a few
    with their roots present."""
    classes = []
    for index in range(rng.randint(8, 30)):
        length, angle = rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi)
        word = "".join(rng.choice("aAbB") for _ in range(8)) + str(index)
        classes.append({"length": length, "angle": angle, "word": word})
        if rng.random() < 0.3:
            classes.append({"length": length, "angle": angle, "word": word.swapcase()})
        elif rng.random() < 0.3:
            del classes[-1]["word"]
        if rng.random() < 0.3:
            n = rng.randint(2, 3)
            classes.append(
                {"length": n * length, "angle": wrap_angle(n * angle),
                 "multiplicity": n, "primitive": False}
            )
    classes.sort(key=lambda c: c["length"])
    return {"dimension": 3, "cutoff": classes[-1]["length"] + 0.5, "classes": classes}


def _corrupt(rng, doc, fault):
    """Put one fault of the given kind into a copy of doc; the class is
    drawn at random among those it can apply to."""
    doc = json.loads(json.dumps(doc))
    classes = doc["classes"]
    i = rng.randrange(len(classes))
    c = classes[i]
    if fault == "non-object":
        classes[i] = rng.choice([[1.0, 0.5], "class", 7, None])
    elif fault == "unknown field":
        c[rng.choice(["colour", "Length", "zeta"])] = 1
    elif fault in ("missing length", "missing angle"):
        del c[fault.split()[1]]
    elif fault == "bool multiplicity":
        c["multiplicity"] = rng.choice([True, False])
    elif fault == "non-bool primitive":
        c["primitive"] = rng.choice([1, 0, "yes", None])
    elif fault == "non-string word":
        c["word"] = rng.choice([7, 1.5, ["a"], True])
    elif fault == "nonpositive length":
        c["length"] = rng.choice([0, 0.0, -1.5])
    elif fault == "primitive mismatch":
        c["primitive"] = c.get("multiplicity", 1) != 1
    elif fault == "above cutoff":
        classes[-1]["length"] = doc["cutoff"] + 1e-6
    elif fault == "unsorted":
        classes.insert(i, dict(classes[-1], word="late"))
    elif fault == "duplicate without words":
        twin = dict(c)
        if "word" in twin and rng.random() < 0.5:
            del twin["word"]  # otherwise the twin repeats the word, or both lack one
        classes.insert(i + 1, twin)
    elif fault == "missing root":
        powers = [p for p in classes if p.get("multiplicity", 1) > 1]
        if not powers:
            return None
        power = rng.choice(powers)
        doc["classes"] = [
            r for r in classes
            if abs(r["length"] * power["multiplicity"] - power["length"]) > 1e-9
        ]
    return doc


FAULTS = (
    "non-object", "unknown field", "missing length", "missing angle",
    "bool multiplicity", "non-bool primitive", "non-string word",
    "nonpositive length", "primitive mismatch", "above cutoff", "unsorted",
    "duplicate without words", "missing root",
)


@pytest.mark.parametrize("fault", FAULTS)
def test_columnwise_parse_refuses_as_the_per_class_parser(fault):
    rng = random.Random(f"columns:{fault}")
    refused = 0
    for _ in range(25):
        doc = _corrupt(rng, seeded_document(rng), fault)
        if doc is None:
            continue
        with pytest.raises(WorkbenchError) as expected:
            oracle_parse_classes(doc)
        with pytest.raises(type(expected.value)) as got:
            parse_length_spectrum(doc)
        assert str(got.value) == str(expected.value)
        refused += 1
    assert refused >= 10


def test_columnwise_parse_reads_as_the_per_class_parser():
    rng = random.Random("columns:valid")
    for _ in range(25):
        doc = seeded_document(rng)
        records = oracle_parse_classes(doc)
        spectrum = parse_length_spectrum(doc)
        assert np.array_equal(spectrum.length, [c.length for c in records])
        assert np.array_equal(spectrum.angle, [c.angle for c in records])
        assert np.array_equal(spectrum.multiplicity, [c.multiplicity for c in records])
        assert spectrum.words == tuple(c.word for c in records)
        assert len(spectrum.classes) == len(records)
        assert tuple(spectrum.classes) == records
        assert spectrum == LengthSpectrum(3, spectrum.cutoff, records)


def test_columnwise_parse_refuses_the_first_of_two_faulty_classes():
    # the columns are checked field by field, yet a later class with an
    # earlier-checked fault must not hide an earlier class
    rng = random.Random("columns:two faults")
    for _ in range(60):
        doc = seeded_document(rng)
        for fault in rng.sample(FAULTS[:9], 2):
            doc = _corrupt(rng, doc, fault)
        with pytest.raises(WorkbenchError) as expected:
            oracle_parse_classes(doc)
        with pytest.raises(type(expected.value)) as got:
            parse_length_spectrum(doc)
        assert str(got.value) == str(expected.value)


def test_parse_refuses_a_multiplicity_beyond_64_bits():
    doc = {"dimension": 3, "cutoff": 2.0, "classes": [
        {"length": 1.0, "angle": 0.5},
        {"length": 1.5, "angle": 0.5, "multiplicity": 2**70, "primitive": False},
    ]}
    with pytest.raises(SchemaError, match="class 1: field 'multiplicity' is out of range"):
        parse_length_spectrum(doc)
