from __future__ import annotations

import json
import math
import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeta_workbench import (
    ClassColumns,
    DiracSpectrum,
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
from zeta_workbench import eigenvalues
from zeta_workbench.eigenvalues import EIGENVALUE_TOL, merge_groups
from conftest import NOT_NUMBERS, with_literal


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


# LengthSpectrum ------------------------------------------------------------


def test_class_invariants():
    # the class rules are checked on the columns, and the refusal names
    # the first faulty class
    def spectrum(length, angle, multiplicity=(1, 1)):
        columns = ClassColumns(length, angle, multiplicity, (None,) * len(length))
        return LengthSpectrum(cutoff=2.5, classes=columns)

    cases = [
        (([1.0, 1.5], [0.0, 0.5], [1, 0]), "class 1 has multiplicity 0"),
        (([0.0, 1.5], [0.0, 0.5]), "class 0 has length 0.0"),
        (([1.0, math.nan], [0.0, 0.5]), "class 1 has length nan"),
        # a negative first length once read "classes not sorted"
        (([-1.0, 1.5], [0.0, 0.5]), "class 0 has length -1.0"),
    ]
    for columns, refusal in cases:
        with pytest.raises(InvariantViolation, match=refusal):
            spectrum(*columns)
    # the columns read back as they were given
    spec = spectrum([1.0, 2.0], [0.3, 0.6], [1, 2])
    assert (spec.length.tolist(), spec.angle.tolist(), spec.multiplicity.tolist()) == (
        [1.0, 2.0], [0.3, 0.6], [1, 2]
    )


def test_spectrum_is_built_from_class_columns_only():
    records = ({"length": 1.0, "angle": 0.0},)
    for classes in (records, list(records), ()):
        with pytest.raises(InvariantViolation, match="classes must be ClassColumns"):
            LengthSpectrum(cutoff=2.0, classes=classes)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_class_angle_must_be_finite(angle):
    # a NaN angle gave log_zeta nan+nanj with a finite tail bound
    columns = ClassColumns([1.0, 1.3], [0.2, angle])
    with pytest.raises(InvariantViolation, match="class 1 has angle .*; it must be finite"):
        LengthSpectrum(cutoff=2.0, classes=columns)


def test_class_columns_must_have_equal_lengths():
    # these were accepted, and log_zeta failed later on a numpy broadcast
    columns = ClassColumns([1.0, 1.3], [0.2, 0.5, 0.9], [1, 1], ["a", "b"])
    with pytest.raises(InvariantViolation, match="class 2 is missing from a column: .*'angle': 3"):
        LengthSpectrum(cutoff=2.0, classes=columns)
    columns = ClassColumns([1.0, 1.3], [0.2, 0.5], [1, 1], ["a"])
    with pytest.raises(InvariantViolation, match="class 1 is missing from a column: .*'words': 1"):
        LengthSpectrum(cutoff=2.0, classes=columns)


def test_spectrum_orders_and_cutoff():
    with pytest.raises(InvariantViolation):
        LengthSpectrum(cutoff=0.5, classes=ClassColumns([1.0], [0.0]))
    # the model is d = 3; another dimension is a schema violation
    with pytest.raises(SchemaError, match="dimension must be 3"):
        parse_length_spectrum({"dimension": 4, "cutoff": 2.0, "classes": []})
    # unsorted lengths are refused
    with pytest.raises(InvariantViolation):
        LengthSpectrum(cutoff=2.0, classes=ClassColumns([1.5, 1.0], [0.0, 0.1]))


def test_nonprimitive_needs_root():
    LengthSpectrum(cutoff=2.5, classes=ClassColumns([1.0, 2.0], [0.3, wrap_angle(0.6)], [1, 2]))
    with pytest.raises(InvariantViolation):
        LengthSpectrum(cutoff=2.5, classes=ClassColumns([2.0], [wrap_angle(0.6)], [2]))
    # wrong angle relation also fails
    with pytest.raises(InvariantViolation):
        LengthSpectrum(cutoff=2.5, classes=ClassColumns([1.0, 2.0], [0.3, 1.9], [1, 2]))


def test_equal_length_angle_needs_distinct_words():
    LengthSpectrum(cutoff=2.0, classes=ClassColumns([1.0, 1.0], [0.5, 0.5], words=("g", "G")))
    with pytest.raises(InvariantViolation):
        LengthSpectrum(cutoff=2.0, classes=ClassColumns([1.0, 1.0], [0.5, 0.5]))
    # equal within the tolerance, inclusive: exactly tol apart is equal too
    tol = 2.0**-30
    columns = ClassColumns([1.0, 1.0 + tol], [0.5, 0.5 + tol])
    with pytest.raises(InvariantViolation, match="classes 0 and 1 duplicate"):
        LengthSpectrum(cutoff=2.0, classes=columns, tolerance=tol)


# parsing / serialization ---------------------------------------------------


def test_length_spectrum_round_trip(toy_spectrum):
    text = serialize_length_spectrum(toy_spectrum)
    back = parse_length_spectrum(text)
    assert json.loads(text)["dimension"] == 3
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
    with pytest.raises(InvariantViolation, match="entry 0 has multiplicity 0"):
        DiracSpectrum(entries=((1.0, 0),))
    with pytest.raises(InvariantViolation, match="entry 1 has multiplicity 0"):
        DiracSpectrum(entries=((2.0, 1), (1.0, 0)))
    # a NaN entry built in code was accepted, and the catalog dropped it
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, -math.inf)):
        with pytest.raises(InvariantViolation, match="entry 0 has eigenvalue .*; it must be finite"):
            DiracSpectrum(((bad, 1), (1.0, 2)))
    # an exact repeat is one eigenvalue, as any two entries closer than 1e-12
    assert DiracSpectrum(entries=((1.0, 1), (1.0, 2))).entries == ((1.0, 3),)


def test_merge_groups_compares_only_the_distinct_values(monkeypatch):
    # only the distinct values reach the all-pairs scan and the greedy loop,
    # so n repeats of one value cost no n**2 comparisons
    near, seen = eigenvalues._near, []

    def spy(queries, values, tol):
        seen.append((queries.size, values.size))
        return near(queries, values, tol)

    monkeypatch.setattr(eigenvalues, "_near", spy)
    spec = DiracSpectrum([(1.0, 1)] * 5 + [(2.0, 2)] + [(1.0, 1)] * 3 + [(2.0, 1)])
    assert spec.entries == ((1.0, 8), (2.0, 3))
    assert seen == [(2, 2)]


def greedy_groups(values):
    """merge_groups by its rule, in plain Python: in order, a value joins
    the first kept value closer than EIGENVALUE_TOL, or else is kept."""
    kept, column = [], []
    for j, v in enumerate(values):
        for pos, i in enumerate(kept):
            if abs(values[i] - v) < EIGENVALUE_TOL:
                column.append(pos)
                break
        else:
            column.append(len(kept))
            kept.append(j)
    return kept, column


_CENTRES = (0.0, -0.0, complex(0.0, -0.0), 1.0, -1.0, 1.5 + 0.2j, -1.5 - 0.2j)
_OFFSETS = (0.0, -0.0, 3e-13, -3e-13, 6e-13, 9e-13, 1e-12, 2e-12, 3e-13j, -7e-13j, 1.1e-12j)


@given(st.lists(st.tuples(st.sampled_from(_CENTRES), st.sampled_from(_OFFSETS)), max_size=40))
def test_merge_groups_is_the_greedy_rule(draws):
    # repeats, signed zeros and clusters a few 1e-13 apart, where the
    # greedy order decides which values join which
    values = [complex(c) + o for c, o in draws]
    kept, column = merge_groups(np.array(values, dtype=complex))
    assert (kept.tolist(), column.tolist()) == greedy_groups(values)


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


# the one-pass parser against the per-class one -----------------------------

_ORACLE_FIELDS = {"length", "angle", "multiplicity", "primitive", "word"}
OracleClass = namedtuple("OracleClass", "length angle multiplicity word")


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
    """A per-class parser and validator, independent of the reader: one
    OracleClass record per class, each check a loop over the records."""
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
        if not length > 0:
            raise InvariantViolation(f"{where} has length {length}; it must be positive")
        if mult < 1:
            raise InvariantViolation(f"{where} has multiplicity {mult}; it must be >= 1")
        if primitive != (mult == 1):
            raise InvariantViolation(
                f"{where}: primitive flag must hold exactly when multiplicity is 1 "
                f"(multiplicity={mult}, primitive={primitive})"
            )
        classes.append(OracleClass(length, angle, mult, word))

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
        columns = ClassColumns(
            [c.length for c in records], [c.angle for c in records],
            [c.multiplicity for c in records], [c.word for c in records],
        )
        assert spectrum == LengthSpectrum(spectrum.cutoff, columns)


def test_columnwise_parse_refuses_the_first_of_two_faulty_classes():
    # a later class whose fault is in a field checked earlier must not
    # hide an earlier faulty class: the first faulty class is refused
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


def _validated(doc) -> str:
    """Build the spectrum of doc's classes from columns, so that only the
    validator checks them, and require the per-class oracle's verdict:
    "accepted", or the same refusal."""
    classes = doc["classes"]
    columns = ClassColumns(
        [c["length"] for c in classes], [c["angle"] for c in classes],
        [c.get("multiplicity", 1) for c in classes], [c.get("word") for c in classes],
    )
    try:
        oracle_parse_classes(doc)
    except WorkbenchError as expected:
        with pytest.raises(type(expected)) as got:
            LengthSpectrum(doc["cutoff"], columns)
        assert str(got.value) == str(expected)
        (rule,) = [rule for rule in _RULES if rule in str(expected)]
        return rule
    LengthSpectrum(doc["cutoff"], columns)
    return "accepted"


_RULES = ("above cutoff", "not sorted", "duplicate", "no root")


def test_validator_agrees_with_the_per_class_oracle():
    rng = random.Random("columns:validator")
    verdicts = []
    for fault in (None, "above cutoff", "unsorted", "duplicate without words", "missing root"):
        for _ in range(25):
            doc = seeded_document(rng)
            doc = doc if fault is None else _corrupt(rng, doc, fault)
            if doc is not None:
                verdicts.append(_validated(doc))
    assert set(verdicts) == {"accepted", *_RULES}


def dumped(spec) -> str:
    """The document of spec as one json.dumps with sorted keys writes it."""
    columns = spec.length.tolist(), spec.angle.tolist(), spec.multiplicity.tolist(), spec.words
    document = {
        "dimension": 3, "cutoff": spec.cutoff, "tolerance": spec.tolerance,
        "volume": spec.volume, "source": spec.source,
        "classes": [
            {"length": l, "angle": a, "multiplicity": n, "primitive": n == 1, "word": w}
            for l, a, n, w in zip(*columns)
        ],
    }
    return json.dumps(document, sort_keys=True) + "\n"


@pytest.mark.parametrize("volume", [None, 2.5])
def test_serialized_bytes_are_those_of_json_dumps(volume):
    # words that json escapes, absent words and a -0.0 angle in every document
    rng = random.Random(f"serialize:{volume}")
    texts = []
    for _ in range(25):
        doc = seeded_document(rng)
        for c in doc["classes"]:
            if "word" in c:
                c["word"] = rng.choice(['say "', "back\\slash", "ä→\U0001d400", "\t\x00", ""]) + c["word"]
        last = doc["classes"][-1]["length"]
        doc["classes"].append({"length": last + 0.25, "angle": -0.0, "word": "z"})
        doc.update(volume=volume, source='walk "é" \\ done')
        spec = parse_length_spectrum(doc)
        texts.append(serialize_length_spectrum(spec))
        assert texts[-1] == dumped(spec)
    text = "".join(texts)
    for written in ('say \\"', "back\\\\slash", "\\u00e4\\u2192\\ud835\\udc00", "\\t\\u0000",
                    '"word": null', '"angle": -0.0'):
        assert written in text


def test_serialized_bytes_with_an_infinite_length():
    # a cutoff of inf admits a class of length inf, which json spells Infinity
    spec = LengthSpectrum(cutoff=math.inf, classes=ClassColumns([1.0, math.inf], [0.5, -0.0]))
    assert serialize_length_spectrum(spec) == dumped(spec)
    assert '"length": Infinity' in dumped(spec)


def near_document(rng):
    """Classes in clusters whose lengths lie 1e-10 apart, over up to 15
    steps, so that the close pairs of a class end inside its cluster at
    tol = 1e-9; angles equal, within tol (across the seam at pi too) or
    not; words shared, absent or distinct; powers whose roots lie within
    tol or just past it, and adjacent classes swapped now and then."""
    classes, shared = [], [None, "u"] if rng.random() < 0.4 else []
    for cluster in range(rng.randint(3, 8)):
        base, centre = rng.uniform(0.5, 3.0), rng.choice([rng.uniform(-3.0, 3.0), math.pi - 2e-10])
        members = []
        for k in rng.sample(range(16), rng.randint(2, 6)):
            offset = rng.choice([0.0, 4e-10, 5e-10, -8e-10, 2e-9])
            word = rng.choice(shared + [f"w{cluster}.{k}"] * 4)
            members.append({"length": base + k * 1e-10, "angle": wrap_angle(centre + offset),
                            "word": word})
        classes += members
        if rng.random() < 0.6:
            n, root = rng.randint(2, 3), rng.choice(members)
            classes.append({
                "length": n * root["length"] + rng.choice([0.0, 3e-10, 1.5e-9 * n]),
                "angle": wrap_angle(n * root["angle"] + rng.choice([0.0, 1e-9, 5e-9])),
                "multiplicity": n, "primitive": False,
            })
    classes.sort(key=lambda c: c["length"])
    if rng.random() < 0.3:
        i = rng.randrange(len(classes) - 1)
        classes[i], classes[i + 1] = classes[i + 1], classes[i]
    return {"dimension": 3, "cutoff": classes[-1]["length"] + 0.5, "classes": classes}


def test_validator_agrees_with_the_oracle_on_lengths_1e_10_apart():
    rng = random.Random("columns:near")
    verdicts = [_validated(near_document(rng)) for _ in range(300)]
    # each rule refuses some documents, and some pass every rule
    for verdict in ("accepted", "not sorted", "duplicate", "no root"):
        assert verdicts.count(verdict) >= 10, (verdict, verdicts.count(verdict))


def test_parse_refuses_a_multiplicity_beyond_64_bits():
    doc = {"dimension": 3, "cutoff": 2.0, "classes": [
        {"length": 1.0, "angle": 0.5},
        {"length": 1.5, "angle": 0.5, "multiplicity": 2**70, "primitive": False},
    ]}
    with pytest.raises(SchemaError, match="class 1: field 'multiplicity' is out of range"):
        parse_length_spectrum(doc)


# the one number rule -------------------------------------------------------


def test_length_spectrum_refuses_what_is_no_finite_number():
    def doc(**fields):
        classes = [{"length": 1.0, "angle": 0.5}, {"length": 1.5, "angle": 0.25}]
        classes[1].update(fields.pop("second", {}))
        return {"dimension": 3, "cutoff": 2.0, "classes": classes, **fields}

    cases = [
        (doc(cutoff="@"), "spectrum: field 'cutoff'"),
        (doc(tolerance="@"), "spectrum: field 'tolerance'"),
        (doc(volume="@"), "spectrum: field 'volume'"),
        (doc(second={"length": "@"}), "class 1: field 'length'"),
        (doc(second={"angle": "@"}), "class 1: field 'angle'"),
    ]
    for template, field in cases:
        for literal in NOT_NUMBERS:
            with pytest.raises(SchemaError, match=field) as refused:
                parse_length_spectrum(with_literal(template, literal))
            assert refused.value.exit_code == 2
    # an int literal past Python's digit limit fails in the JSON decoder
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_length_spectrum(with_literal(doc(cutoff="@"), "1" * 5000))


def test_eigenvalue_spectrum_refuses_what_is_no_finite_number():
    for key in ("re", "im"):
        entry = {"re": 1.0, "im": 0.5, "multiplicity": 1}
        template = {"entries": [{"re": 2.0, "im": 0.0, "multiplicity": 1}, {**entry, key: "@"}]}
        for literal in NOT_NUMBERS:
            with pytest.raises(SchemaError, match=f"entry 1: field '{key}'") as refused:
                parse_eigenvalue_spectrum(with_literal(template, literal))
            assert refused.value.exit_code == 2
