"""End-to-end tests of the command-line interface.

Each test drives cli.main() directly with argv lists and checks the exit
code contract: 0 success, 2 schema, 3 non-loxodromic, 4 convergence,
5 verification failure, 6 parity violation, 7 singular grid point,
1 other workbench errors.
"""

import cmath
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeta_workbench
from zeta_workbench import cache, cli, errors, verify, zeta
from zeta_workbench.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path / "cache"))


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def spectrum_doc(classes, volume=1.0, cutoff=2.0):
    return {
        "dimension": 3,
        "cutoff": cutoff,
        "volume": volume,
        "classes": [
            {"length": l, "angle": a, "multiplicity": m, "primitive": m == 1}
            for (l, a, m) in classes
        ],
    }


TOY_CLASSES = [(1.0, 0.7, 1), (1.3, -2.1, 1), (1.7, 2.9, 1)]


def toy_spectrum_path(tmp_path):
    return write_json(tmp_path, "toy.json", spectrum_doc(TOY_CLASSES))


def cyclic_presentation_doc():
    return {
        "generators": [{"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}],
        "includes_inverses": True,
    }


def cache_entry(document: str) -> str:
    """What an enumerate cache entry holds: the summary of the document as
    one line of JSON, then the document."""
    doc = json.loads(document)
    lengths = [c["length"] for c in doc["classes"]]
    summary = {"classes": len(lengths), "min_length": min(lengths, default=None),
               "max_length": max(lengths, default=None), "source": doc["source"]}
    return json.dumps(summary, sort_keys=True) + "\n" + document


def eigen_doc(entries):
    return {"entries": [{"re": re, "im": im, "multiplicity": m} for (re, im, m) in entries]}


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_summary_and_output(tmp_path, capsys):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    out = tmp_path / "spec.json"
    # depth-3 words reach 3*2ln2 = 4.159 > 4.0, so the walk provably covers
    # everything under the cutoff and the summary reports completeness
    code = main(
        ["enumerate", "--presentation", pres, "--max-word-length", "3",
         "--cutoff", "4.0", "--output", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "classes: 2" in captured.out
    assert "cache key:" in captured.out
    assert "complete up to cutoff: yes" in captured.out
    doc = json.loads(out.read_text())
    lengths = sorted(c["length"] for c in doc["classes"])
    for n, length in enumerate(lengths, start=1):
        assert length == pytest.approx(n * 2.0 * math.log(2.0), abs=1e-12)


def test_enumerate_reports_possible_truncation(tmp_path, capsys):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    # cutoff 5.0 exceeds the deepest explored word (4.159), so completeness
    # cannot be certified and the summary must say so
    code = main(
        ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    )
    assert code == 0
    assert "complete up to cutoff: no" in capsys.readouterr().out


def test_enumerate_reruns_are_byte_identical(tmp_path, capsys):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    assert main(argv + ["--output", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--output", str(out2)]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first == second


def test_enumerate_cache_miss_and_hit_agree(tmp_path, capsys, monkeypatch):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    miss_out, hit_out = tmp_path / "miss.json", tmp_path / "hit.json"
    assert main(argv + ["--output", str(miss_out)]) == 0
    miss = capsys.readouterr().out
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1

    def no_walk(*args, **kwargs):
        raise AssertionError("a cache hit must not walk the group")

    monkeypatch.setattr(cli, "enumerate_spectrum", no_walk)
    assert main(argv + ["--output", str(hit_out)]) == 0
    assert capsys.readouterr().out == miss
    assert hit_out.read_bytes() == miss_out.read_bytes()


def test_enumerate_unreadable_cache_entry_is_a_miss(tmp_path, capsys):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(argv + ["--output", str(first)]) == 0
    summary = capsys.readouterr().out
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_text('{"classes": [', encoding="utf-8")
    assert main(argv + ["--output", str(second)]) == 0
    assert capsys.readouterr().out == summary
    assert second.read_bytes() == first.read_bytes()
    assert cache.load(entry.stem) == cache_entry(first.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fault", ["empty object", "wrong dimension"])
def test_enumerate_cache_entry_that_is_no_spectrum_is_a_miss(tmp_path, capsys, fault):
    # valid JSON without the digest line of its text is walked again and
    # rewritten, not served as a schema error on every later call
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    cold = tmp_path / "cold.json"
    assert main(argv + ["--output", str(cold)]) == 0
    summary = capsys.readouterr().out
    (entry,) = (tmp_path / "cache").glob("*.json")
    foreign = {} if fault == "empty object" else dict(json.loads(cold.read_text()), dimension=5)
    entry.write_text(json.dumps(foreign), encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == summary
    assert cache.load(entry.stem) == cache_entry(cold.read_text(encoding="utf-8"))


def test_enumerate_old_layout_entry_is_rewritten_once(tmp_path, capsys, monkeypatch):
    # an entry without a digest line, as version 4 wrote it, is walked
    # again once; the rewritten entry is a hit from then on
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    cold = tmp_path / "cold.json"
    assert main(argv + ["--output", str(cold)]) == 0
    summary = capsys.readouterr().out
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_bytes(cold.read_bytes())
    walks = []
    walk = cli.enumerate_spectrum
    monkeypatch.setattr(cli, "enumerate_spectrum", lambda *a: walks.append(a) or walk(*a))
    for _ in range(3):
        assert main(argv) == 0
        assert capsys.readouterr().out == summary
    assert len(walks) == 1
    assert cache.load(entry.stem) == cache_entry(cold.read_text(encoding="utf-8"))


def test_enumerate_cache_hit_parses_nothing(tmp_path, capsys, monkeypatch):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    argv = ["enumerate", "--presentation", pres, "--max-word-length", "3", "--cutoff", "5.0"]
    miss_out, hit_out = tmp_path / "miss.json", tmp_path / "hit.json"
    assert main(argv + ["--output", str(miss_out)]) == 0
    miss = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit must not parse or walk")

    for name in ("parse_group_presentation", "parse_length_spectrum", "enumerate_spectrum"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv + ["--output", str(hit_out)]) == 0
    hit = capsys.readouterr()
    assert (hit.out, hit.err) == (miss.out, miss.err)
    assert hit_out.read_bytes() == miss_out.read_bytes()


def test_enumerate_unusable_cache_directory_warns_and_answers(tmp_path, capsys, monkeypatch):
    # a cache directory under a regular file cannot be made: the walk's
    # answer is still written, with one warning
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("ZETA_CACHE_DIR", str(blocker / "sub"))
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    out = tmp_path / "spec.json"
    assert main(["enumerate", "--presentation", pres, "--max-word-length", "3",
                 "--cutoff", "4.0", "--output", str(out)]) == 0
    captured = capsys.readouterr()
    (warning,) = captured.err.splitlines()
    assert warning.startswith("warning: cannot write the cache entry")
    assert "classes: 2" in captured.out
    assert len(json.loads(out.read_text())["classes"]) == 2


def test_enumerate_cache_key_is_pinned(tmp_path, capsys):
    # the key hashes the decoded presentation, so key order and layout in
    # the file do not matter; its version field keeps caches written
    # before one class per necklace (version 2: before the one-line
    # document, version 3: with the shared-complex-length count, version
    # 4: before the finite-number rule, version 5: with ints hashed as
    # written, version 6: an entry without its summary line) from being
    # served
    pinned = "cache key: a0312a6f6126a3603e74c643a02549376594e8a51bf4c086e43e90eb97701f7e"
    doc = cyclic_presentation_doc()
    compact = write_json(tmp_path, "compact.json", doc)
    reordered = tmp_path / "reordered.json"
    reordered.write_text(
        json.dumps(dict(reversed(list(doc.items()))), indent=4), encoding="utf-8"
    )
    for path in (compact, str(reordered)):
        argv = ["enumerate", "--presentation", path, "--max-word-length", "3",
                "--cutoff", "4.0"]
        assert main(argv) == 0
        assert pinned in capsys.readouterr().out.splitlines()


# the matrix of cyclic_presentation_doc with its numbers written as ints
INT_WRITTEN = (
    '{"generators": [{"name": "a", "matrix": [[2, 0], [-0, 0], [0, 0], [0.5, 0]]}], '
    '"includes_inverses": true}'
)


def test_enumerate_int_and_float_written_numbers_share_one_entry(tmp_path, capsys, monkeypatch):
    ints = tmp_path / "ints.json"
    ints.write_text(INT_WRITTEN, encoding="utf-8")
    floats = write_json(tmp_path, "floats.json", cyclic_presentation_doc())
    argv = ["--max-word-length", "3", "--cutoff", "5.0"]
    assert main(["enumerate", "--presentation", str(ints)] + argv) == 0
    miss = capsys.readouterr().out

    def no_walk(*args, **kwargs):
        raise AssertionError("a float-written copy must hit the int-written entry")

    monkeypatch.setattr(cli, "enumerate_spectrum", no_walk)
    assert main(["enumerate", "--presentation", floats] + argv) == 0
    assert capsys.readouterr().out == miss
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def test_enumerate_bool_written_number_never_hits(tmp_path, capsys):
    # false is not 0 to the reader, so it must not share the entry of 0:
    # a hit would serve the spectrum without the refusal
    ints = tmp_path / "ints.json"
    ints.write_text(INT_WRITTEN, encoding="utf-8")
    bools = tmp_path / "bools.json"
    bools.write_text(INT_WRITTEN.replace("[-0, 0]", "[-0, false]"), encoding="utf-8")
    argv = ["--max-word-length", "3", "--cutoff", "5.0"]
    assert main(["enumerate", "--presentation", str(ints)] + argv) == 0
    capsys.readouterr()
    assert main(["enumerate", "--presentation", str(bools)] + argv) == 2
    captured = capsys.readouterr()
    assert "generator 0: field 'matrix' must be an array of finite numbers" in captured.err
    assert captured.out == ""
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


@pytest.mark.parametrize("flag, value", [
    ("--max-word-length", "0"), ("--max-word-length", "-2"), ("--cutoff", "0"),
    ("--cutoff", "-1.5"),
])
def test_enumerate_refuses_a_flag_out_of_range_exit_2(tmp_path, capsys, flag, value):
    # these exited 1, as any other workbench error, while --cutoff nan and
    # zeta --s-count 0 exit 2; the refusal comes before the cache is read
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    assert main(["enumerate", "--presentation", pres, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be ")
    assert captured.out == ""
    assert not (tmp_path / "cache").exists()


def test_enumerate_refuses_a_nan_matrix_entry_and_caches_nothing(tmp_path, capsys):
    doc = cyclic_presentation_doc()
    doc["generators"][0]["matrix"][1][0] = math.nan
    pres = write_json(tmp_path, "pres.json", doc)
    assert main(["enumerate", "--presentation", pres]) == 2
    captured = capsys.readouterr()
    assert "generator 0: field 'matrix' must be an array of finite numbers" in captured.err
    assert captured.out == ""
    assert not list((tmp_path / "cache").glob("*"))


def test_enumerate_document_source_names_the_walk(tmp_path, capsys):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    out = tmp_path / "spec.json"
    assert main(["enumerate", "--presentation", pres, "--max-word-length", "3",
                 "--cutoff", "4.0", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["source"].split("; ") == [
        "enumerated", "max_word_length=3", "length_cutoff=4", "cutoff_incomplete=false"
    ]


@pytest.mark.parametrize(
    "generator, includes_inverses, message",
    [
        ({"name": "ab"}, True, "must be a single character"),
        ({"name": "1"}, False, "has no case partner"),
    ],
)
def test_enumerate_refuses_a_generator_name_exit_2(tmp_path, capsys, generator,
                                                   includes_inverses, message):
    matrix = cyclic_presentation_doc()["generators"][0]["matrix"]
    pres = write_json(tmp_path, "pres.json", {
        "generators": [{**generator, "matrix": matrix}], "includes_inverses": includes_inverses
    })
    assert main(["enumerate", "--presentation", pres]) == 2
    assert message in capsys.readouterr().err


def test_enumerate_empty_presentation_warns_on_a_hit_too(tmp_path, capsys):
    pres = write_json(
        tmp_path, "pres.json", {"generators": [], "includes_inverses": False}
    )
    outputs = []
    for _ in range(2):
        assert main(["enumerate", "--presentation", pres]) == 0
        outputs.append(capsys.readouterr())
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    assert outputs[0] == outputs[1]
    assert "no generators" in outputs[1].err


@pytest.mark.parametrize("generator, code", [
    ({"name": "ab", "matrix": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}, 2),
    ({"name": "a", "matrix": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]}, 3),
])
def test_enumerate_refused_presentation_is_refused_again(tmp_path, capsys, generator, code):
    pres = write_json(
        tmp_path, "pres.json", {"generators": [generator], "includes_inverses": True}
    )
    for _ in range(2):
        assert main(["enumerate", "--presentation", pres]) == code
        assert "error:" in capsys.readouterr().err
    assert not list((tmp_path / "cache").glob("*"))


def test_enumerate_empty_presentation_warns(tmp_path, capsys):
    pres = write_json(
        tmp_path, "pres.json", {"generators": [], "includes_inverses": False}
    )
    assert main(["enumerate", "--presentation", pres]) == 0
    captured = capsys.readouterr()
    assert "no generators" in captured.err
    assert "classes: 0" in captured.out


def test_enumerate_elliptic_generator_exit_3_names_word(tmp_path, capsys):
    c = math.cos(math.pi / 4)
    pres = write_json(
        tmp_path,
        "pres.json",
        {
            "generators": [
                {"name": "a", "matrix": [[c, c], [0.0, 0.0], [0.0, 0.0], [c, -c]]}
            ],
            "includes_inverses": True,
        },
    )
    assert main(["enumerate", "--presentation", pres]) == 3
    err = capsys.readouterr().err
    assert "'a'" in err


def test_enumerate_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["enumerate", "--presentation", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# zeta


def test_zeta_json_rows(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    code = main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "selberg"
    (row,) = payload["rows"]
    assert row["s"] == [3.0, 0.0]
    log = complex(*row["log"])
    value = complex(*row["value"])
    assert abs(cmath.exp(log) - value) < 1e-12
    assert row["terms_used"] > 0
    assert row["tail_bound"] >= 0.0


def test_zeta_empty_grid_exit_2(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0",
                 "--s-count", "0"]) == 2
    assert "s-count must be at least 1" in capsys.readouterr().err


def test_zeta_grid_row_count_and_spacing(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    code = main(
        ["zeta", "--spectrum", spec, "--sigma", "1",
         "--s-start", "3", "0", "--s-stop", "4", "0", "--s-count", "5"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["s"][0] for r in rows] == [3.0, 3.25, 3.5, 3.75, 4.0]


def test_zeta_csv_header(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    code = main(
        ["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0",
         "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s_re,s_im,log_re,log_im,value_re,value_im,tail_bound,terms_used"
    assert len(lines) == 2


def test_zeta_below_abscissa_exit_4(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "0.5", "0"]) == 4
    assert "abscissa" in capsys.readouterr().err


def test_zeta_empty_spectrum_is_identically_one(tmp_path, capsys):
    spec = write_json(tmp_path, "empty.json", spectrum_doc([]))
    code = main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "0.2", "0"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["log"] == [0.0, 0.0]
    assert row["value"] == [1.0, 0.0]


def test_zeta_requires_s_start(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1"]) == 2
    assert "--s-start" in capsys.readouterr().err


def test_zeta_missing_spectrum_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = main(["zeta", "--spectrum", missing, "--sigma", "1", "--s-start", "3", "0"])
    assert code == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_zeta_schema_error_exit_2(tmp_path, capsys):
    spec = write_json(tmp_path, "bad.json", {"dimension": 3, "cutoff": 2.0, "classes": "nope"})
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"]) == 2


def test_zeta_refuses_a_nan_angle_exit_2(tmp_path, capsys):
    doc = spectrum_doc(TOY_CLASSES)
    doc["classes"][1]["angle"] = math.nan
    spec = write_json(tmp_path, "nan.json", doc)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"]) == 2
    captured = capsys.readouterr()
    assert "class 1: field 'angle' must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("length", -1, "class 2 has length -1.0; it must be positive"),
        ("multiplicity", 0, "class 2 has multiplicity 0; it must be >= 1"),
        ("primitive", False, "class 2: primitive flag must hold exactly when multiplicity is 1"),
    ],
)
def test_zeta_refusal_of_a_class_names_it_exit_1(tmp_path, capsys, field, value, message):
    # these refusals once read "class length must be positive, got -1.0",
    # naming no class
    doc = spectrum_doc(TOY_CLASSES)
    doc["classes"][2][field] = value
    spec = write_json(tmp_path, "bad_class.json", doc)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_zeta_refuses_an_int_literal_past_the_digit_limit_exit_2(tmp_path, capsys):
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps(spectrum_doc(TOY_CLASSES)).replace("2.0", "1" * 5000),
                    encoding="utf-8")
    assert main(["zeta", "--spectrum", str(spec), "--sigma", "1", "--s-start", "3", "0"]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_weight_off_the_half_integers_is_refused(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    assert main(["zeta", "--spectrum", spec, "--sigma", "0.3", "--s-start", "3", "0"]) == 1
    assert "half-integer" in capsys.readouterr().err
    assert main(["trace", "--spectrum", spec, "--sigma", "0.3"]) == 1
    assert "half-integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["zeta", "--s-start", "3", "0"],
    ["trace", "--order", "first"],
    ["trace", "--order", "second"],
], ids=["zeta", "trace first", "trace second"])
def test_weight_whose_double_overflows_is_refused_exit_1(tmp_path, capsys, command):
    # 2k = inf made round(2k) raise OverflowError: a traceback from zeta, and
    # "the geometric side at t = 1.0 is not a finite number" from trace
    spec = toy_spectrum_path(tmp_path)
    assert main([*command, "--spectrum", spec, "--sigma", "1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "error: weight 1e+308 is too large: 2k is not finite\n"


def test_zeta_refuses_a_spectrum_of_another_dimension(tmp_path, capsys):
    doc = spectrum_doc(TOY_CLASSES)
    doc["dimension"] = 5
    spec = write_json(tmp_path, "d5.json", doc)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "6", "0"]) == 2
    assert "dimension must be 3" in capsys.readouterr().err


def test_zeta_refuses_a_per_class_character_override(tmp_path, capsys):
    # this class field once replaced exp(ik theta) and made the super sums
    # exactly 0; a document carrying it is now refused, not evaluated
    field = "sigma_trace"
    doc = spectrum_doc(TOY_CLASSES)
    doc["classes"][1][field] = [0.5, 0.0]
    spec = write_json(tmp_path, "override.json", doc)
    for kind in ("super", "selberg"):
        argv = ["zeta", "--spectrum", spec, "--kind", kind, "--sigma", "1", "--s-start", "3", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "class 1" in err and field in err
    assert main(["trace", "--spectrum", spec, "--sigma", "1"]) == 2


WORDED_CLASSES = [(1.0, 0.7, "a"), (1.3, -2.1, "b"), (1.7, 2.9, "ab")]


def worded_spectrum_path(tmp_path):
    doc = spectrum_doc([(l, a, 1) for l, a, _ in WORDED_CLASSES])
    for record, (_, _, word) in zip(doc["classes"], WORDED_CLASSES):
        record["word"] = word
    return write_json(tmp_path, "worded.json", doc)


def test_twisted_commands_compute_each_chi_trace_once(tmp_path, capsys, monkeypatch):
    spec = worded_spectrum_path(tmp_path)
    chi = write_json(
        tmp_path,
        "chi.json",
        {"dimension": 2, "images": {"a": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                                    "b": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}},
    )
    # one batched call per command reads every class word once
    calls = []
    traced = zeta.character_chi

    def counting(chi_rep, words):
        calls.append(sorted(words))
        return traced(chi_rep, words)

    monkeypatch.setattr(zeta, "character_chi", counting)
    assert main(["zeta", "--spectrum", spec, "--chi", chi, "--kind", "super", "--sigma", "1",
                 "--s-start", "3", "0", "--s-stop", "4", "1", "--s-count", "7"]) == 0
    assert calls == [["a", "ab", "b"]]
    calls.clear()
    assert main(["trace", "--spectrum", spec, "--chi", chi, "--sigma", "1",
                 "--t", "0.5", "--t", "1.0", "--t", "2.0"]) == 0
    assert calls == [["a", "ab", "b"]]


def test_zeta_refuses_points_below_a_non_unitary_twists_gate_exit_4(tmp_path, capsys):
    # chi(a) = e^3 on a^j, l = 1.3 j: the traces grow like exp(l 3/1.3),
    # so the Selberg gate is 1 + 3/1.3, not 1
    doc = spectrum_doc([(1.3 * j, math.remainder(0.7 * j, 2 * math.pi), j) for j in range(1, 9)],
                       cutoff=10.4)
    for j, record in enumerate(doc["classes"], 1):
        record["word"] = "a" * j
    spec = write_json(tmp_path, "powers.json", doc)
    chi = write_json(tmp_path, "chi.json", {"dimension": 1, "images": {"a": [[[math.exp(3), 0]]]}})
    for s in ("1.1", "1.25"):
        assert main(["zeta", "--spectrum", spec, "--chi", chi, "--sigma", "1",
                     "--s-start", s, "0"]) == 4
        assert "convergence abscissa 3.30769" in capsys.readouterr().err
    assert main(["zeta", "--spectrum", spec, "--chi", chi, "--sigma", "1",
                 "--s-start", "3.4", "0"]) == 0


def test_zeta_refuses_a_stretching_twist_on_a_schottky_walk_exit_4(tmp_path, capsys):
    # a -> diag(e^5, e^-5), b -> 1 over the pair's walk to depth 4 and cutoff
    # 1e9: the traces of the powers of a grow like exp(l 5/(2 ln 3)), and
    # s = 1.1 lies below the moved gate
    a = [[3, 0], [0, 0], [0, 0], [1 / 3, 0]]
    b = [[4.6, 0], [-2.1, 0], [4.2, 0], [-1.7, 0]]  # M diag(2.5, 0.4) M^-1, M = [[1,1],[1,2]]
    pres = write_json(tmp_path, "pair.json", {
        "generators": [{"name": "a", "matrix": a}, {"name": "b", "matrix": b}],
        "includes_inverses": False,
    })
    spec = str(tmp_path / "walk.json")
    assert main(["enumerate", "--presentation", pres, "--max-word-length", "4",
                 "--cutoff", "1e9", "--output", spec]) == 0
    chi = write_json(tmp_path, "chi.json", {"dimension": 2, "images": {
        "a": [[[math.exp(5), 0], [0, 0]], [[0, 0], [math.exp(-5), 0]]],
        "b": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }})
    capsys.readouterr()
    assert main(["zeta", "--spectrum", spec, "--chi", chi, "--sigma", "1",
                 "--s-start", "1.1", "0"]) == 4
    assert "convergence abscissa 3.19" in capsys.readouterr().err


def test_zeta_output_file_keeps_stdout_quiet(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    out = tmp_path / "rows.json"
    code = main(
        ["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0",
         "--output", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["rows"]


def test_zeta_with_a_long_class_writes_finite_json(tmp_path, capsys):
    # exp(-rho l) underflows to 0 at l = 1500 and exp(-s l) overflows at
    # Re s = -0.5; the folded exponent -(s + rho) l leaves the long class a
    # term of 0 and the row the short class's closed form
    spec = write_json(tmp_path, "long.json",
                      spectrum_doc([(1.0, 0.3, 1), (1500.0, 0.3, 1)], cutoff=1500.0))
    code = main(["zeta", "--spectrum", spec, "--kind", "selberg", "--sigma", "1",
                 "--growth", "0.1", "--s-start", "-0.5", "0"])
    assert code == 0

    def refuse(literal):
        raise AssertionError(f"{literal} is no JSON number")

    (row,) = json.loads(capsys.readouterr().out, parse_constant=refuse)["rows"]
    det = 1.0 - 2.0 * math.exp(-1.0) * math.cos(0.3) + math.exp(-2.0)
    want = -cmath.exp(0.3j) * math.exp(-0.5) / det
    assert abs(complex(*row["log"]) - want) <= 1e-15 * abs(want)
    assert math.isfinite(row["tail_bound"])


@pytest.mark.parametrize("kind, im", [("ruelle", "1e306"), ("symmetrized", "1e308")])
def test_zeta_exponent_past_the_float_range_exit_1(tmp_path, kind, im):
    # one class of length 700: -s l has an infinite imaginary part, which
    # cmath.exp refused with a ValueError traceback; the kernel refuses the
    # point in one line, naming s
    spec = write_json(tmp_path, "long.json", spectrum_doc([(700.0, 0.3, 1)], cutoff=800.0))
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "zeta_workbench.cli", "zeta", "--spectrum", spec, "--sigma", "1",
         "--kind", kind, "--s-start", "3", im],
        env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"error: s = (3+{float(im)!r}j) takes a class exponent out of the float range\n"
    )


def test_zeta_value_past_the_float_range_exit_1(tmp_path, capsys):
    # 1000 short classes put Re log R near 906 at s = 0.02, whose exp
    # overflowed with a traceback; the row is refused, naming s and Re log
    classes = [(0.01 * (i + 1), 3.14159, 1) for i in range(1000)]
    spec = write_json(tmp_path, "short.json", spectrum_doc(classes, cutoff=10.0))
    code = main(["zeta", "--spectrum", spec, "--kind", "ruelle", "--sigma", "1",
                 "--growth", "0.01", "--s-start", "0.02", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "s = (0.02+0j)" in err and "Re log Z = 906." in err


# ---------------------------------------------------------------------------
# trace


def test_trace_first_order_with_spectral_diagnostic(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 2), (-1.0, 0.0, 1)]))
    code = main(
        ["trace", "--spectrum", spec, "--sigma", "1", "--order", "first",
         "--t", "0.5", "--t", "2.0", "--dirac", dirac]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["t"] for r in rows] == [0.5, 2.0]
    for row in rows:
        assert "spectral" in row
        assert row["diagnostic_gap"] >= 0.0


@pytest.mark.parametrize(
    "order, flag, entry",
    [
        ("first", "--dirac", (0.0, 30.0, 1)),  # exp(900) overflowed with a traceback
        ("first", "--dirac", (0.0, 26.62, 3)),  # a finite exp, an infinite sum: Infinity
        ("second", "--laplace", (-900.0, 0.0, 1)),
    ],
)
def test_trace_spectral_side_past_the_float_range_exit_1(tmp_path, capsys, order, flag, entry):
    spec = write_json(tmp_path, "one.json", spectrum_doc([(1.0, 0.7, 1)]))
    eigen = write_json(tmp_path, "eigen.json", eigen_doc([entry]))
    code = main(["trace", "--spectrum", spec, "--sigma", "1", "--order", order,
                 flag, eigen, "--t", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: the spectral side at t = 1.0 is not a finite number\n"


@pytest.mark.parametrize("order", ["first", "second"])
@pytest.mark.parametrize("t", ["1e-300", "1e300"])
def test_trace_t_past_the_float_range_exit_1(tmp_path, capsys, order, t):
    # a power of t underflowed to 0 (ZeroDivisionError) or overflowed
    # (OverflowError), each with a traceback
    spec = write_json(tmp_path, "one.json", spectrum_doc([(1.0, 0.7, 1)]))
    code = main(["trace", "--spectrum", spec, "--sigma", "1", "--order", order, "--t", t])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: the geometric side at t = {float(t)} is not a finite number\n"


def test_trace_volume_override_changes_heat_side(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    base_args = ["trace", "--spectrum", spec, "--sigma", "1", "--order", "second", "--t", "1.0"]
    assert main(base_args) == 0
    plain = json.loads(capsys.readouterr().out)["rows"][0]["geometric"]
    assert main(base_args + ["--volume", "2.5"]) == 0
    scaled = json.loads(capsys.readouterr().out)["rows"][0]["geometric"]
    assert plain != scaled


def test_trace_second_order_with_laplace_adds_the_spectral_side(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    laplace = write_json(tmp_path, "laplace.json", eigen_doc([(1.0, 0.0, 3), (4.0, 0.0, 1)]))
    base = ["trace", "--spectrum", spec, "--sigma", "1", "--order", "second", "--t", "0.5"]
    assert main(base) == 0
    (plain,) = json.loads(capsys.readouterr().out)["rows"]
    assert main(base + ["--laplace", laplace]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert "spectral" not in plain and row["geometric"] == plain["geometric"]
    spectral = complex(*row["spectral"])
    assert spectral == pytest.approx(3 * math.exp(-0.5) + math.exp(-2.0), rel=1e-12)
    assert row["diagnostic_gap"] == pytest.approx(abs(complex(*row["geometric"]) - spectral))


def test_trace_second_order_without_volume_exit_1(tmp_path, capsys):
    spec = write_json(tmp_path, "novol.json", spectrum_doc(TOY_CLASSES, volume=None))
    code = main(["trace", "--spectrum", spec, "--sigma", "1", "--order", "second"])
    assert code == 1
    assert "volume" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify / report


def test_verify_suite_passes(capsys):
    code = main(["verify", "--suite", "kernels"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["suite"] == "kernels"


def test_verify_parity_injection_exit_5(capsys):
    code = main(["verify", "--suite", "parity", "--inject-parity-violation"])
    assert code == 5
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["counterexample"]


def test_report_runs_all_suites(capsys):
    code = main(["report", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_pass"] is True
    assert len(payload["reports"]) == 7
    status_lines = [line for line in captured.err.splitlines() if "PASS" in line]
    assert len(status_lines) == 7


# ---------------------------------------------------------------------------
# continue


def test_continue_catalog_worked_example(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 2), (-1.0, 0.0, 1)]))
    code = main(["continue", "--dirac", dirac])
    assert code == 0
    catalog = json.loads(capsys.readouterr().out)["catalog"]
    table = {(rec["zeta_kind"], tuple(rec["location"])): rec["order"] for rec in catalog}
    assert table == {
        ("super", (0.0, 1.0)): 1,
        ("super", (0.0, -1.0)): -1,
        ("symmetrized", (0.0, 1.0)): 3,
        ("symmetrized", (0.0, -1.0)): 3,
        ("selberg", (0.0, 1.0)): 2,
        ("selberg", (0.0, -1.0)): 1,
    }


def test_continue_grid_matches_closed_form(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    code = main(["continue", "--dirac", dirac, "--s-start", "2", "0"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["abs"] == pytest.approx(1.0, rel=1e-9)
    assert row["arg"] == pytest.approx(-2.0 * math.atan(0.5), abs=1e-9)


def test_continue_grid_point_on_singularity_exit_7(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    code = main(["continue", "--dirac", dirac, "--s-start", "0", "1"])
    assert code == 7
    assert "singularity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, line, count, message",
    [
        # on a pole; the 4th point is within the radius of another
        ([(2.0, 0.0, 1), (1.0, -0.05, 1)], ["0", "4", "0", "0"], "5",
         "grid point 2j lies on a catalogued singularity"),
        # within the radius of a pole; the 4th point is on one
        ([(2.0, -0.05, 1), (1.0, 0.0, 1)], ["0", "4", "0", "0"], "5",
         "start point 2j is within 0.1 of singularity (0.05+2j)"),
        # the pole at 1j is detoured, and its circle meets the one around 1.15j
        ([(1.0, 0.0, 1), (1.15, 0.0, 2)], ["-1", "3", "-1", "0"], "4",
         "detour circles around 1j and 1.15j overlap; reduce detour_radius"),
    ],
    ids=["on-pole", "within-radius", "overlapping-detours"],
)
def test_continue_grid_refuses_its_first_failing_point(tmp_path, capsys, entries, line, count,
                                                       message):
    # in each grid the third point is the first to fail
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(entries))
    code = main(["continue", "--dirac", dirac, "--s-start", *line[:2], "--s-stop", *line[2:],
                 "--s-count", count])
    assert code == 7
    assert capsys.readouterr().err == f"error: {message}\n"


PORTRAIT_ENTRIES = [(0.9, 0.0, 2), (-0.9, 0.0, 1), (1.7, 0.1, 1), (2.6, 0.0, 3)]
PORTRAIT_LINE = ["--s-start", "-0.5", "3", "--s-stop", "-0.5", "-3", "--s-count", "40"]


def test_continue_portrait_line_passes_pole_at_detour_radius(tmp_path, capsys):
    # the ray through -0.5 - 1.0i passes the pole -0.9i at the detour radius
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    code = main(["continue", "--dirac", dirac] + PORTRAIT_LINE)
    assert code == 0, capsys.readouterr().err
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 40
    for row in rows:
        s = complex(*row["s"])
        product = 1.0 + 0.0j
        for re, im, m in PORTRAIT_ENTRIES:
            lam = complex(re, im)
            product *= ((s - 1j * lam) / (s + 1j * lam)) ** m
        assert cmath.exp(complex(*row["log"])) == pytest.approx(product, rel=1e-12)


def test_continue_rows_report_the_winding(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    rows = {}
    for side in ("above", "below"):
        assert main(["continue", "--dirac", dirac, "--detour", side] + PORTRAIT_LINE) == 0
        rows[side] = json.loads(capsys.readouterr().out)["rows"]
    # super poles i nu with order m(nu) - m(-nu)
    poles = [(0.9j, 1), (-0.9j, -1), (complex(-0.1, 1.7), 1), (complex(0.1, -1.7), -1),
             (2.6j, 3), (-2.6j, -3)]
    turned = 0
    for above, below in zip(rows["above"], rows["below"]):
        s = complex(*above["s"])
        detoured = sum(m for p, m in poles if abs(p.imag - s.imag) < 0.1)
        assert above["winding"] - below["winding"] == detoured
        for row in (above, below):
            s = complex(*row["s"])
            principal = sum(m * cmath.log(s - p) for p, m in poles)
            assert isinstance(row["winding"], int)
            assert complex(*row["log"]) == pytest.approx(
                principal + 2j * math.pi * row["winding"], abs=1e-12
            )
        difference = complex(*above["log"]) - complex(*below["log"])
        assert difference == pytest.approx(
            2j * math.pi * (above["winding"] - below["winding"]), abs=1e-12
        )
        turned += detoured != 0
    assert turned == 12  # every pole lies within the radius of two rays


def test_continue_csv_header_unchanged(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    assert main(["continue", "--dirac", dirac, "--format", "csv"] + PORTRAIT_LINE) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s_re,s_im,abs,arg"
    assert len(lines) == 41


def test_continue_nonpositive_radius_exit_2(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    code = main(["continue", "--dirac", dirac, "--s-start", "-0.5", "0", "--radius", "0"])
    assert code == 2
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[], PORTRAIT_LINE], ids=["catalog", "grid"])
def test_continue_refuses_a_nan_eigenvalue_exit_2(tmp_path, capsys, grid):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES + [(math.nan, 0.0, 1)]))
    assert main(["continue", "--dirac", dirac] + grid) == 2
    captured = capsys.readouterr()
    assert "entry 4: field 're' must be a finite number" in captured.err
    assert captured.out == ""


def test_continue_merges_eigenvalues_closer_than_1e_12(tmp_path, capsys):
    # the list's own square was refused with exit 6: the catalog compared
    # nu^2 with mu, where the eigenvalues were compared with each other
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1), (1.0 + 6e-13, 0.0, 1)]))
    assert main(["continue", "--dirac", dirac]) == 0
    catalog = json.loads(capsys.readouterr().out)["catalog"]
    table = {(rec["zeta_kind"], tuple(rec["location"])): rec["order"] for rec in catalog}
    assert table == {
        ("super", (0.0, 1.0)): 2,
        ("super", (0.0, -1.0)): -2,
        ("symmetrized", (0.0, 1.0)): 2,
        ("symmetrized", (0.0, -1.0)): 2,
        ("selberg", (0.0, 1.0)): 2,
    }


@pytest.mark.parametrize("m", [2**53 - 1, 2**63, 2**70])
def test_continue_refuses_multiplicities_past_float64_exit_1(tmp_path, capsys, m):
    # the continued sums weigh the poles by multiplicities in float64,
    # exact below 2**53
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1), (2.0, 0.0, m)]))
    assert main(["continue", "--dirac", dirac]) == 1
    captured = capsys.readouterr()
    assert "the multiplicities must add up to less than 2**53" in captured.err
    assert captured.out == ""


def test_continue_value_past_the_float_range_exit_1(tmp_path, capsys):
    # order -1000 at -i, 0.2 away: Re log = 1000 ln 11 is past exp's range,
    # which overflowed with a traceback
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1000)]))
    code = main(["continue", "--dirac", dirac, "--s-start", "0", "-1.2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "s = -1.2j" in err and "Re log Z = 2397." in err


def test_continue_inconsistent_pair_exit_6(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    laplace = write_json(tmp_path, "laplace.json", eigen_doc([(1.0, 0.0, 2)]))
    code = main(["continue", "--dirac", dirac, "--laplace", laplace])
    assert code == 6
    assert "disagree mod 2" in capsys.readouterr().err


def test_continue_catalog_csv(tmp_path, capsys):
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    code = main(["continue", "--dirac", dirac, "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "zeta_kind,location_re,location_im,order"
    # selberg has order 1/2*(-1+1) = 0 at -i, so that record is absent
    assert set(lines[1:]) == {
        "selberg,0.0,1.0,1",
        "super,0.0,1.0,1",
        "super,0.0,-1.0,-1",
        "symmetrized,0.0,1.0,1",
        "symmetrized,0.0,-1.0,1",
    }


# ---------------------------------------------------------------------------
# options


def test_suite_choices_are_the_verify_suites_in_order():
    # the parser reads the names without importing verify; both must agree
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == tuple(verify.SUITES)


def test_t_flags_replace_the_default_list(tmp_path, capsys):
    trace = ["trace", "--spectrum", toy_spectrum_path(tmp_path), "--sigma", "1"]
    runs = [
        (trace, [1.0]),
        (trace + ["--t", "3"], [3.0]),
        (trace + ["--t", "3", "--t", "4"], [3.0, 4.0]),
    ]
    for argv, times in runs:
        assert main(argv) == 0
        assert [row["t"] for row in json.loads(capsys.readouterr().out)["rows"]] == times


@pytest.mark.parametrize("command", ["enumerate", "zeta", "trace", "verify", "continue", "report"])
def test_an_output_path_that_cannot_be_written_exit_1(tmp_path, capsys, command):
    # writing under a missing directory ended in a FileNotFoundError traceback
    spec = toy_spectrum_path(tmp_path)
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 1)]))
    inputs = {
        "enumerate": ["--presentation", pres, "--max-word-length", "2"],
        "zeta": ["--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"],
        "trace": ["--spectrum", spec, "--sigma", "1"],
        "verify": ["--suite", "partial-fractions"],
        "continue": ["--dirac", dirac],
        "report": [],
    }
    output = str(tmp_path / "missing" / "out.json")
    assert main([command, *inputs[command], "--output", output]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"error: cannot write {output}: ") and err.count("\n") == 1


def test_config_is_no_option(tmp_path, capsys):
    # the INI layer is gone, so --config is refused as argparse refuses any
    # unknown flag; spaced, its file name is read as the command
    rest = ["zeta", "--spectrum", toy_spectrum_path(tmp_path), "--sigma", "1",
            "--s-start", "3", "0"]
    for head, message in (
        (["--config", "x.ini"], "argument command: invalid choice: 'x.ini'"),
        (["--config=x.ini"], "unrecognized arguments: --config=x.ini"),
    ):
        with pytest.raises(SystemExit) as refused:
            main(head + rest)
        assert refused.value.code == 2
        assert message in capsys.readouterr().err


def test_every_float_option_refuses_what_is_no_finite_number(tmp_path, capsys):
    # found from the parser, so that a float option added later is held to
    # the rule too: argparse refuses the value before the command runs
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    checked = []
    for command, subparser in commands.choices.items():
        actions = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
        required = [(a.option_strings[0], next(iter(a.choices or ["1"])))
                    for a in actions if a.required]
        for action in actions:
            try:
                reads_float = isinstance(action.type("0.5"), float)
            except (TypeError, ValueError):
                reads_float = False
            if not reads_float:
                continue
            flag = action.option_strings[0]
            others = [arg for pair in required if pair[0] != flag for arg in pair]
            for bad in ("nan", "inf", "1e999"):
                argv = [command, *others, flag, bad, *["0"] * ((action.nargs or 1) - 1)]
                with pytest.raises(SystemExit) as refused:
                    main(argv)
                assert refused.value.code == 2, argv
                assert f"argument {flag}: invalid finite float value: '{bad}'" in (
                    capsys.readouterr().err
                )
            checked.append((command, flag))
    assert len(checked) == 11, checked


def test_every_float_option_reads_a_negative_number_in_exponent_notation():
    # argparse's own negative-number pattern has no exponent, so -1e-05
    # read as a flag: "expected 2 arguments"
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    checked = []
    for command, subparser in commands.choices.items():
        actions = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
        required = [(a.option_strings[0], next(iter(a.choices or ["1"])))
                    for a in actions if a.required]
        for action in actions:
            if action.type is not cli._finite:
                continue
            flag = action.option_strings[0]
            others = [arg for pair in required if pair[0] != flag for arg in pair]
            for text, value in (("-1e-05", -1e-05), ("-2.5E+3", -2500.0), ("-.5e1", -5.0)):
                args = parser.parse_args([command, *others, flag, *[text] * (action.nargs or 1)])
                got = getattr(args, action.dest)
                assert got == ([value] * action.nargs if action.nargs else
                               [value] if action.dest == "t" else value), (command, flag)
            checked.append((command, flag))
    assert len(checked) == 11, checked


def test_zeta_s_start_in_exponent_notation_writes_the_positional_row(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    outputs = []
    for start in ("-1e-05", "-0.00001"):
        assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--growth", "0.5",
                     "--s-start", start, "0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rows"][0]["s"] == [-1e-05, 0.0]


def test_trace_csv_header_does_not_depend_on_the_spectral_side(tmp_path, capsys):
    spec = toy_spectrum_path(tmp_path)
    dirac = write_json(tmp_path, "dirac.json", eigen_doc([(1.0, 0.0, 2), (-1.0, 0.0, 1)]))
    argv = ["trace", "--spectrum", spec, "--sigma", "1", "--t", "0.5", "--format", "csv"]
    assert main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(argv + ["--dirac", dirac]) == 0
    spectral = capsys.readouterr().out.splitlines()
    header = "t,geometric_re,geometric_im,spectral_re,spectral_im,diagnostic_gap"
    assert plain[0] == spectral[0] == header
    assert plain[1] == ",".join(spectral[1].split(",")[:3] + ["", "", ""])


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.WorkbenchError("other"), 1),
        (errors.InvariantViolation("other"), 1),
        (errors.SchemaError("schema"), 2),
        (errors.NotLoxodromic("elliptic"), 3),
        (errors.ConvergenceRegionError(0.5, 1.0), 4),
        (errors.ParityViolation("odd"), 6),
        (errors.AtSingularity("pole"), 7),
        (errors.PathThroughSingularity("pole"), 7),
    ],
)
def test_an_error_exits_with_its_class_code(tmp_path, capsys, monkeypatch, error, code):
    def failing(request):
        raise error

    monkeypatch.setattr(cli, "log_zeta", failing)
    spec = toy_spectrum_path(tmp_path)
    assert main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


# ---------------------------------------------------------------------------
# start-up


IMPORT_PROBE = """
import json, sys
import zeta_workbench.cli as cli
pres, spec, dirac = sys.argv[1], sys.argv[2], sys.argv[3]
assert cli.main(["enumerate", "--presentation", pres, "--max-word-length", "3",
                 "--cutoff", "4.0", "--output", spec]) == 0
assert cli.main(["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0",
                 "--output", spec + ".rows"]) == 0
assert cli.main(["continue", "--dirac", dirac, "--s-start", "-0.5", "3", "--s-stop",
                 "-0.5", "-3", "--s-count", "40", "--output", spec + ".continued"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_enumerate_and_zeta_never_load_scipy(tmp_path):
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, pres, str(tmp_path / "spec.json"), dirac],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == []


NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import zeta_workbench.cli as cli
spec, dirac, laplace, out = sys.argv[1:5]
runs = {
    "report": ["report", "--output", out + ".report"],
    "verify kernels": ["verify", "--suite", "kernels", "--output", out + ".kernels"],
    "trace second": ["trace", "--spectrum", spec, "--sigma", "1", "--order", "second",
                     "--t", "0.5", "--t", "2.0", "--output", out + ".trace"],
    "continue laplace": ["continue", "--dirac", dirac, "--laplace", laplace,
                         "--output", out + ".catalog"],
    "continue grid": ["continue", "--dirac", dirac, "--s-start", "-0.5", "3", "--s-stop",
                      "-0.5", "-3", "--s-count", "40", "--output", out + ".grid"],
}
for name, argv in runs.items():
    assert cli.main(argv) == 0, name
"""


def test_no_subcommand_loads_scipy(tmp_path):
    spec = toy_spectrum_path(tmp_path)
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    # the squares of PORTRAIT_ENTRIES, the two at +-0.9 merged
    squared = [(0.81, 0.0, 3), (2.88, 0.34, 1), (6.76, 0.0, 3)]
    laplace = write_json(tmp_path, "laplace.json", eigen_doc(squared))
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, spec, dirac, laplace, str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


STDLIB_PROBE = """
import json, sys
import zeta_workbench.cli as cli
spec, chi, out = sys.argv[1:4]
assert cli.main(["zeta", "--spectrum", spec, "--chi", chi, "--sigma", "1", "--s-start", "3",
                 "0", "--s-stop", "4", "0", "--s-count", "5", "--output", out + ".zeta"]) == 0
assert cli.main(["trace", "--spectrum", spec, "--sigma", "1", "--order", "second",
                 "--t", "0.5", "--t", "2.0", "--output", out + ".trace"]) == 0
print(json.dumps(sorted(m for m in ("hashlib", "configparser") if m in sys.modules)))
"""


def test_zeta_and_trace_never_load_hashlib_or_configparser(tmp_path):
    # hashlib is at most the cache's fallback for sha256, and no command
    # reads an INI file
    spec = worded_spectrum_path(tmp_path)
    chi = write_json(
        tmp_path,
        "chi.json",
        {"dimension": 2, "images": {"a": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                                    "b": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}},
    )
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE, spec, chi, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == []


NO_OPENSSL_PROBE = """
import json, sys
import zeta_workbench.cli as cli
dirac, out = sys.argv[1:3]
assert cli.main(["continue", "--dirac", dirac, "--catalog", "--s-start", "-0.5", "3",
                 "--s-stop", "-0.5", "-3", "--s-count", "5", "--output", out + ".continued"]) == 0
assert cli.main(["verify", "--suite", "residues", "--output", out + ".residues"]) == 0
assert cli.main(["report", "--output", out + ".report"]) == 0
print(json.dumps(sorted(m for m in ("numpy.random", "secrets", "hashlib", "_hashlib")
                        if m in sys.modules)))
"""


def test_continue_verify_and_report_never_load_numpy_random_or_openssl(tmp_path):
    # the suites draw from random.Random: numpy.random imports secrets and
    # hashlib, which map OpenSSL's libcrypto
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", NO_OPENSSL_PROBE, dirac, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == []


ENUMERATE_PROBE = """
import json, sys
import zeta_workbench.cli as cli
assert cli.main(["enumerate", "--presentation", sys.argv[1], "--max-word-length", "3"]) == 0
print(json.dumps(sorted(m for m in ("_hashlib", "hashlib") if m in sys.modules)))
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in sha256 module; the cache falls back to hashlib",
)
def test_enumerate_miss_and_hit_never_load_openssl(tmp_path):
    # the cache takes sha256 from CPython's built-in module: hashlib would
    # map OpenSSL's libcrypto through _hashlib for two digests
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, ZETA_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    for label in ("miss", "hit"):
        result = subprocess.run(
            [sys.executable, "-c", ENUMERATE_PROBE, pres],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(result.stdout.splitlines()[-1]) == [], label
        # the miss wrote the one entry the hit reads, its digest line the
        # one hashlib gives, so entries written through hashlib stay hits
        (entry,) = cache_dir.iterdir()
        digest, body = entry.read_bytes().split(b"\n", 1)
        assert digest == hashlib.sha256(body).hexdigest().encode("ascii"), label


COLD_PROBE = """
import json, sys
import zeta_workbench.cli as cli
runs = []
for path in sys.argv[1:]:
    code = cli.main(["enumerate", "--presentation", path, "--max-word-length", "3"])
    runs.append([code, "numpy" in sys.modules])
print(json.dumps(runs))
"""


def test_enumerate_cold_calls_never_load_numpy(tmp_path):
    # the walk, its checks and the writer run on Python numbers, whether the
    # call answers, refuses its input or meets a word that is not loxodromic
    c = math.cos(math.pi / 4)
    docs = {
        "answered": cyclic_presentation_doc(),
        "determinant 4": {"generators": [{"name": "a", "matrix": [[2, 0], [0, 0], [0, 0], [2, 0]]}],
                          "includes_inverses": True},
        "elliptic": {"generators": [{"name": "a", "matrix": [[c, c], [0, 0], [0, 0], [c, -c]]}],
                     "includes_inverses": True},
    }
    paths = [write_json(tmp_path, f"{i}.json", doc) for i, doc in enumerate(docs.values())]
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, *paths],
        env=env, capture_output=True, text=True, check=True,
    )
    runs = json.loads(result.stdout.splitlines()[-1])
    assert dict(zip(docs, runs)) == {
        "answered": [0, False], "determinant 4": [2, False], "elliptic": [3, False]
    }


MODULES_PROBE = """
import json, sys
import zeta_workbench.cli as cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "zeta_workbench"),
                  [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]]))
"""

# every call loads the package, the parser's module and what it imports
PARSER = {"zeta_workbench", "cli", "errors", "names"}
CLASS_SUMS = PARSER | {"spectra", "reps", "zeta"}
TRACE = CLASS_SUMS | {"traces"}
ENUMERATE = PARSER | {"spectra", "enumerator", "cache"}
CONTINUE = PARSER | {"spectra", "reps", "continuation"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    spec = worded_spectrum_path(tmp_path)
    chi = write_json(
        tmp_path,
        "chi.json",
        {"dimension": 2, "images": {"a": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                                    "b": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}},
    )
    pres = write_json(tmp_path, "pres.json", cyclic_presentation_doc())
    dirac = write_json(tmp_path, "dirac.json", eigen_doc(PORTRAIT_ENTRIES))
    laplace = write_json(tmp_path, "laplace.json", eigen_doc([(1.0, 0.0, 3), (4.0, 0.0, 1)]))
    # a first-order list whose parities agree with laplace's
    roots = write_json(tmp_path, "roots.json", eigen_doc([(1.0, 0.0, 1), (2.0, 0.0, 1)]))
    zeta_argv = ["zeta", "--spectrum", spec, "--sigma", "1", "--s-start", "3", "0"]
    trace_argv = ["trace", "--spectrum", spec, "--sigma", "1", "--volume", "1"]
    enumerate_argv = ["enumerate", "--presentation", pres, "--max-word-length", "3"]
    # (label, argv, modules), in order: the second enumerate reads the entry
    # the first one wrote.  Every command runs on Python numbers, the
    # verify suites' quadrature and contour rules too, so none loads numpy;
    # the records are plain classes, so none loads dataclasses or inspect
    verify = TRACE | {"quadrature", "continuation", "verify"}
    table = [
        ("help", ["--help"], PARSER),
        ("zeta", zeta_argv, CLASS_SUMS),
        ("zeta --chi", zeta_argv + ["--chi", chi], CLASS_SUMS),
        ("trace first", trace_argv, TRACE),
        ("trace second", trace_argv + ["--order", "second"], TRACE),
        ("trace --chi", trace_argv + ["--chi", chi], TRACE),
        ("trace --dirac", trace_argv + ["--dirac", dirac], TRACE),
        ("trace --laplace", trace_argv + ["--order", "second", "--laplace", laplace], TRACE),
        ("enumerate cold", enumerate_argv, ENUMERATE),
        ("enumerate cached", enumerate_argv, PARSER | {"cache"}),
        ("continue", ["continue", "--dirac", dirac, "--s-start", "-0.5", "3", "--s-stop",
                      "-0.5", "-3", "--s-count", "4"],
         CONTINUE),
        ("continue --laplace", ["continue", "--dirac", roots, "--laplace", laplace], CONTINUE),
        ("verify", ["verify", "--suite", "kernels"], verify),
        ("verify residues", ["verify", "--suite", "residues"], verify),
        ("report", ["report"], verify),
    ]
    env = dict(os.environ, ZETA_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = str(Path(zeta_workbench.__file__).parents[1])
    for label, argv, expected in table:
        result = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        code, modules, heavy = json.loads(result.stdout.splitlines()[-1])
        assert code == 0, (label, result.stderr)
        assert {m.removeprefix("zeta_workbench.") for m in modules} == expected, label
        assert heavy == [], label
