"""Checker self-test: each workload's checker must reject corrupted output.

    python3 perfbench/selftest.py

Runs one small round of every workload through the CLI, confirms that the
checker accepts the real output, then feeds it copies with one fault each
and confirms that the checker rejects every copy.  Exits 1 if any
corruption is accepted.
"""

from __future__ import annotations

import cmath
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import class_sums  # noqa: E402
import continue_verify  # noqa: E402
import enumerate_schottky  # noqa: E402
from common import CheckFailure, Scratch, read_json, write_json  # noqa: E402
from run import run_round  # noqa: E402


def edit_json(name, fn):
    def apply(out: Path, stdout: dict):
        doc = read_json(out / name)
        fn(doc)
        write_json(out / name, doc)
    return apply


def every_copy(fn):
    """Apply one edit to the first and the cached documents alike, and to
    the summary lines, so that only the checker under test can catch it."""
    def apply(out: Path, stdout: dict):
        for phase in ("cold", "warm", "again"):
            edit_json(f"d6-{phase}.json", fn)(out, stdout)
            count = len(read_json(out / f"d6-{phase}.json")["classes"])
            stdout[f"d6-{phase}"] = f"classes: {count}\n"
    return apply


def set_log(doc, row, log: complex):
    """Replace one row's log and keep its value = exp(log)."""
    value = cmath.exp(log)
    doc["rows"][row]["log"] = [log.real, log.imag]
    doc["rows"][row]["value"] = [value.real, value.imag]


def shift_log(name, row, fn):
    def edit(doc):
        set_log(doc, row, fn(complex(*doc["rows"][row]["log"])))
    return edit_json(name, edit)


def drop_class(doc):
    # the enumerator keeps one class and its inverse per complex length, so
    # only the inverse is left to share the dropped class's length
    del doc["classes"][5]


def set_multiplicity(doc):
    c = next(c for c in doc["classes"] if c["multiplicity"] == 1 and len(c["word"]) > 1)
    c["multiplicity"], c["primitive"] = 2, False


def rotate_word(doc):
    c = next(c for c in doc["classes"] if len(c["word"]) > 2)
    c["word"] = c["word"][1:] + c["word"][:1] + c["word"][:1]


def negate_value(doc, row=3):
    doc["rows"][row]["log"][1] += 3.141592653589793


def change_order(doc):
    doc["catalog"][0]["order"] += 1


CASES = {
    enumerate_schottky: (
        dict(depths=(5, 6)),
        [
            ("cached document differs", edit_json("d6-warm.json", lambda d: d["classes"].pop())),
            ("one dropped class", every_copy(drop_class)),
            ("one wrong multiplicity", every_copy(set_multiplicity)),
            ("one word not in its class", every_copy(rotate_word)),
            ("one length off by 1e-6", every_copy(lambda d: d["classes"][4].__setitem__("length", d["classes"][4]["length"] + 1e-6))),
            ("two classes out of order", every_copy(lambda d: d["classes"].insert(0, d["classes"].pop(7)))),
        ],
    ),
    class_sums: (
        dict(depth=6, n_points=6, n_chi=2, n_t=4),
        [
            ("flipped sign in one log", shift_log("super.json", 1, lambda z: -z)),
            ("one twisted log off by 1e-6", shift_log("selberg-chi.json", 0, lambda z: z * (1 + 1e-6))),
            ("factorization factor off by 1e-9", shift_log("selberg-k+1.json", 2, lambda z: z + 1e-9)),
            ("value not exp(log)", edit_json("ruelle.json", lambda d: d["rows"][0]["value"].__setitem__(0, -d["rows"][0]["value"][0]))),
            ("negative tail bound", edit_json("selberg.json", lambda d: d["rows"][0].__setitem__("tail_bound", -1.0))),
            ("terms_used off by one", edit_json("symmetrized.json", lambda d: d["rows"][0].__setitem__("terms_used", d["rows"][0]["terms_used"] - 1))),
            ("trace side sign flipped", edit_json("trace-first.json", lambda d: d["rows"][1].__setitem__("geometric", [-x for x in d["rows"][1]["geometric"]]))),
            ("identity term dropped", edit_json("trace-second.json", lambda d: d["rows"][0]["geometric"].__setitem__(0, d["rows"][0]["geometric"][0] * 0.5))),
        ],
    ),
    continue_verify: (
        dict(n_entries=8, j_max=20),
        [
            ("one continued value times -1", edit_json("continue-above.json", negate_value)),
            ("below log off by 1e-5", edit_json("continue-below.json", lambda d: d["rows"][5]["log"].__setitem__(1, d["rows"][5]["log"][1] + 1e-5))),
            ("one catalog order wrong", edit_json("continue-above.json", change_order)),
            ("laplace catalog loses a record", edit_json("continue-laplace.json", lambda d: d["catalog"].pop())),
            ("report not all_pass", edit_json("report.json", lambda d: d.__setitem__("all_pass", False))),
            ("negative control passes", edit_json("parity-injected.json", lambda d: d.__setitem__("pass", True))),
        ],
    ),
}


def main() -> int:
    scratch = Scratch("selftest")
    accepted = 0
    try:
        for module, (sizes, cases) in CASES.items():
            workload = module.Workload(7, scratch.fresh("inputs"), **sizes)
            out, results, failed = run_round(workload, scratch)
            stdout = {k: r.stdout for k, r in results.items()}
            if failed:
                print(f"{module.NAME}: {failed} call(s) failed; cannot test the checker")
                return 1
            workload.check(out, stdout)
            print(f"{module.NAME}: real output accepted")
            for name, corrupt in cases:
                copy = scratch.fresh("corrupt")
                shutil.rmtree(copy)
                shutil.copytree(out, copy, ignore=shutil.ignore_patterns("cache"))
                seen = dict(stdout)
                corrupt(copy, seen)
                try:
                    workload.check(copy, seen)
                except CheckFailure as exc:
                    print(f"  rejected  {name}: {str(exc)[:100]}")
                else:
                    accepted += 1
                    print(f"  ACCEPTED  {name}")
    finally:
        scratch.close()
    print("all corruptions rejected" if not accepted else f"{accepted} corruption(s) accepted")
    return 1 if accepted else 0


if __name__ == "__main__":
    sys.exit(main())
