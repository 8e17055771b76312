"""Tests for the self-checking verification suites."""

import pytest

from zeta_workbench import verify
from zeta_workbench.errors import WorkbenchError
from zeta_workbench.spectra import SingularityRecord, TruncatedValue
from zeta_workbench.verify import SUITES, run_all, run_suite


REPORT_KEYS = {"suite", "cases", "max_gap", "pass", "seed", "counterexample"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_and_reports(name):
    report = run_suite(name, seed=123)
    assert set(report) == REPORT_KEYS
    assert report["suite"] == name
    assert report["pass"] is True
    assert report["counterexample"] is None
    assert report["cases"] > 0
    assert report["seed"] == 123
    assert 0.0 <= report["max_gap"] < 1.0


def test_run_all_covers_every_suite():
    reports = run_all(seed=5)
    assert [r["suite"] for r in reports] == list(SUITES)
    assert all(r["pass"] for r in reports)


CASES = {
    0: {"kernels": 200, "partial-fractions": 2040, "residues": 497, "logderiv": 28,
        "factorization": 30, "parity": 71, "trace-scaling": 13},
}
CASES[104] = dict(CASES[0], residues=579, parity=67)


@pytest.mark.parametrize("seed", sorted(CASES))
def test_run_all_still_runs_every_case(seed):
    # one case per identity, point or residue, drawn in the same order by
    # every version of the suites
    assert {r["suite"]: r["cases"] for r in run_all(seed=seed)} == CASES[seed]


def test_seeds_change_data_not_outcome():
    # different seeds draw different random spectra but the identities
    # hold regardless, so both runs pass with (generically) different gaps
    a = run_suite("residues", seed=1)
    b = run_suite("residues", seed=2)
    assert a["pass"] and b["pass"]
    assert a["max_gap"] != b["max_gap"]


def test_deterministic_for_fixed_seed():
    a = run_suite("partial-fractions", seed=9)
    b = run_suite("partial-fractions", seed=9)
    assert a == b


def test_parity_injection_is_detected():
    report = run_suite("parity", seed=0, inject_parity_violation=True)
    assert report["pass"] is False
    assert report["counterexample"] is not None


def test_injection_flag_only_affects_parity():
    report = run_suite("kernels", seed=0, inject_parity_violation=True)
    assert report["pass"] is True


def test_unknown_suite_rejected():
    with pytest.raises(WorkbenchError, match="unknown suite"):
        run_suite("nonsense")


def _shift_gap(result, by):
    lhs, rhs, gap = result
    return lhs, rhs, gap + by


# per suite: the function it checks, as named in verify, and a small
# perturbation of its result that the suite must catch
BREAKS = {
    "kernels": ("laplace_kernel_check", lambda r: _shift_gap(r, 1e-6)),
    "partial-fractions": ("partial_fraction_weights", lambda r: [w * (1 + 1e-6) for w in r]),
    "residues": ("residue_at", lambda r: r + 1e-6),
    "logderiv": (
        "log_derivative_super",
        lambda r: TruncatedValue(r.value + 1e-4, r.tail_bound, r.terms_used),
    ),
    "factorization": ("ruelle_factorization_check", lambda r: _shift_gap(r, 1e-6)),
    # the plain orders, the ones the suite checks, are positive, so + 1
    # keeps every record valid
    "parity": (
        "singularity_catalog",
        lambda r: tuple(
            SingularityRecord(rec.location, rec.order + 1, rec.zeta_kind)
            if rec.zeta_kind == "selberg" else rec
            for rec in r
        ),
    ),
    "trace-scaling": ("identity_term_dirac", lambda r: r + 1e-9),
}


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_fails_when_its_check_breaks(name, monkeypatch):
    attr, perturb = BREAKS[name]
    original = getattr(verify, attr)
    monkeypatch.setattr(verify, attr, lambda *a, **kw: perturb(original(*a, **kw)))
    report = run_suite(name, seed=0)
    assert report["pass"] is False
    assert report["counterexample"] is not None


def test_a_nan_gap_fails_its_case_and_is_no_maximum():
    ledger = verify._Ledger("nan", seed=0)
    ledger.gap(3e-11, 1e-10, "small")
    ledger.gap(float("nan"), 1e-10, "not a number")
    ledger.gap(2e-10, 1e-10, "twice the tolerance")
    ledger.gap(5e-11, 1e-10, "after")
    report = ledger.report()
    # the NaN case fails, and it is the worst: it has no finite excess
    assert report["cases"] == 4 and report["pass"] is False
    assert report["counterexample"] == "not a number"
    # max_gap is the largest finite gap, failed or not
    assert report["max_gap"] == 2e-10
