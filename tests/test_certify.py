"""Tests for the certification runner's report plumbing."""

import json
import math

import pytest

from pwmdp.harness.certify import (
    MUTATIONS,
    SUITES,
    CertificationReport,
    SuiteResult,
    _gated,
    report_to_json,
    run_certification,
)


def test_suite_roster_covers_all_criteria():
    names = [fn.__name__.removeprefix("suite_") for fn in SUITES]
    assert names == [
        "contraction_certificate",
        "blackwell_identities",
        "sharp_threshold",
        "detection_delay_table",
        "simplex_preservation",
        "safety_monotonicity",
        "error_budget",
        "regime_perturbation",
        "piecewise_three_phase",
        "context_losses",
        "shared_critic_equivalence",
        "reproducibility",
    ]


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError, match="unknown mutation"):
        run_certification(seed=0, mutation="drop_tables")
    assert set(MUTATIONS) == {"unnormalized_belief", "unfrozen_belief", "unclipped_surprise"}


def test_report_json_round_trips_losslessly():
    report = CertificationReport(
        seed=7,
        mutation=None,
        suites=(
            SuiteResult("alpha", 100, 1.25e-13, 1e-12),
            SuiteResult("beta", 3, math.inf, 0.0),
        ),
    )
    payload = json.loads(report_to_json(report))
    assert payload["seed"] == 7
    assert payload["mutation"] is None
    assert payload["passed"] is False
    assert payload["suites"][0] == {
        "name": "alpha",
        "tested_instances": 100,
        "max_violation": 1.25e-13,
        "tolerance": 1e-12,
        "passed": True,
    }
    assert payload["suites"][1]["max_violation"] == math.inf
    # serialization is deterministic
    assert report_to_json(report) == report_to_json(report)


TOL = 1e-9


@pytest.mark.parametrize(
    "violation",
    [-math.inf, 0.0, TOL, math.nextafter(TOL, math.inf), math.inf],
    ids=["-inf", "zero", "tol", "just_above_tol", "inf"],
)
def test_suite_verdict_is_derived_from_its_numbers(violation):
    suite = SuiteResult("alpha", 1, violation, TOL)
    assert suite.passed == (violation <= TOL)
    report = CertificationReport(0, None, (SuiteResult("beta", 1, 0.0, 0.0), suite))
    assert report.passed == suite.passed


def test_a_failed_check_makes_the_violation_inf():
    assert _gated(0.5 * TOL, True, True) == 0.5 * TOL
    assert _gated(0.5 * TOL) == 0.5 * TOL
    failed = _gated(0.5 * TOL, True, False)
    assert failed == math.inf
    assert not SuiteResult("alpha", 1, failed, TOL).passed
