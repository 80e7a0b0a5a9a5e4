"""Tests for the certification runner's report plumbing."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import pwmdp
from pwmdp import OperatorParams, adaptive, bocd, context, detection_delay, make_random_mode, operators
from pwmdp.harness import certify, experiment
from pwmdp.harness.certify import (
    MUTATIONS,
    SUITES,
    CertificationReport,
    SuiteResult,
    _contraction_factors,
    _envelope,
    _gated,
    lambda_w_gates_hold,
    report_to_json,
    run_certification,
    suite_context_losses,
    suite_contraction_certificate,
    suite_detection_delay_table,
    suite_error_budget,
    suite_piecewise_three_phase,
    suite_reproducibility,
    suite_safety_monotonicity,
    suite_sharp_threshold,
    suite_shared_critic_equivalence,
    suite_simplex_preservation,
    three_phase_config_dict,
)
from pwmdp.harness.config import config_from_dict
from pwmdp.harness.experiment import run_piecewise
from pwmdp.harness.io import trace_to_csv_text
from pwmdp.harness.sweeps import empirical_detection_delay
from pwmdp.operators import regime_perturbation

# sha256 of the canonical three-phase trace (CSV), whose lambda_w gate reads single rows
CANONICAL_THREE_PHASE_SHA256 = "dbfa622aba9918900754ce38caf9aa350f90267086e5a41b429e9b83ac1b3d7b"
# sha256 of its err and phase columns alone ("{err!r},{phase}" per row): the
# ensemble noise never reaches the iterate, so how it is drawn cannot move them
CANONICAL_ERR_PHASE_SHA256 = "b91591bd6b650ce07c1d1f4b847dcde6e4f0f708abdc78411784624fc69603f5"


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


def test_envelope_is_the_recursion_in_closed_form():
    gamma, e_anchor, b = 0.9, 3.0, 0.25
    powers = gamma ** np.arange(1, 201)
    np.testing.assert_allclose(_envelope(e_anchor, np.zeros(200), gamma), powers * e_anchor, rtol=1e-12)
    np.testing.assert_allclose(
        _envelope(e_anchor, np.full(200, b), gamma),
        powers * e_anchor + b * (1.0 - powers) / (1.0 - gamma),
        rtol=1e-12,
    )


def expand_backup_kernel(monkeypatch):
    """Replace ``operators._backup`` with one that scales its P.V term by 1.001.

    The stand-in backs up through copies of the regimes whose kernels are
    scaled by 1.001, so it takes instance axes wherever the kernel does.
    """
    real_backup = operators._backup

    def expanding_backup(models, weights, params, q):
        scaled = [operators._Regime(m.reward, 1.001 * m.kernel, m.gamma_epi) for m in models]
        return real_backup(scaled, weights, params, q)

    monkeypatch.setattr(operators, "_backup", expanding_backup)


@pytest.mark.parametrize(
    "run_suite, instances",
    [(suite_contraction_certificate, 7500), (suite_error_budget, 11_000)],
    ids=["contraction_certificate", "error_budget"],
)
def test_contraction_suite_fails_when_the_backup_kernel_expands(monkeypatch, run_suite, instances):
    # suite 1's exact factor reads only the kernels, so only its sampled
    # cross-check can see a backup that scales its P.V term by 1.001; suite 7's
    # random noise stays under the envelope, so only its tight witness can
    assert run_suite(0).passed
    expand_backup_kernel(monkeypatch)
    suite = run_suite(0)
    assert suite.tested_instances == instances
    assert suite.max_violation > suite.tolerance


def test_error_budget_fails_when_a_reference_fixed_point_does_not_converge(monkeypatch):
    # the convergence check is part of the verdict, so python -O cannot strip it
    solve = certify.mode_fixed_point
    monkeypatch.setattr(
        certify,
        "mode_fixed_point",
        lambda model, params, tol: replace(solve(model, params, tol=tol), converged=False),
    )
    assert suite_error_budget(0).max_violation == math.inf


# three regimes, five beliefs over them, and gamma 0.9
UNFROZEN_CASE = (
    [make_random_mode(seed, 4, 2) for seed in (1, 2, 3)],
    np.random.default_rng(3).dirichlet(np.ones(3), 5),
    OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1),
)


def unfrozen_belief():
    """``run_certification``'s injection of ``unfrozen_belief``, for one ``with`` block."""
    return certify._injected(*certify._MUTANTS["unfrozen_belief"])


def test_unfrozen_belief_lifts_the_sample_above_the_exact_factor():
    models, beliefs, params = UNFROZEN_CASE
    exact, sampled = _contraction_factors(models, beliefs, params, 17)
    assert np.all(np.abs(exact - 0.9) <= 1e-15) and np.all(sampled <= exact + 1e-14)
    with unfrozen_belief():
        unfrozen_exact, sampled = _contraction_factors(models, beliefs, params, 17)
    # the exact factor is the frozen-belief formula; the sample measures the coupled map
    assert unfrozen_exact.tobytes() == exact.tobytes()
    assert sampled.shape == (5,) and np.all(sampled > 0.9 + 0.04)
    np.testing.assert_allclose(sampled, 0.95, rtol=1e-12)


def test_unfrozen_belief_samples_through_the_backup_kernel(monkeypatch):
    # the mutation backs its tables up through operators._coupled, which calls
    # operators._backup, so a kernel whose P.V term grows by 1.001 moves the
    # sampled factor by 0.001 * gamma
    with unfrozen_belief():
        _, sampled = _contraction_factors(*UNFROZEN_CASE, 17)
    expand_backup_kernel(monkeypatch)
    with unfrozen_belief():
        _, expanded = _contraction_factors(*UNFROZEN_CASE, 17)
    np.testing.assert_allclose(expanded - sampled, 0.001 * 0.9, rtol=0, atol=1e-12)


def test_dropping_the_coupling_fails_the_threshold_suite_and_the_unfrozen_sample(monkeypatch):
    # with Q ignored the belief stays at 0.5 and the backup contracts at gamma
    # again; suite 3 and the mutation both call the kernel through the module
    real_coupled = operators._coupled
    monkeypatch.setattr(
        operators,
        "_coupled",
        lambda model, params, sensitivity, gap, values: real_coupled(model, params, 0.0, gap, values),
    )
    suite = suite_sharp_threshold(0)
    assert suite.tested_instances == 3001 and not suite.passed
    with unfrozen_belief():
        _, sampled = _contraction_factors(*UNFROZEN_CASE, 17)
    assert np.all(sampled <= 0.9 + 1e-12)


def test_canonical_three_phase_trace_is_pinned():
    # suite 9 certifies this run's rows, so any change to its random streams must show here
    trace = run_piecewise(config_from_dict(three_phase_config_dict(0)))
    digest = hashlib.sha256(trace_to_csv_text(trace).encode()).hexdigest()
    assert digest == CANONICAL_THREE_PHASE_SHA256


def test_canonical_err_and_phase_columns_are_pinned():
    trace = run_piecewise(config_from_dict(three_phase_config_dict(0)))
    columns = "".join(f"{row.err!r},{row.phase}\n" for row in trace.rows)
    assert hashlib.sha256(columns.encode()).hexdigest() == CANONICAL_ERR_PHASE_SHA256


@pytest.mark.parametrize("stream_seed", range(20))
def test_lambda_w_gates_hold_on_every_stream_seed(stream_seed):
    # suite 9 gates one pinned stream; the relaxation must not depend on the draw
    config = config_from_dict(three_phase_config_dict(stream_seed))
    assert lambda_w_gates_hold(config, run_piecewise(config).rows)


@pytest.mark.parametrize("row", [399, 201], ids=["after_anchor", "detection_window"])
def test_piecewise_suite_fails_when_one_row_leaves_its_envelope(monkeypatch, row):
    # segment 1 holds rows 200-399; its detection window ends at the anchor row 203
    config = config_from_dict(three_phase_config_dict(0))
    assert config.schedule.bounds[1][:2] == (200, 400) and config.detection_steps == 3
    trace = run_piecewise(config)
    rows = list(trace.rows)
    if row == 201:
        bound = regime_perturbation(*config.models, config.operator_params, tol=1e-12).bound
    else:
        bound = config.operator_params.gamma ** (row - 203) * rows[203].err
    rows[row] = replace(rows[row], err=bound + 1e-6)
    monkeypatch.setattr(certify, "run_piecewise", lambda config: replace(trace, rows=tuple(rows)))
    suite = suite_piecewise_three_phase(0)
    assert not suite.passed
    assert suite.max_violation == pytest.approx(1e-6, rel=1e-6)


def test_reproducibility_suite_fails_when_a_rerun_changes_one_row(monkeypatch):
    # suite 9 certifies one run, so suite 12's rerun is the determinism check
    assert suite_reproducibility(0).passed
    runs = []

    def drifting_run(config):
        trace = run_piecewise(config)
        runs.append(trace)
        if len(runs) == 2:
            rows = list(trace.rows)
            rows[7] = replace(rows[7], err=math.nextafter(rows[7].err, math.inf))
            trace = replace(trace, rows=tuple(rows))
        return trace

    monkeypatch.setattr(certify, "run_piecewise", drifting_run)
    suite = suite_reproducibility(0)
    assert len(runs) == 2
    assert suite.max_violation == math.inf and not suite.passed


@pytest.mark.parametrize(
    "row, exact, filtered, ceiling",
    [((2.0, 2.0, 0.125), 2, 3, 2), ((2.0, 1.0, 2.0**-30), 15, 16, 15), ((10.0, 1.0, 1e-6), 4, 4, 3)],
    ids=["tie_at_two", "tie_at_fifteen", "double_below_the_power"],
)
def test_exact_crossing_at_ties(row, exact, filtered, ceiling):
    # where L**(2n) * delta meets r0 exactly, the log-domain filter crosses a step late; the
    # double 1e-6 lies below 10**-6, so there the closed form's ceiling is a step early
    assert certify._exact_crossing(*row) == exact
    assert empirical_detection_delay(*row) == filtered
    assert math.ceil(detection_delay(*row)) == ceiling


def test_delay_suite_fails_when_the_empirical_delay_is_one_step_late(monkeypatch):
    # the minimality gate compares the tracked crossing with the exact crossing n*
    assert suite_detection_delay_table(0).passed
    on_time = certify.empirical_detection_delay
    monkeypatch.setattr(certify, "empirical_detection_delay", lambda *args: on_time(*args) + 1)
    suite = suite_detection_delay_table(0)
    assert suite.max_violation == math.inf and not suite.passed


def test_inner_loops_call_the_backup_kernel_once_per_step(monkeypatch):
    # run_piecewise and suite 7 reach operators._backup through the module,
    # so an injected kernel sees every step; a call on regimes with instance
    # axes L backs up prod(L) instance-steps at once
    calls, instance_steps = Counter(), Counter()
    real_backup = operators._backup

    def counting_backup(models, weights, params, q):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] += 1
        instance_steps[caller] += math.prod(models[0].reward.shape[:-2])
        return real_backup(models, weights, params, q)

    monkeypatch.setattr(operators, "_backup", counting_backup)
    config = config_from_dict(three_phase_config_dict(0))
    assert len(run_piecewise(config)) == calls["run_piecewise"] == instance_steps["run_piecewise"] == 600
    suite = suite_error_budget(0)
    assert suite.passed
    assert instance_steps["suite_error_budget"] == suite.tested_instances == 11_000
    # the configs that share S (3 to 7) step in lockstep: one call per group step
    assert calls["suite_error_budget"] <= 5 * (500 + 50)


def test_dense_reference_does_not_depend_on_its_block_size(monkeypatch):
    rng = np.random.default_rng(5)
    params = bocd.BOCDParams()
    probs = rng.dirichlet(np.ones(params.h_max), 256)
    xi = rng.uniform(-8.0, 8.0, 256)
    block = certify._dense_filter(probs, xi, params)
    for size in (1, 37, 64):
        parts = [certify._dense_filter(probs[i : i + size], xi[i : i + size], params) for i in range(0, 256, size)]
        assert np.concatenate(parts).tobytes() == block.tobytes()
    tracemalloc.start()
    try:
        certify._dense_filter(probs, xi, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the 819,200 bytes of one (256, 20, 20) matrix
    assert peak < 256 * params.h_max**2 * 8
    # one matrix for the whole block, as the reference was first written
    monkeypatch.setattr(certify, "_DENSE_CHUNK", 256)
    assert certify._dense_filter(probs, xi, params).tobytes() == block.tobytes()


# Suites 2, 3 and 10, the context losses and the demo, then whether numpy.ma
# was imported: numpy's np.unique imports it on its first call.
NO_MASKED_ARRAYS = """
import sys
from pwmdp.context import ContextLossConfig, context_loss, fit_linear_context, mode_means
from pwmdp.harness import certify
from pwmdp.harness.cli import main

for suite in (certify.suite_blackwell_identities, certify.suite_sharp_threshold, certify.suite_context_losses):
    assert suite(0).passed
states, mode_ids = certify.separable_context_dataset(1)
config = ContextLossConfig()
context_loss(states, mode_ids, config)
mode_means(states, mode_ids)
fit_linear_context((states, mode_ids), config, steps=2, lr=0.1, seed=1)
assert main(["rmdm-demo", "--steps", "2", "--out", sys.argv[1]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_call_path_imports_numpy_ma(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def without_normalizer(params):
    """A copy of ``params`` whose per-bin log-normalizer reads zero."""
    bare = replace(params)
    two_var, log_norm = params._likelihood_terms
    bare.__dict__["_likelihood_terms"] = (two_var, np.zeros_like(log_norm))
    return bare


# Kernel mutations and the suite each must fail: (defining module, kernel
# name, mutate(real) -> stand-in, suite).
KERNEL_MUTATIONS = [
    pytest.param(
        bocd, "_filter_step",
        lambda real: lambda probs, xi, params: real(probs, xi, replace(params, hazard=2.0 * params.hazard)),
        suite_simplex_preservation, id="filter_step_doubled_hazard",
    ),
    pytest.param(
        bocd, "_filter_step",
        lambda real: lambda probs, xi, params: real(probs, xi, without_normalizer(params)),
        suite_simplex_preservation, id="likelihood_without_normalizer",
    ),
    pytest.param(
        adaptive, "surprise",
        lambda real: lambda reward_z, q_std_ratio, kappa_div, weights: real(reward_z, q_std_ratio, 0.0, weights),
        suite_safety_monotonicity, id="surprise_without_kappa",
    ),
    pytest.param(
        operators, "_project",
        lambda real: lambda values, partition: 1.01 * real(values, partition),
        suite_error_budget, id="expanding_projection",
    ),
    pytest.param(
        operators, "_backup",
        lambda real: lambda models, weights, params, q: real(
            models, weights, params, np.broadcast_to(q.min(axis=-1, keepdims=True), q.shape)
        ),
        suite_shared_critic_equivalence, id="backup_min_over_actions",
    ),
    pytest.param(
        adaptive, "lambda_w",
        lambda real: lambda *args: (0.0, *real(*args)[1:]),
        suite_piecewise_three_phase, id="lambda_w_zero",
    ),
    pytest.param(
        operators, "add_bounded_noise",
        lambda real: lambda q, sigma, rng_seed: real(q, 2.0 * sigma, rng_seed),
        suite_error_budget, id="noise_at_two_sigma",
    ),
    pytest.param(
        operators, "_noise",
        lambda real: lambda values, sigma, rng_seed: real(values, 2.0 * sigma, rng_seed),
        suite_error_budget, id="noise_kernel_at_two_sigma",
    ),
    pytest.param(
        context, "encode",
        lambda real: lambda weights, states: states @ np.swapaxes(weights, -1, -2),
        suite_context_losses, id="encode_without_normalization",
    ),
    pytest.param(
        operators, "_backup",
        lambda real: lambda models, weights, params, q: real(models, weights, replace(params, lambda_epi=0.0), q),
        suite_shared_critic_equivalence, id="backup_without_penalty",
    ),
    pytest.param(
        adaptive, "K", lambda real: 0.0, suite_piecewise_three_phase, id="lambda_w_without_control_limit",
    ),
    pytest.param(
        adaptive, "beta_eff",
        lambda real: lambda state, lam: state.beta_base + lam * state.c_penalty,
        suite_safety_monotonicity, id="beta_eff_rising_with_lambda",
    ),
    pytest.param(
        context, "diversity_loss",
        lambda real: lambda means, config: -real(means, config),
        suite_context_losses, id="diversity_loss_negated",
    ),
    pytest.param(
        operators, "_coupled",
        lambda real: lambda model, params, sensitivity, gap, values: real(model, params, 0.0, gap, values),
        suite_sharp_threshold, id="coupled_without_sensitivity",
    ),
    pytest.param(
        bocd, "bayes_update",
        lambda real: lambda beliefs, lik: real(beliefs, np.square(lik)),
        suite_detection_delay_table, id="bayes_update_counting_evidence_twice",
    ),
]


@pytest.mark.parametrize("module, name, mutate, suite", KERNEL_MUTATIONS)
def test_kernel_mutation_fails_its_suite(module, name, mutate, suite):
    # injected as run_certification injects its mutations, in every namespace that binds the kernel
    with certify._injected(module, name, mutate):
        assert not suite(0).passed


def test_an_injection_is_undone_when_the_call_raises():
    namespaces = (pwmdp, adaptive, certify, experiment)
    real = adaptive.surprise
    assert all(namespace.surprise is real for namespace in namespaces)

    def raising(real):
        def stand_in(*args):
            raise RuntimeError("injected")
        return stand_in

    with pytest.raises(RuntimeError, match="^injected$"):
        with certify._injected(adaptive, "surprise", raising):
            assert not any(namespace.surprise is real for namespace in namespaces)
            suite_safety_monotonicity(0)
    assert all(namespace.surprise is real for namespace in namespaces)
