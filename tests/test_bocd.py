"""Tests for the run-length change detector."""

import math
import re
import warnings

import numpy as np
import pytest

from pwmdp import (
    BOCDParams,
    DegenerateBeliefError,
    JointBelief,
    RunLengthBelief,
    bayes_update,
    bocd_step,
    detection_delay,
    posterior_ratio,
)
from pwmdp.bocd import _entropy, _filter_step, _mean_run_length
from pwmdp.harness.sweeps import empirical_detection_delay

PARAMS = BOCDParams()  # h_max=20, hazard=0.05, sigma0_sq=0.1, sigma_g=0.05


def uniform(h_max: int) -> np.ndarray:
    """A one-case batch holding the uniform run-length belief."""
    return np.full((1, h_max), 1.0 / h_max)


def point_mass(h: int, h_max: int) -> np.ndarray:
    """A one-case batch holding all run-length mass at ``h``."""
    probs = np.zeros((1, h_max))
    probs[0, h] = 1.0
    return probs


def gaussian_density(xi: float, h: int, params: BOCDParams) -> float:
    """The closed-form density at run-length h, one scalar at a time."""
    var = params.sigma0_sq + params.sigma_g * h
    return math.exp(-xi * xi / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def density_vector(xi: float, params: BOCDParams) -> np.ndarray:
    """``gaussian_density`` at every run-length bin."""
    return np.array([gaussian_density(xi, h, params) for h in range(params.h_max)])


class TestLikelihood:
    # From the uniform belief each bin h < h_max - 2 grows into bin h + 1 in
    # proportion to its likelihood alone, so the filter's output exposes the
    # per-bin density it forms.

    def test_zero_surprise_base_variance(self):
        # at xi = 0 bin h weighs 1 / sqrt(2 pi (sigma0_sq + sigma_g h)), with
        # sigma0_sq = 0.1 and sigma_g = 0.05
        out = bocd_step(uniform(20), 0.0, PARAMS)[0]
        np.testing.assert_allclose(out[1:-1] / out[1], np.sqrt(0.1 / (0.1 + 0.05 * np.arange(18))), rtol=1e-14)

    def test_decreasing_in_surprise_magnitude(self):
        values = [bocd_step(uniform(20), x, PARAMS)[0, 1] for x in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # the density depends on xi through its square alone
        for x in (0.5, 4.0):
            assert bocd_step(uniform(20), -x, PARAMS).tobytes() == bocd_step(uniform(20), x, PARAMS).tobytes()

    def test_large_surprise_favors_long_run_lengths(self):
        out = bocd_step(uniform(20), 4.0, PARAMS)[0]
        assert all(a < b for a, b in zip(out[1:], out[2:]))

    def test_vector_matches_scalar(self):
        lik = density_vector(1.3, PARAMS)
        out = bocd_step(uniform(20), 1.3, PARAMS)[0]
        growth = (1.0 - PARAMS.hazard) * lik / lik.sum()
        np.testing.assert_allclose(out[1:-1], growth[:-2], rtol=1e-14)
        assert out[-1] == pytest.approx(growth[-2] + growth[-1], rel=1e-14)


def dense_message_passing_oracle(probs: np.ndarray, xi: float, params: BOCDParams) -> np.ndarray:
    """Independent oracle: one update as an explicit dense transition matrix."""
    h = params.h_max
    lik = density_vector(xi, params)
    matrix = np.zeros((h, h))
    matrix[0, :] = params.hazard * lik
    for i in range(1, h):
        matrix[i, i - 1] += (1.0 - params.hazard) * lik[i - 1]
    matrix[h - 1, h - 1] += (1.0 - params.hazard) * lik[h - 1]
    unnormalized = matrix @ probs
    return unnormalized / unnormalized.sum()


class TestBocdStep:
    def test_changepoint_mass_by_construction(self):
        rng = np.random.default_rng(0)
        belief = rng.dirichlet(np.ones(20))[None]
        xi = 0.7
        out = bocd_step(belief, xi, PARAMS)[0]
        lik = density_vector(xi, PARAMS)
        weighted = float(np.dot(belief[0], lik))
        growth = belief[0] * lik * (1 - PARAMS.hazard)
        z = PARAMS.hazard * weighted + growth.sum()
        assert out[0] == pytest.approx(PARAMS.hazard * weighted / z, rel=1e-12)

    def test_point_mass_flows_to_next_bin(self):
        belief = point_mass(0, 20)
        xi = 0.1
        out = bocd_step(belief, xi, PARAMS)[0]
        lik0 = gaussian_density(xi, 0, PARAMS)
        z = PARAMS.hazard * lik0 + (1 - PARAMS.hazard) * lik0
        assert out[1] == pytest.approx((1 - PARAMS.hazard) * lik0 / z, rel=1e-12)
        assert out[0] == pytest.approx(PARAMS.hazard * lik0 / z, rel=1e-12)
        assert out[2:].sum() == 0.0

    def test_matches_matrix_oracle_over_random_stream(self):
        rng = np.random.default_rng(42)
        belief = uniform(20)
        for _ in range(100):
            xi = float(rng.uniform(-4, 4))
            expected = dense_message_passing_oracle(belief[0], xi, PARAMS)
            belief = bocd_step(belief, xi, PARAMS)
            np.testing.assert_allclose(belief[0], expected, atol=1e-12)

    def test_truncation_accumulates_in_last_bin(self):
        belief = point_mass(19, 20)
        out = bocd_step(belief, 0.2, PARAMS)[0]
        # all growth mass stays in the last bin
        assert out[19] == pytest.approx(1 - PARAMS.hazard, rel=1e-12)
        assert out[0] == pytest.approx(PARAMS.hazard, rel=1e-12)

    @pytest.mark.parametrize("update", [bocd_step, _filter_step], ids=["bocd", "filter_step"])
    def test_extreme_surprise_reaches_exact_limit(self, update):
        # every message but the widest bin's underflows; the filter keeps the
        # limit, on the checked entry and on the kernel run_piecewise steps
        rho = update(uniform(20), np.array([1e8]), PARAMS)[0]
        assert rho[0] == pytest.approx(PARAMS.hazard, rel=1e-15)
        assert rho[19] == pytest.approx(1.0 - PARAMS.hazard, rel=1e-15)
        assert (rho[1:19] == 0.0).all()

    @pytest.mark.parametrize("xi", [math.inf, math.nan, 1e200])
    def test_surprise_without_finite_square_rejected(self, xi):
        with pytest.raises(ValueError, match="surprise must be finite"):
            bocd_step(uniform(20), xi, PARAMS)

    def test_integer_surprise_is_squared_as_a_float(self):
        # 2**40 squared overflows an int64; read as a float it is 2**80
        integers, floats = np.array([3, 2**40]), np.array([3.0, 2.0**40])
        assert bocd_step(uniform(20).repeat(2, 0), integers, PARAMS).tobytes() == (
            bocd_step(uniform(20).repeat(2, 0), floats, PARAMS).tobytes()
        )

    @pytest.mark.parametrize(
        "belief, xi, params, expected_top",
        [
            # log 0 in every bin but bin 3
            (point_mass(3, 20), 0.3, PARAMS, 0.0),
            # 1e300 / 2e-10 overflows: bin 0's log density is -inf, the others' finite
            (uniform(20), 1e150, BOCDParams(sigma0_sq=1e-10), 1.0 - PARAMS.hazard),
        ],
        ids=["zero_mass_bins", "overflowing_density"],
    )
    def test_filter_emits_no_floating_point_warning(self, belief, xi, params, expected_top):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = bocd_step(belief, xi, params)[0]
        assert rho[0] == pytest.approx(params.hazard, rel=1e-15)
        assert rho[-1] == pytest.approx(expected_top, abs=1e-15)

    def test_mismatched_h_max(self):
        with pytest.raises(ValueError, match="h_max"):
            bocd_step(uniform(10), 0.0, PARAMS)


class TestBeliefSummaries:
    def test_expected_run_length_point_mass(self):
        for k in (0, 7, 19):
            assert _mean_run_length(point_mass(k, 20)[0]) == float(k)

    def test_expected_run_length_uniform(self):
        assert _mean_run_length(uniform(20)[0]) == pytest.approx(9.5)

    def test_expected_run_length_matches_dot_oracle(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(20))
        expected = sum(h * p for h, p in enumerate(probs))
        assert _mean_run_length(probs) == pytest.approx(expected, rel=1e-12)

    def test_entropy_point_mass_zero(self):
        assert _entropy(point_mass(3, 20)[0]) == 0.0

    def test_entropy_uniform_is_log_n(self):
        assert _entropy(uniform(20)[0]) == pytest.approx(math.log(20), rel=1e-12)

    def test_entropy_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(20))
            assert 0.0 <= _entropy(probs) <= math.log(20) + 1e-12


    def test_summaries_equal_the_array_helpers_on_random_beliefs(self):
        # run_piecewise calls the helpers on the marginal array of its posterior
        rng = np.random.default_rng(7)
        for alpha in (0.05, 1.0, 20.0):  # small alpha leaves bins at exactly 0
            for probs in rng.dirichlet(np.full(20, alpha), 50):
                assert _mean_run_length(probs) == pytest.approx(
                    sum(h * p for h, p in enumerate(probs)), rel=1e-12
                )
                oracle = -sum(p * math.log(p) for p in probs if p > 0.0)
                assert _entropy(probs) == pytest.approx(oracle, rel=1e-12, abs=1e-300)


class TestBayesUpdate:
    def test_constant_likelihood_no_change(self):
        rng = np.random.default_rng(7)
        belief = rng.dirichlet(np.ones(20))[None]
        out = bayes_update(belief, np.full((1, 20), 0.37))
        np.testing.assert_allclose(out, belief, atol=1e-15)

    def test_indicator_likelihood_point_mass(self):
        belief = uniform(20)
        lik = np.zeros((1, 20))
        lik[0, 13] = 1.0
        out = bayes_update(belief, lik)
        assert out[0, 13] == 1.0

    def test_zero_normalizer_raises(self):
        belief = point_mass(0, 20)
        lik = np.zeros((1, 20))
        lik[0, 5] = 1.0  # no overlap with the point mass
        with pytest.raises(DegenerateBeliefError):
            bayes_update(belief, lik)

    def test_simplex_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            belief = rng.dirichlet(np.ones(20))[None]
            out = bayes_update(belief, rng.uniform(0, 1, 20)[None])
            assert (out >= 0).all()
            assert abs(out.sum() - 1.0) <= 1e-12


class TestDetectionDelay:
    def test_posterior_ratio_base_cases(self):
        assert posterior_ratio(0, 2.0, 1.0) == 1.0
        assert posterior_ratio(3, 2.0, 1.0) == 64.0

    def test_posterior_ratio_monotone(self):
        for lr in (1.1, 2.0, 5.0):
            values = [posterior_ratio(n, lr, 1.0) for n in range(51)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_posterior_ratio_beyond_the_largest_double_is_inf(self):
        # 2**2200 overflows a double; odds past every finite target are inf
        assert posterior_ratio(1100, 2.0, 1.0) == math.inf
        assert posterior_ratio(10**6, 1.2, 10.0) == math.inf
        assert posterior_ratio(512, 2.0, 1.0) == math.inf
        # results up to the largest double keep their exact value
        assert posterior_ratio(511, 2.0, 1.0) == 2.0**1022
        assert posterior_ratio(511, 2.0, 0.5) == 2.0**1023

    @pytest.mark.parametrize(
        "call, expected",
        [
            # the prior odds 100 pass 1/delta = 20 at n = 0; the delay read -1.16
            (lambda: (detection_delay(2.0, 0.01, 0.05), empirical_detection_delay(2.0, 0.01, 0.05)), (0.0, 0)),
            # r0 / delta overflowed, and the delay read inf; it is log(1e600) / (2 log 2)
            (lambda: detection_delay(2.0, 1e300, 1e-300), pytest.approx(996.5784284662087, rel=1e-14)),
            # 2.0**1024 overflowed before the division: the odds read inf and the scan stopped at 512
            (
                lambda: (posterior_ratio(512, 2.0, 1e300), empirical_detection_delay(2.0, 1e300, 1e-300)),
                (pytest.approx(2.0**1023 / 1e300 * 2.0, rel=1e-12), 997),
            ),
            # 1 / delta overflowed to inf, and the scan stopped at 512, where the odds read inf
            (
                lambda: (empirical_detection_delay(2.0, 1.0, 1e-310), math.ceil(detection_delay(2.0, 1.0, 1e-310))),
                (515, 515),
            ),
        ],
        ids=["prior_odds_past_the_target", "overflowing_quotient", "overflowing_power", "overflowing_target"],
    )
    def test_calculus_answers_every_accepted_input(self, call, expected):
        assert call() == expected

    def test_delay_values_match_reference_table(self):
        assert detection_delay(2.0, 1.0, 0.05) == pytest.approx(2.2, abs=0.1)
        assert detection_delay(5.0, 1.0, 0.05) == pytest.approx(0.9, abs=0.1)
        assert detection_delay(1.2, 1.0, 0.05) == pytest.approx(8.2, abs=0.1)
        assert detection_delay(2.0, 10.0, 0.05) == pytest.approx(3.8, abs=0.1)

    def test_ceiling_is_minimal_crossing_step(self):
        for lr in (1.2, 2.0, 5.0):
            for r0 in (1.0, 10.0):
                for delta in (0.05, 0.01):
                    target = 1.0 / delta
                    scan = next(n for n in range(1001) if posterior_ratio(n, lr, r0) >= target)
                    assert scan == math.ceil(detection_delay(lr, r0, delta))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            detection_delay(1.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            detection_delay(2.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            posterior_ratio(1, 0.9, 1.0)


class TestBatchedFilter:
    """An array batch gives, case by case, what one one-case call per belief gives."""

    def test_bocd_batch_matches_scalar_calls(self):
        rng = np.random.default_rng(30)
        probs = rng.dirichlet(np.ones(20), 64)
        xi = rng.uniform(-8.0, 8.0, 64)
        out = bocd_step(probs, xi, PARAMS)
        assert out.shape == (64, 20)
        for i in range(64):
            expected = bocd_step(probs[i : i + 1], float(xi[i]), PARAMS)[0]
            np.testing.assert_allclose(out[i], expected, rtol=1e-13, atol=0.0)

    def test_bayes_batch_matches_scalar_calls(self):
        rng = np.random.default_rng(35)
        probs = rng.dirichlet(np.ones(20), 64)
        lik = rng.uniform(0.0, 1.0, (64, 20))
        out = bayes_update(probs, lik)
        for i in range(64):
            expected = bayes_update(probs[i : i + 1], lik[i : i + 1])[0]
            np.testing.assert_allclose(out[i], expected, rtol=1e-13, atol=0.0)

    def test_scalar_arguments_apply_to_every_case(self):
        rng = np.random.default_rng(36)
        probs = rng.dirichlet(np.ones(20), 8)
        out = bocd_step(probs, 0.7, PARAMS)
        each = bocd_step(probs, np.full(8, 0.7), PARAMS)
        assert (out == each).all()

    @pytest.mark.parametrize("update", ["bocd", "bayes"])
    def test_non_simplex_row_is_named(self, update):
        rng = np.random.default_rng(37)
        probs = rng.dirichlet(np.ones(20), 6)
        probs[3, 5] += 1e-6
        with pytest.raises(ValueError, match="row 3 sums to"):
            if update == "bocd":
                bocd_step(probs, 0.0, PARAMS)
            else:
                bayes_update(probs, np.ones((6, 20)))

    def test_per_case_arguments_must_match_the_batch(self):
        probs = np.full((4, 20), 1.0 / 20)
        with pytest.raises(ValueError, match="xi"):
            bocd_step(probs, np.zeros(3), PARAMS)
        with pytest.raises(ValueError, match="h_max"):
            bocd_step(np.full((4, 10), 0.1), 0.0, PARAMS)

    def test_zero_evidence_row_raises(self):
        probs = np.zeros((3, 20))
        probs[:, 0] = 1.0
        lik = np.ones((3, 20))
        lik[1, 0] = 0.0  # case 1: no evidence where its belief has mass
        with pytest.raises(DegenerateBeliefError, match="belief 1"):
            bayes_update(probs, lik)


class TestParamValidation:
    def test_bocd_params_domains(self):
        with pytest.raises(ValueError):
            BOCDParams(h_max=1)
        with pytest.raises(ValueError):
            BOCDParams(hazard=0.0)
        with pytest.raises(ValueError):
            BOCDParams(sigma0_sq=0.0)
        with pytest.raises(ValueError):
            BOCDParams(sigma_g=-0.1)

    def test_belief_simplex_enforced(self):
        with pytest.raises(ValueError):
            RunLengthBelief(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            RunLengthBelief(np.array([1.1, -0.1]))
        assert JointBelief(np.full((4, 2), 0.125)).probs.shape == (4, 2)
        for shape in ((8,), (1, 8), (8, 0)):  # not (h_max >= 2, n_clusters >= 1)
            with pytest.raises(ValueError, match="joint belief must be"):
                JointBelief(np.full(shape, 1.0 / 8))
        with pytest.raises(ValueError):
            JointBelief(np.full((4, 2), 0.1))
        with pytest.raises(ValueError):
            JointBelief(np.array([[1.1, 0.0], [0.0, -0.1]]))

    def test_defaults_match_reference_settings(self):
        assert PARAMS.h_max == 20
        assert PARAMS.hazard == 0.05
        assert PARAMS.sigma0_sq == 0.1
        assert PARAMS.sigma_g == 0.05


class TestDegenerateVariance:
    """Variances at the ends of the double range: rejected, or a proper posterior."""

    def test_overflowing_variance_rejected(self):
        for sigma0_sq, sigma_g in ((1e308, 1e308), (1e308, 0.0), (1.0, 1e307)):
            with pytest.raises(ValueError, match="variance"):
                BOCDParams(h_max=5, sigma0_sq=sigma0_sq, sigma_g=sigma_g)

    def test_equal_underflowing_variances_keep_the_prior(self):
        # every message is -inf; with one variance for all bins the likelihood
        # carries no information, so the update is the xi = 0 one
        probs = np.array([[0.1, 0.2, 0.3, 0.25, 0.15]])
        tiny = BOCDParams(h_max=5, sigma0_sq=1e-320, sigma_g=0.0)
        out = bocd_step(probs, 1.0, tiny)
        expected = bocd_step(probs, 0.0, BOCDParams(h_max=5, sigma0_sq=1.0, sigma_g=0.0))
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_growing_underflowing_variances_send_the_mass_to_the_widest_bin(self):
        probs = np.array([[0.1, 0.2, 0.3, 0.4, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0]])
        tiny = BOCDParams(h_max=5, sigma0_sq=1e-320, sigma_g=1e-320)
        out = bocd_step(probs, 1.0, tiny)
        np.testing.assert_array_equal(out, [[0.05, 0, 0, 0, 0.95], [0.05, 0, 0.95, 0, 0]])
        # the limit of the finite case, where the widest bin already takes all
        near = bocd_step(probs, 1.0, BOCDParams(h_max=5, sigma0_sq=1e-300, sigma_g=1e-300))
        np.testing.assert_array_equal(out, near)

    def test_huge_finite_log_likelihood_keeps_the_prior(self):
        # one variance in every bin: a log density of about -5e299 is the same
        # in each bin and must not absorb log(b) before the shift
        probs = np.array([[0.1, 0.2, 0.3, 0.25, 0.15]])
        out = bocd_step(probs, [1.0], BOCDParams(h_max=5, sigma0_sq=1e-300, sigma_g=0.0))
        np.testing.assert_allclose(out, [[0.05, 0.095, 0.19, 0.285, 0.38]], rtol=1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bocd_step(np.empty((0, 20)), 0.0, PARAMS),
         "run-length belief batch must be (B >= 1, h_max), got (0, 20)"),
        (lambda: bayes_update(uniform(20), np.ones((1, 10))),
         "likelihood shape (1, 10) does not match belief (1, 20)"),
        (lambda: bayes_update(uniform(20), -np.ones((1, 20))),
         "likelihood vector must be finite and non-negative"),
        (lambda: posterior_ratio(1, 2.0, 0.0), "prior ratio must be > 0, got 0.0"),
        (lambda: posterior_ratio(-1, 2.0, 1.0), "n must be >= 0, got -1"),
        (lambda: detection_delay(2.0, 1.0, 1.0), "delta must lie in (0, 1), got 1.0"),
        # NaN passed every range test: the delay came out nan
        (lambda: detection_delay(math.nan, 1.0, 0.05), "likelihood ratio must be a finite number, got nan"),
        (lambda: detection_delay(2.0, math.nan, 0.05), "prior ratio must be a finite number, got nan"),
        (lambda: detection_delay(2.0, 1.0, math.nan), "delta must be a finite number, got nan"),
        (lambda: posterior_ratio(1, math.nan, 1.0), "likelihood ratio must be a finite number, got nan"),
        # a fractional n gave odds of L**5, and True counted as one step
        (lambda: posterior_ratio(2.5, 2.0, 1.0), "n must be an integer, got 2.5"),
        (lambda: posterior_ratio(True, 2.0, 1.0), "n must be an integer, got True"),
        # a bool surprise ran as 1.0, and text failed inside numpy's float conversion
        (lambda: bocd_step(uniform(20), True, PARAMS), "xi must be a number or an array of numbers, got True"),
        (lambda: bocd_step(uniform(20), "a", PARAMS), "xi must be a number or an array of numbers, got 'a'"),
        # the scan read delta unchecked: 0 divided by zero, -1, 2 and True gave 0,
        # nan ran 10^4 steps into a RuntimeError and text failed in the division
        (lambda: empirical_detection_delay(2.0, 1.0, 0), "delta must lie in (0, 1), got 0.0"),
        (lambda: empirical_detection_delay(2.0, 1.0, -1), "delta must lie in (0, 1), got -1.0"),
        (lambda: empirical_detection_delay(2.0, 1.0, 2), "delta must lie in (0, 1), got 2.0"),
        (lambda: empirical_detection_delay(2.0, 1.0, True), "delta must be a finite number, got True"),
        (lambda: empirical_detection_delay(2.0, 1.0, math.nan), "delta must be a finite number, got nan"),
        (lambda: empirical_detection_delay(2.0, 1.0, "a"), "delta must be a finite number, got 'a'"),
    ],
    ids=[
        "empty_batch", "likelihood_shape", "negative_likelihood", "zero_prior_ratio",
        "negative_n", "delta_of_one", "nan_likelihood_ratio", "nan_prior_ratio", "nan_delta",
        "posterior_nan_likelihood_ratio", "fractional_n", "bool_n", "bool_xi", "text_xi",
        "scan_zero_delta", "scan_negative_delta", "scan_delta_above_one", "scan_bool_delta",
        "scan_nan_delta", "scan_text_delta",
    ],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
