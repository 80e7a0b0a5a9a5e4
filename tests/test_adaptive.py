"""Tests for the surprise fusion and adaptive-conservatism chain."""

import math
import re

import numpy as np
import pytest

from pwmdp import adaptive
from pwmdp.harness import config_from_dict, run_piecewise
from pwmdp import (
    AdaptiveState,
    BOCDParams,
    SurpriseWeights,
    beta_eff,
    bocd_step,
    ema_update,
    lambda_w,
    surprise,
)
from pwmdp.bocd import _mean_run_length

WEIGHTS = SurpriseWeights()
RATE = AdaptiveState().baseline_ema_rate  # 0.95


class TestSurprise:
    def test_zero_inputs(self):
        assert surprise(0.0, 0.0, 0.0, WEIGHTS) == 0.0

    def test_single_channel_arithmetic(self):
        assert surprise(4.0, 0.0, 0.0, WEIGHTS) == pytest.approx(2.0)
        assert surprise(-4.0, 0.0, 0.0, WEIGHTS) == pytest.approx(2.0)

    def test_clipping(self):
        assert surprise(1e6, 1e6, 1e6, WEIGHTS) == WEIGHTS.clip_max

    def test_monotone_in_each_channel(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z, q, k = rng.uniform(0, 5, 3)
            base = surprise(z, q, k, WEIGHTS)
            assert surprise(z * 1.5, q, k, WEIGHTS) >= base
            assert surprise(z, q * 1.5, k, WEIGHTS) >= base
            assert surprise(z, q, k * 1.5, WEIGHTS) >= base

    def test_default_weights(self):
        assert (WEIGHTS.w_r, WEIGHTS.w_q, WEIGHTS.w_kappa) == (0.5, 0.3, 0.2)
        assert WEIGHTS.clip_max == 10.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            surprise(float("nan"), 0.0, 0.0, WEIGHTS)
        with pytest.raises(ValueError):
            surprise(0.0, -1.0, 0.0, WEIGHTS)


class TestEmaUpdate:
    def test_fixed_point(self):
        assert ema_update(3.0, 3.0, 0.5) == 3.0

    def test_high_retention_limit(self):
        assert ema_update(1.0, 0.0, 0.999999) == pytest.approx(1.0, abs=1e-5)

    def test_output_between_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            prev, x = rng.uniform(-10, 10, 2)
            rate = float(rng.uniform(0.01, 0.99))
            out = ema_update(prev, x, rate)
            assert min(prev, x) - 1e-12 <= out <= max(prev, x) + 1e-12

    def test_constant_stream_converges(self):
        # independent oracle: geometric decay of the gap
        value, target, rate = 5.0, -2.0, 0.95
        for _ in range(1000):
            value = ema_update(value, target, rate)
        assert abs(value - target) <= abs(5.0 - target) * rate**1000 + 1e-9
        assert value == pytest.approx(target, abs=1e-9)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            ema_update(0.0, 1.0, 1.0)

    def test_rate_zero_keeps_the_new_value(self):
        for prev, x in ((None, 2.5), (7.0, -0.125), (1e300, 3.0)):
            assert ema_update(prev, x, 0.0).hex() == x.hex()

    def test_none_seeds_with_the_first_observation(self):
        rng = np.random.default_rng(3)
        for x, rate in zip(rng.uniform(-1e3, 1e3, 200), rng.uniform(0.01, 0.99, 200)):
            seeded = ema_update(None, float(x), float(rate))
            assert seeded.hex() == ema_update(float(x), float(x), float(rate)).hex()

    @pytest.mark.parametrize("rate", [float("inf"), 1.0, -0.5, float("nan")])
    def test_rate_checked_before_the_first_observation(self, rate):
        with pytest.raises(ValueError, match="rate must lie in"):
            ema_update(None, 1.0, rate)


class TestLambdaW:
    def test_stable_period_zero_penalty(self):
        lam, _, _ = lambda_w(0.4 * 19, 20, 0.4, None, RATE)
        assert lam == 0.0

    def test_direct_subtraction(self):
        lam, _, _ = lambda_w(0.5 * 19, 20, 0.2, None, RATE)
        assert lam == pytest.approx(0.3, abs=1e-12)

    def test_first_observation_seeds_baseline(self):
        lam, baseline, _ = lambda_w(12.0, 20, None, None, RATE)
        assert lam == 0.0
        assert baseline == pytest.approx(12.0 / 19.0)

    def test_baseline_updates_after_extraction(self):
        # a fresh spike is measured against the pre-spike baseline
        lam, baseline, _ = lambda_w(0.8 * 19, 20, 0.2, None, 0.95)
        assert lam == pytest.approx(0.6, abs=1e-12)
        assert baseline == pytest.approx(0.95 * 0.2 + 0.05 * 0.8)

    def test_constant_stream_decays_to_zero(self):
        baseline, sq_deviation = 0.1, None
        lams = []
        for _ in range(300):
            lam, baseline, sq_deviation = lambda_w(0.6 * 19, 20, baseline, sq_deviation, RATE)
            lams.append(lam)
        assert lams[0] == pytest.approx(0.5, abs=1e-12)
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        assert lams[-1] < 1e-5

    def test_nonnegative_always(self):
        rng = np.random.default_rng(2)
        baseline = sq_deviation = None
        for _ in range(1000):
            lam, baseline, sq_deviation = lambda_w(
                float(rng.uniform(0, 19)), 20, baseline, sq_deviation, RATE
            )
            assert lam >= 0.0

    def test_first_observation_gives_zero_and_leaves_the_spread_unseeded(self):
        lam, baseline, sq_deviation = lambda_w(0.0, 20, None, None, RATE)
        assert lam == 0.0
        assert sq_deviation is None
        lam, baseline, sq_deviation = lambda_w(0.5 * 19, 20, baseline, sq_deviation, RATE)
        assert lam == pytest.approx(0.5, abs=1e-12)  # s is 0 until seeded
        assert sq_deviation == pytest.approx(0.25, abs=1e-12)

    def test_steady_jitter_reads_zero_once_the_spread_is_seeded(self):
        # raw alternates 0.02 above and below the baseline; the first rise
        # meets an unseeded spread, every later one stays inside K s
        baseline, sq_deviation = 0.5, None
        lams = []
        for t in range(500):
            h_bar = (0.52 if t % 2 == 0 else 0.48) * 19
            lam, baseline, sq_deviation = lambda_w(h_bar, 20, baseline, sq_deviation, RATE)
            lams.append(lam)
        assert lams[0] == pytest.approx(0.02, abs=1e-12)
        assert all(lam == 0.0 for lam in lams[1:])

    def test_step_rise_above_the_control_limit_reads_at_once(self):
        lam, _, sq_deviation = lambda_w(0.8 * 19, 20, 0.5, 0.01**2, RATE)
        assert lam == pytest.approx(0.3 - adaptive.K * 0.01, abs=1e-12)
        assert sq_deviation == pytest.approx(0.95 * 0.01**2 + 0.05 * 0.3**2)

    def test_rise_within_the_control_limit_reads_zero(self):
        lam, _, _ = lambda_w((0.5 + adaptive.K * 0.05) * 19, 20, 0.5, 0.05**2, RATE)
        assert lam == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="sq_deviation must lie in"):
            lambda_w(1.0, 20, 0.5, -1.0, RATE)
        with pytest.raises(ValueError, match="baseline must lie in"):
            lambda_w(1.0, 20, 1.5, None, RATE)
        with pytest.raises(ValueError):
            lambda_w(25.0, 20, None, None, RATE)
        with pytest.raises(ValueError):
            lambda_w(1.0, 1, None, None, RATE)


class TestBetaEff:
    def test_reference_arithmetic(self):
        state = AdaptiveState(beta_base=-2.0, c_penalty=0.5)
        assert beta_eff(state, 0.4) == pytest.approx(-2.2)

    def test_zero_penalty_identity(self):
        state = AdaptiveState(beta_base=-2.0, c_penalty=0.5)
        assert beta_eff(state, 0.0) == -2.0

    def test_strictly_decreasing_in_lambda(self):
        state = AdaptiveState(beta_base=-2.0, c_penalty=0.5)
        assert beta_eff(state, 0.1) > beta_eff(state, 0.2)

    def test_never_above_base(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            state = AdaptiveState(beta_base=-2.0, c_penalty=float(rng.uniform(0, 5)))
            assert beta_eff(state, float(rng.uniform(0, 5))) <= state.beta_base

    def test_rejects_negative_lambda(self):
        # NaN and inf returned NaN (inf at c_penalty 0), which is not "never above base"
        for lam, message in (
            (-0.1, "lambda must be >= 0, got -0.1"),
            (np.nan, "lambda must be a finite number, got nan"),
            (np.inf, "lambda must be a finite number, got inf"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                beta_eff(AdaptiveState(c_penalty=0.0), lam)


def _loop_xis(rate):
    # the surprise run_piecewise records on a small two-mode schedule; rate 0 records it raw
    config = config_from_dict({
        "n_states": 4,
        "n_actions": 2,
        "modes": [{"seed": 1}, {"seed": 2, "reward_shift": 1.5}],
        "schedule": [[0, 40], [1, 40]],
        "operator": {"gamma": 0.8},
        "adaptive": {"surprise_ema_rate": rate},
    })
    return [row.xi for row in run_piecewise(config).rows]


class TestSurpriseEma:
    def test_only_the_surprise_retention_may_be_zero(self):
        assert AdaptiveState(surprise_ema_rate=0.0).surprise_ema_rate == 0.0
        with pytest.raises(ValueError, match="baseline_ema_rate must lie in"):
            AdaptiveState(baseline_ema_rate=0.0)
        with pytest.raises(ValueError, match="surprise_ema_rate must lie in"):
            AdaptiveState(surprise_ema_rate=1.0)

    def test_first_observation_seeds(self):
        assert ema_update(None, 2.0, AdaptiveState().surprise_ema_rate) == 2.0
        # the loop's smoothed surprise starts at the first raw reading
        assert _loop_xis(0.3)[0] == _loop_xis(0.0)[0]

    def test_smoothing_convention(self):
        state = AdaptiveState(surprise_ema_rate=0.3)
        smoothed = ema_update(1.0, 2.0, state.surprise_ema_rate)
        assert smoothed == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)
        raw, smoothed = _loop_xis(0.0), _loop_xis(0.3)
        assert smoothed[1] == pytest.approx(0.3 * raw[0] + 0.7 * raw[1])


class TestLoopSmoothing:
    def test_smoothed_xi_is_the_ema_of_the_raw_xi(self):
        # the raw surprise never feeds the iterate, so the run at rate 0
        # records the very sequence that the smoothed run averages
        rate = 0.6
        raw, smoothed = _loop_xis(0.0), _loop_xis(rate)
        expected, prev = [], None
        for xi in raw:
            prev = ema_update(prev, xi, rate)
            expected.append(prev.hex())
        assert [xi.hex() for xi in smoothed] == expected
        assert smoothed != raw


class TestClosedLoop:
    def test_spike_raises_penalty_then_relaxes(self):
        # detector + chain: one spike -> lambda_w > 0 within the detection
        # delay, then back below 0.01 once surprise reverts to baseline
        params = BOCDParams()
        belief = np.full((1, 20), 1.0 / 20)
        baseline = sq_deviation = None
        spike_at, detected_at, relaxed_at = 80, None, None
        for t in range(260):
            xi = 4.0 if t == spike_at else 0.3
            belief = bocd_step(belief, xi, params)
            h_bar = _mean_run_length(belief[0])
            lam, baseline, sq_deviation = lambda_w(
                h_bar, params.h_max, baseline, sq_deviation, RATE
            )
            if detected_at is None and t >= spike_at and lam > 0.0:
                detected_at = t
            if detected_at is not None and relaxed_at is None and t > detected_at and lam < 0.01:
                relaxed_at = t
        assert detected_at is not None and detected_at - spike_at <= 3
        assert relaxed_at is not None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AdaptiveState(c_penalty=-0.5), "c_penalty must be >= 0, got -0.5"),
        # lambda_w lies in [0, 1], and at 1 this pair wrote beta_eff = -inf into the trace
        (lambda: AdaptiveState(beta_base=-1e308, c_penalty=1.7e308),
         "c_penalty must keep beta_base - c_penalty finite, got -inf"),
        (lambda: surprise(0.0, 0.0, -1.0, WEIGHTS), "kappa_div must be >= 0, got -1.0"),
        # a bool penalty returned beta_base - c_penalty, and text raised a TypeError
        (lambda: beta_eff(AdaptiveState(), True), "lambda must be a finite number, got True"),
        (lambda: beta_eff(AdaptiveState(), "a"), "lambda must be a finite number, got 'a'"),
        # a finite lambda whose product with c_penalty overflows returned -inf
        (lambda: beta_eff(AdaptiveState(c_penalty=10.0), 1e308),
         "lambda must keep beta_base - lambda * c_penalty finite, got 1e+308"),
        # text raised a TypeError, a bool fused as 1.0, and a NaN named no reading
        (lambda: surprise("a", 1.0, 1.0, WEIGHTS), "reward_z must be a finite number, got 'a'"),
        (lambda: surprise(0.0, True, 0.0, WEIGHTS), "q_std_ratio must be a finite number, got True"),
        (lambda: surprise(0.0, 0.0, math.nan, WEIGHTS), "kappa_div must be a finite number, got nan"),
        # a False rate ran at rate 0, a bool reading averaged as 1.0, and
        # text raised a TypeError
        (lambda: ema_update(None, 1.0, False), "rate must lie in [0, 1), got False"),
        (lambda: ema_update(None, 1.0, "a"), "rate must lie in [0, 1), got 'a'"),
        (lambda: ema_update(True, 2.0, 0.5), "prev must be a finite number, got True"),
        (lambda: ema_update(None, True, 0.5), "x must be a finite number, got True"),
        (lambda: lambda_w(True, 20, None, None, 0.5), "h_bar must be a finite number, got True"),
        (lambda: lambda_w("a", 20, None, None, 0.5), "h_bar must be a finite number, got 'a'"),
        (lambda: lambda_w(1.0, 20, True, None, 0.5), "baseline must be a finite number, got True"),
        (lambda: lambda_w(1.0, 20, 0.5, "a", 0.5), "sq_deviation must be a finite number, got 'a'"),
        (lambda: lambda_w(20.0, 20, None, None, 0.5), "h_bar must lie in [0, 19], got 20.0"),
        (lambda: lambda_w(-0.5, 20, None, None, 0.5), "h_bar must lie in [0, 19], got -0.5"),
    ],
    ids=["negative_c_penalty", "overflowing_lowest_beta_eff", "negative_kappa_div", "bool_lambda", "text_lambda",
         "overflowing_lambda", "text_reward_z",
         "bool_q_std_ratio", "nan_kappa_div", "bool_rate", "text_rate", "bool_prev", "bool_x", "bool_h_bar",
         "text_h_bar", "bool_baseline", "text_sq_deviation", "long_h_bar", "negative_h_bar"],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
