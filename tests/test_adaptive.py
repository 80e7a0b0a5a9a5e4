"""Tests for the surprise fusion and adaptive-conservatism chain."""

import numpy as np
import pytest

from pwmdp import adaptive
from pwmdp import (
    AdaptiveState,
    BOCDParams,
    RunLengthBelief,
    SurpriseInputs,
    SurpriseWeights,
    beta_eff,
    bocd_step,
    ema_update,
    expected_run_length,
    lambda_w,
    lcb_score,
    surprise,
    update_surprise_ema,
)

WEIGHTS = SurpriseWeights()


class TestSurprise:
    def test_zero_inputs(self):
        assert surprise(SurpriseInputs(0.0, 0.0, 0.0), WEIGHTS) == 0.0

    def test_single_channel_arithmetic(self):
        assert surprise(SurpriseInputs(4.0, 0.0, 0.0), WEIGHTS) == pytest.approx(2.0)
        assert surprise(SurpriseInputs(-4.0, 0.0, 0.0), WEIGHTS) == pytest.approx(2.0)

    def test_clipping(self):
        assert surprise(SurpriseInputs(1e6, 1e6, 1e6), WEIGHTS) == WEIGHTS.clip_max

    def test_monotone_in_each_channel(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z, q, k = rng.uniform(0, 5, 3)
            base = surprise(SurpriseInputs(z, q, k), WEIGHTS)
            assert surprise(SurpriseInputs(z * 1.5, q, k), WEIGHTS) >= base
            assert surprise(SurpriseInputs(z, q * 1.5, k), WEIGHTS) >= base
            assert surprise(SurpriseInputs(z, q, k * 1.5), WEIGHTS) >= base

    def test_default_weights(self):
        assert (WEIGHTS.w_r, WEIGHTS.w_q, WEIGHTS.w_kappa) == (0.5, 0.3, 0.2)
        assert WEIGHTS.clip_max == 10.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            SurpriseInputs(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            SurpriseInputs(0.0, -1.0, 0.0)


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

    def test_none_seeds_with_the_first_observation(self):
        rng = np.random.default_rng(3)
        for x, rate in zip(rng.uniform(-1e3, 1e3, 200), rng.uniform(0.01, 0.99, 200)):
            seeded = ema_update(None, float(x), float(rate))
            assert seeded.hex() == ema_update(float(x), float(x), float(rate)).hex()

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, float("nan")])
    def test_rate_checked_before_the_first_observation(self, rate):
        with pytest.raises(ValueError, match="rate must lie in"):
            ema_update(None, 1.0, rate)


class TestLambdaW:
    def test_stable_period_zero_penalty(self):
        state = AdaptiveState(ema_baseline=0.4)
        lam, _ = lambda_w(0.4 * 19, 20, state)
        assert lam == 0.0

    def test_direct_subtraction(self):
        state = AdaptiveState(ema_baseline=0.2)
        lam, _ = lambda_w(0.5 * 19, 20, state)
        assert lam == pytest.approx(0.3, abs=1e-12)

    def test_first_observation_seeds_baseline(self):
        state = AdaptiveState()
        lam, updated = lambda_w(12.0, 20, state)
        assert lam == 0.0
        assert updated.ema_baseline == pytest.approx(12.0 / 19.0)

    def test_baseline_updates_after_extraction(self):
        # a fresh spike is measured against the pre-spike baseline
        state = AdaptiveState(ema_baseline=0.2, baseline_ema_rate=0.95)
        lam, updated = lambda_w(0.8 * 19, 20, state)
        assert lam == pytest.approx(0.6, abs=1e-12)
        assert updated.ema_baseline == pytest.approx(0.95 * 0.2 + 0.05 * 0.8)

    def test_constant_stream_decays_to_zero(self):
        state = AdaptiveState(ema_baseline=0.1)
        lams = []
        for _ in range(300):
            lam, state = lambda_w(0.6 * 19, 20, state)
            lams.append(lam)
        assert lams[0] == pytest.approx(0.5, abs=1e-12)
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        assert lams[-1] < 1e-5

    def test_nonnegative_always(self):
        rng = np.random.default_rng(2)
        state = AdaptiveState()
        for _ in range(1000):
            lam, state = lambda_w(float(rng.uniform(0, 19)), 20, state)
            assert lam >= 0.0

    def test_first_observation_gives_zero_and_leaves_the_spread_unseeded(self):
        lam, updated = lambda_w(0.0, 20, AdaptiveState())
        assert lam == 0.0
        assert updated.ema_sq_deviation is None
        lam, updated = lambda_w(0.5 * 19, 20, updated)
        assert lam == pytest.approx(0.5, abs=1e-12)  # s is 0 until seeded
        assert updated.ema_sq_deviation == pytest.approx(0.25, abs=1e-12)

    def test_steady_jitter_reads_zero_once_the_spread_is_seeded(self):
        # raw alternates 0.02 above and below the baseline; the first rise
        # meets an unseeded spread, every later one stays inside K s
        state = AdaptiveState(ema_baseline=0.5)
        lams = []
        for t in range(500):
            lam, state = lambda_w((0.52 if t % 2 == 0 else 0.48) * 19, 20, state)
            lams.append(lam)
        assert lams[0] == pytest.approx(0.02, abs=1e-12)
        assert all(lam == 0.0 for lam in lams[1:])

    def test_step_rise_above_the_control_limit_reads_at_once(self):
        state = AdaptiveState(ema_baseline=0.5, ema_sq_deviation=0.01**2)
        lam, updated = lambda_w(0.8 * 19, 20, state)
        assert lam == pytest.approx(0.3 - adaptive.K * 0.01, abs=1e-12)
        assert updated.ema_sq_deviation == pytest.approx(0.95 * 0.01**2 + 0.05 * 0.3**2)

    def test_rise_within_the_control_limit_reads_zero(self):
        state = AdaptiveState(ema_baseline=0.5, ema_sq_deviation=0.05**2)
        lam, _ = lambda_w((0.5 + adaptive.K * 0.05) * 19, 20, state)
        assert lam == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            AdaptiveState(ema_sq_deviation=-1.0)
        with pytest.raises(ValueError):
            lambda_w(25.0, 20, AdaptiveState())
        with pytest.raises(ValueError):
            lambda_w(1.0, 1, AdaptiveState())


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
        with pytest.raises(ValueError):
            beta_eff(AdaptiveState(), -0.1)


class TestLcbScore:
    def test_zero_std_ignores_beta(self):
        assert lcb_score(3.0, 0.0, -99.0) == 3.0

    def test_equal_std_preserves_ranking(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            means = rng.uniform(-5, 5, 6)
            std = float(rng.uniform(0, 2))
            beta = float(rng.uniform(-5, 0))
            scores = [lcb_score(m, std, beta) for m in means]
            assert int(np.argmax(scores)) == int(np.argmax(means))

    def test_low_std_action_gains_rank_as_beta_drops(self):
        rng = np.random.default_rng(5)
        promoted = 0
        for _ in range(200):
            means = rng.uniform(0, 1, 4)
            stds = rng.uniform(0, 1, 4)
            order_mild = np.argsort([-lcb_score(m, s, -0.1) for m, s in zip(means, stds)])
            order_harsh = np.argsort([-lcb_score(m, s, -5.0) for m, s in zip(means, stds)])
            safest = int(np.argmin(stds))
            rank_mild = int(np.where(order_mild == safest)[0][0])
            rank_harsh = int(np.where(order_harsh == safest)[0][0])
            assert rank_harsh <= rank_mild
            promoted += rank_harsh < rank_mild
        assert promoted > 0  # the sweep actually exercises rank changes

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            lcb_score(0.0, -1.0, -2.0)


class TestSurpriseEma:
    def test_first_observation_seeds(self):
        smoothed, state = update_surprise_ema(AdaptiveState(), 2.0)
        assert smoothed == 2.0
        assert state.surprise_ema == 2.0

    def test_smoothing_convention(self):
        state = AdaptiveState(surprise_ema=1.0, surprise_ema_rate=0.3)
        smoothed, _ = update_surprise_ema(state, 2.0)
        assert smoothed == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)


class TestClosedLoop:
    def test_spike_raises_penalty_then_relaxes(self):
        # detector + chain: one spike -> lambda_w > 0 within the detection
        # delay, then back below 0.01 once surprise reverts to baseline
        params = BOCDParams()
        belief = RunLengthBelief.uniform(20)
        state = AdaptiveState()
        spike_at, detected_at, relaxed_at = 80, None, None
        for t in range(260):
            xi = 4.0 if t == spike_at else 0.3
            belief = bocd_step(belief, xi, params)
            lam, state = lambda_w(expected_run_length(belief), params.h_max, state)
            if detected_at is None and t >= spike_at and lam > 0.0:
                detected_at = t
            if detected_at is not None and relaxed_at is None and t > detected_at and lam < 0.01:
                relaxed_at = t
        assert detected_at is not None and detected_at - spike_at <= 3
        assert relaxed_at is not None
