"""Tests for the operator zoo: backups, mixtures, thresholds, bounds."""

import re
from dataclasses import replace

import numpy as np
import pytest

from pwmdp import (
    ModeModel,
    OperatorParams,
    StatePartition,
    add_bounded_noise,
    apply_coupled_operator,
    apply_mixture_operator,
    apply_mixture_via_shared,
    apply_mode_operator,
    error_floor,
    estimate_lipschitz,
    make_random_mode,
    mixture_backup,
    mode_fixed_point,
    operators,
    project,
    projection_error,
    regime_perturbation,
    solve_fixed_point,
    sup_dist,
)
from pwmdp.mdp import _draw_mode_tables
from pwmdp.operators import LIPSCHITZ_VALUE_RANGE, _backup


def single_state_model(reward: float = 1.0) -> ModeModel:
    return ModeModel([[reward]], [[[1.0]]], [[0.0]])


class TestModeOperator:
    @pytest.mark.parametrize("weight", [1.0, 0.5])
    @pytest.mark.parametrize("kappa", [0.0, -0.0, 0.25])
    def test_kernel_equals_the_plain_subtraction_of_kappa(self, kappa, weight):
        # the kernel subtracts every kappa and scales by every nonzero weight, so
        # its bits are those of the written-out formula, signs of zero included
        # (x - (-0.0) turns -0.0 into 0.0; x - 0.0 and x * 1.0 keep x)
        model = make_random_mode(3, 5, 2)
        model = ModeModel(np.where(model.reward > 0, -0.0, model.reward), model.kernel,
                          np.zeros((5, 2)))
        params = OperatorParams(gamma=0.5, kappa=kappa)
        q = np.full((3, 5, 2), -0.0)
        q[1] = np.random.default_rng(4).uniform(-1, 1, (5, 2))
        v = q.max(axis=-1)
        expected = np.dot(v, model.kernel.reshape(-1, 5).T).reshape(q.shape)
        expected -= params.lambda_epi * model.gamma_epi
        expected -= kappa
        expected *= params.gamma
        expected += model.reward
        expected *= weight
        got = _backup((model,), (weight,), params, q)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_one_step_backup(self):
        model = single_state_model(1.0)
        params = OperatorParams(gamma=0.5)
        out = apply_mode_operator(model, params, np.zeros((1, 1)))
        assert out[0, 0] == 1.0

    def test_uniform_shift_discounts(self):
        model = make_random_mode(5, 4, 3)
        params = OperatorParams(gamma=0.8, lambda_epi=0.02, kappa=0.3)
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, (4, 3))
        c = 2.25
        base = apply_mode_operator(model, params, q)
        shifted = apply_mode_operator(model, params, q + c)
        np.testing.assert_allclose(shifted, base + params.gamma * c, atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        model = make_random_mode(8, 4, 2)
        params = OperatorParams(gamma=0.9, lambda_epi=0.05, kappa=0.2)
        q = np.zeros((4, 2))
        out = apply_mode_operator(model, params, q)
        # independent oracle: naive triple loop over the backup definition
        v = [max(q[s]) for s in range(4)]
        for s in range(4):
            for a in range(2):
                acc = 0.0
                for s2 in range(4):
                    acc += model.kernel[s, a, s2] * v[s2]
                expected = model.reward[s, a] + params.gamma * (
                    acc - params.lambda_epi * model.gamma_epi[s, a] - params.kappa
                )
                assert abs(out[s, a] - expected) <= 1e-12

    def test_dimension_mismatch(self):
        model = make_random_mode(0, 3, 2)
        with pytest.raises(ValueError, match="mismatch"):
            apply_mode_operator(model, OperatorParams(gamma=0.9), np.zeros((2, 2)))


class TestModeBelief:
    """A regime belief is a weight vector, checked where apply_mixture_operator takes it."""

    @staticmethod
    def mix(belief):
        models = [make_random_mode(0, 2, 2), make_random_mode(1, 2, 2)]
        return apply_mixture_operator(models, belief, OperatorParams(gamma=0.9), np.zeros((2, 2)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.mix(np.array([1.5, -0.5]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            self.mix(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("belief", [np.ones((1, 2)) / 2, np.array([]), np.float64(1.0)])
    def test_rejects_a_non_vector(self, belief):
        with pytest.raises(ValueError, match="belief must be a non-empty vector"):
            self.mix(belief)


class TestMixtureOperator:
    def test_point_mass_reduces_to_mode_operator(self):
        models = [make_random_mode(s, 3, 2) for s in range(3)]
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
        q = np.random.default_rng(1).uniform(-3, 3, (3, 2))
        mixed = apply_mixture_operator(models, np.array([0.0, 1.0, 0.0]), params, q)
        direct = apply_mode_operator(models[1], params, q)
        np.testing.assert_allclose(mixed, direct, atol=1e-15)

    def test_mixture_of_identical_modes(self):
        model = make_random_mode(7, 3, 2)
        params = OperatorParams(gamma=0.9)
        q = np.random.default_rng(2).uniform(-3, 3, (3, 2))
        mixed = apply_mixture_operator([model, model], np.array([0.3, 0.7]), params, q)
        direct = apply_mode_operator(model, params, q)
        np.testing.assert_allclose(mixed, direct, atol=1e-12)

    def test_matches_hand_rolled_weighted_sum(self):
        models = [make_random_mode(s, 4, 2) for s in (10, 11, 12)]
        params = OperatorParams(gamma=0.85, lambda_epi=0.03, kappa=0.25)
        q = np.random.default_rng(3).uniform(-5, 5, (4, 2))
        belief = np.full(3, 1.0 / 3)
        out = apply_mixture_operator(models, belief, params, q)
        # independent oracle: explicit weighted sum of separate backups
        expected = np.zeros((4, 2))
        for w, m in zip(belief, models):
            expected = expected + w * apply_mode_operator(m, params, q)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_mismatch(self):
        models = [make_random_mode(0, 2, 2)]
        with pytest.raises(ValueError, match="weights"):
            apply_mixture_operator(models, np.array([0.5, 0.5]), OperatorParams(gamma=0.9), np.zeros((2, 2)))

    def test_invalid_belief_rejected(self):
        models = [make_random_mode(0, 2, 2), make_random_mode(1, 2, 2)]
        with pytest.raises(ValueError, match="sum"):
            apply_mixture_operator(models, np.array([0.6, 0.6]), OperatorParams(gamma=0.9), np.zeros((2, 2)))

    def test_discounting_fails_with_unnormalized_weights(self):
        # A4 is load-bearing: scaled weights break the discounting identity
        models = [make_random_mode(s, 3, 2) for s in (20, 21)]
        params = OperatorParams(gamma=0.9)
        weights = np.full(2, 0.5) * 0.9
        q = np.random.default_rng(4).uniform(-3, 3, (3, 2))
        base = mixture_backup(models, weights, params, q)
        shifted = mixture_backup(models, weights, params, q + 1.0)
        deviation = np.max(np.abs(shifted - (base + params.gamma * 1.0)))
        assert deviation > 1e-6


BREAKING = dict(sensitivity=0.001, gap=50.0)  # with gamma 0.99: factor 1.04


class TestCoupledOperator:
    def test_reference_breaking_instance_expands(self):
        model = make_random_mode(5, 4, 2)
        params = OperatorParams(gamma=0.99, lambda_epi=0.01, kappa=0.1)
        op = lambda q: apply_coupled_operator(model, params, **BREAKING, q=q)
        factor = estimate_lipschitz(op, (4, 2), n_pairs=50, seed=3)
        assert abs(factor - 1.04) <= 1e-12
        assert factor > 1.0
        q = np.random.default_rng(1).uniform(-5, 5, (4, 2))
        assert sup_dist(op(q + 1.0), op(q)) == pytest.approx(1.04, abs=1e-12)

    def test_zero_sensitivity_contracts(self):
        model = make_random_mode(6, 3, 2)
        params = OperatorParams(gamma=0.99, lambda_epi=0.01, kappa=0.1)
        op = lambda q: apply_coupled_operator(model, params, 0.0, 3.0, q)
        factor = estimate_lipschitz(op, (3, 2), n_pairs=50, seed=4)
        assert abs(factor - 0.99) <= 1e-12
        assert factor < 1.0

    def test_zero_sensitivity_is_the_mode_backup_plus_half_the_gap(self):
        # Q is ignored: the belief sits at 0.5 on the copy whose rewards are gap higher
        model = make_random_mode(7, 4, 3)
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
        q = np.random.default_rng(2).uniform(-10, 10, (5, 4, 3))
        expected = apply_mode_operator(model, params, q) + 0.5 * 7.0
        np.testing.assert_array_equal(apply_coupled_operator(model, params, 0.0, 7.0, q), expected)

    def test_uniform_shift_attains_gamma_plus_coupling(self):
        model = make_random_mode(8, 5, 2)
        params = OperatorParams(gamma=0.8, lambda_epi=0.01, kappa=0.1)
        q = np.random.default_rng(3).uniform(-10, 10, (5, 2))
        for c in (-4.0, 0.5, 3.0):
            step = apply_coupled_operator(model, params, 0.02, 20.0, q + c)
            base = apply_coupled_operator(model, params, 0.02, 20.0, q)
            np.testing.assert_allclose(step - base, (0.8 + 0.02 * 20.0) * c, rtol=0, atol=1e-12)

    def test_subcritical_iteration_converges_to_affine_fixed_point(self):
        # one state: q -> r + gamma q + (0.5 + sensitivity q) gap, factor 0.9 + 0.01 * 5
        model = single_state_model(1.0)
        op = lambda q: apply_coupled_operator(model, OperatorParams(gamma=0.9), 0.01, 5.0, q)
        assert (op(np.ones((1, 1))) - op(np.zeros((1, 1))))[0, 0] == pytest.approx(0.95, abs=1e-15)
        result = solve_fixed_point(op, np.array([[100.0]]), tol=1e-12)
        assert result.converged
        # independent oracle: the affine map's closed-form fixed point
        assert result.q_star[0, 0] == pytest.approx((1.0 + 0.5 * 5.0) / (1.0 - 0.95), abs=1e-9)  # = 70

    def test_classification_boundary_grid(self):
        model = single_state_model(0.0)
        for gamma in np.linspace(0.0, 0.99, 12):
            for coupling in np.linspace(0.0, 0.5, 11):
                params = OperatorParams(gamma=float(gamma))
                op = lambda q: apply_coupled_operator(model, params, float(coupling), 1.0, q)
                f = estimate_lipschitz(op, (1, 1), n_pairs=4, seed=0)
                exact = gamma + coupling
                assert abs(f - exact) <= 1e-12
                if abs(exact - 1.0) > 1e-12:  # the estimate falls on the same side of 1
                    assert (f < 1.0) == (exact < 1.0)

    def test_exactness_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n_states, n_actions = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            model = make_random_mode(int(rng.integers(0, 2**31)), n_states, n_actions)
            params = OperatorParams(gamma=float(rng.uniform(0, 0.99)), lambda_epi=0.01, kappa=0.1)
            sensitivity, gap = float(rng.uniform(0, 0.1)), float(rng.uniform(0, 60))
            factor = params.gamma + sensitivity * gap
            q1, q2 = rng.uniform(-10, 10, (2, n_states, n_actions))
            shift = float(rng.uniform(0.5, 10.0))
            t1, t_shift, t2 = apply_coupled_operator(
                model, params, sensitivity, gap, np.stack([q1, q1 + shift, q2])
            )
            assert abs(sup_dist(t_shift, t1) - factor * sup_dist(q1 + shift, q1)) <= 1e-12
            assert sup_dist(t2, t1) <= factor * sup_dist(q2, q1) + 1e-12

    def test_negative_gap_rejected(self):
        model, params, q = single_state_model(), OperatorParams(gamma=0.9), np.zeros((1, 1))
        for sensitivity, gap, message in (
            (0.1, -1.0, "gap must be >= 0, got -1.0"),
            (-0.1, 1.0, "sensitivity must be >= 0, got -0.1"),
            (np.inf, 1.0, "sensitivity must be a finite number, got inf"),
            (np.nan, 1.0, "sensitivity must be a finite number, got nan"),
            (0.1, np.inf, "gap must be a finite number, got inf"),
            # per-instance arrays on a plain regime returned a (2, *q.shape) stack
            (np.array([0.1, 0.2]), 1.0, "sensitivity must be a finite number, got array([0.1, 0.2])"),
            (0.1, np.array([1.0, 1.0]), "gap must be a finite number, got array([1., 1.])"),
            (True, 1.0, "sensitivity must be a finite number, got True"),
            (0.1, "1", "gap must be a finite number, got '1'"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                apply_coupled_operator(model, params, sensitivity, gap, q)


class TestSolveFixedPoint:
    def test_geometric_series(self):
        model = single_state_model(1.0)
        params = OperatorParams(gamma=0.5)
        result = mode_fixed_point(model, params, tol=1e-12)
        assert result.converged
        assert result.q_star[0, 0] == pytest.approx(2.0, abs=1e-11)

    def test_expansive_map_flagged_unconverged(self):
        model = make_random_mode(5, 4, 2)
        params = OperatorParams(gamma=0.99)
        op = lambda q: apply_coupled_operator(model, params, **BREAKING, q=q)
        result = solve_fixed_point(op, np.ones((4, 2)), tol=1e-10, max_iter=5000)
        assert not result.converged
        assert result.final_residual > 1.0  # residual grows

    def test_matches_long_horizon_oracle(self):
        model = make_random_mode(33, 6, 3)
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.05)
        result = mode_fixed_point(model, params, tol=1e-12)
        # independent oracle: plain long-horizon value iteration
        q = np.zeros((6, 3))
        for _ in range(10_000):
            v = q.max(axis=1)
            q = model.reward + params.gamma * (
                model.kernel @ v - params.lambda_epi * model.gamma_epi - params.kappa
            )
        assert sup_dist(result.q_star, q) <= 1e-8

    def test_posteriori_certificate(self):
        model = make_random_mode(14, 5, 2)
        params = OperatorParams(gamma=0.9)
        tol = 1e-10
        op = lambda q: apply_mode_operator(model, params, q)
        result = solve_fixed_point(op, np.zeros((5, 2)), tol=tol)
        tight = solve_fixed_point(op, np.zeros((5, 2)), tol=1e-14)
        assert result.iterations > 100  # a real iteration, not a start at the answer
        assert sup_dist(result.q_star, tight.q_star) <= tol * params.gamma / (1 - params.gamma)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            solve_fixed_point(lambda q: q, np.zeros((1, 1)), tol=0.0)

    def test_max_iter_exhausted_returns_unconverged(self):
        # q <- q / 2 + 1 from 0 visits 1, 1.5, 1.75, with residuals 1, 0.5, 0.25
        result = solve_fixed_point(lambda q: 0.5 * q + 1, np.zeros((1, 1)), tol=1e-12, max_iter=3)
        assert result.iterations == 3 and result.converged is False
        assert result.q_star[0, 0] == 1.75 and result.final_residual == 0.25


class TestModeFixedPoint:
    @staticmethod
    def _random_cases():
        rng = np.random.default_rng(2024)
        for i in range(60):
            gamma = (0.5, 0.9, 0.99)[i % 3]
            n_states, n_actions = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            model = make_random_mode(int(rng.integers(0, 2**31)), n_states, n_actions)
            yield model, OperatorParams(gamma=gamma, lambda_epi=0.01, kappa=0.1)
        yield make_random_mode(200, 200, 8), OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)

    def test_exact_solution_and_value_iteration_within_its_bound(self):
        tol = 1e-10
        for model, params in self._random_cases():
            exact = mode_fixed_point(model, params, tol=1e-12)
            assert exact.converged and exact.final_residual <= 1e-12
            assert 1 <= exact.iterations <= 10
            iterated = solve_fixed_point(
                lambda q: apply_mode_operator(model, params, q),
                np.zeros((model.n_states, model.n_actions)),
                tol=tol,
            )
            assert iterated.converged
            # the a-posteriori bound, plus round-off of the two solutions
            bound = tol * params.gamma / (1.0 - params.gamma)
            assert sup_dist(iterated.q_star, exact.q_star) <= bound + 1e-13

    def test_identical_actions_terminate_without_switching(self):
        base = make_random_mode(8, 5, 2)
        twin = ModeModel(
            np.repeat(base.reward[:, :1], 3, axis=1),
            np.repeat(base.kernel[:, :1], 3, axis=1),
            np.repeat(base.gamma_epi[:, :1], 3, axis=1),
        )
        result = mode_fixed_point(twin, OperatorParams(gamma=0.95, kappa=0.1), tol=1e-12)
        assert result.converged
        assert result.iterations == 1  # the first policy (action 0 everywhere) is kept
        values = result.q_star
        assert (values == values[:, :1]).all()

    def test_iterations_count_improvement_steps(self):
        # action 0 pays now, action 1 moves to a state that pays more forever
        reward = [[1.0, 0.0], [2.0, 2.0]]
        kernel = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
        model = ModeModel(reward, kernel, np.zeros((2, 2)))
        result = mode_fixed_point(model, OperatorParams(gamma=0.9), tol=1e-12)
        assert result.iterations == 2
        assert result.q_star[0] == pytest.approx([17.2, 18.0], abs=1e-12)

    def test_policy_system_is_bitwise_the_identity_form(self, monkeypatch):
        # each solve's matrix row s must be, bit for bit, row s of
        # np.eye(S) - gamma * K[:, a] for some action a, on kernels with exact zeros
        systems = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            systems.append(a.copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        rng = np.random.default_rng(39)
        for gamma in (0.0, 0.3, 0.9, 0.99):
            base = make_random_mode(int(rng.integers(0, 2**31)), 5, 3)
            kernel = base.kernel * (rng.uniform(size=base.kernel.shape) < 0.5)
            kernel[:, :, 0] += 1e-3  # keep every row's mass positive
            kernel[1, 2] = np.eye(5)[1]  # a self-loop and a point mass
            kernel /= kernel.sum(axis=-1, keepdims=True)
            model = ModeModel(base.reward, kernel, base.gamma_epi)
            assert (model.kernel == 0.0).any()
            systems.clear()
            mode_fixed_point(model, OperatorParams(gamma=gamma, kappa=0.1), tol=1e-12)
            assert systems
            identity_form = np.eye(5)[:, None, :] - gamma * model.kernel  # (S, A, S)
            for system in systems:
                for s in range(5):
                    assert any(system[s].tobytes() == row.tobytes() for row in identity_form[s])

    def test_large_values_still_reach_tol(self):
        # at |Q| ~ 1e6 the linear solve's round-off alone leaves a residual above 1e-10
        base = make_random_mode(1, 6, 3)
        model = ModeModel(base.reward + 1e4, base.kernel, base.gamma_epi)
        params = OperatorParams(gamma=0.99, lambda_epi=0.01)
        result = mode_fixed_point(model, params, tol=1e-10)
        assert result.converged and result.final_residual < 1e-10
        iterated = solve_fixed_point(
            lambda q: apply_mode_operator(model, params, q), np.zeros((6, 3)), tol=1e-10
        )
        np.testing.assert_allclose(result.q_star, iterated.q_star, rtol=1e-13)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            mode_fixed_point(single_state_model(), OperatorParams(gamma=0.5), tol=0.0)


class TestEstimateLipschitz:
    def test_mixture_operator_bounded_by_gamma(self):
        models = [make_random_mode(s, 5, 3) for s in range(4)]
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.2)
        belief = np.full(4, 0.25)
        op = lambda q: apply_mixture_operator(models, belief, params, q)
        est = estimate_lipschitz(op, (5, 3), n_pairs=500, seed=123)
        assert est <= 0.9 + 1e-10
        assert est >= 0.9 - 1e-6  # the structured shift pair is tight

    def test_affine_scalar_estimates_exact_factor(self):
        # the value-coupled backup's one-state case is an affine scalar map
        model, params = single_state_model(0.0), OperatorParams(gamma=0.99)
        op = lambda qs: apply_coupled_operator(model, params, **BREAKING, q=qs)
        est = estimate_lipschitz(op, (1, 1), n_pairs=50, seed=7)
        assert abs(est - 1.04) <= 1e-12

    def test_identity_operator(self):
        est = estimate_lipschitz(lambda q: q, (3, 3), n_pairs=20, seed=0)
        assert est == 1.0

    def test_deterministic_in_seed(self):
        model = make_random_mode(2, 3, 2)
        params = OperatorParams(gamma=0.8)
        op = lambda q: apply_mode_operator(model, params, q)
        assert estimate_lipschitz(op, (3, 2), 20, seed=5) == estimate_lipschitz(op, (3, 2), 20, seed=5)


def per_pair_lipschitz(operator, dims, n_pairs, seed):
    """The per-pair loop estimate_lipschitz batches: one operator call per table."""
    s, a = dims
    lo, hi = LIPSCHITZ_VALUE_RANGE

    def ratio(q1, q2):
        d = sup_dist(q1, q2)
        return 0.0 if d == 0.0 else sup_dist(operator(q1), operator(q2)) / d

    best = 0.0
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, i))
        q1 = rng.uniform(lo, hi, size=(s, a))
        q2 = rng.uniform(lo, hi, size=(s, a))
        best = max(best, ratio(q1, q2))
    base = np.random.default_rng((seed, n_pairs)).uniform(lo, hi, size=(s, a))
    best = max(best, ratio(base, base + 1.0))
    for j in range(min(3, s * a)):
        bumped = base.copy()
        bumped[j // a, j % a] += 1.0
        best = max(best, ratio(base, bumped))
    return best


def random_mixture(seed, n_modes, n_states, n_actions):
    rng = np.random.default_rng(seed)
    models = [make_random_mode(int(rng.integers(2**31)), n_states, n_actions) for _ in range(n_modes)]
    return models, rng


class TestBatchedBackup:
    @pytest.mark.parametrize(
        "weights",
        [[0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.0, 0.45, 0.45], [1.0], [0.27, 0.36, 0.27], [0.0, 0.0, 0.0]],
        ids=["proper", "point_mass", "zero_weight_unnormalised", "single_regime", "unnormalised", "all_zero"],
    )
    def test_matches_per_mode_sum(self, weights):
        models, rng = random_mixture(50, len(weights), 6, 3)
        params = OperatorParams(gamma=0.9, lambda_epi=0.05, kappa=0.3)
        stack = rng.uniform(-5, 5, (7, 6, 3))
        out = mixture_backup(models, np.array(weights), params, stack)
        assert isinstance(out, np.ndarray) and out.shape == stack.shape
        for table, image in zip(stack, out):
            expected = np.zeros((6, 3))
            for w, m in zip(weights, models):
                expected = expected + w * apply_mode_operator(m, params, table)
            np.testing.assert_allclose(image, expected, rtol=0.0, atol=1e-13)
        # the kappa term scales by sum(w), so a uniform shift drifts by gamma*c*(sum(w) - 1)
        c = 1.75
        shifted = mixture_backup(models, np.array(weights), params, stack + c)
        drift = shifted - (out + params.gamma * c)
        np.testing.assert_allclose(drift, params.gamma * c * (sum(weights) - 1.0), rtol=0.0, atol=1e-13)

    def test_mode_and_mixture_operators_batch(self):
        models, rng = random_mixture(51, 2, 5, 2)
        params = OperatorParams(gamma=0.8, lambda_epi=0.01, kappa=0.1)
        belief = np.array([0.3, 0.7])
        stack = rng.uniform(-5, 5, (4, 5, 2))
        for op in (
            lambda q: apply_mode_operator(models[0], params, q),
            lambda q: apply_mixture_operator(models, belief, params, q),
        ):
            batch = op(stack)
            for table, image in zip(stack, batch):
                np.testing.assert_allclose(image, op(table), rtol=0.0, atol=1e-13)

    def test_single_action_tables_back_up_like_the_state_value(self):
        # with A = 1, V is the only column: no column pass runs
        models, rng = random_mixture(52, 2, 5, 1)
        params = OperatorParams(gamma=0.9, lambda_epi=0.05, kappa=0.2)
        stack = rng.uniform(-5, 5, (3, 5, 1))
        out = mixture_backup(models, np.array([0.4, 0.6]), params, stack)
        for table, image in zip(stack, out):
            expected = sum(
                w * (m.reward + params.gamma * (m.kernel @ table[:, 0]
                     - params.lambda_epi * m.gamma_epi - params.kappa))
                for w, m in zip((0.4, 0.6), models)
            )
            np.testing.assert_allclose(image, expected, rtol=0.0, atol=1e-13)
        single = apply_mode_operator(models[0], params, stack[0])
        assert np.array_equal(single, apply_mode_operator(models[0], params, stack[:1])[0])

    @pytest.mark.parametrize("n_states", [1, 3, 8, 50, 200])
    def test_images_do_not_depend_on_the_table_layout(self, n_states):
        # a (2, 3, S, A) stack backs up to the bits of its (6, S, A) flattening
        models, rng = random_mixture(53, 3, n_states, 4)
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
        stack = rng.uniform(-10, 10, (2, 3, n_states, 4))
        flat = stack.reshape(6, n_states, 4)
        for op in (
            lambda q: apply_mode_operator(models[0], params, q),
            lambda q: mixture_backup(models, np.array([0.2, 0.5, 0.3]), params, q),
        ):
            assert np.array_equal(op(stack), op(flat).reshape(stack.shape))

    def test_batch_input_validated(self):
        model = make_random_mode(0, 3, 2)
        params = OperatorParams(gamma=0.9)
        with pytest.raises(ValueError, match="non-finite"):
            apply_mode_operator(model, params, np.full((2, 3, 2), np.nan))
        with pytest.raises(ValueError, match="mismatch"):
            apply_mode_operator(model, params, np.zeros((2, 2, 2)))

    def test_batched_lipschitz_matches_per_pair_loop(self):
        for seed in range(40):
            models, rng = random_mixture(seed, int(1 + seed % 5), int(2 + seed % 7), int(1 + seed % 4))
            dims = models[0].reward.shape
            belief = rng.dirichlet(np.ones(len(models)))
            params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
            # the max comes from the shift pair for a backup, mostly from a random
            # pair for a random linear map, and from a bump pair for a centred map
            matrix = rng.uniform(-1.0, 1.0, (dims[0] * dims[1],) * 2)
            linear = lambda x: (x.reshape(*x.shape[:-2], -1) @ matrix.T).reshape(x.shape)
            centred = lambda x: np.sin(3.0 * (x - x.mean(axis=(-2, -1), keepdims=True)))
            for op in (lambda q: apply_mixture_operator(models, belief, params, q), linear, centred):
                batched = estimate_lipschitz(op, dims, 4, seed)
                assert abs(batched - per_pair_lipschitz(op, dims, 4, seed)) <= 1e-13

    @pytest.mark.parametrize("scale", [1.0, 0.9])
    def test_sampled_factor_never_exceeds_exact_factor(self, scale):
        # exact sup-norm factor of a frozen-weight mixture: gamma * max_{s,a} sum_t |sum_m w_m P_m(t|s,a)|
        for seed in range(20):
            models, rng = random_mixture(100 + seed, 3, 5, 3)
            weights = rng.dirichlet(np.ones(3))
            weights = weights / weights.sum() * scale
            params = OperatorParams(gamma=0.95, lambda_epi=0.01, kappa=0.2)
            kernel = np.einsum("m,msat->sat", weights, np.stack([m.kernel for m in models]))
            exact = params.gamma * np.abs(kernel).sum(axis=2).max()
            assert exact == pytest.approx(scale * params.gamma, abs=1e-12)
            op = lambda q: mixture_backup(models, weights, params, q)
            assert estimate_lipschitz(op, (5, 3), 50, seed) <= exact + 1e-12

    def test_leading_axes_give_one_factor_per_map_matching_single_calls(self):
        models, rng = random_mixture(7, 3, 4, 3)
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
        beliefs = rng.dirichlet(np.ones(3), 6)
        matrix = rng.uniform(-1.0, 1.0, (12, 12))
        single_ops = [lambda q, w=w: mixture_backup(models, w, params, q) for w in beliefs]
        single_ops.append(lambda q: (q.reshape(len(q), -1) @ matrix.T).reshape(q.shape))
        stacked = lambda q: np.stack([op(q) for op in single_ops])
        factors = estimate_lipschitz(stacked, (4, 3), 4, seed=11)
        assert factors.shape == (len(single_ops),)
        expected = [estimate_lipschitz(op, (4, 3), 4, seed=11) for op in single_ops]
        np.testing.assert_array_equal(factors, expected)
        # two leading axes keep their shape
        grid = estimate_lipschitz(lambda q: stacked(q).reshape(7, 1, *q.shape), (4, 3), 4, seed=11)
        np.testing.assert_array_equal(grid, np.reshape(expected, (7, 1)))

    def test_operator_must_keep_the_batch_shape(self):
        with pytest.raises(ValueError, match="shape"):
            estimate_lipschitz(lambda qs: qs[0], (2, 2), 3, seed=0)


def random_instances(rng, n_modes):
    """A shape group: k instances of (S, A) with n_modes regimes each, as plain
    regimes per instance and as stacked regimes, with per-instance coefficients."""
    n_states, n_actions, k = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 41))
    rewards, kernels, penalties = _draw_mode_tables(rng, (k, n_modes), n_states, n_actions)
    stacked = [operators._Regime(rewards[:, m], kernels[:, m], penalties[:, m]) for m in range(n_modes)]
    plain = [[ModeModel(*tables) for tables in zip(rewards[i], kernels[i], penalties[i])] for i in range(k)]
    coefficients = rng.uniform((0.0, 0.0, 0.0), (0.99, 0.1, 0.5), (k, 3))
    return stacked, plain, coefficients


class TestInstanceAxes:
    """One kernel call on regimes with leading instance axes equals each instance's own call, bit for bit."""

    def test_stacked_backup_equals_each_instance_alone(self):
        rng = np.random.default_rng(60)
        for _ in range(150):
            n_modes, n_tables = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            stacked, plain, coefficients = random_instances(rng, n_modes)
            k, (n_states, n_actions) = len(plain), plain[0][0].reward.shape
            weights = rng.dirichlet(np.ones(n_modes), k)
            # a single table per instance may come without a table axis
            tables = () if n_tables == 1 and rng.integers(2) else (n_tables,)
            q = rng.uniform(-10, 10, (k, *tables, n_states, n_actions))
            out = operators._backup(stacked, weights.T, operators._Coefficients(*coefficients.T), q)
            assert out.shape == q.shape
            for i in range(k):
                alone = operators._backup(plain[i], weights[i], OperatorParams(*coefficients[i]), q[i])
                assert np.array_equal(out[i], alone)

    def test_stacked_coupled_operator_equals_each_instance_alone(self):
        # each instance alone goes through the public entry, which calls the kernel on one plain regime
        rng = np.random.default_rng(61)
        for _ in range(100):
            (stacked,), plain, coefficients = random_instances(rng, 1)
            k, (n_states, n_actions) = len(plain), plain[0][0].reward.shape
            sensitivity, gap = rng.uniform((0.0, 0.0), (0.1, 60.0), (k, 2)).T
            q = rng.uniform(-10, 10, (k, 3, n_states, n_actions))
            params = operators._Coefficients(*coefficients.T)
            out = operators._coupled(stacked, params, sensitivity, gap, q)
            for i in range(k):
                alone = apply_coupled_operator(plain[i][0], OperatorParams(*coefficients[i]), sensitivity[i], gap[i], q[i])
                assert np.array_equal(out[i], alone)

    def test_actions_padded_with_copies_of_action_0_leave_the_real_images(self):
        rng = np.random.default_rng(62)
        for _ in range(150):
            stacked, plain, coefficients = random_instances(rng, int(rng.integers(1, 5)))
            k, (n_states, n_actions) = len(plain), plain[0][0].reward.shape
            weights = rng.dirichlet(np.ones(len(stacked)), k).T
            params = operators._Coefficients(*coefficients.T)
            q = rng.uniform(-10, 10, (k, n_states, n_actions))
            pad = np.concatenate([np.arange(n_actions), np.zeros(int(rng.integers(1, 4)), int)])
            padded = [
                operators._Regime(m.reward[..., pad], m.kernel[..., pad, :], m.gamma_epi[..., pad]) for m in stacked
            ]
            out = operators._backup(padded, weights, params, q[..., pad])
            assert np.array_equal(out[..., :n_actions], operators._backup(stacked, weights, params, q))
            assert np.array_equal(out[..., n_actions:], out[..., [0] * (len(pad) - n_actions)])

    def test_projection_over_a_union_partition_equals_each_instance_alone(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            n_states, n_actions, k = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 41))
            partitions = []
            for _ in range(k):
                cuts = np.sort(rng.choice(np.arange(1, n_states), int(rng.integers(0, n_states)), replace=False))
                blocks = np.split(rng.permutation(n_states), cuts)
                partitions.append(StatePartition(n_states, tuple(tuple(b.tolist()) for b in blocks)))
            union = StatePartition(k * n_states, tuple(
                tuple(j * n_states + s for s in block) for j, p in enumerate(partitions) for block in p.blocks
            ))
            values = rng.uniform(-10, 10, (5, k, n_states, n_actions))
            out = operators._project(values.reshape(5, k * n_states, n_actions), union).reshape(values.shape)
            for j, partition in enumerate(partitions):
                assert np.array_equal(out[:, j], operators._project(values[:, j], partition))


class TestRegimePerturbation:
    def test_identical_regimes(self):
        model = make_random_mode(3, 4, 2)
        params = OperatorParams(gamma=0.9)
        result = regime_perturbation(model, model, params)
        assert result.delta_r == 0.0
        assert result.actual_gap <= 1e-9

    def test_uniform_shift_is_tight(self):
        base = make_random_mode(6, 5, 3)
        c = 1.5
        shifted = ModeModel(base.reward + c, base.kernel, base.gamma_epi)
        params = OperatorParams(gamma=0.9)
        result = regime_perturbation(base, shifted, params, tol=1e-12)
        exact = c / (1.0 - params.gamma)
        assert result.actual_gap == pytest.approx(exact, abs=1e-8)
        assert result.bound == pytest.approx(exact, abs=1e-8)

    def test_bound_over_random_pairs(self):
        params = OperatorParams(gamma=0.95)
        rng = np.random.default_rng(17)
        for _ in range(100):
            m1 = make_random_mode(int(rng.integers(0, 2**31)), 4, 2)
            m2 = make_random_mode(int(rng.integers(0, 2**31)), 4, 2)
            result = regime_perturbation(m1, m2, params, tol=1e-11)
            assert result.actual_gap <= result.bound + 1e-8

    def test_unconverged_fixed_point_is_refused(self, monkeypatch):
        solve = operators.mode_fixed_point
        monkeypatch.setattr(
            operators,
            "mode_fixed_point",
            lambda model, params, tol: replace(solve(model, params, tol), converged=False),
        )
        model = make_random_mode(3, 4, 2)
        with pytest.raises(RuntimeError, match="^fixed point of a regime model has residual above tol$"):
            regime_perturbation(model, model, OperatorParams(gamma=0.9))


class TestProject:
    def test_singleton_blocks_identity(self):
        q = np.random.default_rng(0).uniform(-5, 5, (4, 3))
        out = project(q, StatePartition(4, tuple((s,) for s in range(4))))
        assert (out == q).all()

    def test_full_aggregation_is_column_mean(self):
        q = np.arange(12, dtype=float).reshape(4, 3)
        partition = StatePartition(4, ((0, 1, 2, 3),))
        out = project(q, partition)
        np.testing.assert_allclose(out, np.tile(q.mean(axis=0), (4, 1)))

    def test_idempotent(self):
        q = np.random.default_rng(1).uniform(-5, 5, (5, 2))
        partition = StatePartition(5, ((0, 2), (1, 3, 4)))
        once = project(q, partition)
        twice = project(once, partition)
        np.testing.assert_allclose(once, twice, atol=1e-15)

    def test_nonexpansive_over_random_pairs(self):
        rng = np.random.default_rng(2)
        partition = StatePartition(6, ((0, 1), (2, 3, 4), (5,)))
        for _ in range(200):
            q1 = rng.uniform(-10, 10, (6, 2))
            q2 = rng.uniform(-10, 10, (6, 2))
            assert sup_dist(project(q1, partition), project(q2, partition)) <= sup_dist(q1, q2) + 1e-15

    def test_batch_matches_per_table(self):
        rng = np.random.default_rng(3)
        partition = StatePartition(7, ((0, 4), (1, 2, 6), (3,), (5,)))
        stack = rng.uniform(-10, 10, (5, 7, 3))
        out = project(stack, partition)
        for table, image in zip(stack, out):
            assert (image == project(table, partition)).all()

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="cover"):
            StatePartition(3, ((0, 1),))
        with pytest.raises(ValueError, match="more than one"):
            StatePartition(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match=r"^blocks\[0\] state must lie in 0\.\.2, got 3$"):
            StatePartition(3, ((0, 1, 2, 3),))

    def test_projected_operator_still_contracts(self):
        model = make_random_mode(21, 6, 2)
        params = OperatorParams(gamma=0.9)
        partition = StatePartition(6, ((0, 1, 2), (3, 4, 5)))
        op = lambda q: project(apply_mode_operator(model, params, q), partition)
        assert estimate_lipschitz(op, (6, 2), n_pairs=200, seed=3) <= 0.9 + 1e-10

    def test_approx_fixed_point_bound(self):
        # gap between projected and true fixed points <= eps_proj / (1 - gamma)
        model = make_random_mode(22, 6, 2)
        params = OperatorParams(gamma=0.9)
        partition = StatePartition(6, ((0, 3), (1, 2), (4, 5)))
        true_fp = mode_fixed_point(model, params, tol=1e-12)
        op = lambda q: project(apply_mode_operator(model, params, q), partition)
        proj_fp = solve_fixed_point(op, np.zeros((6, 2)), tol=1e-12)
        assert proj_fp.converged
        eps = projection_error(true_fp.q_star, partition)
        gap = sup_dist(proj_fp.q_star, true_fp.q_star)
        assert gap <= eps / (1 - params.gamma) + 1e-9


class TestNoisyOperator:
    """add_bounded_noise: a backed-up table plus entrywise noise bounded by sigma."""

    def test_zero_sigma_exact(self):
        model = make_random_mode(4, 3, 2)
        params = OperatorParams(gamma=0.9)
        q = np.random.default_rng(5).uniform(-2, 2, (3, 2))
        step = apply_mode_operator(model, params, q)
        out = add_bounded_noise(step, 0.0, 99)
        assert (out == apply_mode_operator(model, params, q)).all()

    def test_noise_bounded_by_sigma(self):
        model = make_random_mode(4, 3, 2)
        params = OperatorParams(gamma=0.9)
        step = apply_mode_operator(model, params, np.zeros((3, 2)))
        for seed in range(50):
            out = add_bounded_noise(step, 0.25, seed)
            assert sup_dist(out, step) <= 0.25

    def test_rejects_a_width_whose_span_overflows(self):
        # uniform(-sigma, sigma) needs a finite 2 * sigma
        q = np.zeros((3, 2))
        assert sup_dist(add_bounded_noise(q, 8e307, 0), q) <= 8e307
        for sigma in (1e308, -0.1):  # a NaN is refused as no finite number (invalid-input table)
            with pytest.raises(ValueError, match="sigma must be >= 0"):
                add_bounded_noise(q, sigma, 0)

    def test_stochastic_tracking_bound(self):
        # e(n) <= gamma^n e(0) + sigma / (1 - gamma) along noisy iteration
        gamma, sigma = 0.9, 0.2
        model = make_random_mode(30, 5, 2)
        params = OperatorParams(gamma=gamma)
        fp = mode_fixed_point(model, params, tol=1e-12)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q = rng.uniform(-8, 8, (5, 2))
            e0 = sup_dist(q, fp.q_star)
            for n in range(1, 201):
                q = add_bounded_noise(apply_mode_operator(model, params, q), sigma, (seed, n))
                bound = gamma**n * e0 + sigma / (1 - gamma)
                assert sup_dist(q, fp.q_star) <= bound + 1e-9

    def test_array_in_array_out_and_zero_sigma_returns_input(self):
        tables = np.random.default_rng(6).uniform(-2, 2, (4, 3, 2))
        out = add_bounded_noise(tables, 0.1, (7, 1))
        assert type(out) is np.ndarray and out.shape == tables.shape
        assert 0.0 < np.abs(out - tables).max() <= 0.1
        assert add_bounded_noise(tables, 0.0, 0) is tables

    @pytest.mark.parametrize(
        "shape, sigma",
        [((6, 3), 0.05), ((200, 8), 0.01), ((5, 6, 3), 0.3), ((6, 3), 8e307)],
        ids=["table", "large_table", "batch", "widest_sigma"],
    )
    def test_bit_identical_to_uniform_draws(self, shape, sigma):
        # the in-place scaling of rng.random is uniform(-sigma, sigma)'s own arithmetic
        x = np.random.default_rng(8).uniform(-5, 5, shape)
        for seed in (0, (3, 1, 4), (0, 1, 599, 9)):
            expected = x + np.random.default_rng(seed).uniform(-sigma, sigma, shape)
            assert np.array_equal(add_bounded_noise(x, sigma, seed), expected)


class TestSharedCritic:
    def test_dual_path_mixture_equality(self):
        models = [make_random_mode(s, 4, 3) for s in (1, 2, 3)]
        params = OperatorParams(gamma=0.9, kappa=0.1)
        belief = np.array([0.2, 0.5, 0.3])
        q = np.random.default_rng(2).uniform(-5, 5, (4, 3))
        direct = apply_mixture_operator(models, belief, params, q)
        via = apply_mixture_via_shared(models, belief, params, q)
        assert sup_dist(direct, via) <= 1e-12


class TestArraysOut:
    def test_every_operator_returns_a_new_array(self):
        models = [make_random_mode(s, 4, 3) for s in (1, 2)]
        params = OperatorParams(gamma=0.9, lambda_epi=0.01, kappa=0.1)
        belief = np.array([0.4, 0.6])
        q = np.random.default_rng(9).uniform(-5, 5, (4, 3))
        partition = StatePartition(4, ((0, 1), (2, 3)))
        outs = [
            apply_mode_operator(models[0], params, q),
            mixture_backup(models, belief, params, q),
            apply_mixture_operator(models, belief, params, q),
            apply_mixture_via_shared(models, belief, params, q),
            project(q, partition),
            add_bounded_noise(q, 0.1, 0),
            solve_fixed_point(lambda t: apply_mode_operator(models[0], params, t), q).q_star,
            mode_fixed_point(models[0], params).q_star,
        ]
        for out in outs:
            assert type(out) is np.ndarray and out.shape == (4, 3)
            assert not np.shares_memory(out, q)

    def test_overflowing_backup_leaves_the_fixed_point_unconverged(self):
        # Q* = -1.7e308 is finite, but its backup's P v - lambda G is not; the
        # tables are returned as computed, not refused
        model = ModeModel([[-0.82e308]], [[[1.0]]], [[0.5e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            result = mode_fixed_point(model, OperatorParams(gamma=0.4, lambda_epi=1.0))
        assert type(result.q_star) is np.ndarray and not np.isfinite(result.q_star).all()
        assert not result.converged and not np.isfinite(result.final_residual)


class TestBounds:
    def test_error_floor(self):
        assert error_floor(0.1, 0.2, 0.9) == pytest.approx(3.0)


MODEL = make_random_mode(0, 2, 2)  # 2 states, 2 actions
PARAMS = OperatorParams(gamma=0.9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StatePartition(2, ((0, 1), ())), "empty block in partition"),
        (lambda: apply_mode_operator(MODEL, PARAMS, np.zeros(2)),
         "Q tables must be (..., S, A), got shape (2,)"),
        (lambda: mixture_backup((), np.zeros(0), PARAMS, np.zeros((2, 2))),
         "need at least one model"),
        (lambda: estimate_lipschitz(lambda q: q, (2, 2), 0, seed=0), "n_pairs must be >= 1, got 0"),
        (lambda: estimate_lipschitz(lambda q: q, (0, 3), 4, seed=0), "dims[0] must be >= 1, got 0"),
        (lambda: estimate_lipschitz(lambda q: q, (3, 0), 4, seed=0), "dims[1] must be >= 1, got 0"),
        (lambda: regime_perturbation(MODEL, make_random_mode(0, 3, 2), PARAMS),
         "regime models must share dimensions"),
        (lambda: project(np.zeros((3, 2)), StatePartition(2, ((0,), (1,)))),
         "partition over 2 states but Q has 3"),
        (lambda: apply_mixture_via_shared((MODEL,) * 2, np.full(3, 1 / 3), PARAMS, np.zeros((2, 2))),
         "2 models but 3 belief weights"),
        # a NaN tol passed tol <= 0: the solver ran every one of max_iter backups
        (lambda: solve_fixed_point(lambda q: q, np.zeros((1, 1)), tol=np.nan),
         "tol must be a finite number, got nan"),
        # and the exact solver skipped its polish to return converged=False
        (lambda: mode_fixed_point(MODEL, PARAMS, tol=np.nan), "tol must be a finite number, got nan"),
        # a (2, 1) weight array reached the kernel's per-instance weight path and failed inside numpy
        (lambda: mixture_backup((MODEL,) * 2, np.full((2, 1), 0.5), PARAMS, np.zeros((2, 2))),
         "weights must be a finite vector, got [[0.5], [0.5]]"),
        # a NaN weight returned NaN tables
        (lambda: mixture_backup((MODEL,) * 2, np.array([0.5, np.nan]), PARAMS, np.zeros((2, 2))),
         "weights must be a finite vector, got [0.5, nan]"),
        # a stack of tables failed inside matmul with a gufunc-signature message
        (lambda: apply_mixture_via_shared((MODEL,) * 2, np.full(2, 0.5), PARAMS, np.zeros((3, 2, 2))),
         "Q must be one (S, A) table, got shape (3, 2, 2)"),
        # numpy refused it as an "expected non-negative integer", naming no argument
        (lambda: estimate_lipschitz(lambda q: q, (2, 2), 2, seed=-1), "seed must be >= 0, got -1"),
        # a bool added noise at sigma 1, and text failed the width check with a TypeError
        (lambda: add_bounded_noise(np.zeros((2, 2)), True, 0), "sigma must be a finite number, got True"),
        (lambda: add_bounded_noise(np.zeros((2, 2)), "a", 0), "sigma must be a finite number, got 'a'"),
        (lambda: add_bounded_noise(np.zeros((2, 2)), np.nan, 0), "sigma must be a finite number, got nan"),
        # the floor divided by zero at gamma 1, and was negative above it or for a negative input
        (lambda: error_floor(0.1, 0.1, 1.0), "gamma must satisfy 0 <= gamma < 1, got 1.0"),
        (lambda: error_floor(0.1, 0.1, 1.5), "gamma must satisfy 0 <= gamma < 1, got 1.5"),
        (lambda: error_floor(-1.0, 0.1, 0.9), "eps_proj must be >= 0, got -1.0"),
        (lambda: error_floor(0.1, -0.1, 0.9), "sigma must be >= 0, got -0.1"),
        (lambda: error_floor("a", 0.1, 0.9), "eps_proj must be a finite number, got 'a'"),
        # an empty partition built, and project failed inside numpy's concatenate
        (lambda: StatePartition(0, ()), "n_states must be >= 1, got 0"),
        (lambda: StatePartition(-1, ()), "n_states must be >= 1, got -1"),
        # no backup ran: max_iter -1 returned iterations=-1, and 0 an unconverged result
        (lambda: solve_fixed_point(lambda q: q, np.zeros((1, 1)), max_iter=0), "max_iter must be >= 1, got 0"),
        (lambda: solve_fixed_point(lambda q: q, np.zeros((1, 1)), max_iter=-1), "max_iter must be >= 1, got -1"),
        # one side ended in a bare unpacking ValueError, and a number in a TypeError
        (lambda: estimate_lipschitz(lambda q: q, (2,), 2, seed=0),
         "dims must be a pair (n_states, n_actions), got (2,)"),
        (lambda: estimate_lipschitz(lambda q: q, 3, 2, seed=0), "dims must be a pair (n_states, n_actions), got 3"),
        # a state where a block belongs, or a number for the blocks, raised a TypeError
        (lambda: StatePartition(2, (0, 1)), "blocks[0] must be a sequence of states, got 0"),
        (lambda: StatePartition(2, 5), "blocks must be a sequence of blocks of states, got 5"),
    ],
    ids=[
        "empty_block", "one_dimensional_q", "no_models", "no_pairs", "empty_dims", "no_actions_dims",
        "regime_dimensions",
        "partition_size", "belief_size", "nan_tol", "nan_exact_tol", "column_weights", "nan_weight",
        "stacked_shared_q", "negative_lipschitz_seed", "bool_sigma", "text_sigma", "nan_sigma",
        "floor_gamma_one", "floor_gamma_above_one", "negative_eps_proj", "negative_floor_sigma",
        "text_eps_proj", "empty_partition", "negative_partition_size", "zero_max_iter",
        "negative_max_iter", "one_sided_dims", "scalar_dims", "state_as_block", "scalar_blocks",
    ],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Each entry that backs tables up checks every regime's (S, A) against the
# tables' and names the first regime that differs; the kernel runs unchecked.
REGIME_ENTRIES = {
    "mode_operator": lambda models, q: apply_mode_operator(models[-1], PARAMS, q),
    "coupled_operator": lambda models, q: apply_coupled_operator(models[-1], PARAMS, 0.1, 1.0, q),
    "mixture_backup": lambda models, q: mixture_backup(models, np.full(2, 0.5), PARAMS, q),
    "mixture_operator": lambda models, q: apply_mixture_operator(models, np.full(2, 0.5), PARAMS, q),
    "mixture_via_shared": lambda models, q: apply_mixture_via_shared(models, np.full(2, 0.5), PARAMS, q),
}


@pytest.mark.parametrize("shape", [(4, 2), (3, 3)])
@pytest.mark.parametrize("entry", REGIME_ENTRIES)
def test_every_entry_refuses_a_regime_of_another_shape(entry, shape):
    models = (make_random_mode(0, 3, 2), make_random_mode(1, *shape))
    index = 0 if entry in ("mode_operator", "coupled_operator") else 1  # single-regime entries
    message = f"dimension mismatch: regime {index} is {shape}, Q is (3, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        REGIME_ENTRIES[entry](models, np.zeros((3, 2)))


@pytest.mark.parametrize("entry", REGIME_ENTRIES)
def test_every_entry_refuses_a_regime_with_instance_axes(entry):
    # the instance axes are the private kernels' alone: a stacked regime passed
    # the old check of the reward's last two axes and was backed up
    models = (make_random_mode(0, 3, 2), operators._Regime(*_draw_mode_tables(np.random.default_rng(0), (2,), 3, 2)))
    index = 0 if entry in ("mode_operator", "coupled_operator") else 1  # single-regime entries
    message = f"dimension mismatch: regime {index} is (2, 3, 2), Q is (2, 3, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        REGIME_ENTRIES[entry](models, np.zeros((2, 3, 2)))
