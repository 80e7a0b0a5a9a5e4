"""Tests for the experiment harness: config, scripted runs, sweeps, trace I/O."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pwmdp import add_bounded_noise, apply_mode_operator, estimate_lipschitz, make_random_mode, mode_fixed_point
from pwmdp import sup_dist
from pwmdp.bocd import BOCDParams, _entropy, _mean_run_length, bocd_step, detection_delay
from pwmdp.harness import (
    ConfigError,
    ExperimentTrace,
    MetastabilityWarning,
    TraceRow,
    config_from_dict,
    emit_trace,
    read_trace,
    run_delay_table,
    run_piecewise,
    run_threshold_sweep,
    write_table,
)
from pwmdp.harness.config import DEFAULT_CONFIG, FIELDS
from pwmdp.harness.experiment import _greedy_rollout, _spread
from pwmdp.harness.io import csv_text, trace_to_csv_text
from pwmdp.harness.sweeps import SWEEP_R_LOW, _classify, empirical_detection_delay


def small_config_dict(**overrides) -> dict:
    raw = {
        "seed": 0,
        "n_states": 4,
        "n_actions": 2,
        "modes": [{"seed": 1}, {"seed": 2, "reward_shift": 1.5}],
        "schedule": [[0, 40], [1, 40]],
        "operator": {"gamma": 0.8, "lambda_epi": 0.01, "kappa": 0.0},
    }
    raw.update(overrides)
    return raw


# sha256 of a short S = 200, A = 8 trace with a pair partition and iterate
# noise (the piecewise_large shape): pins the rollout's cached CDF rows, the
# in-place ensemble draw and the spread on tables of that size
S200_TRACE_SHA256 = "50eda7ff7ca6cac7b2b4ecca5dc31dd98883f7c2098747cdf03f6d541795bee4"


def s200_config_dict() -> dict:
    return {
        "seed": 7,
        "n_states": 200,
        "n_actions": 8,
        "modes": [{"seed": s} for s in (1, 2, 3, 4)],
        "schedule": [[0, 30], [1, 30], [2, 30], [3, 30]],
        "operator": {"gamma": 0.9, "lambda_epi": 0.01, "kappa": 0.0},
        "partition": [[i, i + 1] for i in range(0, 200, 2)],
        "noise_sigma": 0.01,
    }


class TestConfig:
    def test_defaults_fill_in(self):
        config = config_from_dict(small_config_dict())
        assert config.bocd_params.h_max == 20
        assert config.bocd_params.hazard == 0.05
        assert config.surprise_weights.w_r == 0.5
        assert config.adaptive_template.beta_base == -2.0
        assert config.adaptive_template.c_penalty == 0.5
        assert config.n_ensemble == 10

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict(small_config_dict(gamma=0.9))

    def test_unknown_nested_field_rejected(self):
        raw = small_config_dict()
        raw["bocd"] = {"h_max": 20, "hazzard": 0.05}
        with pytest.raises(ConfigError, match="hazzard"):
            config_from_dict(raw)

    def test_schedule_mode_out_of_range(self):
        with pytest.raises(ConfigError, match="mode 2"):
            config_from_dict(small_config_dict(schedule=[[0, 10], [2, 10]]))

    def test_invalid_gamma_rejected(self):
        raw = small_config_dict()
        raw["operator"] = {"gamma": 1.2}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_explicit_mode_tables(self):
        raw = small_config_dict()
        raw["n_states"], raw["n_actions"] = 2, 1
        kernel = [[[0.5, 0.5]], [[0.25, 0.75]]]
        raw["modes"] = [
            {"reward": [[1.0], [0.0]], "kernel": kernel, "gamma_epi": [[0.0], [0.0]]},
            {"seed": 3},
        ]
        raw["schedule"] = [[0, 10], [1, 10]]
        config = config_from_dict(raw)
        assert config.models[0].reward[0, 0] == 1.0

    def test_explicit_ndarray_tables_are_copied_not_frozen(self):
        raw = small_config_dict(n_states=2, n_actions=1, schedule=[[0, 10], [1, 10]])
        tables = {"reward": np.array([[1.0], [0.0]]), "kernel": np.full((2, 1, 2), 0.5),
                  "gamma_epi": np.zeros((2, 1))}
        tables["kernel"].flags.writeable = False  # frozen storage, which a model would keep
        raw["modes"] = [tables, {"seed": 3}]
        model = config_from_dict(raw).models[0]
        for key, given in tables.items():
            assert not np.shares_memory(getattr(model, key), given)
            assert given.flags.writeable == (key != "kernel") and not getattr(model, key).flags.writeable

    def test_seed_modes_are_held_once(self):
        # each regime's tables go from the draw to the model without a copy,
        # so loading peaks within 5% of what the loaded config holds
        raw = s200_config_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MetastabilityWarning)
            config_from_dict(raw)
            tracemalloc.start()
            try:
                config = config_from_dict(raw)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(config.models) == 4 and peak <= 1.05 * held

    def test_invalid_explicit_kernel_rejected(self):
        raw = small_config_dict()
        raw["n_states"], raw["n_actions"] = 2, 1
        raw["modes"] = [
            {"reward": [[1.0], [0.0]], "kernel": [[[0.5, 0.4]], [[0.25, 0.75]]]},
            {"seed": 3},
        ]
        with pytest.raises(ConfigError, match="sums to"):
            config_from_dict(raw)

    def test_metastability_warning_on_short_dwell(self):
        raw = small_config_dict(schedule=[[0, 3], [1, 40]])
        with pytest.warns(MetastabilityWarning, match="segment 0"):
            config_from_dict(raw)

    def test_no_warning_on_long_dwell(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", MetastabilityWarning)
            config_from_dict(small_config_dict())

    def test_detection_steps_from_separability(self):
        config = config_from_dict(small_config_dict())
        assert config.detection_steps == math.ceil(
            math.log(1.0 / 0.05) / (2.0 * math.log(2.0))
        )

    def test_partition_block_is_read(self):
        raw = small_config_dict(partition=[[0, 1], [2, 3]])
        config = config_from_dict(raw)
        assert config.partition is not None

    def test_integer_fields_take_whole_floats_and_reject_the_rest(self):
        config = config_from_dict(small_config_dict(seed=3.0, rollout_len=8.0))
        assert (config.seed, config.rollout_len) == (3, 8)
        for bad in ({"seed": 3.5}, {"seed": False}, {"rollout_len": "8"}, {"partition": [[0, 1.5]]}):
            with pytest.raises(ConfigError, match="must be an integer"):
                config_from_dict(small_config_dict(**bad))

    def test_float_fields_take_finite_numbers_and_reject_the_rest(self):
        config = config_from_dict(small_config_dict(noise_sigma=0, operator={"gamma": 0}))
        assert (config.noise_sigma, config.operator_params.gamma) == (0.0, 0.0)
        assert isinstance(config.operator_params.gamma, float)
        for bad, name in (
            ({"noise_sigma": True}, "noise_sigma"),
            ({"delta": "0.1"}, "delta"),
            ({"separability": float("inf")}, "separability"),
            ({"bocd": {"hazard": float("nan")}}, "bocd.hazard"),
            ({"surprise": {"w_q": None}}, "surprise.w_q"),
            ({"reward_range": [-1.0, "1"]}, "reward_range"),
            ({"modes": [{"seed": 1, "reward_shift": False}]}, "modes\\[0\\].reward_shift"),
        ):
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                config_from_dict(small_config_dict(**bad))

    def test_clip_max_needs_a_finite_square(self):
        config_from_dict(small_config_dict(surprise={"clip_max": 1e150}))
        with pytest.raises(ConfigError, match="clip_max must have a finite square"):
            config_from_dict(small_config_dict(surprise={"clip_max": 1e155}))

    def test_every_default_passes_its_own_field_checks(self):
        for path, field in FIELDS.items():
            # defaults are not read, so each scalar's must already have its kind
            assert field.kind is list or type(field.default) is field.kind, path
            section, _, key = path.rpartition(".")
            raw = {section: {key: field.default}} if section else {key: field.default}
            config_from_dict(raw)

    def test_default_config_is_the_field_table_nested(self):
        for path, field in FIELDS.items():
            section, _, key = path.rpartition(".")
            nested = DEFAULT_CONFIG[section] if section else DEFAULT_CONFIG
            assert nested[key] == field.default
        config_from_dict(DEFAULT_CONFIG)  # no field outside the table

    @pytest.mark.parametrize(
        "raw, lead",
        [
            ({"adaptive": {"baseline_ema_rate": 2}}, "adaptive.baseline_ema_rate must lie in (0, 1)"),
            ({"operator": {"gamma": 1.2}}, "operator.gamma must satisfy"),
            ({"bocd": {"hazard": 1.5}}, "bocd.hazard must lie in (0, 1)"),
            ({"surprise": {"w_r": -1.0}}, "surprise.w_r must be >= 0"),
            ({"schedule": 5}, "schedule: "),
            ({"schedule": [[0]]}, "schedule: "),
            ({"schedule": [[0, 3], [1, 0]]}, "schedule: segments[1] dwell must be >= 1, got 0"),
            ({"reward_range": [1]}, "reward_range must be a pair (low, high), got [1]"),
            ({"modes": [{"seed": 1}, {"seed": -1}]}, "modes[1].seed must be >= 0, got -1"),
            ({"partition": [[0, 9]]}, "partition: "),
            # a state where a block belongs raised Python's own TypeError after the prefix
            ({"partition": [0, 1]}, "partition: blocks[0] must be a sequence of states, got 0"),
            # the fixed-point polish would need ~1e9 backups at this gamma
            ({"operator": {"gamma": 0.999999999}},
             "operator.gamma must satisfy 1 / (1 - gamma) <= 1000000, got 0.999999999"),
            ({"bocd": {"h_max": 2**25 + 1}},
             "bocd.h_max = 33554433 needs a run-length posterior of 33554433 doubles, "
             "beyond the budget of 33554432"),
            # (n_ensemble + 1) * 6 * 3 doubles is one past 2**25 at the smallest such n_ensemble
            ({"n_ensemble": 1864135}, "n_ensemble = 1864135 with 18 (state, action) pairs needs"),
            ({"rollout_len": 2**25 + 1}, "rollout_len = 33554433 needs a rollout of 33554433"),
            # the largest mode index any segment names, not the last segment's
            ({"schedule": [[0, 100], [2, 100], [1, 100]]},
             "schedule references mode 2 but only 2 modes are defined"),
        ],
        ids=["adaptive", "operator", "bocd", "surprise", "scalar_schedule", "short_segment",
             "zero_dwell", "short_reward_range", "negative_mode_seed", "partition", "state_as_block",
             "polish_budget", "posterior_h_max", "ensemble_budget", "rollout_budget", "schedule_mode"],
    )
    def test_range_error_names_its_config_field(self, raw, lead):
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value).startswith(lead)

    @pytest.mark.parametrize(
        "path, value, name, call, text",
        [
            ("noise_sigma", -1.0, "sigma", lambda v: add_bounded_noise(np.zeros((2, 2)), v, 0),
             "must be >= 0 with 2 * sigma finite, got -1.0"),
            ("ensemble_sigma", 1e308, "sigma", lambda v: add_bounded_noise(np.zeros((2, 2)), v, 0),
             "must be >= 0 with 2 * sigma finite, got 1e+308"),
            ("seed", -1, "seed", lambda v: make_random_mode(v, 2, 2), "must be >= 0, got -1"),
            ("separability", 1.0, "likelihood ratio", lambda v: detection_delay(v, 1.0, 0.05),
             "must be > 1, got 1.0"),
            ("stat_ema_rate", 1.0, "hazard", lambda v: BOCDParams(hazard=v), "must lie in (0, 1), got 1.0"),
            ("rollout_len", 0, "n_pairs", lambda v: estimate_lipschitz(lambda q: q, (2, 2), v, 0),
             "must be >= 1, got 0"),
        ],
        ids=["noise_sigma", "ensemble_sigma", "seed", "separability", "stat_ema_rate", "rollout_len"],
    )
    def test_field_row_and_api_reader_word_one_rule_alike(self, path, value, name, call, text):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path} {text}')}$"):
            config_from_dict({path: value})
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {text}')}$"):
            call(value)

    def test_ensemble_and_rollout_at_the_budget_load(self):
        config = config_from_dict({"n_ensemble": 2**25 // 18 - 1, "rollout_len": 2**25})
        assert ((config.n_ensemble + 1) * 18, config.rollout_len) == (33554430, 2**25)

    def test_gamma_within_the_polish_budget_loads(self):
        # 1 / (1 - gamma) = 1e5 backups, inside the polish budget of 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MetastabilityWarning)
            config = config_from_dict({"operator": {"gamma": 0.99999}})
        assert config.operator_params.gamma == 0.99999


def old_mode_at(segments, t: int) -> int:
    """The schedule lookup that ``PiecewiseSchedule.bounds`` replaced."""
    acc = 0
    for m, d in segments:
        acc += d
        if t < acc:
            return m
    raise ValueError(f"iteration {t} beyond schedule end {acc}")


def old_switch_times(segments) -> list:
    """Iterations at which a new segment begins (excluding t=0), as computed before ``bounds``."""
    times, acc = [], 0
    for _, d in segments[:-1]:
        acc += d
        times.append(acc)
    return times


def test_schedule_walk_matches_the_old_lookup_and_scan():
    # the trace's true_mode and detection phase are the loop's per-iteration
    # regime and detection-window lists; dwells run shorter than n_delta
    rng = np.random.default_rng(11)
    spilled = 0
    for _ in range(25):
        segments = [[int(rng.integers(2)), int(rng.integers(1, 8))] for _ in range(rng.integers(1, 5))]
        delta = float(rng.choice([0.01, 0.05, 0.2]))  # n_delta 4, 3 and 2 at separability 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MetastabilityWarning)
            config = config_from_dict(small_config_dict(schedule=segments, delta=delta))
        n_delta, n_iter = config.detection_steps, sum(d for _, d in segments)
        switch_times = old_switch_times(segments)
        starts = [0, *switch_times]
        assert config.schedule.total_iterations == n_iter
        assert config.schedule.bounds == tuple(
            (st, st + d, m) for st, (m, d) in zip(starts, segments)
        )
        rows = run_piecewise(config).rows
        assert [r.true_mode for r in rows] == [old_mode_at(segments, t) for t in range(n_iter)]
        assert [r.phase == "detection" for r in rows] == [
            any(st <= t < st + n_delta for st in switch_times) for t in range(n_iter)
        ]
        spilled += any(d < n_delta for _, d in segments[1:])
    assert spilled > 0


def readme_defaults_table() -> str:
    """README's defaults table, rendered from the field table."""
    rows = ["| field | kind | default | range checked at load |", "|---|---|---|---|"]
    for path, field in FIELDS.items():
        rows.append(f"| `{path}` | {field.kind.__name__} | `{json.dumps(field.default)}` | {field.rule[1] if field.rule else ''} |")
    return "\n".join(rows) + "\n"


def test_readme_defaults_table_matches_the_field_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    expected = readme_defaults_table()
    assert expected in section, f"README's Configuration section should hold:\n{expected}"


class TestRunPiecewise:
    def test_trace_shape_and_contiguity(self):
        config = config_from_dict(small_config_dict())
        trace = run_piecewise(config)
        assert len(trace) == 80
        assert [r.iter for r in trace.rows] == list(range(80))
        assert {r.true_mode for r in trace.rows} == {0, 1}

    def test_deterministic_per_seed(self):
        config = config_from_dict(small_config_dict())
        a = trace_to_csv_text(run_piecewise(config))
        b = trace_to_csv_text(run_piecewise(config))
        assert a == b

    def test_different_seed_changes_trace(self):
        a = trace_to_csv_text(run_piecewise(config_from_dict(small_config_dict(seed=0))))
        b = trace_to_csv_text(run_piecewise(config_from_dict(small_config_dict(seed=1))))
        assert a != b

    def test_single_mode_error_decays_like_contraction(self):
        raw = small_config_dict(modes=[{"seed": 5}], schedule=[[0, 60]])
        config = config_from_dict(raw)
        trace = run_piecewise(config)
        gamma = config.operator_params.gamma
        e0 = trace.rows[0].err
        for t, row in enumerate(trace.rows):
            assert row.err <= 2.0 * gamma**t * e0 + 1e-12

    def test_zero_surprise_stream_keeps_penalty_low(self):
        # identical modes: the switch is invisible, lambda_w stays ~0 after warmup
        raw = small_config_dict(
            modes=[{"seed": 5}, {"seed": 5}], schedule=[[0, 40], [1, 40]]
        )
        config = config_from_dict(raw)
        trace = run_piecewise(config)
        for row in trace.rows[25:]:
            assert row.lambda_w < 0.01

    def test_beta_never_above_base(self):
        config = config_from_dict(small_config_dict())
        trace = run_piecewise(config)
        base = config.adaptive_template.beta_base
        assert all(r.beta_eff <= base for r in trace.rows)

    def test_post_detection_error_contracts(self):
        config = config_from_dict(small_config_dict())
        trace = run_piecewise(config)
        gamma = config.operator_params.gamma
        t_detect = 40 + config.detection_steps
        anchor = trace.rows[t_detect].err
        for t in range(t_detect, 80):
            assert trace.rows[t].err <= gamma ** (t - t_detect) * anchor + 1e-9

    def test_switch_jump_bounded(self):
        config = config_from_dict(small_config_dict())
        trace = run_piecewise(config)
        params = config.operator_params
        old_star = mode_fixed_point(config.models[0], params, tol=1e-12).q_star
        shifted = apply_mode_operator(config.models[1], params, old_star)
        delta_r = sup_dist(shifted, old_star)
        e_switch = delta_r / (1.0 - params.gamma)
        for t in range(40, 40 + config.detection_steps):
            assert trace.rows[t].err <= e_switch + 1e-9

    def test_uniform_shift_switch_bound_is_tight_but_respected(self):
        # identical kernels, rewards shifted by c: the switch bound c/(1-gamma)
        # is achieved exactly, so the first dwell must be long enough for the
        # pre-switch residual to shrink below the 1e-9 envelope slack
        raw = small_config_dict(
            modes=[{"seed": 5}, {"seed": 5, "reward_shift": 1.5}],
            schedule=[[0, 120], [1, 60]],
        )
        config = config_from_dict(raw)
        trace = run_piecewise(config)
        gamma = config.operator_params.gamma
        e_switch = 1.5 / (1.0 - gamma)
        for t in range(120, 120 + config.detection_steps):
            assert trace.rows[t].err <= e_switch + 1e-9
        t_detect = 120 + config.detection_steps
        anchor = trace.rows[t_detect].err
        for t in range(t_detect, 180):
            assert trace.rows[t].err <= gamma ** (t - t_detect) * anchor + 1e-9

    def test_phases_follow_detection_boundary(self):
        config = config_from_dict(small_config_dict())
        trace = run_piecewise(config)
        n_delta = config.detection_steps
        for t in range(40, 40 + n_delta):
            assert trace.rows[t].phase == "detection"
        assert trace.rows[40 + n_delta].phase != "detection"
        # no switch before t=40: never labeled detection
        assert all(r.phase != "detection" for r in trace.rows[:40])

    def test_steady_phase_reached_with_noise_floor(self):
        raw = small_config_dict(noise_sigma=0.05, schedule=[[0, 60], [1, 60]])
        config = config_from_dict(raw)
        trace = run_piecewise(config)
        assert trace.rows[50].phase == "steady"

    def test_hold_policy_freezes_iterate_during_detection(self):
        raw = small_config_dict(detection_policy="hold")
        config = config_from_dict(raw)
        trace = run_piecewise(config)
        # during the window the iterate is frozen so err stays constant
        errs = [trace.rows[t].err for t in range(40, 40 + config.detection_steps)]
        assert max(errs) - min(errs) <= 1e-15

    def test_h_bar_and_entropy_replay_through_bocd_step(self):
        # the run's detector is the plain run-length posterior, bit for bit
        plain = run_piecewise(config_from_dict(small_config_dict()))
        h_max = BOCDParams().h_max
        belief = np.full((1, h_max), 1.0 / h_max)
        for row in plain.rows:
            belief = bocd_step(belief, row.xi, BOCDParams())
            assert _mean_run_length(belief[0]) == row.h_bar
            assert _entropy(belief[0]) == row.entropy

    def test_ensemble_and_noise_streams_independent_of_row_count(self):
        # non-zero backup noise changes err but not determinism
        raw = small_config_dict(noise_sigma=0.02)
        config = config_from_dict(raw)
        a = trace_to_csv_text(run_piecewise(config))
        b = trace_to_csv_text(run_piecewise(config))
        assert a == b

    def test_s200_trace_is_pinned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dwells clear the metastability check
            config = config_from_dict(s200_config_dict())
        text = trace_to_csv_text(run_piecewise(config))
        assert hashlib.sha256(text.encode()).hexdigest() == S200_TRACE_SHA256


class TestGreedyRollout:
    @staticmethod
    def reference_rollout(model, q, length, rng):
        """One row cumsum and divide, and one scalar draw, per step."""
        rewards = np.empty(length)
        state = 0
        for i in range(length):
            action = int(np.argmax(q[state]))
            rewards[i] = model.reward[state, action]
            cdf = model.kernel[state, action].cumsum()
            cdf /= cdf[-1]
            state = int(cdf.searchsorted(rng.random(), side="right"))
        return rewards

    @pytest.mark.parametrize("n_states, n_actions", [(6, 3), (50, 4)])
    def test_matches_the_per_step_reference_loop(self, n_states, n_actions):
        model = make_random_mode(9, n_states, n_actions)
        for seed in range(5):
            q = np.random.default_rng(seed).uniform(-1, 1, (n_states, n_actions))
            got = _greedy_rollout(model, q, 64, np.random.default_rng((seed, 0, 3)), {})
            expected = self.reference_rollout(model, q, 64, np.random.default_rng((seed, 0, 3)))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_states, n_actions", [(6, 3), (200, 8)])
    def test_one_cache_per_regime_matches_the_reference_loop(self, n_states, n_actions):
        # as in run_piecewise: one cache kept while the regime stays, a new one after a
        # switch, over tables whose greedy actions change from call to call
        models = [make_random_mode(seed, n_states, n_actions) for seed in (9, 10)]
        rng = np.random.default_rng(5)
        q = rng.uniform(-1, 1, (n_states, n_actions))
        cached = 0
        for t, regime in enumerate([0] * 12 + [1] * 12):
            if t in (0, 12):
                cdf_rows = {}
            q[rng.integers(n_states, size=n_states // 2)] += rng.uniform(-0.5, 0.5, n_actions)
            model = models[regime]
            got = _greedy_rollout(model, q, 32, np.random.default_rng((3, 0, t)), cdf_rows)
            expected = self.reference_rollout(model, q, 32, np.random.default_rng((3, 0, t)))
            assert np.array_equal(got, expected)
            cached = max(cached, len(cdf_rows))
        assert 0 < cached <= n_states * n_actions

    def test_rollout_of_length_one_draws_nothing(self):
        model = make_random_mode(9, 6, 3)
        q = np.random.default_rng(0).uniform(-1, 1, (6, 3))
        cdf_rows = {}
        got = _greedy_rollout(model, q, 1, np.random.default_rng(1), cdf_rows)
        assert np.array_equal(got, model.reward[[0], [int(q[0].argmax())]])
        assert cdf_rows == {}


def test_spread_equals_numpys_std_mean_bit_for_bit():
    # run_piecewise's ensemble spread, up to |Q| = 1e300
    rng = np.random.default_rng(17)
    for n_members, shape in [(2, (6, 3)), (3, (4, 2)), (10, (200, 8)), (7, (5, 9))]:
        for magnitude in (1e-300, 1e-3, 1.0, 1e3, 1e150, 1e160, 1e300):
            members = rng.uniform(-1.0, 1.0, (n_members, *shape)) * magnitude
            members += rng.uniform(-0.5, 0.5) * magnitude
            with np.errstate(over="ignore"):  # deviations past ~1e154 overflow when squared
                expected = float(members.std(axis=0).mean())
                if not math.isfinite(expected):  # the scaled-into-[-1, 1] fallback
                    scale = float(np.abs(members).max())
                    expected = scale * float((members / scale).std(axis=0).mean())
                got = _spread(members)
            assert math.isfinite(got) and got == expected


# well-formed trace rows 0 and 1, as JSON values
TRACE_ROW_0 = {"iter": 0, "true_mode": 0, "xi": 0.5, "h_bar": 1.0, "entropy": 1.0,
               "lambda_w": 0.0, "beta_eff": 1.0, "err": 0.1, "phase": "steady"}
TRACE_ROW_1 = {**TRACE_ROW_0, "iter": 1}


class TestTraceIO:
    def build_trace(self) -> ExperimentTrace:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MetastabilityWarning)  # dwell is deliberately tiny
            config = config_from_dict(small_config_dict(schedule=[[0, 5], [1, 5]]))
        return run_piecewise(config)

    def test_empty_trace_header_only(self):
        text = trace_to_csv_text(ExperimentTrace(()))
        assert text == "iter,true_mode,xi,h_bar,entropy,lambda_w,beta_eff,err,phase\n"

    def test_three_row_trace_is_four_lines(self):
        rows = self.build_trace().rows[:3]
        text = trace_to_csv_text(ExperimentTrace(rows))
        assert len(text.strip().split("\n")) == 4

    def test_csv_round_trip_exact(self, tmp_path):
        trace = self.build_trace()
        path = tmp_path / "trace.csv"
        path.write_text(trace_to_csv_text(trace))
        assert read_trace(path).rows == trace.rows

    def test_json_round_trip_exact(self, tmp_path):
        trace = self.build_trace()
        path = emit_trace(trace, tmp_path / "trace.json")
        assert read_trace(path).rows == trace.rows

    def test_cross_format_round_trip(self, tmp_path):
        trace = self.build_trace()
        via_csv = read_trace(emit_trace(trace, tmp_path / "trace.csv"))
        via_json = read_trace(emit_trace(via_csv, tmp_path / "trace.json"))
        assert via_json.rows == trace.rows

    def test_emit_and_read_files(self, tmp_path):
        trace = self.build_trace()
        for fmt in ("csv", "json"):
            path = emit_trace(trace, tmp_path / f"trace.{fmt}")
            assert path == tmp_path / f"trace.{fmt}"
            assert read_trace(path).rows == trace.rows

    def test_write_table_takes_the_format_from_the_suffix(self, tmp_path):
        # JSON for .json and CSV for any other suffix, for the trace as for the delay table
        trace = self.build_trace()
        path = emit_trace(trace, tmp_path / "trace.txt")
        assert path.read_text() == trace_to_csv_text(trace)
        assert read_trace(path).rows == trace.rows
        rows = run_delay_table()
        header = list(rows[0])
        values = [[row[k] for k in header] for row in rows]
        path = write_table(tmp_path / "delay_table.json", header, values, "delay table")
        assert path.read_text() == json.dumps(rows, indent=2) + "\n"
        path = write_table(tmp_path / "delay_table.csv", header, values, "delay table")
        assert path.read_text() == csv_text(header, values)

    def test_emit_write_failure_raises_oserror(self, tmp_path):
        trace = self.build_trace()
        with pytest.raises(OSError, match="cannot write"):
            emit_trace(trace, tmp_path / "missing_dir" / "trace.csv")

    def test_csv_with_other_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,mode\n0,0\n")
        with pytest.raises(ValueError, match=r"unexpected CSV header \['iter', 'mode'\]"):
            read_trace(path)

    def test_json_that_is_not_an_array_rejected(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"iter": 0}')
        with pytest.raises(ValueError, match="must be an array of row objects"):
            read_trace(path)

    def test_read_missing_file_raises_oserror_naming_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(OSError, match="cannot read trace from") as info:
            read_trace(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "suffix, row, message",
        [
            (".csv", "1,0,0.5", "trace row 1: must hold one value per trace column, got {"),
            (".csv", "1,0,0.5,1.0,1.0,0.0,1.0,0.1,steady,9",
             "trace row 1: must hold one value per trace column, got {"),
            (".csv", "1,0,abc,1.0,1.0,0.0,1.0,0.1,steady",
             "trace row 1: could not convert string to float: 'abc'"),
            (".json", {k: v for k, v in TRACE_ROW_1.items() if k != "xi"},
             "trace row 1: must hold one value per trace column, got {"),
            (".json", {**TRACE_ROW_1, "xi": None},
             "trace row 1: must hold one value per trace column, got {"),
            (".json", [1, 0, 0.5], "trace row 1: must hold one value per trace column, got [1, 0, 0.5]"),
            (".json", {**TRACE_ROW_1, "mode": 0},
             "trace row 1: must hold one value per trace column, got {"),
            # int() would read 1.5 as 1 and true as 1
            (".json", {**TRACE_ROW_1, "iter": 1.5},
             "trace row 1: iter takes a value of type int, got 1.5"),
            (".json", {**TRACE_ROW_1, "iter": True},
             "trace row 1: iter takes a value of type int, got True"),
            (".json", {**TRACE_ROW_1, "xi": "0.5"},
             "trace row 1: xi takes a value of type float, got '0.5'"),
            (".json", {**TRACE_ROW_1, "phase": "warmup"},
             "trace row 1: phase must be one of ('detection', 'contraction', 'steady'), got 'warmup'"),
        ],
        ids=["csv_short_row", "csv_long_row", "csv_text_float", "json_missing_column",
             "json_null_value", "json_list_row", "json_extra_key", "json_fractional_int",
             "json_bool_int", "json_text_float", "json_unknown_phase"],
    )
    def test_malformed_row_is_refused_naming_it(self, tmp_path, suffix, row, message):
        path = tmp_path / f"trace{suffix}"
        if suffix == ".csv":
            first = ",".join(str(v) for v in TRACE_ROW_0.values())
            path.write_text(f"{','.join(TRACE_ROW_0)}\n{first}\n{row}\n")
        else:
            path.write_text(json.dumps([TRACE_ROW_0, row]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_trace(path)

    def test_rows_must_be_contiguous(self):
        rows = self.build_trace().rows
        with pytest.raises(ValueError, match="contiguous"):
            ExperimentTrace((rows[0], rows[2]))

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            TraceRow(0, 0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.0, "warmup")


def classify_trajectory(gamma: float, coupling: float, n_iter: int = 200) -> tuple[str, float]:
    """The threshold sweep's scalar reference for one cell: (class, measured factor).

    Iterates q -> (gamma + coupling) * q + SWEEP_R_LOW from q0 = 0, stopping
    early on exact convergence or once an update exceeds 1e100; the factor is
    the per-step geometric mean of the update magnitudes.
    """
    factor = gamma + coupling
    # the first step from q0 = 0 lands on the nonzero low reward
    q = d0 = SWEEP_R_LOW
    for steps in range(1, n_iter + 1):
        q_next = factor * q + SWEEP_R_LOW
        d = abs(q_next - q)
        q = q_next
        if d == 0.0:
            return "converged", 0.0
        if d > 1e100:
            break
    measured = (d / d0) ** (1.0 / steps)
    return _classify(measured), measured


class TestThresholdSweep:
    def test_reference_cells(self):
        assert classify_trajectory(0.5, 0.2)[0] == "converged"
        assert classify_trajectory(0.99, 0.05)[0] == "diverged"

    def test_nonexpansive_cell_stalls(self):
        assert classify_trajectory(1.0, 0.0)[0] == "stalled"

    def test_grid_boundary_matches_analytic_line(self):
        sweep = run_threshold_sweep(np.linspace(0.0, 0.98, 50), np.linspace(0.0, 0.5, 50))
        assert sweep.matches_analytic()

    def test_one_misclassified_cell_breaks_the_match(self):
        sweep = run_threshold_sweep(np.linspace(0.0, 0.98, 5), np.linspace(0.0, 0.5, 5))
        classes = sweep.classes.copy()
        classes[4, 4] = "converged"  # 0.98 + 0.5 diverges
        assert sweep.classes[4, 4] == "diverged"
        assert not dataclasses.replace(sweep, classes=classes).matches_analytic()

    def test_boundary_exact_even_on_the_line(self):
        sweep = run_threshold_sweep(np.array([0.5, 0.6]), np.array([0.5, 0.4]))
        assert sweep.matches_analytic()
        assert sweep.classes[0, 0] == "stalled"  # 0.5 + 0.5 = 1 exactly
        assert sweep.classes[1, 1] == "stalled"  # 0.6 + 0.4 = 1 in floats

    @pytest.mark.parametrize(
        "gammas, couplings, n_iter",
        [
            (np.linspace(0.0, 0.98, 50), np.linspace(0.0, 0.5, 50), 200),
            # cells exactly on gamma + coupling = 1 in floats
            (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9), 200),
            (np.array([0.5, 0.6, 0.7, 0.25]), np.array([0.5, 0.4, 0.3, 0.75]), 200),
            # the 1.5 edge: fast divergence, and the 1e100 stop on some cells only
            (np.array([0.0, 0.5, 1.0, 1.49, 1.5]), np.array([0.0, 0.01, 0.5, 1.5]), 200),
            (np.linspace(0.0, 1.5, 7), np.linspace(0.0, 1.5, 7), 3),
            (np.array([0.3, 1.0]), np.array([0.7, 0.0]), 1),
            # three cells pass 1e100 and one converges exactly, all before the last step
            (np.array([1.5, 0.0]), np.array([1.5, 0.5]), 1000),
        ],
        ids=[
            "default_grid", "on_the_line", "on_the_line_pairs", "edge_1_5", "few_steps", "one_step",
            "every_cell_stops_early",
        ],
    )
    def test_array_sweep_equals_classify_trajectory_cell_by_cell(self, gammas, couplings, n_iter):
        sweep = run_threshold_sweep(gammas, couplings, n_iter)
        for i, g in enumerate(gammas):
            for j, c in enumerate(couplings):
                cls, factor = classify_trajectory(float(g), float(c), n_iter)
                assert (sweep.classes[i, j], sweep.measured_factors[i, j]) == (cls, factor)

    def test_sweep_rejects_a_non_positive_iteration_count(self):
        with pytest.raises(ValueError, match="n_iter"):
            run_threshold_sweep(np.array([0.5]), np.array([0.1]), n_iter=0)

    def test_grid_domain_validated(self):
        with pytest.raises(ValueError, match="within"):
            run_threshold_sweep(np.array([0.5, 1.6]), np.array([0.1]))
        with pytest.raises(ValueError, match="within"):
            run_threshold_sweep(np.array([np.nan, 0.5]), np.array([0.1]))

    def test_json_payload_round_trips(self):
        sweep = run_threshold_sweep(np.linspace(0, 0.9, 4), np.linspace(0, 0.4, 4))
        payload = json.loads(json.dumps(sweep.to_json_dict()))
        assert payload["matches_analytic_boundary"] is True
        assert len(payload["classes"]) == 4


class TestDelayTable:
    def test_reference_rows(self):
        rows = {r["scenario"]: r for r in run_delay_table()}
        assert rows["strong_separability"]["n_delta"] == pytest.approx(0.9, abs=0.1)
        assert rows["moderate_separability"]["n_delta"] == pytest.approx(2.2, abs=0.1)
        assert rows["weak_separability"]["n_delta"] == pytest.approx(8.2, abs=0.1)
        assert rows["adversarial_prior"]["n_delta"] == pytest.approx(3.8, abs=0.1)

    def test_empirical_within_one_step_of_ceiling(self):
        for row in run_delay_table():
            assert abs(row["empirical_delay"] - row["n_ceil"]) <= 1

    def test_empirical_tracker_direct(self):
        assert empirical_detection_delay(2.0, 1.0, 0.05) == 3
        assert empirical_detection_delay(5.0, 1.0, 0.05) == 1

    def test_empirical_tracker_raises_when_odds_never_cross(self):
        # odds gain (1 + 1e-12)**2 per step: nowhere near 1 / 0.05 within 10^4 steps
        with pytest.raises(RuntimeError, match="failed to cross the target in 10\\^4 steps"):
            empirical_detection_delay(1 + 1e-12, 1.0, 0.05)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_threshold_sweep([], [0.5]), "gamma grid must be a non-empty vector"),
    ],
    ids=["empty_grid"],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
