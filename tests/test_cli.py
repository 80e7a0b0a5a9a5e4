"""CLI surface tests: subcommands, outputs, exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
from argparse import _SubParsersAction
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from pwmdp import make_random_mode
from pwmdp.harness import read_trace
from pwmdp.harness import cli, experiment
from pwmdp.harness.certify import MUTATIONS
from pwmdp.harness.cli import MAX_SWEEP_CELLS, build_parser, main
from pwmdp.harness.config import FIELDS, MAX_KERNEL_ENTRIES

CLI = [sys.executable, "-m", "pwmdp"]

# sha256 of the files written at default sizes; a faster path must write the same bytes
PHASE_MAP_SHA256 = "047c8d53822c880bd5757c74e537aa8166b86d4d74f80b7385a25cada6cc86ef"
CONTEXT_MAP_SHA256 = "3f12921064ffbc3e86338913fb534a28efaba2bb271e8c56d8cbbc902133ecaf"

# A regime given by its tables at the default 6 x 3 sizes.
TABLE_MODE = {
    key: getattr(make_random_mode(2, 6, 3), key).tolist() for key in ("reward", "kernel", "gamma_epi")
}


def table_mode_with(key: str, entry: tuple, value: float) -> dict:
    """TABLE_MODE with one entry of one of its tables replaced by ``value``."""
    mode = copy.deepcopy(TABLE_MODE)
    target = mode[key]
    for index in entry[:-1]:
        target = target[index]
    target[entry[-1]] = value
    return mode


def written_sha256(argv, out: Path, name: str) -> str:
    """Run the CLI in process with ``--out out`` and hash the file it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args) -> CliResult:
    """Run the CLI in process with redirected streams; argparse's SystemExit gives the code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


def run_module(*args) -> subprocess.CompletedProcess:
    """Run ``python -m pwmdp`` in a fresh process: for what only a fresh process shows."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 3,
                "n_states": 4,
                "n_actions": 2,
                "modes": [{"seed": 1}, {"seed": 2, "reward_shift": 1.0}],
                "schedule": [[0, 30], [1, 30]],
                "operator": {"gamma": 0.8, "lambda_epi": 0.01, "kappa": 0.0},
            }
        )
    )
    return path


class TestPiecewiseCommand:
    def test_writes_trace_csv(self, quick_config, tmp_path):
        out = tmp_path / "run"
        result = run_module("piecewise", "--config", str(quick_config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        trace = read_trace(out / "trace.csv")
        assert len(trace) == 60

    def test_json_format(self, quick_config, tmp_path):
        out = tmp_path / "runj"
        result = run_cli(
            "piecewise", "--config", str(quick_config), "--out", str(out), "--format", "json"
        )
        assert result.returncode == 0, result.stderr
        trace = read_trace(out / "trace.json")
        assert len(trace) == 60

    def test_seed_override_changes_trace(self, quick_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("piecewise", "--config", str(quick_config), "--out", str(out_a), "--seed", "7")
        run_cli("piecewise", "--config", str(quick_config), "--out", str(out_b), "--seed", "8")
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_same_seed_byte_identical(self, quick_config, tmp_path):
        out_a, out_b = tmp_path / "c", tmp_path / "d"
        run_cli("piecewise", "--config", str(quick_config), "--out", str(out_a), "--seed", "7")
        run_cli("piecewise", "--config", str(quick_config), "--out", str(out_b), "--seed", "7")
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_bad_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_field": 1}))
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert "config error" in result.stderr

    def test_malformed_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = run_cli("piecewise", "--config", str(bad))
        assert result.returncode == 1

    def test_config_format_applies_unless_flag_given(self, quick_config, tmp_path):
        cfg = tmp_path / "json_config.json"
        cfg.write_text(json.dumps({**json.loads(quick_config.read_text()), "format": "json"}))
        result = run_cli("piecewise", "--config", str(cfg), "--out", str(tmp_path / "j"))
        assert result.returncode == 0, result.stderr
        assert [p.name for p in (tmp_path / "j").iterdir()] == ["trace.json"]
        result = run_cli(
            "piecewise", "--config", str(cfg), "--out", str(tmp_path / "c"), "--format", "csv"
        )
        assert result.returncode == 0, result.stderr
        assert [p.name for p in (tmp_path / "c").iterdir()] == ["trace.csv"]

    @pytest.mark.parametrize(
        "raw",
        [
            {"n_ensemble": None},
            {"noise_sigma": "abc"},
            {"modes": [{"seed": "x"}]},
            {"rollout_len": float("inf")},  # JSON Infinity: int() overflows
            # retired fields: unknown under any value
            {"joint": {"n_clusters": "x"}},
            {"joint": {"n_clusters": 2.5}},
            {"adaptive": {"smooth_surprise": "false"}},
            {"adaptive": {"smooth_surprise": 0}},
            {"adaptive": {"smooth_surprise": None}},
            {"n_states": 6.9},  # int() would truncate to 6
            {"seed": True},  # int(True) would be seed 1
            {"bocd": {"h_max": 20.7}},
            {"schedule": [[0, 200.5], [1, 200]]},
            {"noise_sigma": True},  # float(True) would be 1.0
            {"bocd": {"hazard": "0.1"}},  # float("0.1") would parse the text
            {"operator": {"gamma": "0.5"}},
            [1, 2],  # not an object: overrides cannot be merged into it
            {"noise_sigma": 1e308},  # uniform(-sigma, sigma) overflows mid-run
            {"ensemble_sigma": 1e308},
            {"out_dir": None},  # str(None) would write into ./None
            {"format": ["csv"]},
            # range errors raised by a receiving object or a structured reader
            {"adaptive": {"baseline_ema_rate": 2}},
            {"operator": {"gamma": 1.2}},
            {"bocd": {"hazard": 1.5}},
            {"surprise": {"w_r": -1.0}},
            {"schedule": 5},
            {"schedule": [[0]]},
            {"reward_range": [1]},
            {"modes": [{"seed": -1}]},
            {"modes": [{"reward": [[1.0]]}]},  # explicit-table mode without its kernel
            {"delta": 1e-320},  # 1 / delta overflows, so would the detection delay
            {"n_states": 100000},  # a 224 GiB kernel: refused before it is allocated
            {"n_ensemble": 1e300},  # so are an ensemble and a rollout past the same budget
            {"rollout_len": 1e300},
        ],
        ids=[
            "null_int", "text_float", "text_mode_seed", "infinite_int",
            "text_joint_int", "fractional_joint_int",
            "text_bool", "int_bool", "null_bool", "fractional_int", "bool_int",
            "fractional_bocd_int", "fractional_dwell",
            "bool_float", "text_bocd_float", "text_operator_float",
            "list_config", "overflowing_noise_sigma", "overflowing_ensemble_sigma",
            "null_str", "list_str",
            "adaptive_range", "operator_range", "bocd_range", "surprise_range",
            "scalar_schedule", "short_segment", "short_reward_range", "negative_mode_seed",
            "missing_mode_kernel", "subnormal_delta", "oversized_kernel",
            "oversized_ensemble", "oversized_rollout",
        ],
    )
    def test_mistyped_config_value_exits_1_without_traceback(self, raw, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert "config error" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                {"modes": [{"seed": 1, "reward_shift": 1.7e308}], "reward_range": [1e308, 1e308],
                 "schedule": [[0, 400]]},
                "config error: modes[0].reward_shift must keep the shifted rewards finite, got 1.7e+308",
            ),
            (
                {"modes": [{"reward": [[1.0]]}]},
                "config error: modes[0].kernel: missing",
            ),
            (
                {"modes": [{"seed": 1, "reward_shift": 1e307}], "schedule": [[0, 400]]},
                "config error: modes[0] must have a finite fixed point: its bound "
                "(max|R| + gamma * (lambda_epi * max G + kappa)) / (1 - gamma) overflows",
            ),
            *[
                (raw, "config error: modes[0] must keep a rollout's reward statistics finite: "
                 "rollout_len * max|R| or rollout_len * (max R - min R)^2 overflows")
                for raw in (
                    # these ran with numpy overflow warnings and an infinite reward variance
                    {"reward_range": [0.0, 1e155]},
                    {"reward_range": [-1e200, 1e200]},
                    {"reward_range": [-1e300, 1.0]},
                    # this one stopped mid-run on non-finite surprise inputs
                    {"operator": {"gamma": 0.0}, "modes": [{"seed": 1, "reward_shift": 1e307}]},
                )
            ],
            (
                # this one stopped at the first switch on a non-finite reward z-score
                {"modes": [{"seed": 1, "reward_shift": 1e300}, {"seed": 2, "reward_shift": -1e300}]},
                "config error: modes must keep the reward z-score finite: "
                "(max R - min R) over all modes / 1e-08 overflows",
            ),
            (
                {"bocd": {"sigma_g": 1e308}},
                "config error: bocd.sigma_g must keep 2 pi times the largest variance "
                "sigma0_sq + sigma_g * (h_max - 1) finite, got a variance of inf",
            ),
            # json.load reads NaN and Infinity in an explicit table
            (
                {"modes": [{"seed": 1}, table_mode_with("reward", (0, 0), math.nan)]},
                "config error: modes[1] invalid: reward[0,0] is not finite",
            ),
            (
                {"modes": [{"seed": 1}, table_mode_with("kernel", (3, 1, 5), math.inf)]},
                "config error: modes[1] invalid: kernel[3,1,5] is not finite",
            ),
            (
                {"modes": [{"seed": 1}, table_mode_with("gamma_epi", (4, 1), math.nan)]},
                "config error: modes[1] invalid: gamma_epi[4,1] is not finite",
            ),
            (
                {"n_states": 4, "modes": [{"seed": 1}, TABLE_MODE]},
                "config error: modes[1] has shape (6, 3), config says (4, 3)",
            ),
            # every entry of a 60 x 2 kernel negative: 7,200 entries and 120 rows violate
            (
                {"n_states": 60, "n_actions": 2, "modes": [
                    {"reward": [[0.0, 0.0]] * 60, "kernel": [[[-1 / 60] * 60] * 2] * 60}, {"seed": 1},
                ]},
                "config error: modes[0] invalid: "
                + "; ".join(f"kernel[0,0,{t}] = {-1 / 60} is negative" for t in range(3))
                + "; ... 7320 violations in all",
            ),
        ],
        ids=[
            "overflowing_reward_shift", "missing_mode_kernel", "non_finite_fixed_point",
            "reward_spread_square", "reward_spread", "reward_range_low", "rollout_reward_sum",
            "cross_mode_reward_z_score", "overflowing_detector_variance",
            "nan_reward_table", "infinite_kernel_table", "nan_penalty_table", "table_shape",
            "broken_kernel_table",
        ],
    )
    def test_mode_error_is_one_line_naming_the_field(self, raw, message, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [message]

    def test_subnormal_delta_is_one_line_naming_delta(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"delta": 1e-320}))
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            "config error: delta must lie in (0, 1) with 1 / delta finite, got 1e-320"
        ]

    def test_oversized_kernel_is_one_line_naming_the_sizes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_states": 2049, "n_actions": 8}))
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            "config error: n_states = 2049 and n_actions = 8 need a kernel of 33587208 "
            "doubles, beyond the budget of 33554432"
        ]

    def test_metastability_warning_is_one_line_per_short_segment(self, tmp_path):
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"schedule": [[0, 20], [1, 20], [0, 200]]}))
        result = run_cli("piecewise", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert result.returncode == 0, result.stderr
        lines = result.stderr.strip().splitlines()
        assert [line.split(" dwells")[0] for line in lines] == [
            "warning: segment 0 (mode 0)",
            "warning: segment 1 (mode 1)",
        ]
        assert not any(".py" in line for line in lines)  # no source location

    def test_clip_max_with_overflowing_square_exits_1_before_any_trace(self, tmp_path):
        # the fused surprise can reach clip_max, whose square the detector needs finite
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "modes": [{"seed": 1}, {"seed": 2, "reward_shift": 500.0}],
                    "surprise": {"clip_max": 1e308, "w_r": 1e300},
                    "adaptive": {"surprise_ema_rate": 0},
                }
            )
        )
        result = run_cli("piecewise", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            "config error: surprise.clip_max must have a finite square, got 1e+308"
        ]
        assert not (tmp_path / "x").exists()

    def test_extreme_surprise_config_runs_with_finite_trace(self, tmp_path):
        # surprises far beyond the likelihood's support: every linear-domain
        # run-length message would underflow, the log-domain filter keeps the limit
        crash = tmp_path / "crash.json"
        crash.write_text(
            json.dumps(
                {
                    "modes": [{"seed": 1}, {"seed": 2, "reward_shift": 500.0}],
                    "surprise": {"clip_max": 1000.0, "w_r": 1.0},
                    "adaptive": {"surprise_ema_rate": 0},
                }
            )
        )
        result = run_cli("piecewise", "--config", str(crash), "--out", str(tmp_path / "x"))
        assert result.returncode == 0, result.stderr
        trace = read_trace(tmp_path / "x" / "trace.csv")
        assert len(trace) == 400
        for row in trace.rows:
            values = (row.xi, row.h_bar, row.entropy, row.lambda_w, row.beta_eff, row.err)
            assert all(math.isfinite(v) for v in values)

    def test_underflowing_detector_variance_runs_with_finite_trace(self, tmp_path):
        # every run-length message is -inf; the filter takes their limit
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"bocd": {"sigma0_sq": 1e-320, "sigma_g": 0}}))
        result = run_cli("piecewise", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        trace = read_trace(tmp_path / "x" / "trace.csv")
        assert all(math.isfinite(row.h_bar) and math.isfinite(row.entropy) for row in trace.rows)

    @pytest.mark.parametrize(
        "raw, name",
        [({"noise_sigma": 8e307}, "err"), ({"ensemble_sigma": 8e307}, "sigma_q")],
        ids=["noise_sigma", "ensemble_sigma"],
    )
    def test_overflow_mid_run_exits_4_with_a_runtime_error(self, raw, name, tmp_path, capsys):
        # 2 * sigma is finite, so the config loads; the tables overflow while it runs
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(raw))
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4
        *warned, last = capsys.readouterr().err.strip().splitlines()
        assert all(line.startswith("warning: ") for line in warned)  # no traceback
        overflow = rf"runtime error: {name} is (inf|nan) at iteration \d+: the Q tables overflowed"
        assert re.fullmatch(overflow, last)

    def test_unconverged_fixed_point_exits_4_naming_the_mode(self, quick_config, tmp_path, monkeypatch):
        solve, solved = experiment.mode_fixed_point, []

        def stalled_on_mode_1(model, params, tol):
            solved.append(solve(model, params, tol))
            if len(solved) == 2:
                return replace(solved[-1], final_residual=0.5, converged=False)
            return solved[-1]

        monkeypatch.setattr(experiment, "mode_fixed_point", stalled_on_mode_1)
        result = run_cli("piecewise", "--config", str(quick_config), "--out", str(tmp_path / "x"))
        assert result.returncode == 4
        assert result.stderr.splitlines() == ["runtime error: fixed point for mode 1 has residual 0.5"]

    @pytest.mark.parametrize("shift", [1e100, 1e200, -1e150, 1e306])
    def test_huge_reward_shift_runs_to_a_finite_trace(self, shift, tmp_path, capsys):
        # round-off at |Q| ~ shift / (1 - gamma) needs the uncapped fixed-point polish
        cfg = tmp_path / "shift.json"
        raw = {"modes": [{"seed": 1, "reward_shift": shift}], "schedule": [[0, 400]]}
        cfg.write_text(json.dumps(raw))
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert all(line.startswith("warning: ") for line in capsys.readouterr().err.splitlines())
        trace = read_trace(tmp_path / "x" / "trace.csv")
        assert len(trace) == 400 and all(math.isfinite(row.err) for row in trace.rows)

    def test_huge_channel_signals_cluster_without_overflow_warnings(self, tmp_path, capsys):
        # the channels reach ~1e200, whose squares overflow a double
        cfg = tmp_path / "shift.json"
        raw = {
            "modes": [{"seed": 1, "reward_shift": 1e200}, {"seed": 2, "reward_shift": 1e200}],
            "schedule": [[0, 200], [1, 200]],
        }
        cfg.write_text(json.dumps(raw))
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == ""

    def test_gamma_beyond_the_polish_budget_exits_1_at_once(self, tmp_path, capsys):
        # the polish used to run its whole budget of 10**6 backups, then exit 4
        cfg = tmp_path / "gamma.json"
        cfg.write_text(json.dumps({"operator": {"gamma": 0.999999999}}))
        start = time.perf_counter()
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.splitlines() == [
            "config error: operator.gamma must satisfy 1 / (1 - gamma) <= 1000000, got 0.999999999"
        ]

    def test_schedule_beyond_the_trace_budget_exits_1_at_load(self, tmp_path, capsys, monkeypatch):
        # the dwell loads as an integer; listing its iterations used to overflow mid-run
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"schedule": [[0, 1e300]]}))
        monkeypatch.setattr(cli, "run_piecewise", lambda config: pytest.fail("ran the schedule"))
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: schedule needs a trace column")
        assert line.endswith(f"doubles, beyond the budget of {MAX_KERNEL_ENTRIES}")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"modes": [{"seed": -1}]}, "modes[0].seed must be >= 0, got -1"),
            ({"reward_range": [1.0, -1.0]},
             "reward_range must have low <= high and a finite high - low, got [1.0, -1.0]"),
            ({"reward_range": [-1e308, 1e308]},
             "reward_range must have low <= high and a finite high - low, got [-1e+308, 1e+308]"),
            # retired spellings: the joint section held the detector's regime clusters,
            # smooth_surprise false was a surprise_ema_rate of 0
            ({"joint": None}, "unknown field(s) ['joint'] under 'config'"),
            *[
                ({"adaptive": {"smooth_surprise": value}},
                 "unknown field(s) ['smooth_surprise'] under 'adaptive'")
                for value in (False, "false", 0, None)
            ],
        ],
        ids=["negative_mode_seed", "reversed_reward_range", "overflowing_reward_range",
             "null_joint", "smooth_surprise_false", "smooth_surprise_text", "smooth_surprise_int",
             "smooth_surprise_null"],
    )
    def test_config_leaf_error_names_its_field(self, raw, message, tmp_path, capsys):
        # numpy's own messages named neither modes[0].seed nor reward_range
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        assert main(["piecewise", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_unwritable_output_exits_3(self, quick_config, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        result = run_cli("piecewise", "--config", str(quick_config), "--out", str(blocker))
        assert result.returncode == 3
        assert "I/O error" in result.stderr


# Boundary values per field kind for the config fuzzer; a field added to FIELDS
# is fuzzed with the values of its kind.
FUZZ_VALUES = {
    float: (0, -0.0, 1e-320, 1e-300, 1 - 1e-9, 1e300, 1.7e308, -1.0, -1e300, True, "0.5"),
    int: (0, -0.0, 1, 2, -1, 1e300, 1.7e308, True, "3"),
    str: ("", "hold", "json", 0),
    list: (None, [], [[0]], "0"),
}
FUZZ_SHIFTS = (1e20, 1e100, 1e200, -1e150)
# Leaves inside the structured fields: (field, its value where the base config
# has none, index path of the leaf, kind); the kind picks the FUZZ_VALUES. A leaf
# of one of TABLE_MODE's tables makes mode 1 that regime first.
STRUCTURED_LEAVES = (
    [("schedule", None, (k, j), int) for k in range(2) for j in range(2)]
    + [("modes", None, (i, key), kind) for i in range(2)
       for key, kind in (("seed", int), ("reward_shift", float))]
    + [("partition", [[0, 1, 2], [3, 4, 5]], (b, j), int) for b in range(2) for j in range(3)]
    + [("reward_range", [-1.0, 1.0], (j,), float) for j in range(2)]
    + [("modes", None, (1, key, *entry), float) for key, entry in (
        ("reward", (0, 0)), ("reward", (5, 2)), ("kernel", (0, 0, 0)), ("kernel", (3, 1, 5)),
        ("gamma_epi", (0, 0)), ("gamma_epi", (4, 1)))]
)
# The one warning a run may print: the config's MetastabilityWarning.
METASTABILITY = re.compile(r"warning: segment \d+ \(mode \d+\) dwells \d+ < \d+ iterations ")


def fuzzed_config(rng) -> dict:
    """A short two-regime config with huge reward shifts and 1-3 leaves at boundary values.

    A leaf is a field of FIELDS or a leaf inside a structured field; the
    structured leaves are set first, so a whole field drawn with them replaces them.
    """
    raw = {
        "modes": [{"seed": m, "reward_shift": float(rng.choice(FUZZ_SHIFTS))} for m in (1, 2)],
        "schedule": [[0, 4], [1, 4]],
        "n_ensemble": 2,
        "rollout_len": 3,
    }
    paths = sorted(FIELDS)
    leaves = sorted(rng.choice(len(paths) + len(STRUCTURED_LEAVES), size=int(rng.integers(1, 4)),
                               replace=False), reverse=True)
    for i in leaves:
        if i >= len(paths):
            name, start, index, kind = STRUCTURED_LEAVES[i - len(paths)]
            target = raw.setdefault(name, copy.deepcopy(start))
            if name == "modes" and index[1] in TABLE_MODE and index[1] not in target[index[0]]:
                target[index[0]] = copy.deepcopy(TABLE_MODE)
            for key in index[:-1]:
                target = target[key]
            target[index[-1]] = FUZZ_VALUES[kind][int(rng.integers(len(FUZZ_VALUES[kind])))]
            continue
        values = FUZZ_VALUES[FIELDS[paths[i]].kind]
        section, _, key = paths[i].rpartition(".")
        target = raw
        if section:
            if not isinstance(raw.get(section), dict):
                raw[section] = {}
            target = raw[section]
        target[key] = values[int(rng.integers(len(values)))]
    return raw


def check_outcome(result: CliResult, codes, context) -> None:
    """Exit ``code`` in ``codes`` with one error line when it is not 0, and no warning
    but the MetastabilityWarning; an escaped exception has already failed the test."""
    lines = result.stderr.splitlines()
    errors = [line for line in lines if not line.startswith("warning: ")]
    assert result.returncode in codes, (context, lines)
    assert len(errors) == (result.returncode != 0), (context, lines)
    assert all(METASTABILITY.match(line) for line in lines if line not in errors), (context, lines)


def test_fuzzed_configs_run_or_exit_with_one_line(tmp_path):
    # every config either runs or exits 1 (config) or 4 (numerics) with one stderr
    # line, besides warnings, and never escapes as an exception
    rng = np.random.default_rng(2026)
    codes = set()
    for i in range(300):
        raw = fuzzed_config(rng)
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps(raw))
        result = run_cli("piecewise", "--config", str(cfg), "--out", str(tmp_path / f"out{i}"))
        check_outcome(result, (0, 1, 4), raw)
        codes.add(result.returncode)
    assert {0, 1} <= codes


# Per subcommand: how many fuzzed invocations, and the flags every one starts
# from, which keep the sizes small; a fuzzed flag given after them wins.
FLAG_FUZZ_RUNS = {
    "piecewise": (60, []),
    "threshold-sweep": (60, ["--n-gamma", "5", "--n-coupling", "5", "--n-iter", "20"]),
    "delay-table": (20, []),
    "certify": (3, []),  # about 1 s a run
    "rmdm-demo": (80, ["--steps", "5"]),
}
# Values per flag; a size flag's stay small so that a run is quick, and a
# flag with choices draws them and one value outside them.
SIZE_FLAG_VALUES = ("-3", "0", "1", "2", "17", "x", "1.5")
FLAG_VALUES = {
    "--seed": ("0", "-1", "7", str(2**64), "x", "1e3"),
    "--lr": ("0", "-1", "1e-320", "1e-3", "1e200", "1e308", "inf", "nan", "x"),
}


def fuzzed_argv(action, rng, paths: dict) -> list:
    """One flag at a boundary value of its kind; ``paths`` holds the values of the path flags."""
    flag = action.option_strings[-1]
    if action.choices is not None:
        values = (*action.choices, "bogus")
    elif flag in ("--config", "--out"):
        values = paths[flag]
    else:
        values = FLAG_VALUES.get(flag, SIZE_FLAG_VALUES)
    return [flag, values[int(rng.integers(len(values)))]]


def test_fuzzed_flags_run_or_exit_with_one_line(tmp_path, quick_config, monkeypatch):
    # every subcommand, with 1-3 of its flags at boundary values, either runs or
    # exits with one line: a usage error 1 with argparse's usage, a config
    # error 1, a failed certification 2, an I/O error 3 or a numerical error 4
    monkeypatch.chdir(tmp_path)  # an empty --out, or none, writes here
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    subparsers = next(a for a in build_parser()._actions if isinstance(a, _SubParsersAction))
    rng = np.random.default_rng(2027)
    codes = set()
    for command, (runs, base) in FLAG_FUZZ_RUNS.items():
        actions = [a for a in subparsers.choices[command]._actions if "--help" not in a.option_strings]
        for i in range(runs):
            paths = {
                "--config": (str(quick_config), str(malformed), str(tmp_path / "missing.json"),
                             str(tmp_path)),
                "--out": (str(tmp_path / f"{command}{i}"), str(blocker), ""),
            }
            argv = [command, *base, "--out", str(tmp_path / f"{command}{i}")]
            for k in rng.choice(len(actions), size=min(len(actions), int(rng.integers(1, 4))),
                                replace=False):
                argv += fuzzed_argv(actions[k], rng, paths)
            result = run_cli(*argv)
            codes.add(result.returncode)
            if re.search(r"^pwmdp [\w-]+: error: ", result.stderr, re.MULTILINE):
                # argparse's usage error: its usage lines, then one error line
                assert result.returncode == 1, (argv, result.stderr)
                assert re.match(r"pwmdp [\w-]+: error: ", result.stderr.splitlines()[-1]), argv
                continue
            failed = command == "certify" and "--inject-mutation" in argv
            check_outcome(result, (0, 1, 2, 3, 4) if failed else (0, 1, 3, 4), argv)
    assert {0, 1, 3} <= codes


class TestThresholdSweepCommand:
    def test_writes_phase_map(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_module(
            "threshold-sweep", "--out", str(out), "--n-gamma", "10", "--n-coupling", "10"
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "phase_map.json").read_text())
        assert payload["matches_analytic_boundary"] is True
        assert "matches analytic line: True" in result.stdout


    def test_default_phase_map_is_pinned(self, tmp_path):
        digest = written_sha256(["threshold-sweep"], tmp_path, "phase_map.json")
        assert digest == PHASE_MAP_SHA256

    def test_bad_grid_size_exits_1(self, tmp_path):
        result = run_cli("threshold-sweep", "--out", str(tmp_path / "s"), "--n-gamma", "0")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr


    def test_grid_beyond_the_budget_exits_1_before_sweeping(self, tmp_path, capsys, monkeypatch):
        # a 10**10-cell grid: numpy refused the 74.5 GiB request with a MemoryError
        monkeypatch.setattr(cli, "run_threshold_sweep", lambda *a, **k: pytest.fail("swept"))
        argv = ["threshold-sweep", "--n-gamma", "100000", "--n-coupling", "100000"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: --n-gamma 100000 times --n-coupling 100000 is a grid of "
            f"10000000000 cells, beyond the budget of {MAX_SWEEP_CELLS}"
        ]
        assert not (tmp_path / "s").exists()

    def test_grid_just_past_the_budget_is_refused_before_any_array(self, tmp_path, capsys, monkeypatch):
        # 2**20 + 1024 cells: the old 2**25-cell budget let this grid run, and
        # let 5792 x 5792 ask for about 8 GB with its JSON
        monkeypatch.setattr(cli, "run_threshold_sweep", lambda *a, **k: pytest.fail("swept"))
        monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("allocated a grid axis"))
        argv = ["threshold-sweep", "--n-gamma", "1025", "--n-coupling", "1024"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: --n-gamma 1025 times --n-coupling 1024 is a grid of "
            f"1049600 cells, beyond the budget of {MAX_SWEEP_CELLS}"
        ]
        assert not (tmp_path / "s").exists()

    def test_grid_at_the_budget_reaches_the_sweep(self, tmp_path, monkeypatch):
        grids = []
        sweep = cli.run_threshold_sweep

        def corner_sweep(gamma_grid, coupling_grid, n_iter):
            grids.append((gamma_grid.size, coupling_grid.size))
            return sweep(gamma_grid[:2], coupling_grid[:2], n_iter=n_iter)

        monkeypatch.setattr(cli, "run_threshold_sweep", corner_sweep)
        argv = ["threshold-sweep", "--n-gamma", "1024", "--n-coupling", "1024"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == 0
        assert MAX_SWEEP_CELLS == 2**20 and grids == [(1024, 1024)]


@pytest.mark.parametrize(
    "argv, message",
    [
        # numpy's message was "Number of samples, -3, must be non-negative", and the
        # grid budget read the two negative sizes as a 9-cell grid
        (["threshold-sweep", "--n-gamma", "-3", "--n-coupling", "-3"], "--n-gamma must be >= 1, got -3"),
        (["threshold-sweep", "--n-coupling", "0"], "--n-coupling must be >= 1, got 0"),
        (["threshold-sweep", "--n-iter", "0"], "--n-iter must be >= 1, got 0"),
        (["rmdm-demo", "--steps", "-1"], "--steps must be >= 0, got -1"),
    ],
    ids=["n_gamma", "n_coupling", "n_iter", "steps"],
)
def test_size_flag_exits_1_naming_itself_before_any_work(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_threshold_sweep", lambda *a, **k: pytest.fail("swept"))
    monkeypatch.setattr(cli, "fit_linear_context", lambda *a, **k: pytest.fail("fitted"))
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists()


class TestDelayTableCommand:
    def test_json_rows(self, tmp_path):
        out = tmp_path / "delays"
        result = run_module("delay-table", "--out", str(out), "--format", "json")
        assert result.returncode == 0, result.stderr
        rows = json.loads((out / "delay_table.json").read_text())
        assert [r["scenario"] for r in rows] == [
            "strong_separability",
            "moderate_separability",
            "weak_separability",
            "adversarial_prior",
        ]

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "delaysc"
        result = run_cli("delay-table", "--out", str(out), "--format", "csv")
        assert result.returncode == 0
        lines = (out / "delay_table.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("scenario,")


class TestDemoCommand:
    def test_writes_context_map(self, tmp_path):
        out = tmp_path / "demo"
        result = run_module("rmdm-demo", "--out", str(out), "--steps", "60")
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "context_map.json").read_text())
        assert payload["mode_mean_distance"] >= 0.5
        assert len(payload["weights"]) == 2

    def test_default_context_map_is_pinned(self, tmp_path):
        digest = written_sha256(["rmdm-demo"], tmp_path, "context_map.json")
        assert digest == CONTEXT_MAP_SHA256

    def test_negative_steps_exit_1(self, tmp_path):
        result = run_cli("rmdm-demo", "--out", str(tmp_path / "d"), "--steps", "-1")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr


    @pytest.mark.parametrize(
        "lr, message",
        [
            ("inf", "--lr must be a finite number, got inf"),
            ("nan", "--lr must be a finite number, got nan"),
            ("-1", "--lr must be > 0, got -1.0"),
            ("0", "--lr must be > 0, got 0.0"),
        ],
        ids=["inf", "nan", "-1", "0"],
    )
    def test_lr_must_be_finite_and_positive(self, lr, message, tmp_path, capsys):
        # inf and nan ended in a traceback; -1 climbed the loss and exited 0
        assert main(["rmdm-demo", "--lr", lr, "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_overflowing_embeddings_keep_their_norm(self, tmp_path, capsys):
        # the first step reaches weights ~3e201: their embeddings' norms overflowed,
        # numpy warned, and the fitter kept weights whose embeddings were all 0
        assert main(["rmdm-demo", "--lr", "1e200", "--out", str(tmp_path / "d")]) == 0
        assert not any(line.startswith("warning:") for line in capsys.readouterr().err.splitlines())
        payload = json.loads((tmp_path / "d" / "context_map.json").read_text())
        assert payload["mode_mean_distance"] > 1.0

    def test_diverging_lr_exits_4_with_one_line(self, tmp_path, capsys):
        assert main(["rmdm-demo", "--lr", "1e308", "--out", str(tmp_path / "d")]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("runtime error: context loss became non-finite during descent")


@pytest.mark.parametrize("command", ["certify", "rmdm-demo"])
def test_negative_seed_exits_1_naming_the_flag(command, tmp_path, capsys):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: --seed must be >= 0, got -1"]


def test_usage_error_exits_1_and_help_exits_0():
    # exit 2 is reserved for a certification failure
    result = run_module("certify", "--format", "json")
    assert result.returncode == 1
    assert "unrecognized arguments: --format json" in result.stderr
    assert "Traceback" not in result.stderr
    assert run_module("certify", "--help").returncode == 0


def test_readme_synopsis_lists_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("```", 2)[1]
    documented = {}
    for line in section.splitlines():
        if line.startswith("pwmdp "):
            documented[line.split()[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, _SubParsersAction))
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == defined
