"""Experiment configuration: JSON schema, defaults, and validation.

A config is a single JSON document. Every field has a default; unknown
fields are rejected (fail-fast) so typos cannot silently fall back to
defaults. Regimes are given either as generator seeds (``{"seed": 7}``,
optionally with a uniform ``reward_shift``) or as explicit tables
(``{"reward": ..., "kernel": ..., "gamma_epi": ...}``).

Loading a config performs the metastability check: every scheduled dwell
should be at least ceil(1/(1-gamma)) + ceil(detection delay) iterations,
otherwise a segment may end before the iterate has recovered from the
previous switch; violations emit a :class:`MetastabilityWarning`.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from ..adaptive import AdaptiveState, SurpriseWeights
from ..bocd import BOCDParams, detection_delay
from ..mdp import ModeModel, OperatorParams, PiecewiseSchedule, make_random_mode, validate_mode
from ..operators import StatePartition

__all__ = [
    "ConfigError",
    "MetastabilityWarning",
    "JointSettings",
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "load_config",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


class MetastabilityWarning(UserWarning):
    """A scheduled dwell is too short for detection plus contraction."""


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "n_states": 6,
    "n_actions": 3,
    "reward_range": [-1.0, 1.0],
    "modes": [{"seed": 1}, {"seed": 2}],
    "schedule": [[0, 200], [1, 200]],
    "operator": {"gamma": 0.99, "lambda_epi": 0.01, "kappa": 0.0},
    "bocd": {"h_max": 20, "hazard": 0.05, "sigma0_sq": 0.1, "sigma_g": 0.05},
    "surprise": {"w_r": 0.5, "w_q": 0.3, "w_kappa": 0.2, "clip_max": 10.0},
    "adaptive": {
        "beta_base": -2.0,
        "c_penalty": 0.5,
        "baseline_ema_rate": 0.95,
        "surprise_ema_rate": 0.3,
        "smooth_surprise": True,
    },
    "partition": None,
    "noise_sigma": 0.0,
    "n_ensemble": 10,
    "ensemble_sigma": 0.05,
    "rollout_len": 32,
    "stat_ema_rate": 0.95,
    "separability": 2.0,
    "delta": 0.05,
    "detection_policy": "stale",
    "joint": None,
    "out_dir": "out",
    "format": "csv",
}

_JOINT_DEFAULTS = {"n_clusters": 4, "stickiness": 0.6}


@dataclass(frozen=True)
class JointSettings:
    n_clusters: int = 4
    stickiness: float = 0.6


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment inputs (see DEFAULT_CONFIG for the schema)."""

    seed: int
    models: tuple
    schedule: PiecewiseSchedule
    operator_params: OperatorParams
    bocd_params: BOCDParams
    surprise_weights: SurpriseWeights
    adaptive_template: AdaptiveState
    smooth_surprise: bool
    partition: StatePartition | None
    noise_sigma: float
    n_ensemble: int
    ensemble_sigma: float
    rollout_len: int
    stat_ema_rate: float
    separability: float
    delta: float
    detection_policy: str
    joint: JointSettings | None
    out_dir: str
    format: str

    @property
    def n_states(self) -> int:
        return self.models[0].n_states

    @property
    def n_actions(self) -> int:
        return self.models[0].n_actions

    @property
    def detection_steps(self) -> int:
        """Analytic detection delay ceil(n_delta) used for phase boundaries."""
        return math.ceil(detection_delay(self.separability, 1.0, self.delta))


def _merge_with_defaults(raw: dict, defaults: dict, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} under '{path or 'config'}'")
    merged = copy.deepcopy(defaults)
    for key, value in raw.items():
        default = defaults[key]
        if isinstance(default, dict) and key not in ("joint",):
            merged[key] = _merge_with_defaults(value, default, f"{path}.{key}" if path else key)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _int(value, name: str) -> int:
    """An integer field: a whole number, never a bool, a fraction or text."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _float(value, name: str) -> float:
    """A real-valued field: a finite number (ints included), never a bool or text."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _build_mode(spec, index: int, n_states: int, n_actions: int, reward_range) -> ModeModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"modes[{index}] must be an object")
    if "seed" in spec:
        unknown = set(spec) - {"seed", "reward_shift"}
        if unknown:
            raise ConfigError(f"unknown field(s) {sorted(unknown)} in modes[{index}]")
        seed = _int(spec["seed"], f"modes[{index}].seed")
        model = make_random_mode(seed, n_states, n_actions, reward_range)
        shift = _float(spec.get("reward_shift", 0.0), f"modes[{index}].reward_shift")
        if shift != 0.0:
            model = ModeModel(model.reward + shift, model.kernel, model.gamma_epi)
        return model
    unknown = set(spec) - {"reward", "kernel", "gamma_epi"}
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in modes[{index}]")
    try:
        model = ModeModel(
            np.asarray(spec["reward"], dtype=float),
            np.asarray(spec["kernel"], dtype=float),
            np.asarray(spec.get("gamma_epi", np.zeros((n_states, n_actions))), dtype=float),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"modes[{index}]: {exc}") from exc
    report = validate_mode(model)
    if report:
        raise ConfigError(f"modes[{index}] invalid: " + "; ".join(report))
    if model.n_states != n_states or model.n_actions != n_actions:
        raise ConfigError(
            f"modes[{index}] has shape {model.reward.shape}, config says "
            f"({n_states}, {n_actions})"
        )
    return model


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict against the schema and resolve all objects.

    Every invalid field, including a value of the wrong type, raises
    :class:`ConfigError`.
    """
    merged = _merge_with_defaults(raw, DEFAULT_CONFIG, "")
    try:
        config = _resolve(merged)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    _check_metastability(config)
    return config


def _resolve(merged: dict) -> ExperimentConfig:
    n_states = _int(merged["n_states"], "n_states")
    n_actions = _int(merged["n_actions"], "n_actions")
    operator_params = OperatorParams(
        **{k: _float(v, f"operator.{k}") for k, v in merged["operator"].items()}
    )
    bocd_raw = dict(merged["bocd"])
    bocd_params = BOCDParams(
        h_max=_int(bocd_raw["h_max"], "bocd.h_max"),
        hazard=_float(bocd_raw["hazard"], "bocd.hazard"),
        sigma0_sq=_float(bocd_raw["sigma0_sq"], "bocd.sigma0_sq"),
        sigma_g=_float(bocd_raw["sigma_g"], "bocd.sigma_g"),
    )
    surprise_weights = SurpriseWeights(
        **{k: _float(v, f"surprise.{k}") for k, v in merged["surprise"].items()}
    )
    # the fused surprise reaches the change detector, which squares it
    if not math.isfinite(surprise_weights.clip_max * surprise_weights.clip_max):
        raise ConfigError(
            f"surprise.clip_max must have a finite square, got {surprise_weights.clip_max!r}"
        )
    adaptive_raw = merged["adaptive"]
    adaptive_template = AdaptiveState(
        beta_base=_float(adaptive_raw["beta_base"], "adaptive.beta_base"),
        c_penalty=_float(adaptive_raw["c_penalty"], "adaptive.c_penalty"),
        ema_rate=_float(adaptive_raw["baseline_ema_rate"], "adaptive.baseline_ema_rate"),
        surprise_ema_rate=_float(adaptive_raw["surprise_ema_rate"], "adaptive.surprise_ema_rate"),
    )
    smooth_surprise = adaptive_raw["smooth_surprise"]
    if not isinstance(smooth_surprise, bool):
        raise ConfigError(
            f"adaptive.smooth_surprise must be true or false, got {smooth_surprise!r}"
        )
    schedule = PiecewiseSchedule(
        tuple((_int(m, "schedule mode"), _int(d, "schedule dwell")) for m, d in merged["schedule"])
    )

    if not isinstance(merged["modes"], list) or not merged["modes"]:
        raise ConfigError("modes must be a non-empty list")
    reward_range = tuple(_float(v, "reward_range") for v in merged["reward_range"])
    models = tuple(
        _build_mode(spec, i, n_states, n_actions, reward_range)
        for i, spec in enumerate(merged["modes"])
    )
    if schedule.max_mode_index >= len(models):
        raise ConfigError(
            f"schedule references mode {schedule.max_mode_index} but only "
            f"{len(models)} modes are defined"
        )

    partition = None
    if merged["partition"] is not None:
        try:
            blocks = tuple(
                tuple(_int(s, "partition state") for s in b) for b in merged["partition"]
            )
            partition = StatePartition(n_states, blocks)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"partition: {exc}") from exc

    joint = None
    if merged["joint"] is not None:
        joint_raw = merged["joint"]
        if not isinstance(joint_raw, dict):
            raise ConfigError("joint must be an object or null")
        unknown = set(joint_raw) - set(_JOINT_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown field(s) {sorted(unknown)} under 'joint'")
        filled = {**_JOINT_DEFAULTS, **joint_raw}
        joint = JointSettings(
            _int(filled["n_clusters"], "joint.n_clusters"),
            _float(filled["stickiness"], "joint.stickiness"),
        )
        if joint.n_clusters < 1:
            raise ConfigError(f"joint.n_clusters must be >= 1, got {joint.n_clusters}")
        if not 0.0 < joint.stickiness <= 1.0:
            raise ConfigError(f"joint.stickiness must lie in (0, 1], got {joint.stickiness}")

    noise_sigma = _float(merged["noise_sigma"], "noise_sigma")
    if noise_sigma < 0.0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    n_ensemble = _int(merged["n_ensemble"], "n_ensemble")
    if n_ensemble < 2:
        raise ConfigError(f"n_ensemble must be >= 2, got {n_ensemble}")
    ensemble_sigma = _float(merged["ensemble_sigma"], "ensemble_sigma")
    if ensemble_sigma < 0.0:
        raise ConfigError(f"ensemble_sigma must be >= 0, got {ensemble_sigma}")
    rollout_len = _int(merged["rollout_len"], "rollout_len")
    if rollout_len < 1:
        raise ConfigError(f"rollout_len must be >= 1, got {rollout_len}")
    stat_ema_rate = _float(merged["stat_ema_rate"], "stat_ema_rate")
    if not 0.0 < stat_ema_rate < 1.0:
        raise ConfigError(f"stat_ema_rate must lie in (0, 1), got {stat_ema_rate}")
    separability = _float(merged["separability"], "separability")
    if separability <= 1.0:
        raise ConfigError(f"separability must be > 1, got {separability}")
    delta = _float(merged["delta"], "delta")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    detection_policy = str(merged["detection_policy"])
    if detection_policy not in ("stale", "hold"):
        raise ConfigError(f"detection_policy must be 'stale' or 'hold', got {detection_policy!r}")
    seed = _int(merged["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")  # RNG streams need non-negative entropy
    fmt = str(merged["format"])
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")

    return ExperimentConfig(
        seed=seed,
        models=models,
        schedule=schedule,
        operator_params=operator_params,
        bocd_params=bocd_params,
        surprise_weights=surprise_weights,
        adaptive_template=adaptive_template,
        smooth_surprise=smooth_surprise,
        partition=partition,
        noise_sigma=noise_sigma,
        n_ensemble=n_ensemble,
        ensemble_sigma=ensemble_sigma,
        rollout_len=rollout_len,
        stat_ema_rate=stat_ema_rate,
        separability=separability,
        delta=delta,
        detection_policy=detection_policy,
        joint=joint,
        out_dir=str(merged["out_dir"]),
        format=fmt,
    )


def _check_metastability(config: ExperimentConfig):
    gamma = config.operator_params.gamma
    required = math.ceil(1.0 / (1.0 - gamma)) + config.detection_steps
    for i, (mode, dwell) in enumerate(config.schedule.segments):
        if dwell < required:
            warnings.warn(
                f"segment {i} (mode {mode}) dwells {dwell} < {required} iterations "
                f"(contraction time ceil(1/(1-gamma)) + detection delay); "
                "the iterate may not recover between switches",
                MetastabilityWarning,
                stacklevel=3,
            )


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Load a JSON config file (or the defaults) and apply CLI overrides."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw)
