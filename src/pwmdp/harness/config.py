"""Experiment configuration: one field table, and the reader it drives.

A config is a single JSON document. :data:`FIELDS` has one row per field:
dotted path, kind, default and, unless the receiving object checks it,
allowed range, an ``(ok, text)`` rule that the field's reader applies as it
reads the value. Unknown fields and values of the wrong kind or out of
range raise :class:`ConfigError` (fail-fast); :data:`DEFAULT_CONFIG` and
README's defaults table derive from the rows. Regimes are given either as
generator seeds (``{"seed": 7}``, optionally with a uniform
``reward_shift``) or as explicit tables (``{"reward": ..., "kernel": ...,
"gamma_epi": ...}``).

Loading a config performs the metastability check: every scheduled dwell
should be at least ceil(1/(1-gamma)) + ceil(detection delay) iterations,
otherwise a segment may end before the iterate has recovered from the
previous switch; violations emit a :class:`MetastabilityWarning`.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from ..adaptive import AdaptiveState, SurpriseWeights
from ..bocd import _SEPARATING, BOCDParams, detection_delay
from ..mdp import ModeModel, OperatorParams, PiecewiseSchedule, make_random_mode, validate_mode
from ..mdp import _AT_LEAST_ONE, _NON_NEGATIVE, _UNIT_OPEN, _at_least, _freeze, _real, _reward_range, _whole, _within
from ..operators import _MAX_POLISH_STEPS, _NOISE_WIDTH, StatePartition

__all__ = [
    "ConfigError",
    "MetastabilityWarning",
    "ExperimentConfig",
    "FIELDS",
    "DEFAULT_CONFIG",
    "load_config",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


class MetastabilityWarning(UserWarning):
    """A scheduled dwell is too short for detection plus contraction."""


class Field(NamedTuple):
    kind: type  # int, float or str; list: a structured field that _resolve reads
    default: object
    rule: tuple | None = None  # the (ok, text) rule the reader applies; None: the receiver checks it


# The largest transition kernel a config may ask for, in n_states * n_actions *
# n_states doubles (256 MiB); a larger one is refused at load, before any
# regime's kernel is allocated. The detector's run-length posterior (h_max
# doubles), the ensemble with the iterate ((n_ensemble + 1) *
# n_states * n_actions doubles) and one rollout's draws (rollout_len doubles)
# have the same budget, as does each trace column (one double per iteration).
MAX_KERNEL_ENTRIES = 2**25

# run_piecewise divides its reward z-score and its Q-std ratio by a spread plus
# this floor, so the reward spread over all regimes, divided by it, must be finite.
SPREAD_FLOOR = 1e-8

# Value iteration closes a residual gap by a factor gamma per backup, so where
# 1 / (1 - gamma) passes mode_fixed_point's polish budget the polish cannot
# settle; gamma outside [0, 1) is left to OperatorParams.
_POLISH_HORIZON = (
    lambda v: not 0.0 <= v < 1.0 or 1.0 / (1.0 - v) <= _MAX_POLISH_STEPS,
    f"must satisfy 1 / (1 - gamma) <= {_MAX_POLISH_STEPS}",
)
# The fused surprise reaches the change detector, which squares it.
_FINITE_SQUARE = (lambda v: math.isfinite(v * v), "must have a finite square")

FIELDS: dict[str, Field] = {
    # RNG streams need non-negative entropy
    "seed": Field(int, 0, _NON_NEGATIVE),
    "n_states": Field(int, 6),
    "n_actions": Field(int, 3),
    "reward_range": Field(list, [-1.0, 1.0]),
    "modes": Field(list, [{"seed": 1}, {"seed": 2}]),
    "schedule": Field(list, [[0, 200], [1, 200]]),
    "operator.gamma": Field(float, 0.99, _POLISH_HORIZON),
    "operator.lambda_epi": Field(float, 0.01),
    "operator.kappa": Field(float, 0.0),
    # the receiving classes hold these defaults, so the config and the API cannot disagree
    "bocd.h_max": Field(int, BOCDParams.h_max),
    "bocd.hazard": Field(float, BOCDParams.hazard),
    "bocd.sigma0_sq": Field(float, BOCDParams.sigma0_sq),
    "bocd.sigma_g": Field(float, BOCDParams.sigma_g),
    "surprise.w_r": Field(float, SurpriseWeights.w_r),
    "surprise.w_q": Field(float, SurpriseWeights.w_q),
    "surprise.w_kappa": Field(float, SurpriseWeights.w_kappa),
    "surprise.clip_max": Field(float, SurpriseWeights.clip_max, _FINITE_SQUARE),
    "adaptive.beta_base": Field(float, AdaptiveState.beta_base),
    "adaptive.c_penalty": Field(float, AdaptiveState.c_penalty),
    "adaptive.baseline_ema_rate": Field(float, AdaptiveState.baseline_ema_rate),
    # 0 leaves the fused surprise unsmoothed
    "adaptive.surprise_ema_rate": Field(float, AdaptiveState.surprise_ema_rate),
    "partition": Field(list, None),
    "noise_sigma": Field(float, 0.0, _NOISE_WIDTH),
    "n_ensemble": Field(int, 10, _at_least(2)),
    "ensemble_sigma": Field(float, 0.05, _NOISE_WIDTH),
    "rollout_len": Field(int, 32, _AT_LEAST_ONE),
    "stat_ema_rate": Field(float, 0.95, _UNIT_OPEN),
    "separability": Field(float, 2.0, _SEPARATING),
    # the detection delay reads log(1 / delta)
    "delta": Field(float, 0.05, (lambda v: 0 < v < 1 and math.isfinite(1.0 / v),
                                 "must lie in (0, 1) with 1 / delta finite")),
    "detection_policy": Field(str, "stale", (lambda v: v in ("stale", "hold"), "must be 'stale' or 'hold'")),
    "out_dir": Field(str, "out"),
    "format": Field(str, "csv", (lambda v: v in ("csv", "json"), "must be 'csv' or 'json'")),
}

# The objects that group fields: the first part of every dotted path.
_SECTIONS = {path.split(".")[0] for path in FIELDS if "." in path}


def _defaults() -> dict:
    """The table's defaults, nested by section."""
    config: dict = {}
    for path, field in FIELDS.items():
        section, _, key = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = copy.deepcopy(field.default)
    return config


DEFAULT_CONFIG: dict = _defaults()


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment inputs (see FIELDS for the schema)."""

    seed: int
    models: tuple
    schedule: PiecewiseSchedule
    operator_params: OperatorParams
    bocd_params: BOCDParams
    surprise_weights: SurpriseWeights
    adaptive_template: AdaptiveState
    partition: StatePartition | None
    noise_sigma: float
    n_ensemble: int
    ensemble_sigma: float
    rollout_len: int
    stat_ema_rate: float
    separability: float
    delta: float
    detection_policy: str
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


def _str(value, name: str, rule: tuple | None = None) -> str:
    if isinstance(value, str):
        return _within(value, name, rule)
    raise ValueError(f"{name} must be a string, got {value!r}")


# A reader's ValueError names the field first; _naming("") makes it a ConfigError.
_READERS = {int: _whole, float: _real, str: _str}
# Top-level scalar fields that ExperimentConfig holds under the same name.
_SCALAR_ATTRIBUTES = [
    f.name for f in fields(ExperimentConfig) if f.name in FIELDS and FIELDS[f.name].kind in _READERS
]


def _object(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object, got {type(raw).__name__}")
    return raw


def _leaves(raw, section: str = "") -> dict:
    """``raw``'s fields as {dotted path: value}, each scalar read under its row's rule."""
    where = section or "config"
    out = {}
    unknown = []
    for key, value in _object(raw, where).items():
        path = f"{section}.{key}" if section else key
        if path in _SECTIONS:
            out.update(_leaves(value, path))
            continue
        field = FIELDS.get(path)
        if field is None:
            unknown.append(key)
            continue
        if field.kind in _READERS:
            with _naming(""):
                value = _READERS[field.kind](value, path, field.rule)
        out[path] = value
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} under '{where}'")
    return out


def _section(values: dict, section: str) -> dict:
    """The fields under ``section``, keyed by their names within it."""
    prefix = section + "."
    return {path[len(prefix):]: v for path, v in values.items() if path.startswith(prefix)}


@contextmanager
def _naming(prefix: str):
    """Re-raise an error from building a config object as a ConfigError led by ``prefix``.

    A section's receiving object names the offending field first in its
    message, so the prefix ``"<section>."`` makes that the dotted config path.
    """
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _build(section: str, make: Callable, kwargs: dict):
    """The section's object ``make(**kwargs)``; a range error it raises names its dotted path."""
    with _naming(f"{section}."):
        return make(**kwargs)


def _build_mode(spec, index: int, n_states: int, n_actions: int, reward_range) -> ModeModel:
    by_seed = "seed" in _object(spec, f"modes[{index}]")
    known = {"seed", "reward_shift"} if by_seed else {"reward", "kernel", "gamma_epi"}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in modes[{index}]")
    if by_seed:
        with _naming(""):
            seed = _whole(spec["seed"], f"modes[{index}].seed", _NON_NEGATIVE)
            shift = _real(spec.get("reward_shift", 0.0), f"modes[{index}].reward_shift")
        model = make_random_mode(seed, n_states, n_actions, reward_range)
        if shift != 0.0:
            with np.errstate(over="ignore"):
                reward = model.reward + shift
            if not np.isfinite(reward).all():
                raise ConfigError(
                    f"modes[{index}].reward_shift must keep the shifted rewards finite, got {shift!r}"
                )
            model = ModeModel(_freeze(reward), model.kernel, model.gamma_epi)
        return model
    missing = [key for key in ("reward", "kernel") if key not in spec]
    if missing:
        raise ConfigError(f"modes[{index}].{missing[0]}: missing")
    tables = (spec["reward"], spec["kernel"], spec.get("gamma_epi", np.zeros((n_states, n_actions))))
    # np.array copies, so the model neither shares nor freezes the caller's tables
    model = ModeModel(*(_freeze(np.array(table, dtype=float, order="C")) for table in tables))
    report = validate_mode(model)
    if report:
        more = f"; ... {len(report)} violations in all" if len(report) > 3 else ""
        raise ConfigError(f"modes[{index}] invalid: " + "; ".join(report[:3]) + more)
    if model.n_states != n_states or model.n_actions != n_actions:
        raise ConfigError(
            f"modes[{index}] has shape {model.reward.shape}, config says "
            f"({n_states}, {n_actions})"
        )
    return model


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict against :data:`FIELDS` and resolve all objects.

    Every invalid field, including a value of the wrong type, raises
    :class:`ConfigError`.
    """
    values = {path: field.default for path, field in FIELDS.items()}
    values.update(_leaves(raw))
    config = _resolve(values)
    _check_metastability(config)
    return config


def _resolve(values: dict) -> ExperimentConfig:
    n_states, n_actions = values["n_states"], values["n_actions"]
    table = n_states * n_actions if min(n_states, n_actions) >= 1 else 0
    h_max, n_ensemble = values["bocd.h_max"], values["n_ensemble"]
    with _naming("schedule: "):
        schedule = PiecewiseSchedule(values["schedule"])
    # (doubles, what needs them) of each array whose size a config sets
    for entries, need in (
        (table * n_states, f"n_states = {n_states} and n_actions = {n_actions} need a kernel of"),
        (h_max, f"bocd.h_max = {h_max} needs a run-length posterior of"),
        ((n_ensemble + 1) * table,
         f"n_ensemble = {n_ensemble} with {table} (state, action) pairs needs an ensemble of"),
        (values["rollout_len"], f"rollout_len = {values['rollout_len']} needs a rollout of"),
        (schedule.total_iterations, "schedule needs a trace column (one row per iteration) of"),
    ):
        if entries > MAX_KERNEL_ENTRIES:
            raise ConfigError(f"{need} {entries} doubles, beyond the budget of {MAX_KERNEL_ENTRIES}")
    if not isinstance(values["modes"], list) or not values["modes"]:
        raise ConfigError("modes must be a non-empty list")
    with _naming(""):
        reward_range = _reward_range(values["reward_range"])
    operator_params = _build("operator", OperatorParams, _section(values, "operator"))
    gamma = operator_params.gamma
    models = []
    for i, spec in enumerate(values["modes"]):
        with _naming(f"modes[{i}]: "):
            model = _build_mode(spec, i, n_states, n_actions, reward_range)
        # |Q*| <= this bound, in Python floats, where an overflow reads inf
        penalty = operator_params.lambda_epi * float(model.gamma_epi.max()) + operator_params.kappa
        r_abs = float(np.abs(model.reward).max())
        if not math.isfinite((r_abs + gamma * penalty) / (1.0 - gamma)):
            raise ConfigError(
                f"modes[{i}] must have a finite fixed point: its bound "
                "(max|R| + gamma * (lambda_epi * max G + kappa)) / (1 - gamma) overflows"
            )
        # a rollout's reward sum and squared deviations from its mean stay below these
        spread = float(model.reward.max()) - float(model.reward.min())
        rollout_len = values["rollout_len"]
        if not (math.isfinite(rollout_len * r_abs) and math.isfinite(rollout_len * spread * spread)):
            raise ConfigError(
                f"modes[{i}] must keep a rollout's reward statistics finite: "
                "rollout_len * max|R| or rollout_len * (max R - min R)^2 overflows"
            )
        models.append(model)
    # a rollout's mean and the running mean both lie within the rewards of all regimes
    spread = max(float(m.reward.max()) for m in models) - min(float(m.reward.min()) for m in models)
    if not math.isfinite(spread / SPREAD_FLOOR):
        raise ConfigError(
            "modes must keep the reward z-score finite: "
            f"(max R - min R) over all modes / {SPREAD_FLOOR} overflows"
        )
    max_mode = max(m for m, _ in schedule.segments)
    if max_mode >= len(models):
        raise ConfigError(f"schedule references mode {max_mode} but only {len(models)} modes are defined")

    partition = None
    if values["partition"] is not None:
        with _naming("partition: "):
            partition = StatePartition(n_states, values["partition"])

    return ExperimentConfig(
        models=tuple(models),
        schedule=schedule,
        operator_params=operator_params,
        bocd_params=_build("bocd", BOCDParams, _section(values, "bocd")),
        surprise_weights=_build("surprise", SurpriseWeights, _section(values, "surprise")),
        adaptive_template=_build("adaptive", AdaptiveState, _section(values, "adaptive")),
        partition=partition,
        **{name: values[name] for name in _SCALAR_ATTRIBUTES},
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
    """Load a JSON config file (or the defaults), valid as written, and apply CLI overrides."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    if overrides:
        _leaves(raw)  # the file as written, before an override replaces any field
        raw = {**raw, **overrides}
    return config_from_dict(raw)
