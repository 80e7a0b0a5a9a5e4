"""Surprise fusion and the adaptive-conservatism chain.

A scalar surprise fuses three normalized anomaly channels (reward z-score,
ensemble Q-std ratio, penalty-trace divergence) and is clipped for
stability. The detector's expected run-length, normalized and baselined
against its own EMA, yields a non-negative penalty ``lambda_w`` that is
zero during stable operation and spikes after detected changes. Only a
rise above a K-sigma control limit counts, ``raw > baseline + K s`` with
``s`` the EMA deviation of raw from its baseline (:data:`K`; Page's
control limits, Biometrika 1954, applied to the Adams-MacKay run-length
posterior), so the ordinary jitter of a steady segment reads zero. The
penalty lowers the LCB coefficient ``beta_eff = beta_base - lambda_w *
c_penalty``, so surprise can only make action scoring more conservative,
never less.

EMA convention throughout: ``rate`` is the *retention* of the previous
value (rate 0.95 retains heavily, rate 0.3 adapts fast, rate 0 keeps the
new value alone). Reversing the convention changes the baseline dynamics,
hence this note.

``AdaptiveState`` holds coefficients only: :func:`lambda_w` takes and
returns its running baseline and spread as plain floats, which the caller
owns like its other EMAs. Every function here is pure and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bocd import _H_MAX
from .mdp import _NON_NEGATIVE, _POSITIVE, _UNIT_OPEN, _is_real, _read_fields, _real, _whole, _within

__all__ = [
    "SurpriseWeights",
    "AdaptiveState",
    "surprise",
    "ema_update",
    "lambda_w",
    "beta_eff",
]

# Control-limit width: lambda_w counts only the part of a rise of the
# normalized run-length above K EMA deviations of its baseline.
K = 2.0

# 0 keeps the new value alone; the rule itself refuses a bool or text, as ema_update applies it unread
_RETENTION = (lambda v: _is_real(v) and 0 <= v < 1, "must lie in [0, 1)")
_UNIT_CLOSED = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")


@dataclass(frozen=True)
class SurpriseWeights:
    """Fusion weights for the three surprise channels, plus the clip ceiling."""

    w_r: float = 0.5
    w_q: float = 0.3
    w_kappa: float = 0.2
    clip_max: float = 10.0

    _RULES = {"w_r": _NON_NEGATIVE, "w_q": _NON_NEGATIVE, "w_kappa": _NON_NEGATIVE, "clip_max": _POSITIVE}
    __post_init__ = _read_fields


@dataclass(frozen=True)
class AdaptiveState:
    """Coefficients of the penalty chain.

    baseline_ema_rate is the retention of :func:`lambda_w`'s baseline and
    spread, in (0, 1); surprise_ema_rate is the retention at which
    ``run_piecewise`` smooths the fused surprise, in [0, 1), where 0 leaves
    it unsmoothed. :func:`lambda_w` lies in [0, 1], so ``beta_base -
    c_penalty``, the lowest ``beta_eff`` it can give, must be finite.
    """

    beta_base: float = -2.0
    c_penalty: float = 0.5
    baseline_ema_rate: float = 0.95
    surprise_ema_rate: float = 0.3

    _RULES = {"c_penalty": _NON_NEGATIVE, "baseline_ema_rate": _UNIT_OPEN, "surprise_ema_rate": _RETENTION}

    def __post_init__(self):
        _read_fields(self)
        lowest = self.beta_base - self.c_penalty
        if not math.isfinite(lowest):
            raise ValueError(f"c_penalty must keep beta_base - c_penalty finite, got {lowest}")


def surprise(reward_z: float, q_std_ratio: float, kappa_div: float, weights: SurpriseWeights) -> float:
    """Fused surprise of one iteration's channel readings, clipped to [0, clip_max].

    reward_z:     reward z-score (dimensionless, sign carries no meaning here)
    q_std_ratio:  ensemble Q-std over its running baseline, >= 0
    kappa_div:    absolute drift of the penalty trace from its EMA, >= 0
    """
    reward_z = _real(reward_z, "reward_z")
    q_std_ratio = _real(q_std_ratio, "q_std_ratio", _NON_NEGATIVE)
    kappa_div = _real(kappa_div, "kappa_div", _NON_NEGATIVE)
    raw = weights.w_r * abs(reward_z) + weights.w_q * q_std_ratio + weights.w_kappa * kappa_div
    return float(min(max(raw, 0.0), weights.clip_max))


def ema_update(prev: float | None, x: float, rate: float) -> float:
    """rate * prev + (1 - rate) * x; rate is retention of the previous value.

    ``prev`` None means no observation yet: the first one seeds the average
    with itself, as ``ema_update(x, x, rate)``. Rate 0 returns ``x``.
    """
    _within(rate, "rate", _RETENTION)
    x = _real(x, "x")
    prev = x if prev is None else _real(prev, "prev")
    return rate * prev + (1.0 - rate) * x


def lambda_w(
    h_bar: float, h_max: int, baseline: float | None, sq_deviation: float | None, rate: float
) -> tuple[float, float, float | None]:
    """Penalty from the expected run-length, above a K-sigma control limit.

    raw = h_bar / (h_max - 1) and d = raw - baseline; the penalty is
    max(0, d - K s), with s the square root of ``sq_deviation``, the EMA of
    d**2 (zero while it is None). A ``baseline`` of None (no observation
    yet) is seeded with raw (see :func:`ema_update`) and reads zero, so
    startup gives no spurious penalty; the first observation that has a
    baseline seeds ``sq_deviation``. Both absorb the reading at retention
    ``rate`` *after* the penalty is taken, so a fresh spike is measured
    against the pre-spike baseline and spread: steady jitter of size s reads
    zero, a rise well above K s reads at once. Returns (penalty, baseline,
    sq_deviation), the last two updated.
    """
    h_max = _whole(h_max, "h_max", _H_MAX)
    h_bar = _real(h_bar, "h_bar", (lambda v: 0 <= v <= h_max - 1, f"must lie in [0, {h_max - 1}]"))
    if baseline is not None:
        baseline = _real(baseline, "baseline", _UNIT_CLOSED)
    if sq_deviation is not None:
        sq_deviation = _real(sq_deviation, "sq_deviation", _UNIT_CLOSED)
    raw = h_bar / (h_max - 1)
    if baseline is None:
        return 0.0, ema_update(None, raw, rate), sq_deviation
    deviation = raw - baseline
    spread = 0.0 if sq_deviation is None else math.sqrt(sq_deviation)
    lam = max(0.0, deviation - K * spread)
    sq_deviation = ema_update(sq_deviation, deviation * deviation, rate)
    return lam, ema_update(baseline, raw, rate), sq_deviation


def beta_eff(state: AdaptiveState, lam: float) -> float:
    """Effective LCB coefficient beta_base - lam * c_penalty (never above base, always finite); ``lam`` is a number."""
    lam = _real(lam, "lambda", _NON_NEGATIVE)
    beta = state.beta_base - lam * state.c_penalty
    if not math.isfinite(beta):
        raise ValueError(f"lambda must keep beta_base - lambda * c_penalty finite, got {lam!r}")
    return beta
