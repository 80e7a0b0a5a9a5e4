"""Bayesian online change detection over run-lengths.

Maintains a truncated posterior over the number of steps since the last
change-point, driven by a scalar surprise signal. The predictive
likelihood is a zero-mean Gaussian whose variance grows linearly with the
run-length, so small surprises favor short run-lengths while large
surprises push posterior mass toward long ones. Each update combines a
growth message (no change, run-length advances) with a change-point
message (mass re-injected at run-length zero at the hazard rate), then
renormalizes. Truncation folds overflow mass into the last bin so the
posterior remains an exact simplex.

The filter forms each bin's log density and the messages itself, in the
log domain, and shifts them by each case's largest before one
exponentiation, so the change-point mass is at least ``hazard`` times the
largest message: no surprise can underflow the normalizer (one whose
square overflows a double is rejected with a ValueError). The updates
take a batch of beliefs as an array with a leading case axis and return a
new array; a single belief is the one-case batch.

Also provides the detection-delay calculus of L-separable evidence.

Belief updates are pure. A detector's state must be owned by a single
logical thread; independent detectors may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import _NON_NEGATIVE, _POSITIVE, _UNIT_OPEN, _at_least, _frozen_array, _read_fields, _real
from .mdp import check_simplex

__all__ = [
    "BOCDParams",
    "RunLengthBelief",
    "JointBelief",
    "DegenerateBeliefError",
    "bocd_step",
    "bayes_update",
    "detection_delay",
]

# The most negative double, a floor on the per-case log-likelihood shift.
_LOWEST = np.finfo(float).min

# A run-length posterior needs at least two bins; the detection calculus needs
# evidence that separates (L > 1).
_H_MAX = _at_least(2)
_SEPARATING = (lambda v: v > 1, "must be > 1")


class DegenerateBeliefError(RuntimeError):
    """A Bayes update whose evidence is zero on the whole support of the belief."""


@dataclass(frozen=True)
class BOCDParams:
    """Run-length filter parameters.

    h_max:     posterior truncation length (bins 0..h_max-1)
    hazard:    prior per-step change-point probability
    sigma0_sq: likelihood variance at run-length 0
    sigma_g:   per-step variance growth rate
    """

    h_max: int = 20
    hazard: float = 0.05
    sigma0_sq: float = 0.1
    sigma_g: float = 0.05

    _RULES = {"h_max": _H_MAX, "hazard": _UNIT_OPEN, "sigma0_sq": _POSITIVE, "sigma_g": _NON_NEGATIVE}

    def __post_init__(self):
        _read_fields(self)
        widest = self.sigma0_sq + self.sigma_g * (self.h_max - 1)
        if not math.isfinite(2.0 * math.pi * widest):
            raise ValueError(
                f"sigma_g must keep 2 pi times the largest variance sigma0_sq + sigma_g * "
                f"(h_max - 1) finite, got a variance of {widest}"
            )

    @cached_property
    def _likelihood_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin 2 * variance and log-normalizer log(2 pi variance) / 2."""
        var = self.sigma0_sq + self.sigma_g * np.arange(self.h_max)
        return _frozen_array(2.0 * var), _frozen_array(0.5 * np.log(2.0 * np.pi * var))


@dataclass(frozen=True)
class RunLengthBelief:
    """Posterior over run-lengths 0..h_max-1 (an exact simplex vector)."""

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.probs)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size < 2:
            raise ValueError(f"run-length belief must be a vector of length >= 2, got {p.shape}")
        check_simplex(p, "run-length belief")


@dataclass(frozen=True)
class JointBelief:
    """Joint posterior over (run-length, regime cluster); sums to 1 overall."""

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.probs)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 1:
            raise ValueError(f"joint belief must be (h_max >= 2, n_clusters >= 1), got {p.shape}")
        check_simplex(p, "joint belief")


def _batch(beliefs, params: BOCDParams | None) -> np.ndarray:
    """A (B, h) array batch of beliefs, each checked on the simplex; run-length beliefs of ``params.h_max`` if given."""
    what, width = ("belief", "h") if params is None else ("run-length belief", "h_max")
    probs = np.asarray(beliefs, dtype=float)
    if probs.ndim != 2 or len(probs) < 1:
        raise ValueError(f"{what} batch must be (B >= 1, {width}), got {probs.shape}")
    check_simplex(probs, what, batched=True)
    if params is not None and probs.shape[1] != params.h_max:
        raise ValueError(f"run-length belief has h_max={probs.shape[1]} but params expect {params.h_max}")
    return probs


def _per_case(xi, n_cases: int) -> np.ndarray:
    """``xi``, a scalar or a (B,) array of per-case surprises, as a (1,) or (B,) float array; never bools or text."""
    arr = np.asarray(xi)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"xi must be a number or an array of numbers, got {xi!r}")
    if arr.ndim > 1 or (arr.ndim == 1 and arr.size != n_cases):
        raise ValueError(f"xi must be a scalar or have shape ({n_cases},), got {arr.shape}")
    return arr.reshape(-1).astype(float, copy=False)


def _filter_step(probs: np.ndarray, xi: np.ndarray, params: BOCDParams) -> np.ndarray:
    """One run-length update of a (B, h_max) batch of beliefs.

    The log-likelihood at bin h is a zero-mean Gaussian's in ``xi`` of
    variance sigma0_sq + sigma_g * h (long run-lengths tolerate larger
    fluctuations), shifted by each case's largest so a huge but finite one
    cannot absorb log(b); the messages log(b) + log L(xi) are then shifted
    by each case's largest and exponentiated once. Growth moves them one
    bin up at rate (1 - hazard) and the top bin absorbs what would overflow
    the truncation; the change-point mass hazard * sum(messages) is
    re-injected at run-length 0. Each case is then divided by its own sum,
    which is at least ``hazard``. ``xi`` has shape (1,) or (B,).

    Where ``xi`` is so far beyond every bin's support that all of a case's
    messages are -inf, the case takes their limit: the widest bins that
    hold mass keep it in proportion, and every other bin gets none.
    """
    two_var, log_norm = params._likelihood_terms
    # log 0 is -inf, as is the log density under a variance too small for xi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xi_sq = (xi * xi)[:, None]
        if not np.isfinite(xi_sq).all():
            raise ValueError("surprise must be finite, with a finite square")
        log_prior = np.log(probs)
        log_lik = -xi_sq / two_var - log_norm
    # a case whose log-likelihood is -inf everywhere stays -inf, not nan
    log_lik -= np.maximum(log_lik.max(axis=1, keepdims=True), _LOWEST)
    log_msg = log_prior + log_lik
    top = log_msg.max(axis=1, keepdims=True)
    if top.min() == -np.inf:
        lost = np.isneginf(top[:, 0])
        widest = np.where(probs[lost] > 0.0, two_var, -np.inf).max(axis=1)[:, None]
        log_msg[lost] = np.where(two_var == widest, log_prior[lost], -np.inf)
        top[lost] = log_msg[lost].max(axis=1, keepdims=True)
    msg = np.exp(log_msg - top)
    growth = msg * (1.0 - params.hazard)
    u = np.empty_like(msg)
    u[:, 1:] = growth[:, :-1]
    u[:, -1] += growth[:, -1]
    u[:, 0] = params.hazard * msg.sum(axis=1)
    return u / u.sum(axis=1, keepdims=True)


def bocd_step(beliefs: np.ndarray, xi: float | np.ndarray, params: BOCDParams) -> np.ndarray:
    """One posterior update for surprise ``xi``.

    The filter recursion of ``_filter_step`` on a checked batch. Takes a
    (B, h_max) array of beliefs with ``xi`` a scalar or (B,) array, and
    returns the updated (B, h_max) array.
    """
    probs = _batch(beliefs, params)
    return _filter_step(probs, _per_case(xi, len(probs)), params)


def _mean_run_length(rho: np.ndarray) -> float:
    """Mean sum_h h * rho(h) of a run-length vector."""
    return float(np.dot(np.arange(rho.size), rho))


def _entropy(rho: np.ndarray) -> float:
    """Shannon entropy -sum rho log rho (nats) of a run-length vector, with 0 log 0 = 0."""
    terms = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    return float(-terms.sum())


def bayes_update(beliefs: np.ndarray, lik: np.ndarray) -> np.ndarray:
    """Plain Bayes rule rho'(h) = rho(h) L(h) / Z for a given likelihood vector.

    Takes a (B, h) array of beliefs with a (B, h) array of likelihoods, and
    returns the (B, h) array of posteriors. Raises
    :class:`DegenerateBeliefError` for a case whose evidence is zero on the
    whole support of its belief: its posterior is undefined.
    """
    probs = _batch(beliefs, None)
    lik = np.asarray(lik, dtype=float)
    if lik.shape != probs.shape:
        raise ValueError(f"likelihood shape {lik.shape} does not match belief {probs.shape}")
    if (lik < 0.0).any() or not np.isfinite(lik).all():
        raise ValueError("likelihood vector must be finite and non-negative")
    with np.errstate(divide="ignore"):
        log_post = np.log(probs) + np.log(lik)
    top = log_post.max(axis=1, keepdims=True)
    if np.isneginf(top).any():
        row = int(np.isneginf(top).argmax())
        raise DegenerateBeliefError(f"Bayes update: zero evidence on the support of belief {row}")
    post = np.exp(log_post - top)
    post /= post.sum(axis=1, keepdims=True)
    return post


def _odds(likelihood_ratio, prior_ratio) -> tuple[float, float]:
    """The detection calculus's likelihood ratio (> 1) and prior ratio (> 0), read."""
    return _real(likelihood_ratio, "likelihood ratio", _SEPARATING), _real(prior_ratio, "prior ratio", _POSITIVE)


def detection_delay(likelihood_ratio: float, prior_ratio: float, delta: float) -> float:
    """Steps n for the posterior odds L**(2n) / prior_ratio of a change to reach 1/delta.

    Returns log(prior_ratio / delta) / (2 log likelihood_ratio), or 0 where
    the prior odds already reach 1/delta; the minimal integer step count is
    its ceiling. Only where the quotient overflows is its log taken as
    log prior_ratio - log delta: elsewhere the two can differ in the last bit.
    """
    likelihood_ratio, prior_ratio = _odds(likelihood_ratio, prior_ratio)
    delta = _real(delta, "delta", _UNIT_OPEN)
    odds = prior_ratio / delta
    log_odds = math.log(odds) if odds < math.inf else math.log(prior_ratio) - math.log(delta)
    return max(0.0, log_odds / (2.0 * math.log(likelihood_ratio)))

