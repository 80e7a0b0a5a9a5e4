"""Scripted piecewise value-iteration experiments.

One experiment iterates a frozen-belief mixture backup through a scripted
regime schedule while the change-detection and adaptive-conservatism
chain runs alongside:

  1. the true regime follows the schedule;
  2. a fused surprise is computed from three tabular channels (rollout
     reward z-score, noisy-ensemble Q-std ratio, penalty-trace drift):
     ``adaptive.surprise`` checks and fuses them, and ``ema_update``
     smooths the result at ``adaptive.surprise_ema_rate`` (0 keeps it as
     fused), as it smooths the channel statistics;
  3. the run-length posterior absorbs the surprise. It stays one plain
     (1, h_max) array for the whole run, stepped by ``bocd``'s private
     helpers (``_filter_step``, as ``bocd_step`` calls it;
     ``_mean_run_length`` and ``_entropy``), so no belief object is built
     per iteration;
  4. the penalty lambda_w and the LCB coefficient beta_eff are refreshed;
  5. one frozen-belief backup is applied, using the belief and penalty
     snapshots taken before the application: one call of the kernel
     ``operators._backup`` per iteration, on the estimated regime alone at
     weight 1, on the stack of the noisy-ensemble members and the iterate.
     The members' images plus bounded noise feed the next ensemble spread;
     the iterate's image serves the TD scale and this step, which
     aggregates it (``_project``, if a partition is set) and adds bounded
     noise (``_noise``). The config, models and partition are validated at
     load and the loop owns its tables, so the kernels run unchecked; the
     spread, the TD scale and the error read every entry, and one that is
     not finite stops the run with a RuntimeError naming the iteration;
  6. the sup-norm error to the *true* active regime's fixed point is
     recorded.

The backup's regime estimate trails the schedule by the analytic
detection delay: during the detection window the iterate keeps updating
with the stale operator (policy "stale") or holds still (policy "hold").
Error rows are phase-labeled detection / contraction / steady; the labels
are reporting conveniences, the certified quantities are the envelopes.

Identical config and seed produce bit-identical traces: every random
stream is derived from (seed, stream id, iteration). There are three per
iteration: the rollout, the ensemble noise (one Generator draws the whole
(n_ensemble, S, A) block) and the iterate's noise, each noise drawn by
``add_bounded_noise``'s kernel on a sigma checked at load (at sigma 0 it
draws nothing). The ensemble feeds only the surprise chain, never the
iterate, so the ``err`` and ``phase`` columns do not depend on how its
noise is drawn.

The loop spends its time on the backup's one matrix product, not on
per-step set-up, with every value the same bits as the plain formulas:
  - what the schedule fixes (the true regime, the lagged estimate and the
    detection windows) is read once per run, from ``schedule.bounds``;
  - the rollout keeps the normalized greedy CDF rows of the true regime
    across iterations, keyed by (state, action), and drops them when the
    regime changes, so it holds at most S * A rows of S doubles.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

from .. import operators
from ..adaptive import beta_eff, ema_update, lambda_w, surprise
from ..bocd import _entropy, _filter_step, _mean_run_length
from ..operators import _noise, _project, error_floor, mode_fixed_point, projection_error
from ..operators import apply_mixture_operator  # noqa: F401  bench/test_bench.py traces this name
from .config import SPREAD_FLOOR, ExperimentConfig

__all__ = ["TraceRow", "ExperimentTrace", "run_piecewise", "TRACE_FIELDS"]

PHASES = ("detection", "contraction", "steady")

# Steady-state labeling: within 10% of the analytic floor (with a tiny
# absolute fallback when the floor is zero). A label, not a theorem.
STEADY_MARGIN = 1.1
STEADY_ABS = 1e-9

_ROLLOUT_STREAM = 0
_ENSEMBLE_STREAM = 1
_NOISE_STREAM = 2

# The per-iteration ensemble-spread estimate is itself a noisy statistic
# (std over n_ensemble tables); a short EMA steadies its ratio channel
# without hiding genuine jumps.
_SIGMA_Q_SMOOTH = 0.5


@dataclass(frozen=True)
class TraceRow:
    iter: int
    true_mode: int
    xi: float
    h_bar: float
    entropy: float
    lambda_w: float
    beta_eff: float
    err: float
    phase: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")


# Trace columns, in order: the fields of TraceRow, declared once above.
TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


@dataclass(frozen=True)
class ExperimentTrace:
    """Iteration-contiguous sequence of per-step records."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            if row.iter != i:
                raise ValueError(f"trace rows must be iteration-contiguous; row {i} has iter {row.iter}")

    def __len__(self) -> int:
        return len(self.rows)


def _greedy_rollout(model, q: np.ndarray, length: int, rng, cdf_rows: dict) -> np.ndarray:
    """One-step rewards along a greedy trajectory through the true regime.

    Starts from state 0 every iteration so batch-to-batch reward variation
    reflects the regime (and kernel sampling), not start-state dispersion.
    Each transition is an inverse-CDF draw (``rng.choice``'s arithmetic) on
    one uniform of a single ``rng.random`` call: ``bisect_right`` on the
    normalized CDF row of the (state, greedy action) pair makes the
    comparisons of ``searchsorted(side="right")``. ``cdf_rows`` maps such
    pairs of ``model`` to their rows, each built on first use and held as
    an ``array("d")`` (8 bytes an entry); the caller keeps it across calls
    and starts a new one when the regime changes.
    """
    greedy = q.argmax(axis=1)
    actions = greedy.tolist()
    state = 0
    path = [0]
    for draw in rng.random(length - 1).tolist():
        key = (state, actions[state])
        row = cdf_rows.get(key)
        if row is None:
            cdf = model.kernel[key].cumsum()
            cdf /= cdf[-1]
            row = cdf_rows[key] = array("d", cdf.tobytes())
        state = bisect_right(row, draw)
        path.append(state)
    return model.reward[path, greedy[path]]


def _spread(members: np.ndarray) -> float:
    """Mean over (s, a) of the members' standard deviation, finite when they all are.

    ``members.std(axis=0).mean()``, except past |Q| ~ 1e154, where even
    round-off deviations overflow when squared: there the members are
    scaled into [-1, 1] first.
    """
    spread = float(members.std(axis=0).mean())
    if not math.isfinite(spread) and np.isfinite(members).all():
        scale = float(np.abs(members).max())
        spread = scale * _spread(members / scale)
    return spread


def _finite(value: float, name: str, t: int) -> float:
    """``value``, or a RuntimeError naming iteration ``t`` if the tables overflowed into it."""
    if not math.isfinite(value):
        raise RuntimeError(f"{name} is {value} at iteration {t}: the Q tables overflowed")
    return value


def run_piecewise(config: ExperimentConfig) -> ExperimentTrace:
    """Run the scripted experiment and return its trace."""
    models = config.models
    params = config.operator_params
    schedule = config.schedule
    seed = config.seed
    n_delta = config.detection_steps

    fixed_points = [mode_fixed_point(m, params, tol=1e-10) for m in models]
    for i, fp in enumerate(fixed_points):
        if not fp.converged:
            raise RuntimeError(f"fixed point for mode {i} has residual {fp.final_residual:.3g}")
    q_stars = [fp.q_star for fp in fixed_points]
    partition = config.partition
    eps_proj = [0.0 if partition is None else projection_error(q, partition) for q in q_stars]
    # each regime's steady-label threshold, from its error floor
    steady_thresholds = [max(error_floor(e, config.noise_sigma, params.gamma) * STEADY_MARGIN, STEADY_ABS)
                         for e in eps_proj]

    # the schedule read once per run: the true regime, the detector's view of
    # it (lagging each switch by n_delta) and the detection windows, each the
    # first n_delta iterations of a segment after the first, up to its end
    true_modes, in_detection = [], []
    for k, (start, end, mode) in enumerate(schedule.bounds):
        window = 0 if k == 0 else min(n_delta, end - start)
        true_modes += [mode] * (end - start)
        in_detection += [True] * window + [False] * (end - start - window)
    n_iter = schedule.total_iterations
    est_modes = [true_modes[max(t - n_delta, 0)] for t in range(n_iter)]
    holds = config.detection_policy == "hold"

    h_max = config.bocd_params.h_max
    # the run-length posterior as a one-case batch, as bocd_step holds it
    posterior = np.full((1, h_max), 1.0 / h_max)
    adaptive = config.adaptive_template

    # the ensemble members, then the iterate q, backed up together each iteration
    stack = np.zeros((config.n_ensemble + 1, config.n_states, config.n_actions))
    q = stack[-1]
    cdf_rows, cdf_mode = {}, None  # the rollout's CDF rows of regime cdf_mode

    # Channel statistics: None until their first observation seeds them
    # (ema_update), and each channel reads its neutral value off that None.
    reward_mean = reward_var = None
    sigma_q_smooth = sigma_q_baseline = None
    kappa_ema = surprise_ema = None
    lam_base = lam_sq = None  # lambda_w's baseline and squared deviation

    rows = []
    for t in range(n_iter):
        true_mode = true_modes[t]
        if true_mode != cdf_mode:
            cdf_rows, cdf_mode = {}, true_mode

        # --- surprise channels (all measured before the backup) ---
        roll_rng = np.random.default_rng((seed, _ROLLOUT_STREAM, t))
        rewards = _greedy_rollout(models[true_mode], q, config.rollout_len, roll_rng, cdf_rows)
        batch_mean, batch_var = float(rewards.mean()), float(rewards.var())
        if reward_mean is None:
            reward_z = 0.0
        else:
            # in Python floats, an overflowing weighted z saturates xi without numpy's warning
            reward_z = (batch_mean - reward_mean) / (math.sqrt(reward_var) + SPREAD_FLOOR)
        reward_mean = ema_update(reward_mean, batch_mean, config.stat_ema_rate)
        reward_var = ema_update(reward_var, batch_var, config.stat_ema_rate)

        # an overflow in the tables is reported by _finite, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            stack = operators._backup((models[est_modes[t]],), (1.0,), params, stack)
            # one stream draws the members' whole (n_ensemble, S, A) noise block
            stack[:-1] = _noise(stack[:-1], config.ensemble_sigma, (seed, _ENSEMBLE_STREAM, t))
            sigma_q = _finite(_spread(stack[:-1]), "sigma_q", t)
            backed_up = stack[-1]
            td_scale = _finite(float(np.abs(backed_up - q).max()), "td_scale", t)
        sigma_q_smooth = ema_update(sigma_q_smooth, sigma_q, _SIGMA_Q_SMOOTH)
        if sigma_q_baseline is None:
            q_std_ratio = 1.0
        else:
            q_std_ratio = sigma_q_smooth / (sigma_q_baseline + SPREAD_FLOOR)
        sigma_q_baseline = ema_update(sigma_q_baseline, sigma_q_smooth, config.stat_ema_rate)

        kappa_t = params.kappa + td_scale
        kappa_div = 0.0 if kappa_ema is None else abs(kappa_t - kappa_ema)
        kappa_ema = ema_update(kappa_ema, kappa_t, config.stat_ema_rate)

        xi = surprise(reward_z, q_std_ratio, kappa_div, config.surprise_weights)
        xi = surprise_ema = ema_update(surprise_ema, xi, adaptive.surprise_ema_rate)

        # --- belief update, then penalty chain (snapshots for this backup) ---
        posterior = _filter_step(posterior, np.array([xi]), config.bocd_params)
        rho = posterior[0]
        h_bar = _mean_run_length(rho)
        entropy = _entropy(rho)
        lam, lam_base, lam_sq = lambda_w(h_bar, h_max, lam_base, lam_sq, adaptive.baseline_ema_rate)
        beta = beta_eff(adaptive, lam)

        # --- one frozen-belief backup ---
        with np.errstate(over="ignore", invalid="ignore"):
            if not (holds and in_detection[t]):
                step = backed_up if partition is None else _project(backed_up, partition)
                q = _noise(step, config.noise_sigma, (seed, _NOISE_STREAM, t))
            err = _finite(float(np.abs(q - q_stars[true_mode]).max()), "err", t)
        stack[-1] = q  # the next iteration backs up this ensemble and iterate
        if in_detection[t]:
            phase = "detection"
        elif err <= steady_thresholds[true_mode]:
            phase = "steady"
        else:
            phase = "contraction"

        rows.append(TraceRow(t, true_mode, xi, h_bar, entropy, lam, beta, err, phase))
    return ExperimentTrace(tuple(rows))
