"""Operator zoo for piecewise-robust value iteration.

Contains the per-regime penalized Bellman backup, its belief-weighted
mixture, the value-coupled backup whose belief tracks Q (the counterexample
with the sharp contraction threshold gamma + sensitivity * gap),
block-averaging state aggregation, bounded noise added to Q tables, exact
regime fixed points by policy iteration, fixed-point iteration with
a-posteriori certificates (which also flags the coupled backup's
divergence), empirical Lipschitz estimation, and the regime-switch
perturbation bound.

Every public operator takes a (..., S, A) array of Q tables and returns a
new array (``add_bounded_noise`` at sigma 0 returns the tables it was
given); a regime belief is a weight vector.
The only randomness is owned by explicit seeds.

Validation happens at the public entry points: ``apply_mode_operator``,
``mixture_backup``/``apply_mixture_operator``, ``apply_coupled_operator``,
``apply_mixture_via_shared``, ``project`` and ``add_bounded_noise`` check
their tables (shape, finiteness), each plain regime's (S, A) against the
tables', weights, coupling (two floats), partition and sigma, then call one
private kernel each (``_backup``, ``_coupled``, ``_project``, ``_noise``),
where each formula is written once.

The instance axes belong to the kernels ``_backup`` and ``_coupled``, which
run unchecked. A private ``_Regime`` carries leading instance axes L: (*L,
S, A) rewards and penalties and (*L, S, A, S) kernels. With weights,
coefficients (``_Coefficients``), sensitivity and gap that are scalars or
arrays over L, they back up (*L, *T, S, A) tables, T per instance, in one
call; a ``ModeModel`` with ``OperatorParams`` is the case L = (). The
product is ``np.matmul`` of each instance's (T, S) values with its own
(S, S*A) kernel view, the BLAS product the instance would get alone, so
each instance's images equal its own call bit for bit, however the T axes
are laid out. Loops that own arrays built from validated inputs call the
kernels directly, as certification suites 1, 2, 3 and 7 do per shape group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .mdp import ModeModel, OperatorParams, check_simplex, sup_dist
from .mdp import _AT_LEAST_ONE, _DISCOUNT, _NON_NEGATIVE, _POSITIVE, _items, _pair, _read_fields, _real, _whole

__all__ = [
    "StatePartition",
    "FixedPointResult",
    "RegimePerturbation",
    "apply_mode_operator",
    "mixture_backup",
    "apply_mixture_operator",
    "apply_coupled_operator",
    "solve_fixed_point",
    "mode_fixed_point",
    "estimate_lipschitz",
    "regime_perturbation",
    "project",
    "projection_error",
    "add_bounded_noise",
    "apply_mixture_via_shared",
    "error_floor",
]

# solve_fixed_point reports divergence once the residual passes this multiple
# of its first residual, which no residual of a contraction exceeds.
DIVERGENCE_CAP = 1e12

# mode_fixed_point stops after this many improvement steps (exact policy
# iteration on these tables settles in a handful) and switches an action only
# where another beats it by more than this multiple of the largest |Q|.
_MAX_IMPROVEMENTS = 100
_SWITCH_MARGIN = 64 * np.finfo(float).eps
# Its value-iteration polish, needed only where round-off at a large |Q| leaves
# the residual above tol, stops after this many backups.
_MAX_POLISH_STEPS = 10**6

# estimate_lipschitz samples table entries uniformly from this range.
LIPSCHITZ_VALUE_RANGE = (-10.0, 10.0)

# Maps an array of tables to the same-shape array of their images, or (see
# estimate_lipschitz) a (B, S, A) array to its (..., B, S, A) images under several maps.
QOperator = Callable[[np.ndarray], np.ndarray]

# Noise of width sigma is drawn from uniform(-sigma, sigma), whose span must be finite.
_NOISE_WIDTH = (lambda v: v >= 0 and math.isfinite(2.0 * v), "must be >= 0 with 2 * sigma finite")


@dataclass(frozen=True)
class StatePartition:
    """Disjoint state blocks covering 0..n_states-1 (aggregation structure)."""

    n_states: int
    blocks: tuple

    _RULES = {"n_states": _AT_LEAST_ONE}

    def __post_init__(self):
        _read_fields(self)
        state = (lambda v: 0 <= v < self.n_states, f"must lie in 0..{self.n_states - 1}")
        blocks = tuple(tuple(_whole(s, f"blocks[{i}] state", state) for s in _items(b, f"blocks[{i}]", "states"))
                       for i, b in enumerate(_items(self.blocks, "blocks", "blocks of states")))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block in partition")
            for s in b:
                if s in seen:
                    raise ValueError(f"state {s} appears in more than one block")
                seen.add(s)
        if len(seen) != self.n_states:
            missing = sorted(set(range(self.n_states)) - seen)
            raise ValueError(f"partition does not cover states {missing}")

    @cached_property
    def _block_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """States in block order, each block's first position and size, each state's block."""
        sizes = np.array([len(b) for b in self.blocks])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        block_of = np.empty(self.n_states, dtype=np.intp)
        order = np.concatenate(self.blocks)
        block_of[order] = np.repeat(np.arange(sizes.size), sizes)
        return order, starts, sizes, block_of


@dataclass(frozen=True)
class FixedPointResult:
    q_star: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


class RegimePerturbation(NamedTuple):
    delta_r: float      # sup-norm operator difference at the old fixed point
    bound: float        # delta_r / (1 - gamma)
    actual_gap: float   # sup-norm distance between the two fixed points


class _Regime(NamedTuple):
    """The three tables ``_backup`` reads, with leading instance axes L (unchecked)."""

    reward: np.ndarray      # (*L, S, A)
    kernel: np.ndarray      # (*L, S, A, S')
    gamma_epi: np.ndarray   # (*L, S, A)


@dataclass(frozen=True)
class _Coefficients:
    """Per-instance gamma, lambda_epi and kappa: each a scalar or an array over L (unchecked)."""

    gamma: float | np.ndarray
    lambda_epi: float | np.ndarray
    kappa: float | np.ndarray


def _per_instance(x, n_trailing: int):
    """A scalar as it is; an ndarray over the instance axes with ``n_trailing`` unit axes appended."""
    return x.reshape(x.shape + (1,) * n_trailing) if isinstance(x, np.ndarray) else x


def _tables(q: np.ndarray, models: Sequence[ModeModel] = ()) -> np.ndarray:
    """A (..., S, A) array batch of tables, checked finite and of each regime's (S, A) shape."""
    values = np.asarray(q, dtype=float)
    if values.ndim < 2:
        raise ValueError(f"Q tables must be (..., S, A), got shape {values.shape}")
    for i, model in enumerate(models):
        if model.reward.shape != values.shape[-2:]:
            raise ValueError(f"dimension mismatch: regime {i} is {model.reward.shape}, Q is {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("Q tables contain non-finite entries")
    return values


def _backup(
    models: Sequence[ModeModel | _Regime],
    weights: Sequence[float | np.ndarray],
    params: OperatorParams | _Coefficients,
    q: np.ndarray,
) -> np.ndarray:
    """Weighted sum of per-regime backups of tables with leading instance axes L.

    Accumulates w_m * (R_m + gamma * (P_m V - lambda_epi * G_m - kappa)) with
    the weights taken as given, so the kappa term scales by sum(w). The
    regimes' tables carry instance axes L (all the same; L = () for a
    ``ModeModel``), the tables are (*L, *T, S, A), T tables per instance, and
    each weight and each of gamma, lambda_epi and kappa is a scalar or an
    array over L. V is computed once, by exact maxima over the A action
    columns. Each regime costs one ``np.matmul`` of each instance's (T, S)
    values with its own (S, S*A) kernel view, the same gemm or gemv the
    instance gets alone, so the images equal the instances' own calls bit for
    bit, however the T axes are laid out.
    """
    n_states = q.shape[-2]
    lead = models[0].reward.shape[:-2]
    n_trailing = q.ndim - len(lead)
    table = lead + (1,) * (n_trailing - 2) + q.shape[-2:]
    v = q[..., 0].copy()
    for a in range(1, q.shape[-1]):
        np.maximum(v, q[..., a], out=v)
    v = v.reshape(lead + (-1, n_states))
    gamma, lambda_epi, kappa = (_per_instance(x, n_trailing) for x in (params.gamma, params.lambda_epi, params.kappa))
    out = None
    for w, model in zip(weights, models):
        term = np.matmul(v, model.kernel.reshape(lead + (-1, n_states)).swapaxes(-1, -2)).reshape(q.shape)
        term -= lambda_epi * model.gamma_epi.reshape(table)
        term -= kappa
        term *= gamma
        term += model.reward.reshape(table)
        term *= _per_instance(w, n_trailing)
        out = term if out is None else out + term
    return out


def apply_mode_operator(
    model: ModeModel, params: OperatorParams, q: np.ndarray
) -> np.ndarray:
    """Penalized Bellman backup under one regime.

    out(s,a) = R(s,a) + gamma * (sum_s' P(s'|s,a) V(s') - lambda_epi * G(s,a) - kappa)
    with V(s') = max_a' Q(s',a'). Penalties are frozen tables, so they cancel
    in differences and the map contracts at rate gamma. ``q`` is a
    (..., S, A) array of tables, each backed up.
    """
    return _backup((model,), (1.0,), params, _tables(q, (model,)))


def _belief_weights(belief: np.ndarray) -> np.ndarray:
    """A regime belief: a non-empty weight vector on the simplex (validated)."""
    weights = np.asarray(belief, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError(f"belief must be a non-empty vector, got shape {weights.shape}")
    check_simplex(weights, "belief")
    return weights


def mixture_backup(
    models: Sequence[ModeModel],
    weights: np.ndarray,
    params: OperatorParams,
    q: np.ndarray,
) -> np.ndarray:
    """Weighted sum of per-regime backups with the weights taken as-is.

    No simplex validation: ``weights`` is any finite vector, one entry per
    regime, and callers that need the contraction guarantee must pass a
    proper belief (see :func:`apply_mixture_operator`). Exposed so
    that the discounting identity's failure under unnormalized weights can
    be demonstrated directly. ``q`` is a (..., S, A) array of tables, as for
    :func:`apply_mode_operator`.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or not np.isfinite(weights).all():
        raise ValueError(f"weights must be a finite vector, got {weights.tolist()}")
    if len(models) != weights.size:
        raise ValueError(f"{len(models)} models but {weights.size} weights")
    if not models:
        raise ValueError("need at least one model")
    return _backup(models, weights, params, _tables(q, models))


def apply_mixture_operator(
    models: Sequence[ModeModel],
    belief: np.ndarray,
    params: OperatorParams,
    q: np.ndarray,
) -> np.ndarray:
    """Belief-weighted mixture of per-regime backups (frozen belief).

    With a point-mass belief this reduces exactly to
    :func:`apply_mode_operator` on the selected regime; a single-regime
    mixture is the plain penalized backup. A convex combination of
    gamma-contractions contracts at the same rate: the certification suite
    checks the exact factor gamma * max_{s,a} sum_t |sum_m w_m P_m(t|s,a)|
    against gamma, and sampled pairs through the kernel against that
    factor. ``q`` is taken as by :func:`apply_mode_operator`.
    """
    return mixture_backup(models, _belief_weights(belief), params, q)


def apply_coupled_operator(
    model: ModeModel, params: OperatorParams, sensitivity: float, gap: float, q: np.ndarray
) -> np.ndarray:
    """Backup whose regime belief tracks Q: the paper's value-coupled counterexample.

    Mixes ``model``'s backup with that of its copy whose rewards sit ``gap``
    higher, putting weight w(Q) = 0.5 + sensitivity * Q[0, 0] on the copy,
    for each table of the (..., S, A) stack ``q``. The two backups differ by
    ``gap`` alone, so the mixture is ``_backup`` of ``model`` plus w(Q) * gap.
    w is not clipped; it is a probability where |Q[0, 0]| <= 0.5 / sensitivity,
    and past that a clipped w would saturate and the map contract again. For
    sensitivity, gap >= 0 the exact sup-norm Lipschitz factor is
    gamma + sensitivity * gap, attained by a uniform shift of Q: the map
    expands once that passes 1, however small the coupling. Callers compute
    that factor inline from their own arguments. It takes one plain regime
    and two finite numbers; the instance axes are ``_coupled``'s.
    """
    sensitivity, gap = _real(sensitivity, "sensitivity", _NON_NEGATIVE), _real(gap, "gap", _NON_NEGATIVE)
    return _coupled(model, params, sensitivity, gap, _tables(q, (model,)))


def _coupled(model, params, sensitivity, gap, values: np.ndarray) -> np.ndarray:
    """Unchecked ``apply_coupled_operator`` on ``_backup``'s inputs; sensitivity and gap scalars or over L."""
    n_trailing = values.ndim - (model.reward.ndim - 2)
    weight = 0.5 + _per_instance(sensitivity, n_trailing) * values[..., :1, :1]
    return _backup((model,), (1.0,), params, values) + weight * _per_instance(gap, n_trailing)


def solve_fixed_point(
    operator: QOperator,
    q0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10**6,
) -> FixedPointResult:
    """Iterate Q <- T(Q) until the sup-norm update drops below ``tol``.

    For a certified gamma-contraction the a-posteriori bound gives
    dist(Q, Q*) <= tol * gamma / (1 - gamma) on return. Non-convergence
    within ``max_iter`` (or a residual blow-up past ``DIVERGENCE_CAP`` times
    the first residual, at any scale of Q, expected for expansive maps) is
    flagged rather than raised. ``operator`` maps an array to an array.
    """
    tol, max_iter = _real(tol, "tol", _POSITIVE), _whole(max_iter, "max_iter", _AT_LEAST_ONE)
    q = _tables(q0)
    if q.size == 0:
        raise ValueError(f"q0 must have at least one entry, got shape {q.shape}")
    residual = float("inf")
    for it in range(1, max_iter + 1):
        q_next = operator(q)
        residual = sup_dist(q_next, q)
        q = q_next
        if residual < tol:
            return FixedPointResult(q, it, residual, True)
        if it == 1:
            cap = DIVERGENCE_CAP * residual
        if not np.isfinite(residual) or residual > cap:
            return FixedPointResult(q, it, residual, False)
    return FixedPointResult(q, max_iter, residual, False)


def mode_fixed_point(
    model: ModeModel, params: OperatorParams, tol: float = 1e-10
) -> FixedPointResult:
    """Exact fixed point of one regime's backup by Howard policy iteration.

    With the effective reward r = R - gamma * (lambda_epi * G + kappa), each
    step evaluates the current policy pi by one linear solve
    (I - gamma P_pi) v = r_pi and improves it greedily, switching an action
    only where another beats it by more than a round-off margin (ties keep
    the action already chosen). The first policy is greedy on r. Once the
    policy is stable, Q = r + gamma P v is the fixed point up to round-off;
    ``final_residual`` is ||T Q - Q|| from one backup, ``converged`` means it
    is below ``tol``, and ``iterations`` counts the improvement steps. Only
    if round-off at a large |Q| leaves that residual finite but at or above
    ``tol`` does :func:`solve_fixed_point` polish Q from a lower bound of the
    fixed point, in at most ``_MAX_POLISH_STEPS`` backups. Where that backup
    or bound overflows, policy iteration's Q returns with ``converged`` False
    (an overflowing solve fails the residual backup's finiteness check).
    """
    tol = _real(tol, "tol", _POSITIVE)
    gamma = params.gamma
    reward = model.reward - gamma * (params.lambda_epi * model.gamma_epi + params.kappa)
    states = np.arange(model.n_states)
    policy = reward.argmax(axis=1)
    for it in range(1, _MAX_IMPROVEMENTS + 1):
        # I - gamma P_pi in the one array solved: 0 - x is exactly -x and
        # (0 - x) + 1 exactly 1 - x, so the bits are those of eye - gamma P_pi
        system = gamma * model.kernel[states, policy]
        np.subtract(0.0, system, out=system)
        system[states, states] += 1.0
        v = np.linalg.solve(system, reward[states, policy])
        q = reward + gamma * (model.kernel @ v)
        best = q.argmax(axis=1)
        margin = _SWITCH_MARGIN * np.abs(q).max()
        switch = q[states, best] > q[states, policy] + margin
        if not switch.any():
            break
        policy = np.where(switch, best, policy)
    residual = float(np.abs(apply_mode_operator(model, params, q) - q).max())
    # Round-off at a large |Q| can leave the residual above tol. The backup is
    # monotone, so value iteration from a lower bound of the fixed point rises
    # to a floating-point fixed point; a non-finite residual or bound skips it.
    if residual >= tol and np.isfinite(start := q - 2.0 * residual / (1.0 - gamma)).all():
        polish = solve_fixed_point(lambda t: _backup((model,), (1.0,), params, t), start, tol, _MAX_POLISH_STEPS)
        q, residual = polish.q_star, polish.final_residual
    return FixedPointResult(q, it, residual, residual < tol)


def estimate_lipschitz(
    operator: QOperator,
    dims: tuple[int, int],
    n_pairs: int,
    seed: int,
) -> float | np.ndarray:
    """Empirical sup-norm Lipschitz factor over sampled table pairs.

    Takes the max of dist(T Q1, T Q2) / dist(Q1, Q2) over ``n_pairs``
    random pairs (entries uniform in ``LIPSCHITZ_VALUE_RANGE``; per-pair RNG
    streams derived from ``(seed, pair_index)``), skipping zero-distance
    pairs, plus a uniform-shift pair and single-entry bump pairs, which are
    tight for affine operators where random pairs alone understate the
    factor. Every probe table goes through ``operator`` in one call, as a
    (B, S, A) array whose images it returns as a (B, S, A) array; the
    factor is a float. An operator that stands for several maps at once
    may return their images as a (..., B, S, A) array, and the result is
    then the array (...) of one factor per map.
    """
    n_pairs, seed = _whole(n_pairs, "n_pairs", _AT_LEAST_ONE), _whole(seed, "seed", _NON_NEGATIVE)
    s, a = (_whole(d, f"dims[{i}]", _AT_LEAST_ONE) for i, d in enumerate(_pair(dims, "dims", "(n_states, n_actions)")))
    lo, hi = LIPSCHITZ_VALUE_RANGE
    tables = []
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, i))
        tables.append(rng.uniform(lo, hi, size=(s, a)))
        tables.append(rng.uniform(lo, hi, size=(s, a)))
    base = np.random.default_rng((seed, n_pairs)).uniform(lo, hi, size=(s, a))
    n_bumps = min(3, s * a)
    shifts = np.zeros((1 + n_bumps, s * a))
    shifts[0] = 1.0
    shifts[np.arange(1, 1 + n_bumps), np.arange(n_bumps)] = 1.0
    stack = np.concatenate([np.stack(tables), base[None], base + shifts.reshape(-1, s, a)])
    # pair k compares table left[k] with table right[k]
    anchor = 2 * n_pairs
    left = np.concatenate([np.arange(0, anchor, 2), np.full(1 + n_bumps, anchor)])
    right = np.concatenate([np.arange(1, anchor, 2), anchor + 1 + np.arange(1 + n_bumps)])
    dist = np.abs(stack[left] - stack[right]).max(axis=(1, 2))
    images = np.asarray(operator(stack), dtype=float)
    if images.shape[-3:] != stack.shape or not np.isfinite(images).all():
        raise ValueError(f"operator must map {stack.shape} tables to finite tables of that shape")
    image_dist = np.abs(images[..., left, :, :] - images[..., right, :, :]).max(axis=(-2, -1))
    ratios = np.divide(image_dist, dist, out=np.zeros_like(image_dist), where=dist > 0.0)
    factors = np.maximum(ratios.max(axis=-1), 0.0)
    return float(factors) if factors.ndim == 0 else factors


def regime_perturbation(
    model_k: ModeModel,
    model_k1: ModeModel,
    params: OperatorParams,
    tol: float = 1e-10,
) -> RegimePerturbation:
    """Fixed-point shift across a regime switch and its analytic bound.

    delta_r is the pointwise operator difference evaluated at the old fixed
    point; the gap between the two fixed points can never exceed
    delta_r / (1 - gamma), up to the solver tolerance.
    """
    if model_k.reward.shape != model_k1.reward.shape:
        raise ValueError("regime models must share dimensions")
    fp_k = mode_fixed_point(model_k, params, tol)
    fp_k1 = mode_fixed_point(model_k1, params, tol)
    if not (fp_k.converged and fp_k1.converged):
        raise RuntimeError("fixed point of a regime model has residual above tol")
    t_k1_at_old = apply_mode_operator(model_k1, params, fp_k.q_star)
    t_k_at_old = apply_mode_operator(model_k, params, fp_k.q_star)
    delta_r = sup_dist(t_k1_at_old, t_k_at_old)
    bound = delta_r / (1.0 - params.gamma)
    actual_gap = sup_dist(fp_k.q_star, fp_k1.q_star)
    return RegimePerturbation(delta_r, bound, actual_gap)


def project(q: np.ndarray, partition: StatePartition) -> np.ndarray:
    """Block-averaging state aggregation; idempotent, sup-norm non-expansive.

    ``q`` is a (..., S, A) array of tables, each projected.
    """
    values = _tables(q)
    if partition.n_states != values.shape[-2]:
        raise ValueError(
            f"partition over {partition.n_states} states but Q has {values.shape[-2]}"
        )
    return _project(values, partition)


def _project(values: np.ndarray, partition: StatePartition) -> np.ndarray:
    """Block means of a (..., S, A) array of tables, each state taking its block's mean."""
    order, starts, sizes, block_of = partition._block_index
    means = np.add.reduceat(values[..., order, :], starts, axis=-2) / sizes[:, None]
    return means[..., block_of, :]


def projection_error(q_star: np.ndarray, partition: StatePartition) -> float:
    """Aggregation error at a fixed point: sup_dist(project(Q*), Q*)."""
    return sup_dist(project(q_star, partition), q_star)


def add_bounded_noise(q: np.ndarray, sigma: float, rng_seed) -> np.ndarray:
    """``q`` plus entrywise uniform noise in [-sigma, sigma), deterministic per seed.

    Bounded (not Gaussian) noise matches the per-step hypothesis of the
    stochastic tracking bound. ``q`` is a (..., S, A) array of tables; at
    sigma 0 it is returned itself. The noise is
    uniform(-sigma, sigma)'s arithmetic, -sigma + 2 sigma u, in place.
    """
    sigma = _real(sigma, "sigma", _NOISE_WIDTH)
    return _noise(_tables(q), sigma, rng_seed)


def _noise(values: np.ndarray, sigma: float, rng_seed) -> np.ndarray:
    """``values`` plus noise uniform in [-sigma, sigma), as a new array; at sigma 0, ``values``."""
    if sigma == 0.0:
        return values
    noise = np.random.default_rng(rng_seed).random(values.shape)
    noise *= 2.0 * sigma
    noise -= sigma
    noise += values
    return noise


def apply_mixture_via_shared(
    models: Sequence[ModeModel],
    belief: np.ndarray,
    params: OperatorParams,
    q: np.ndarray,
) -> np.ndarray:
    """Mixture backup routed through a shared (mode, state, action) table.

    Independent reference for :func:`apply_mixture_operator`: each regime's
    backup is computed on its own with a per-(s, a) kernel contraction,
    stored in a shared table, and contracted with the belief weights
    afterwards. The two paths agree to floating-point round-off. ``q`` is
    one (S, A) table.
    """
    weights = _belief_weights(belief)
    if len(models) != weights.size:
        raise ValueError(f"{len(models)} models but {weights.size} belief weights")
    values = _tables(q, models)
    if values.ndim != 2:
        raise ValueError(f"Q must be one (S, A) table, got shape {values.shape}")
    v = values.max(axis=-1)
    per_mode = [
        m.reward + params.gamma * (m.kernel @ v - params.lambda_epi * m.gamma_epi - params.kappa)
        for m in models
    ]
    return np.tensordot(weights, np.stack(per_mode), axes=1)


def error_floor(eps_proj: float, sigma: float, gamma: float) -> float:
    """Irreducible steady-state error (eps_proj + sigma) / (1 - gamma).

    ``eps_proj`` and ``sigma`` are finite and >= 0; ``gamma`` lies in [0, 1).
    """
    eps_proj, sigma = _real(eps_proj, "eps_proj", _NON_NEGATIVE), _real(sigma, "sigma", _NON_NEGATIVE)
    gamma = _real(gamma, "gamma", _DISCOUNT)
    return (eps_proj + sigma) / (1.0 - gamma)
