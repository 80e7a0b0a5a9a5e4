"""Runtime certification of every operator, detector, and budget guarantee.

Each suite exercises one guaranteed property with fixed seeds and reports
the worst violation it observed against the property's tolerance. The
suites double as the acceptance gate: the same functions run under pytest
at the stated sizes.

``run_certification`` optionally injects one of three known bugs
(``MUTATIONS``) to prove the gate actually bites:

  unnormalized_belief: mixture weights scaled to sum 0.9 -> the
      discounting identity drifts by gamma*|c|*0.1 and the Blackwell
      suite must fail.
  unfrozen_belief: the regime belief tracks the value estimate: each
      instance's first regime is backed up by ``apply_coupled_operator``
      (sensitivity 0.001, gap 50), whose factor gamma + 0.05 exceeds the
      discount -> the contraction certificate must fail, in its exact
      factor and in its sample through the real kernel.
  unclipped_surprise: the real surprise fusion runs with its clip
      ceiling lifted to infinity -> the boundedness check in the safety
      suite must fail.

The contraction certificate rests on the exact frozen-belief factor;
sampled Lipschitz pairs through the real backup kernel stay as a
cross-check that the kernel computes the operator the formula describes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

import numpy as np

from .. import operators
from ..adaptive import AdaptiveState, SurpriseWeights, beta_eff, surprise
from ..bocd import (
    BOCDParams,
    bayes_update,
    bocd_step,
    detection_delay,
)
from ..context import (
    EMBEDDING_EPS,
    ContextLossConfig,
    context_loss,
    diversity_loss,
    encode,
    fit_linear_context,
    mode_means,
)
from ..mdp import (
    ModeModel,
    OperatorParams,
    _draw_mode_tables,
    check_simplex,
    make_random_mode,
    sup_dist,
)
from ..operators import (
    _project,
    DIVERGENCE_CAP,
    StatePartition,
    apply_coupled_operator,
    apply_mixture_operator,
    apply_mixture_via_shared,
    add_bounded_noise,
    apply_mode_operator,
    error_floor,
    estimate_lipschitz,
    mixture_backup,
    mode_fixed_point,
    projection_error,
    regime_perturbation,
    solve_fixed_point,
)
from .config import config_from_dict
from .experiment import run_piecewise
from .io import trace_to_csv_text
from .sweeps import empirical_detection_delay, run_delay_table, run_threshold_sweep

__all__ = [
    "SuiteResult",
    "CertificationReport",
    "MUTATIONS",
    "SUITES",
    "run_certification",
    "report_to_json",
]

MUTATIONS = ("unnormalized_belief", "unfrozen_belief", "unclipped_surprise")

# (sensitivity, gap) of the breaking coupling: factor gamma + 0.05, used by
# ``unfrozen_belief`` and by suite 3's breaking instance
BREAKING_COUPLING = (0.001, 50.0)


@dataclass(frozen=True)
class SuiteResult:
    """One suite's worst violation against its tolerance; the verdict derives from them."""

    name: str
    tested_instances: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


@dataclass(frozen=True)
class CertificationReport:
    seed: int
    mutation: str | None
    suites: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.suites)


def _gated(max_violation: float, *checks: bool) -> float:
    """``max_violation`` if every pass/fail check holds, else inf (the suite fails)."""
    return max_violation if all(checks) else math.inf


def _envelope(e_anchor: float, increments: np.ndarray, gamma: float) -> np.ndarray:
    """Bounds B_1..B_n of B_t = gamma * B_{t-1} + b_t from B_0 = e_anchor: the error
    envelope of a gamma-contraction whose step t adds at most b_t."""
    steps = accumulate(increments, lambda bound, b: gamma * bound + b, initial=e_anchor)
    return np.fromiter(steps, float, len(increments) + 1)[1:]


def _random_models(rng, n_modes, n_states, n_actions):
    return [
        make_random_mode(int(rng.integers(0, 2**31)), n_states, n_actions)
        for _ in range(n_modes)
    ]


def _random_beliefs(rng, n_modes, n) -> np.ndarray:
    """(n, n_modes) flat-Dirichlet beliefs, renormalized and checked on the simplex."""
    beliefs = rng.dirichlet(np.ones(n_modes), n)
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    check_simplex(beliefs, "belief", batched=True)
    return beliefs


def _random_partition(rng, n_states) -> StatePartition:
    order = rng.permutation(n_states)
    blocks, i = [], 0
    while i < n_states:
        size = int(rng.integers(1, n_states - i + 1))
        blocks.append(tuple(int(s) for s in order[i : i + size]))
        i += size
    return StatePartition(n_states, tuple(blocks))


# --- suite 1: frozen-belief mixture is a gamma-contraction (exact factor) ---

def _contraction_factors(
    models, beliefs: np.ndarray, params: OperatorParams, probe_seed: int, mutation: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact and sampled sup-norm Lipschitz factors of the backup under each belief row.

    Under a frozen belief w the mixture backup is Lipschitz with factor
    gamma * max_{s,a} sum_t |sum_m w_m P_m(t|s,a)|, which a uniform shift
    attains; one einsum gives it for every row of the (n, M) ``beliefs``.
    The sampled factors come from one set of ``estimate_lipschitz`` probes,
    backed up once per regime through the real kernel and mixed with each
    row. Under ``unfrozen_belief`` the belief tracks Q instead: the first
    regime is backed up through the value-coupled operator, so both factors
    are that operator's, gamma + sensitivity * gap, for every row.
    """
    n_beliefs = len(beliefs)
    if mutation == "unfrozen_belief":
        sensitivity, gap = BREAKING_COUPLING
        coupled = lambda probes: apply_coupled_operator(models[0], params, sensitivity, gap, probes)
        sampled = estimate_lipschitz(coupled, models[0].reward.shape, n_pairs=4, seed=probe_seed)
        return np.full(n_beliefs, params.gamma + sensitivity * gap), np.full(n_beliefs, sampled)
    kernels = np.stack([m.kernel for m in models])
    mixed = np.einsum("bm,msat->bsat", beliefs, kernels)
    exact = params.gamma * np.abs(mixed, out=mixed).sum(axis=-1).max(axis=(-2, -1))

    regimes = operators._Regime(
        np.stack([m.reward for m in models]), kernels, np.stack([m.gamma_epi for m in models])
    )

    def per_belief(probes: np.ndarray) -> np.ndarray:
        # the M regimes as instances, each backing up every probe
        stacked = np.broadcast_to(probes, (len(models),) + probes.shape)
        per_regime = operators._backup((regimes,), (1.0,), params, stacked)
        return np.tensordot(beliefs, per_regime, axes=1)

    sampled = estimate_lipschitz(per_belief, models[0].reward.shape, n_pairs=4, seed=probe_seed)
    return exact, sampled


def suite_contraction_certificate(seed: int, mutation: str | None = None) -> SuiteResult:
    """Each (model set, belief) instance: exact factor <= gamma, sample <= exact factor."""
    gammas = (0.5, 0.9, 0.99)
    n_sets, n_beliefs = 50, 50
    tol = 1e-10
    rng = np.random.default_rng((seed, 101))
    max_violation = -math.inf
    tested = 0
    for gamma in gammas:
        params = OperatorParams(gamma=gamma, lambda_epi=0.01, kappa=0.1)
        for _ in range(n_sets):
            n_states = int(rng.integers(2, 9))
            n_actions = int(rng.integers(1, 5))
            n_modes = int(rng.integers(1, 6))
            models = _random_models(rng, n_modes, n_states, n_actions)
            beliefs = _random_beliefs(rng, n_modes, n_beliefs)
            probe_seed = int(rng.integers(0, 2**31))
            exact, sampled = _contraction_factors(models, beliefs, params, probe_seed, mutation)
            max_violation = max(
                max_violation, float(np.max(exact - gamma)), float(np.max(sampled - exact))
            )
            tested += n_beliefs
    return SuiteResult("contraction_certificate", tested, max_violation, tol)


# --- suite 2: Blackwell identities plus the unnormalized-weights negative test ---

def suite_blackwell_identities(seed: int, mutation: str | None = None) -> SuiteResult:
    """Monotonicity and discounting of the mixture backup on random instances.

    The instances' shapes and parameters are drawn as arrays, then each
    (S, A, M) group's tables and beliefs in one block. The suite owns those
    arrays, so it steps the kernel behind ``mixture_backup`` directly: one
    ``_backup`` call per group backs up every instance's stack
    [q1, q2 >= q1, q1 + c] under its own regimes, belief and coefficients.
    """
    tol = 1e-12
    n_instances = 1000
    rng = np.random.default_rng((seed, 102))
    scale = 0.9 if mutation == "unnormalized_belief" else 1.0
    shapes = np.column_stack([
        rng.integers(2, 7, n_instances),  # n_states
        rng.integers(1, 4, n_instances),  # n_actions
        rng.integers(1, 5, n_instances),  # n_modes
    ])
    gammas = rng.uniform(0.0, 0.99, n_instances)
    lambda_epis = rng.uniform(0.0, 0.1, n_instances)
    kappas = rng.uniform(0.0, 0.5, n_instances)
    shifts = rng.uniform(-5.0, 5.0, n_instances)
    max_violation = 0.0
    # sorted(set(...)) is np.unique's ascending order, without the numpy.ma import it makes
    for n_states, n_actions, n_modes in sorted(set(map(tuple, shapes.tolist()))):
        members = np.flatnonzero((shapes == (n_states, n_actions, n_modes)).all(axis=1))
        k = members.size
        rewards, kernels, penalties = _draw_mode_tables(rng, (k, n_modes), n_states, n_actions)
        beliefs = _random_beliefs(rng, n_modes, k)
        q1 = rng.uniform(-5.0, 5.0, (k, n_states, n_actions))
        q2 = q1 + rng.uniform(0.0, 3.0, (k, n_states, n_actions))
        gamma, c = gammas[members], shifts[members]
        regimes = [
            operators._Regime(rewards[:, m], kernels[:, m], penalties[:, m]) for m in range(n_modes)
        ]
        coefficients = operators._Coefficients(gamma, lambda_epis[members], kappas[members])
        stack = np.stack([q1, q2, q1 + c[:, None, None]], axis=1)
        images = operators._backup(regimes, (beliefs * scale).T, coefficients, stack)
        t1, t2, tc = images[:, 0], images[:, 1], images[:, 2]
        mono_violation = float(np.max(t1 - t2))
        disc_violation = float(np.max(np.abs(tc - (t1 + (gamma * c)[:, None, None]))))
        max_violation = max(max_violation, mono_violation, disc_violation)
    # negative test: scaling the weights to sum 0.9 must break discounting
    neg_rng = np.random.default_rng((seed, 1021))
    models = _random_models(neg_rng, 3, 4, 2)
    params = OperatorParams(gamma=0.9)
    weights = _random_beliefs(neg_rng, 3, 1)[0] * 0.9
    q = neg_rng.uniform(-5.0, 5.0, (4, 2))
    base = mixture_backup(models, weights, params, q)
    shifted = mixture_backup(models, weights, params, q + 1.0)
    neg_deviation = float(np.max(np.abs(shifted - (base + 0.9))))
    max_violation = _gated(max_violation, neg_deviation > 1e-6)
    return SuiteResult("blackwell_identities", n_instances + 1, max_violation, tol)


# --- suite 3: sharp contraction threshold of the value-coupled operator ---

def suite_sharp_threshold(seed: int, mutation: str | None = None) -> SuiteResult:
    """The value-coupled backup's factor gamma + sensitivity * gap, on tables.

    Each instance backs up a table q1, its uniform shift and a random table:
    the shift moves the image by exactly the factor times its distance, the
    random table by no more. The suite owns its arrays, so it calls the
    kernel ``operators._coupled`` directly: once per (S, A) group, with each
    instance's regime, gamma, sensitivity and gap, and per breaking-run step.
    """
    tol = 1e-12
    n_pairs = 500
    rng = np.random.default_rng((seed, 103))
    shapes = np.column_stack([rng.integers(1, 7, n_pairs), rng.integers(1, 4, n_pairs)])
    # (gamma, sensitivity, gap) per instance
    draws = rng.uniform((0.0, 0.0, 0.0), (0.99, 0.1, 60.0), (n_pairs, 3))
    # well-separated shifts: the exactness claim is about the update ratio
    shifts = rng.choice([-1.0, 1.0], n_pairs) * rng.uniform(0.5, 10.0, n_pairs)
    max_violation = 0.0
    # sorted(set(...)) is np.unique's ascending order, without the numpy.ma import it makes
    for n_states, n_actions in sorted(set(map(tuple, shapes.tolist()))):
        members = np.flatnonzero((shapes == (n_states, n_actions)).all(axis=1))
        regime = operators._Regime(*_draw_mode_tables(rng, members.shape, n_states, n_actions))
        # per instance: q1, its uniform shift, and a random table q2
        tables = rng.uniform(-10.0, 10.0, (members.size, 3, n_states, n_actions))
        tables[:, 1] = tables[:, 0] + shifts[members, None, None]
        gamma, sensitivity, gap = draws[members].T
        coefficients = operators._Coefficients(gamma, lambda_epi=0.01, kappa=0.1)
        images = operators._coupled(regime, coefficients, sensitivity, gap, tables)
        image_dist = np.abs(images[:, 1:] - images[:, :1]).max(axis=(2, 3))
        dist = np.abs(tables[:, 1:] - tables[:, :1]).max(axis=(2, 3))
        # dist(T q, T q1) - factor * dist(q, q1), for the shift and for q2
        excess = image_dist - (gamma + sensitivity * gap)[:, None] * dist
        max_violation = max(max_violation, float(np.abs(excess[:, 0]).max()), float(excess[:, 1].max()))
    # the documented breaking instance: tiny coupling, large reward gap, factor 1.04
    model = make_random_mode(int(rng.integers(0, 2**31)), 4, 2)
    params = OperatorParams(gamma=0.99, lambda_epi=0.01, kappa=0.1)
    breaking = lambda q: operators._coupled(model, params, *BREAKING_COUPLING, q)
    factor_ok = abs(estimate_lipschitz(breaking, (4, 2), n_pairs=4, seed=seed) - 1.04) <= 1e-12
    run = solve_fixed_point(breaking, np.zeros((4, 2)))
    diverges = not run.converged and run.final_residual > DIVERGENCE_CAP
    sweep = run_threshold_sweep(np.linspace(0.0, 0.98, 50), np.linspace(0.0, 0.5, 50))
    max_violation = _gated(max_violation, factor_ok, diverges, sweep.matches_analytic())
    return SuiteResult("sharp_threshold", n_pairs + 2501, max_violation, tol)


# --- suite 4: detection-delay table and minimality of the ceiling ---

def suite_detection_delay_table(seed: int, mutation: str | None = None) -> SuiteResult:
    tol = 0.1
    expected = {
        "strong_separability": 0.9,
        "moderate_separability": 2.2,
        "weak_separability": 8.2,
        "adversarial_prior": 3.8,
    }
    rows = run_delay_table()
    max_violation = max(abs(row["n_delta"] - expected[row["scenario"]]) for row in rows)
    empirical_ok = all(abs(row["empirical_delay"] - row["n_ceil"]) <= 1 for row in rows)
    minimal_ok = True
    tested = len(rows)
    for lr in (1.2, 2.0, 5.0):
        for r0 in (1.0, 10.0):
            for delta in (0.05, 0.01):
                if empirical_detection_delay(lr, r0, delta) != math.ceil(detection_delay(lr, r0, delta)):
                    minimal_ok = False
                tested += 1
    max_violation = _gated(max_violation, empirical_ok, minimal_ok)
    return SuiteResult("detection_delay_table", tested, max_violation, tol)


# --- suite 5: belief updates preserve the simplex and match a dense reference ---

# Cases are drawn and updated in blocks of at most this many, so the batch
# arrays stay small next to the rest of the process.
_SIMPLEX_BLOCK = 256


def _blocks(n_cases: int):
    """Sizes of consecutive blocks of at most _SIMPLEX_BLOCK covering n_cases."""
    for start in range(0, n_cases, _SIMPLEX_BLOCK):
        yield min(_SIMPLEX_BLOCK, n_cases - start)


def _simplex_violation(probs: np.ndarray) -> float:
    """Worst departure from the simplex over a (B, h) batch."""
    return max(float(np.abs(probs.sum(axis=1) - 1.0).max()), max(0.0, -float(probs.min())))


# The dense reference builds its (cases, h, h) matrices for at most this many
# cases at a time (205 KB at h = 20); each case's result does not depend on it.
_DENSE_CHUNK = 64


def _dense_filter(probs: np.ndarray, xi: np.ndarray, params: BOCDParams) -> np.ndarray:
    """Independent reference for ``bocd_step`` on a (B, h) batch: each case's
    Adams-MacKay update as an explicit (h, h) transition matrix (hazard row 0,
    growth below the diagonal, the absorbing top bin) times the Gaussian
    density written out, applied to the prior and normalized."""
    h = params.h_max
    var = params.sigma0_sq + params.sigma_g * np.arange(h)
    lik = np.exp(-xi[:, None] ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    below = np.arange(1, h)
    unnormalized = np.empty_like(probs)
    for start in range(0, len(probs), _DENSE_CHUNK):
        part = slice(start, start + _DENSE_CHUNK)
        chunk = lik[part]
        matrix = np.zeros((len(chunk), h, h))
        matrix[:, 0, :] = params.hazard * chunk
        matrix[:, below, below - 1] = (1.0 - params.hazard) * chunk[:, :-1]
        matrix[:, -1, -1] += (1.0 - params.hazard) * chunk[:, -1]
        unnormalized[part] = np.einsum("bij,bj->bi", matrix, probs[part])
    return unnormalized / unnormalized.sum(axis=1, keepdims=True)


def suite_simplex_preservation(seed: int, mutation: str | None = None) -> SuiteResult:
    """Run-length and Bayes updates stay on the simplex; the dense-checked
    run-length cases also match ``_dense_filter``."""
    tol = 1e-12
    n_total = 100_000
    rng = np.random.default_rng((seed, 105))
    params = BOCDParams()
    h = params.h_max
    n_bocd = int(n_total * 0.4)
    n_dense = int(n_total * 0.3)
    n_bayes = n_total - n_bocd - n_dense
    max_violation = 0.0
    for n_cases, dense in ((n_bocd, False), (n_dense, True)):
        for n in _blocks(n_cases):
            probs = rng.dirichlet(np.ones(h), n)
            xi = rng.uniform(-8.0, 8.0, n)
            out = bocd_step(probs, xi, params)
            max_violation = max(max_violation, _simplex_violation(out))
            if dense:
                deviation = float(np.abs(out - _dense_filter(probs, xi, params)).max())
                max_violation = max(max_violation, deviation)
    for n in _blocks(n_bayes):
        probs = rng.dirichlet(np.ones(h), n)
        out = bayes_update(probs, rng.uniform(0.0, 1.0, (n, h)))
        max_violation = max(max_violation, _simplex_violation(out))
    return SuiteResult("simplex_preservation", n_total, max_violation, tol)


# --- suite 6: adaptive chain is safe by construction ---

def suite_safety_monotonicity(seed: int, mutation: str | None = None) -> SuiteResult:
    tol = 0.0
    lams = np.linspace(0.0, 5.0, 100)
    cs = np.linspace(0.0, 5.0, 100)
    max_violation = 0.0
    tested = 0
    for c in cs:
        state = AdaptiveState(beta_base=-2.0, c_penalty=float(c))
        prev = None
        for lam in lams:
            b = beta_eff(state, float(lam))
            max_violation = max(max_violation, b - state.beta_base)
            if prev is not None:
                max_violation = max(max_violation, b - prev)
            prev = b
            tested += 1
    weights = SurpriseWeights()
    # the mutation lifts the clip to the largest double; the bound is still checked against weights.clip_max
    fused_weights = replace(weights, clip_max=np.finfo(float).max) if mutation == "unclipped_surprise" else weights
    rng = np.random.default_rng((seed, 106))
    for _ in range(500):
        z = float(rng.uniform(-100.0, 100.0))
        q = float(rng.uniform(0.0, 100.0))
        k = float(rng.uniform(0.0, 100.0))
        value = surprise(z, q, k, fused_weights)
        max_violation = max(max_violation, value - weights.clip_max, -value)
        # monotone in each channel magnitude
        bigger = surprise(z * 2.0, q * 2.0, k * 2.0, fused_weights)
        max_violation = max(max_violation, value - bigger)
        tested += 2
    # below the clip, raising one channel alone strictly raises the fused surprise
    readings = np.random.default_rng((seed, 1061)).uniform(0.0, 5.0, (100, 3))
    rising = all(
        surprise(*(reading + step), fused_weights) > surprise(*reading, fused_weights)
        for reading in readings
        for step in np.eye(3)
    )
    max_violation = _gated(max_violation, rising)
    tested += readings.size
    return SuiteResult("safety_monotonicity", tested, max_violation, tol)


# --- suite 7: projected/noisy iteration obeys the combined error budget ---

def _action_pad(n_actions_table: int, n_actions: int) -> np.ndarray:
    """Action indices that widen a table of ``n_actions_table`` actions to ``n_actions``
    by repeating action 0."""
    index = np.arange(n_actions)
    return np.where(index < n_actions_table, index, 0)


def suite_error_budget(seed: int, mutation: str | None = None) -> SuiteResult:
    """Projected, noisy iteration stays under B_n = gamma * B_{n-1} + eps_proj + sigma
    from B_0 = e_0, and its last step within 1.05 times the floor. The tight
    witness, unprojected from Q* with +sigma at every step, meets B_n with b = sigma.
    The envelope's premises are checked too: every noise entry lies within sigma,
    and on the run's iterates the projection commutes with a shift, Pi(q + 1) =
    Pi(q) + 1, and is idempotent, Pi(Pi(q)) = Pi(q).

    All configs are drawn first; the iteration draws nothing from ``rng``. The
    configs that share S then run in lockstep: each step is one ``_backup``,
    one ``_project`` and one add for the whole group. Actions are padded to the
    group's largest A by copying action 0 (reward, kernel rows, penalty, start,
    noise and Q*), which changes neither V nor any sup-norm, and the group is
    projected through one union partition over its k * S states, whose blocks
    sum in the order each config's own partition does. The checks then read
    each config's run on its own actions, as the config alone would give it.
    """
    tol = 1e-9
    n_configs, n_steps, n_witness = 20, 500, 50
    rng = np.random.default_rng((seed, 107))
    groups: dict[int, list] = {}  # n_states -> [(stream index, gamma, model, partition, sigma, q0)]
    for i in range(n_configs):
        n_states = int(rng.integers(3, 8))
        n_actions = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.8, 0.95))
        model = make_random_mode(int(rng.integers(0, 2**31)), n_states, n_actions)
        partition = _random_partition(rng, n_states)
        sigma = float(rng.uniform(0.01, 0.3))
        q0 = rng.uniform(-8.0, 8.0, (n_states, n_actions))
        groups.setdefault(n_states, []).append((i, gamma, model, partition, sigma, q0))
    max_violation = 0.0
    converged = True
    for n_states, group in groups.items():
        streams, gammas, models, partitions, sigmas, starts = zip(*group)
        fixed_points = [
            mode_fixed_point(model, OperatorParams(gamma, lambda_epi=0.01, kappa=0.1), tol=1e-12)
            for gamma, model in zip(gammas, models)
        ]
        converged = converged and all(fp.converged for fp in fixed_points)
        q_stars = [fp.q_star for fp in fixed_points]
        n_actions = max(model.n_actions for model in models)
        pads = [_action_pad(model.n_actions, n_actions) for model in models]
        regime = operators._Regime(
            np.stack([m.reward[:, pad] for m, pad in zip(models, pads)]),
            np.stack([m.kernel[:, pad] for m, pad in zip(models, pads)]),
            np.stack([m.gamma_epi[:, pad] for m, pad in zip(models, pads)]),
        )
        coefficients = operators._Coefficients(np.array(gammas), lambda_epi=0.01, kappa=0.1)
        # step n's noise waits in iterates[n] until the step is added to it
        iterates = np.empty((n_steps, len(group), n_states, n_actions))
        for j, (i, model, sigma, pad) in enumerate(zip(streams, models, sigmas, pads)):
            # one stream per config: every step's bounded noise, drawn as one block
            noise = add_bounded_noise(np.zeros((n_steps,) + model.reward.shape), sigma, (seed, 1070, i))
            max_violation = max(max_violation, float(np.abs(noise).max()) - sigma)
            iterates[:, j] = noise[..., pad]
        union = StatePartition(len(group) * n_states, tuple(
            tuple(j * n_states + s for s in block)
            for j, partition in enumerate(partitions) for block in partition.blocks
        ))
        flat = (len(group) * n_states, n_actions)
        q = np.stack([q0[:, pad] for q0, pad in zip(starts, pads)])
        for n in range(n_steps):
            # the suite owns q, so it steps the kernels behind apply_mode_operator and project
            step = _project(operators._backup((regime,), (1.0,), coefficients, q).reshape(flat), union)
            q = np.add(step.reshape(q.shape), iterates[n], out=iterates[n])
        # each config's run, on its own actions and partition
        for j, (gamma, model, partition, sigma, q0, q_star) in enumerate(
            zip(gammas, models, partitions, sigmas, starts, q_stars)
        ):
            run = iterates[:, j, :, : model.n_actions]
            errs = np.abs(run - q_star).max(axis=(1, 2))
            eps_proj = projection_error(q_star, partition)
            envelope = _envelope(np.abs(q0 - q_star).max(), np.full(n_steps, eps_proj + sigma), gamma)
            floor = error_floor(eps_proj, sigma, gamma)
            projected = _project(run, partition)
            max_violation = max(
                max_violation,
                float((errs - envelope).max()),
                float(errs[-1] - 1.05 * floor),
                float(np.abs(_project(run + 1.0, partition) - (projected + 1.0)).max()),
                float(np.abs(_project(projected, partition) - projected).max()),
            )
        q = np.stack([q_star[:, pad] for q_star, pad in zip(q_stars, pads)])
        step_sigmas = np.array(sigmas)[:, None, None]
        for n in range(n_witness):
            q = np.add(operators._backup((regime,), (1.0,), coefficients, q), step_sigmas, out=iterates[n])
        for j, (gamma, model, sigma, q_star) in enumerate(zip(gammas, models, sigmas, q_stars)):
            witness = np.abs(iterates[:n_witness, j, :, : model.n_actions] - q_star).max(axis=(1, 2))
            exact = _envelope(0.0, np.full(n_witness, sigma), gamma)
            max_violation = max(max_violation, float(np.abs(witness - exact).max()))
    max_violation = _gated(max_violation, converged)
    return SuiteResult("error_budget", n_configs * (n_steps + n_witness), max_violation, tol)


# --- suite 8: regime-switch perturbation bound and its tight witness ---

def suite_regime_perturbation(seed: int, mutation: str | None = None) -> SuiteResult:
    tol = 1e-8
    n_pairs = 100
    rng = np.random.default_rng((seed, 108))
    params = OperatorParams(gamma=0.95, lambda_epi=0.01, kappa=0.1)
    max_violation = 0.0
    for _ in range(n_pairs):
        n_states = int(rng.integers(2, 7))
        n_actions = int(rng.integers(1, 4))
        m1, m2 = _random_models(rng, 2, n_states, n_actions)
        result = regime_perturbation(m1, m2, params, tol=1e-12)
        max_violation = max(max_violation, result.actual_gap - result.bound)
    # uniform reward shifts achieve the bound exactly
    for c in (0.5, 1.0, 2.0):
        base = make_random_mode(int(rng.integers(0, 2**31)), 5, 3)
        shifted = ModeModel(base.reward + c, base.kernel, base.gamma_epi)
        result = regime_perturbation(base, shifted, params, tol=1e-12)
        exact = c / (1.0 - params.gamma)
        max_violation = max(
            max_violation,
            abs(result.actual_gap - exact),
            abs(result.bound - exact),
        )
    return SuiteResult("regime_perturbation", n_pairs + 3, max_violation, tol)


# --- suite 9: scripted three-phase run obeys switch and contraction envelopes ---

def _peaked_mode_dict(seed: int, n_states: int, n_actions: int, shift: float = 0.0, peak: float = 0.97) -> dict:
    """Explicit regime tables with near-deterministic transitions.

    Sharp kernels keep the greedy-rollout reward channel quiet inside a
    regime, so the scripted experiment's surprise traces anomalies in the
    regime itself rather than rollout sampling noise.
    """
    rng = np.random.default_rng(seed)
    reward = rng.uniform(-1.0, 1.0, (n_states, n_actions)) + shift
    targets = rng.integers(0, n_states, (n_states, n_actions))
    kernel = np.full((n_states, n_actions, n_states), (1.0 - peak) / (n_states - 1))
    for s in range(n_states):
        for a in range(n_actions):
            kernel[s, a, targets[s, a]] = peak
    kernel = kernel / kernel.sum(axis=2, keepdims=True)
    gamma_epi = rng.uniform(0.0, 0.5, (n_states, n_actions))
    return {
        "reward": reward.tolist(),
        "kernel": kernel.tolist(),
        "gamma_epi": gamma_epi.tolist(),
    }


def three_phase_config_dict(seed: int) -> dict:
    return {
        "seed": seed,
        "n_states": 6,
        "n_actions": 3,
        "modes": [
            _peaked_mode_dict(11, 6, 3),
            _peaked_mode_dict(12, 6, 3, shift=2.0),
        ],
        "schedule": [[0, 200], [1, 200], [0, 200]],
        "operator": {"gamma": 0.9, "lambda_epi": 0.01, "kappa": 0.0},
    }


def lambda_w_gates_hold(config, rows) -> bool:
    """Suite 9's lambda_w gates on one run's trace rows.

    lambda_w must read > 0 on some row from each switch through its detection
    delay, and < 0.01 on the last row of each segment (it relaxes again).
    """
    n_delta = config.detection_steps
    segments = config.schedule.bounds
    rises = all(
        any(r.lambda_w > 0.0 for r in rows[start : min(start + n_delta + 1, end)])
        for start, end, _ in segments[1:]
    )
    return rises and all(rows[end - 1].lambda_w < 0.01 for _, end, _ in segments)


def suite_piecewise_three_phase(seed: int, mutation: str | None = None) -> SuiteResult:
    """Certify the canonical three-phase experiment from one run.

    The scripted instance (modes, schedule, stream seed) is pinned, so the
    certified trace is the canonical run's. That the run reproduces
    bit-for-bit is checked elsewhere: ``suite_reproducibility`` reruns a
    short schedule, and ``tests/test_certify.py`` pins this trace's sha256
    and applies the same lambda_w gates to stream seeds 0-19. This suite
    checks the one run's lambda_w gates and envelopes: each detection window
    under the switch bound delta_r / (1 - gamma) of ``regime_perturbation``,
    then B_t = gamma * B_{t-1} from the anchor row. The surrounding fuzz
    suites take the caller's seed.
    """
    tol = 1e-9
    config = config_from_dict(three_phase_config_dict(0))
    gamma = config.operator_params.gamma
    n_delta = config.detection_steps
    trace = run_piecewise(config)

    errs = np.array([row.err for row in trace.rows])
    max_violation = 0.0
    segments = config.schedule.bounds
    for k, (seg_start, seg_end, mode) in enumerate(segments):
        anchor = seg_start
        if k > 0:
            old = config.models[segments[k - 1][2]]
            switch = regime_perturbation(old, config.models[mode], config.operator_params, tol=1e-12)
            anchor = min(seg_start + n_delta, seg_end)
            max_violation = max(max_violation, float(errs[seg_start:anchor].max()) - switch.bound)
        envelope = _envelope(errs[anchor], np.zeros(seg_end - anchor - 1), gamma)
        max_violation = max(max_violation, float((errs[anchor + 1 : seg_end] - envelope).max()))

    max_violation = _gated(max_violation, lambda_w_gates_hold(config, trace.rows))
    return SuiteResult("piecewise_three_phase", len(errs), max_violation, tol)


# --- suite 10: embedding losses behave and the linear fitter separates modes ---

def separable_context_dataset(seed: int, n_per_mode: int = 40):
    rng = np.random.default_rng((seed, 110))
    states0 = np.column_stack(
        [rng.normal(-2.0, 0.3, n_per_mode), rng.normal(0.0, 1.0, n_per_mode)]
    )
    states1 = np.column_stack(
        [rng.normal(2.0, 0.3, n_per_mode), rng.normal(0.0, 1.0, n_per_mode)]
    )
    states = np.vstack([states0, states1])
    mode_ids = np.array([0] * n_per_mode + [1] * n_per_mode)
    return states, mode_ids


def suite_context_losses(seed: int, mutation: str | None = None) -> SuiteResult:
    config = ContextLossConfig()
    tol = 1e-12
    max_violation = 0.0
    # diversity strictly decreases as two means separate
    seps = np.linspace(0.0, 3.0, 20)
    losses = [diversity_loss(np.array([[0.0, 0.0], [d, 0.0]]), config) for d in seps]
    for a, b in zip(losses, losses[1:]):
        max_violation = max(max_violation, b - a)  # must be strictly negative
    strictly_decreasing = all(b < a for a, b in zip(losses, losses[1:]))
    # identical embeddings per mode -> consistency is exactly sqrt(eps)
    vec = np.array([0.6, 0.8])
    cons = context_loss(np.stack([vec, vec, -vec, -vec]), np.array([0, 0, 1, 1]), config).consistency
    max_violation = max(max_violation, abs(cons - math.sqrt(config.eps)))
    # the linear fitter separates a separable dataset on the unit sphere
    states, mode_ids = separable_context_dataset(seed)
    weights = fit_linear_context((states, mode_ids), config, steps=150, lr=0.1, seed=seed)
    vectors = encode(weights, states)
    # each embedding row has norm |raw| / (|raw| + EMBEDDING_EPS)
    raw = np.linalg.norm(states @ weights.T, axis=1)
    norm_error = np.abs(np.linalg.norm(vectors, axis=1) - raw / (raw + EMBEDDING_EPS)).max()
    max_violation = max(max_violation, float(norm_error))
    means = mode_means(vectors, mode_ids)
    distance = float(np.linalg.norm(means[0] - means[1]))
    max_violation = _gated(max_violation, strictly_decreasing, distance >= 0.5)
    return SuiteResult("context_losses", len(seps) + 2, max_violation, tol)


# --- suite 11: shared-table and per-mode mixture paths agree ---

def suite_shared_critic_equivalence(seed: int, mutation: str | None = None) -> SuiteResult:
    tol = 1e-12
    n_instances = 100
    rng = np.random.default_rng((seed, 111))
    max_violation = 0.0
    for _ in range(n_instances):
        n_states = int(rng.integers(2, 7))
        n_actions = int(rng.integers(1, 4))
        n_modes = int(rng.integers(1, 6))
        models = _random_models(rng, n_modes, n_states, n_actions)
        belief = _random_beliefs(rng, n_modes, 1)[0]
        params = OperatorParams(
            gamma=float(rng.uniform(0.0, 0.99)),
            lambda_epi=0.01,
            kappa=float(rng.uniform(0.0, 0.5)),
        )
        q = rng.uniform(-10.0, 10.0, (n_states, n_actions))
        direct = apply_mixture_operator(models, belief, params, q)
        via_shared = apply_mixture_via_shared(models, belief, params, q)
        max_violation = max(max_violation, sup_dist(direct, via_shared))
    return SuiteResult("shared_critic_equivalence", n_instances, max_violation, tol)


# --- suite 12: certification inputs are reproducible bit-for-bit ---

def suite_reproducibility(seed: int, mutation: str | None = None) -> SuiteResult:
    tol = 0.0
    raw = three_phase_config_dict(seed)
    raw["schedule"] = [[0, 30], [1, 30]]
    config = config_from_dict(raw)
    first = trace_to_csv_text(run_piecewise(config))
    second = trace_to_csv_text(run_piecewise(config))
    tables_equal = json.dumps(run_delay_table()) == json.dumps(run_delay_table())
    rng_seed = int(np.random.default_rng((seed, 112)).integers(0, 2**31))
    model = make_random_mode(rng_seed, 4, 2)
    params = OperatorParams(gamma=0.9)
    op = lambda q: apply_mode_operator(model, params, q)
    est_equal = estimate_lipschitz(op, (4, 2), 8, rng_seed) == estimate_lipschitz(
        op, (4, 2), 8, rng_seed
    )
    max_violation = _gated(0.0, first == second, tables_equal, est_equal)
    return SuiteResult("reproducibility", 3, max_violation, tol)


SUITES = (
    suite_contraction_certificate,
    suite_blackwell_identities,
    suite_sharp_threshold,
    suite_detection_delay_table,
    suite_simplex_preservation,
    suite_safety_monotonicity,
    suite_error_budget,
    suite_regime_perturbation,
    suite_piecewise_three_phase,
    suite_context_losses,
    suite_shared_critic_equivalence,
    suite_reproducibility,
)


def run_certification(seed: int = 0, mutation: str | None = None) -> CertificationReport:
    """Run every suite with fixed seeds; deterministic given (seed, mutation)."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; choose from {MUTATIONS}")
    return CertificationReport(seed, mutation, tuple(suite(seed, mutation) for suite in SUITES))


def report_to_json(report: CertificationReport) -> str:
    payload = {
        "seed": report.seed,
        "mutation": report.mutation,
        "passed": report.passed,
        "suites": [{**asdict(r), "passed": r.passed} for r in report.suites],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
