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

Also provides the joint (run-length x regime-cluster) belief with its
marginals, a streaming k-means cluster state for regime discovery, and the
posterior-ratio detection-delay calculus.

Belief updates are pure: they return new belief objects. A detector's
state must be owned by a single logical thread; independent detectors may
run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import _frozen_array, check_simplex

__all__ = [
    "BOCDParams",
    "RunLengthBelief",
    "JointBelief",
    "ClusterState",
    "DegenerateBeliefError",
    "likelihood",
    "likelihood_vector",
    "bocd_step",
    "expected_run_length",
    "belief_entropy",
    "bayes_update",
    "posterior_ratio",
    "detection_delay",
    "cluster_assign",
    "joint_step",
    "belief_to_json",
]

# Unnormalized posterior entries below this are flushed to exact zero; if the
# whole vector lands at/below it the update is degenerate and raises instead
# of silently renormalizing round-off.
NORMALIZER_FLOOR = 1e-300


class DegenerateBeliefError(RuntimeError):
    """All posterior mass vanished: the surprise is beyond numerical support."""


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

    def __post_init__(self):
        if self.h_max < 2:
            raise ValueError(f"h_max must be >= 2, got {self.h_max}")
        if not 0.0 < self.hazard < 1.0:
            raise ValueError(f"hazard must lie in (0, 1), got {self.hazard}")
        if self.sigma0_sq <= 0.0:
            raise ValueError(f"sigma0_sq must be > 0, got {self.sigma0_sq}")
        if self.sigma_g < 0.0:
            raise ValueError(f"sigma_g must be >= 0, got {self.sigma_g}")


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

    @property
    def h_max(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, h_max: int) -> "RunLengthBelief":
        return cls(np.full(h_max, 1.0 / h_max))

    @classmethod
    def point_mass(cls, h: int, h_max: int) -> "RunLengthBelief":
        p = np.zeros(h_max)
        p[h] = 1.0
        return cls(p)


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

    @property
    def h_max(self) -> int:
        return self.probs.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.probs.shape[1]

    def run_length_marginal(self) -> np.ndarray:
        """rho(h) = sum_z b(h, z)."""
        return self.probs.sum(axis=1)

    def cluster_marginal(self) -> np.ndarray:
        """mu(z) = sum_h b(h, z)."""
        return self.probs.sum(axis=0)

    @classmethod
    def uniform(cls, h_max: int, n_clusters: int) -> "JointBelief":
        return cls(np.full((h_max, n_clusters), 1.0 / (h_max * n_clusters)))


@dataclass(frozen=True)
class ClusterState:
    """Streaming k-means state: centroids and per-cluster counts."""

    centroids: np.ndarray  # (n_clusters, signal_dim)
    counts: np.ndarray     # (n_clusters,) int

    def __post_init__(self):
        c = _frozen_array(self.centroids)
        n = _frozen_array(self.counts, dtype=int)
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "counts", n)
        if c.ndim != 2:
            raise ValueError(f"centroids must be 2-d, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("centroids contain non-finite entries")
        if n.shape != (c.shape[0],):
            raise ValueError(f"counts shape {n.shape} does not match {c.shape[0]} clusters")
        if (n < 0).any():
            raise ValueError("counts must be >= 0")

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.centroids.shape[1]

    @classmethod
    def empty(cls, n_clusters: int, signal_dim: int) -> "ClusterState":
        return cls(np.zeros((n_clusters, signal_dim)), np.zeros(n_clusters, dtype=int))


def likelihood(xi: float, h: int, params: BOCDParams) -> float:
    """Gaussian density of surprise ``xi`` at run-length ``h``.

    Variance sigma0_sq + sigma_g * h: long run-lengths tolerate larger
    fluctuations.
    """
    if not 0 <= h < params.h_max:
        raise ValueError(f"run-length {h} outside 0..{params.h_max - 1}")
    var = params.sigma0_sq + params.sigma_g * h
    return float(math.exp(-(xi * xi) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var))


def likelihood_vector(xi: float, params: BOCDParams) -> np.ndarray:
    """Vector of likelihood(xi, h) over all run-length bins."""
    var = params.sigma0_sq + params.sigma_g * np.arange(params.h_max)
    return np.exp(-(xi * xi) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _normalize(unnormalized: np.ndarray, what: str) -> np.ndarray:
    u = np.where(unnormalized < NORMALIZER_FLOOR, 0.0, unnormalized)
    z = float(u.sum())
    if z <= 0.0:
        raise DegenerateBeliefError(
            f"{what}: normalizer vanished (all messages below {NORMALIZER_FLOOR:g}); "
            "surprise is numerically unsupportable at every run-length"
        )
    return u / z


def _run_length_recursion(
    probs: np.ndarray, xi: float, params: BOCDParams
) -> tuple[np.ndarray, float]:
    """Growth/truncation recursion on each column of ``probs`` (h_max, n_columns).

    Growth moves likelihood-weighted mass one bin up at rate (1 - hazard);
    the top bin absorbs what would overflow the truncation; bin 0 is left
    zero for the caller. Also returns the pooled change-point mass
    hazard * sum(probs * lik).
    """
    lik = likelihood_vector(xi, params)
    growth = probs * lik[:, None] * (1.0 - params.hazard)
    u = np.zeros(probs.shape)
    u[1:] = growth[:-1]
    u[-1] += growth[-1]
    return u, params.hazard * sum(np.dot(lik, probs).tolist())


def bocd_step(belief: RunLengthBelief, xi: float, params: BOCDParams) -> RunLengthBelief:
    """One posterior update for surprise ``xi``.

    The growth/truncation recursion on the single run-length column, with
    the change-point message collected into bin 0. Raises
    :class:`DegenerateBeliefError` if every message underflows.
    """
    if belief.h_max != params.h_max:
        raise ValueError(f"belief has h_max={belief.h_max} but params expect {params.h_max}")
    u, cp = _run_length_recursion(belief.probs[:, None], xi, params)
    u[0] = cp
    return RunLengthBelief(_normalize(u[:, 0], "run-length update"))


def expected_run_length(belief: RunLengthBelief) -> float:
    """Posterior mean run-length sum_h h * rho(h)."""
    return float(np.dot(np.arange(belief.h_max), belief.probs))


def belief_entropy(belief: RunLengthBelief) -> float:
    """Shannon entropy -sum rho log rho (nats), with 0 log 0 = 0."""
    p = belief.probs
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


def bayes_update(belief: RunLengthBelief, lik: np.ndarray) -> RunLengthBelief:
    """Plain Bayes rule rho'(h) = rho(h) L(h) / Z for a given likelihood vector."""
    lik = np.asarray(lik, dtype=float)
    if lik.shape != belief.probs.shape:
        raise ValueError(f"likelihood shape {lik.shape} does not match belief {belief.probs.shape}")
    if (lik < 0.0).any() or not np.isfinite(lik).all():
        raise ValueError("likelihood vector must be finite and non-negative")
    return RunLengthBelief(_normalize(belief.probs * lik, "Bayes update"))


def posterior_ratio(n: int, likelihood_ratio: float, prior_ratio: float) -> float:
    """Posterior odds for the new regime after n steps of L-separable evidence.

    PR(n) = likelihood_ratio**(2n) / prior_ratio: each consistent step gains
    a factor L for the correct run-length hypothesis and costs the stale one
    a factor L.
    """
    if likelihood_ratio <= 1.0:
        raise ValueError(f"likelihood ratio must be > 1, got {likelihood_ratio}")
    if prior_ratio <= 0.0:
        raise ValueError(f"prior ratio must be > 0, got {prior_ratio}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return likelihood_ratio ** (2 * n) / prior_ratio


def detection_delay(likelihood_ratio: float, prior_ratio: float, delta: float) -> float:
    """Steps needed for the posterior ratio to reach confidence 1/delta.

    Returns log(prior_ratio / delta) / (2 log likelihood_ratio); the minimal
    integer step count is its ceiling.
    """
    if likelihood_ratio <= 1.0:
        raise ValueError(f"likelihood ratio must be > 1, got {likelihood_ratio}")
    if prior_ratio <= 0.0:
        raise ValueError(f"prior ratio must be > 0, got {prior_ratio}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.log(prior_ratio / delta) / (2.0 * math.log(likelihood_ratio))


def cluster_assign(signal: np.ndarray, clusters: ClusterState) -> tuple[int, ClusterState]:
    """Assign a signal to its nearest centroid and update that centroid.

    Euclidean nearest, ties to the lowest index; the winning centroid moves
    by an incremental mean (a zero-count centroid jumps to the signal).
    """
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (clusters.signal_dim,):
        raise ValueError(
            f"signal shape {signal.shape} does not match centroid dim {clusters.signal_dim}"
        )
    dists = np.linalg.norm(clusters.centroids - signal, axis=1)
    idx = int(np.argmin(dists))
    centroids = clusters.centroids.copy()
    counts = clusters.counts.copy()
    n = counts[idx]
    centroids[idx] = centroids[idx] + (signal - centroids[idx]) / (n + 1)
    counts[idx] = n + 1
    return idx, ClusterState(centroids, counts)


def joint_step(
    joint: JointBelief,
    xi: float,
    z_now: int,
    params: BOCDParams,
    stickiness: float = 0.6,
) -> JointBelief:
    """One joint (run-length, cluster) posterior update.

    Each cluster column undergoes the same growth/truncation recursion as
    :func:`bocd_step`; the pooled change-point mass is re-injected at
    run-length 0 with weight ``stickiness`` on the currently observed
    cluster ``z_now`` and the remainder spread uniformly over the other
    clusters. The marginal recursion (and, for a single cluster, the exact
    arithmetic) matches :func:`bocd_step`.
    """
    if joint.h_max != params.h_max:
        raise ValueError(f"joint belief has h_max={joint.h_max} but params expect {params.h_max}")
    if not 0 <= z_now < joint.n_clusters:
        raise ValueError(f"cluster index {z_now} outside 0..{joint.n_clusters - 1}")
    if not 0.0 < stickiness <= 1.0:
        raise ValueError(f"stickiness must lie in (0, 1], got {stickiness}")
    u, cp_total = _run_length_recursion(joint.probs, xi, params)
    n_z = joint.n_clusters
    if n_z == 1:
        u[0, 0] = cp_total
    else:
        u[0, :] = cp_total * (1.0 - stickiness) / (n_z - 1)
        u[0, z_now] = cp_total * stickiness
    return JointBelief(_normalize(u, "joint update"))


def belief_to_json(belief: RunLengthBelief, step_index: int) -> dict:
    """Snapshot a run-length belief for trace logging."""
    return {
        "probs": [float(p) for p in belief.probs],
        "h_max": belief.h_max,
        "step_index": int(step_index),
    }
