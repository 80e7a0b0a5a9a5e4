"""Mode-aware context embeddings: consistency/diversity losses and a linear fitter.

The representation objective pulls same-regime embeddings together (mean
per-regime standard deviation) and pushes regime means apart (negative
log-determinant of an RBF kernel over the means, a determinantal-point-
process style diversity term). A deliberately minimal linear encoder
fitted by finite-difference gradient descent demonstrates that the
objective separates regimes on labeled synthetic data; it is a probe of
the loss behavior, not a performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mdp import _frozen_array

__all__ = [
    "EmbeddingBatch",
    "ContextLossConfig",
    "ContextLoss",
    "consistency_loss",
    "diversity_loss",
    "context_loss",
    "encode",
    "fit_linear_context",
]

# Central finite-difference step of the linear encoder's gradient.
FD_STEP = 1e-5


@dataclass(frozen=True)
class ContextLossConfig:
    """Loss weights and kernel parameters.

    w_cons / w_div weight the consistency and diversity terms; r_rbf is the
    kernel bandwidth; eps doubles as the variance floor inside the
    consistency term and the diagonal jitter that keeps the kernel matrix
    positive definite.
    """

    w_cons: float = 50.0
    w_div: float = 0.025
    r_rbf: float = 2.0
    eps: float = 1e-6
    d_e: int = 2

    def __post_init__(self):
        if self.w_cons < 0.0 or self.w_div < 0.0:
            raise ValueError("loss weights must be >= 0")
        if self.r_rbf <= 0.0:
            raise ValueError(f"r_rbf must be > 0, got {self.r_rbf}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.d_e < 1:
            raise ValueError(f"d_e must be >= 1, got {self.d_e}")


@dataclass(frozen=True)
class EmbeddingBatch:
    """Embedding vectors with their regime labels.

    Vectors are expected to come out of :func:`encode`, which soft-normalizes
    them; only shape and finiteness are enforced here so partially trained
    encoders (whose outputs sit inside the unit ball) can still be scored.
    """

    vectors: np.ndarray   # (n_samples, d_e)
    mode_ids: np.ndarray  # (n_samples,) int

    def __post_init__(self):
        v = _frozen_array(self.vectors)
        m = _frozen_array(self.mode_ids, dtype=int)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "mode_ids", m)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"vectors must be (n_samples, d_e), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vectors contain non-finite entries")
        if m.shape != (v.shape[0],):
            raise ValueError(f"mode_ids shape {m.shape} does not match {v.shape[0]} samples")

    def mode_means(self) -> np.ndarray:
        """Per-regime mean embeddings, ordered by ascending mode id."""
        return _mode_means(_regimes(self.vectors, self.mode_ids))


class ContextLoss(NamedTuple):
    total: float
    consistency: float
    diversity: float


# The losses are computed once, on a (K, n, d_e) stack of K embedding sets that
# share their regime labels; the public functions below are the K = 1 case.

def _regimes(vectors: np.ndarray, mode_ids: np.ndarray) -> dict:
    """{mode id: its (..., n_m, d_e) embeddings} by ascending id, as C-ordered copies.

    numpy's sum order over the sample axis follows the memory layout, so a
    fixed layout makes each set's statistics independent of the stack size.
    """
    return {
        m: np.take(vectors, np.flatnonzero(mode_ids == m), axis=-2) for m in np.unique(mode_ids)
    }


def _mode_means(regimes: dict) -> np.ndarray:
    """(..., M, d_e) per-regime mean embeddings."""
    return np.stack([group.mean(axis=-2) for group in regimes.values()], axis=-2)


def _consistency(regimes: dict, eps: float) -> np.ndarray:
    """(K,) consistency losses of (K, n_m, d_e) regimes: see :func:`consistency_loss`."""
    terms = []
    for m, group in regimes.items():
        if group.shape[1] < 2:
            raise ValueError(f"mode {m} has {group.shape[1]} sample(s); need >= 2")
        terms.append(np.sqrt(group.var(axis=1).sum(axis=1) + eps))  # population variances
    return np.stack(terms, axis=1).mean(axis=1)


def _diversity(mode_means: np.ndarray, r_rbf: float, eps: float) -> np.ndarray:
    """(K,) diversity losses of a (K, M, d_e) stack of regime means: see :func:`diversity_loss`."""
    diff = mode_means[:, :, None, :] - mode_means[:, None, :, :]
    sq = np.einsum("bijk,bijk->bij", diff, diff)
    kernel = np.exp(-r_rbf * sq) + eps * np.eye(mode_means.shape[1])
    chol = np.linalg.cholesky(kernel)
    return -(2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))


def _context_losses(
    vectors: np.ndarray, mode_ids: np.ndarray, config: ContextLossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K,) totals, consistency and diversity losses of a (K, n, d_e) stack."""
    regimes = _regimes(vectors, mode_ids)
    cons = _consistency(regimes, config.eps)
    div = _diversity(_mode_means(regimes), config.r_rbf, config.eps)
    return config.w_cons * cons + config.w_div * div, cons, div


def consistency_loss(batch: EmbeddingBatch, eps: float = 1e-6) -> float:
    """Mean per-regime embedding spread.

    Per regime, sqrt(sum of the per-dimension variances + eps), so identical
    embeddings in every group give exactly sqrt(eps). Every regime needs at
    least two samples.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return float(_consistency(_regimes(batch.vectors[None], batch.mode_ids), eps)[0])


def diversity_loss(mode_means: np.ndarray, r_rbf: float = 2.0, eps: float = 1e-6) -> float:
    """Negative log-determinant of the RBF kernel over regime means.

    K_ij = exp(-r_rbf * ||m_i - m_j||^2) + eps * 1[i == j]; the jitter keeps
    K positive definite, so the determinant is positive and the loss finite.
    Computed through a Cholesky factorization (twice the log-diagonal sum).
    Smaller values mean better-separated means.
    """
    mode_means = np.asarray(mode_means, dtype=float)
    if mode_means.ndim != 2 or mode_means.shape[0] < 1:
        raise ValueError(f"mode_means must be (M, d_e) with M >= 1, got {mode_means.shape}")
    if not np.isfinite(mode_means).all():
        raise ValueError("mode_means contain non-finite entries")
    if r_rbf <= 0.0 or eps <= 0.0:
        raise ValueError("r_rbf and eps must be > 0")
    return float(_diversity(mode_means[None], r_rbf, eps)[0])


def context_loss(batch: EmbeddingBatch, config: ContextLossConfig) -> ContextLoss:
    """Weighted combination of consistency and diversity over a batch."""
    losses = _context_losses(batch.vectors[None], batch.mode_ids, config)
    return ContextLoss(*(float(loss[0]) for loss in losses))


def encode(weights: np.ndarray, states: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Linear embeddings of ``states``, each soft-normalized as raw / (||raw|| + eps).

    ``weights`` is one (d_e, d_s) map or a (K, d_e, d_s) stack of maps, which
    gives a (K, n, d_e) stack of embedding sets. Past |raw| ~ 1e154 the
    squares overflow: a row whose norm is not finite is scaled by its
    largest magnitude first (if that is finite), so it still has unit norm.
    """
    raw = states @ np.swapaxes(weights, -1, -2)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    out = raw / (norms + eps)
    if not np.isfinite(norms.sum()):  # one sum, in place of a per-row test
        rows = np.isinf(norms[..., 0]) & np.isfinite(raw).all(axis=-1)
        scale = np.abs(raw[rows]).max(axis=-1, keepdims=True)
        scaled = raw[rows] / scale
        out[rows] = scaled / (np.linalg.norm(scaled, axis=-1, keepdims=True) + eps / scale)
    return out


def fit_linear_context(
    data: tuple[np.ndarray, np.ndarray],
    config: ContextLossConfig,
    steps: int = 200,
    lr: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Fit a linear state->embedding map by minimizing the context loss.

    Plain gradient descent with central finite-difference gradients
    (step ``FD_STEP``) on the weight matrix (d_e, state_dim). Each step
    evaluates the loss of the current weights and of all 2 * d_e * d_s
    perturbed copies as one (1 + 2 d_e d_s)-map stack. Returns the weights
    with the lowest loss observed anywhere along the descent, so the result
    is never worse than the initialization. Deterministic given ``seed``.
    Raises if the loss goes non-finite.
    """
    states, mode_ids = data
    states = np.asarray(states, dtype=float)
    mode_ids = np.asarray(mode_ids, dtype=int)
    if states.ndim != 2 or states.shape[0] != mode_ids.shape[0]:
        raise ValueError("data must be (states (n, d_s), mode_ids (n,)) with matching n")
    labels, counts = np.unique(mode_ids, return_counts=True)
    if labels.size < 2:
        raise ValueError(f"need >= 2 modes, got {labels.size}")
    if (counts < 2).any():
        small = labels[counts < 2]
        raise ValueError(f"every mode needs >= 2 samples; modes {small.tolist()} are short")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    def losses_of(w: np.ndarray) -> np.ndarray:
        values = _context_losses(encode(w, states), mode_ids, config)[0]
        if not np.isfinite(values).all():
            raise FloatingPointError(
                f"context loss became non-finite during descent (weights max "
                f"{np.abs(w).max():g})"
            )
        return values

    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, size=(config.d_e, states.shape[1]))
    n = weights.size
    entry = np.arange(n)
    best_w, best_loss = weights, np.inf
    # an overflowing step makes the loss non-finite, which losses_of reports
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step == steps:  # the last weights need their loss only
                probes = weights[None]
            else:
                # probe 0 is the weights; probes 1 + k and 1 + n + k move entry k by +/- FD_STEP
                probes = np.repeat(weights[None], 1 + 2 * n, axis=0)
                flat = probes.reshape(1 + 2 * n, n)
                flat[1 + entry, entry] += FD_STEP
                flat[1 + n + entry, entry] -= FD_STEP
            losses = losses_of(probes)
            if losses[0] < best_loss:
                best_w, best_loss = weights, losses[0]
            if step < steps:
                grad = ((losses[1 : 1 + n] - losses[1 + n :]) / (2.0 * FD_STEP)).reshape(weights.shape)
                weights = weights - lr * grad
    return best_w
