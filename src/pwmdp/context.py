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

from .mdp import _AT_LEAST_ONE, _NON_NEGATIVE, _POSITIVE, _read_fields, _real, _whole

__all__ = [
    "ContextLossConfig",
    "ContextLoss",
    "mode_means",
    "diversity_loss",
    "context_loss",
    "encode",
    "fit_linear_context",
]

# Central finite-difference step of the linear encoder's gradient.
FD_STEP = 1e-5

# encode soft-normalizes each embedding row as raw / (||raw|| + EMBEDDING_EPS).
EMBEDDING_EPS = 1e-8


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

    _RULES = {"w_cons": _NON_NEGATIVE, "w_div": _NON_NEGATIVE, "r_rbf": _POSITIVE, "eps": _POSITIVE,
              "d_e": _AT_LEAST_ONE}
    __post_init__ = _read_fields


def _labeled(values, mode_ids) -> tuple[np.ndarray, np.ndarray]:
    """Finite float (n, d) ``values``, n >= 1, and their (n,) int labels, refusing any label not whole."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError(f"labeled values must be (n, d) with n >= 1, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("labeled values contain non-finite entries")
    ids = np.asarray(mode_ids)
    if ids.shape != (values.shape[0],):
        raise ValueError(f"mode_ids shape {ids.shape} does not match {values.shape[0]} rows")
    with np.errstate(invalid="ignore"):  # NaN and out-of-range floats cast to garbage, refused below
        labels = ids.astype(int) if ids.dtype.kind in "iuf" else None
    if labels is None or not (labels == ids).all():
        bad = ids if labels is None else ids[labels != ids]
        raise ValueError(f"mode_ids must be whole numbers, got {bad[0]}")
    return values, labels


class ContextLoss(NamedTuple):
    total: float
    consistency: float
    diversity: float


# The losses are computed once, on a (K, n, d_e) stack of K embedding sets that
# share their regime labels: the fitter scores a stack of maps, context_loss one set.

def _regimes(vectors: np.ndarray, mode_ids: np.ndarray) -> dict:
    """{mode id: its (..., n_m, d_e) embeddings} by ascending id, as C-ordered copies.

    numpy's sum order over the sample axis follows the memory layout, so a
    fixed layout makes each set's statistics independent of the stack size.
    """
    # sorted(set(...)) is np.unique's ascending order, without the numpy.ma import it makes
    return {
        m: np.take(vectors, np.flatnonzero(mode_ids == m), axis=-2) for m in sorted(set(mode_ids.tolist()))
    }


def _mode_means(regimes: dict) -> np.ndarray:
    """(..., M, d_e) per-regime mean embeddings."""
    return np.stack([group.mean(axis=-2) for group in regimes.values()], axis=-2)


def _consistency(regimes: dict, eps: float) -> np.ndarray:
    """(K,) consistency losses of (K, n_m, d_e) regimes: see :func:`context_loss`."""
    terms = []
    for m, group in regimes.items():
        if group.shape[1] < 2:
            raise ValueError(f"mode {m} has {group.shape[1]} sample(s); every mode needs >= 2 samples")
        terms.append(np.sqrt(group.var(axis=1).sum(axis=1) + eps))  # population variances
    return np.stack(terms, axis=1).mean(axis=1)


def _diversity(means: np.ndarray, r_rbf: float, eps: float) -> np.ndarray:
    """(K,) diversity losses of a (K, M, d_e) stack of regime means: see :func:`diversity_loss`."""
    diff = means[:, :, None, :] - means[:, None, :, :]
    sq = np.einsum("bijk,bijk->bij", diff, diff)
    kernel = np.exp(-r_rbf * sq) + eps * np.eye(means.shape[1])
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


def mode_means(vectors: np.ndarray, mode_ids: np.ndarray) -> np.ndarray:
    """(M, d_e) per-regime mean embeddings, ordered by ascending mode id."""
    return _mode_means(_regimes(*_labeled(vectors, mode_ids)))


def diversity_loss(means: np.ndarray, config: ContextLossConfig) -> float:
    """Negative log-determinant of the RBF kernel over (M, d_e) regime means.

    K_ij = exp(-r_rbf * ||m_i - m_j||^2) + eps * 1[i == j]; the jitter keeps
    K positive definite, so the determinant is positive and the loss finite.
    Computed through a Cholesky factorization (twice the log-diagonal sum).
    Smaller values mean better-separated means.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or means.shape[0] < 1:
        raise ValueError(f"means must be (M, d_e) with M >= 1, got {means.shape}")
    if not np.isfinite(means).all():
        raise ValueError("means contain non-finite entries")
    return float(_diversity(means[None], config.r_rbf, config.eps)[0])


def context_loss(vectors: np.ndarray, mode_ids: np.ndarray, config: ContextLossConfig) -> ContextLoss:
    """Weighted consistency and diversity of (n, d_e) embeddings labeled by regime.

    Consistency is the mean per-regime spread sqrt(sum of the per-dimension
    variances + eps), so identical embeddings in every group give exactly
    sqrt(eps); every regime needs at least two samples. Diversity is
    :func:`diversity_loss` of the regime means. The embeddings need only be
    finite, so a partially trained encoder can be scored.
    """
    vectors, mode_ids = _labeled(vectors, mode_ids)
    losses = _context_losses(vectors[None], mode_ids, config)
    return ContextLoss(*(float(loss[0]) for loss in losses))


def encode(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Linear embeddings of ``states``, each soft-normalized as raw / (||raw|| + EMBEDDING_EPS).

    ``weights`` is one (d_e, d_s) map or a (K, d_e, d_s) stack of maps, which
    gives a (K, n, d_e) stack of embedding sets. ``states`` must be a finite
    (n, d_s) number array and ``weights`` a number array with that d_s; the
    weights may be non-finite, which the losses report. Past |raw| ~ 1e154
    the squares overflow: a row whose norm is not finite is scaled by its
    largest magnitude first (if that is finite), so it still has unit norm.
    """
    states, weights = np.asarray(states), np.asarray(weights)
    if states.dtype.kind not in "iuf" or states.ndim != 2:
        raise ValueError(
            f"states must be an (n, d_s) number array, got shape {states.shape} of dtype {states.dtype}"
        )
    if not np.isfinite(states).all():
        raise ValueError("states contain non-finite entries")
    if weights.dtype.kind not in "iuf" or weights.ndim not in (2, 3) or weights.shape[-1] != states.shape[1]:
        raise ValueError(
            f"weights must be a (d_e, d_s) or (K, d_e, d_s) number array with d_s = {states.shape[1]}, "
            f"got shape {weights.shape} of dtype {weights.dtype}"
        )
    raw = states @ np.swapaxes(weights, -1, -2)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    out = raw / (norms + EMBEDDING_EPS)
    if not np.isfinite(norms.sum()):  # one sum, in place of a per-row test
        rows = np.isinf(norms[..., 0]) & np.isfinite(raw).all(axis=-1)
        scale = np.abs(raw[rows]).max(axis=-1, keepdims=True)
        scaled = raw[rows] / scale
        out[rows] = scaled / (np.linalg.norm(scaled, axis=-1, keepdims=True) + EMBEDDING_EPS / scale)
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
    Raises if the loss goes non-finite, and, at the first loss, before any
    weight moves, if a mode has fewer than two samples.
    """
    states, mode_ids = _labeled(*data)
    n_modes = len(set(mode_ids.tolist()))
    if n_modes < 2:
        raise ValueError(f"need >= 2 modes, got {n_modes}")
    steps, lr = _whole(steps, "steps", _NON_NEGATIVE), _real(lr, "lr", _POSITIVE)

    def losses_of(w: np.ndarray) -> np.ndarray:
        values = _context_losses(encode(w, states), mode_ids, config)[0]
        if not np.isfinite(values).all():
            raise FloatingPointError(
                f"context loss became non-finite during descent (weights max "
                f"{np.abs(w).max():g})"
            )
        return values

    rng = np.random.default_rng(_whole(seed, "seed", _NON_NEGATIVE))
    weights = rng.normal(0.0, 1.0, size=(config.d_e, states.shape[1]))
    n = weights.size
    entry = np.arange(n)
    best_w, best_loss = weights, np.inf
    # an overflowing step makes the loss non-finite, which losses_of reports
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
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
