"""Grid sweeps: the contraction-threshold phase map and the detection-delay table.

The threshold sweep iterates the value-coupled backup's one-state case, the
affine map q -> (gamma + coupling) * q + 1, across a (discount, coupling)
grid and classifies each cell from its trajectory; the grid iterates as one
array with a stop mask per cell. Because the map is affine, the measured
per-step geometric factor equals the analytic factor to round-off, so the
classified boundary must match the line gamma + coupling = 1 cell-exactly.

The delay table evaluates the analytic detection delay for the standard
separability scenarios next to the first step at which a two-hypothesis
Bayes filter on L-consistent evidence reaches odds 1/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bocd import _odds, bayes_update, detection_delay
from ..mdp import _AT_LEAST_ONE, _UNIT_OPEN, _real, _whole

__all__ = [
    "ThresholdSweepResult",
    "run_threshold_sweep",
    "DELAY_SCENARIOS",
    "run_delay_table",
    "empirical_detection_delay",
]

# Factors within this band of 1 classify as stalled (nonexpansive).
FACTOR_BAND = 1e-9

# The threshold sweep's low reward (the high one sits a unit gap above it).
SWEEP_R_LOW = 1.0


def _classify(factor: float) -> str:
    """converged, stalled or diverged: ``factor`` below, within or above FACTOR_BAND of 1."""
    if factor < 1.0 - FACTOR_BAND:
        return "converged"
    if factor > 1.0 + FACTOR_BAND:
        return "diverged"
    return "stalled"


@dataclass(frozen=True)
class ThresholdSweepResult:
    gamma_grid: np.ndarray
    coupling_grid: np.ndarray     # the product sensitivity * reward_gap per cell
    classes: np.ndarray           # (n_gamma, n_coupling) strings
    measured_factors: np.ndarray  # (n_gamma, n_coupling)

    def matches_analytic(self) -> bool:
        """Cell-exact agreement of the classified map with the line gamma + coupling = 1."""
        return all(self.classes[i, j] == _classify(g + c)
                   for i, g in enumerate(self.gamma_grid) for j, c in enumerate(self.coupling_grid))

    def to_json_dict(self) -> dict:
        return {
            "gamma_grid": [float(g) for g in self.gamma_grid],
            "coupling_grid": [float(c) for c in self.coupling_grid],
            "classes": [[str(c) for c in row] for row in self.classes],
            "measured_factors": [[float(f) for f in row] for row in self.measured_factors],
            "matches_analytic_boundary": self.matches_analytic(),
        }


def run_threshold_sweep(gamma_grid, coupling_grid, n_iter: int = 200) -> ThresholdSweepResult:
    """Classify the scalar operator across a (discount, coupling) grid.

    The whole grid iterates q -> (gamma + coupling) * q + SWEEP_R_LOW from
    q0 = 0 as one array: a cell stops once its update is exactly 0 or beyond
    1e100, and keeps its last update and step count. Each cell's factor, the
    per-step geometric mean of its update magnitudes, is then taken as a
    Python float, so classes and factors equal a scalar loop's over one cell.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    coupling_grid = np.asarray(coupling_grid, dtype=float)
    for name, grid in (("gamma", gamma_grid), ("coupling", coupling_grid)):
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError(f"{name} grid must be a non-empty vector")
        if not ((grid >= 0.0) & (grid <= 1.5)).all():
            raise ValueError(f"{name} grid values must lie within [0, 1.5]")
    n_iter = _whole(n_iter, "n_iter", _AT_LEAST_ONE)
    factor = gamma_grid[:, None] + coupling_grid[None, :]
    # from q = 0 the first step lands every cell on the nonzero low reward
    q = np.full(factor.shape, SWEEP_R_LOW)
    d0 = abs(SWEEP_R_LOW)
    d = np.full(factor.shape, d0)
    steps = np.zeros(factor.shape, dtype=int)
    running = np.ones(factor.shape, dtype=bool)
    for _ in range(n_iter):
        q_next = factor * q + SWEEP_R_LOW
        d = np.where(running, np.abs(q_next - q), d)
        q = np.where(running, q_next, q)
        steps += running
        running &= (d != 0.0) & (d <= 1e100)
        if not running.any():
            break
    measured = [
        [0.0 if r == 0.0 else r ** (1.0 / n) for r, n in zip(ratios, counts)]
        for ratios, counts in zip((d / d0).tolist(), steps.tolist())
    ]
    classes = np.array([[_classify(f) for f in row] for row in measured], dtype=object)
    return ThresholdSweepResult(gamma_grid, coupling_grid, classes, np.array(measured))


# (scenario, likelihood ratio L, prior ratio r0, confidence delta)
DELAY_SCENARIOS = (
    ("strong_separability", 5.0, 1.0, 0.05),
    ("moderate_separability", 2.0, 1.0, 0.05),
    ("weak_separability", 1.2, 1.0, 0.05),
    ("adversarial_prior", 2.0, 10.0, 0.05),
)


def empirical_detection_delay(likelihood_ratio: float, prior_ratio: float, delta: float) -> int:
    """First step n at which the two-hypothesis filter's odds for the new regime reach 1/delta.

    The belief over (stale, new) starts at odds 1/r0, and each step applies
    ``bayes_update`` with the L-consistent likelihood row (1/L, L), so the
    odds gain a factor L**2 per step. The crossing is read as
    p_new * delta >= p_stale, which never forms 1/delta; no crossing within
    10**4 steps raises RuntimeError.
    """
    likelihood_ratio, prior_ratio = _odds(likelihood_ratio, prior_ratio)
    delta = _real(delta, "delta", _UNIT_OPEN)
    belief = np.array([[prior_ratio, 1.0]]) / (1.0 + prior_ratio)
    consistent = np.array([[1.0 / likelihood_ratio, likelihood_ratio]])
    for n in range(10_001):
        if belief[0, 1] * delta >= belief[0, 0]:
            return n
        belief = bayes_update(belief, consistent)
    raise RuntimeError("posterior odds failed to cross the target in 10^4 steps")


def run_delay_table() -> list[dict]:
    """Analytic and empirical detection delays for the standard scenarios."""
    rows = []
    for name, lr, r0, delta in DELAY_SCENARIOS:
        analytic = detection_delay(lr, r0, delta)
        rows.append(
            {
                "scenario": name,
                "likelihood_ratio": lr,
                "prior_ratio": r0,
                "delta": delta,
                "n_delta": analytic,
                "n_ceil": math.ceil(analytic),
                "empirical_delay": empirical_detection_delay(lr, r0, delta),
            }
        )
    return rows
