"""pwmdp: piecewise-stationary MDP operators, change detection, and certification.

Tabular toolkit for value iteration through regime switches: per-regime
penalized Bellman backups and their frozen-belief mixtures, the
value-coupled backup whose belief tracks Q, with its sharp contraction
threshold, a truncated run-length change detector with joint regime
clustering, the surprise -> penalty -> LCB-coefficient adaptation chain,
mode-embedding representation losses, and an experiment/certification
harness that checks every contraction, threshold, delay, and perturbation
bound numerically.
"""

from .adaptive import (
    AdaptiveState,
    SurpriseWeights,
    beta_eff,
    ema_update,
    lambda_w,
    surprise,
)
from .bocd import (
    BOCDParams,
    DegenerateBeliefError,
    JointBelief,
    RunLengthBelief,
    bayes_update,
    bocd_step,
    detection_delay,
    joint_step,
    log_likelihood_vector,
    posterior_ratio,
)
from .context import (
    ContextLossConfig,
    context_loss,
    diversity_loss,
    fit_linear_context,
    mode_means,
)
from .mdp import (
    KERNEL_ROW_TOL,
    ModeModel,
    OperatorParams,
    PiecewiseSchedule,
    QFunction,
    greedy_value,
    make_random_mode,
    sup_dist,
    validate_mode,
)
from .operators import (
    FixedPointResult,
    RegimePerturbation,
    StatePartition,
    add_bounded_noise,
    apply_coupled_operator,
    apply_mixture_operator,
    apply_mixture_via_shared,
    apply_mode_operator,
    classify_factor,
    error_floor,
    estimate_lipschitz,
    mixture_backup,
    mode_fixed_point,
    project,
    projection_error,
    regime_perturbation,
    solve_fixed_point,
)

__version__ = "0.1.0"
