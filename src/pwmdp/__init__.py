"""pwmdp: piecewise-stationary MDP operators, change detection, and certification.

Tabular toolkit for value iteration through regime switches: per-regime
penalized Bellman backups and their frozen-belief mixtures, the
value-coupled backup whose belief tracks Q, with its sharp contraction
threshold, a truncated run-length change detector, the surprise ->
penalty -> LCB-coefficient adaptation chain,
mode-embedding representation losses, and an experiment/certification
harness that checks every contraction, threshold, delay, and perturbation
bound numerically.
"""

from . import adaptive, bocd, context, mdp, operators
from .adaptive import *
from .bocd import *
from .context import *
from .mdp import *
from .operators import *

__all__ = adaptive.__all__ + bocd.__all__ + context.__all__ + mdp.__all__ + operators.__all__

__version__ = "0.1.0"
