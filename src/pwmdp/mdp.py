"""Tabular MDP primitives: Q-tables, regime models, and the sup-norm distance.

State and action spaces are index sets ``0..S-1`` and ``0..A-1``. A regime
("mode") is one stationary MDP slice: a reward table, a transition kernel,
and a frozen per-(s, a) epistemic penalty. Q tables travel as (..., S, A)
arrays; ``QFunction`` only validates one. All types are immutable after
construction; every operation here is a pure function. A value type holds
each table as frozen storage: a read-only, C-contiguous float64 ndarray that
owns its data is kept and shared, anything else is copied once and frozen.
A scalar's range is a declared ``(ok, text)`` rule that the reader
(``_whole`` or ``_real``) applies as it reads the value: a class declares its
rules in ``_RULES``, a function passes each argument's, the config each row's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "QFunction",
    "ModeModel",
    "OperatorParams",
    "PiecewiseSchedule",
    "KERNEL_ROW_TOL",
    "check_simplex",
    "sup_dist",
    "validate_mode",
    "make_random_mode",
]

# Kernel rows, regime beliefs and run-length posteriors must sum to 1 to this absolute
# tolerance; contraction certificates rely on it holding at machine precision.
KERNEL_ROW_TOL = 1e-12

# make_random_mode draws each epistemic penalty uniformly from [0, PENALTY_MAX).
PENALTY_MAX = 0.5


def _frozen_array(values) -> np.ndarray:
    """``values`` itself if it is frozen storage (see the module docstring), else a frozen C copy."""
    if (type(values) is np.ndarray and values.dtype == float and values.base is None
            and values.flags.c_contiguous and not values.flags.writeable):
        return values
    return _freeze(np.array(values, dtype=float, order="C"))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _at_least(low) -> tuple:
    """The range rule ``value >= low``."""
    return (lambda v: v >= low, f"must be >= {low}")


# Range rules shared across modules, as (ok, text): ok takes the value as read.
_NON_NEGATIVE, _AT_LEAST_ONE = _at_least(0), _at_least(1)
_POSITIVE = (lambda v: v > 0, "must be > 0")
_UNIT_OPEN = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_DISCOUNT = (lambda v: 0 <= v < 1, "must satisfy 0 <= gamma < 1")


def _within(value, name: str, rule: tuple | None):
    """``value`` if ``rule`` is None or holds for it: every reader's one range check."""
    if rule is None or rule[0](value):
        return value
    raise ValueError(f"{name} {rule[1]}, got {value!r}")


# The readers try an exact int or float first: the ABC checks cost about ten times as much.
def _whole(value, name: str, rule: tuple | None = None) -> int:
    """An integer field: a whole number, never a bool, a fraction or text, within ``rule``."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return _within(int(value), name, rule)
    if isinstance(value, float) and value.is_integer():
        return _within(int(value), name, rule)
    raise ValueError(f"{name} must be an integer, got {_plain(value)!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (ints included), never a bool or text."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _plain(value):
    """A numpy number as its Python number, so a refusal prints ``nan``, not ``np.float64(nan)``."""
    return value.item() if isinstance(value, np.number) else value


def _real(value, name: str, rule: tuple | None = None) -> float:
    """A real-valued field: a finite number (see :func:`_is_real`), within ``rule``."""
    if _is_real(value) and math.isfinite(value):
        return _within(float(value), name, rule)
    raise ValueError(f"{name} must be a finite number, got {_plain(value)!r}")


# Readers by field annotation, which is text: every module postpones its annotations.
_READERS = {"int": _whole, "float": _real}


def _is_pair(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 or isinstance(v, np.ndarray) and v.shape == (2,)


def _pair(value, name: str, ends: str):
    """``value`` if it is a tuple or list of two or an array of shape (2,), else a
    ValueError naming ``name`` and its ``ends``, as in "(low, high)": every pair's reader."""
    return _within(value, name, (_is_pair, f"must be a pair {ends}"))


def _items(value, name: str, what: str) -> tuple:
    """The items of ``value``, or a ValueError naming ``name`` if it is no sequence of ``what``."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {what}, got {value!r}") from None


# A reward range is a pair (low, high) of finite numbers whose width is finite too.
_ORDERED = (lambda v: v[0] <= v[1] and math.isfinite(v[1] - v[0]),
            "must have low <= high and a finite high - low")


def _reward_range(value) -> list:
    """``value`` read as [low, high]: a :func:`_pair` of finite numbers within ``_ORDERED``."""
    ends = [_real(end, "reward_range") for end in _pair(value, "reward_range", "(low, high)")]
    return _within(ends, "reward_range", _ORDERED)


def _read_fields(obj) -> None:
    """Store each int or float field of the frozen dataclass ``obj`` as its reader returns it.

    The reader applies the field's rule in the class's ``_RULES``, so the first bad field is named."""
    for f in fields(obj):
        if f.type in _READERS:
            object.__setattr__(obj, f.name, _READERS[f.type](getattr(obj, f.name), f.name, obj._RULES.get(f.name)))


def check_simplex(probs: np.ndarray, what: str, batched: bool = False):
    """Raise ValueError unless ``probs`` is finite, non-negative and sums to 1.

    With ``batched``, axis 0 indexes independent cases, each of which must
    sum to 1 over its remaining axes; the message names the first bad case.
    """
    cases = probs.reshape(len(probs) if batched else 1, -1)
    sums = cases.sum(axis=1)
    if np.abs(sums - 1.0).max() <= KERNEL_ROW_TOL and cases.min() >= 0.0:
        return
    row = int((~(np.abs(sums - 1.0) <= KERNEL_ROW_TOL) | (cases < 0.0).any(axis=1)).argmax())
    name = f"{what} row {row}" if batched else what
    if not np.isfinite(cases[row]).all():
        raise ValueError(f"{name} contains non-finite entries")
    if (cases[row] < 0.0).any():
        raise ValueError(f"{name} must be non-negative")
    raise ValueError(f"{name} sums to {float(sums[row])!r}, expected 1")


@dataclass(frozen=True)
class QFunction:
    """Dense action-value table over (state, action), validated once.

    Entries must be finite and the table non-empty; both are checked at
    construction. The operators and ``sup_dist`` take the plain (..., S, A)
    array, such as ``values``, not this object.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 2:
            raise ValueError(f"Q table must be 2-d (S, A), got shape {self.values.shape}")
        s, a = self.values.shape
        if s < 1 or a < 1:
            raise ValueError(f"Q table needs S >= 1 and A >= 1, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("Q table contains non-finite entries")


@dataclass(frozen=True)
class ModeModel:
    """One regime: reward table, transition kernel, frozen epistemic penalty.

    Shapes are checked at construction; the probabilistic invariants
    (non-negative kernel, stochastic rows, non-negative penalty) are *not*,
    so that deliberately broken models can be built and fed to
    :func:`validate_mode`, which reports every violation.
    """

    reward: np.ndarray      # (S, A), reward units
    kernel: np.ndarray      # (S, A, S'), P(s' | s, a)
    gamma_epi: np.ndarray   # (S, A), >= 0

    def __post_init__(self):
        object.__setattr__(self, "reward", _frozen_array(self.reward))
        object.__setattr__(self, "kernel", _frozen_array(self.kernel))
        object.__setattr__(self, "gamma_epi", _frozen_array(self.gamma_epi))
        if self.reward.ndim != 2:
            raise ValueError(f"reward must be 2-d (S, A), got {self.reward.shape}")
        s, a = self.reward.shape
        if s < 1 or a < 1:
            raise ValueError(f"reward needs S >= 1 and A >= 1, got shape {self.reward.shape}")
        if self.kernel.shape != (s, a, s):
            raise ValueError(
                f"kernel shape {self.kernel.shape} does not match reward shape {(s, a, s)}"
            )
        if self.gamma_epi.shape != (s, a):
            raise ValueError(
                f"gamma_epi shape {self.gamma_epi.shape} does not match reward shape {(s, a)}"
            )

    @property
    def n_states(self) -> int:
        return self.reward.shape[0]

    @property
    def n_actions(self) -> int:
        return self.reward.shape[1]


@dataclass(frozen=True)
class OperatorParams:
    """Discount and frozen penalty coefficients shared by all regime operators."""

    gamma: float
    lambda_epi: float = 0.0
    kappa: float = 0.0

    _RULES = {"gamma": _DISCOUNT, "lambda_epi": _NON_NEGATIVE, "kappa": _NON_NEGATIVE}
    __post_init__ = _read_fields


@dataclass(frozen=True)
class PiecewiseSchedule:
    """Ordered regime schedule: (mode_index, dwell) segments.

    Mode indices are validated against a mode count only where one is known
    (see the harness config); here both are whole, dwell >= 1 and index >= 0.
    """

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        pairs = (_pair(seg, f"segments[{i}]", "(mode, dwell)")
                 for i, seg in enumerate(_items(self.segments, "segments", "(mode, dwell) pairs")))
        segs = tuple((_whole(m, f"segments[{i}] mode", _NON_NEGATIVE),
                      _whole(d, f"segments[{i}] dwell", _AT_LEAST_ONE))
                     for i, (m, d) in enumerate(pairs))
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule needs at least one segment")

    @cached_property
    def bounds(self) -> tuple:
        """(start, end, mode) of each segment: iterations start..end-1 run ``mode``."""
        ends = accumulate(d for _, d in self.segments)
        return tuple((end - d, end, m) for (m, d), end in zip(self.segments, ends))

    @property
    def total_iterations(self) -> int:
        return self.bounds[-1][1]


def sup_dist(q1: np.ndarray, q2: np.ndarray) -> float:
    """Sup-norm distance max_{s,a} |Q1 - Q2| between two arrays of tables."""
    if q1.shape != q2.shape:
        raise ValueError(f"dimension mismatch: {q1.shape} vs {q2.shape}")
    return float(np.max(np.abs(q1 - q2)))


def validate_mode(model: ModeModel) -> list[str]:
    """Check the regime-model invariants, returning one message per violation.

    An empty list means the model is valid: finite tables, kernel entries
    >= 0, every kernel row summing to 1 within ``KERNEL_ROW_TOL``, and a
    non-negative epistemic penalty.
    """
    def listed(name: str, table: np.ndarray, bad: np.ndarray, says: str = "is not finite") -> list[str]:
        return [f"{name}[{','.join(map(str, i))}] " + says.format(v=table[i]) for i in zip(*np.nonzero(bad))]

    report = listed("reward", model.reward, ~np.isfinite(model.reward))
    if not np.isfinite(model.kernel).all():  # row sums are meaningless with non-finite entries
        return report + listed("kernel", model.kernel, ~np.isfinite(model.kernel))
    report += listed("kernel", model.kernel, model.kernel < 0.0, "= {v} is negative")
    row_sums = model.kernel.sum(axis=2)
    for s, a in zip(*np.nonzero(np.abs(row_sums - 1.0) > KERNEL_ROW_TOL)):
        report.append(f"kernel row ({s},{a}) sums to {row_sums[s, a]:.6g} (deficit {1.0 - row_sums[s, a]:.6g})")
    report += listed("gamma_epi", model.gamma_epi, model.gamma_epi < 0.0, "= {v} is negative")
    return report + listed("gamma_epi", model.gamma_epi, ~np.isfinite(model.gamma_epi))


def make_random_mode(
    seed: int,
    n_states: int,
    n_actions: int,
    reward_range: tuple[float, float] = (-1.0, 1.0),
) -> ModeModel:
    """Draw a valid random regime, deterministic in ``seed``.

    Kernel rows are simplex-uniform (flat Dirichlet) and renormalized
    exactly so row sums hold to machine precision.
    """
    n_states = _whole(n_states, "n_states", _AT_LEAST_ONE)
    n_actions = _whole(n_actions, "n_actions", _AT_LEAST_ONE)
    reward_range = _reward_range(reward_range)
    rng = np.random.default_rng(_whole(seed, "seed", _NON_NEGATIVE))
    # fresh draws, frozen where they lie, so ModeModel keeps them
    return ModeModel(*map(_freeze, _draw_mode_tables(rng, (), n_states, n_actions, reward_range)))


def _draw_mode_tables(
    rng, lead: tuple, n_states: int, n_actions: int, reward_range=(-1.0, 1.0)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reward, kernel and penalty tables of random regimes, each with leading shape ``lead``.

    With ``lead == ()`` these are the draws of :func:`make_random_mode`.
    """
    table = lead + (n_states, n_actions)
    reward = rng.uniform(*reward_range, size=table)
    kernel = rng.dirichlet(np.ones(n_states), size=table)
    kernel /= kernel.sum(axis=-1, keepdims=True)
    gamma_epi = rng.uniform(0.0, PENALTY_MAX, size=table)
    return reward, kernel, gamma_epi
