"""Tests for tabular MDP primitives."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from pwmdp import (
    KERNEL_ROW_TOL,
    AdaptiveState,
    BOCDParams,
    ContextLossConfig,
    ModeModel,
    OperatorParams,
    PiecewiseSchedule,
    QFunction,
    StatePartition,
    SurpriseWeights,
    apply_mode_operator,
    estimate_lipschitz,
    fit_linear_context,
    lambda_w,
    make_random_mode,
    solve_fixed_point,
    sup_dist,
    validate_mode,
)
from pwmdp import adaptive, bocd, context, mdp, operators
from pwmdp.harness.certify import separable_context_dataset
from pwmdp.mdp import _frozen_array, check_simplex


class TestQFunction:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            QFunction([[1.0, np.inf]])
        with pytest.raises(ValueError, match="finite"):
            QFunction([[np.nan]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-d"):
            QFunction([1.0, 2.0])

    def test_immutable(self):
        q = QFunction([[1.0, 2.0]])
        with pytest.raises(ValueError):
            q.values[0, 0] = 5.0


def greedy_value(q: np.ndarray) -> np.ndarray:
    """V(s) = max_a Q(s, a) as the backup kernel computes it, read off exactly.

    One backup of a regime that stays in its state, with zero reward and
    penalty, is gamma * V(s) in every action column; gamma 0.5 scales exactly.
    """
    n_states, n_actions = q.shape
    stay = np.repeat(np.eye(n_states)[:, None, :], n_actions, axis=1)
    model = ModeModel(np.zeros(q.shape), stay, np.zeros(q.shape))
    return apply_mode_operator(model, OperatorParams(gamma=0.5), q)[:, 0] * 2.0


class TestGreedyValue:
    def test_direct_max(self):
        q = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert greedy_value(q).tolist() == [2.0, 3.0]

    def test_constant_table(self):
        q = np.full((4, 3), 2.5)
        assert greedy_value(q).tolist() == [2.5] * 4

    def test_matches_elementwise_scan(self):
        rng = np.random.default_rng(7)
        q = rng.uniform(-10, 10, (5, 4))
        # independent oracle: explicit elementwise scan
        expected = []
        for s in range(5):
            best = q[s, 0]
            for a in range(1, 4):
                if q[s, a] > best:
                    best = q[s, a]
            expected.append(best)
        assert greedy_value(q).tolist() == expected

    def test_one_lipschitz_in_sup_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q1 = rng.uniform(-10, 10, (4, 3))
            q2 = rng.uniform(-10, 10, (4, 3))
            gap = np.abs(greedy_value(q1) - greedy_value(q2)).max()
            assert gap <= sup_dist(q1, q2) + 1e-15

    def test_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q1 = rng.uniform(-5, 5, (3, 4))
            q2 = q1 + rng.uniform(0, 2, (3, 4))
            assert (greedy_value(q1) <= greedy_value(q2)).all()

    def test_additive_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = rng.uniform(-5, 5, (3, 4))
            c = float(rng.uniform(-7, 7))
            shifted = greedy_value(q + c)
            np.testing.assert_allclose(shifted, greedy_value(q) + c, atol=1e-12)


class TestSupDist:
    def test_identity(self):
        q = np.array([[1.0, -2.0]])
        assert sup_dist(q, q) == 0.0

    def test_uniform_shift(self):
        q1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        q2 = q1 - 3.5
        assert sup_dist(q1, q2) == 3.5

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(11)
        q1 = rng.uniform(-10, 10, (6, 3))
        q2 = rng.uniform(-10, 10, (6, 3))
        best = 0.0
        for s in range(6):
            for a in range(3):
                best = max(best, abs(q1[s, a] - q2[s, a]))
        assert sup_dist(q1, q2) == best

    def test_symmetric_zero_iff_equal(self):
        rng = np.random.default_rng(12)
        q1 = rng.uniform(-1, 1, (3, 2))
        q2 = rng.uniform(-1, 1, (3, 2))
        assert sup_dist(q1, q2) == sup_dist(q2, q1)
        assert sup_dist(q1, q2) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sup_dist(np.zeros((2, 2)), np.zeros((3, 2)))


class TestValidateMode:
    def test_valid_model_empty_report(self):
        model = make_random_mode(0, 3, 2)
        assert validate_mode(model) == []

    def test_deficient_row_named_with_deficit(self):
        model = make_random_mode(1, 3, 2)
        kernel = model.kernel.copy()
        kernel[1, 0, :] *= 0.9
        report = validate_mode(ModeModel(model.reward, kernel, model.gamma_epi))
        assert len(report) == 1
        assert "(1,0)" in report[0]
        assert "0.1" in report[0]

    def test_negative_entry_named(self):
        model = make_random_mode(2, 2, 2)
        kernel = model.kernel.copy()
        kernel[0, 1, 1] -= 2.0
        report = validate_mode(ModeModel(model.reward, kernel, model.gamma_epi))
        assert any("kernel[0,1,1]" in line and "negative" in line for line in report)
        # the row sum is now off as well
        assert any("row (0,1)" in line for line in report)

    def test_negative_penalty_named(self):
        model = make_random_mode(3, 2, 2)
        pen = model.gamma_epi.copy()
        pen[1, 1] = -0.25
        report = validate_mode(ModeModel(model.reward, model.kernel, pen))
        assert any("gamma_epi[1,1]" in line for line in report)

    def test_report_lists_every_violation_in_order(self):
        # reward entries, then kernel entries, kernel rows and penalty entries, each in index order
        reward = [[0.0, np.nan], [1.0, -np.inf]]
        kernel = [[[0.5, 0.5], [1.2, -0.3]], [[0.5, 0.25], [0.0, 1.0]]]
        pen = [[0.0, np.inf], [-0.25, 0.1]]
        assert validate_mode(ModeModel(reward, kernel, pen)) == [
            "reward[0,1] is not finite",
            "reward[1,1] is not finite",
            "kernel[0,1,1] = -0.3 is negative",
            "kernel row (0,1) sums to 0.9 (deficit 0.1)",
            "kernel row (1,0) sums to 0.75 (deficit 0.25)",
            "gamma_epi[1,0] = -0.25 is negative",
            "gamma_epi[0,1] is not finite",
        ]


class TestMakeRandomMode:
    def test_deterministic(self):
        a = make_random_mode(42, 4, 3)
        b = make_random_mode(42, 4, 3)
        assert (a.reward == b.reward).all()
        assert (a.kernel == b.kernel).all()
        assert (a.gamma_epi == b.gamma_epi).all()

    def test_construction_contract(self):
        assert validate_mode(make_random_mode(0, 3, 2)) == []

    def test_row_stochastic_sweep(self):
        for seed in range(1000):
            model = make_random_mode(seed, 3, 2)
            sums = model.kernel.sum(axis=2)
            assert np.abs(sums - 1.0).max() <= KERNEL_ROW_TOL

    def test_reward_range_respected(self):
        model = make_random_mode(9, 5, 4, reward_range=(2.0, 3.0))
        assert model.reward.min() >= 2.0
        assert model.reward.max() <= 3.0

    def test_tables_are_frozen_storage(self):
        model = make_random_mode(3, 4, 2)
        for table in (model.reward, model.kernel, model.gamma_epi):
            assert not table.flags.writeable and table.flags.c_contiguous and table.base is None

    def test_kernel_is_drawn_without_a_transient_copy(self):
        # the draw is normalized in place and frozen where it lies, so the
        # traced peak is the kernel plus the (S, A) tables, not two kernels
        make_random_mode(0, 2, 2)
        tracemalloc.start()
        try:
            model = make_random_mode(11, 300, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * model.kernel.nbytes


# frozen storage, whose (2, 2, 2) slices are C-contiguous read-only views
HALVES = _frozen_array(np.full((3, 2, 2), 0.5))


class TestFrozenStorage:
    """A value type keeps a frozen array as it is and copies anything else once."""

    def test_writable_inputs_are_copied(self):
        reward, kernel, gamma_epi = np.ones((2, 1)), np.full((2, 1, 2), 0.5), np.zeros((2, 1))
        model = ModeModel(reward, kernel, gamma_epi)
        reward[0, 0], kernel[0, 0, 0], gamma_epi[1, 0] = 7.0, 7.0, 7.0
        assert model.reward.tolist() == [[1.0], [1.0]]
        assert (model.kernel == 0.5).all() and (model.gamma_epi == 0.0).all()
        for table in (model.reward, model.kernel, model.gamma_epi):
            assert not table.flags.writeable

    @pytest.mark.parametrize(
        "kernel",
        [HALVES[1:], np.asfortranarray(HALVES[1:]), HALVES[1:].astype(np.float32)],
        ids=["contiguous_view", "fortran_order", "float32"],
    )
    def test_read_only_arrays_that_are_not_frozen_storage_are_copied(self, kernel):
        kernel.flags.writeable = False
        model = ModeModel(np.zeros((2, 2)), kernel, np.zeros((2, 2)))
        assert not np.shares_memory(model.kernel, kernel) and (model.kernel == 0.5).all()
        # the copy is frozen storage, which the next value type built from it shares
        assert model.kernel.dtype == float and model.kernel.base is None
        assert model.kernel.flags.c_contiguous and not model.kernel.flags.writeable
        assert ModeModel(model.reward, model.kernel, model.gamma_epi).kernel is model.kernel

    def test_frozen_tables_are_shared(self):
        model = make_random_mode(5, 3, 2)
        shifted = ModeModel(model.reward + 1.0, model.kernel, model.gamma_epi)
        assert shifted.kernel is model.kernel and shifted.gamma_epi is model.gamma_epi
        assert not shifted.reward.flags.writeable


class TestOperatorParams:
    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            OperatorParams(gamma=1.0)
        with pytest.raises(ValueError):
            OperatorParams(gamma=-0.1)
        assert OperatorParams(gamma=0.0).gamma == 0.0

    def test_penalties_nonnegative(self):
        with pytest.raises(ValueError):
            OperatorParams(gamma=0.9, lambda_epi=-1.0)
        with pytest.raises(ValueError):
            OperatorParams(gamma=0.9, kappa=-0.5)


class TestPiecewiseSchedule:
    def test_bounds_and_totals(self):
        sched = PiecewiseSchedule(((0, 3), (2, 2)))
        assert sched.total_iterations == 5
        assert sched.bounds == ((0, 3, 0), (3, 5, 2))

    def test_rejects_bad_dwell(self):
        with pytest.raises(ValueError, match="dwell"):
            PiecewiseSchedule(((0, 0),))

    def test_rejects_negative_mode(self):
        with pytest.raises(ValueError, match=r"^segments\[0\] mode must be >= 0, got -1$"):
            PiecewiseSchedule(((-1, 5),))


# Each parameter class, keyword arguments that build it, and its int and float fields.
PARAMETER_CLASSES = [
    (OperatorParams, {"gamma": 0.9}, (), ("gamma", "lambda_epi", "kappa")),
    (BOCDParams, {}, ("h_max",), ("hazard", "sigma0_sq", "sigma_g")),
    (SurpriseWeights, {}, (), ("w_r", "w_q", "w_kappa", "clip_max")),
    (AdaptiveState, {}, (), ("beta_base", "c_penalty", "baseline_ema_rate", "surprise_ema_rate")),
    (ContextLossConfig, {}, ("d_e",), ("w_cons", "w_div", "r_rbf", "eps")),
    (StatePartition, {"n_states": 2, "blocks": ((0,), (1,))}, ("n_states",), ()),
]


def _field_slot(cls, kwargs, name, kind):
    build = lambda value: cls(**{**kwargs, name: value})
    return name, kind, getattr(cls(**kwargs), name), build, lambda o: getattr(o, name)


# Every scalar slot of the parameter classes, by id: (the name its refusal
# starts with, its kind, a valid value, the class built with a value there,
# the slot as stored). Schedule entries and partition states are slots too.
SCALAR_SLOTS = {
    **{
        f"{cls.__name__}.{name}": _field_slot(cls, kwargs, name, kind)
        for cls, kwargs, ints, floats in PARAMETER_CLASSES
        for kind, names in ((int, ints), (float, floats))
        for name in names
    },
    "PiecewiseSchedule.mode": (
        "segments[0] mode", int, 0, lambda v: PiecewiseSchedule(((v, 3),)), lambda o: o.segments[0][0]
    ),
    "PiecewiseSchedule.dwell": (
        "segments[0] dwell", int, 3, lambda v: PiecewiseSchedule(((0, v),)), lambda o: o.segments[0][1]
    ),
    "StatePartition.state": (
        "blocks[1] state", int, 1, lambda v: StatePartition(2, ((0,), (v,))), lambda o: o.blocks[1][0]
    ),
}


def _refusals():
    for slot, (name, kind, _, build, _) in SCALAR_SLOTS.items():
        need = "an integer" if kind is int else "a finite number"
        for value in (True, np.True_, "1", math.nan, math.inf, -math.inf) + ((2.5,) if kind is int else ()):
            yield pytest.param(
                lambda b=build, v=value: b(v), f"{name} must be {need}, got {value!r}", id=f"{slot}={value!r}"
            )
    # a fractional schedule entry was truncated, a fractional h_max built a
    # detector that refused every belief, and a NaN variance was blamed on sigma_g
    yield pytest.param(lambda: PiecewiseSchedule(((0.5, 2.7),)), "segments[0] mode must be an integer, got 0.5",
                       id="fractional_segment")
    yield pytest.param(lambda: BOCDParams(h_max=2.5), "h_max must be an integer, got 2.5", id="fractional_h_max")
    yield pytest.param(lambda: BOCDParams(sigma0_sq=math.nan), "sigma0_sq must be a finite number, got nan",
                       id="nan_sigma0_sq")
    yield pytest.param(lambda: BOCDParams(h_max=math.nan), "h_max must be an integer, got nan", id="nan_h_max")


def _ruled_classes():
    """Every class in the package that declares range rules for its fields."""
    for module in (mdp, operators, bocd, adaptive, context):
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "_RULES" in vars(obj):
                yield obj


@pytest.mark.parametrize("cls", list(_ruled_classes()), ids=lambda cls: cls.__name__)
def test_rules_name_scalar_fields_of_their_class(cls):
    # a misspelt key would drop its field's check without any error
    scalar_fields = {f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")}
    assert cls._RULES and set(cls._RULES) <= scalar_fields
    for ok, text in cls._RULES.values():
        assert callable(ok) and text.startswith("must ")


def test_every_parameter_class_declares_rules():
    assert {cls for cls, *_ in PARAMETER_CLASSES} == set(_ruled_classes())


class TestScalarFields:
    """One policy for every parameter class: int slots take whole numbers, float slots
    finite numbers, bool and text are refused, and each refusal names its slot."""

    @pytest.mark.parametrize("build, message", _refusals())
    def test_refusal_names_the_slot(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("slot", SCALAR_SLOTS)
    def test_whole_and_numpy_values_are_stored_as_the_kind(self, slot):
        _, kind, valid, build, stored = SCALAR_SLOTS[slot]
        equivalents = (float(valid), np.int64(valid)) if kind is int else (np.float64(valid),)
        for value in equivalents:
            read = stored(build(value))
            assert type(read) is kind and read == valid


class TestCheckSimplex:
    def test_batch_passes_when_every_case_sums_to_one(self):
        check_simplex(np.full((5, 4, 2), 1.0 / 8), "batch", batched=True)

    @pytest.mark.parametrize(
        "entry, message",
        [(np.nan, "row 2 contains non-finite"), (-0.25, "row 2 must be non-negative"),
         (0.5, "row 2 sums to")],
    )
    def test_batch_names_the_first_bad_case(self, entry, message):
        probs = np.full((5, 4), 0.25)
        probs[2, 1] = entry
        probs[4, 0] = np.inf  # a later bad case is not the one reported
        with pytest.raises(ValueError, match=message):
            check_simplex(probs, "batch", batched=True)

    def test_unbatched_array_is_one_case(self):
        check_simplex(np.full((4, 2), 1.0 / 8), "table")
        with pytest.raises(ValueError, match="^table sums to"):
            check_simplex(np.full((4, 2), 0.25), "table")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModeModel(np.zeros(3), np.zeros((3, 1, 3)), np.zeros((3, 1))),
         "reward must be 2-d (S, A), got (3,)"),
        (lambda: ModeModel(np.zeros((2, 1)), np.zeros((2, 1, 3)), np.zeros((2, 1))),
         "kernel shape (2, 1, 3) does not match reward shape (2, 1, 2)"),
        (lambda: ModeModel(np.zeros((2, 1)), np.zeros((2, 1, 2)), np.zeros(2)),
         "gamma_epi shape (2,) does not match reward shape (2, 1)"),
        (lambda: make_random_mode(0, 2, 2, (1.0, -1.0)),
         "reward_range must have low <= high and a finite high - low, got [1.0, -1.0]"),
        # numpy's uniform raised OverflowError for a width past the largest double
        (lambda: make_random_mode(0, 2, 2, (-1e308, 1e308)),
         "reward_range must have low <= high and a finite high - low, got [-1e+308, 1e+308]"),
        # a number raised a TypeError, and one or three ends a bare unpacking ValueError
        (lambda: make_random_mode(0, 2, 2, 1.0), "reward_range must be a pair (low, high), got 1.0"),
        (lambda: make_random_mode(0, 2, 2, (1.0,)), "reward_range must be a pair (low, high), got (1.0,)"),
        (lambda: make_random_mode(0, 2, 2, (0.0, 1.0, 2.0)),
         "reward_range must be a pair (low, high), got (0.0, 1.0, 2.0)"),
        # text failed in numpy's subtraction, and bools drew rewards from [0, 1)
        (lambda: make_random_mode(0, 2, 2, ("a", "b")), "reward_range must be a finite number, got 'a'"),
        (lambda: make_random_mode(0, 2, 2, (False, True)), "reward_range must be a finite number, got False"),
        # numpy refused it as an "expected non-negative integer", naming no argument
        (lambda: make_random_mode(-1, 2, 2), "seed must be >= 0, got -1"),
        (lambda: make_random_mode(0, 0, 2), "n_states must be >= 1, got 0"),
        (lambda: make_random_mode(0, 2, 0), "n_actions must be >= 1, got 0"),
        (lambda: PiecewiseSchedule(((0, 3), (1, 0))), "segments[1] dwell must be >= 1, got 0"),
        # a short segment ended in a bare unpacking ValueError, and a number in a TypeError
        (lambda: PiecewiseSchedule(((0,),)), "segments[0] must be a pair (mode, dwell), got (0,)"),
        (lambda: PiecewiseSchedule((0, 1)), "segments[0] must be a pair (mode, dwell), got 0"),
        (lambda: PiecewiseSchedule(5), "segments must be a sequence of (mode, dwell) pairs, got 5"),
        # a regime without actions or states built, and its backup failed inside numpy
        (lambda: ModeModel(np.zeros((2, 0)), np.zeros((2, 0, 2)), np.zeros((2, 0))),
         "reward needs S >= 1 and A >= 1, got shape (2, 0)"),
        (lambda: ModeModel(np.zeros((0, 2)), np.zeros((0, 2, 0)), np.zeros((0, 2))),
         "reward needs S >= 1 and A >= 1, got shape (0, 2)"),
        # the sum printed as np.float64(1.000000000002)
        (lambda: check_simplex(np.array([0.25, 0.75 + 2e-12]), "belief"), "belief sums to 1.000000000002, expected 1"),
        # numpy scalars printed as np.float64(nan) and np.float64(2.5)
        (lambda: OperatorParams(gamma=np.float64("nan")), "gamma must be a finite number, got nan"),
        (lambda: make_random_mode(0, np.float64(2.5), 2), "n_states must be an integer, got 2.5"),
    ],
    ids=["one_dimensional_reward", "kernel_shape", "gamma_epi_shape", "inverted_reward_range",
         "overflowing_reward_range", "scalar_reward_range", "one_end_reward_range",
         "three_end_reward_range", "text_reward_range", "bool_reward_range", "negative_seed",
         "no_random_states", "no_random_actions", "zero_dwell", "short_segment", "scalar_segment",
         "scalar_segments", "no_actions", "no_states", "sum_off_the_simplex", "numpy_nan_gamma",
         "numpy_fractional_states"],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Every public integer argument is read once at its entry by the one reader
# of whole numbers: a bool or a fraction is refused, naming the argument
# (the part of the key after its last dot).
IDENTITY = lambda q: q
CONTEXT_DATA = separable_context_dataset(0, n_per_mode=4)
INTEGER_ARGUMENTS = {
    "max_iter": lambda n: solve_fixed_point(lambda q: 0.5 * q, np.ones((1, 1)), max_iter=n),
    "n_pairs": lambda n: estimate_lipschitz(IDENTITY, (3, 2), n, 0),
    "dims[0]": lambda n: estimate_lipschitz(IDENTITY, (n, 2), 2, 0),
    "dims[1]": lambda n: estimate_lipschitz(IDENTITY, (3, n), 2, 0),
    "steps": lambda n: fit_linear_context(CONTEXT_DATA, ContextLossConfig(), steps=n),
    "n_states": lambda n: make_random_mode(0, n, 2),
    "n_actions": lambda n: make_random_mode(0, 2, n),
    "h_max": lambda n: lambda_w(0.5, n, None, None, 0.5),
    "make_random_mode.seed": lambda n: make_random_mode(n, 2, 2),
    "estimate_lipschitz.seed": lambda n: estimate_lipschitz(IDENTITY, (3, 2), 2, n),
    "fit_linear_context.seed": lambda n: fit_linear_context(CONTEXT_DATA, ContextLossConfig(), steps=1, seed=n),
}


@pytest.mark.parametrize("value", [True, 2.5], ids=["bool", "fraction"])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_bools_and_fractions_by_name(name, value):
    argument = re.escape(name.rpartition(".")[2])
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got {value!r}$"):
        INTEGER_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_accept_a_whole_float(name):
    INTEGER_ARGUMENTS[name](2.0)
