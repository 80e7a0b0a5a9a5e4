"""Tests for the context-embedding losses and the linear fitter."""

import math
import re

import numpy as np
import pytest

from pwmdp import (
    ContextLossConfig,
    context_loss,
    diversity_loss,
    fit_linear_context,
    mode_means,
)
from pwmdp.context import EMBEDDING_EPS, _context_losses, encode
from pwmdp.harness.certify import separable_context_dataset

CONFIG = ContextLossConfig()


def normalize_embedding(v: np.ndarray) -> np.ndarray:
    """The encoder's soft normalization of one vector (identity weights)."""
    return encode(np.eye(v.size), v[None])[0]


class TestNormalizeEmbedding:
    def test_unit_vector_nearly_unchanged(self):
        v = np.array([1.0, 0.0])
        out = normalize_embedding(v)
        assert np.abs(out - v).max() <= 1e-7

    def test_zero_vector_degenerate(self):
        out = normalize_embedding(np.zeros(3))
        assert (out == 0.0).all()

    def test_norm_formula_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-5, 5, 4)
            out = normalize_embedding(v)
            norm = np.linalg.norm(v)
            assert np.linalg.norm(out) == pytest.approx(norm / (norm + EMBEDDING_EPS), rel=1e-12)

    @pytest.mark.parametrize("magnitude", [1e155, 1e200, 1e300])
    def test_huge_rows_keep_unit_norm(self, magnitude):
        # the squares overflow, and raw / (inf + eps) used to collapse the row to 0
        states = np.array([[1.0, -2.0], [3.0, 0.5], [0.3, 0.1]])
        weights = np.array([[1.0, 0.0], [0.5, 2.0], [-1.0, 1.0]])
        huge = np.stack([weights * magnitude, weights])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = encode(huge, states)
        np.testing.assert_allclose(np.linalg.norm(out[0], axis=-1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(out[0], encode(weights, states), rtol=1e-7)
        # the other map and every ordinary row keep their bits
        assert (out[1] == encode(weights, states)).all()


class TestConsistencyLoss:
    def test_identical_embeddings_give_sqrt_eps(self):
        vec = np.array([0.3, -0.4])
        vectors, ids = np.stack([vec, vec, vec, -vec, -vec]), np.array([0, 0, 0, 1, 1])
        cons = context_loss(vectors, ids, ContextLossConfig(eps=1e-6)).consistency
        assert cons == pytest.approx(math.sqrt(1e-6), abs=1e-12)

    def test_spread_mode_increases_loss(self):
        tight = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        spread = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
        ids = np.array([0, 0, 1, 1])
        assert (
            context_loss(spread, ids, CONFIG).consistency
            > context_loss(tight, ids, CONFIG).consistency
        )

    def test_matches_two_pass_variance_oracle(self):
        rng = np.random.default_rng(1)
        vectors = rng.uniform(-1, 1, (30, 3))
        ids = np.repeat([0, 1, 2], 10)
        # independent oracle: two-pass variance, summed over dimensions
        eps = 1e-6
        terms = []
        for m in (0, 1, 2):
            group = vectors[ids == m]
            mean = group.sum(axis=0) / len(group)
            var = ((group - mean) ** 2).sum(axis=0) / len(group)
            terms.append(math.sqrt(var.sum() + eps))
        expected = sum(terms) / 3
        cons = context_loss(vectors, ids, ContextLossConfig(eps=eps)).consistency
        assert cons == pytest.approx(expected, abs=1e-10)

    def test_short_mode_rejected(self):
        with pytest.raises(ValueError, match="mode 1"):
            context_loss(np.zeros((3, 2)), np.array([0, 0, 1]), CONFIG)


class TestDiversityLoss:
    def test_single_mode_value(self):
        eps = 1e-6
        assert diversity_loss(np.array([[0.3, 0.4]]), ContextLossConfig(eps=eps)) == pytest.approx(
            -math.log(1.0 + eps), abs=1e-12
        )

    def test_two_identical_means_2x2_formula(self):
        eps = 1e-6
        means = np.array([[0.5, 0.5], [0.5, 0.5]])
        # independent oracle: 2x2 determinant in closed form
        det = (1.0 + eps) ** 2 - 1.0
        config = ContextLossConfig(r_rbf=2.0, eps=eps)
        assert diversity_loss(means, config) == pytest.approx(-math.log(det), rel=1e-9)
        assert diversity_loss(means, config) > 10.0  # collapsed means are punished

    def test_strictly_decreasing_in_separation(self):
        losses = [
            diversity_loss(np.array([[0.0, 0.0], [d, 0.0]]), CONFIG)
            for d in np.linspace(0.0, 3.0, 20)
        ]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(3)
        means = rng.uniform(-1, 1, (4, 2))
        r, eps = 0.7, 1e-4  # off the defaults, so both are read from the config
        diff = means[:, None, :] - means[None, :, :]
        kernel = np.exp(-r * (diff**2).sum(-1)) + eps * np.eye(4)
        sign, logdet = np.linalg.slogdet(kernel)
        assert sign > 0
        config = ContextLossConfig(r_rbf=r, eps=eps)
        assert diversity_loss(means, config) == pytest.approx(-logdet, rel=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            diversity_loss(np.array([[np.inf, 0.0]]), CONFIG)


class TestContextLoss:
    def test_zero_weights_zero_total(self):
        config = ContextLossConfig(w_cons=0.0, w_div=0.0)
        rng = np.random.default_rng(4)
        vectors, ids = rng.uniform(-1, 1, (8, 2)), np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert context_loss(vectors, ids, config).total == 0.0

    def test_weight_linearity(self):
        rng = np.random.default_rng(5)
        vectors, ids = rng.uniform(-1, 1, (8, 2)), np.array([0, 0, 0, 0, 1, 1, 1, 1])
        single = context_loss(vectors, ids, ContextLossConfig(w_cons=50.0, w_div=0.0))
        double = context_loss(vectors, ids, ContextLossConfig(w_cons=100.0, w_div=0.0))
        assert double.total == pytest.approx(2 * single.total, rel=1e-12)

    def test_tight_separated_beats_loose_collapsed(self):
        rng = np.random.default_rng(6)
        ids = np.repeat([0, 1], 10)
        tight = np.vstack(
            [
                rng.normal([1.0, 0.0], 0.01, (10, 2)),
                rng.normal([-1.0, 0.0], 0.01, (10, 2)),
            ]
        )
        loose = np.vstack(
            [
                rng.normal([0.1, 0.0], 0.5, (10, 2)),
                rng.normal([-0.1, 0.0], 0.5, (10, 2)),
            ]
        )
        assert (
            context_loss(tight, ids, CONFIG).total
            < context_loss(loose, ids, CONFIG).total
        )

    def test_invariant_under_sample_and_label_permutation(self):
        rng = np.random.default_rng(7)
        vectors = rng.uniform(-1, 1, (12, 2))
        ids = np.repeat([0, 1, 2], 4)
        base = context_loss(vectors, ids, CONFIG)
        perm = rng.permutation(12)
        shuffled = context_loss(vectors[perm], ids[perm], CONFIG)
        assert shuffled.total == pytest.approx(base.total, rel=1e-10)
        relabeled = context_loss(vectors, 2 - ids, CONFIG)
        assert relabeled.total == pytest.approx(base.total, rel=1e-10)


class TestBatchedLoss:
    @pytest.mark.parametrize("d_e, d_s", [(1, 2), (2, 2), (3, 4)])
    def test_stack_equals_context_loss_map_by_map(self, d_e, d_s):
        # the fitter scores a (K, d_e, d_s) stack of maps at once; each entry
        # must be the loss of its map alone, bit for bit
        rng = np.random.default_rng(d_e * 10 + d_s)
        states = rng.normal(0.0, 1.0, (30, d_s))
        ids = rng.integers(0, 3, 30)
        ids[:6] = [0, 0, 1, 1, 2, 2]  # every regime has two samples
        config = ContextLossConfig(d_e=d_e)
        weights = rng.normal(0.0, 1.0, (7, d_e, d_s))
        totals, cons, divs = _context_losses(encode(weights, states), ids, config)
        for k, w in enumerate(weights):
            single = context_loss(encode(w, states), ids, config)
            assert (totals[k], cons[k], divs[k]) == single
            assert (encode(weights, states)[k] == encode(w, states)).all()


class TestFitLinearContext:
    def test_never_worse_than_initialization(self):
        states, ids = separable_context_dataset(0)
        rng = np.random.default_rng(0)
        init = rng.normal(0.0, 1.0, (2, 2))  # same init draw as the fitter's seed 0

        def loss_of(weights):
            embedded = states @ weights.T
            embedded = embedded / (np.linalg.norm(embedded, axis=1, keepdims=True) + 1e-8)
            return context_loss(embedded, ids, CONFIG).total

        fitted = fit_linear_context((states, ids), CONFIG, steps=40, lr=0.1, seed=0)
        assert loss_of(fitted) <= loss_of(init) + 1e-12

    def test_separable_dataset_reaches_wide_mode_means(self):
        states, ids = separable_context_dataset(1)
        weights = fit_linear_context((states, ids), CONFIG, steps=150, lr=0.1, seed=1)
        embedded = states @ weights.T
        embedded = embedded / (np.linalg.norm(embedded, axis=1, keepdims=True) + 1e-8)
        means = mode_means(embedded, ids)
        assert np.linalg.norm(means[0] - means[1]) >= 0.5

    def test_shuffled_labels_improve_less(self):
        states, ids = separable_context_dataset(2)
        rng = np.random.default_rng(3)
        shuffled = rng.permutation(ids)

        def improvement(labels):
            def loss_of(weights):
                embedded = states @ weights.T
                embedded = embedded / (np.linalg.norm(embedded, axis=1, keepdims=True) + 1e-8)
                return context_loss(embedded, labels, CONFIG).total

            init_rng = np.random.default_rng(4)
            init = init_rng.normal(0.0, 1.0, (2, 2))
            fitted = fit_linear_context((states, labels), CONFIG, steps=120, lr=0.1, seed=4)
            return loss_of(init) - loss_of(fitted)

        assert improvement(ids) > improvement(shuffled)

    def test_deterministic_in_seed(self):
        states, ids = separable_context_dataset(5)
        a = fit_linear_context((states, ids), CONFIG, steps=20, lr=0.1, seed=9)
        b = fit_linear_context((states, ids), CONFIG, steps=20, lr=0.1, seed=9)
        assert (a == b).all()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_matches_descent_with_one_loss_call_per_map(self, seed):
        # the fitter's batched steps against plain finite differences, one map at a time
        states, ids = separable_context_dataset(seed)
        config = ContextLossConfig()

        def loss_of(w):
            return context_loss(encode(w, states), ids, config).total

        weights = np.random.default_rng(seed).normal(0.0, 1.0, (2, 2))
        best_w, best_loss = weights, loss_of(weights)
        for _ in range(15):
            grad = np.empty_like(weights)
            for i, j in np.ndindex(*weights.shape):
                plus, minus = weights.copy(), weights.copy()
                plus[i, j] += 1e-5
                minus[i, j] -= 1e-5
                grad[i, j] = (loss_of(plus) - loss_of(minus)) / 2e-5
            weights = weights - 0.1 * grad
            if loss_of(weights) < best_loss:
                best_w, best_loss = weights, loss_of(weights)
        fitted = fit_linear_context((states, ids), config, steps=15, lr=0.1, seed=seed)
        assert (fitted == best_w).all()

    def test_validation(self):
        states = np.zeros((4, 2))
        with pytest.raises(ValueError, match="2 modes"):
            fit_linear_context((states, np.zeros(4, dtype=int)), CONFIG)
        with pytest.raises(ValueError, match=">= 2 samples"):
            fit_linear_context((states, np.array([0, 0, 0, 1])), CONFIG)

    def test_no_steps_returns_the_seeded_weights(self):
        fitted = fit_linear_context(separable_context_dataset(0), CONFIG, steps=0, seed=3)
        assert (fitted == np.random.default_rng(3).normal(0.0, 1.0, (2, 2))).all()

    @pytest.mark.parametrize("steps", [0, 3])
    def test_one_sample_mode_is_refused_by_name(self, steps):
        states = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5], [0.1, 0.9]])
        with pytest.raises(ValueError, match="^mode 2 has 1 sample\\(s\\); every mode needs >= 2 samples$"):
            fit_linear_context((states, np.array([0, 0, 1, 2, 1])), CONFIG, steps=steps)


class TestLabeledInput:
    LOSS_IDS = np.array([0, 0, 1, 1])

    @staticmethod
    def _calls(ids):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        return {
            "context_loss": lambda: context_loss(vectors, ids, CONFIG),
            "mode_means": lambda: mode_means(vectors, ids),
            "fit_linear_context": lambda: fit_linear_context((vectors, ids), CONFIG, steps=1),
        }

    @pytest.mark.parametrize("function", ["context_loss", "mode_means", "fit_linear_context"])
    @pytest.mark.parametrize("label", [0.6, np.nan], ids=["fraction", "nan"])
    def test_label_that_is_not_whole_is_refused(self, function, label):
        # a fractional label used to be truncated, scoring [0, 0.6, 1.2, 1.9] as [0, 0, 1, 1]
        ids = np.array([0.0, label, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"mode_ids must be whole numbers, got (0\.6|nan)"):
            self._calls(ids)[function]()

    @pytest.mark.parametrize("function", ["context_loss", "mode_means", "fit_linear_context"])
    def test_whole_float_labels_score_as_integers(self, function):
        as_floats = self._calls(self.LOSS_IDS.astype(float))[function]()
        as_ints = self._calls(self.LOSS_IDS)[function]()
        assert np.array_equal(as_floats, as_ints)

    @pytest.mark.parametrize(
        "vectors, ids, match",
        [
            (np.zeros((0, 2)), np.zeros(0, dtype=int), "n >= 1"),
            (np.zeros(4), LOSS_IDS, r"\(n, d\)"),
            (np.array([[0.0, 0.0], [np.inf, 0.0], [1.0, 1.0], [1.0, 1.0]]), LOSS_IDS, "non-finite"),
            (np.zeros((4, 2)), np.array([0, 0, 1]), "does not match 4 rows"),
            (np.zeros((4, 2)), np.array(["a", "a", "b", "b"]), "whole numbers, got a"),
        ],
        ids=["empty", "one_dimensional", "non_finite", "label_count", "text_labels"],
    )
    def test_labeled_arrays_are_checked(self, vectors, ids, match):
        for call in (
            lambda: context_loss(vectors, ids, CONFIG),
            lambda: mode_means(vectors, ids),
            lambda: fit_linear_context((vectors, ids), CONFIG),
        ):
            with pytest.raises(ValueError, match=match):
                call()


class TestContextLossConfig:
    @pytest.mark.parametrize(
        "field, value, bound",
        [
            ("w_cons", -1.0, ">= 0"),
            ("w_div", -1.0, ">= 0"),
            ("r_rbf", 0.0, "> 0"),
            ("eps", 0.0, "> 0"),
        ],
    )
    def test_float_field_must_be_finite_and_in_range(self, field, value, bound):
        # finiteness is checked per slot in tests/test_mdp.py::TestScalarFields
        with pytest.raises(ValueError, match=f"^{field} must be {bound}, got {value}$"):
            ContextLossConfig(**{field: value})

    @pytest.mark.parametrize("d_e", [0], ids=["0"])
    def test_d_e_must_be_a_positive_integer(self, d_e):
        # bools, fractions and whole floats are checked per slot in tests/test_mdp.py::TestScalarFields
        with pytest.raises(ValueError, match=f"^d_e must be >= 1, got {d_e}$"):
            ContextLossConfig(d_e=d_e)

    def test_numpy_integer_d_e_is_accepted(self):
        config = ContextLossConfig(d_e=np.int64(3))
        assert fit_linear_context(separable_context_dataset(0), config, steps=1).shape == (3, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: diversity_loss(np.zeros(3), CONFIG), "means must be (M, d_e) with M >= 1, got (3,)"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=-1),
         "steps must be >= 0, got -1"),
        # numpy refused it as an "expected non-negative integer", naming no argument
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, seed=-1),
         "seed must be >= 0, got -1"),
        # lr was never read: True ran as 1.0, -0.1 ascended, 0 never moved, an
        # array scaled each column and text or None failed inside numpy
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr=True),
         "lr must be a finite number, got True"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr=-0.1),
         "lr must be > 0, got -0.1"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr=0),
         "lr must be > 0, got 0.0"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr=np.array([0.1, 0.2])),
         "lr must be a finite number, got array([0.1, 0.2])"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr="a"),
         "lr must be a finite number, got 'a'"),
        (lambda: fit_linear_context(separable_context_dataset(0), CONFIG, steps=1, lr=None),
         "lr must be a finite number, got None"),
    ],
    ids=["one_dimensional_means", "negative_steps", "negative_seed", "bool_lr", "negative_lr", "zero_lr",
         "array_lr", "text_lr", "none_lr"],
)
def test_invalid_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
