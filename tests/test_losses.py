import math

import numpy as np
import pytest

from hypersimplex import (
    ClassBatch,
    HypersimplexSpec,
    cross_entropy_loss,
    hinge_loss,
    hypersimplex_loss,
    hypersimplex_loss_multiclass,
    loss_grad_from_residual,
    project,
    squared_loss,
    zero_one_loss,
)
from hypersimplex.projection import _WALK_MAX_N


def fd_scalar_grad(f, X, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    G = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        step = np.zeros_like(X)
        step[idx] = h
        G[idx] = (f(X + step) - f(X - step)) / (2 * h)
    return G


class TestZeroOneLoss:
    def test_perfect_predictions(self):
        scores = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert zero_one_loss(scores, np.array([0, 1])) == 0.0

    def test_all_wrong(self):
        scores = np.array([[0.0, 2.0], [3.0, 0.0]])
        assert zero_one_loss(scores, np.array([0, 1])) == 1.0

    def test_partial(self):
        scores = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert zero_one_loss(scores, np.array([1, 1, 2])) == pytest.approx(1 / 3)

    def test_argmax_ties_take_smallest_class(self):
        scores = np.array([[1.0, 1.0]])
        assert zero_one_loss(scores, np.array([0])) == 0.0
        assert zero_one_loss(scores, np.array([1])) == 1.0

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            zero_one_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            zero_one_loss(np.zeros((2, 3)), np.array([-1, 0]))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            zero_one_loss(np.zeros((2, 1)), np.array([0, 0]))


every_loss = pytest.mark.parametrize("loss", [
    zero_one_loss,
    squared_loss,
    cross_entropy_loss,
    hinge_loss,
    lambda scores, labels: hypersimplex_loss_multiclass(ClassBatch(scores, labels)),
], ids=["zero_one", "squared", "cross_entropy", "hinge", "hypersimplex_multiclass"])


@every_loss
def test_every_loss_rejects_an_empty_batch(loss):
    with pytest.raises(ValueError, match="empty batch"):
        loss(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@every_loss
@pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
def test_every_loss_rejects_scores_that_are_not_a_matrix(loss, shape):
    with pytest.raises(ValueError) as exc:
        loss(np.zeros(shape), np.zeros(2, dtype=np.int64))
    assert str(exc.value) == f"scores must be an n x C matrix, got shape {shape}"


class TestSquaredLoss:
    def test_zero_at_one_hot_scores(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        ev = squared_loss(scores, np.array([0, 1]))
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.grad, 0.0, atol=1e-15)

    def test_single_sample_arithmetic(self):
        ev = squared_loss(np.array([[0.5, 0.5]]), np.array([0]))
        assert ev.value == pytest.approx(0.5)
        np.testing.assert_allclose(ev.grad, [[-1.0, 1.0]], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(60)
        X = rng.normal(0, 1, (6, 4))
        labels = rng.integers(0, 4, 6)
        ev = squared_loss(X, labels)
        fd = fd_scalar_grad(lambda Z: squared_loss(Z, labels).value, X)
        np.testing.assert_allclose(ev.grad, fd, rtol=1e-6, atol=1e-8)


class TestCrossEntropyLoss:
    def test_uniform_logits_give_log_num_classes(self):
        for C in (2, 3, 7):
            ev = cross_entropy_loss(np.zeros((4, C)), np.zeros(4, dtype=int))
            assert ev.value == pytest.approx(math.log(C), abs=1e-12)

    def test_stable_under_large_score_shifts(self):
        scores = np.array([[1000.0, 999.0]])
        ev = cross_entropy_loss(scores, np.array([0]))
        assert math.isfinite(ev.value)
        assert ev.value == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        X = rng.normal(0, 2, (5, 3))
        labels = rng.integers(0, 3, 5)
        ev = cross_entropy_loss(X, labels)
        fd = fd_scalar_grad(lambda Z: cross_entropy_loss(Z, labels).value, X)
        np.testing.assert_allclose(ev.grad, fd, rtol=1e-6, atol=1e-8)


class TestHingeLoss:
    def test_satisfied_margin_gives_zero(self):
        scores = np.array([[2.5, 1.0, 0.0]])
        ev = hinge_loss(scores, np.array([0]))
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.grad, 0.0, atol=1e-15)

    def test_single_violation_arithmetic(self):
        # wrong class ahead by 0.5: margin term is 1 + 0.5
        ev = hinge_loss(np.array([[1.0, 1.5]]), np.array([0]))
        assert ev.value == pytest.approx(1.5)
        np.testing.assert_allclose(ev.grad, [[-1.0, 1.0]], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        X = rng.normal(0, 2, (6, 4))
        labels = rng.integers(0, 4, 6)
        margins = 1.0 + X - X[np.arange(6), labels][:, None]
        margins[np.arange(6), labels] = -1.0
        assert np.all(np.abs(margins) > 1e-3)  # seed chosen off the hinge kink
        ev = hinge_loss(X, labels)
        fd = fd_scalar_grad(lambda Z: hinge_loss(Z, labels).value, X)
        np.testing.assert_allclose(ev.grad, fd, rtol=1e-6, atol=1e-8)


class TestHypersimplexLoss:
    def test_worked_example(self):
        ev = hypersimplex_loss(np.array([3.0, 1.0, 0.5, -2.0]),
                               np.array([1.0, 1.0, 0.0, 0.0]),
                               HypersimplexSpec(4, 2, 1.0))
        assert ev.value == pytest.approx(0.0625, abs=1e-12)
        np.testing.assert_allclose(ev.grad, [0.0, -0.25, 0.25, 0.0], atol=1e-12)

    def test_zero_when_projection_hits_target(self):
        # scores far apart at tiny temperature project exactly onto the target
        ev = hypersimplex_loss(np.array([5.0, 3.0, -1.0]),
                               np.array([1.0, 1.0, 0.0]),
                               HypersimplexSpec(3, 2, 1e-6))
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.grad, 0.0, atol=1e-15)

    def test_saturated_rounding_target_gives_zero_gradient(self):
        spec = HypersimplexSpec(2, 1, 0.01)
        x = np.array([5.0, 0.0])
        ev = hypersimplex_loss(x, np.array([1.0, 0.0]), spec)
        np.testing.assert_allclose(ev.grad, 0.0, atol=1e-15)

    def test_value_bounded_by_half_n(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(0, n + 1))
            y = np.zeros(n)
            y[rng.permutation(n)[:int(rng.integers(0, n + 1))]] = 1.0
            x = rng.normal(0, 100, n)  # wild scores cannot unbound the loss
            ev = hypersimplex_loss(x, y, HypersimplexSpec(n, k, 1.0))
            assert 0.0 <= ev.value <= n / 2 + 1e-12

    def test_translation_invariant_in_scores(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            spec = HypersimplexSpec(n, int(rng.integers(0, n + 1)), 1.5)
            x = rng.normal(0, 2, n)
            y = np.zeros(n)
            y[rng.permutation(n)[:spec.k]] = 1.0
            c = float(rng.uniform(-20, 20))
            assert hypersimplex_loss(x + c, y, spec).value == pytest.approx(
                hypersimplex_loss(x, y, spec).value, abs=1e-9
            )

    def test_rejects_non_binary_target(self):
        with pytest.raises(ValueError):
            hypersimplex_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                              HypersimplexSpec(2, 1, 1.0))

    @pytest.mark.parametrize("target", [[1.0, 0.0, 0.0], [[1.0, 0.0]], [[1.0], [0.0]]])
    def test_rejects_target_of_the_wrong_shape(self, target):
        with pytest.raises(ValueError) as exc:
            hypersimplex_loss(np.array([1.0, 0.0]), target, HypersimplexSpec(2, 1, 1.0))
        assert str(exc.value) == f"target has shape {np.shape(target)}, expected (2,)"


def per_column_reference(logits, labels, tau, ks):
    """The multiclass loss built column by column from the binary loss with
    the given k_c, mean-reduced over the n samples."""
    n, C = logits.shape
    value = 0.0
    grad = np.empty((n, C))
    for c in range(C):
        binary = hypersimplex_loss(logits[:, c], (labels == c).astype(float),
                                   HypersimplexSpec(n, ks[c], tau))
        value += binary.value
        grad[:, c] = binary.grad
    return value / n, grad / n


class TestClassBatch:
    def test_from_labels_builds_consistent_batch(self):
        rng = np.random.default_rng(66)
        logits = rng.normal(0, 1, (6, 3))
        batch = ClassBatch.from_labels(logits, np.array([0, 0, 1, 2, 2, 2]), tau=0.5)
        assert batch.tau == 0.5
        assert batch.labels.tolist() == [0, 0, 1, 2, 2, 2]

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            ClassBatch.from_labels(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            ClassBatch(np.zeros((2, 3)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            ClassBatch(np.zeros((2, 3)), np.array([0.0, 1.0]))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            ClassBatch(np.zeros((3, 1)), np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("logit", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_logits(self, logit):
        logits = np.zeros((2, 2))
        logits[1, 0] = logit
        with pytest.raises(ValueError):
            ClassBatch.from_labels(logits, np.array([0, 1]))

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan, True, None, "0.5"])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError):
            ClassBatch(np.zeros((2, 2)), np.array([0, 1]), tau)


class TestHypersimplexLossMulticlass:
    def assert_uses_counts(self, logits, labels, tau, ks):
        ev = hypersimplex_loss_multiclass(ClassBatch(logits, labels, tau))
        value, grad = per_column_reference(logits, labels, tau, ks)
        assert ev.value == value
        assert ev.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("batch", [np.zeros((2, 2)), (np.zeros((2, 2)), np.array([0, 1]))])
    def test_rejects_what_is_not_a_class_batch(self, batch):
        with pytest.raises(TypeError) as exc:
            hypersimplex_loss_multiclass(batch)
        assert str(exc.value) == "batch must be a ClassBatch"

    def test_zero_on_exactly_projectable_logits(self):
        # columns already sit at hypersimplex vertices far from the threshold
        labels = np.array([0, 1, 1])
        logits = np.where(labels[:, None] == np.arange(2), 10.0, -10.0)
        batch = ClassBatch(logits, labels, tau=0.01)
        ev = hypersimplex_loss_multiclass(batch)
        assert ev.value == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(ev.grad, 0.0, atol=1e-15)

    def test_single_column_reduces_to_binary_loss(self):
        # each column is the binary loss with k_c from the labels, over n
        rng = np.random.default_rng(67)
        logits = rng.normal(0, 1, (5, 2))
        labels = np.array([1, 0, 1, 1, 0])
        self.assert_uses_counts(logits, labels, 0.7, [2, 3])

    def test_counts_label_occurrences_per_class(self):
        rng = np.random.default_rng(72)
        logits = rng.normal(0, 1, (6, 3))
        self.assert_uses_counts(logits, np.array([0, 0, 1, 2, 2, 2]), 0.5, [2, 1, 3])
        self.assert_uses_counts(logits[:4], np.array([0, 0, 1, 2]), 1.0, [2, 1, 1])

    def test_single_class_batch_counts(self):
        rng = np.random.default_rng(73)
        logits = rng.normal(0, 1, (4, 3))
        self.assert_uses_counts(logits, np.zeros(4, dtype=np.int64), 1.0, [4, 0, 0])

    def test_counts_sum_to_batch_size(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            n, C = int(rng.integers(1, 30)), int(rng.integers(2, 6))
            labels = rng.integers(0, C, n)
            ks = [int(np.count_nonzero(labels == c)) for c in range(C)]
            assert sum(ks) == n
            self.assert_uses_counts(rng.normal(0, 1, (n, C)), labels, 1.0, ks)

    def test_equals_per_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(71)
        # columns longer than the walk's limit solve theta with the numpy kernel
        assert _WALK_MAX_N < 300
        for n_lo, n_hi, cases in ((2, 40, 150), (40, 301, 60)):
            for i in range(cases):
                n, C = int(rng.integers(n_lo, n_hi)), int(rng.integers(2, 6))
                logits = rng.normal(0, 2, (n, C))
                if i % 3 == 1:  # a 0.25 grid: tied logits within and across columns
                    logits = np.round(logits * 4.0) / 4.0
                elif i % 3 == 2:  # signed zeros
                    logits[rng.random((n, C)) < 0.3] = 0.0
                    logits[rng.random((n, C)) < 0.3] = -0.0
                labels = rng.integers(0, C, n)
                tau = float(rng.choice([0.01, 0.5, 1.0, 2.0]))
                ev = hypersimplex_loss_multiclass(ClassBatch(logits, labels, tau))
                total = 0.0
                ref = np.empty((n, C))
                for c in range(C):
                    k = int(np.count_nonzero(labels == c))
                    res = project(logits[:, c], HypersimplexSpec(n, k, tau))
                    resid = res.y - (labels == c)
                    total += 0.5 * float(np.dot(resid, resid))
                    ref[:, c] = loss_grad_from_residual(res, resid)
                assert ev.value == total / n
                assert ev.grad.tobytes() == (ref / n).tobytes()
                # an F-ordered gradient may take another BLAS path in the backward pass
                assert ev.grad.flags.c_contiguous

    def test_absent_class_contributes_nothing(self):
        rng = np.random.default_rng(68)
        logits = rng.normal(0, 1, (4, 3))
        labels = np.array([0, 0, 1, 1])  # class 2 absent: k_2 = 0
        ev = hypersimplex_loss_multiclass(ClassBatch.from_labels(logits, labels))
        np.testing.assert_allclose(ev.grad[:, 2], 0.0, atol=1e-15)
        assert math.isfinite(ev.value)

    def test_gradient_columns_sum_to_zero(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            n, C = int(rng.integers(3, 12)), int(rng.integers(2, 5))
            logits = rng.normal(0, 1, (n, C))
            labels = rng.integers(0, C, n)
            ev = hypersimplex_loss_multiclass(ClassBatch.from_labels(logits, labels))
            np.testing.assert_allclose(ev.grad.sum(axis=0) * n, 0.0, atol=1e-9)

    def test_gradient_matches_finite_differences_away_from_boundaries(self):
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 20:
            logits = rng.normal(0, 2, (8, 3))
            labels = rng.integers(0, 3, 8)
            batch = ClassBatch.from_labels(logits, labels)
            # screen each class column away from its active-set changes
            margin = np.inf
            for c in range(3):
                k = int(np.count_nonzero(labels == c))
                res = project(logits[:, c], HypersimplexSpec(8, k, 1.0))
                d = logits[:, c] - res.theta
                margin = min(margin, float(np.min(np.minimum(np.abs(d), np.abs(d - 1.0)))))
            if margin <= 1e-3:
                continue
            ev = hypersimplex_loss_multiclass(batch)

            def total(Z):
                return hypersimplex_loss_multiclass(ClassBatch(Z, labels)).value

            fd = fd_scalar_grad(total, logits)
            # both sides carry the mean's 1/8, so compare them at sum scale
            np.testing.assert_allclose(ev.grad * 8, fd * 8, rtol=1e-5, atol=1e-7)
            checked += 1
