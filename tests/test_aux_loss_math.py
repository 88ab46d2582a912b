"""Word-loss arithmetic checked against frozen values and an independent
finite-difference oracle computed inside the tests."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navscribe.aux_loss_math import (GRAD_CHECK_TOLERANCE, LossBreakdown,
                                     WordTargets, finite_difference_grad,
                                     grad_logits, gradient_check, log_softmax,
                                     nll, sequence_loss, word_loss)

# 10 equally likely classes; each NLL is ln 10.
LN10 = math.log(10.0)


class TestLogSoftmax:
    def test_uniform_logits(self):
        lp = log_softmax(np.zeros(10))
        assert np.allclose(lp, -LN10, atol=1e-12)

    def test_sums_to_one(self):
        lp = log_softmax([3.0, -1.0, 0.5, 7.0])
        assert math.fsum(np.exp(lp)) == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        a = log_softmax([1.0, 2.0, 3.0])
        b = log_softmax([1001.0, 1002.0, 1003.0])
        assert np.allclose(a, b, atol=1e-9)

    def test_extreme_logits_stay_finite(self):
        lp = log_softmax([1000.0, -1000.0, 0.0])
        assert np.all(np.isfinite(lp))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            log_softmax([])
        with pytest.raises(ValueError):
            log_softmax([1.0, math.inf])
        with pytest.raises(ValueError):
            log_softmax(np.zeros((2, 2)))

    @pytest.mark.parametrize("logits", [
        np.zeros((2, 1)), np.zeros((1, 3)), np.array(1.0), 2.0, "abc", [1.0, "2"],
        [[1.0], [2.0]], [1.0, None], [np.zeros(1), np.zeros(1)],
    ], ids=["column", "row", "0-d", "scalar", "string", "string-entry", "nested",
            "none-entry", "array-entries"])
    def test_rejects_everything_but_a_flat_vector(self, logits):
        with pytest.raises(ValueError, match="1-D vector"):
            log_softmax(logits)

    @pytest.mark.parametrize("logits", [[0.0, math.nan], [-math.inf, 0.0], [1, 10**400]])
    def test_rejects_non_finite_entries(self, logits):
        with pytest.raises(ValueError, match="finite"):
            log_softmax(logits)

    def test_results_are_plain_float_lists(self):
        targets = WordTargets((0, 1, 1), objects=(2,), crafted=0)
        logits = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        for out in (log_softmax(logits), grad_logits(logits, targets, lam=0.5, beta=0.3),
                    finite_difference_grad(logits, targets, lam=0.5, beta=0.3)):
            assert type(out) is list and len(out) == 3
            assert all(type(v) is float for v in out)


class TestFrozenValues:
    def test_three_originals_plus_crafted_uniform(self):
        # 3 * ln10 + 1 * ln10 with all classes tied.
        targets = WordTargets((0, 1, 2), crafted=3)
        out = word_loss(np.zeros(10), targets, beta=1.0)
        assert out.total == pytest.approx(4 * LN10, abs=1e-12)
        assert out.total == pytest.approx(9.210340371976184, abs=1e-9)

    def test_default_weights_uniform(self):
        # 3 * ln10 for the originals plus 0.3 * ln10 for the crafted word.
        targets = WordTargets((0, 0, 0), crafted=5)
        out = word_loss(np.zeros(10), targets, beta=0.3)
        assert out.total == pytest.approx(3.3 * LN10, abs=1e-12)
        assert out.total == pytest.approx(7.598530806880351, abs=1e-9)

    def test_single_nll_frozen(self):
        assert nll(log_softmax([2.0, 1.0, 0.0]), 0) == pytest.approx(
            0.4076059644443804, abs=1e-12)

    def test_uniform_nll_equals_log_vocab(self):
        for size in (2, 7, 16, 100):
            lp = log_softmax(np.zeros(size))
            assert nll(lp, size - 1) == pytest.approx(math.log(size), abs=1e-12)


class TestWordLoss:
    def test_breakdown_composition(self):
        targets = WordTargets((0, 1, 2), objects=(3, 4), crafted=5)
        out = word_loss([0.2, -0.3, 1.0, 0.0, 0.7, -1.1], targets, lam=0.5, beta=0.3)
        assert isinstance(out, LossBreakdown)
        assert out.total == pytest.approx(out.base + 0.5 * out.objects_term
                                          + 0.3 * out.crafted_term)

    def test_objects_only_helper(self):
        targets = WordTargets((1, 1, 1), objects=(0, 2))
        out = word_loss([0.3, 0.1, -0.2], targets, lam=0.5)
        assert out.beta == 0.0
        assert out.total == pytest.approx(out.base + 0.5 * out.objects_term)

    def test_lambda_without_objects_rejected(self):
        with pytest.raises(ValueError, match="object targets"):
            word_loss([0.0, 1.0], WordTargets((0, 1, 0)), lam=0.5)

    def test_beta_without_crafted_rejected(self):
        with pytest.raises(ValueError, match="crafted target"):
            word_loss([0.0, 1.0], WordTargets((0, 1, 0)), beta=0.3)

    def test_negative_weights_rejected(self):
        targets = WordTargets((0, 0, 0))
        with pytest.raises(ValueError):
            word_loss([0.0, 1.0], targets, lam=-0.1)

    def test_targets_need_three_originals(self):
        with pytest.raises(ValueError):
            WordTargets((0, 1))  # type: ignore[arg-type]

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            word_loss([0.0, 1.0], WordTargets((0, 5, 0)))


class TestSequenceLoss:
    def test_mean_over_words(self):
        logits = [np.zeros(4), np.zeros(4)]
        targets = [WordTargets((0, 1, 2)), WordTargets((3, 3, 3))]
        assert sequence_loss(logits, targets) == pytest.approx(3 * math.log(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            sequence_loss([np.zeros(3)], [])

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            sequence_loss([], [])


def _independent_fd(logits, targets, lam, beta, step=1e-6):
    """Oracle gradient built only from word_loss totals."""
    base = np.asarray(logits, dtype=np.float64)
    out = np.zeros_like(base)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += step
        down[i] -= step
        out[i] = (word_loss(up, targets, lam=lam, beta=beta).total
                  - word_loss(down, targets, lam=lam, beta=beta).total) / (2 * step)
    return out


class TestGradient:
    TARGETS = WordTargets((0, 1, 1), objects=(2, 3), crafted=0)

    def test_matches_independent_finite_differences(self):
        logits = np.array([0.4, -1.2, 2.0, 0.0, -0.3])
        analytic = grad_logits(logits, self.TARGETS, lam=0.5, beta=0.3)
        oracle = _independent_fd(logits, self.TARGETS, lam=0.5, beta=0.3)
        assert np.allclose(analytic, oracle, atol=1e-7)

    def test_matches_module_finite_differences(self):
        logits = np.array([1.0, 0.5, -0.5, 0.25])
        analytic = grad_logits(logits, self.TARGETS, lam=0.5, beta=0.3)
        fd = finite_difference_grad(logits, self.TARGETS, lam=0.5, beta=0.3)
        assert np.allclose(analytic, fd, atol=1e-6)

    def test_gradient_sums_to_zero(self):
        # Softmax losses are shift invariant, so components must cancel.
        logits = np.array([0.1, 0.2, -0.4, 0.9, -1.5])
        grad = grad_logits(logits, self.TARGETS, lam=0.5, beta=0.3)
        assert math.fsum(grad) == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=8))
    def test_gradient_property_random_logits(self, values):
        logits = np.asarray(values)
        targets = WordTargets((0, 1, 2), objects=(3, 3), crafted=1)
        analytic = grad_logits(logits, targets, lam=0.5, beta=0.3)
        oracle = _independent_fd(logits, targets, lam=0.5, beta=0.3)
        assert np.allclose(analytic, oracle, atol=5e-6)

    def test_full_check_passes_at_tolerance(self):
        report = gradient_check(instances=100, seed=7, max_vocab=16,
                                lam=0.5, n_objects=2, beta=0.3)
        assert report["passed"] is True
        assert report["instances"] == 100
        assert report["max_rel_error"] <= GRAD_CHECK_TOLERANCE
        assert report["tolerance"] == GRAD_CHECK_TOLERANCE

    @pytest.mark.parametrize("max_vocab", [1, 0, -3])
    def test_check_rejects_vocab_below_two(self, max_vocab):
        with pytest.raises(ValueError, match=f"max_vocab must be at least 2, got {max_vocab}"):
            gradient_check(instances=3, max_vocab=max_vocab)

    def test_check_accepts_two_word_vocab(self):
        assert gradient_check(instances=5, max_vocab=2)["passed"] is True

    def test_check_is_reproducible(self):
        a = gradient_check(instances=10, seed=3)
        b = gradient_check(instances=10, seed=3)
        assert a == b


def _numpy_reference(values, targets, lam, beta):
    """log_softmax and grad_logits written directly in numpy."""
    x = np.asarray(values, dtype=np.float64)
    shifted = x - np.max(x)
    log_probs = shifted - np.log(np.sum(np.exp(shifted)))
    grad = (3.0 + lam * len(targets.objects) + beta) * np.exp(log_probs)
    np.subtract.at(grad, list(targets.originals), 1.0)
    np.subtract.at(grad, list(targets.objects), lam)
    grad[targets.crafted] -= beta
    return log_probs, grad


@settings(max_examples=300)
@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=16), st.data(),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_pure_python_matches_numpy_reference(values, data, lam, beta):
    index = st.integers(0, len(values) - 1)
    targets = WordTargets(
        originals=tuple(data.draw(st.lists(index, min_size=3, max_size=3))),
        objects=tuple(data.draw(st.lists(index, min_size=1, max_size=4))),
        crafted=data.draw(index),
    )
    ref_log_probs, ref_grad = _numpy_reference(values, targets, lam, beta)
    for logits in (values, np.asarray(values)):
        assert np.allclose(log_softmax(logits), ref_log_probs, rtol=0.0, atol=1e-12)
        assert np.allclose(grad_logits(logits, targets, lam=lam, beta=beta), ref_grad,
                           rtol=0.0, atol=1e-12)
