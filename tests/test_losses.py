"""Loss values against hand arithmetic and gradients against finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import LossSpec, batch_loss, cb_weight, focal_loss, softmax

from conftest import finite_difference_grad, max_relative_error


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_ln2_closed_form(self):
        np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(rng.normal(scale=10, size=(50, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        assert focal_loss(0.2, 0.0) == pytest.approx(-math.log(0.2), abs=1e-12)
        assert focal_loss(0.2, 0.0) == pytest.approx(1.60944, abs=1e-5)

    def test_perfectly_classified_is_zero(self):
        for gamma in (0.0, 0.5, 2.0, 5.0):
            assert focal_loss(1.0, gamma) == 0.0

    def test_direct_evaluation(self):
        assert focal_loss(0.9, 2.0) == pytest.approx(0.01 * 0.105361, rel=1e-4)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = float(rng.uniform(1e-6, 1.0))
            gamma = float(rng.uniform(0.0, 5.0))
            expected = (1 - p) ** gamma * -math.log(p)
            assert focal_loss(p, gamma) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=0.0, max_value=8.0))
    def test_nonincreasing_in_p(self, p1, p2, gamma):
        lo, hi = sorted((p1, p2))
        assert focal_loss(lo, gamma) >= focal_loss(hi, gamma)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=0.0, max_value=8.0), st.floats(min_value=0.0, max_value=8.0))
    def test_nonincreasing_in_gamma(self, p, g1, g2):
        lo, hi = sorted((g1, g2))
        assert focal_loss(p, hi) <= focal_loss(p, lo) + 1e-15


class TestCBWeight:
    def test_single_sample_weight_one(self):
        assert cb_weight(1, 0.9) == pytest.approx(1.0, abs=1e-15)

    def test_two_samples(self):
        assert cb_weight(2, 0.9) == pytest.approx(0.1 / 0.19, abs=1e-12)
        assert cb_weight(2, 0.9) == pytest.approx(0.526316, abs=1e-6)

    def test_saturates_at_one_minus_beta(self):
        assert cb_weight(10**6, 0.9) == pytest.approx(0.1, abs=1e-12)

    def test_beta_zero_unit_weight(self):
        for n in (1, 5, 1000):
            assert cb_weight(n, 0.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0.0, max_value=0.999))
    def test_bounded_and_decreasing(self, n, beta):
        w = cb_weight(n, beta)
        assert (1 - beta) - 1e-12 < w <= 1.0
        assert cb_weight(n + 1, beta) <= w + 1e-15


class TestBatchLoss:
    def test_cross_entropy_closed_form(self):
        value = batch_loss(np.array([[0.0, 0.0]]), [0], None,
                           LossSpec(kind="cross_entropy"))
        assert value.total == pytest.approx(math.log(2), abs=1e-12)
        np.testing.assert_allclose(value.grad_logits, [[-0.5, 0.5]], atol=1e-12)

    def test_total_is_mean_of_per_instance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        value = batch_loss(logits, labels, None, LossSpec(kind="cross_entropy"))
        assert value.total == pytest.approx(value.per_instance.mean(), abs=1e-15)

    def test_cb_focal_degenerates_to_cross_entropy(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        counts = np.array([50, 5, 2])
        ce = batch_loss(logits, labels, counts, LossSpec(kind="cross_entropy"))
        cb = batch_loss(logits, labels, counts,
                        LossSpec(kind="cb_focal", gamma=0.0, cb_beta=0.0))
        np.testing.assert_allclose(cb.total, ce.total, atol=1e-12)
        np.testing.assert_allclose(cb.grad_logits, ce.grad_logits, atol=1e-12)

    def test_focal_gamma_zero_equals_cross_entropy_bitwise(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        ce = batch_loss(logits, labels, None, LossSpec(kind="cross_entropy"))
        focal = batch_loss(logits, labels, None, LossSpec(kind="focal", gamma=0.0))
        assert np.array_equal(ce.per_instance, focal.per_instance)
        assert np.array_equal(ce.grad_logits, focal.grad_logits)

    def test_cb_weighting_scales_each_instance(self):
        logits = np.zeros((2, 2))
        counts = np.array([1, 4])
        value = batch_loss(logits, [0, 1], counts,
                           LossSpec(kind="cb_focal", gamma=0.0, cb_beta=0.9))
        expected0 = cb_weight(1, 0.9) * math.log(2)
        expected1 = cb_weight(4, 0.9) * math.log(2)
        np.testing.assert_allclose(value.per_instance, [expected0, expected1], atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            batch_loss(np.zeros((1, 3)), [3], None, LossSpec(kind="cross_entropy"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(kind="cross_entropy", gamma=2.0)
        with pytest.raises(ValueError):
            LossSpec(kind="focal")
        with pytest.raises(ValueError):
            LossSpec(kind="cb_focal", gamma=1.0)
        with pytest.raises(ValueError):
            LossSpec(kind="nope")


class TestGradientsAgainstFiniteDifferences:
    SPECS = [
        LossSpec(kind="cross_entropy"),
        LossSpec(kind="focal", gamma=0.5),
        LossSpec(kind="focal", gamma=2.0),
        LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-g{s.gamma}")
    def test_randomized_trials(self, spec):
        rng = np.random.default_rng(42)
        for _ in range(25):
            batch = int(rng.integers(1, 9))
            num_classes = int(rng.integers(2, 11))
            logits = rng.normal(scale=2.0, size=(batch, num_classes))
            labels = rng.integers(0, num_classes, size=batch)
            counts = rng.integers(1, 500, size=num_classes)
            value = batch_loss(logits, labels, counts, spec)
            numeric = finite_difference_grad(logits, labels, counts, spec)
            assert max_relative_error(value.grad_logits, numeric) < 1e-5

    def test_near_saturated_probabilities_stay_finite(self):
        logits = np.array([[30.0, -30.0], [-30.0, 30.0]])
        for spec in self.SPECS:
            value = batch_loss(logits, [0, 0], np.array([3, 7]), spec)
            assert np.isfinite(value.grad_logits).all()
            assert np.isfinite(value.total)
