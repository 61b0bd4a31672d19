"""Loss values against hand arithmetic and gradients against finite differences."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import LossSpec, batch_loss, softmax

from conftest import cb_focal_term, finite_difference_grad, max_relative_error


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


LN2 = math.log(2)


class TestFocalLoss:
    """The focal term of ``batch_loss`` at cb_beta = 0, where every class weight is 1."""

    def test_gamma_zero_is_cross_entropy(self):
        assert cb_focal_term(0.2, 0.0, 0.0, 1) == pytest.approx(-math.log(0.2), abs=1e-12)
        assert cb_focal_term(0.2, 0.0, 0.0, 1) == pytest.approx(1.60944, abs=1e-5)

    def test_perfectly_classified_is_zero(self):
        # exp(-800) underflows to 0, so the true class's probability is exactly 1.
        for gamma in (0.0, 0.5, 2.0, 5.0):
            value = batch_loss(np.array([[0.0, -800.0]]), [0], [1, 1],
                               LossSpec(kind="cb_focal", gamma=gamma, cb_beta=0.0))
            assert value.per_instance[0] == 0.0

    def test_direct_evaluation(self):
        assert cb_focal_term(0.9, 2.0, 0.0, 1) == pytest.approx(0.01 * 0.105361, rel=1e-4)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = float(rng.uniform(1e-6, 1.0))
            gamma = float(rng.uniform(0.0, 5.0))
            expected = (1 - p) ** gamma * -math.log(p)
            assert cb_focal_term(p, gamma, 0.0, 1) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=0.0, max_value=8.0))
    def test_nonincreasing_in_p(self, p1, p2, gamma):
        # The softmax recovers p to a few ulps, so p's a few ulps apart may
        # swap their losses by up to 5.6e-16 (largest of 10^5 such pairs).
        lo, hi = sorted((p1, p2))
        assert cb_focal_term(lo, gamma, 0.0, 1) >= cb_focal_term(hi, gamma, 0.0, 1) - 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.floats(min_value=0.0, max_value=8.0), st.floats(min_value=0.0, max_value=8.0))
    def test_nonincreasing_in_gamma(self, p, g1, g2):
        lo, hi = sorted((g1, g2))
        assert cb_focal_term(p, hi, 0.0, 1) <= cb_focal_term(p, lo, 0.0, 1) + 1e-15


class TestCBWeight:
    """The class weight (1-beta)/(1-beta^n) of ``batch_loss``: at gamma = 0 and
    p = 1/2 its cb_focal term is the weight times ln 2."""

    def test_single_sample_weight_one(self):
        assert cb_focal_term(0.5, 0.0, 0.9, 1) == pytest.approx(LN2, abs=1e-15)

    def test_two_samples(self):
        assert cb_focal_term(0.5, 0.0, 0.9, 2) == pytest.approx(0.1 / 0.19 * LN2, abs=1e-12)
        assert cb_focal_term(0.5, 0.0, 0.9, 2) / LN2 == pytest.approx(0.526316, abs=1e-6)

    def test_saturates_at_one_minus_beta(self):
        assert cb_focal_term(0.5, 0.0, 0.9, 10**6) == pytest.approx(0.1 * LN2, abs=1e-12)

    def test_beta_zero_unit_weight(self):
        for n in (1, 5, 1000):
            assert cb_focal_term(0.5, 0.0, 0.0, n) == LN2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=0.0, max_value=0.999))
    def test_bounded_and_decreasing(self, n, beta):
        term = cb_focal_term(0.5, 0.0, beta, n)
        assert (1 - beta) * LN2 - 1e-12 < term <= LN2
        assert cb_focal_term(0.5, 0.0, beta, n + 1) <= term + 1e-15


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
        assert cb.total == ce.total
        assert np.array_equal(cb.per_instance, ce.per_instance)
        assert np.array_equal(cb.grad_logits, ce.grad_logits)

    def test_focal_gamma_zero_equals_cross_entropy_bitwise(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        counts = np.array([40, 12, 7, 3, 1])
        ce = batch_loss(logits, labels, None, LossSpec(kind="cross_entropy"))
        focal = batch_loss(logits, labels, counts,
                           LossSpec(kind="cb_focal", gamma=0.0, cb_beta=0.0))
        assert np.array_equal(ce.per_instance, focal.per_instance)
        assert np.array_equal(ce.grad_logits, focal.grad_logits)

    def test_cb_weighting_scales_each_instance(self):
        logits = np.zeros((2, 2))
        counts = np.array([1, 4])
        value = batch_loss(logits, [0, 1], counts,
                           LossSpec(kind="cb_focal", gamma=0.0, cb_beta=0.9))
        expected0 = LN2
        expected1 = 0.1 / (1 - 0.9 ** 4) * LN2
        np.testing.assert_allclose(value.per_instance, [expected0, expected1], atol=1e-12)

    @pytest.mark.parametrize("counts", [None, [3, 4]], ids=["none", "too_few"])
    def test_cb_focal_without_a_count_per_class(self, counts):
        with pytest.raises(ValueError, match="cb_focal needs one training count per class"):
            batch_loss(np.zeros((2, 3)), [0, 2], counts,
                       LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            batch_loss(np.zeros((1, 3)), [3], None, LossSpec(kind="cross_entropy"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(kind="cross_entropy", gamma=2.0)
        with pytest.raises(ValueError):
            LossSpec(kind="focal", gamma=2.0)
        with pytest.raises(ValueError):
            LossSpec(kind="cb_focal", gamma=1.0)
        with pytest.raises(ValueError):
            LossSpec(kind="cb_focal", cb_beta=0.9)
        with pytest.raises(ValueError):
            LossSpec(kind="nope")

    def test_cb_beta_upper_edge(self):
        LossSpec(kind="cb_focal", gamma=2.0, cb_beta=math.nextafter(1.0, 0.0))
        with pytest.raises(ValueError, match=re.escape("cb_beta must lie in [0, 1)")):
            LossSpec(kind="cb_focal", gamma=2.0, cb_beta=1.0)


class TestGradientsAgainstFiniteDifferences:
    SPECS = [
        LossSpec(kind="cross_entropy"),
        LossSpec(kind="cb_focal", gamma=0.5, cb_beta=0.0),
        LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.0),
        LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-g{s.gamma}"
                             + ("-b0" if s.cb_beta == 0.0 else ""))
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
