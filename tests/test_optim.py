"""Learning-rate schedule endpoints and the decoupled adaptive optimizer."""
import math
import re

import numpy as np
import pytest

from longtail_lab import OptimSpec, OptimState, lr_at, optimizer_step


class TestSchedule:
    def test_starts_at_zero(self):
        assert lr_at(0, 100, 10, 0.01) == 0.0

    def test_peaks_exactly_at_warmup_end(self):
        assert lr_at(10, 100, 10, 0.01) == 0.01

    def test_midpoint_is_half(self):
        assert lr_at(10 + 45, 100, 10, 0.01) == pytest.approx(0.005, abs=1e-15)

    def test_final_step_is_zero(self):
        assert lr_at(100, 100, 10, 0.01) == 0.0

    def test_no_warmup_starts_at_peak(self):
        assert lr_at(0, 50, 0, 0.02) == 0.02

    def test_linear_during_warmup(self):
        for step in range(10):
            assert lr_at(step, 100, 10, 1.0) == pytest.approx(step / 10, abs=1e-15)

    def test_continuous_peaked_then_nonincreasing(self):
        values = [lr_at(s, 200, 20, 1.0) for s in range(201)]
        assert max(values) == values[20]
        for a, b in zip(values[20:], values[21:]):
            assert b <= a + 1e-15
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(deltas) < 0.06  # no jumps: continuous at the seam

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            lr_at(101, 100, 10, 0.01)
        with pytest.raises(ValueError):
            lr_at(5, 100, 100, 0.01)


class TestOptimizerStep:
    def test_zero_lr_zero_decay_leaves_params(self):
        spec = OptimSpec(weight_decay=0.0, seed=0)
        param = np.array([1.0, -2.0])
        state = OptimState(param)
        optimizer_step(param, np.array([0.3, -0.7]), state, spec, lr=0.0)
        np.testing.assert_array_equal(param, [1.0, -2.0])

    def test_single_step_moves_by_lr(self):
        # Bias correction makes the first update lr * g / (|g| + eps') ~ lr.
        spec = OptimSpec(weight_decay=0.0, seed=0)
        param = np.array([0.5])
        state = OptimState(param)
        optimizer_step(param, np.array([1.0]), state, spec, lr=1e-3)
        assert param[0] == pytest.approx(0.5 - 1e-3, rel=1e-6)

    def test_decoupled_decay_shrinks_geometrically(self):
        spec = OptimSpec(weight_decay=0.1, seed=0)
        param = np.array([2.0])
        state = OptimState(param)
        lr = 0.5
        for _ in range(5):
            optimizer_step(param, np.zeros(1), state, spec, lr=lr)
        assert param[0] == pytest.approx(2.0 * (1 - lr * 0.1) ** 5, rel=1e-12)

    def test_nonfinite_gradient_identifies_tensor(self):
        spec = OptimSpec(seed=0)
        param = np.zeros(5)
        state = OptimState(param)
        grad = np.array([0.0, 0.0, 0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="^non-finite gradient$"):
            optimizer_step(param, grad, state, spec, lr=0.01)

    def test_overflowing_square_sum_identifies_tensor(self):
        # Every value is finite, but the squares the second moment adds
        # overflow.  Like fit_head, the caller ignores numpy's overflow warning.
        spec = OptimSpec(seed=0)
        param = np.zeros(5)
        state = OptimState(param)
        grad = np.array([0.0, 0.0, 0.0, 1e200, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^overflowing gradient$"):
            optimizer_step(param, grad, state, spec, lr=0.01)
        grad[3] = -np.inf
        with pytest.raises(ValueError, match="^non-finite gradient$"):
            optimizer_step(param, grad, state, spec, lr=0.01)
        assert state.step == 0
        assert not any(a.any() for a in (param, state.m, state.v))

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(7)
            spec = OptimSpec(seed=0)
            param = rng.normal(size=9)
            state = OptimState(param)
            for step in range(50):
                optimizer_step(param, rng.normal(size=param.shape), state, spec,
                               lr=lr_at(step, 50, 5, 0.01))
            return param

        assert np.array_equal(run(), run())

    def test_quadratic_converges_under_default_schedule(self):
        # f(x) = 0.5 * (x0^2 + 4 x1^2), start at unit distance from the optimum.
        spec = OptimSpec(lr_init=0.01, weight_decay=1e-7, seed=0)
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        state = OptimState(x)
        scale = np.array([1.0, 4.0])

        def objective(v):
            return 0.5 * float(v @ (scale * v))

        start = objective(x)
        total, warmup = 500, 33
        for step in range(total):
            optimizer_step(x, scale * x, state, spec, lr=lr_at(step, total, warmup, spec.lr_init))
        assert objective(x) < 0.01 * start

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OptimSpec(lr_init=0.0)
        with pytest.raises(ValueError):
            OptimSpec(epochs=5, warmup_epochs=5)

    # Each bound: the value just inside it is accepted, the value at it is
    # rejected with its message.
    @pytest.mark.parametrize("inside, edge, message", [
        ({"beta1": math.nextafter(1.0, 0.0)}, {"beta1": 1.0},
         "beta1 and beta2 must lie in [0, 1)"),
        ({"beta2": math.nextafter(1.0, 0.0)}, {"beta2": 1.0},
         "beta1 and beta2 must lie in [0, 1)"),
        ({"eps": math.nextafter(0.0, 1.0)}, {"eps": 0.0}, "eps must be > 0"),
        ({"batch_size": 1}, {"batch_size": 0}, "batch_size must be >= 1"),
        ({"epochs": 1, "warmup_epochs": 0}, {"epochs": 1, "warmup_epochs": 1},
         "warmup_epochs must be smaller than epochs"),
    ], ids=["beta1", "beta2", "eps", "batch_size", "warmup_one_epoch"])
    def test_spec_edges(self, inside, edge, message):
        OptimSpec(**inside)
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimSpec(**edge)

    def test_for_classifier_regime(self):
        spec = OptimSpec()
        assert (spec.epochs, spec.warmup_epochs) == (30, 2)
        stage2 = spec.for_classifier()
        assert (stage2.epochs, stage2.warmup_epochs) == (12, 1)
