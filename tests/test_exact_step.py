"""The training step's arithmetic, bit for bit against its reference expressions.

Each ``reference_*`` function below is the plain, allocate-as-you-go form of
what ``softmax``, ``batch_loss`` and ``optimizer_step`` compute in place.  The
in-place forms must give the same bits, so every comparison is exact.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from longtail_lab import LossSpec, OptimSpec, OptimState, batch_loss, optimizer_step, softmax

PROB_FLOOR = 1e-12


def reference_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_focal_grad_factor(p, gamma):
    om = 1.0 - p
    if gamma == 0.0:
        return -np.ones_like(p)
    om_safe = np.where(om > 0, om, 1.0)
    modulating = gamma * p * om_safe ** (gamma - 1.0) * np.log(p)
    return np.where(om > 0, modulating, 0.0) - om ** gamma


def reference_batch_loss(logits, labels, counts, spec):
    """(total, per_instance, grad_logits) through the one-hot form."""
    batch = logits.shape[0]
    probs = reference_softmax(logits)
    p = np.maximum(probs[np.arange(batch), labels], PROB_FLOOR)
    gamma = 0.0 if spec.gamma is None else spec.gamma
    weights = np.ones(batch)
    if spec.kind == "cb_focal":
        weights = weights * (1.0 - spec.cb_beta) / (1.0 - spec.cb_beta ** counts[labels])
    per_instance = weights * (1.0 - p) ** gamma * (-np.log(p))
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), labels] = 1.0
    gfac = weights * reference_focal_grad_factor(p, gamma)
    grad = gfac[:, None] * (onehot - probs) / batch
    return float(per_instance.mean()), per_instance, grad


def reference_optimizer_step(params, grads, states, spec, lr):
    """The update tensor by tensor, each with its own state, one temporary per operation."""
    for p, g, state in zip(params, grads, states):
        state.step += 1
        t = state.step
        bias1 = 1.0 - spec.beta1 ** t
        bias2 = 1.0 - spec.beta2 ** t
        m, v = state.m, state.v
        p *= 1.0 - lr * spec.weight_decay
        m *= spec.beta1
        m += (1.0 - spec.beta1) * g
        v *= spec.beta2
        v += (1.0 - spec.beta2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + spec.eps)


SPECS = [
    LossSpec(kind="cross_entropy"),
    LossSpec(kind="cb_focal", gamma=0.0, cb_beta=0.0),
    LossSpec(kind="cb_focal", gamma=0.5, cb_beta=0.0),
    LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.0),
    LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.999),
]

finite = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw):
    batch = draw(st.integers(1, 9))
    classes = draw(st.integers(2, 7))
    logits = draw(arrays(np.float64, (batch, classes), elements=finite))
    labels = draw(arrays(np.int64, (batch,), elements=st.integers(0, classes - 1)))
    counts = draw(arrays(np.int64, (classes,), elements=st.integers(1, 5000)))
    return logits, labels, counts


class TestSoftmaxBits:
    @given(arrays(np.float64, st.integers(1, 12), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_reference_and_input_untouched(self, z):
        before = z.copy()
        assert np.array_equal(softmax(z), reference_softmax(z))
        assert np.array_equal(z, before)

    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 12)), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_reference_and_input_untouched(self, z):
        before = z.copy()
        assert np.array_equal(softmax(z), reference_softmax(z))
        assert np.array_equal(z, before)

    @given(arrays(np.float64, st.one_of(st.tuples(st.integers(1, 12)),
                                        st.tuples(st.integers(1, 9), st.integers(1, 12))),
                  elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_in_place_equals_reference(self, z):
        expected = reference_softmax(z)
        assert softmax(z, out=z) is z
        assert np.array_equal(z, expected)


class TestBatchLossBits:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.gamma}"
                             + ("-b0" if s.cb_beta == 0.0 else ""))
    @given(data=batches())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_and_logits_untouched(self, spec, data):
        logits, labels, counts = data
        before = logits.copy()
        value = batch_loss(logits, labels, counts, spec)
        total, per_instance, grad = reference_batch_loss(logits, labels, counts, spec)
        assert value.total == total
        assert np.array_equal(value.per_instance, per_instance)
        assert np.array_equal(value.grad_logits, grad)
        assert np.array_equal(logits, before)

    def test_saturated_rows_equal_reference(self):
        # p = 1 for the true class and p at the floor: the focal factor's edge cases.
        logits = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0], [1.0, 2.0, 3.0]])
        labels = np.array([0, 2, 1])
        for spec in SPECS:
            value = batch_loss(logits, labels, np.array([3, 40, 500]), spec)
            _, per_instance, grad = reference_batch_loss(logits, labels,
                                                         np.array([3, 40, 500]), spec)
            assert np.array_equal(value.per_instance, per_instance)
            assert np.array_equal(value.grad_logits, grad)


class TestFlatOptimizerBits:
    @pytest.mark.parametrize("weight_decay", [1e-7, 0.05])
    def test_flat_vector_equals_per_tensor_update(self, weight_decay):
        rng = np.random.default_rng(11)
        shapes = [(5, 3), (5,), (4, 5), (4,)]
        spec = OptimSpec(weight_decay=weight_decay, seed=0)
        tensors = [rng.standard_normal(s) for s in shapes]
        flat = np.concatenate([t.ravel() for t in tensors])
        flat_state, tensor_states = OptimState(flat), [OptimState(t) for t in tensors]
        for lr in (0.0, 0.01, 0.003, 0.02):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3) for s in shapes]
            reference_optimizer_step(tensors, grads, tensor_states, spec, lr)
            optimizer_step(flat, np.concatenate([g.ravel() for g in grads]), flat_state, spec, lr)
            assert np.array_equal(flat, np.concatenate([t.ravel() for t in tensors]))
        assert flat_state.step == 4 and all(state.step == 4 for state in tensor_states)
        assert np.array_equal(flat_state.m, np.concatenate([s.m.ravel() for s in tensor_states]))
        assert np.array_equal(flat_state.v, np.concatenate([s.v.ravel() for s in tensor_states]))
