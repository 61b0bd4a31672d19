"""Softmax cross-entropy and class-balanced focal loss with analytic gradients.

Focal loss: (1-p)^gamma * (-log p) for the true-class probability p; gamma=0
recovers cross-entropy.  Class-balanced weighting scales each instance by the
inverse effective number of samples of its class, (1-beta)/(1-beta^n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12

LOSS_KINDS = ("cross_entropy", "cb_focal")


def softmax(logits, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction; accepts 1-D or 2-D input.

    As in numpy, the result goes into ``out``, a float64 array of the input's
    shape that may be the input itself, and is returned.  Without ``out`` it
    goes into a new array and the input stays untouched.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("softmax input contains non-finite values")
    e = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss selection: kind plus the hyperparameters that kind requires."""

    kind: str
    gamma: float | None = None
    cb_beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        for name, value in (("gamma", self.gamma), ("cb_beta", self.cb_beta)):
            if (self.kind == "cb_focal") != (value is not None):
                raise ValueError(f"{name} is required for cb_focal and only for cb_focal")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.cb_beta is not None and not 0.0 <= self.cb_beta < 1.0:
            raise ValueError("cb_beta must lie in [0, 1)")


@dataclass(eq=False)
class LossValue:
    """Mean loss over the batch with per-instance terms and d(total)/d(logits)."""

    total: float
    per_instance: np.ndarray
    grad_logits: np.ndarray


def _focal_grad_factor(p: np.ndarray, gamma: float) -> np.ndarray:
    """g(p) such that dL_i/dz_k = g(p_i) * (onehot - softmax)_k.

    For L = -(1-p)^gamma log p and p = softmax(z)_y:
    g(p) = gamma * p * (1-p)^(gamma-1) * log p - (1-p)^gamma.
    """
    om = 1.0 - p
    om_safe = np.where(om > 0, om, 1.0)
    modulating = gamma * p * om_safe ** (gamma - 1.0) * np.log(p)
    return np.where(om > 0, modulating, 0.0) - om ** gamma


def batch_loss(logits, labels, counts, spec: LossSpec) -> LossValue:
    """Mean loss over a batch plus the exact analytic gradient w.r.t. logits.

    counts are the per-class training counts; they are consulted only by
    cb_focal.  Mean (not sum) reduction keeps the step size batch-robust.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be (batch, classes)")
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError("labels must be one per batch row")
    # A negative label read as unsigned is at least 2**63, so one bound checks both ends.
    if np.maximum.reduce(labels.view(np.uint64)) >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")

    probs = softmax(logits)
    rows = np.arange(batch)
    p = probs[rows, labels]
    # d(total)/d(logits) = -g(p) * (probs - onehot) / batch, built on probs in place.
    grad = probs
    grad[rows, labels] = p - 1.0
    np.maximum(p, PROB_FLOOR, out=p)
    per_instance = np.log(p)
    np.negative(per_instance, out=per_instance)
    if spec.kind == "cb_focal":
        # Cross-entropy is the closed form g(p) = -1, which leaves both as they are.
        gfac = _focal_grad_factor(p, spec.gamma)
        modulating = (1.0 - p) ** spec.gamma
        if np.shape(counts) != (num_classes,):
            raise ValueError("cb_focal needs one training count per class")
        counts = np.asarray(counts, dtype=np.int64)
        if np.logical_or.reduce(counts < 1):
            raise ValueError("cb_focal needs every class count >= 1")
        weights = (1.0 - spec.cb_beta) / (1.0 - spec.cb_beta ** counts[labels])
        modulating = weights * modulating
        gfac = weights * gfac
        per_instance = modulating * per_instance
        grad *= -gfac[:, None]
    grad /= batch
    return LossValue(total=float(np.add.reduce(per_instance) / batch),
                     per_instance=per_instance, grad_logits=grad)
