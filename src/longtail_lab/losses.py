"""Softmax cross-entropy, focal, and class-balanced focal losses with analytic gradients.

Focal loss: (1-p)^gamma * (-log p) for the true-class probability p; gamma=0
recovers cross-entropy.  Class-balanced weighting scales each instance by the
inverse effective number of samples of its class, (1-beta)/(1-beta^n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12

LOSS_KINDS = ("cross_entropy", "focal", "cb_focal")


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction into a new array; accepts 1-D or
    2-D input, which stays untouched."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("softmax input contains non-finite values")
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def focal_loss(p, gamma: float):
    """(1-p)^gamma * (-log p); p is clamped to >= 1e-12 before the log."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    p = np.asarray(p, dtype=np.float64)
    if (p > 1).any():
        raise ValueError("true-class probability must be <= 1")
    p = np.maximum(p, PROB_FLOOR)
    out = (1.0 - p) ** gamma * (-np.log(p))
    return out if out.ndim else float(out)


def cb_weight(n: int, cb_beta: float) -> float:
    """Inverse effective number of samples, (1-beta)/(1-beta^n)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 <= cb_beta < 1.0:
        raise ValueError("cb_beta must lie in [0, 1)")
    return (1.0 - cb_beta) / (1.0 - cb_beta ** n)


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss selection: kind plus the hyperparameters that kind requires."""

    kind: str
    gamma: float | None = None
    cb_beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        focal_kind = self.kind in ("focal", "cb_focal")
        if focal_kind and self.gamma is None:
            raise ValueError(f"{self.kind} requires gamma")
        if not focal_kind and self.gamma is not None:
            raise ValueError("gamma is only meaningful for focal losses")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if (self.kind == "cb_focal") != (self.cb_beta is not None):
            raise ValueError("cb_beta is required for cb_focal and only for cb_focal")
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
    if gamma == 0.0:
        return -np.ones_like(p)
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
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")

    probs = softmax(logits)
    rows = np.arange(batch)
    p = np.maximum(probs[rows, labels], PROB_FLOOR)
    per_instance = -np.log(p)
    # d(total)/d(logits) = -g(p) * (probs - onehot) / batch, built on probs in place.
    grad = probs
    grad[rows, labels] -= 1.0
    if spec.kind != "cross_entropy":
        # Cross-entropy is the closed form g(p) = -1, which leaves both as they are.
        gfac = _focal_grad_factor(p, spec.gamma)
        modulating = (1.0 - p) ** spec.gamma
        if spec.kind == "cb_focal":
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (num_classes,):
                raise ValueError("cb_focal needs one training count per class")
            if (counts < 1).any():
                raise ValueError("cb_focal needs every class count >= 1")
            weights = (1.0 - spec.cb_beta) / (1.0 - spec.cb_beta ** counts[labels])
            modulating = weights * modulating
            gfac = weights * gfac
        per_instance = modulating * per_instance
        grad *= -gfac[:, None]
    grad /= batch
    return LossValue(total=float(per_instance.mean()), per_instance=per_instance,
                     grad_logits=grad)
