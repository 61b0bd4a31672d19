"""Decoupled-weight-decay adaptive optimizer and the warmup-plus-cosine schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OptimSpec:
    """Optimizer and schedule hyperparameters.

    Defaults target the full-model regime (30 epochs, 2 warmup); classifier-only
    retraining conventionally runs 12 epochs with 1 warmup (see for_classifier).
    The default learning rate suits the desk-scale linear classifiers trained
    here; deep-backbone fine-tuning would use values around 1e-5.
    """

    lr_init: float = 1e-2
    weight_decay: float = 1e-7
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 30
    warmup_epochs: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr_init <= 0:
            raise ValueError("lr_init must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epochs and warmup_epochs must be >= 0")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be smaller than epochs")

    def for_classifier(self) -> "OptimSpec":
        """The classifier-only retraining regime: 12 epochs, 1 warmup."""
        return replace(self, epochs=12, warmup_epochs=1)


def lr_at(step: int, total_steps: int, warmup_steps: int, lr_init: float) -> float:
    """Learning rate at a step: linear 0 -> lr_init over warmup, then cosine to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_steps < total_steps:
        raise ValueError("need 0 <= warmup_steps < total_steps")
    if step < warmup_steps:
        return lr_init * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * progress))


class OptimState:
    """First/second-moment accumulators and step counter; one training loop owns it."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step = 0


def optimizer_step(params: list[np.ndarray], grads: list[np.ndarray],
                   state: OptimState, spec: OptimSpec, lr: float) -> None:
    """One bias-corrected adaptive update, weight decay decoupled from the gradient.

    Parameters are scaled by (1 - lr * weight_decay) before the adaptive step.
    Updates params and state in place.  The update is elementwise, so one
    flat vector holding every tensor gets the same bits as the tensors do.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must be aligned")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter tensor {i} "
                             f"(shape {np.shape(g)})")
    state.step += 1
    t = state.step
    bias1 = 1.0 - spec.beta1 ** t
    bias2 = 1.0 - spec.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # m += (1-b1)*g; v += (1-b2)*g*g; p -= lr*(m/bias1) / (sqrt(v/bias2) + eps):
        # the same operations in the same order, through two temporaries.
        p *= 1.0 - lr * spec.weight_decay
        m *= spec.beta1
        step = np.multiply(1.0 - spec.beta1, g)
        m += step
        v *= spec.beta2
        np.multiply(1.0 - spec.beta2, g, out=step)
        step *= g
        v += step
        denom = np.divide(v, bias2)
        np.sqrt(denom, out=denom)
        denom += spec.eps
        np.divide(m, bias1, out=step)
        step *= lr
        step /= denom
        p -= step
