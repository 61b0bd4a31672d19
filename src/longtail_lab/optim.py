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
    """First/second-moment accumulators of one parameter array, the update's
    two temporaries and the step counter; one training loop owns it."""

    def __init__(self, param: np.ndarray):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.scratch = (np.empty_like(param), np.empty_like(param))
        self.step = 0


def square_sum_finite(g: np.ndarray) -> bool:
    """Whether the sum of ``g``'s squares is finite: false when any value of
    ``g`` is NaN or infinite, and when the squares the second moment adds
    overflow.  One reduction, with no temporary; an overflow warns unless
    the caller ignores it (``np.errstate(over="ignore")``), as ``fit_head``
    does: a context per step would cost more than the reduction."""
    return math.isfinite(np.vdot(g, g))


def gradient_fault(g: np.ndarray) -> str:
    """What is wrong with a gradient ``g`` whose square sum is not finite."""
    return "overflowing" if np.isfinite(g).all() else "non-finite"


def optimizer_step(param: np.ndarray, grad: np.ndarray, state: OptimState,
                   spec: OptimSpec, lr: float) -> None:
    """One bias-corrected adaptive update, weight decay decoupled from the gradient.

    ``param`` is scaled by (1 - lr * weight_decay) before the adaptive step.
    Updates ``param`` and ``state`` in place.  The update is elementwise, so
    one flat vector holding several tensors gets the same bits as each tensor
    would on its own.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if not square_sum_finite(grad):
        raise ValueError(f"{gradient_fault(grad)} gradient")
    state.step += 1
    t = state.step
    bias1 = 1.0 - spec.beta1 ** t
    bias2 = 1.0 - spec.beta2 ** t
    m, v, (step, denom) = state.m, state.v, state.scratch
    # m += (1-b1)*g; v += (1-b2)*g*g; p -= lr*(m/bias1) / (sqrt(v/bias2) + eps):
    # the same operations in the same order, through the state's two temporaries.
    param *= 1.0 - lr * spec.weight_decay
    m *= spec.beta1
    np.multiply(1.0 - spec.beta1, grad, out=step)
    m += step
    v *= spec.beta2
    np.multiply(1.0 - spec.beta2, grad, out=step)
    step *= grad
    v += step
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += spec.eps
    if bias1 == 1.0:  # x / 1.0 == x: one pass fewer, the same bits
        np.multiply(m, lr, out=step)
    else:
        np.divide(m, bias1, out=step)
        step *= lr
    step /= denom
    param -= step
