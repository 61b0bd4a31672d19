"""Shared helpers: small dataset builders, a finite-difference oracle and a
traced-memory probe."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from longtail_lab import Dataset, LossSpec, SyntheticSpec, batch_loss, generate_synthetic


def dataset_with_counts(counts, dim: int = 3, seed: int = 0,
                        background_class: int | None = None) -> Dataset:
    """A dataset whose per-class instance counts are exactly ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(counts.size), counts)
    features = rng.standard_normal((int(counts.sum()), dim))
    names = tuple(f"c{j}" for j in range(counts.size))
    return Dataset(features=features, labels=labels, class_names=names,
                   background_class=background_class)


def finite_difference_grad(logits: np.ndarray, labels, counts, spec: LossSpec,
                           h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the mean batch loss w.r.t. every logit."""
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            plus = logits.copy()
            plus[i, j] += h
            minus = logits.copy()
            minus[i, j] -= h
            f_plus = batch_loss(plus, labels, counts, spec).total
            f_minus = batch_loss(minus, labels, counts, spec).total
            grad[i, j] = (f_plus - f_minus) / (2 * h)
    return grad


def cb_focal_term(p: float, gamma: float, cb_beta: float, n: int) -> float:
    """``batch_loss``'s cb_focal per-instance term for one row whose true class
    has probability ``p`` and ``n`` training rows: logits ``[log p, log(1-p)]``."""
    spec = LossSpec(kind="cb_focal", gamma=gamma, cb_beta=cb_beta)
    return float(batch_loss(np.log([[p, 1.0 - p]]), [0], [n, 1], spec).per_instance[0])


def traced_peak(fn, *args):
    """The result of fn(*args) and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


@pytest.fixture
def tiny_spec() -> SyntheticSpec:
    return SyntheticSpec(num_classes=4, feature_dim=4, head_count=60,
                         imbalance_factor=12.0, class_separation=4.0,
                         noise_sigma=1.0, seed=123)


@pytest.fixture
def tiny_dataset(tiny_spec) -> Dataset:
    return generate_synthetic(tiny_spec)
