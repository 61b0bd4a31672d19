"""Class-frequency-exponent re-sampling and the grouped-head batch undersampler.

The sampling probability of class j is n_j^q / sum_i n_i^q.  q=1 reproduces
the empirical distribution (instance sampling), q=1/2 softens it (square-root
sampling), q=0 is uniform over classes (class-balanced sampling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sampling_weights(counts, q: float) -> np.ndarray:
    """Per-class sampling probabilities n_j^q / sum_i n_i^q; sums to 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D sequence")
    if (counts < 1).any():
        raise ValueError("every class count must be >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    weights = counts ** q
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """Sampling exponent q with its derived per-class probabilities."""

    q: float
    class_probs: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_probs",
                           np.ascontiguousarray(self.class_probs, dtype=np.float64))
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if (self.class_probs < 0).any():
            raise ValueError("class probabilities must be non-negative")
        if abs(self.class_probs.sum() - 1.0) > 1e-12:
            raise ValueError("class probabilities must sum to 1 within 1e-12")


def make_sampler(counts, q: float, seed: int) -> SamplerSpec:
    return SamplerSpec(q=q, class_probs=sampling_weights(counts, q), seed=seed)


def make_epoch_stream(labels: np.ndarray, sampler: SamplerSpec, epoch_len: int) -> np.ndarray:
    """One epoch of int64 instance indices, deterministic in the sampler seed.

    q=1 yields seeded permutations of all instances (an exact empirical
    epoch); q<1 draws with replacement, class first by p_j, then an instance
    uniformly within that class.  ``labels`` holds one class per instance.
    """
    if epoch_len < 1:
        raise ValueError("epoch_len must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    rng = np.random.default_rng(sampler.seed)
    if sampler.q == 1.0:
        # Exact empirical epoch: a fresh permutation per N-block of the stream.
        reps = math.ceil(epoch_len / n)
        perms = [rng.permutation(n) for _ in range(reps)]
        return np.concatenate(perms)[:epoch_len]
    num_classes = sampler.class_probs.shape[0]
    counts = np.bincount(labels, minlength=num_classes)
    if ((sampler.class_probs > 0) & (counts == 0)).any():
        raise ValueError("sampler assigns probability to a class with no instances")
    # Two-level draw: class by p_j, then an instance uniformly within the class.
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cls = rng.choice(num_classes, size=epoch_len, p=sampler.class_probs)
    u = rng.random(epoch_len)
    pick = np.minimum((u * counts[cls]).astype(np.int64), counts[cls] - 1)
    return order[starts[cls] + pick]


def bags_filter_batch(batch_labels, group: int, group_of: np.ndarray,
                      bags_beta: float, seed: int, batch_size: int | None = None) -> np.ndarray:
    """Within-batch undersampling of out-of-group instances for one group head.

    ``batch_labels`` is split into consecutive batches of ``batch_size`` rows
    (the last may be shorter); ``None`` makes it one batch.  ``group_of`` maps
    each class to its group.  Each batch keeps every in-group instance and at
    most ceil(bags_beta * n_k) "others", chosen uniformly without replacement,
    where n_k is the batch's in-group count.  A batch with no in-group
    instances keeps min(ceil(bags_beta), available) others so the head still
    sees its "others" output.  One generator, seeded by ``seed``, draws every
    batch's subset.  Returns the sorted kept positions.
    """
    if bags_beta <= 0:
        raise ValueError("bags_beta must be > 0")
    labels = np.asarray(batch_labels, dtype=np.int64)
    n = labels.shape[0]
    size = max(n, 1) if batch_size is None else batch_size
    if size < 1:
        raise ValueError(f"batch_size must be >= 1, got {size}")
    batches = -(-n // size)
    in_group = group_of[labels] == group
    n_k, others = (np.bincount(np.flatnonzero(rows) // size, minlength=batches)
                   for rows in (in_group, ~in_group))
    cap = np.ceil(bags_beta * np.where(n_k > 0, n_k, 1))
    keep = n_k + np.minimum(cap, others).astype(np.int64)
    # One uniform key per row: in-group rows sort first, the padding of a short
    # last batch last, so each batch keeps its ``keep`` lowest keys.
    keys = np.random.default_rng(seed).random(batches * size)
    keys[:n][in_group] = -1.0
    keys[n:] = 2.0
    order = np.argsort(keys.reshape(batches, size), axis=1)
    chosen = np.zeros((batches, size), dtype=bool)
    np.put_along_axis(chosen, order, np.arange(size) < keep[:, None], axis=1)
    return np.flatnonzero(chosen.ravel())
