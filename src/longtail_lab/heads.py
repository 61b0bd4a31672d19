"""Multi-branch long-tail heads: balanced group softmax and the square-root
sampling branch aggregation.

Classes are grouped by training count into four decades; the grouped-softmax
method adds an "others" output per group head and an optional binary
foreground/background head (group 0).  The two-branch method keeps the
top-count group's probabilities from the instance-sampled head and everything
else from the square-root-sampled head.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import GROUP_LIMITS, ClassStats, Dataset, compute_class_stats
from .losses import LossSpec, softmax
from .model import METHODS, Backbone, BatchHook, ClassifierHead, EpochLog, every_row, fit_head
from .optim import OptimSpec
from .sampling import bags_filter_batch
from .seeding import derive_seed

logger = logging.getLogger(__name__)

HEAD_GROUP = len(GROUP_LIMITS)  # the top count bin: the "head classes" group


@dataclass(frozen=True, eq=False)
class GroupLayout:
    """Assignment of every class to one count group; group 0, when it holds a
    class, is the background group of that one class."""

    group_of: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_of",
                           np.ascontiguousarray(self.group_of, dtype=np.int64))
        valid = set(range(0, len(GROUP_LIMITS) + 1))
        if not set(self.group_of.tolist()) <= valid:
            raise ValueError(f"group indices must lie in {sorted(valid)}")
        if self.classes_in(0).size > 1:
            raise ValueError("group 0 holds at most one class, the background class")

    @property
    def background_class(self) -> int | None:
        """The class of group 0, if any."""
        zeros = self.classes_in(0)
        return int(zeros[0]) if zeros.size else None

    @property
    def has_background_group(self) -> bool:
        return self.background_class is not None

    @property
    def num_classes(self) -> int:
        return int(self.group_of.shape[0])

    def classes_in(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.group_of == group)


def build_group_layout(stats: ClassStats, background_class: int | None = None,
                       with_background_group: bool | None = None) -> GroupLayout:
    """Assign classes to their count bins, and the background class to group 0
    when there is a background group.

    By default a background group is used exactly when a background class is
    designated; ``with_background_group`` forces it on or off.
    """
    groups = stats.bins.copy()
    if with_background_group is None:
        with_background_group = background_class is not None
    if with_background_group:
        if background_class is None:
            raise ValueError("background group requested but no background class designated")
        groups[background_class] = 0
    return GroupLayout(group_of=groups)


def ssb_aggregate(p_i, p_sqrt, head_mask) -> np.ndarray:
    """Combine the two branch outputs: where ``head_mask`` is True (the
    classes of the top count group) from the instance-sampled branch, all
    others from the square-root branch.

    The result is not a probability vector; its sum is generally not 1.
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    p_sqrt = np.asarray(p_sqrt, dtype=np.float64)
    head_mask = np.asarray(head_mask, dtype=bool)
    if p_i.shape != p_sqrt.shape:
        raise ValueError(f"branch outputs disagree in shape: {p_i.shape} vs {p_sqrt.shape}")
    if head_mask.shape != p_i.shape[-1:]:
        raise ValueError(f"expected one mask flag per class, got mask shape {head_mask.shape} "
                         f"for {p_i.shape[-1]} classes")
    return np.where(head_mask, p_i, p_sqrt)


def bags_train_heads(dataset: Dataset, optim: OptimSpec, backbone: Backbone, *,
                     bags_beta: float = 8.0, with_background_group: bool | None = None
                     ) -> tuple[dict[str, ClassifierHead], list[EpochLog]]:
    """Train the grouped heads of ``build_group_layout`` on the output of the
    frozen stage-1 ``backbone`` for the rows of ``dataset``, computed batch by
    batch.

    Each group head sees every in-group instance of a batch plus an
    undersampled set of out-of-group instances relabeled "others"; one
    generator per group head and epoch draws the "others" of every batch of
    that epoch.  Heads use independent derived seeds, so training order cannot
    affect results.
    Returns one head per non-empty group (group size + 1 "others" outputs)
    and, with a background group, the binary foreground/background head, by
    name; and a per-epoch log averaged across heads.
    """
    stats = compute_class_stats(dataset)
    layout = build_group_layout(stats, dataset.background_class, with_background_group)
    # Group membership must follow the layout, not the raw count decades: a
    # designated background class lives in group 0 even when its count shares
    # a decade with other classes.
    group_of = layout.group_of
    features, labels = dataset.features, dataset.labels
    dim = backbone.output_dim(dataset.feature_dim)
    loss = LossSpec(kind=METHODS["bags"].loss)

    # A class's slot in its group head never changes once set, so every hook
    # may read slot_of, which is whole before the first fit.
    slot_of = np.full(layout.num_classes, -1, dtype=np.int64)
    fits: list[tuple[str, int, int, BatchHook]] = []
    for k in range(1, len(GROUP_LIMITS) + 1):
        members = layout.classes_in(k)
        if members.size == 0:
            logger.warning("grouped-head training: group %d has no classes; skipped", k)
            continue
        slot_of[members] = np.arange(members.size)
        head_seed = derive_seed(optim.seed, "bags-group", k)

        # The hooks run after this loop: bind this group's values now.
        def group_hook(epoch: int, stream: np.ndarray, group: int = k, seed: int = head_seed,
                       slot: int = members.size) -> tuple[np.ndarray, np.ndarray]:
            kept = bags_filter_batch(labels[stream], group, group_of, bags_beta,
                                     seed=derive_seed(seed, "filter", epoch),
                                     batch_size=optim.batch_size)
            kept_labels = labels[stream[kept]]
            return kept, np.where(group_of[kept_labels] == group, slot_of[kept_labels], slot)

        fits.append((f"bags.group{k}", head_seed, members.size + 1, group_hook))
    if layout.has_background_group:
        fits.append(("bags.background", derive_seed(optim.seed, "bags-background"), 2,
                     every_row((labels == layout.background_class).astype(np.int64))))

    heads: dict[str, ClassifierHead] = {}
    logs: list[list[EpochLog]] = []
    for name, seed, outputs, hook in fits:
        head = ClassifierHead.create(outputs, dim, np.random.default_rng(derive_seed(seed, "init")))
        logs.append(fit_head(head, features, labels, stats.counts, METHODS["bags"].q,
                             replace(optim, seed=seed), loss, backbone, batch_hook=hook))
        heads[name] = head

    merged = [EpochLog(epoch=e, mean_loss=float(np.mean([lg[e].mean_loss for lg in logs])),
                       lr=logs[0][e].lr)
              for e in range(optim.epochs)] if logs else []
    return heads, merged


def bags_infer(layout: GroupLayout, group_logits: dict[int, np.ndarray],
               background_logits: np.ndarray | None = None) -> np.ndarray:
    """Remap per-group logit matrices (batch, outputs) to score rows over the
    original classes.

    A softmax is applied within each group (including its "others" output);
    each class keeps its within-group probability, "others" is dropped, and
    with a background group every foreground score is multiplied by the
    foreground probability while the background class takes the background
    probability.  The result need not sum to 1.
    """
    if not group_logits or any(np.ndim(logits) != 2 for logits in group_logits.values()):
        raise ValueError("group logits must be one or more (batch, outputs) matrices")
    batch = next(iter(group_logits.values())).shape[0]
    scores = np.zeros((batch, layout.num_classes))
    for k, logits in group_logits.items():
        members = layout.classes_in(k)
        probs = softmax(logits)
        if probs.shape[1] != members.size + 1:
            raise ValueError(f"group {k} logits have {probs.shape[1]} outputs, "
                             f"expected {members.size + 1}")
        scores[:, members] = probs[:, :members.size]
    if layout.has_background_group:
        if background_logits is None:
            raise ValueError("layout has a background group but no background logits given")
        bg_probs = softmax(background_logits)
        if bg_probs.shape[1] != 2:
            raise ValueError(f"background logits have {bg_probs.shape[1]} outputs, expected 2")
        # Scaling the background column too is harmless: it is overwritten next.
        scores *= bg_probs[:, :1]
        scores[:, layout.background_class] = bg_probs[:, 1]
    return scores


def bags_scores(layout: GroupLayout, heads: dict[str, ClassifierHead],
                features: np.ndarray) -> np.ndarray:
    """Score vectors for backbone features, via each group head in ``heads``
    and bags_infer; heads of other names are ignored."""
    group_logits = {k: heads[f"bags.group{k}"].logits(features)
                    for k in range(1, len(GROUP_LIMITS) + 1) if f"bags.group{k}" in heads}
    background_logits = None
    if "bags.background" in heads:
        background_logits = heads["bags.background"].logits(features)
    return bags_infer(layout, group_logits, background_logits)
