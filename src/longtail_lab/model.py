"""The classifier under study: optional small MLP backbone, linear softmax heads,
and the two-stage training orchestration (representation first, classifier second)."""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable

import numpy as np

from .data import (GROUP_LIMITS, Dataset, block_slices, check_class_names, check_rows,
                   compute_class_stats, count_decade)
from .losses import LossSpec, batch_loss, softmax
from .optim import (OptimSpec, OptimState, gradient_fault, lr_at, optimizer_step,
                    square_sum_finite)
from .sampling import make_epoch_stream, make_sampler
from .schema import read_arrays, read_framed, write_framed
from .seeding import derive_seed

if TYPE_CHECKING:
    from .heads import GroupLayout

_CHECKPOINT_MAGIC = b"LTLABCKPT1\n"


def _uniform_init(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    a = 1.0 / math.sqrt(in_dim)
    return rng.uniform(-a, a, size=(out_dim, in_dim))


@dataclass(eq=False)
class Backbone:
    """Stack of rectified linear layers; empty stack is the identity backbone."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    frozen: bool = False

    @classmethod
    def build(cls, feature_dim: int, hidden: tuple[int, ...],
              rng: np.random.Generator) -> "Backbone":
        """Layers of the ``hidden`` widths on ``feature_dim`` inputs; an empty
        ``hidden`` means features pass through."""
        if any(width < 1 for width in hidden):
            raise ValueError(f"hidden layer sizes must be >= 1, got {list(hidden)}")
        weights, biases = [], []
        fan_in = feature_dim
        for width in hidden:
            weights.append(_uniform_init(rng, width, fan_in))
            biases.append(np.zeros(width))
            fan_in = width
        return cls(weights=weights, biases=biases)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def output_dim(self, feature_dim: int) -> int:
        return self.weights[-1].shape[0] if self.weights else feature_dim

    def features(self, x: np.ndarray) -> np.ndarray:
        """The last layer's output for rows ``x``, which stay untouched."""
        h = np.asarray(x, dtype=np.float64)
        for w, b in zip(self.weights, self.biases):
            h = h @ w.T
            h += b
            np.maximum(h, 0.0, out=h)
        return h

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Features plus (layer input, pre-activation) caches for backprop."""
        h = np.asarray(x, dtype=np.float64)
        caches = []
        for w, b in zip(self.weights, self.biases):
            z = h @ w.T
            z += b
            caches.append((h, z))
            h = np.maximum(z, 0.0)
        return h, caches

    def backward(self, grad_h: np.ndarray,
                 caches: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Parameter gradients [dW1, db1, ...] given d(loss)/d(features)."""
        grads: list[np.ndarray] = []
        for layer in reversed(range(len(caches))):
            inp, z = caches[layer]
            dz = grad_h * (z > 0)
            grads.append(dz.sum(axis=0))
            grads.append(dz.T @ inp)
            if layer:  # nothing reads the gradient of the raw input
                grad_h = dz @ self.weights[layer]
        grads.reverse()
        return grads

    def frozen_copy(self) -> "Backbone":
        """A copy of the layers, marked frozen: stage 2 trains none of them."""
        return Backbone(weights=[w.copy() for w in self.weights],
                        biases=[b.copy() for b in self.biases], frozen=True)


@dataclass(eq=False)
class ClassifierHead:
    """Linear layer producing logits: weight (outputs x features), bias (outputs)."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, num_outputs: int, in_dim: int, rng: np.random.Generator) -> "ClassifierHead":
        return cls(weight=_uniform_init(rng, num_outputs, in_dim),
                   bias=np.zeros(num_outputs))

    @property
    def num_outputs(self) -> int:
        return self.weight.shape[0]

    def logits(self, h: np.ndarray) -> np.ndarray:
        z = h @ self.weight.T
        z += self.bias
        return z

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(weight=self.weight.copy(), bias=self.bias.copy())


@dataclass(eq=False)
class EpochLog:
    epoch: int
    mean_loss: float
    lr: float


@dataclass(eq=False)
class TrainedModel:
    """Backbone plus the named heads a method produced, with the per-class
    training counts and its training log.

    ``heads`` maps each head's checkpoint prefix to the head: ``head`` (the
    stage-1 or retrained classifier), ``sqrt_head`` (ssb's square-root
    branch), ``bags.group<k>`` and ``bags.background``.  ``scores`` combines
    them by the ``combine`` rule of the method's ``METHODS`` record.
    """

    backbone: Backbone
    heads: dict[str, ClassifierHead]
    counts: np.ndarray
    method: str
    train_log: list[EpochLog]
    class_names: tuple[str, ...]
    background_class: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method tag must be one of {tuple(METHODS)}, got {self.method!r}")
        try:
            check_class_names(self.class_names)
        except ValueError as exc:
            raise ValueError(f"field 'class_names': {exc}") from None
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.num_classes,):
            raise ValueError(f"class_names has {self.num_classes} entries but field "
                             f"'stats.counts' has shape {list(self.counts.shape)}")
        empty = np.flatnonzero(self.counts < 1)
        if empty.size:
            raise ValueError(f"field 'stats.counts[{empty[0]}]' must be >= 1, "
                             f"got {self.counts[empty[0]]}")
        if self.background_class is None and "bags.background" in self.heads:
            raise ValueError("field 'background_class' is null, but head 'bags.background' "
                             "scores a background class")
        if self.background_class is not None and \
                not 0 <= self.background_class < self.num_classes:
            raise ValueError(f"field 'background_class' must lie in [0, {self.num_classes}), "
                             f"got {self.background_class}")
        # Each layer reads the previous layer's output; every head reads the backbone's.
        width = None
        layers = [(f"backbone.{i}", w, b)
                  for i, (w, b) in enumerate(zip(self.backbone.weights, self.backbone.biases))]
        for name, weight, bias in layers + [(n, h.weight, h.bias) for n, h in self.heads.items()]:
            if weight.ndim != 2 or width not in (None, weight.shape[1]):
                wanted = "a matrix" if width is None else f"a matrix of {width} columns"
                raise ValueError(f"parameter '{name}.weight' has shape {list(weight.shape)}, "
                                 f"not {wanted}")
            if bias.shape != weight.shape[:1]:
                raise ValueError(f"parameter '{name}.weight' has {weight.shape[0]} rows but "
                                 f"'{name}.bias' has shape {list(bias.shape)}")
            width = weight.shape[0 if name.startswith("backbone.") else 1]
        for name, outputs in METHODS[self.method].heads(self).items():
            if name not in self.heads:
                raise ValueError(f"{self.method} model is missing its {name!r} head")
            if self.heads[name].num_outputs != outputs:
                raise ValueError(f"head {name!r} has {self.heads[name].num_outputs} outputs, "
                                 f"expected {outputs}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _heads_module():
    """``heads.py``, looked up at call time: it imports this module."""
    from . import heads
    return heads


def _group_layout(model: TrainedModel) -> "GroupLayout":
    """Bags' class grouping; with a background group iff a background head trained."""
    return _heads_module().build_group_layout(
        model.counts, background_class=model.background_class,
        with_background_group="bags.background" in model.heads)


def _inputs(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """``features`` as float64 rows, checked against the model's input width."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be (batch, dim)")
    first = (model.backbone.weights or [next(iter(model.heads.values())).weight])[0]
    if x.shape[1] != first.shape[1]:
        raise ValueError(f"feature dimension {x.shape[1]} does not match model input "
                         f"{first.shape[1]}")
    return x


# ``hook(epoch, stream) -> (kept positions, targets of the kept rows)``: which
# positions of an epoch stream train, in ascending order, and their targets.
BatchHook = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]
# What a stage-2 trainer returns: the heads it trained, by name, and its log.
Stage2Fit = tuple[dict[str, ClassifierHead], list[EpochLog]]


def every_row(targets: np.ndarray) -> BatchHook:
    """The batch hook that trains every stream position, on ``targets[stream]``."""
    return lambda epoch, stream: (np.arange(stream.shape[0]), targets[stream])


def fit_head(head: ClassifierHead, features: np.ndarray, labels: np.ndarray,
             counts: np.ndarray, q: float, optim: OptimSpec, loss: LossSpec,
             backbone: Backbone, batch_hook: BatchHook | None = None) -> list[EpochLog]:
    """Train one linear head in place; the one training loop of the package.

    ``features`` are ``backbone``'s raw inputs: each step's rows go through a
    frozen backbone before the head, and an unfrozen one's layers train
    jointly with the head.  ``batch_hook(epoch, stream) -> (kept, targets)``
    filters and relabels a whole epoch stream at once: ``kept`` holds the
    ascending stream positions that train, ``targets`` their targets, and
    each step trains on the kept positions of its batch.  The default,
    ``every_row(labels)``, trains on every batch as drawn with the dataset
    labels.

    Every trained parameter lives in one flat float64 vector, so one optimizer
    update covers them all: after a fit of at least one epoch, ``head.weight``,
    ``head.bias`` and the trained backbone's ``weights`` and ``biases`` are
    views of that vector.  A frozen backbone puts none in it.
    """
    n = features.shape[0]
    if len(labels) != n:
        raise ValueError(f"fit_head: {n} feature rows but {len(labels)} labels")
    if optim.epochs == 0:
        return []
    if batch_hook is None:
        batch_hook = every_row(labels)
    layers = backbone.num_layers
    # The identity backbone is never called, and a frozen one only runs
    # forward: ``layers`` counts the layers that train.
    frozen = layers > 0 and backbone.frozen
    if frozen:
        layers = 0
    params = {f"backbone.{i}.{kind}": p for i in range(layers)
              for kind, p in (("weight", backbone.weights[i]), ("bias", backbone.biases[i]))}
    params.update({"head.weight": head.weight, "head.bias": head.bias})
    flat = np.concatenate([p.ravel() for p in params.values()])
    gflat = np.empty_like(flat)
    cuts = np.cumsum([p.size for p in params.values()])[:-1]
    views, gviews = ([piece.reshape(p.shape) for piece, p in zip(np.split(vector, cuts),
                                                                  params.values())]
                     for vector in (flat, gflat))
    head.weight, head.bias = views[-2:]
    if layers:
        backbone.weights, backbone.biases = views[:-2:2], views[1:-2:2]
    state = OptimState(flat)
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    warmup_steps = optim.warmup_epochs * steps_per_epoch
    log: list[EpochLog] = []
    gstep = 0
    # An overflow leaves an infinite value, and arithmetic on it a NaN, that a
    # check below names: the loss's softmax, the loss itself, or the optimizer
    # step's sum of squares.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(optim.epochs):
            sampler = make_sampler(counts, q, derive_seed(optim.seed, "stream", epoch))
            stream = make_epoch_stream(labels, sampler, n)
            kept, epoch_targets = batch_hook(epoch, stream)
            epoch_rows = stream[kept]
            bounds = np.searchsorted(kept, np.arange(steps_per_epoch + 1) * optim.batch_size)
            loss_sum, rows = 0.0, 0
            for step in range(steps_per_epoch):
                lo, hi = bounds[step], bounds[step + 1]
                rows_idx, targets = epoch_rows[lo:hi], epoch_targets[lo:hi]
                h = features[rows_idx]
                if frozen:
                    h = backbone.features(h)
                elif layers:
                    h, caches = backbone.forward_cached(h)
                logits = head.logits(h)
                try:
                    value = batch_loss(logits, targets, counts, loss)
                except ValueError:
                    # The loss's softmax checks the logits; name the epoch they failed at.
                    if np.isfinite(logits).all():
                        raise
                    raise RuntimeError(f"training diverged: non-finite logits at epoch {epoch}"
                                       ) from None
                if not math.isfinite(value.total):
                    raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
                np.matmul(value.grad_logits.T, h, out=gviews[-2])
                np.add.reduce(value.grad_logits, axis=0, out=gviews[-1])
                if layers:
                    for view, g in zip(gviews, backbone.backward(value.grad_logits @ head.weight,
                                                                 caches)):
                        view[...] = g
                lr = lr_at(gstep, total_steps, warmup_steps, optim.lr_init)
                try:
                    optimizer_step(flat, gflat, state, optim, lr)
                except ValueError:
                    # The step checks the whole gradient; name the parameter that failed.
                    bad = [(name, g) for name, g in zip(params, gviews)
                           if not square_sum_finite(g)]
                    if not bad:
                        raise
                    name, g = bad[0]
                    raise RuntimeError(f"training diverged: {gradient_fault(g)} gradient for "
                                       f"{name} at epoch {epoch}") from None
                gstep += 1
                loss_sum += value.total * rows_idx.shape[0]
                rows += rows_idx.shape[0]
            log.append(EpochLog(epoch=epoch, mean_loss=loss_sum / rows, lr=lr))
    return log


def train_linear_head(features: np.ndarray, labels: np.ndarray, counts: np.ndarray,
                      q: float, optim: OptimSpec, loss: LossSpec, backbone: Backbone
                      ) -> tuple[ClassifierHead, list[EpochLog]]:
    """Fresh randomly initialized linear classifier trained on the output of
    the frozen ``backbone`` for the rows ``features``."""
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(optim.seed, "init"))
    head = ClassifierHead.create(len(counts), backbone.output_dim(features.shape[1]), rng)
    log = fit_head(head, features, np.asarray(labels, dtype=np.int64),
                   np.asarray(counts, dtype=np.int64), q, optim, loss, backbone=backbone)
    return head, log


def _fit_new_head(dataset, backbone, counts, q, optim, loss, **_):
    """Stage-2 trainer of one fresh ``head``."""
    head, log = train_linear_head(dataset.features, dataset.labels, counts, q, optim, loss,
                                  backbone)
    return {"head": head}, log


def _fit_bags(dataset, backbone, counts, q, optim, loss, bags_beta, bags_background):
    return _heads_module().bags_train_heads(dataset, optim, backbone, bags_beta=bags_beta,
                                            with_background_group=bags_background)


def _bags_heads(model: TrainedModel) -> dict[str, int]:
    """A head per non-empty count group, its classes plus "others"; the background head."""
    layout = _group_layout(model)
    sizes = {f"bags.group{k}": members.size + 1 for k in range(1, len(GROUP_LIMITS) + 1)
             if (members := layout.classes_in(k)).size}
    if layout.has_background_group:
        sizes["bags.background"] = 2
    return sizes


def _head_probs(model: TrainedModel, name: str, h: np.ndarray) -> np.ndarray:
    """Softmax of head ``name``'s logits on ``h``, computed in the logits' array."""
    z = model.heads[name].logits(h)
    return softmax(z, out=z)


def _ssb_combine(model: TrainedModel, h: np.ndarray) -> np.ndarray:
    """``head`` on the top count bin, ``sqrt_head`` elsewhere."""
    module = _heads_module()
    return module.ssb_aggregate(_head_probs(model, "head", h), _head_probs(model, "sqrt_head", h),
                                count_decade(model.counts) == module.HEAD_GROUP)


@dataclass(frozen=True)
class Method:
    """How one method differs from the baseline, whose values are the defaults.

    ``q`` and ``loss`` are the sampling exponent and loss kind of the method's
    own fit: stage 2, or one stage where ``one_stage`` allows it.  ``stage2(dataset,
    backbone, counts, q, optim, loss, bags_beta=, bags_background=)`` returns the
    heads it trained on the rows of ``dataset``, each batch passed through the
    frozen stage-1 ``backbone``, and the log.  ``fit_of = (owner, name)`` makes the
    method's stage 2 the stage-2 fit of the method ``owner``, whose ``q``,
    ``loss`` and ``stage2`` it uses, and keeps that fit's ``head`` as head
    ``name``.  ``heads(model)``
    gives the output count of every head ``combine(model, h)`` reads to score
    backbone features ``h``.
    """

    q: float = 1.0
    loss: str = "cross_entropy"
    one_stage: bool = False
    stage2: Callable | None = None
    fit_of: tuple[str, str] | None = None
    heads: Callable[[TrainedModel], dict[str, int]] = lambda model: {"head": model.num_classes}
    combine: Callable[[TrainedModel, np.ndarray], np.ndarray] = (
        lambda model, h: _head_probs(model, "head", h))


# Every method, in report order.  A new rule is a new entry.
METHODS = {
    "baseline": Method(one_stage=True),
    "sqrt_samp": Method(q=0.5, one_stage=True, stage2=_fit_new_head),
    "cb_focal": Method(loss="cb_focal", one_stage=True, stage2=_fit_new_head),
    "bags": Method(stage2=_fit_bags, heads=_bags_heads,
                   combine=lambda m, h: _heads_module().bags_scores(_group_layout(m), m.heads, h)),
    # The square-root branch is sqrt_samp's retrained classifier.
    "ssb": Method(fit_of=("sqrt_samp", "sqrt_head"), combine=_ssb_combine,
                  heads=lambda model: dict.fromkeys(("head", "sqrt_head"), model.num_classes)),
}


def fit_owner(method: str) -> str:
    """The method whose stage-2 fit ``method``'s stage 2 is: its seed tag,
    ``q``, ``loss`` and trainer are that method's."""
    fit_of = METHODS[method].fit_of
    return method if fit_of is None else fit_of[0]


def _check_loss(method: str, loss: LossSpec) -> None:
    """Reject a loss of another kind than the one ``method`` trains with."""
    if loss.kind != METHODS[method].loss:
        raise ValueError(f"{method} trains with {METHODS[method].loss}, not {loss.kind}")


def train_stage1(dataset: Dataset, hidden: tuple[int, ...], optim: OptimSpec,
                 loss: LossSpec, method: str = "baseline") -> TrainedModel:
    """First-stage training: a backbone of ``hidden`` layer widths and a head
    on ``dataset``'s features and classes, jointly, sampled at ``method``'s q;
    instance sampling for the baseline, which every stage 2 starts from."""
    if method not in METHODS or not METHODS[method].one_stage:
        raise ValueError(f"{method} cannot train in one stage")
    _check_loss(method, loss)
    if dataset.num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {dataset.num_classes}")
    counts = compute_class_stats(dataset)
    rng = np.random.default_rng(derive_seed(optim.seed, "init"))
    backbone = Backbone.build(dataset.feature_dim, hidden, rng)
    head = ClassifierHead.create(dataset.num_classes, backbone.output_dim(dataset.feature_dim),
                                 rng)
    log = fit_head(head, dataset.features, dataset.labels, counts, METHODS[method].q,
                   optim, loss, backbone)
    return TrainedModel(backbone=backbone, heads={"head": head}, counts=counts, method=method,
                        train_log=log, class_names=dataset.class_names,
                        background_class=dataset.background_class)


def train_stage2(model: TrainedModel, dataset: Dataset, method: str,
                 optim: OptimSpec, loss: LossSpec, bags_beta: float = 8.0,
                 bags_background: bool | None = None, *,
                 fits: dict[str, Stage2Fit] | None = None) -> TrainedModel:
    """Second-stage training: backbone frozen, the trainer of ``method``'s
    ``fit_owner`` fits its heads with ``optim`` and ``loss`` on the rows of
    ``dataset``, each batch passed through the frozen backbone.

    ``bags_background`` forces bags' foreground/background group on or off;
    by default it is used exactly when the dataset designates a background class.
    ``fits`` holds the stage-2 fits already made on ``model`` and ``dataset``,
    by owner: a fit found there is reused, and a fit made is stored there, so
    callers fitting several methods on one model make a shared fit once.
    """
    owner = fit_owner(method) if method in METHODS else None
    if owner is None or METHODS[owner].stage2 is None:
        raise ValueError(f"unknown method {method!r}: it has no second stage")
    _check_loss(owner, loss)
    if dataset.class_names != model.class_names:
        raise ValueError(f"dataset classes {list(dataset.class_names)} are not the "
                         f"model's classes {list(model.class_names)}")
    _inputs(model, dataset.features)
    backbone = model.backbone.frozen_copy()
    counts = compute_class_stats(dataset)
    fits = {} if fits is None else fits
    if owner not in fits:
        trainer = METHODS[owner]
        fits[owner] = trainer.stage2(dataset, backbone, counts, trainer.q, optim, loss,
                                     bags_beta=bags_beta, bags_background=bags_background)
    new, log = fits[owner]
    if METHODS[method].fit_of is not None:
        new = {METHODS[method].fit_of[1]: new["head"]}
    # The stage-1 head stays unless the trainer retrained it.
    return TrainedModel(backbone=backbone, heads={"head": model.heads["head"].copy(), **new},
                        counts=counts, method=method, train_log=log,
                        class_names=dataset.class_names, background_class=dataset.background_class)


def scores(model: TrainedModel, features: np.ndarray, *, first_row: int = 0) -> np.ndarray:
    """Final per-class score vectors: the backbone pass, then the ``combine``
    rule of the model's method.  The bags and ssb vectors need not sum to 1.

    Rows are scored in the blocks of ``data.block_slices``.  One block's
    result is returned as it is; more are each written into one output
    matrix, so scoring holds its output plus one block's temporaries.  A
    non-finite feature row is rejected by its index plus ``first_row``, the
    index of ``features``' first row in a larger set.
    """
    x = _inputs(model, features)
    blocks = block_slices(x.shape[0])
    if len(blocks) == 1:
        return _score_block(model, x, first_row)
    out = np.empty((x.shape[0], model.num_classes))
    for rows in blocks:
        out[rows] = _score_block(model, x[rows], first_row + rows.start)
    return out


def _score_block(model: TrainedModel, x: np.ndarray, first_row: int) -> np.ndarray:
    """``scores`` of the rows ``x``, which start at row ``first_row`` of the
    input; the identity backbone is not called."""
    check_rows(x, first_row)
    h = model.backbone.features(x) if model.backbone.num_layers else x
    return METHODS[model.method].combine(model, h)


def head_view(model: TrainedModel) -> TrainedModel:
    """``model`` with the identity backbone in place of its own, sharing its
    heads: ``predict`` on it scores rows of the output of ``model``'s backbone."""
    view = copy.copy(model)
    view.backbone = Backbone(weights=[], biases=[])
    return view


def predict(model: TrainedModel, features: np.ndarray, *, first_row: int = 0
            ) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class indices and score vectors (see ``scores``); ties break
    to the lowest index."""
    s = scores(model, features, first_row=first_row)
    return np.argmax(s, axis=-1), s


# ---------------------------------------------------------------------------
# Checkpoint format: a framed file (see ``schema``) whose arrays are all
# parameter tensors as little-endian float64 in the order the header
# declares.  Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def _model_params(model: TrainedModel) -> list[tuple[str, np.ndarray]]:
    entries: list[tuple[str, np.ndarray]] = []
    for i, (w, b) in enumerate(zip(model.backbone.weights, model.backbone.biases)):
        entries += [(f"backbone.{i}.weight", w), (f"backbone.{i}.bias", b)]
    for name, head in model.heads.items():
        entries += [(f"{name}.weight", head.weight), (f"{name}.bias", head.bias)]
    return entries


def _header(model: TrainedModel) -> dict:
    """The checkpoint header of ``model``: the format constants and the fields
    ``_model_from_header`` rebuilds it from, nothing derived from them."""
    return {
        "format": "longtail-lab-checkpoint",
        "version": 1,
        "endianness": "little",
        "dtype": "float64",
        "method": model.method,
        "class_names": list(model.class_names),
        "background_class": model.background_class,
        "backbone_frozen": model.backbone.frozen,
        "stats": {"counts": model.counts.tolist()},
        "train_log": [{"epoch": e.epoch, "mean_loss": e.mean_loss, "lr": e.lr}
                      for e in model.train_log],
        "params": [{"name": name, "shape": list(arr.shape)} for name, arr in _model_params(model)],
    }


def save_model(model: TrainedModel, path: str) -> None:
    """Write a bit-exact checkpoint of the model and its training metadata,
    whole or not at all."""
    write_framed(path, _CHECKPOINT_MAGIC, _header(model),
                 (np.ascontiguousarray(arr, dtype="<f8") for _, arr in _model_params(model)))


def load_model(path: str) -> TrainedModel:
    """Reconstruct a TrainedModel from a checkpoint written by save_model.

    ``path`` must be a regular file.  A corrupt, truncated or over-long file,
    a header field of the wrong type, and a header that differs from the one
    the rebuilt model would be saved with raise ValueError naming the path and
    the field at fault.
    """
    try:
        return read_framed(path, _CHECKPOINT_MAGIC, "checkpoint", _HEADER_TYPES,
                           _model_from_header, _header)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint parameter {exc.args[0]!r} is missing") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# The type of each header field a model is rebuilt from.
_HEADER_TYPES = {
    "method": str, "class_names": [str], "background_class": (int, None), "backbone_frozen": bool,
    "stats": {"counts": [int]},
    "train_log": [{"epoch": int, "mean_loss": float, "lr": float}],
    "params": [{"name": str, "shape": [int]}],
}


def _model_from_header(header: dict, fh: IO[bytes]) -> TrainedModel:
    """The model a parsed header declares; its tensors follow the header in ``fh``.

    Heads are rebuilt from the parameter names: every ``<name>.weight`` and
    ``<name>.bias`` pair outside the backbone is the head ``name``.
    """
    arrays = read_arrays(fh, [(e["name"], tuple(e["shape"]), "<f8") for e in header["params"]])
    prefixes = [name.removesuffix(".weight") for name in arrays if name.endswith(".weight")]
    layers = range(sum(p.startswith("backbone.") for p in prefixes))
    return TrainedModel(
        backbone=Backbone(weights=[arrays[f"backbone.{i}.weight"] for i in layers],
                          biases=[arrays[f"backbone.{i}.bias"] for i in layers],
                          frozen=header["backbone_frozen"]),
        heads={p: ClassifierHead(weight=arrays[f"{p}.weight"], bias=arrays[f"{p}.bias"])
               for p in prefixes if not p.startswith("backbone.")},
        counts=header["stats"]["counts"],
        method=header["method"],
        train_log=[EpochLog(e["epoch"], e["mean_loss"], e["lr"]) for e in header["train_log"]],
        class_names=tuple(header["class_names"]),
        background_class=header["background_class"],
    )
