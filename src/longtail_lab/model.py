"""The classifier under study: optional small MLP backbone, linear softmax heads,
and the two-stage training orchestration (representation first, classifier second)."""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .data import ClassStats, Dataset, compute_class_stats
from .losses import LossSpec, batch_loss, softmax
from .optim import OptimSpec, OptimState, lr_at, optimizer_step
from .sampling import make_epoch_stream, make_sampler
from .seeding import derive_seed

if TYPE_CHECKING:
    from .heads import BagsHeads, GroupLayout

METHODS = ("baseline", "sqrt_samp", "cb_focal", "bags", "ssb")

STAGE2_METHODS = ("sqrt_samp", "cb_focal", "bags", "ssb")

# Sampling exponent of each method's epoch stream, in stage 2 or one-stage runs.
SAMPLER_Q = {"sqrt_samp": 0.5, "cb_focal": 1.0, "bags": 1.0, "ssb": 0.5}

_CHECKPOINT_MAGIC = b"LTLABCKPT1\n"


@dataclass(frozen=True)
class Architecture:
    """Backbone layer sizes; an empty ``hidden`` means features pass through."""

    feature_dim: int
    num_classes: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.num_classes < 2:
            raise ValueError("need feature_dim >= 1 and num_classes >= 2")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


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
        h = np.asarray(x, dtype=np.float64)
        for w, b in zip(self.weights, self.biases):
            h = np.maximum(h @ w.T + b, 0.0)
        return h

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Features plus (layer input, pre-activation) caches for backprop."""
        h = np.asarray(x, dtype=np.float64)
        caches = []
        for w, b in zip(self.weights, self.biases):
            z = h @ w.T + b
            caches.append((h, z))
            h = np.maximum(z, 0.0)
        return h, caches

    def backward(self, grad_h: np.ndarray,
                 caches: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Parameter gradients [dW1, db1, ...] given d(loss)/d(features)."""
        grads: list[np.ndarray] = []
        for (inp, z), w in zip(reversed(caches), reversed(self.weights)):
            dz = grad_h * (z > 0)
            grads.append(dz.sum(axis=0))
            grads.append(dz.T @ inp)
            grad_h = dz @ w
        grads.reverse()
        return grads

    def copy(self, frozen: bool | None = None) -> "Backbone":
        return Backbone(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            frozen=self.frozen if frozen is None else frozen,
        )


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
        return h @ self.weight.T + self.bias

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(weight=self.weight.copy(), bias=self.bias.copy())


@dataclass(eq=False)
class EpochLog:
    epoch: int
    mean_loss: float
    lr: float


@dataclass(eq=False)
class TrainedModel:
    """Backbone plus the head(s) a method produced, with its training log."""

    backbone: Backbone
    head: ClassifierHead
    stats: ClassStats
    method: str
    train_log: list[EpochLog]
    class_names: tuple[str, ...]
    background_class: int | None = None
    sqrt_head: ClassifierHead | None = None
    bags: "BagsHeads | None" = None
    layout: "GroupLayout | None" = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method tag must be one of {METHODS}, got {self.method!r}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def forward(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Logits of the model's primary head; pure in parameters and input."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be (batch, dim)")
    expected = model.backbone.weights[0].shape[1] if model.backbone.weights else model.head.weight.shape[1]
    if x.shape[1] != expected:
        raise ValueError(f"feature dimension {x.shape[1]} does not match model input {expected}")
    return model.head.logits(model.backbone.features(x))


BatchHook = Callable[[int, int, np.ndarray], tuple[np.ndarray, np.ndarray]]


def fit_head(head: ClassifierHead, features: np.ndarray, labels: np.ndarray,
             counts: np.ndarray, q: float, optim: OptimSpec, loss: LossSpec,
             batch_hook: BatchHook | None = None,
             backbone: Backbone | None = None) -> list[EpochLog]:
    """Train one linear head in place; the one training loop of the package.

    Without ``backbone`` the head trains on fixed ``features``.  With one,
    ``features`` are the backbone's raw inputs and its layers train jointly
    with the head.  ``batch_hook(epoch, step, batch_indices) -> (kept_indices,
    targets)`` lets callers filter and relabel each batch (used by the grouped
    heads); the default trains on the batch as drawn with the dataset labels.
    """
    n = features.shape[0]
    if optim.epochs == 0:
        return []
    layers = backbone.num_layers if backbone is not None else 0
    params = [p for i in range(layers) for p in (backbone.weights[i], backbone.biases[i])]
    params += [head.weight, head.bias]
    state = OptimState(params)
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    warmup_steps = optim.warmup_epochs * steps_per_epoch
    log: list[EpochLog] = []
    gstep = 0
    for epoch in range(optim.epochs):
        sampler = make_sampler(counts, q, derive_seed(optim.seed, "stream", epoch))
        stream = make_epoch_stream(labels, sampler, n)
        loss_sum, rows = 0.0, 0
        lr = 0.0
        for step in range(steps_per_epoch):
            batch = stream[step * optim.batch_size:(step + 1) * optim.batch_size]
            if batch_hook is None:
                rows_idx, targets = batch, labels[batch]
            else:
                rows_idx, targets = batch_hook(epoch, step, batch)
            h = features[rows_idx]
            if layers:
                h, caches = backbone.forward_cached(h)
            logits = head.logits(h)
            if not np.isfinite(logits).all():
                raise RuntimeError(f"training diverged: non-finite logits at epoch {epoch}")
            value = batch_loss(logits, targets, counts, loss)
            if not math.isfinite(value.total):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            grads = [value.grad_logits.T @ h, value.grad_logits.sum(axis=0)]
            if layers:
                grads = backbone.backward(value.grad_logits @ head.weight, caches) + grads
            lr = lr_at(gstep, total_steps, warmup_steps, optim.lr_init)
            optimizer_step(params, grads, state, optim, lr)
            gstep += 1
            loss_sum += value.total * rows_idx.shape[0]
            rows += rows_idx.shape[0]
        log.append(EpochLog(epoch=epoch, mean_loss=loss_sum / rows, lr=lr))
    return log


def train_linear_head(features: np.ndarray, labels: np.ndarray, counts: np.ndarray,
                      q: float, optim: OptimSpec, loss: LossSpec
                      ) -> tuple[ClassifierHead, list[EpochLog]]:
    """Fresh randomly initialized linear classifier trained on fixed features."""
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(optim.seed, "init"))
    head = ClassifierHead.create(len(counts), features.shape[1], rng)
    log = fit_head(head, features, np.asarray(labels, dtype=np.int64),
                   np.asarray(counts, dtype=np.int64), q, optim, loss)
    return head, log


def train_stage1(dataset: Dataset, arch: Architecture, optim: OptimSpec,
                 loss: LossSpec, sampler_q: float = 1.0,
                 method: str = "baseline") -> TrainedModel:
    """First-stage training: backbone and head jointly on the raw distribution.

    ``sampler_q`` defaults to 1 (instance sampling); single-stage regimes
    reuse this entry point with their own sampler exponent and loss.
    """
    if arch.feature_dim != dataset.feature_dim or arch.num_classes != dataset.num_classes:
        raise ValueError("architecture does not match dataset dimensions")
    stats = compute_class_stats(dataset)
    rng = np.random.default_rng(derive_seed(optim.seed, "init"))
    backbone = Backbone.build(arch.feature_dim, arch.hidden, rng)
    head = ClassifierHead.create(arch.num_classes, backbone.output_dim(arch.feature_dim), rng)
    log = fit_head(head, dataset.features, dataset.labels, stats.counts, sampler_q, optim,
                   loss, backbone=backbone)
    return TrainedModel(backbone=backbone, head=head, stats=stats, method=method,
                        train_log=log, class_names=dataset.class_names,
                        background_class=dataset.background_class)


def train_stage2(model: TrainedModel, dataset: Dataset, method: str,
                 optim: OptimSpec, loss: LossSpec, bags_beta: float = 8.0,
                 bags_background: bool | None = None) -> TrainedModel:
    """Second-stage training: backbone frozen, classifier replaced and retrained.

    sqrt_samp trains one fresh head under square-root sampling; cb_focal under
    instance sampling with the class-balanced loss; bags trains grouped heads;
    ssb trains the square-root branch and keeps the stage-1 head verbatim.
    ``bags_background`` forces the foreground/background group on or off; by
    default it is used exactly when the dataset designates a background class.
    """
    from .heads import bags_train_heads, build_group_layout

    if method not in STAGE2_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {STAGE2_METHODS}")
    backbone = model.backbone.copy(frozen=True)
    stats = compute_class_stats(dataset)
    common = dict(stats=stats, method=method, class_names=dataset.class_names,
                  background_class=dataset.background_class)
    if method == "bags":
        layout = build_group_layout(stats, background_class=dataset.background_class,
                                    with_background_group=bags_background)
        bags, log = bags_train_heads(model, dataset, layout, optim, bags_beta=bags_beta)
        return TrainedModel(backbone=backbone, head=model.head.copy(),
                            train_log=log, bags=bags, layout=layout, **common)
    feats = backbone.features(dataset.features)
    q = SAMPLER_Q[method]
    new_head, log = train_linear_head(feats, dataset.labels, stats.counts, q, optim, loss)
    if method == "ssb":
        layout = build_group_layout(stats, background_class=dataset.background_class, for_ssb=True)
        return TrainedModel(backbone=backbone, head=model.head.copy(),
                            train_log=log, sqrt_head=new_head, layout=layout, **common)
    return TrainedModel(backbone=backbone, head=new_head, train_log=log, **common)


def scores(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Final per-class score vectors for the model's method.

    Softmax probabilities for single-head methods; grouped-softmax remapping
    for bags; the masked two-branch combination for ssb.  The bags and ssb
    vectors need not sum to 1.
    """
    from .heads import SSBMask, bags_scores, ssb_aggregate

    h = model.backbone.features(np.asarray(features, dtype=np.float64))
    if model.method == "ssb":
        if model.sqrt_head is None or model.layout is None:
            raise ValueError("ssb model is missing its square-root head or layout")
        p_i = softmax(model.head.logits(h))
        p_sqrt = softmax(model.sqrt_head.logits(h))
        return ssb_aggregate(p_i, p_sqrt, SSBMask.from_layout(model.layout))
    if model.method == "bags":
        if model.bags is None:
            raise ValueError("bags model is missing its grouped heads")
        return bags_scores(model.bags, h)
    return softmax(model.head.logits(h))


def predict(model: TrainedModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class indices and score vectors; ties break to the lowest index."""
    s = scores(model, features)
    return np.argmax(s, axis=-1), s


# ---------------------------------------------------------------------------
# Checkpoint format: magic line, 8-byte little-endian header length, JSON
# header, then all parameter tensors as raw little-endian float64 in the
# order the header declares.  Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def _model_params(model: TrainedModel) -> list[tuple[str, np.ndarray]]:
    entries: list[tuple[str, np.ndarray]] = []
    for i, (w, b) in enumerate(zip(model.backbone.weights, model.backbone.biases)):
        entries.append((f"backbone.{i}.weight", w))
        entries.append((f"backbone.{i}.bias", b))
    entries.append(("head.weight", model.head.weight))
    entries.append(("head.bias", model.head.bias))
    if model.sqrt_head is not None:
        entries.append(("sqrt_head.weight", model.sqrt_head.weight))
        entries.append(("sqrt_head.bias", model.sqrt_head.bias))
    if model.bags is not None:
        for k in sorted(model.bags.heads):
            entries.append((f"bags.group{k}.weight", model.bags.heads[k].weight))
            entries.append((f"bags.group{k}.bias", model.bags.heads[k].bias))
        if model.bags.background_head is not None:
            entries.append(("bags.background.weight", model.bags.background_head.weight))
            entries.append(("bags.background.bias", model.bags.background_head.bias))
    return entries


def _layout_to_json(layout) -> dict:
    return {
        "group_of": layout.group_of.tolist(),
        "has_background_group": layout.has_background_group,
        "background_class": layout.background_class,
        "limits": [[lo, None if math.isinf(hi) else hi] for lo, hi in layout.limits],
    }


def _layout_from_json(obj) -> "GroupLayout":
    from .heads import GroupLayout

    limits = tuple((lo, math.inf if hi is None else hi) for lo, hi in obj["limits"])
    return GroupLayout(group_of=np.asarray(obj["group_of"], dtype=np.int64),
                       has_background_group=obj["has_background_group"],
                       background_class=obj["background_class"], limits=limits)


def save_model(model: TrainedModel, path: str) -> None:
    """Write a bit-exact checkpoint of the model and its training metadata."""
    entries = _model_params(model)
    header = {
        "format": "longtail-lab-checkpoint",
        "version": 1,
        "endianness": "little",
        "dtype": "float64",
        "method": model.method,
        "class_names": list(model.class_names),
        "background_class": model.background_class,
        "backbone_frozen": model.backbone.frozen,
        "stats": {
            "counts": model.stats.counts.tolist(),
            "bins": model.stats.bins.tolist(),
            "groups": model.stats.groups.tolist(),
        },
        "layout": None if model.layout is None else _layout_to_json(model.layout),
        "bags": None if model.bags is None else {
            "groups": sorted(model.bags.heads),
            "has_background_head": model.bags.background_head is not None,
        },
        "train_log": [{"epoch": e.epoch, "mean_loss": e.mean_loss, "lr": e.lr}
                      for e in model.train_log],
        "params": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path: str) -> TrainedModel:
    """Reconstruct a TrainedModel from a checkpoint written by save_model.

    A corrupt, truncated or over-long file raises ValueError naming the path
    and the field at fault.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = len(_CHECKPOINT_MAGIC)
    if blob[:pos] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a longtail-lab checkpoint")
    if len(blob) < pos + 8:
        raise ValueError(f"{path}: truncated header length field")
    (header_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) < pos + header_len:
        raise ValueError(f"{path}: truncated header ({len(blob) - pos} of {header_len} bytes)")
    try:
        header = json.loads(blob[pos:pos + header_len].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    try:
        return _model_from_header(header, blob, pos + header_len, path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing checkpoint field {exc.args[0]!r}") from None


def _model_from_header(header: dict, blob: bytes, pos: int, path: str) -> TrainedModel:
    """The model a parsed header declares; its tensors start at ``blob[pos]``."""
    from .heads import BagsHeads

    arrays: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        if len(blob) < pos + count * 8:
            raise ValueError(f"{path}: truncated parameter {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=count, offset=pos
                                              ).astype(np.float64).reshape(shape)
        pos += count * 8
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after the last parameter")

    num_layers = sum(1 for name in arrays if name.startswith("backbone.") and name.endswith(".weight"))
    backbone = Backbone(
        weights=[arrays[f"backbone.{i}.weight"] for i in range(num_layers)],
        biases=[arrays[f"backbone.{i}.bias"] for i in range(num_layers)],
        frozen=header["backbone_frozen"],
    )
    head = ClassifierHead(weight=arrays["head.weight"], bias=arrays["head.bias"])
    stats = ClassStats(counts=np.asarray(header["stats"]["counts"], dtype=np.int64),
                       bins=np.asarray(header["stats"]["bins"], dtype=np.int64),
                       groups=np.asarray(header["stats"]["groups"], dtype=np.int64))
    layout = None if header["layout"] is None else _layout_from_json(header["layout"])
    sqrt_head = None
    if "sqrt_head.weight" in arrays:
        sqrt_head = ClassifierHead(weight=arrays["sqrt_head.weight"], bias=arrays["sqrt_head.bias"])
    bags = None
    if header["bags"] is not None:
        group_heads = {
            int(k): ClassifierHead(weight=arrays[f"bags.group{k}.weight"],
                                   bias=arrays[f"bags.group{k}.bias"])
            for k in header["bags"]["groups"]
        }
        background_head = None
        if header["bags"]["has_background_head"]:
            background_head = ClassifierHead(weight=arrays["bags.background.weight"],
                                             bias=arrays["bags.background.bias"])
        bags = BagsHeads(layout=layout, heads=group_heads, background_head=background_head)
    return TrainedModel(
        backbone=backbone,
        head=head,
        stats=stats,
        method=header["method"],
        train_log=[EpochLog(int(e["epoch"]), float(e["mean_loss"]), float(e["lr"]))
                   for e in header["train_log"]],
        class_names=tuple(header["class_names"]),
        background_class=header["background_class"],
        sqrt_head=sqrt_head,
        bags=bags,
        layout=layout,
    )
