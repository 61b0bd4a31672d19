"""Where the benchmark wraps longtail-lab, and the per-layer metrics it derives.

Each probe names a function by the module attribute through which callers
look it up (``model:batch_loss`` is the ``batch_loss`` that ``model.py``
calls), so wrapping it from outside times every call made through that name.
Span names are ``<layer>.<what>``; the layer is the module of
``src/longtail_lab/`` that owns the code.
"""
from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Callable

from spans import Tracer

LAYERS = ("cli", "experiment", "data", "sampling", "seeding", "losses", "optim",
          "model", "heads", "metrics")

STAGE2_METHODS = ("sqrt_samp", "cb_focal", "bags", "ssb")


def _stage2_name(model, dataset, method, *args, **kwargs) -> str:
    return f"model.train_stage2.{method}"


def _rows_drawn(tracer: Tracer, sid: int, args, kwargs, result) -> None:
    tracer.count(sid, "rows", len(result))


def _bags_filtered(tracer: Tracer, sid: int, args, kwargs, result) -> None:
    tracer.count(sid, "offered", len(args[0]))
    tracer.count(sid, "kept", len(result))


def _features_bytes(tracer: Tracer, sid: int, args, kwargs, result) -> None:
    # The identity backbone hands its input back; only new arrays are computed.
    tracer.count(sid, "bytes", 0 if result is args[1] else result.nbytes)


def _checkpoint_bytes(tracer: Tracer, sid: int, args, kwargs, result) -> None:
    tracer.count(sid, "bytes", os.path.getsize(args[1]))


def _rows_parsed(tracer: Tracer, sid: int, args, kwargs, result) -> None:
    tracer.count(sid, "rows", result.num_instances)


@dataclass(frozen=True)
class Probe:
    target: str                      # "module:attribute" or "module:Class.method"
    name: str | Callable[..., str]   # span name, or a function of the call's arguments
    observe: Callable | None = None


# Always installed: the training time and rows drawn behind train_rows_per_s.
# A few dozen calls per compare, so the untraced runs keep them.
TRAIN_PROBES = (
    Probe("experiment:train_stage1", "model.train_stage1"),
    Probe("experiment:train_stage2", _stage2_name),
    Probe("model:make_epoch_stream", "sampling.epoch_stream", _rows_drawn),
)

LAYER_PROBES = TRAIN_PROBES + (
    Probe("cli:main", "cli.main"),
    Probe("cli:config_from_dict", "experiment.config_from_dict"),
    Probe("cli:run_experiment", "experiment.run_experiment"),
    Probe("cli:load_report", "metrics.load_report"),
    Probe("cli:compare_methods", "metrics.compare_methods"),
    Probe("experiment:prepare_datasets", "experiment.prepare_datasets"),
    Probe("experiment:generate_synthetic", "data.generate_synthetic"),
    Probe("experiment:load_embeddings", "data.load_embeddings", _rows_parsed),
    Probe("experiment:split_dataset", "data.split_dataset"),
    Probe("experiment:compute_class_stats", "data.compute_class_stats"),
    Probe("experiment:derive_seed", "seeding.derive_seed"),
    Probe("experiment:predict", "model.predict"),
    Probe("experiment:save_model", "model.save_model", _checkpoint_bytes),
    Probe("experiment:evaluate", "metrics.evaluate"),
    Probe("experiment:save_report", "metrics.save_report"),
    Probe("experiment:compare_methods", "metrics.compare_methods"),
    Probe("experiment:emit_f1_delta", "experiment.emit_f1_delta"),
    Probe("data:Dataset.digest", "data.digest"),
    Probe("data:derive_seed", "seeding.derive_seed"),
    Probe("data:generate_synthetic", "data.generate_synthetic"),
    Probe("data:save_embeddings", "data.save_embeddings"),
    Probe("model:compute_class_stats", "data.compute_class_stats"),
    Probe("model:batch_loss", "losses.batch_loss"),
    Probe("model:softmax", "losses.softmax"),
    Probe("model:optimizer_step", "optim.step"),
    Probe("model:lr_at", "optim.lr_at"),
    Probe("model:make_sampler", "sampling.make_sampler"),
    Probe("model:derive_seed", "seeding.derive_seed"),
    Probe("model:fit_head", "model.fit_head"),
    Probe("model:train_linear_head", "model.train_linear_head"),
    Probe("model:scores", "model.scores"),
    Probe("model:predict", "model.predict"),
    Probe("model:load_model", "model.load_model"),
    Probe("model:Backbone.features", "model.backbone_features", _features_bytes),
    Probe("model:Backbone.forward_cached", "model.backbone_fwd"),
    Probe("model:Backbone.backward", "model.backbone_bwd"),
    Probe("model:ClassifierHead.logits", "model.head_logits"),
    Probe("heads:bags_train_heads", "heads.bags_train_heads"),
    Probe("heads:build_group_layout", "heads.build_group_layout"),
    Probe("heads:bags_scores", "heads.bags_scores"),
    Probe("heads:bags_infer", "heads.bags_infer"),
    Probe("heads:ssb_aggregate", "heads.ssb_aggregate"),
    Probe("heads:fit_head", "model.fit_head"),
    Probe("heads:bags_filter_batch", "sampling.bags_filter_batch", _bags_filtered),
    Probe("heads:derive_seed", "seeding.derive_seed"),
    Probe("heads:softmax", "losses.softmax"),
    Probe("heads:compute_class_stats", "data.compute_class_stats"),
)


def install(tracer: Tracer, probes: tuple[Probe, ...]) -> Callable[[], None]:
    """Wrap every probed function; returns a function that undoes it."""
    undo = []
    for probe in probes:
        module_name, _, path = probe.target.partition(":")
        owner = importlib.import_module(f"longtail_lab.{module_name}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, probe.name, probe.observe))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


@dataclass
class Totals:
    """Per span name: total time, self time, calls and counts; per layer: self time."""

    total: dict[str, float] = field(default_factory=dict)
    self: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, dict[str, float]] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    def add(self, other: "Totals") -> "Totals":
        out = Totals(spans=self.spans + other.spans)
        for mine, theirs, merged in ((self.total, other.total, out.total),
                                     (self.self, other.self, out.self),
                                     (self.calls, other.calls, out.calls),
                                     (self.layer_self, other.layer_self, out.layer_self)):
            for key in mine.keys() | theirs.keys():
                merged[key] = mine.get(key, 0) + theirs.get(key, 0)
        for key in self.counts.keys() | other.counts.keys():
            a, b = self.counts.get(key, {}), other.counts.get(key, {})
            out.counts[key] = {k: a.get(k, 0.0) + b.get(k, 0.0) for k in a.keys() | b.keys()}
        return out


def totals_by_root(tracer: Tracer) -> dict[int, Totals]:
    """Totals of the spans under each root span, the root itself excluded."""
    self_times = tracer.self_times()
    by_root: dict[int, Totals] = {}
    for sid, name in enumerate(tracer.names):
        root = tracer.roots[sid]
        t = by_root.setdefault(root, Totals())
        if sid == root:
            continue
        duration = tracer.ends[sid] - tracer.starts[sid]
        t.total[name] = t.total.get(name, 0.0) + duration
        t.self[name] = t.self.get(name, 0.0) + self_times[sid]
        t.calls[name] = t.calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        t.layer_self[layer] = t.layer_self.get(layer, 0.0) + self_times[sid]
        t.spans += 1
        for key, amount in tracer.counts.get(sid, {}).items():
            per_name = t.counts.setdefault(name, {})
            per_name[key] = per_name.get(key, 0.0) + amount
    return by_root


def _total(*names: str) -> Callable[[Totals], float]:
    return lambda t: sum(t.total.get(n, 0.0) for n in names)


def _self(name: str) -> Callable[[Totals], float]:
    return lambda t: t.self.get(name, 0.0)


def _calls(name: str) -> Callable[[Totals], float]:
    return lambda t: t.calls.get(name, 0)


def _count(name: str, key: str) -> Callable[[Totals], float]:
    return lambda t: t.counts.get(name, {}).get(key, 0.0)


def _ratio(numerator: Callable[[Totals], float],
           denominator: Callable[[Totals], float]) -> Callable[[Totals], float]:
    """numerator / denominator, or 0 where the layer did no work."""
    def value(t: Totals) -> float:
        d = denominator(t)
        return numerator(t) / d if d else 0.0
    return value


def _layer_self(layer: str) -> Callable[[Totals], float]:
    return lambda t: t.layer_self.get(layer, 0.0)


# (metric, unit, how it is computed from one operation's totals)
PER_LAYER: tuple[tuple[str, str, Callable[[Totals], float]], ...] = (
    ("losses.batch_loss_s", "s", _total("losses.batch_loss")),
    ("losses.batch_loss_calls", "count", _calls("losses.batch_loss")),
    ("optim.step_s", "s", _total("optim.step")),
    ("optim.step_calls", "count", _calls("optim.step")),
    ("optim.lr_at_s", "s", _total("optim.lr_at")),
    ("model.head_logits_s", "s", _total("model.head_logits")),
    ("model.head_logits_calls", "count", _calls("model.head_logits")),
    ("model.fit_head_self_s", "s", _self("model.fit_head")),
    ("model.stage1_self_s", "s", _self("model.train_stage1")),
    ("model.backbone_fwd_s", "s", _total("model.backbone_fwd")),
    ("model.backbone_bwd_s", "s", _total("model.backbone_bwd")),
    ("model.backbone_features_s", "s", _total("model.backbone_features")),
    ("model.backbone_features_calls", "count", _calls("model.backbone_features")),
    ("model.backbone_features_bytes", "bytes", _count("model.backbone_features", "bytes")),
    ("model.stage1_s", "s", _total("model.train_stage1")),
    *((f"model.stage2_s.{m}", "s", _total(f"model.train_stage2.{m}"))
      for m in STAGE2_METHODS),
    ("sampling.bags_filter_s", "s", _total("sampling.bags_filter_batch")),
    ("sampling.bags_filter_calls", "count", _calls("sampling.bags_filter_batch")),
    ("sampling.bags_kept_ratio", "ratio",
     _ratio(_count("sampling.bags_filter_batch", "kept"),
            _count("sampling.bags_filter_batch", "offered"))),
    ("seeding.derive_seed_s", "s", _total("seeding.derive_seed")),
    ("seeding.derive_seed_calls", "count", _calls("seeding.derive_seed")),
    ("sampling.epoch_stream_s", "s", _total("sampling.epoch_stream", "sampling.make_sampler")),
    ("sampling.epoch_stream_calls", "count", _calls("sampling.epoch_stream")),
    ("heads.bags_train_s", "s", _total("heads.bags_train_heads")),
    ("heads.bags_scores_s", "s", _total("heads.bags_scores")),
    ("heads.ssb_aggregate_s", "s", _total("heads.ssb_aggregate")),
    ("data.load_embeddings_s", "s", _total("data.load_embeddings")),
    ("data.parse_rows_per_s", "rows/s",
     _ratio(_count("data.load_embeddings", "rows"), _total("data.load_embeddings"))),
    ("data.save_embeddings_s", "s", _total("data.save_embeddings")),
    ("data.generate_s", "s", _total("data.generate_synthetic")),
    ("model.predict_s", "s", _total("model.predict")),
    ("model.save_s", "s", _total("model.save_model")),
    ("model.load_s", "s", _total("model.load_model")),
    ("model.ckpt_bytes", "bytes", _count("model.save_model", "bytes")),
    ("metrics.evaluate_s", "s", _total("metrics.evaluate")),
    ("metrics.save_report_s", "s", _total("metrics.save_report")),
    *((f"{layer}.self_s", "s", _layer_self(layer)) for layer in LAYERS),
)


def train_time(t: Totals) -> float:
    """Seconds spent in train_stage1 and train_stage2."""
    return sum(v for k, v in t.total.items()
               if k == "model.train_stage1" or k.startswith("model.train_stage2."))


def rows_drawn(t: Totals) -> float:
    """Rows drawn by every fit's epoch stream, before bags filtering."""
    return _count("sampling.epoch_stream", "rows")(t)
