"""Experiment harness: configuration document, end-to-end method runs,
persistence of checkpoints and reports, and per-class F1 delta emission."""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .data import (Dataset, SplitSpec, SyntheticSpec, compute_class_stats,
                   generate_synthetic, load_embeddings, split_dataset)
from .losses import LossSpec
from .metrics import EvalReport, compare_methods, evaluate, save_report
from .model import (METHODS, Architecture, TrainedModel, predict, save_model,
                    train_stage1, train_stage2)
from .optim import OptimSpec
from .schema import check_types, read_document
from .seeding import derive_seed

_BACKGROUND_GROUP_CHOICES = ("auto", "on", "off")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a run needs; hashable into a digest that names the experiment."""

    seed: int
    output_dir: str
    methods: tuple[str, ...]
    one_stage: bool
    shared_stage1: bool
    synthetic: SyntheticSpec | None
    embeddings_path: str | None
    background: int | str | None
    eval_mode: str
    eval_per_class: int
    split: SplitSpec
    hidden: tuple[int, ...]
    stage1: OptimSpec
    stage2: OptimSpec
    gamma: float
    cb_beta: float
    bags_beta: float
    bags_background_group: str

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method(s) {unknown}; expected a subset of {tuple(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method in methods list")
        if (self.synthetic is None) == (self.embeddings_path is None):
            raise ValueError("exactly one dataset source (synthetic or embeddings) is required")
        if self.eval_mode not in ("split", "fresh"):
            raise ValueError("eval mode must be 'split' or 'fresh'")
        if self.eval_mode == "fresh" and self.synthetic is None:
            raise ValueError("fresh evaluation draws require a synthetic source")
        if self.eval_per_class < 1:
            raise ValueError("eval per_class must be >= 1")
        if self.bags_background_group not in _BACKGROUND_GROUP_CHOICES:
            raise ValueError(f"bags background_group must be one of {_BACKGROUND_GROUP_CHOICES}")
        if self.bags_beta <= 0:
            raise ValueError(f"config key bags.beta must be > 0, got {self.bags_beta!r}")
        if not 0.0 <= self.cb_beta < 1.0:
            raise ValueError(f"config key loss.cb_beta must lie in [0, 1), got {self.cb_beta!r}")
        if self.gamma < 0:
            raise ValueError(f"config key loss.gamma must be >= 0, got {self.gamma!r}")

    def semantic_dict(self) -> dict:
        """Every field that affects results; the output directory is excluded."""
        return {
            "seed": self.seed,
            "methods": list(self.methods),
            "one_stage": self.one_stage,
            "shared_stage1": self.shared_stage1,
            "dataset": {
                "synthetic": None if self.synthetic is None else asdict(self.synthetic),
                "embeddings": self.embeddings_path,
                "background_class": self.background,
                "eval": {"mode": self.eval_mode, "per_class": self.eval_per_class},
            },
            "split": {
                "train": self.split.train_fraction,
                "val": self.split.val_fraction,
                "test": self.split.test_fraction,
                "seed": self.split.seed,
                "stratified": self.split.stratified,
            },
            "model": {"hidden": list(self.hidden)},
            "stage1": _optim_dict(self.stage1),
            "stage2": _optim_dict(self.stage2),
            "loss": {"gamma": self.gamma, "cb_beta": self.cb_beta},
            "bags": {"beta": self.bags_beta, "background_group": self.bags_background_group},
        }

    def digest(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _optim_dict(spec: OptimSpec) -> dict:
    """Optimizer fields; the seed is left out, as each fit derives its own."""
    return {k: v for k, v in asdict(spec).items() if k != "seed"}


# ---------------------------------------------------------------------------
# Configuration document (YAML).  Unknown keys are hard errors: a silently
# ignored typo would corrupt a method comparison.
# ---------------------------------------------------------------------------

DEFAULT_CONFIG_YAML = """\
seed: 0
output_dir: runs/demo
methods: [baseline, sqrt_samp, cb_focal, bags, ssb]
one_stage: false
shared_stage1: true
dataset:
  synthetic:
    num_classes: 20
    feature_dim: 16
    head_count: 1000
    imbalance_factor: 200.0
    class_separation: 5.0
    noise_sigma: 1.0
  background_class: null
  eval:
    mode: fresh
    per_class: 100
split: {train: 0.70, val: 0.15, test: 0.15, stratified: true}
model: {hidden: []}
stage1: {lr_init: 0.01, weight_decay: 1.0e-07, batch_size: 64, epochs: 30, warmup_epochs: 2}
stage2: {epochs: 12, warmup_epochs: 1}
loss: {gamma: 2.0, cb_beta: 0.9}
bags: {beta: 8.0, background_group: auto}
"""


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _as_section(doc: dict, key: str) -> dict:
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"config section {key!r} must be a mapping")
    return value


def _value(section: dict, key: str, where: str, kind: type, default=None):
    """``section[key]``, else ``default`` (with none, the key is required),
    checked to be an int, not a bool, or for ``kind`` float a finite number."""
    name = f"{where}.{key}".lstrip(".")
    if key not in section and default is None:
        raise ValueError(f"config key {name} is required")
    value = section.get(key, default)
    ok = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
    if not (ok and (kind is int or math.isfinite(value))):
        raise ValueError(f"config key {name} must be "
                         f"{'an integer' if kind is int else 'a finite number'}, got {value!r}")
    return value


_SYNTHETIC_TYPES = {"num_classes": int, "feature_dim": int, "head_count": int,
                    "imbalance_factor": float, "class_separation": float,
                    "noise_sigma": float}


def synthetic_spec(section: dict, default_seed: int) -> SyntheticSpec:
    """``dataset.synthetic`` as a SyntheticSpec, whose ``seed`` defaults to ``default_seed``."""
    where = "dataset.synthetic"
    if not isinstance(section, dict):
        raise ValueError(f"config section {where} must be a mapping")
    _check_keys(section, (*_SYNTHETIC_TYPES, "seed"), where)
    values = {k: kind(_value(section, k, where, kind)) for k, kind in _SYNTHETIC_TYPES.items()}
    try:
        return SyntheticSpec(**values, seed=int(_value(section, "seed", where, int, default_seed)))
    except ValueError as exc:
        raise ValueError(f"config section {where}: {exc}") from None


_OPTIM_TYPES = {"lr_init": float, "weight_decay": float, "beta1": float, "beta2": float,
                "eps": float, "batch_size": int, "epochs": int, "warmup_epochs": int}


def _optim_from(section: dict, where: str, base: OptimSpec, seed: int) -> OptimSpec:
    _check_keys(section, tuple(_OPTIM_TYPES), where)
    kwargs = {k: _value(section, k, where, _OPTIM_TYPES[k]) for k in section}
    if (epochs := kwargs.get("epochs", base.epochs)) < 1:
        raise ValueError(f"config key {where}.epochs must be >= 1, got {epochs!r}")
    try:
        return replace(base, seed=seed, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config section {where}: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig; each error names its dotted config key."""
    if not isinstance(doc, dict):
        raise ValueError("config document must be a mapping")
    _check_keys(doc, ("seed", "output_dir", "methods", "one_stage", "shared_stage1",
                      "dataset", "split", "model", "stage1", "stage2", "loss", "bags"),
                "top level")
    seed = _value(doc, "seed", "", int, 0)

    dataset = _as_section(doc, "dataset")
    _check_keys(dataset, ("synthetic", "embeddings", "background_class", "eval"), "dataset")
    synthetic = None
    if dataset.get("synthetic") is not None:
        synthetic = synthetic_spec(dataset["synthetic"], derive_seed(seed, "dataset"))
    eval_section = dataset.get("eval") or {}
    _check_keys(eval_section, ("mode", "per_class"), "dataset.eval")

    split_section = _as_section(doc, "split")
    _check_keys(split_section, ("train", "val", "test", "seed", "stratified"), "split")
    split = SplitSpec(
        train_fraction=float(_value(split_section, "train", "split", float, 0.70)),
        val_fraction=float(_value(split_section, "val", "split", float, 0.15)),
        test_fraction=float(_value(split_section, "test", "split", float, 0.15)),
        seed=int(_value(split_section, "seed", "split", int, derive_seed(seed, "split"))),
        stratified=bool(split_section.get("stratified", True)),
    )

    model_section = _as_section(doc, "model")
    _check_keys(model_section, ("hidden",), "model")
    hidden = model_section.get("hidden") or []
    if not isinstance(hidden, list) or not all(type(h) is int and h > 0 for h in hidden):
        raise ValueError(f"config key model.hidden must list positive integers, got {hidden!r}")

    stage1 = _optim_from(_as_section(doc, "stage1"), "stage1", OptimSpec(), seed=0)
    stage2 = _optim_from(_as_section(doc, "stage2"), "stage2", stage1.for_classifier(), seed=0)

    loss_section = _as_section(doc, "loss")
    _check_keys(loss_section, ("gamma", "cb_beta"), "loss")
    bags_section = _as_section(doc, "bags")
    _check_keys(bags_section, ("beta", "background_group"), "bags")

    methods = doc.get("methods") or ["baseline"]
    if isinstance(methods, str):
        methods = [m.strip() for m in methods.split(",") if m.strip()]
    return ExperimentConfig(
        seed=seed,
        output_dir=str(doc.get("output_dir", "runs/out")),
        methods=tuple(methods),
        one_stage=bool(doc.get("one_stage", False)),
        shared_stage1=bool(doc.get("shared_stage1", True)),
        synthetic=synthetic,
        embeddings_path=dataset.get("embeddings"),
        background=dataset.get("background_class"),
        eval_mode=str(eval_section.get("mode", "split")),
        eval_per_class=int(_value(eval_section, "per_class", "dataset.eval", int, 100)),
        split=split,
        hidden=tuple(hidden),
        stage1=stage1,
        stage2=stage2,
        gamma=float(_value(loss_section, "gamma", "loss", float, 2.0)),
        cb_beta=float(_value(loss_section, "cb_beta", "loss", float, 0.9)),
        bags_beta=float(_value(bags_section, "beta", "bags", float, 8.0)),
        bags_background_group=str(bags_section.get("background_group", "auto")),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))


def default_config() -> ExperimentConfig:
    return config_from_dict(yaml.safe_load(DEFAULT_CONFIG_YAML))


# ---------------------------------------------------------------------------
# Data preparation
# ---------------------------------------------------------------------------


def _resolve_background(dataset: Dataset, background: int | str | None) -> Dataset:
    if background is None:
        return dataset
    if isinstance(background, str):
        try:
            index = dataset.class_names.index(background)
        except ValueError:
            raise ValueError(f"background class {background!r} not among class names") from None
    else:
        index = int(background)
    return dataset.with_background(index)


def prepare_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize the train/val/test partitions the configuration describes.

    ``split`` mode partitions one dataset; ``fresh`` mode uses the full
    synthetic draw for training and draws balanced evaluation sets from the
    same class-conditional distributions (class counts below 10^3 in training
    would otherwise be impossible to pair with a >= 10^3 head bin).
    """
    if config.synthetic is not None:
        base = generate_synthetic(config.synthetic)
    else:
        base = load_embeddings(config.embeddings_path)
    base = _resolve_background(base, config.background)
    if config.eval_mode == "split":
        return split_dataset(base, config.split)
    eval_counts = np.full(config.synthetic.num_classes, config.eval_per_class, dtype=np.int64)
    val = generate_synthetic(config.synthetic, counts=eval_counts, noise_stream=1)
    test = generate_synthetic(config.synthetic, counts=eval_counts, noise_stream=2)
    return (base,
            _resolve_background(val, config.background),
            _resolve_background(test, config.background))


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunManifest:
    """What a run produced: artifact paths, timings, and identity digests.

    ``stage1_seconds`` times each stage-1 model, its training and its frozen
    features, by tag; ``methods.<m>.seconds`` times the method's own work.
    """

    config_digest: str
    dataset_digest: str
    tool_version: str
    one_stage: bool
    methods: dict[str, dict]
    stage1_seconds: dict[str, float]
    comparison_csv: str | None = None
    comparison_txt: str | None = None
    f1_delta_csv: str | None = None
    failure: dict | None = None

    def referenced_files(self) -> list[str]:
        files = []
        for entry in self.methods.values():
            files.extend(p for p in (entry.get("checkpoint"), entry.get("report")) if p)
        files.extend(p for p in (self.comparison_csv, self.comparison_txt,
                                 self.f1_delta_csv) if p)
        return files

    def to_dict(self) -> dict:
        return {"format": "longtail-lab-manifest", "version": 1, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str) -> None:
        root = Path(path).parent
        missing = [f for f in self.referenced_files() if not (root / f).exists()]
        if missing:
            raise RuntimeError(f"manifest references missing files: {missing}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())


# The type of each manifest field, and of each entry of its ``methods``.
_MANIFEST_TYPES = {
    "config_digest": str, "dataset_digest": str, "tool_version": str, "one_stage": bool,
    "methods": dict, "stage1_seconds": dict, "comparison_csv": (str, None),
    "comparison_txt": (str, None), "f1_delta_csv": (str, None),
    "failure": ({"method": str, "step": str, "error": str}, None),
}
_METHOD_ENTRY_TYPES = {"checkpoint": str, "report": str, "seconds": float}


def _manifest_from_fields(stored: dict) -> RunManifest:
    for method, entry in stored["methods"].items():
        check_types(entry, _METHOD_ENTRY_TYPES, f"methods.{method}")
    for tag, seconds in stored["stage1_seconds"].items():
        check_types(seconds, float, f"stage1_seconds.{tag}")
    return RunManifest(**{f.name: stored[f.name] for f in fields(RunManifest)})


def load_manifest(path: str) -> RunManifest:
    """The manifest stored at ``path``.  A file that is not a manifest, or
    whose fields are missing, mistyped or unknown, raises ValueError naming
    the path and the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        return read_document(stored, "manifest", _MANIFEST_TYPES, _manifest_from_fields,
                             RunManifest.to_dict)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# The experiment itself
# ---------------------------------------------------------------------------


def _loss(kind: str, config: ExperimentConfig) -> LossSpec:
    if kind == "cb_focal":
        return LossSpec(kind=kind, gamma=config.gamma, cb_beta=config.cb_beta)
    return LossSpec(kind=kind)


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run every configured method, evaluate on the test partition, and persist
    checkpoints, reports, the comparison table, and the manifest.

    The first stage is trained once and shared by all two-stage methods so
    they compete on the same representation; per-method seeds are derived
    independently of execution order.
    """
    out = Path(config.output_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)

    train, val, test = prepare_datasets(config)
    stats = compute_class_stats(train)
    arch = Architecture(feature_dim=train.feature_dim, num_classes=train.num_classes,
                        hidden=config.hidden)
    dataset_digest = hashlib.sha256(
        (train.digest() + val.digest() + test.digest()).encode("ascii")).hexdigest()
    config_digest = config.digest()

    manifest = RunManifest(config_digest=config_digest, dataset_digest=dataset_digest,
                           tool_version=__version__, one_stage=config.one_stage, methods={},
                           stage1_seconds={})
    manifest_path = out / "manifest.json"

    def own_fit(method: str) -> bool:
        """Whether ``method`` trains a backbone of its own instead of reusing stage 1."""
        entry = METHODS[method]
        return config.one_stage and entry.one_stage and entry.stage2 is not None

    # Per stage-1 tag: the model, and its frozen backbone's output on the train
    # rows (only when a stage 2 fits on it) and on the test rows.
    stage1_cache: dict[str, tuple[TrainedModel, np.ndarray | None, np.ndarray]] = {}

    def stage1_for(method: str) -> tuple[TrainedModel, np.ndarray | None, np.ndarray]:
        tag = "stage1" if config.shared_stage1 else f"stage1:{method}"
        if tag not in stage1_cache:
            started = time.perf_counter()
            spec = replace(config.stage1, seed=derive_seed(config.seed, tag))
            model = train_stage1(train, arch, spec, LossSpec(kind="cross_entropy"))
            users = config.methods if config.shared_stage1 else (method,)
            fits_stage2 = any(METHODS[m].stage2 is not None and not own_fit(m) for m in users)
            stage1_cache[tag] = (model,
                                 model.backbone.features(train.features) if fits_stage2 else None,
                                 model.backbone.features(test.features))
            manifest.stage1_seconds[tag] = round(time.perf_counter() - started, 3)
        return stage1_cache[tag]

    bags_background = {"auto": None, "on": True, "off": False}[config.bags_background_group]
    reports: list[EvalReport] = []
    step = "setup"
    method = ""
    try:
        for method in config.methods:
            entry = METHODS[method]
            if own_fit(method):
                started = time.perf_counter()
                step = "one-stage training"
                spec = replace(config.stage1, seed=derive_seed(config.seed, "one-stage", method))
                model = train_stage1(train, arch, spec, _loss(entry.loss, config), method=method)
                step = "evaluation"
                preds = predict(model, test.features)[0]
            else:
                step = "stage-1 training"
                model, train_h, test_h = stage1_for(method)
                started = time.perf_counter()
                if entry.stage2 is not None:
                    step = "stage-2 training"
                    spec = replace(config.stage2, seed=derive_seed(config.seed, "stage2", method))
                    model = train_stage2(model, train, method, spec, _loss(entry.loss, config),
                                         bags_beta=config.bags_beta,
                                         bags_background=bags_background, features=train_h)
                step = "evaluation"
                # Only predictions are kept: a score matrix held into the next
                # method's scoring would raise the run's peak memory.
                preds = predict(model, test_h, backbone_output=True)[0]
            report = evaluate(preds, test.labels, stats, method=method, seed=config.seed,
                              config_digest=config_digest, dataset_digest=dataset_digest,
                              class_names=train.class_names)
            step = "persistence"
            ckpt_rel = f"checkpoints/{method}.ckpt"
            report_rel = f"reports/{method}.json"
            save_model(model, str(out / ckpt_rel))
            save_report(report, str(out / report_rel))
            reports.append(report)
            manifest.methods[method] = {
                "checkpoint": ckpt_rel,
                "report": report_rel,
                "seconds": round(time.perf_counter() - started, 3),
            }
        step = "comparison"
        table = compare_methods(reports)
        (out / "reports" / "comparison.csv").write_text(table.to_csv(), encoding="utf-8")
        (out / "reports" / "comparison.txt").write_text(table.to_text(), encoding="utf-8")
        manifest.comparison_csv = "reports/comparison.csv"
        manifest.comparison_txt = "reports/comparison.txt"
        baseline = [r for r in reports if r.method == "baseline"]
        if baseline:
            step = "f1 delta"
            delta = emit_f1_delta(baseline[0], [r for r in reports if r.method != "baseline"])
            (out / "reports" / "f1_delta.csv").write_text(delta.to_csv(), encoding="utf-8")
            manifest.f1_delta_csv = "reports/f1_delta.csv"
    except Exception as exc:
        manifest.failure = {"method": method, "step": step, "error": str(exc)}
        manifest.save(str(manifest_path))
        raise RuntimeError(f"method {method!r} failed during {step}: {exc}") from exc
    manifest.save(str(manifest_path))
    return manifest


# ---------------------------------------------------------------------------
# Per-class F1 deltas over the baseline
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class F1DeltaTable:
    """Per-class F1 difference of each method over the baseline, sorted by
    training count descending."""

    class_names: tuple[str, ...]
    train_counts: np.ndarray
    methods: tuple[str, ...]
    deltas: np.ndarray  # (classes, methods)

    def to_csv(self) -> str:
        header = ["class", "train_count"] + [f"delta_{m}" for m in self.methods]
        lines = [",".join(header)]
        for i, name in enumerate(self.class_names):
            row = [name, str(int(self.train_counts[i]))]
            row += [f"{self.deltas[i, j]:.6f}" for j in range(len(self.methods))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def emit_f1_delta(baseline_report: EvalReport,
                  method_reports: list[EvalReport]) -> F1DeltaTable:
    """Per class, F1(method) - F1(baseline), one row per class."""
    for report in method_reports:
        if report.dataset_digest != baseline_report.dataset_digest:
            raise ValueError(f"report {report.method!r} has a different dataset digest "
                             "than the baseline")
    order = np.lexsort((np.arange(len(baseline_report.class_names)),
                        -baseline_report.train_counts))
    deltas = np.stack([r.per_class_f1 - baseline_report.per_class_f1
                       for r in method_reports], axis=1) if method_reports else \
        np.zeros((len(baseline_report.class_names), 0))
    return F1DeltaTable(
        class_names=tuple(baseline_report.class_names[i] for i in order),
        train_counts=baseline_report.train_counts[order],
        methods=tuple(r.method for r in method_reports),
        deltas=deltas[order],
    )
