"""Experiment harness: configuration document, end-to-end method runs,
persistence of checkpoints and reports, and per-class F1 delta emission."""
from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np
import yaml

from . import __version__
from .data import (Dataset, SplitSpec, SyntheticSpec, compute_class_stats,
                   generate_synthetic, load_embeddings, split_dataset)
from .losses import LossSpec
from .metrics import EvalReport, compare_methods, evaluate, save_report
from .model import (METHODS, TrainedModel, fit_owner, predict, save_model, score_blocks,
                    train_stage1, train_stage2)
from .optim import OptimSpec
from .schema import check_types, read_document, write_text
from .seeding import derive_seed

# bags.background_group's words, and the bags_background argument each means.
_BACKGROUND_GROUP = {"auto": None, "on": True, "off": False}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a run needs; hashable into a digest that names the experiment.

    ``document`` is the config document the fields were read from, with every
    key filled in (see ``config_document``); ``config_from_dict`` builds both.
    """

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
    document: dict = field(repr=False)

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("config key methods: at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"config key methods: unknown method(s) {unknown}; "
                             f"expected a subset of {tuple(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("config key methods: duplicate method in methods list")
        if (self.synthetic is None) == (self.embeddings_path is None):
            raise ValueError("exactly one dataset source (synthetic or embeddings) is required")
        if self.eval_mode not in ("split", "fresh"):
            raise ValueError("config key dataset.eval.mode must be 'split' or 'fresh'")
        if self.eval_mode == "fresh" and self.synthetic is None:
            raise ValueError("fresh evaluation draws require a synthetic source")
        if self.eval_per_class < 1:
            raise ValueError("config key dataset.eval.per_class must be >= 1")
        if not all(h > 0 for h in self.hidden):
            raise ValueError(f"config key model.hidden must list positive integers, "
                             f"got {list(self.hidden)!r}")
        for name, spec in (("stage1", self.stage1), ("stage2", self.stage2)):
            if spec.epochs < 1:
                raise ValueError(f"config key {name}.epochs must be >= 1, got {spec.epochs!r}")
        if self.bags_background_group not in _BACKGROUND_GROUP:
            raise ValueError("config key bags.background_group must be one of "
                             f"{tuple(_BACKGROUND_GROUP)}")
        if self.bags_beta <= 0:
            raise ValueError(f"config key bags.beta must be > 0, got {self.bags_beta!r}")
        if not 0.0 <= self.cb_beta < 1.0:
            raise ValueError(f"config key loss.cb_beta must lie in [0, 1), got {self.cb_beta!r}")
        if self.gamma < 0:
            raise ValueError(f"config key loss.gamma must be >= 0, got {self.gamma!r}")

    def semantic_dict(self) -> dict:
        """The config document less the output directory: every key that affects results."""
        return {k: v for k, v in self.document.items() if k != "output_dir"}

    def digest(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Configuration document (YAML).  Unknown keys are hard errors: a silently
# ignored typo would corrupt a method comparison.
# ---------------------------------------------------------------------------

# The built-in demo run.  Every key it leaves out takes its default from the
# config table below.
DEFAULT_CONFIG_YAML = """\
seed: 0
output_dir: runs/demo
methods: [baseline, sqrt_samp, cb_focal, bags, ssb]
dataset:
  synthetic: {}
  eval: {mode: fresh, per_class: 100}
model: {hidden: []}
stage1: {epochs: 30, warmup_epochs: 2}
stage2: {epochs: 12, warmup_epochs: 1}
"""


def _comma_list(value):
    """``--set methods=a,b`` writes the list as a comma-separated string."""
    return [m.strip() for m in value.split(",") if m.strip()] if isinstance(value, str) else value


def _on_off(value):
    """YAML reads a bare ``on`` or ``off`` as a boolean; background_group means the word."""
    return ("on" if value else "off") if isinstance(value, bool) else value


# Every config key: its kind (see ``schema.check_types``), its default, and
# optionally a function that reads the value as written.  A callable default
# is computed from the document read so far.  A bare table is a section, which
# written as null or left out reads as all defaults.  Numbers are stored as floats.
_STAGE1_KEYS = {f.name: (get_type_hints(OptimSpec)[f.name], f.default)
                for f in fields(OptimSpec) if f.name != "seed"}
_SYNTHETIC_DEFAULTS = {"num_classes": 20, "feature_dim": 16, "head_count": 1000,
                       "imbalance_factor": 200.0, "class_separation": 5.0, "noise_sigma": 1.0,
                       "seed": lambda doc: derive_seed(doc["seed"], "dataset")}
_SYNTHETIC_KEYS = {k: (kind, _SYNTHETIC_DEFAULTS[k])
                   for k, kind in get_type_hints(SyntheticSpec).items()}
_CONFIG_KEYS = {
    "seed": (int, 0),
    "output_dir": (str, "runs/out"),
    "methods": ([str], ["baseline"], _comma_list),
    "one_stage": (bool, False),
    "shared_stage1": (bool, True),
    "dataset": {
        "synthetic": ((_SYNTHETIC_KEYS, None), None),
        "embeddings": ((str, None), None),
        "background_class": ((int, str, None), None),
        "eval": {"mode": (str, "split"), "per_class": (int, 100)},
    },
    "split": {"train": (float, 0.70), "val": (float, 0.15), "test": (float, 0.15),
              "seed": (int, lambda doc: derive_seed(doc["seed"], "split")),
              "stratified": (bool, True)},
    "model": {"hidden": ([int], [])},
    "stage1": _STAGE1_KEYS,
    # Classifier retraining inherits stage 1 except its shorter schedule.
    "stage2": {**{k: (kind, lambda doc, k=k: doc["stage1"][k])
                  for k, (kind, _) in _STAGE1_KEYS.items()},
               **{k: (int, getattr(OptimSpec().for_classifier(), k))
                  for k in ("epochs", "warmup_epochs")}},
    "loss": {"gamma": (float, 2.0), "cb_beta": (float, 0.9)},
    "bags": {"beta": (float, 8.0), "background_group": (str, "auto", _on_off)},
}


def _read(section: dict, keys: dict, where: str, doc: dict) -> dict:
    """``section`` with each of ``keys`` read as written or defaulted, then
    type-checked; ``doc`` is the document read so far."""
    unknown = sorted(f"{where}{k}" for k in section if k not in keys)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    out = {} if where else doc
    for key, entry in keys.items():
        kind, default, *read = entry if isinstance(entry, tuple) else (entry, {})
        value = section.get(key)
        if value is None and (key not in section or isinstance(kind, dict)):
            value = default(doc) if callable(default) else default
        elif read:
            value = read[0](value)
        table = kind[0] if isinstance(kind, tuple) else kind
        if isinstance(table, dict) and isinstance(value, dict):
            value = _read(value, table, f"{where}{key}.", doc)
        else:
            try:
                check_types(value, kind, where + key)
            except ValueError as exc:
                raise ValueError(f"config {exc}") from None
        out[key] = float(value) if kind is float else value
    return out


def config_document(doc: dict) -> dict:
    """The config document ``doc`` with every key checked against its kind and
    every key left out given its default.  Errors name the dotted key at fault."""
    if not isinstance(doc, dict):
        raise ValueError("config document must be a mapping")
    return copy.deepcopy(_read(doc, _CONFIG_KEYS, "", {}))


def _built(cls, where: str, **kwargs):
    """``cls(**kwargs)``, whose ValueError names the config section ``where``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"config section {where}: {exc}") from None


def synthetic_spec(doc: dict) -> SyntheticSpec:
    """The SyntheticSpec that ``gen`` reads from a config document: only
    ``seed`` and ``dataset`` are read, and a missing or null
    ``dataset.synthetic`` reads as all defaults, so ``gen`` writes the rows a
    run of the same document trains on."""
    keys = {"seed": _CONFIG_KEYS["seed"],
            "dataset": {**_CONFIG_KEYS["dataset"], "synthetic": _SYNTHETIC_KEYS}}
    read = _read({k: doc[k] for k in keys if k in doc}, keys, "", {})
    return _built(SyntheticSpec, "dataset.synthetic", **read["dataset"]["synthetic"])


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig; each error names its dotted config key."""
    doc = config_document(doc)
    dataset, split = doc["dataset"], doc["split"]
    return ExperimentConfig(
        seed=doc["seed"],
        output_dir=doc["output_dir"],
        methods=tuple(doc["methods"]),
        one_stage=doc["one_stage"],
        shared_stage1=doc["shared_stage1"],
        synthetic=None if dataset["synthetic"] is None else
        _built(SyntheticSpec, "dataset.synthetic", **dataset["synthetic"]),
        embeddings_path=dataset["embeddings"],
        background=dataset["background_class"],
        eval_mode=dataset["eval"]["mode"],
        eval_per_class=dataset["eval"]["per_class"],
        split=_built(SplitSpec, "split", train_fraction=split["train"],
                     val_fraction=split["val"], test_fraction=split["test"],
                     seed=split["seed"], stratified=split["stratified"]),
        hidden=tuple(doc["model"]["hidden"]),
        stage1=_built(OptimSpec, "stage1", **doc["stage1"]),
        stage2=_built(OptimSpec, "stage2", **doc["stage2"]),
        gamma=doc["loss"]["gamma"],
        cb_beta=doc["loss"]["cb_beta"],
        bags_beta=doc["bags"]["beta"],
        bags_background_group=doc["bags"]["background_group"],
        document=doc,
    )


def default_config() -> ExperimentConfig:
    return config_from_dict(yaml.safe_load(DEFAULT_CONFIG_YAML))


# ---------------------------------------------------------------------------
# Data preparation
# ---------------------------------------------------------------------------


def _resolve_background(dataset: Dataset, background: int | str | None) -> Dataset:
    """``dataset`` with the background class ``background``, an index or a class name."""
    if background is None:
        return dataset
    if isinstance(background, str):
        if background not in dataset.class_names:
            raise ValueError("config key dataset.background_class: "
                             f"background class {background!r} not among class names")
        background = dataset.class_names.index(background)
    try:
        return dataset.with_background(background)
    except ValueError as exc:
        raise ValueError(f"config key dataset.background_class: {exc}") from None


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

    ``prepare_seconds`` times loading or drawing the data and splitting it;
    ``stage1_seconds`` times each stage-1 model, its training and its frozen
    features, by tag; ``methods.<m>.seconds`` times the method's own work.
    """

    config_digest: str
    dataset_digest: str
    tool_version: str
    one_stage: bool
    methods: dict[str, dict]
    stage1_seconds: dict[str, float]
    prepare_seconds: float
    comparison_csv: str | None = None
    comparison_txt: str | None = None
    f1_delta_csv: str | None = None
    failure: dict | None = None

    def __post_init__(self) -> None:
        # Written as a JSON float, so a stored integer does not round-trip.
        self.prepare_seconds = float(self.prepare_seconds)

    def referenced_files(self) -> list[str]:
        named = [p for e in self.methods.values() for p in (e.get("checkpoint"), e.get("report"))]
        return [p for p in named + [self.comparison_csv, self.comparison_txt, self.f1_delta_csv]
                if p]

    def to_dict(self) -> dict:
        return {"format": "longtail-lab-manifest", "version": 1, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, path: str) -> None:
        root = Path(path).parent
        missing = [f for f in self.referenced_files() if not (root / f).exists()]
        if missing:
            raise RuntimeError(f"manifest references missing files: {missing}")
        write_text(path, self.to_json())


# The type of each manifest field, and of each entry of its ``methods``.
_MANIFEST_TYPES = {
    "config_digest": str, "dataset_digest": str, "tool_version": str, "one_stage": bool,
    "methods": dict, "stage1_seconds": dict, "prepare_seconds": float,
    "comparison_csv": (str, None), "comparison_txt": (str, None), "f1_delta_csv": (str, None),
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


def _loss(method: str, config: ExperimentConfig) -> LossSpec:
    if METHODS[method].loss == "cb_focal":
        return LossSpec(kind="cb_focal", gamma=config.gamma, cb_beta=config.cb_beta)
    return LossSpec(kind=METHODS[method].loss)


def step_reads(step: str, tag: str | None) -> tuple[str, ...]:
    """The held arrays a ``step`` of ``plan`` on stage-1 model ``tag`` (None for
    an own fit) reads, in order.  "train" and "test" are the raw splits; "<tag>"
    is a stage-1 model with its frozen backbone's output on the test rows and
    the stage-2 fits made on it, by owner; "<tag>.train" is the train split on
    that output, which stage-1 training computes only when a later step reads it."""
    return {("stage-1 training", True): ("train", "test"),
            ("one-stage training", False): ("train",),
            ("stage-2 training", True): (tag, f"{tag}.train"),
            ("evaluation", True): (tag,),
            ("evaluation", False): ("test",)}[step, tag is not None]


def plan(config: ExperimentConfig) -> list[tuple[str, str, str | None]]:
    """The steps ``run_experiment`` runs, in order, as (step, method, stage-1
    tag): the first user of a tag trains it, an own fit (tag None) trains in
    one stage, and each method ends in its evaluation."""
    steps: list[tuple[str, str, str | None]] = []
    for method in config.methods:
        if config.one_stage and METHODS[method].one_stage and METHODS[method].stage2 is not None:
            steps += [("one-stage training", method, None), ("evaluation", method, None)]
            continue
        tag = "stage1" if config.shared_stage1 else f"stage1:{method}"
        if ("stage-1 training", tag) not in [(s, t) for s, _, t in steps]:
            steps.append(("stage-1 training", method, tag))
        if METHODS[fit_owner(method)].stage2 is not None:
            steps.append(("stage-2 training", method, tag))
        steps.append(("evaluation", method, tag))
    return steps


def _stage1(config: ExperimentConfig, tag: str, inputs: Iterator, held: dict,
            frozen_train: bool) -> None:
    """Stage-1 training: write "<tag>" to ``held``, and "<tag>.train" if ``frozen_train``."""
    spec = replace(config.stage1, seed=derive_seed(config.seed, tag))
    train = next(inputs)
    model = train_stage1(train, config.hidden, spec, _loss("baseline", config))
    if frozen_train:
        held[f"{tag}.train"] = replace(train, features=model.backbone.features(train.features))
    # Freed here if this was their last read, the raw train rows do not
    # overlap the test pass.
    del train
    held[tag] = (model, model.backbone.features(next(inputs).features), {})


def _stage2(config: ExperimentConfig, method: str, inputs: Iterator) -> TrainedModel:
    """Stage-2 training: ``method``'s model, fitted on a stage-1 entry's frozen train split."""
    (model, _, fits), train_h = inputs
    owner = fit_owner(method)
    spec = replace(config.stage2, seed=derive_seed(config.seed, "stage2", owner))
    return train_stage2(model, train_h, method, spec, _loss(owner, config),
                        features=train_h.features, fits=fits, bags_beta=config.bags_beta,
                        bags_background=_BACKGROUND_GROUP[config.bags_background_group])


def _predictions(model: TrainedModel | None, tag: str | None,
                 inputs: Iterator) -> tuple[TrainedModel, np.ndarray]:
    """The model a method evaluates, ``model`` or else its stage-1 model, and its
    test predictions.  Each block of ``score_blocks`` is scored by one ``predict``
    call, of which only the class indices are kept, so no test-by-class matrix
    is ever held."""
    if tag is None:
        x, backbone_output = next(inputs).features, False
    else:
        stage1, x, _ = next(inputs)
        model, backbone_output = stage1 if model is None else model, True
    preds = np.empty(len(x), dtype=np.intp)
    for rows in score_blocks(len(x)):
        preds[rows] = predict(model, x[rows], backbone_output=backbone_output,
                              first_row=rows.start)[0]
    return model, preds


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run the steps of ``plan(config)``, which evaluate each method on the test
    partition, and persist checkpoints, reports, the comparison table, and the
    manifest.  Per-method seeds do not depend on execution order.  Each large
    array is held by its ``step_reads`` name and dropped at its last read."""
    out = Path(config.output_dir)
    for sub in ("checkpoints", "reports"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    train, val, test = prepare_datasets(config)
    prepare_seconds = round(time.perf_counter() - started, 3)
    stats = compute_class_stats(train)
    dataset_digest = hashlib.sha256(
        (train.digest() + val.digest() + test.digest()).encode("ascii")).hexdigest()
    del val  # hashed into the dataset digest; nothing else reads it
    config_digest = config.digest()

    manifest = RunManifest(config_digest=config_digest, dataset_digest=dataset_digest,
                           tool_version=__version__, one_stage=config.one_stage, methods={},
                           stage1_seconds={}, prepare_seconds=prepare_seconds)
    steps = plan(config)
    last_read = {name: i for i, (step, _, tag) in enumerate(steps)
                 for name in step_reads(step, tag)}
    held: dict[str, object] = {"train": train, "test": test}
    class_names, test_labels = train.class_names, test.labels
    del train, test
    reports: list[EvalReport] = []
    began: dict[str, float] = {}  # when each method's own work began
    model = None  # the model of the method under way, once it has trained one
    step, method = "setup", ""
    try:
        for i, (step, method, tag) in enumerate(steps):
            started = time.perf_counter()
            inputs = (held.pop(name) if last_read[name] == i else held[name]
                      for name in step_reads(step, tag))
            if step == "stage-1 training":
                _stage1(config, tag, inputs, held, f"{tag}.train" in last_read)
                manifest.stage1_seconds[tag] = round(time.perf_counter() - started, 3)
                continue
            began.setdefault(method, started)
            if step == "one-stage training":
                spec = replace(config.stage1, seed=derive_seed(config.seed, "one-stage", method))
                model = train_stage1(next(inputs), config.hidden, spec, _loss(method, config),
                                     method=method)
            elif step == "stage-2 training":
                model = _stage2(config, method, inputs)
            else:
                model, preds = _predictions(model, tag, inputs)
                report = evaluate(preds, test_labels, stats, method=method, seed=config.seed,
                                  config_digest=config_digest, dataset_digest=dataset_digest,
                                  class_names=class_names)
                step = "persistence"
                ckpt_rel = f"checkpoints/{method}.ckpt"
                report_rel = f"reports/{method}.json"
                save_model(model, str(out / ckpt_rel))
                save_report(report, str(out / report_rel))
                reports.append(report)
                manifest.methods[method] = {
                    "checkpoint": ckpt_rel, "report": report_rel,
                    "seconds": round(time.perf_counter() - began[method], 3)}
                model = None
        step = "comparison"
        table = compare_methods(reports)
        write_text(str(out / "reports" / "comparison.csv"), table.to_csv())
        write_text(str(out / "reports" / "comparison.txt"), table.to_text())
        manifest.comparison_csv = "reports/comparison.csv"
        manifest.comparison_txt = "reports/comparison.txt"
        baseline = [r for r in reports if r.method == "baseline"]
        if baseline:
            step = "f1 delta"
            delta = emit_f1_delta(baseline[0], [r for r in reports if r.method != "baseline"])
            write_text(str(out / "reports" / "f1_delta.csv"), delta.to_csv())
            manifest.f1_delta_csv = "reports/f1_delta.csv"
    except Exception as exc:
        manifest.failure = {"method": method, "step": step, "error": str(exc)}
        manifest.save(str(out / "manifest.json"))
        raise RuntimeError(f"method {method!r} failed during {step}: {exc}") from exc
    manifest.save(str(out / "manifest.json"))
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
        rows = [[name, str(int(count))] + [f"{d:.6f}" for d in deltas]
                for name, count, deltas in zip(self.class_names, self.train_counts, self.deltas)]
        return "".join(",".join(row) + "\n" for row in [header] + rows)


def emit_f1_delta(baseline_report: EvalReport,
                  method_reports: list[EvalReport]) -> F1DeltaTable:
    """Per class, F1(method) - F1(baseline), one row per class."""
    for report in method_reports:
        if report.dataset_digest != baseline_report.dataset_digest:
            raise ValueError(f"report {report.method!r} has a different dataset digest "
                             "than the baseline")
    order = np.lexsort((np.arange(len(baseline_report.class_names)),
                        -baseline_report.train_counts))
    deltas = np.array([r.per_class_f1 - baseline_report.per_class_f1 for r in method_reports]
                      ).reshape(len(method_reports), len(baseline_report.class_names)).T
    return F1DeltaTable(
        class_names=tuple(baseline_report.class_names[i] for i in order),
        train_counts=baseline_report.train_counts[order],
        methods=tuple(r.method for r in method_reports),
        deltas=deltas[order],
    )
