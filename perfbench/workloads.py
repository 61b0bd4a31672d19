"""The benchmark's workloads: the config and inputs each makes from a seed, one
timed operation, and the checks on what the operation wrote.

Every workload drives ``longtail_lab.cli.main(["compare", ...])`` in-process,
the path a user runs.  The program receives only the config file (and, for
``embed``, the embedding file) that ``setup`` writes.  Functions of the program
are looked up on their modules at call time, so the wrappers ``probes.py``
installs see the benchmark's own calls too.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from longtail_lab import cli, data, experiment, model

WORKLOADS = ("desk", "wide", "embed")

METHODS = ("baseline", "sqrt_samp", "cb_focal", "bags", "ssb")

# Training rows of a class below this count make it a tail class (Bin_1, Bin_2).
TAIL_COUNT = 100

# The dataset drawn, and on embed its split, are part of a workload and stay
# fixed; --seed is the program's master seed, which picks initialisations,
# epoch streams and bags filters.  A new draw per seed moved desk's tail
# accuracy by 13% (quartile spread over ten seeds) instead of under 1%, and a
# new split per seed moved embed's by 9%.
DATASET_SEED = 0

# The default configuration, written out in full so that a change to the
# program's defaults does not silently change the workload.
DESK = {
    "methods": list(METHODS),
    "one_stage": False,
    "shared_stage1": True,
    "dataset": {
        "synthetic": {"num_classes": 20, "feature_dim": 16, "head_count": 1000,
                      "imbalance_factor": 200.0, "class_separation": 5.0,
                      "noise_sigma": 1.0},
        "background_class": None,
        "eval": {"mode": "fresh", "per_class": 100},
    },
    "split": {"train": 0.70, "val": 0.15, "test": 0.15, "stratified": True},
    "model": {"hidden": []},
    "stage1": {"lr_init": 0.01, "weight_decay": 1.0e-07, "batch_size": 64,
               "epochs": 30, "warmup_epochs": 2},
    "stage2": {"epochs": 12, "warmup_epochs": 1},
    "loss": {"gamma": 2.0, "cb_beta": 0.9},
    "bags": {"beta": 8.0, "background_group": "auto"},
}

# 75,750 training rows; one epoch per stage keeps a compare near 15 s on one
# core.  The smallest class has 10 rows, so bags has no group-1 classes.
WIDE_SYNTHETIC = {"num_classes": 200, "feature_dim": 128, "head_count": 2000,
                  "imbalance_factor": 200.0, "class_separation": 5.0,
                  "noise_sigma": 1.0}

# 53,419 rows in 100 classes of 64 features, written as text (about 55 MB).
EMBED_SYNTHETIC = {"num_classes": 100, "feature_dim": 64, "head_count": 3000,
                   "imbalance_factor": 300.0, "class_separation": 5.0,
                   "noise_sigma": 1.0}
EMBED_BACKGROUND = "class_00"


def config_doc(workload: str, seed: int, inputs: Path) -> dict:
    """The config document a workload hands the program for a master seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    doc = copy.deepcopy(DESK)
    doc["seed"] = seed
    doc["dataset"]["synthetic"]["seed"] = DATASET_SEED
    doc["split"]["seed"] = DATASET_SEED
    if workload == "wide":
        doc["dataset"]["synthetic"] = dict(WIDE_SYNTHETIC, seed=DATASET_SEED)
        doc["model"]["hidden"] = [256]
        doc["stage1"].update(epochs=1, warmup_epochs=0)
        doc["stage2"].update(epochs=1, warmup_epochs=0)
    elif workload == "embed":
        doc["one_stage"] = True
        doc["dataset"] = {"synthetic": None,
                          "embeddings": str(inputs / "embeddings.txt"),
                          "background_class": EMBED_BACKGROUND,
                          "eval": {"mode": "split"}}
        doc["model"]["hidden"] = [64]
        doc["stage1"].update(epochs=2, warmup_epochs=1)
        doc["stage2"].update(epochs=1, warmup_epochs=0)
    return doc


def embed_spec() -> data.SyntheticSpec:
    return data.SyntheticSpec(seed=DATASET_SEED, **EMBED_SYNTHETIC)


def setup(workload: str, seed: int, inputs: Path) -> Path:
    """Build and validate the config, write it and the workload's input files.

    Returns the config path.  ``embed`` also writes its embedding file here.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    doc = config_doc(workload, seed, inputs)
    experiment.config_from_dict(doc)
    config_path = inputs / "config.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    if workload == "embed":
        dataset = data.generate_synthetic(embed_spec())
        data.save_embeddings(dataset, str(inputs / "embeddings.txt"))
    return config_path


def report_digest(run_dir: Path) -> str:
    """sha256 over the name and bytes of every file under ``reports/``."""
    h = hashlib.sha256()
    for path in sorted((run_dir / "reports").iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_reports(run_dir: Path) -> dict[str, dict]:
    """The per-method report documents, parsed with the standard library."""
    return {m: json.loads((run_dir / "reports" / f"{m}.json").read_text(encoding="utf-8"))
            for m in METHODS}


def tail_accuracy(report: dict) -> float:
    """Top-1 accuracy on test rows of classes with < 100 training rows."""
    confusion = np.asarray(report["confusion"], dtype=np.int64)
    tail = np.asarray(report["train_counts"]) < TAIL_COUNT
    return float(np.diag(confusion)[tail].sum() / confusion[tail].sum())


def check_reports(reports: dict[str, dict], comparison_csv: str) -> list[str]:
    """Problems found by recomputing each report's figures from its confusion
    matrix, and by reading them back from comparison.csv."""
    problems = []
    rows = {line.split(",")[0]: line.split(",") for line in comparison_csv.splitlines()}
    header = rows.pop("method", None)
    for method, r in reports.items():
        confusion = np.asarray(r["confusion"], dtype=np.int64)
        num_classes = confusion.shape[0]
        tp = np.diag(confusion).astype(np.float64)
        denom = confusion.sum(axis=0) + confusion.sum(axis=1)
        f1 = np.divide(2 * tp, denom, out=np.zeros(num_classes), where=denom > 0)
        bins = np.asarray(r["class_bins"])
        expected = {"acc_all": tp.sum() / confusion.sum(), "macro_f1": f1.mean()}
        for b in sorted(set(bins[confusion.sum(axis=1) > 0].tolist())):
            members = bins == b
            expected[f"acc_bin{b}"] = tp[members].sum() / confusion[members].sum()
        got = {"acc_all": r["acc_all"], "macro_f1": r["macro_f1"],
               **{f"acc_bin{k}": v for k, v in r["acc_bins"].items()}}
        if set(got) != set(expected):
            problems.append(f"{method}: report bins {sorted(got)} != {sorted(expected)}")
            continue
        for key, value in expected.items():
            if abs(got[key] - value) > 1e-12:
                problems.append(f"{method}: {key} {got[key]!r} != recomputed {value!r}")
        if np.abs(np.asarray(r["per_class_f1"]) - f1).max() > 1e-12:
            problems.append(f"{method}: per-class F1 does not match the confusion matrix")
        if r["acc_all"] <= 2.0 / num_classes:
            problems.append(f"{method}: acc_all {r['acc_all']} is within twice chance")
        row = rows.get(method)
        if header is None or row is None:
            problems.append(f"{method}: missing from comparison.csv")
            continue
        for key, value in got.items():
            if key not in header or row[header.index(key)] != f"{value:.6f}":
                problems.append(f"{method}: comparison.csv {key} disagrees with the report")
    return problems


@dataclass
class OpResult:
    """What one operation produced; ``error`` is set when it failed."""

    run_dir: Path
    error: str | None = None
    digest: str | None = None
    reload_predictions: dict[str, np.ndarray] = field(default_factory=dict)
    rerendered: str | None = None


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One workload whose inputs ``setup`` has written."""

    def __init__(self, name: str, inputs: Path):
        self.name = name
        self.config_path = inputs / "config.yaml"
        if name == "embed":
            self._prepare_reload_reference()

    def _prepare_reload_reference(self) -> None:
        """The rows of the embedding file and which of them form the test split.

        The file was written from this draw with exact float round trips, so
        the draw stands in for the parsed file.  Test rows are found by content.
        """
        self.full = data.generate_synthetic(embed_spec())
        config = experiment.config_from_dict(
            yaml.safe_load(self.config_path.read_text(encoding="utf-8")))
        background = self.full.class_names.index(EMBED_BACKGROUND)
        test = data.split_dataset(self.full.with_background(background), config.split)[2]
        row_of = {row.tobytes(): i for i, row in enumerate(self.full.features)}
        if len(row_of) != self.full.num_instances:
            raise RuntimeError("embedding rows are not distinct; cannot locate test rows")
        self.test_rows = np.array([row_of[row.tobytes()] for row in test.features])
        self.test_labels = test.labels

    def run(self, run_dir: Path) -> OpResult:
        """The timed operation: one compare; on embed, then reload every
        checkpoint, score the whole file and re-render the stored reports."""
        result = OpResult(run_dir=run_dir)
        code, _ = _cli(["compare", "--config", str(self.config_path),
                        "--output-dir", str(run_dir)])
        if code != 0:
            result.error = f"compare returned {code}"
            return result
        if self.name == "embed":
            for method in METHODS:
                loaded = model.load_model(str(run_dir / "checkpoints" / f"{method}.ckpt"))
                result.reload_predictions[method], _ = model.predict(loaded, self.full.features)
            code, result.rerendered = _cli(
                ["report", *(str(run_dir / "reports" / f"{m}.json") for m in METHODS)])
            if code != 0:
                result.error = f"report returned {code}"
        return result

    def check(self, result: OpResult) -> None:
        """Digest the reports and run the per-operation checks on embed."""
        if result.error is not None:
            return
        result.digest = report_digest(result.run_dir)
        if self.name != "embed":
            return
        reports = load_reports(result.run_dir)
        for method, preds in result.reload_predictions.items():
            stored = np.asarray(reports[method]["confusion"], dtype=np.int64)
            confusion = np.zeros_like(stored)
            np.add.at(confusion, (self.test_labels, preds[self.test_rows]), 1)
            if not np.array_equal(confusion, stored):
                result.error = f"reloaded {method} checkpoint does not reproduce its report"
                return
        table = (result.run_dir / "reports" / "comparison.txt").read_text(encoding="utf-8")
        if result.rerendered != table:
            result.error = "re-rendered reports differ from comparison.txt"
