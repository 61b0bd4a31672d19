"""Binned top-1 accuracy, macro-averaged F1, confusion matrices, and
method-comparison tables for skewed class distributions."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import GROUP_LIMITS, count_decade
from .schema import read_document, write_text


@dataclass(eq=False)
class EvalReport:
    """One method's evaluation: per-bin accuracies, overall accuracy, macro F1.

    acc_bins holds only the bins with test instances; absent bins are omitted
    rather than reported as zero.  confusion is indexed [true, predicted].
    """

    acc_bins: dict[int, float]
    acc_all: float
    macro_f1: float
    per_class_f1: np.ndarray
    confusion: np.ndarray
    method: str
    seed: int
    config_digest: str
    dataset_digest: str
    class_names: tuple[str, ...]
    train_counts: np.ndarray
    class_bins: np.ndarray


def evaluate(predictions, true_labels, train_counts, *, method: str = "",
             seed: int = 0, config_digest: str = "", dataset_digest: str = "",
             class_names: tuple[str, ...] | None = None) -> EvalReport:
    """Score predictions against labels, binned by the decade of each class's
    count in ``train_counts``."""
    train_counts = np.asarray(train_counts, dtype=np.int64)
    preds = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if preds.shape != true.shape or preds.ndim != 1:
        raise ValueError("predictions and labels must be equal-length 1-D sequences")
    if preds.size == 0:
        raise ValueError("empty test set")
    num_classes = len(train_counts)
    for name, arr in (("predictions", preds), ("labels", true)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} must lie in [0, {num_classes})")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (true, preds), 1)
    names = class_names if class_names is not None else tuple(
        str(j) for j in range(num_classes))
    return build_report(confusion, train_counts, method=method, seed=seed,
                        config_digest=config_digest, dataset_digest=dataset_digest,
                        class_names=names)


def build_report(confusion: np.ndarray, train_counts: np.ndarray, *, method: str, seed: int,
                 config_digest: str, dataset_digest: str,
                 class_names: tuple[str, ...]) -> EvalReport:
    """The report of a test confusion matrix, binned by training-count decade.

    Every figure is derived from ``confusion`` and ``train_counts``; the other
    arguments only identify the run.  Per-class F1 uses the 0/0 convention: a
    class with no true positives and no false positives (or no false
    negatives) scores 0.
    """
    num_classes = len(class_names)
    if confusion.shape != (num_classes, num_classes):
        raise ValueError(f"confusion has shape {confusion.shape}; expected one row and "
                         f"one column for each of the {num_classes} class names")
    if train_counts.shape != (num_classes,):
        raise ValueError(f"train_counts has shape {train_counts.shape}; expected one "
                         f"count for each of the {num_classes} class names")
    if (confusion < 0).any() or (train_counts < 1).any():
        raise ValueError("confusion entries must be >= 0 and train_counts >= 1")
    tp = np.diag(confusion)
    rows = confusion.sum(axis=1)
    if rows.sum() == 0:
        raise ValueError("empty test set: confusion sums to 0")
    class_bins = count_decade(train_counts)
    acc_bins: dict[int, float] = {}
    for b in range(1, len(GROUP_LIMITS) + 1):
        members = class_bins == b
        if rows[members].any():
            acc_bins[b] = int(tp[members].sum()) / int(rows[members].sum())

    fp = confusion.sum(axis=0) - tp
    fn = rows - tp
    denom = 2 * tp + fp + fn
    per_class_f1 = np.divide(2 * tp.astype(np.float64), denom, out=np.zeros(num_classes),
                             where=denom > 0)
    return EvalReport(
        acc_bins=acc_bins,
        acc_all=int(tp.sum()) / int(rows.sum()),
        macro_f1=float(per_class_f1.mean()),
        per_class_f1=per_class_f1,
        confusion=confusion,
        method=method,
        seed=seed,
        config_digest=config_digest,
        dataset_digest=dataset_digest,
        class_names=tuple(class_names),
        train_counts=train_counts.copy(),
        class_bins=class_bins,
    )


def _report_fields(report: EvalReport) -> dict:
    return {
        "format": "longtail-lab-report",
        "version": 1,
        "method": report.method,
        "seed": report.seed,
        "config_digest": report.config_digest,
        "dataset_digest": report.dataset_digest,
        "acc_bins": {str(k): v for k, v in sorted(report.acc_bins.items())},
        "acc_all": report.acc_all,
        "macro_f1": report.macro_f1,
        "per_class_f1": report.per_class_f1.tolist(),
        "confusion": report.confusion.tolist(),
        "class_names": list(report.class_names),
        "train_counts": report.train_counts.tolist(),
        "class_bins": report.class_bins.tolist(),
    }


def report_to_json(report: EvalReport) -> str:
    """Deterministic JSON rendering; floats keep full precision via repr."""
    return json.dumps(_report_fields(report), sort_keys=True, indent=2) + "\n"


# The type of each report field a report is rebuilt from.
_REPORT_TYPES = {"method": str, "seed": int, "config_digest": str, "dataset_digest": str,
                 "class_names": [str], "train_counts": [int], "confusion": [[int]]}


def _int64(stored: dict, key: str) -> np.ndarray:
    try:
        return np.array(stored[key], dtype=np.int64)
    except ValueError:
        raise ValueError(f"field {key!r} is not a rectangular array") from None


def _report_from_fields(stored: dict) -> EvalReport:
    return build_report(_int64(stored, "confusion"), _int64(stored, "train_counts"),
                        method=stored["method"], seed=stored["seed"],
                        config_digest=stored["config_digest"],
                        dataset_digest=stored["dataset_digest"],
                        class_names=tuple(stored["class_names"]))


def report_from_json(text: str) -> EvalReport:
    """The report a JSON text stores, rebuilt from its confusion matrix, train
    counts and identity fields.

    The text must be exactly what ``report_to_json`` renders for the rebuilt
    report; otherwise ValueError names the first field that differs.
    """
    try:
        stored = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"report is not valid JSON: {exc}") from None
    report = read_document(stored, "report", _REPORT_TYPES, _report_from_fields,
                           _report_fields)
    if text != report_to_json(report):
        raise ValueError("report text differs from its rendering in whitespace or key order")
    return report


def save_report(report: EvalReport, path: str) -> None:
    write_text(path, report_to_json(report))


def load_report(path: str) -> EvalReport:
    """The report stored at ``path``; see ``report_from_json``.  Every error
    is a ValueError that starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return report_from_json(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(eq=False)
class ComparisonTable:
    """Method-by-metric table with best and second-best flags per column.

    values[row][col] is None where a bin is absent; flags hold "best",
    "second", or "" per cell (left empty for single-row tables).
    """

    columns: tuple[str, ...]
    methods: tuple[str, ...]
    values: list[dict[str, float | None]]
    flags: list[dict[str, str]]

    def to_csv(self) -> str:
        header = ["method", *self.columns, *(f"rank_{c}" for c in self.columns)]
        lines = [",".join(header)]
        for method, vals, flg in zip(self.methods, self.values, self.flags):
            cells = [method]
            cells += ["" if vals[c] is None else f"{vals[c]:.6f}" for c in self.columns]
            cells += [flg[c] for c in self.columns]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        marker = {"best": "*", "second": "+", "": ""}
        header = ["method", *self.columns]
        rows = [header]
        for method, vals, flg in zip(self.methods, self.values, self.flags):
            row = [method]
            for c in self.columns:
                cell = "-" if vals[c] is None else f"{vals[c]:.4f}{marker[flg[c]]}"
                row.append(cell)
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        lines.append("(* best per column, + second-best)")
        return "\n".join(lines) + "\n"


def compare_methods(reports: list[EvalReport]) -> ComparisonTable:
    """One row per method with per-column best/second-best rank flags.

    All reports must come from the same dataset; bins absent from every
    report are dropped, mirroring removed table columns.
    """
    if not reports:
        raise ValueError("no reports to compare")
    digests = {r.dataset_digest for r in reports}
    if len(digests) > 1:
        raise ValueError("reports do not share a dataset digest; refusing to compare")
    present_bins = sorted({b for r in reports for b in r.acc_bins})
    columns = tuple(f"acc_bin{b}" for b in present_bins) + ("acc_all", "macro_f1")
    values: list[dict[str, float | None]] = []
    for r in reports:
        row: dict[str, float | None] = {f"acc_bin{b}": r.acc_bins.get(b) for b in present_bins}
        row["acc_all"] = r.acc_all
        row["macro_f1"] = r.macro_f1
        values.append(row)
    flags = [{c: "" for c in columns} for _ in reports]
    if len(reports) > 1:
        for c in columns:
            present = [v[c] for v in values if v[c] is not None]
            if not present:
                continue
            best = max(present)
            lower = [v for v in present if v < best]
            second = max(lower) if lower else None
            for i, v in enumerate(values):
                if v[c] is None:
                    continue
                if v[c] == best:
                    flags[i][c] = "best"
                elif second is not None and v[c] == second:
                    flags[i][c] = "second"
    return ComparisonTable(columns=columns, methods=tuple(r.method for r in reports),
                           values=values, flags=flags)
