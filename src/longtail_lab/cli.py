"""Command-line harness: gen, train, compare, report, and f1delta subcommands."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from . import __version__
from .data import generate_synthetic, save_embeddings
from .experiment import (DEFAULT_CONFIG_YAML, config_from_dict, emit_f1_delta,
                         load_manifest, run_experiment, synthetic_spec)
from .metrics import compare_methods, load_report
from .model import METHODS


def _apply_set(doc: dict, path: str, value) -> None:
    """Set the dotted ``path`` of the config mapping to ``value``; a missing or
    null section on the way becomes a mapping."""
    *sections, key = path.split(".")
    node = doc
    for section in sections:
        if node.get(section) is None:
            node[section] = {}
        node = node[section]
        if not isinstance(node, dict):
            raise ValueError(f"cannot set {path}: its section {section!r} is not a mapping")
    node[key] = value


def _load_doc(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        if doc is None:
            doc = {}
    else:
        doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a mapping")
    for key in ("seed", "output_dir", "methods"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    if getattr(args, "one_stage", False):
        doc["one_stage"] = True
    for assignment in getattr(args, "set", None) or []:
        if "=" not in assignment:
            raise ValueError(f"--set expects dotted.path=value, got {assignment!r}")
        path, raw = assignment.split("=", 1)
        _apply_set(doc, path, yaml.safe_load(raw))
    return doc


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration document")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--output-dir", help="output directory override")
    parser.add_argument("--methods", help="comma-separated methods override")
    parser.add_argument("--one-stage", action="store_true",
                        help="train sqrt_samp/cb_focal in a single stage")
    parser.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="override any config key, e.g. --set stage2.epochs=24")


def _cmd_gen(args: argparse.Namespace) -> int:
    doc = _load_doc(args)
    flags = {k: getattr(args, k) for k in ("num_classes", "feature_dim", "head_count",
                                           "imbalance_factor", "class_separation", "noise_sigma")}
    flags["seed"] = args.data_seed
    for key, value in flags.items():
        if value is not None:
            _apply_set(doc, f"dataset.synthetic.{key}", value)
    spec = synthetic_spec(doc)
    dataset = generate_synthetic(spec)
    save_embeddings(dataset, args.out)
    print(f"wrote {dataset.num_instances} instances over {dataset.num_classes} "
          f"classes to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = config_from_dict({**_load_doc(args), "methods": [args.method]})
    manifest = run_experiment(config)
    entry = manifest.methods[args.method]
    print(f"{args.method}: checkpoint {entry['checkpoint']}, report {entry['report']} "
          f"({entry['seconds']}s) in {config.output_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = config_from_dict(_load_doc(args))
    run_experiment(config)
    table_path = Path(config.output_dir) / "reports" / "comparison.txt"
    sys.stdout.write(table_path.read_text(encoding="utf-8"))
    return 0


def _report_paths(args: argparse.Namespace) -> list[str]:
    """The report files named, then those the manifest of ``--run-dir`` lists, in its order."""
    paths = list(args.reports)
    if args.run_dir:
        listed = load_manifest(str(Path(args.run_dir, "manifest.json"))).methods.values()
        paths.extend(str(Path(args.run_dir, entry["report"])) for entry in listed)
    if not paths:
        raise ValueError("no reports given; pass report files or --run-dir")
    return paths


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [load_report(p) for p in _report_paths(args)]
    table = compare_methods(reports)
    sys.stdout.write(table.to_csv() if args.format == "csv" else table.to_text())
    return 0


def _cmd_f1delta(args: argparse.Namespace) -> int:
    baseline = load_report(args.baseline)
    others = [load_report(p) for p in args.method_reports]
    table = emit_f1_delta(baseline, others)
    if args.out:
        Path(args.out).write_text(table.to_csv(), encoding="utf-8")
        print(f"wrote {len(table.class_names)} rows to {args.out}")
    else:
        sys.stdout.write(table.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longtail-lab",
        description="Long-tail classification laboratory: train and compare "
                    "re-sampling, re-weighting, and multi-branch head methods.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic dataset in the embedding format")
    gen.add_argument("--out", required=True, help="output embedding file")
    gen.add_argument("--classes", type=int, dest="num_classes", help="number of classes")
    gen.add_argument("--dim", type=int, dest="feature_dim", help="feature dimension")
    gen.add_argument("--head-count", type=int, help="instances of the largest class")
    gen.add_argument("--imbalance", type=float, dest="imbalance_factor",
                     help="largest/smallest count ratio")
    gen.add_argument("--separation", type=float, dest="class_separation",
                     help="centroid distance scale")
    gen.add_argument("--noise", type=float, dest="noise_sigma", help="within-class noise sigma")
    gen.add_argument("--data-seed", type=int, help="dataset seed")
    gen.add_argument("--config", help="YAML config supplying dataset.synthetic defaults")
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="run a single method end to end")
    train.add_argument("--method", required=True, choices=METHODS)
    _add_common_flags(train)
    train.set_defaults(func=_cmd_train)

    compare = sub.add_parser("compare", help="run the full method comparison")
    _add_common_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    report = sub.add_parser("report", help="re-render tables from stored reports")
    report.add_argument("reports", nargs="*", help="report JSON files")
    report.add_argument("--run-dir", help="run directory: the reports its manifest lists")
    report.add_argument("--format", choices=("text", "csv"), default="text")
    report.set_defaults(func=_cmd_report)

    f1delta = sub.add_parser("f1delta", help="per-class F1 deltas over a baseline report")
    f1delta.add_argument("--baseline", required=True, help="baseline report JSON")
    f1delta.add_argument("method_reports", nargs="+", help="method report JSONs")
    f1delta.add_argument("--out", help="write CSV here instead of stdout")
    f1delta.set_defaults(func=_cmd_f1delta)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface one diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
