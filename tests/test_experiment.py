"""Configuration document, experiment runner, manifest, and F1-delta table."""
import copy
import hashlib
import json
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (Dataset, LossSpec, OptimSpec, compute_class_stats,
                          config_from_dict, default_config, emit_f1_delta, generate_synthetic,
                          load_model, load_report, run_experiment, save_embeddings,
                          train_stage1)
from longtail_lab import experiment as experiment_module
from longtail_lab import model as model_module
from longtail_lab.data import BLOCK_ROWS, FreshSplit, block_slices, split_dataset
from longtail_lab.experiment import (DEFAULT_CONFIG_YAML, F1DeltaTable, load_manifest, plan,
                                     prepare_datasets)
from longtail_lab.metrics import ComparisonTable
from longtail_lab.model import METHODS, fit_owner

from conftest import dataset_with_counts, traced_peak
from test_golden import short_config


def tiny_doc(out_dir: str, **overrides) -> dict:
    doc = {
        "seed": 5,
        "output_dir": out_dir,
        "methods": ["baseline", "sqrt_samp"],
        "dataset": {
            "synthetic": {"num_classes": 4, "feature_dim": 6, "head_count": 60,
                          "imbalance_factor": 12.0, "class_separation": 4.0,
                          "noise_sigma": 1.0, "seed": 3},
            "eval": {"mode": "fresh", "per_class": 25},
        },
        "stage1": {"epochs": 6, "warmup_epochs": 1},
        "stage2": {"epochs": 4, "warmup_epochs": 1},
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_default_document_parses(self):
        config = config_from_dict(yaml.safe_load(DEFAULT_CONFIG_YAML))
        assert set(config.methods) == {"baseline", "sqrt_samp", "cb_focal", "bags", "ssb"}
        assert config.stage1.epochs == 30 and config.stage1.warmup_epochs == 2
        assert config.stage2.epochs == 12 and config.stage2.warmup_epochs == 1

    def test_unknown_top_level_key_rejected(self):
        doc = tiny_doc("x")
        doc["mehtods"] = ["baseline"]
        with pytest.raises(ValueError, match="mehtods"):
            config_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = tiny_doc("x")
        doc["stage1"]["learning_rate"] = 0.1
        with pytest.raises(ValueError, match="stage1"):
            config_from_dict(doc)
        doc = tiny_doc("x")
        doc["loss"] = {1: 2.0, "gama": 2.0}
        with pytest.raises(ValueError, match="loss.1, loss.gama"):
            config_from_dict(doc)

    # Each value is rejected by config_from_dict, with its key in the message;
    # an empty section names a top-level key.
    @pytest.mark.parametrize("section, key, value, fragments", [
        ("stage1", "epochs", 3.5, ["stage1.epochs", "integer"]),
        ("stage1", "lr_init", float("nan"), ["stage1.lr_init", "finite"]),
        ("stage1", "weight_decay", -5, ["stage1", "weight_decay", ">= 0"]),
        ("stage1", "batch_size", "abc", ["stage1.batch_size", "integer"]),
        ("model", "hidden", 5, ["model.hidden", "list"]),
        ("model", "hidden", [4, 0], ["model.hidden", "positive integers"]),
        ("stage1", "epochs", 0, ["stage1.epochs", ">= 1"]),
        ("stage2", "epochs", 0, ["stage2.epochs", ">= 1"]),
        ("loss", "cb_beta", 1.5, ["loss.cb_beta", "[0, 1)"]),
        ("loss", "gamma", -1, ["loss.gamma", ">= 0"]),
        ("bags", "beta", 0, ["bags.beta", "> 0"]),
        ("", "one_stage", "no", ["one_stage", "boolean"]),
        ("", "shared_stage1", "false", ["shared_stage1", "boolean"]),
        ("split", "stratified", "no", ["split.stratified", "boolean"]),
        ("", "methods", 5, ["methods", "list"]),
        ("dataset", "eval", 5, ["dataset.eval", "mapping"]),
        ("dataset", "embeddings", 5, ["dataset.embeddings", "string"]),
        ("dataset", "background_class", 1.5, ["dataset.background_class", "integer"]),
        ("dataset", "background_class", True, ["dataset.background_class", "string"]),
        ("", "output_dir", 5, ["output_dir", "string"]),
        ("", "stage1", [], ["stage1", "mapping"]),
        ("", "methods", [], ["config key methods", "at least one"]),
        ("", "methods", ["baseline", "baseline"], ["config key methods", "duplicate"]),
        ("", "methods", ["baseline", "nope"], ["config key methods", "'nope'"]),
        ("split", "seed", -1, ["split", "seed", ">= 0"]),
        # YAML reads 1e-5 as text; the message says how to write it as a float.
        ("stage2", "lr_init", "1e-5", ["stage2.lr_init", "'1e-5'", "such as 1.0e-5 or 1.0e+5"]),
        ("bags", "background_group", "on", ["bags.background_group", "'on'",
                                             "dataset.background_class"]),
    ], ids=["float_epochs", "nan_lr", "negative_decay", "string_batch", "scalar_hidden",
            "zero_width_hidden", "no_stage1_epochs", "no_stage2_epochs", "cb_beta_above_one",
            "negative_gamma", "zero_bags_beta", "string_one_stage", "string_shared_stage1",
            "string_stratified", "scalar_methods", "scalar_eval", "scalar_embeddings",
            "float_background", "bool_background", "scalar_output_dir", "list_stage1",
            "empty_methods", "duplicate_methods", "unknown_method", "negative_split_seed",
            "exponent_without_dot", "background_group_on_without_background_class"])
    def test_bad_value_names_its_key(self, section, key, value, fragments):
        doc = tiny_doc("x")
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ValueError) as info:
            config_from_dict(doc)
        for text in fragments:
            assert text in str(info.value)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_leaf_of_another_kind_names_its_key(self, data):
        document = default_config().document
        key, written = data.draw(st.sampled_from(sorted(leaves(document).items())), label="leaf")
        accepted = ACCEPTED.get(key) or {kind_of(written), *WIDER.get(kind_of(written), ())}
        value = data.draw(OTHER_VALUES.filter(lambda v: kind_of(v) not in accepted), label="value")
        doc = copy.deepcopy(document)
        *sections, last = key.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[last] = value
        with pytest.raises(ValueError) as info:
            config_from_dict(doc)
        assert key in str(info.value)

    @pytest.mark.parametrize("parent, section", [
        ("dataset", "eval"), ("", "split"), ("", "model"), ("", "stage1"), ("", "stage2"),
        ("", "loss"), ("", "bags")])
    def test_null_section_reads_as_defaults(self, parent, section):
        left_out, null = tiny_doc("x"), tiny_doc("x")
        (left_out[parent] if parent else left_out).pop(section, None)
        (null[parent] if parent else null)[section] = None
        assert config_from_dict(null).digest() == config_from_dict(left_out).digest()

    def test_number_keys_are_stored_as_floats(self):
        a, b = tiny_doc("x"), tiny_doc("x")
        a["stage1"]["weight_decay"] = 0
        b["stage1"]["weight_decay"] = 0.0
        assert config_from_dict(a).digest() == config_from_dict(b).digest()
        assert config_from_dict(a).document["stage2"]["weight_decay"] == 0.0

    def test_readme_defaults_match(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("All keys with their defaults:", 1)[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = {k: v for k, v in leaves(yaml.safe_load(block)).items() if v != "<derived>"}
        filled = leaves(config_from_dict({"dataset": {"synthetic": {}}}).document)
        assert documented == {k: filled[k] for k in documented}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            config_from_dict(tiny_doc("x", methods=["baseline", "mystery"]))

    def test_requires_exactly_one_source(self):
        doc = tiny_doc("x")
        doc["dataset"]["embeddings"] = "also.txt"
        with pytest.raises(ValueError, match="exactly one dataset source"):
            config_from_dict(doc)
        doc = tiny_doc("x")
        doc["dataset"].pop("synthetic")
        doc["dataset"]["eval"] = {"mode": "split"}
        with pytest.raises(ValueError, match="exactly one dataset source"):
            config_from_dict(doc)

    def test_fresh_eval_requires_synthetic(self, tmp_path):
        emb = tmp_path / "d.txt"
        save_embeddings(generate_synthetic_small(), str(emb))
        doc = tiny_doc("x")
        doc["dataset"] = {"embeddings": str(emb), "eval": {"mode": "fresh"}}
        with pytest.raises(ValueError, match="fresh"):
            config_from_dict(doc)

    def test_digest_ignores_output_dir_only(self):
        a = config_from_dict(tiny_doc("runs/a"))
        b = config_from_dict(tiny_doc("runs/b"))
        c = config_from_dict(tiny_doc("runs/a", seed=6))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_covers_nested_fields(self):
        base = config_from_dict(tiny_doc("x"))
        doc = tiny_doc("x")
        doc["stage2"]["epochs"] = 5
        assert config_from_dict(doc).digest() != base.digest()

    def test_default_digest_is_pinned(self):
        # The digest names a run's results; it must not move with code layout.
        assert default_config().digest() == \
            "bc5b906e57e8c1476f23ee72a411155c00c58091bc073149a2721d83be836441"

    def test_stage2_inherits_stage1_values(self):
        doc = tiny_doc("x")
        doc["stage1"]["lr_init"] = 0.123
        config = config_from_dict(doc)
        assert config.stage2.lr_init == 0.123
        assert config.stage2.epochs == 4


def leaves(doc: dict, prefix: str = "") -> dict:
    """Each non-mapping value of a nested document, by dotted key."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def kind_of(value) -> str:
    if isinstance(value, float) and not np.isfinite(value):
        return "nonfinite"
    return "null" if value is None else type(value).__name__


# Values of every kind a YAML document holds.  A leaf accepts values of its
# default's kind, a number key integers too, and the keys in ACCEPTED more.
OTHER_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
WIDER = {"float": {"int"}}
ACCEPTED = {"methods": {"list", "str"}, "bags.background_group": {"str", "bool"},
            "dataset.embeddings": {"null", "str"},
            "dataset.background_class": {"null", "int", "str"}}


def generate_synthetic_small():
    from longtail_lab import SyntheticSpec
    return generate_synthetic(SyntheticSpec(num_classes=3, feature_dim=4, head_count=30,
                                            imbalance_factor=10.0, class_separation=4.0,
                                            noise_sigma=1.0, seed=1))


def prepared(config) -> tuple[Dataset, Dataset | FreshSplit, Dataset | FreshSplit]:
    """The train and test splits ``prepare_datasets(config)`` returns, with
    the validation split between them, built apart from it: the draw on noise
    stream 1 in fresh mode, the second part of the split in split mode.  The
    dataset digest is checked to cover the three, in order."""
    train, test, digest = prepare_datasets(config)
    if config.eval_mode == "fresh":
        counts = np.full(config.synthetic.num_classes, config.eval_per_class)
        val = FreshSplit(config.synthetic, counts, 1, train.background_class)
    else:
        base = generate_synthetic(config.synthetic).with_background(train.background_class)
        val = split_dataset(base, config.split)[1]
    assert digest == hashlib.sha256("".join(
        split.digest() for split in (train, val, test)).encode("ascii")).hexdigest()
    return train, val, test


class TestPrepareDatasets:
    def test_fresh_mode_keeps_full_training_profile(self):
        config = config_from_dict(tiny_doc("x"))
        train, val, test = prepared(config)
        assert np.bincount(train.labels).min() >= 1
        assert train.num_instances == np.bincount(train.labels).sum()
        np.testing.assert_array_equal(np.bincount(test.labels), 25)
        np.testing.assert_array_equal(np.bincount(val.labels), 25)
        first = [next(split.row_blocks())[1][:5] for split in (val, test)]
        assert not np.array_equal(*first)

    def test_split_mode_partitions(self):
        doc = tiny_doc("x")
        doc["dataset"]["eval"] = {"mode": "split"}
        doc["dataset"]["synthetic"]["head_count"] = 120
        config = config_from_dict(doc)
        assert sum(split.num_instances for split in prepared(config)) == \
            generate_synthetic(config.synthetic).num_instances

    @pytest.mark.parametrize("mode", ["fresh", "split"])
    def test_keeps_only_the_splits_a_step_reads(self, mode):
        doc = tiny_doc("x")
        doc["dataset"]["eval"]["mode"] = mode
        doc["dataset"]["synthetic"]["head_count"] = 120
        # The train and test splits are returned; the digest covers the
        # validation split all the same, hashed after the train split and
        # before the test split.
        train, val, test = prepared(config_from_dict(doc))
        assert len({split.digest() for split in (train, val, test)}) == 3

    def test_background_by_name(self):
        doc = tiny_doc("x")
        doc["dataset"]["background_class"] = "class_00"
        assert [split.background_class for split in prepared(config_from_dict(doc))] == [0, 0, 0]

    @staticmethod
    def overflow(splits: str, row: str = r"\d+") -> str:
        return (f"^config section dataset.synthetic: the {splits} draw overflows "
                rf"\(features row {row} is not finite\); lower noise_sigma or class_separation$")

    def test_nonfinite_draw_rejected(self):
        # No np.errstate here: the draw overflows without a warning.
        for mode, splits in (("fresh", "train"), ("split", "train, val and test")):
            doc = tiny_doc("x")
            doc["dataset"]["eval"]["mode"] = mode
            doc["dataset"]["synthetic"]["noise_sigma"] = 1e308
            with pytest.raises(ValueError, match=self.overflow(splits)):
                prepare_datasets(config_from_dict(doc))

    def test_nonfinite_row_in_a_later_fresh_block_rejected(self, monkeypatch):
        row_blocks = FreshSplit.row_blocks
        for name, stream in (("val", 1), ("test", 2)):
            def poisoned(self, stream=stream):
                for i, (rows, block) in enumerate(row_blocks(self)):
                    if i == 1 and self.noise_stream == stream:
                        block[-1, 0] = np.nan
                    yield rows, block

            monkeypatch.setattr(FreshSplit, "row_blocks", poisoned)
            doc = tiny_doc("x")
            doc["dataset"]["eval"]["per_class"] = 300  # 1,200 rows: two blocks of 600
            with pytest.raises(ValueError, match=self.overflow(name, row="1199")):
                prepare_datasets(config_from_dict(doc))

    def test_unknown_background_name_rejected(self):
        doc = tiny_doc("x")
        doc["dataset"]["background_class"] = "zebra"
        with pytest.raises(ValueError, match="zebra"):
            prepare_datasets(config_from_dict(doc))

    def test_bad_background_names_its_key(self):
        for background, fault in ((99, "99 out of range [0, 4)"),
                                  ("nope", "'nope' not among class names")):
            doc = tiny_doc("x")
            doc["dataset"]["background_class"] = background
            with pytest.raises(ValueError) as info:
                prepare_datasets(config_from_dict(doc))
            assert str(info.value).startswith("config key dataset.background_class: ")
            assert fault in str(info.value)


class TestRunExperiment:
    def test_baseline_only_manifest(self, tmp_path):
        config = config_from_dict(tiny_doc(str(tmp_path / "run"), methods=["baseline"]))
        manifest = run_experiment(config)
        assert list(manifest.methods) == ["baseline"]
        entry = manifest.methods["baseline"]
        assert (tmp_path / "run" / entry["checkpoint"]).exists()
        assert (tmp_path / "run" / entry["report"]).exists()
        assert manifest.failure is None
        reloaded = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert reloaded.config_digest == config.digest()
        assert list(reloaded.stage1_seconds) == ["stage1"]
        assert reloaded.stage1_seconds["stage1"] >= 0
        assert reloaded.prepare_seconds == manifest.prepare_seconds >= 0

    def test_all_methods_share_stage1(self, tmp_path):
        config = config_from_dict(tiny_doc(
            str(tmp_path / "run"),
            methods=["baseline", "sqrt_samp", "cb_focal", "bags", "ssb"]))
        run_experiment(config)
        base = load_model(str(tmp_path / "run" / "checkpoints" / "baseline.ckpt"))
        ssb = load_model(str(tmp_path / "run" / "checkpoints" / "ssb.ckpt"))
        assert np.array_equal(base.heads["head"].weight, ssb.heads["head"].weight)
        assert np.array_equal(base.heads["head"].bias, ssb.heads["head"].bias)
        for name in ("comparison.csv", "comparison.txt", "f1_delta.csv"):
            assert (tmp_path / "run" / "reports" / name).exists()

    def test_rerun_byte_identical_reports(self, tmp_path):
        for d in ("a", "b"):
            config = config_from_dict(tiny_doc(str(tmp_path / d),
                                               methods=["baseline", "ssb"]))
            run_experiment(config)
        for rel in ("reports/baseline.json", "reports/ssb.json",
                    "reports/comparison.csv", "reports/f1_delta.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_failure_marker_written(self, tmp_path):
        doc = tiny_doc(str(tmp_path / "run"), methods=["bags"])
        doc["stage2"]["lr_init"] = 1.0e+300  # stage 1 trains; bags' stage 2 diverges
        config = config_from_dict(doc)
        with pytest.raises(RuntimeError, match="bags.*stage-2"):
            run_experiment(config)
        manifest = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert manifest.failure["method"] == "bags"
        assert "training diverged: non-finite logits" in manifest.failure["error"]
        done = run_experiment(config_from_dict(tiny_doc(str(tmp_path / "done"),
                                                        methods=["baseline"])))
        assert manifest.dataset_digest == done.dataset_digest

    def test_a_failed_fit_fails_before_any_report_is_written(self, tmp_path):
        doc = tiny_doc(str(tmp_path / "run"), methods=["baseline", "bags"])
        doc["stage2"]["lr_init"] = 1.0e+300  # stage 1 trains; bags' stage 2 diverges
        with pytest.raises(RuntimeError, match="method 'bags' failed during stage-2 training"):
            run_experiment(config_from_dict(doc))
        for sub in ("reports", "checkpoints"):
            assert list((tmp_path / "run" / sub).iterdir()) == []
        manifest = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert manifest.methods == {}
        assert (manifest.failure["method"], manifest.failure["step"]) == ("bags",
                                                                          "stage-2 training")

    def test_an_overflowing_gradient_names_its_parameter_and_epoch(self, tmp_path):
        # The squares of the gradient overflow while every value is finite.
        doc = tiny_doc(str(tmp_path / "run"), methods=["baseline"])
        doc["dataset"]["synthetic"]["class_separation"] = 1e308
        with pytest.raises(RuntimeError, match="^method 'baseline' failed during stage-1 "
                           "training: training diverged: overflowing gradient for head.weight "
                           "at epoch 0$"):
            run_experiment(config_from_dict(doc))

    def test_failure_before_any_evaluation_keeps_the_dataset_digest(self, tmp_path,
                                                                    monkeypatch):
        done = run_experiment(config_from_dict(tiny_doc(str(tmp_path / "done"))))

        def fail(*args, **kwargs):
            raise ValueError("no fit")

        monkeypatch.setattr(experiment_module, "train_stage1", fail)
        with pytest.raises(RuntimeError, match="failed during stage-1 training"):
            run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"))))
        manifest = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert manifest.failure == {"method": "baseline", "step": "stage-1 training",
                                    "error": "no fit"}
        assert manifest.dataset_digest == done.dataset_digest

    @pytest.mark.parametrize("owner, render", [(ComparisonTable, "to_csv"),
                                               (ComparisonTable, "to_text"),
                                               (F1DeltaTable, "to_csv")],
                             ids=["comparison.csv", "comparison.txt", "f1_delta.csv"])
    def test_interrupted_table_write_keeps_the_old_table(self, tmp_path, monkeypatch, owner,
                                                          render):
        config = config_from_dict(tiny_doc(str(tmp_path / "run")))
        run_experiment(config)
        reports = tmp_path / "run" / "reports"
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        # A lone surrogate cannot be encoded, so the write fails after the file is opened.
        text = getattr(owner, render)
        monkeypatch.setattr(owner, render, lambda table: text(table) + "\ud800")
        with pytest.raises(RuntimeError, match="failed during"):
            run_experiment(config)
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    def test_one_stage_regime(self, tmp_path):
        config = config_from_dict(tiny_doc(str(tmp_path / "run"),
                                           methods=["baseline", "sqrt_samp", "cb_focal"],
                                           one_stage=True))
        manifest = run_experiment(config)
        assert manifest.one_stage
        assert list(manifest.stage1_seconds) == ["stage1"]  # the baseline's
        sqrt = load_model(str(tmp_path / "run" / "checkpoints" / "sqrt_samp.ckpt"))
        # one-stage models have no frozen backbone and carry full-length logs
        assert not sqrt.backbone.frozen
        assert len(sqrt.train_log) == config.stage1.epochs

    def test_independent_stage1_when_not_shared(self, tmp_path):
        config = config_from_dict(tiny_doc(str(tmp_path / "run"),
                                           methods=["baseline", "ssb"],
                                           shared_stage1=False))
        manifest = run_experiment(config)
        base = load_model(str(tmp_path / "run" / "checkpoints" / "baseline.ckpt"))
        ssb = load_model(str(tmp_path / "run" / "checkpoints" / "ssb.ckpt"))
        assert not np.array_equal(base.heads["head"].weight, ssb.heads["head"].weight)
        assert list(manifest.stage1_seconds) == ["stage1:baseline", "stage1:ssb"]

    # sqrt_samp's stage-2 head is ssb's square-root branch: one fit per
    # stage-1 model both share, one each where they do not share one.
    @pytest.mark.parametrize("methods, overrides, fitted", [
        (["sqrt_samp", "ssb"], {}, 1),
        (["ssb", "sqrt_samp"], {}, 1),
        (["sqrt_samp", "ssb"], {"shared_stage1": False}, 2),
        (["sqrt_samp", "ssb"], {"one_stage": True}, 1),  # sqrt_samp trains in one stage
    ], ids=["shared", "ssb_first", "stage1_not_shared", "one_stage"])
    def test_square_root_head_fitted_once_per_stage1_model(self, tmp_path, monkeypatch, methods,
                                                           overrides, fitted):
        calls = []
        fit = model_module.train_linear_head
        monkeypatch.setattr(model_module, "train_linear_head",
                            lambda *args, **kwargs: calls.append(1) or fit(*args, **kwargs))
        run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"), methods=methods,
                                                 **overrides)))
        assert len(calls) == fitted

    def test_embeddings_source(self, tmp_path):
        emb = tmp_path / "data.txt"
        save_embeddings(generate_synthetic_small(), str(emb))
        doc = tiny_doc(str(tmp_path / "run"), methods=["baseline"])
        doc["dataset"] = {"embeddings": str(emb), "eval": {"mode": "split"}}
        doc["split"] = {"train": 0.6, "val": 0.2, "test": 0.2}
        manifest = run_experiment(config_from_dict(doc))
        assert "baseline" in manifest.methods


def watch_splits(monkeypatch) -> dict[str, weakref.ref]:
    """Weak references to the splits a run makes, by split: to the feature rows
    of a Dataset, and to a fresh evaluation set itself.  Data prep hashes the
    train, val and test splits, in that order, as it makes them."""
    refs: dict[str, weakref.ref] = {}

    def watch(cls, held):
        digest = cls.digest

        def watched(self):
            refs[("train", "val", "test")[len(refs)]] = weakref.ref(held(self))
            return digest(self)

        monkeypatch.setattr(cls, "digest", watched)

    watch(Dataset, lambda split: split.features)
    watch(FreshSplit, lambda split: split)
    return refs


def alive(refs: dict[str, weakref.ref]) -> set[str]:
    return {name for name, ref in refs.items() if ref() is not None}


def spy(monkeypatch, name: str, before) -> None:
    """Call ``before(*args, **kwargs)`` ahead of each call of ``experiment.<name>``."""
    inner = getattr(experiment_module, name)

    def spied(*args, **kwargs):
        before(*args, **kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(experiment_module, name, spied)


def stage2(*methods):
    return [("stage-2 training", m) for m in methods]


def evaluations(*methods):
    return [("evaluation", m) for m in methods]


class TestPlan:
    """``plan`` is pure: it reads only the method list and the two regime flags.
    Every fit comes first, then the evaluations, which ``run_experiment``
    scores in one pass over the test set."""

    def pairs(self, **overrides) -> list[tuple[str, str]]:
        return [(step, method) for step, method, _ in
                plan(config_from_dict(tiny_doc("unused", **overrides)))]

    def test_default_config(self):
        # The shape of the benchmark's desk and wide workloads.
        assert [(s, m) for s, m, _ in plan(default_config())] == [
            ("stage-1 training", "baseline"),
            *stage2("sqrt_samp", "cb_focal", "bags", "ssb"), *evaluations(*METHODS)]

    def test_one_stage_with_a_background_class(self):
        # The shape of the benchmark's embed workload.
        doc = tiny_doc("unused", methods=list(METHODS), one_stage=True)
        doc["dataset"]["background_class"] = 0
        steps = plan(config_from_dict(doc))
        assert [(s, m) for s, m, _ in steps] == [
            ("stage-1 training", "baseline"),
            ("one-stage training", "sqrt_samp"), ("one-stage training", "cb_focal"),
            *stage2("bags", "ssb"), *evaluations(*METHODS)]
        assert {m: t for _, m, t in steps} == {
            "baseline": "stage1", "sqrt_samp": None, "cb_focal": None,
            "bags": "stage1", "ssb": "stage1"}

    def test_unshared_stage1(self):
        assert self.pairs(methods=list(METHODS), shared_stage1=False) == [
            ("stage-1 training", "baseline"),
            *[pair for m in ("sqrt_samp", "cb_focal", "bags", "ssb")
              for pair in [("stage-1 training", m), *stage2(m)]],
            *evaluations(*METHODS)]

    def test_ssb_before_sqrt_samp(self):
        assert self.pairs(methods=["ssb", "sqrt_samp"]) == [
            ("stage-1 training", "ssb"), *stage2("ssb", "sqrt_samp"),
            *evaluations("ssb", "sqrt_samp")]

    @settings(max_examples=200, deadline=None)
    @given(methods=st.lists(st.sampled_from(tuple(METHODS)), min_size=1, max_size=len(METHODS),
                            unique=True),
           one_stage=st.booleans(), shared_stage1=st.booleans())
    def test_every_read_is_written_first(self, methods, one_stage, shared_stage1):
        steps = plan(config_from_dict(tiny_doc("unused", methods=methods, one_stage=one_stage,
                                               shared_stage1=shared_stage1)))
        ready = set()  # every tag trained so far
        for step, method, tag in steps:
            if step == "stage-1 training":
                ready.add(tag)
            elif tag is not None:
                assert tag in ready, (step, method)
        assert [m for s, m, _ in steps if s == "evaluation"] == methods
        assert [s for s, _, _ in steps][-len(methods):] == ["evaluation"] * len(methods)
        trained = Counter(t for s, _, t in steps if s == "stage-1 training")
        assert set(trained.values()) <= {1}
        assert set(trained) == {t for _, _, t in steps if t is not None}
        assert sum(s == "stage-2 training" for s, _, _ in steps) == sum(
            t is not None and METHODS[fit_owner(m)].stage2 is not None
            for s, m, t in steps if s == "evaluation")


SLEEP = 0.2


class TestManifestTimings:
    """Each fit sleeps first, a stage-2 fit only when it is made rather than
    reused: the sleep shows in the timing of the step that makes the fit."""

    @pytest.fixture(autouse=True)
    def slow_fits(self, monkeypatch):
        spy(monkeypatch, "train_stage1", lambda *args, **kwargs: time.sleep(SLEEP))
        spy(monkeypatch, "train_stage2", lambda model, dataset, method, *args, fits, **kwargs:
            fit_owner(method) in fits or time.sleep(SLEEP))

    def test_stage1_fit_is_timed_apart_from_the_baseline(self, tmp_path):
        manifest = run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"),
                                                            methods=["baseline"])))
        assert manifest.stage1_seconds["stage1"] >= SLEEP
        assert manifest.methods["baseline"]["seconds"] < SLEEP

    def test_the_scoring_pass_is_timed_once_apart_from_the_methods(self, tmp_path, monkeypatch):
        spy(monkeypatch, "_predictions", lambda *args: time.sleep(SLEEP))
        manifest = run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"),
                                                            methods=["baseline", "sqrt_samp"])))
        assert manifest.scoring_seconds >= SLEEP
        assert manifest.methods["baseline"]["seconds"] < SLEEP
        assert SLEEP <= manifest.methods["sqrt_samp"]["seconds"]  # its stage-2 fit

    def test_a_shared_stage2_fit_is_counted_once(self, tmp_path):
        manifest = run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"),
                                                            methods=["sqrt_samp", "ssb"])))
        assert manifest.stage1_seconds["stage1"] >= SLEEP
        assert manifest.methods["sqrt_samp"]["seconds"] >= SLEEP
        assert manifest.methods["ssb"]["seconds"] < SLEEP


class TestArrayLifetimes:
    """A run holds each large array only until its last reader has run, and no
    backbone output of a whole split: the raw train rows until the last fit,
    the test split until the scoring pass ends.  The runs use an MLP backbone:
    the identity backbone's output is the raw rows themselves."""

    def test_two_stage_run_holds_the_raw_train_rows_through_its_last_stage_2_fit(
            self, tmp_path, monkeypatch):
        refs = watch_splits(monkeypatch)
        at_fit, at_scoring, at_evaluate = [], [], []
        spy(monkeypatch, "train_stage2", lambda *args, **kwargs: at_fit.append(alive(refs)))
        spy(monkeypatch, "_predictions",
            lambda *args, **kwargs: at_scoring.append(alive(refs)))
        spy(monkeypatch, "evaluate", lambda *args, **kwargs: at_evaluate.append(alive(refs)))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["baseline", "sqrt_samp", "bags", "ssb"],
            model={"hidden": [8]})))
        # Every stage-2 fit reads the raw train rows, which go with the last,
        # before the one scoring pass; the raw test rows go with that pass.
        assert at_fit == [{"train", "test"}] * 3
        assert at_scoring == [{"test"}]
        assert at_evaluate == [set()] * 4

    @staticmethod
    def at_stage1_and_first_predict(monkeypatch, doc: dict) -> list[tuple[set[str], set[str]]]:
        """The splits made so far and the splits alive when a run of ``doc``
        trains its stage-1 model and when it first scores test rows."""
        refs = watch_splits(monkeypatch)
        seen = []
        spy(monkeypatch, "train_stage1",
            lambda *args, **kwargs: seen.append((set(refs), alive(refs))))
        spy(monkeypatch, "predict", lambda *args, **kwargs: len(seen) == 1 and seen.append(
            (set(refs), alive(refs))))
        run_experiment(config_from_dict(doc))
        return seen

    @pytest.mark.parametrize("mode", ["fresh", "split"])
    def test_validation_split_is_dropped_before_stage1(self, tmp_path, monkeypatch, mode):
        doc = tiny_doc(str(tmp_path / "run"), methods=["baseline", "sqrt_samp"],
                       model={"hidden": [8]})
        doc["dataset"]["eval"]["mode"] = mode
        doc["dataset"]["synthetic"]["head_count"] = 120
        # Data prep makes all three splits; the validation split is hashed and
        # not kept, as no step reads it.  The raw train rows go with the last
        # fit, before scoring.
        made = {"train", "val", "test"}
        assert self.at_stage1_and_first_predict(monkeypatch, doc) == [
            (made, {"train", "test"}), (made, {"test"})]

    def test_fresh_validation_draw_is_freed_before_the_test_draw(self, tmp_path, monkeypatch):
        refs = watch_splits(monkeypatch)
        drawn, hashed = [], []
        spy(monkeypatch, "generate_synthetic",
            lambda *args, **kwargs: drawn.append((set(refs), alive(refs))))
        digest = FreshSplit.digest
        monkeypatch.setattr(FreshSplit, "digest",
                            lambda self: hashed.append((set(refs), alive(refs))) or digest(self))
        run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"))))
        # generate_synthetic makes only the train draw.  The val set is drawn
        # a block at a time as it is hashed, then the test set once val is gone.
        assert drawn == [(set(), set())]
        assert hashed == [({"train"}, {"train"}), ({"train", "val"}, {"train"})]

    def test_one_stage_run_frees_the_raw_splits_after_the_last_own_fit(self, tmp_path,
                                                                         monkeypatch):
        refs = watch_splits(monkeypatch)
        at_predict, at_evaluate = [], []
        spy(monkeypatch, "predict", lambda *args, **kwargs: at_predict.append(alive(refs)))
        spy(monkeypatch, "evaluate", lambda *args, **kwargs: at_evaluate.append(alive(refs)))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["baseline", "sqrt_samp", "cb_focal"],
            one_stage=True, model={"hidden": [8]})))
        # The validation split is gone, the raw train rows go with the last own
        # fit, and the test rows with the scoring pass, before any evaluation.
        assert set(map(frozenset, at_predict)) == {frozenset({"test"})}
        assert at_evaluate == [set()] * 3

    def test_unshared_stage1_models_are_freed_before_scoring(
            self, tmp_path, monkeypatch):
        models: list[weakref.ref] = []
        seen = []
        inner = experiment_module.train_stage1

        def trained(*args, **kwargs):
            seen.append([ref() is not None for ref in models])
            model = inner(*args, **kwargs)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(experiment_module, "train_stage1", trained)
        spy(monkeypatch, "_predictions",
            lambda *args, **kwargs: seen.append([ref() is not None for ref in models]))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["sqrt_samp", "cb_focal", "ssb"],
            shared_stage1=False, model={"hidden": [8]})))
        # Each stage-1 model is held until its method's evaluation has read it.
        # Every method here scores its own stage-2 model, so the scoring pass
        # holds no stage-1 model.
        assert seen == [[], [True], [True, True], [False, False, False]]

    def test_peak_holds_no_more_than_the_raw_and_frozen_rows(self, tmp_path):
        """The raw train rows, plus 3 MiB for labels, one batch's backbone
        caches, one drawn and scored test block, and checkpoint buffers; a
        stage-1 fit, the peak, holds 1.75 MiB of it.  The backbone's output on
        the test split (4.9 MiB), or the whole test or validation draw (2.4 MiB)
        beside what the fits hold, would exceed the bound."""
        doc = tiny_doc(str(tmp_path / "run"), model={"hidden": [64]},
                       stage1={"epochs": 1, "warmup_epochs": 0, "batch_size": 512},
                       stage2={"epochs": 1, "warmup_epochs": 0})
        doc["dataset"] = {"synthetic": {"num_classes": 4, "feature_dim": 32,
                                        "head_count": 10_000, "imbalance_factor": 10.0,
                                        "class_separation": 4.0, "noise_sigma": 1.0,
                                        "seed": 3},
                          "eval": {"mode": "fresh", "per_class": 2_500}}
        config = config_from_dict(doc)
        train, test, _ = prepare_datasets(config)
        raw = train.features.nbytes
        slack = 3 << 20
        assert test.num_instances * 64 * 8 > slack
        del train, test
        _, peak = traced_peak(run_experiment, config)
        assert peak <= raw + slack, (peak - raw) / 2**20


class TestEvaluation:
    @pytest.mark.parametrize("methods, one_stage", [(list(METHODS), False), (["sqrt_samp"], True)],
                             ids=["two_stage", "one_stage"])
    def test_no_test_by_class_matrix_is_held(self, tmp_path, monkeypatch, methods, one_stage):
        inner = experiment_module._predictions
        peaks = []

        def measured(*args):
            result, peak = traced_peak(inner, *args)
            peaks.append(peak)
            return result

        monkeypatch.setattr(experiment_module, "_predictions", measured)
        epoch = {"epochs": 1, "warmup_epochs": 0}
        doc = tiny_doc(str(tmp_path / "run"), methods=methods, one_stage=one_stage,
                       stage1=epoch, stage2=epoch)
        doc["dataset"] = {"synthetic": {"num_classes": 200, "feature_dim": 4, "head_count": 20,
                                        "imbalance_factor": 2.0, "class_separation": 4.0,
                                        "noise_sigma": 1.0, "seed": 3},
                          "eval": {"mode": "fresh", "per_class": 100}}
        run_experiment(config_from_dict(doc))
        # 20,000 test rows in 20 score blocks, every method in one pass: one
        # block's scores is a twentieth of the matrix.
        matrix = 20_000 * 200 * 8
        assert len(peaks) == 1
        assert max(peaks) < matrix, max(peaks) / matrix

    def test_a_fresh_test_set_is_drawn_once_for_scoring(self, tmp_path, monkeypatch):
        drawn = []
        draw = FreshSplit._draw

        def counted(self, blocks):
            drawn.append(self.noise_stream)
            return draw(self, blocks)

        monkeypatch.setattr(FreshSplit, "_draw", counted)
        run_experiment(config_from_dict(tiny_doc(str(tmp_path / "run"), methods=list(METHODS))))
        # Data prep draws the train rows (stream 0) whole and hashes the val
        # (stream 1) and test (stream 2) draws; the scoring pass draws the
        # test set once more, for all five methods.
        assert drawn == [0, 1, 2, 2]

    # Two-stage, every method scores through the one stage-1 backbone; the
    # benchmark's embed shape adds sqrt_samp's and cb_focal's own fits.
    @pytest.mark.parametrize("one_stage, backbones", [(False, 1), (True, 3)],
                             ids=["two_stage", "one_stage"])
    def test_each_backbone_runs_once_per_score_block(self, tmp_path, monkeypatch, one_stage,
                                                     backbones):
        scoring, rows = [], []
        features = model_module.Backbone.features

        def counted(self, x):
            if scoring:
                rows.append(len(x))
            return features(self, x)

        inner = experiment_module._predictions

        def flagged(*args):
            scoring.append(True)
            try:
                return inner(*args)
            finally:
                scoring.clear()

        monkeypatch.setattr(model_module.Backbone, "features", counted)
        monkeypatch.setattr(experiment_module, "_predictions", flagged)
        run_experiment(short_config(tmp_path / "run", one_stage, background_class=0))
        blocks = block_slices(20 * 100)
        assert len(blocks) == 2
        assert rows == [b.stop - b.start for b in blocks for _ in range(backbones)]

    def test_nonfinite_row_in_a_later_block_named_by_its_test_set_index(self):
        model = train_stage1(dataset_with_counts([30, 20]), (),
                             OptimSpec(epochs=1, warmup_epochs=0, seed=1),
                             LossSpec(kind="cross_entropy"))
        rows = 3 * BLOCK_ROWS - 2
        test = Dataset(np.zeros((rows, 3)), np.zeros(rows, dtype=np.int64), ("c0", "c1"))
        row = 2 * BLOCK_ROWS + 5
        # Written after the Dataset has checked its rows, which it would reject.
        test.features[row, 1] = np.nan
        test.features[row + 1, 0] = np.inf
        with pytest.raises(ValueError, match=f"features row {row} is not finite"):
            experiment_module._predictions([("stage1", model)], test)


class TestF1Delta:
    @pytest.fixture()
    def reports(self, tmp_path):
        config = config_from_dict(tiny_doc(str(tmp_path / "run"),
                                           methods=["baseline", "sqrt_samp", "ssb"]))
        run_experiment(config)
        root = tmp_path / "run" / "reports"
        return {m: load_report(str(root / f"{m}.json"))
                for m in ("baseline", "sqrt_samp", "ssb")}

    def test_baseline_vs_itself_all_zero(self, reports):
        table = emit_f1_delta(reports["baseline"], [reports["baseline"]])
        np.testing.assert_array_equal(table.deltas, 0.0)

    def test_subtraction_oracle_and_row_count(self, reports):
        table = emit_f1_delta(reports["baseline"], [reports["sqrt_samp"], reports["ssb"]])
        assert len(table.class_names) == 4
        base = reports["baseline"]
        for j, name in enumerate(table.class_names):
            orig = base.class_names.index(name)
            expected = reports["sqrt_samp"].per_class_f1[orig] - base.per_class_f1[orig]
            assert table.deltas[j, 0] == pytest.approx(expected, abs=1e-12)

    def test_sorted_by_train_count_descending(self, reports):
        table = emit_f1_delta(reports["baseline"], [reports["sqrt_samp"]])
        counts = table.train_counts.tolist()
        assert counts == sorted(counts, reverse=True)

    def test_digest_mismatch_rejected(self, reports):
        other = copy.deepcopy(reports["sqrt_samp"])
        other.dataset_digest = "different"
        with pytest.raises(ValueError, match="digest"):
            emit_f1_delta(reports["baseline"], [other])

    def test_csv_shape(self, reports):
        table = emit_f1_delta(reports["baseline"], [reports["sqrt_samp"]])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "class,train_count,delta_sqrt_samp"
        assert len(lines) == 5


class TestManifest:
    def test_missing_referenced_file_rejected(self, tmp_path):
        config = config_from_dict(tiny_doc(str(tmp_path / "run"), methods=["baseline"]))
        manifest = run_experiment(config)
        (tmp_path / "run" / manifest.methods["baseline"]["checkpoint"]).unlink()
        with pytest.raises(RuntimeError, match="missing"):
            manifest.save(str(tmp_path / "run" / "manifest.json"))


@pytest.fixture(scope="module")
def manifest_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest") / "run"
    run_experiment(config_from_dict(tiny_doc(str(out), methods=["baseline", "sqrt_samp"])))
    return out / "manifest.json"


def manifest_rejected(path, *fragments) -> None:
    """load_manifest raises ValueError whose message names the path and each fragment."""
    with pytest.raises(ValueError) as info:
        load_manifest(str(path))
    for text in (str(path),) + fragments:
        assert text in str(info.value)


def write_manifest(manifest_file, document):
    path = manifest_file.with_name("edited.json")
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def stored_manifest(manifest_file) -> dict:
    return json.loads(manifest_file.read_text(encoding="utf-8"))


class TestManifestReader:
    def test_round_trip(self, manifest_file):
        manifest = load_manifest(str(manifest_file))
        assert manifest.to_json() == manifest_file.read_text(encoding="utf-8")

    @pytest.mark.parametrize("edit, fragment", [
        (lambda m: m.update(methods="oops"), "'methods'"),
        (lambda m: m.pop("config_digest"), "'config_digest'"),
        (lambda m: m["methods"]["baseline"].update(seconds="1s"), "'methods.baseline.seconds'"),
        (lambda m: m["methods"]["sqrt_samp"].pop("report"), "'methods.sqrt_samp.report'"),
        (lambda m: m.update(failure={"method": "bags"}), "'failure.step'"),
        (lambda m: m.update(extra=1), "'extra'"),
        (lambda m: m.update(stage1_seconds=[1.0]), "'stage1_seconds'"),
        (lambda m: m["stage1_seconds"].update(stage1="1s"), "'stage1_seconds.stage1'"),
        (lambda m: m.update(prepare_seconds=None), "'prepare_seconds'"),
        (lambda m: m.update(prepare_seconds=2), "'prepare_seconds'"),
        (lambda m: m.pop("scoring_seconds"), "'scoring_seconds'"),
        (lambda m: m.update(scoring_seconds="1s"), "'scoring_seconds'"),
    ], ids=["methods_a_string", "digest_missing", "seconds_a_string", "entry_without_report",
            "failure_without_step", "unknown_field", "stage1_seconds_a_list",
            "stage1_time_a_string", "prepare_seconds_null", "prepare_seconds_an_integer",
            "scoring_seconds_missing", "scoring_seconds_a_string"])
    def test_bad_field_named(self, manifest_file, edit, fragment):
        document = stored_manifest(manifest_file)
        edit(document)
        manifest_rejected(write_manifest(manifest_file, document), fragment)

    @pytest.mark.parametrize("field", ["report", "checkpoint"])
    @pytest.mark.parametrize("name", ["", "/tmp/sqrt_samp.json", "../x"],
                             ids=["empty", "absolute", "parent"])
    def test_file_outside_the_run_directory_named(self, manifest_file, field, name):
        document = stored_manifest(manifest_file)
        document["methods"]["sqrt_samp"][field] = name
        manifest_rejected(write_manifest(manifest_file, document),
                          f"manifest field 'methods.sqrt_samp.{field}' must name a file "
                          f"inside the run directory, got {name!r}")

    @pytest.mark.parametrize("name", ["", "/tmp/comparison.csv", "reports/../../x"],
                             ids=["empty", "absolute", "parent"])
    def test_table_outside_the_run_directory_named(self, manifest_file, name):
        document = stored_manifest(manifest_file)
        document["comparison_csv"] = name
        manifest_rejected(write_manifest(manifest_file, document), "'comparison_csv'",
                          "inside the run directory")

    def test_deeply_nested_document_names_the_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        manifest_rejected(path, "recursion")

    @settings(max_examples=50, deadline=None)
    @given(document=st.none() | st.booleans() | st.integers() | st.text()
           | st.lists(st.integers(), max_size=3))
    def test_any_non_object_rejected(self, manifest_file, document):
        manifest_rejected(write_manifest(manifest_file, document), "not a JSON object")

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_dropped_field_named(self, manifest_file, data):
        document = stored_manifest(manifest_file)
        key = data.draw(st.sampled_from(sorted(document)), label="key")
        del document[key]
        manifest_rejected(write_manifest(manifest_file, document), f"'{key}'")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=st.sampled_from([5, 1.5, True, "oops", [1, 2], {"a": 1}]))
    def test_any_field_of_another_type_named(self, manifest_file, data, value):
        document = stored_manifest(manifest_file)
        key = data.draw(st.sampled_from(sorted(document)), label="key")
        if type(value) is type(document[key]):
            return
        document[key] = value
        manifest_rejected(write_manifest(manifest_file, document), f"'{key}")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_truncation_rejected(self, manifest_file, data):
        text = manifest_file.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(text) - 1), label="cut")
        path = manifest_file.with_name("truncated.json")
        path.write_bytes(text[:cut])
        if text[:cut].rstrip() == text.rstrip():  # only the final newline is gone
            assert load_manifest(str(path)).to_json() == text.decode("utf-8")
        else:
            manifest_rejected(path)


def test_readme_library_use_runs(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert capsys.readouterr().out
