"""Configuration document, experiment runner, manifest, and F1-delta table."""
import copy
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (compute_class_stats, config_from_dict, default_config,
                          emit_f1_delta, generate_synthetic, load_model, load_report,
                          run_experiment, save_embeddings)
from longtail_lab import experiment as experiment_module
from longtail_lab import model as model_module
from longtail_lab.experiment import (DEFAULT_CONFIG_YAML, load_manifest,
                                     prepare_datasets)

from conftest import traced_peak


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
    ], ids=["float_epochs", "nan_lr", "negative_decay", "string_batch", "scalar_hidden",
            "zero_width_hidden", "no_stage1_epochs", "no_stage2_epochs", "cb_beta_above_one",
            "negative_gamma", "zero_bags_beta", "string_one_stage", "string_shared_stage1",
            "string_stratified", "scalar_methods", "scalar_eval", "scalar_embeddings",
            "float_background", "bool_background", "scalar_output_dir", "list_stage1",
            "empty_methods", "duplicate_methods", "unknown_method"])
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


class TestPrepareDatasets:
    def test_fresh_mode_keeps_full_training_profile(self):
        config = config_from_dict(tiny_doc("x"))
        train, val, test = prepare_datasets(config)
        assert np.bincount(train.labels).min() >= 1
        assert train.num_instances == np.bincount(train.labels).sum()
        np.testing.assert_array_equal(np.bincount(test.labels), 25)
        np.testing.assert_array_equal(np.bincount(val.labels), 25)
        assert not np.array_equal(val.features[:5], test.features[:5])

    def test_split_mode_partitions(self):
        doc = tiny_doc("x")
        doc["dataset"]["eval"] = {"mode": "split"}
        doc["dataset"]["synthetic"]["head_count"] = 120
        config = config_from_dict(doc)
        train, val, test = prepare_datasets(config)
        total = train.num_instances + val.num_instances + test.num_instances
        assert total == generate_synthetic(config.synthetic).num_instances

    def test_background_by_name(self):
        doc = tiny_doc("x")
        doc["dataset"]["background_class"] = "class_00"
        config = config_from_dict(doc)
        train, _, _ = prepare_datasets(config)
        assert train.background_class == 0

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
        doc["bags"] = {"background_group": "on"}  # no background class designated
        config = config_from_dict(doc)
        with pytest.raises(RuntimeError, match="bags.*stage-2"):
            run_experiment(config)
        manifest = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert manifest.failure["method"] == "bags"
        assert "background" in manifest.failure["error"]

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
    """Weak references to the feature rows of the splits the run prepares, by split."""
    refs: dict[str, weakref.ref] = {}
    prepare = experiment_module.prepare_datasets

    def watched(config):
        splits = prepare(config)
        refs.update((name, weakref.ref(split.features))
                    for name, split in zip(("train", "val", "test"), splits))
        return splits

    monkeypatch.setattr(experiment_module, "prepare_datasets", watched)
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


class TestArrayLifetimes:
    """A run holds each large array only until its last reader has run.  The
    runs use an MLP backbone: the identity backbone's frozen features are the
    raw rows themselves."""

    def test_two_stage_run_frees_the_raw_splits_before_stage_2(self, tmp_path, monkeypatch):
        refs = watch_splits(monkeypatch)
        seen = []
        spy(monkeypatch, "train_stage2", lambda *args, **kwargs: seen.append(alive(refs)))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["baseline", "sqrt_samp", "bags", "ssb"],
            model={"hidden": [8]})))
        assert len(seen) == 3
        assert seen[0] == set()

    def test_one_stage_run_frees_the_raw_splits_after_the_last_own_fit(self, tmp_path,
                                                                         monkeypatch):
        refs = watch_splits(monkeypatch)
        at_predict, at_evaluate = [], []
        spy(monkeypatch, "predict", lambda *args, **kwargs: at_predict.append(alive(refs)))
        spy(monkeypatch, "evaluate", lambda *args, **kwargs: at_evaluate.append(alive(refs)))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["baseline", "sqrt_samp", "cb_focal"],
            one_stage=True, model={"hidden": [8]})))
        # The validation draw is gone from the start; the raw rows stay while
        # a later own fit reads them.
        assert at_evaluate[:2] == [{"train", "test"}] * 2
        assert at_predict[2] == {"test"}  # the last own fit has trained
        assert at_evaluate[2] == set()    # and has scored the test rows

    def test_unshared_stage1_frees_each_frozen_train_matrix_before_the_next_method(
            self, tmp_path, monkeypatch):
        frozen: list[weakref.ref] = []
        seen = []
        spy(monkeypatch, "train_stage2",
            lambda *args, features, **kwargs: frozen.append(weakref.ref(features)))
        spy(monkeypatch, "train_stage1",
            lambda *args, **kwargs: seen.append([ref() is not None for ref in frozen]))
        run_experiment(config_from_dict(tiny_doc(
            str(tmp_path / "run"), methods=["sqrt_samp", "cb_focal", "ssb"],
            shared_stage1=False, model={"hidden": [8]})))
        assert len(frozen) == 3
        assert seen == [[], [False], [False, False]]

    def test_peak_holds_no_more_than_the_raw_and_frozen_rows(self, tmp_path):
        """A run that kept the validation draw beside the raw and frozen rows
        would pass the bound; the slack covers labels, one batch, scores and
        checkpoint buffers."""
        doc = tiny_doc(str(tmp_path / "run"), model={"hidden": [64]},
                       stage1={"epochs": 1, "warmup_epochs": 0, "batch_size": 512},
                       stage2={"epochs": 1, "warmup_epochs": 0})
        doc["dataset"] = {"synthetic": {"num_classes": 4, "feature_dim": 32,
                                        "head_count": 10_000, "imbalance_factor": 10.0,
                                        "class_separation": 4.0, "noise_sigma": 1.0,
                                        "seed": 3},
                          "eval": {"mode": "fresh", "per_class": 2_500}}
        config = config_from_dict(doc)
        train, val, test = prepare_datasets(config)
        raw = train.features.nbytes + test.features.nbytes
        frozen = (train.num_instances + test.num_instances) * 64 * 8
        slack = 1 << 20
        assert val.features.nbytes > slack
        del train, val, test
        _, peak = traced_peak(run_experiment, config)
        assert peak <= raw + frozen + slack, (peak - raw - frozen) / 2**20


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
    ], ids=["methods_a_string", "digest_missing", "seconds_a_string", "entry_without_report",
            "failure_without_step", "unknown_field", "stage1_seconds_a_list",
            "stage1_time_a_string"])
    def test_bad_field_named(self, manifest_file, edit, fragment):
        document = stored_manifest(manifest_file)
        edit(document)
        manifest_rejected(write_manifest(manifest_file, document), fragment)

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
