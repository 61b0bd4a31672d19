"""Refactor guard: the reports and checkpoints of a short default run are
pinned byte for byte.

A change that is meant to keep every number must leave these digests alone;
a change that moves them must say why and re-pin them.
"""
import hashlib

import numpy as np
import pytest
import yaml

from longtail_lab import (Backbone, config_from_dict, load_model, load_report,
                          run_experiment, save_model, save_report)
from longtail_lab.experiment import DEFAULT_CONFIG_YAML, prepare_datasets

GOLDEN = {
    False: "84751a36df3043074db9af0e2d71aba149f6a43213eb5edb43fa92ad3d727b55",
    True: "24f6393e1a2ccce5b239e4765d10a85ea663d6ac26c1dd27bafdbfbc1ac4a2fe",
}

# Two-stage with class 0 as background: bags trains its background head and
# its layout has a background group.
GOLDEN_BACKGROUND = "52c209915eccae210b551440c51c0eb14e642041452aaabe4ee18013045e8a7c"

# sha256 of each checkpoints/*.ckpt, per run.
CHECKPOINTS = {
    "two_stage": {
        "bags.ckpt": "86749f7ac718f49b2bac33d6c367b30d5e69f6ff1da3f5c3a38c1cd268ac8697",
        "baseline.ckpt": "cd9d3a3aad62ceb638e7a622363989ecc1ada179f04efd0a23f41abe9d0f1072",
        "cb_focal.ckpt": "1d4778cf39e9b9652519323a4bf0f2243d7c4eebc1dd3f895b4422eeca50a263",
        "sqrt_samp.ckpt": "c3005a1697cfd93b4a94338106c064376a6b0707d7fc4dd01e351b1d4a4b03d5",
        "ssb.ckpt": "d7b16c91687ff7a78e7cc5a477dd35e09d4e94125b4f280ba8f8bb5846ec7dcb",
    },
    "one_stage": {
        "bags.ckpt": "86749f7ac718f49b2bac33d6c367b30d5e69f6ff1da3f5c3a38c1cd268ac8697",
        "baseline.ckpt": "cd9d3a3aad62ceb638e7a622363989ecc1ada179f04efd0a23f41abe9d0f1072",
        "cb_focal.ckpt": "9b806d1efb46d49b11b33f389e5288b601f92d53b042c2b00811b49379b58f2b",
        "sqrt_samp.ckpt": "b3be0e1f6f514819ca91e1ba56359907a05c5571894f03ea374c03bc6559e5b3",
        "ssb.ckpt": "d7b16c91687ff7a78e7cc5a477dd35e09d4e94125b4f280ba8f8bb5846ec7dcb",
    },
    "background": {
        "bags.ckpt": "546ba392cb501ed6ff89084ab1af06eec27316bf44b6df55596ad3328871182b",
        "baseline.ckpt": "b025aa70871a249b4cbfe3953eb3116fe41852da9b58807f66d280fb427e348a",
        "cb_focal.ckpt": "e8b34102c2c65eb825eb3d615104630dddaf3c2500c5f7b4f280d8a8f0d5a3e1",
        "sqrt_samp.ckpt": "be3cd226eaaf3ec78cd55d47cb047587ca86c0849b07b320949a37817f857c96",
        "ssb.ckpt": "bd91c00d1e924dfcf728224a9cce4f426bad0d02fefdf386f6e8c67017d8cc1b",
    },
}


def reports_digest(reports_dir) -> str:
    """sha256 over every reports/*.json, in name order: file name, then its bytes."""
    h = hashlib.sha256()
    for path in sorted(reports_dir.glob("*.json")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def checkpoint_digests(checkpoints_dir) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(checkpoints_dir.glob("*.ckpt"))}


def assert_reload_resaves_same_bytes(run, tmp_path) -> None:
    """Every report and checkpoint of a run, read back and saved again, is
    byte-identical to the file it was read from."""
    paths = sorted(run.glob("reports/*.json")) + sorted(run.glob("checkpoints/*.ckpt"))
    assert len(paths) == 10
    for path in paths:
        copy = tmp_path / f"resaved-{path.name}"
        if path.suffix == ".json":
            save_report(load_report(str(path)), str(copy))
        else:
            save_model(load_model(str(path)), str(copy))
        assert copy.read_bytes() == path.read_bytes(), path.name


def short_config(out_dir, one_stage: bool, background_class=None, methods=None):
    doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    doc["output_dir"] = str(out_dir)
    if methods is not None:
        doc["methods"] = methods
    doc["one_stage"] = one_stage
    doc["dataset"]["background_class"] = background_class
    doc["stage1"].update(epochs=4, warmup_epochs=1)
    doc["stage2"].update(epochs=2)
    doc["model"]["hidden"] = [8]
    return config_from_dict(doc)


def short_run(out_dir, one_stage: bool, background_class=None, methods=None):
    run_experiment(short_config(out_dir, one_stage, background_class, methods))
    return out_dir


@pytest.mark.parametrize("one_stage", [False, True], ids=["two_stage", "one_stage"])
def test_short_default_run_reports_are_pinned(tmp_path, one_stage):
    run = short_run(tmp_path / "run", one_stage)
    assert reports_digest(run / "reports") == GOLDEN[one_stage]
    run_id = "one_stage" if one_stage else "two_stage"
    assert checkpoint_digests(run / "checkpoints") == CHECKPOINTS[run_id]
    assert_reload_resaves_same_bytes(run, tmp_path)
    if not one_stage:
        # ssb's square-root branch is sqrt_samp's stage-2 classifier, fitted once.
        ssb = load_model(str(run / "checkpoints" / "ssb.ckpt")).heads["sqrt_head"]
        sqrt = load_model(str(run / "checkpoints" / "sqrt_samp.ckpt")).heads["head"]
        assert np.array_equal(ssb.weight, sqrt.weight) and np.array_equal(ssb.bias, sqrt.bias)


@pytest.fixture(scope="module")
def default_order_run(tmp_path_factory):
    return short_run(tmp_path_factory.mktemp("default") / "run", one_stage=False)


# Each method's result is the same whatever else runs and in what order.
# Report bytes differ: the config digest covers ``methods``.
@pytest.mark.parametrize("methods", [
    ["ssb", "bags", "cb_focal", "sqrt_samp", "baseline"],
    ["baseline", "ssb"],
], ids=["reversed", "baseline_and_ssb"])
def test_results_do_not_depend_on_method_list_or_order(tmp_path, default_order_run, methods):
    run = short_run(tmp_path / "run", one_stage=False, methods=methods)
    # CHECKPOINTS pins the default order's files.
    assert checkpoint_digests(run / "checkpoints") == {
        f"{m}.ckpt": CHECKPOINTS["two_stage"][f"{m}.ckpt"] for m in methods}
    for method in methods:
        got, want = (load_report(str(root / "reports" / f"{method}.json")).confusion
                     for root in (run, default_order_run))
        assert np.array_equal(got, want), method


def test_background_run_is_pinned(tmp_path):
    run = short_run(tmp_path / "run", one_stage=False, background_class=0)
    assert reports_digest(run / "reports") == GOLDEN_BACKGROUND
    assert checkpoint_digests(run / "checkpoints") == CHECKPOINTS["background"]
    assert_reload_resaves_same_bytes(run, tmp_path)


# Backbone passes of a run, by the rows they read: the stage-1 model's train
# and test rows once each, then each one-stage method's own test pass.
@pytest.mark.parametrize("one_stage, passes", [
    (False, ["train", "test"]),
    (True, ["train", "test", "test", "test"]),
], ids=["two_stage", "one_stage"])
def test_backbone_passes_once_per_model(tmp_path, monkeypatch, one_stage, passes):
    config = short_config(tmp_path / "run", one_stage)
    train, _, test = prepare_datasets(config)
    rows = {train.num_instances: "train", test.num_instances: "test"}
    seen = []
    features = Backbone.features

    def counted(self, x):
        seen.append(rows[len(x)])
        return features(self, x)

    monkeypatch.setattr(Backbone, "features", counted)
    run_experiment(config)
    assert seen == passes
