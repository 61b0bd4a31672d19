"""Refactor guard: the reports and checkpoints of a short default run are
pinned byte for byte.

A change that is meant to keep every number must leave these digests alone;
a change that moves them must say why and re-pin them.

The report pins hold across the BLAS kernels tried (OpenBLAS's SkylakeX,
Haswell, Sandybridge and Prescott).  The checkpoint pins were taken with
numpy's OpenBLAS 0.3.31 on its SkylakeX kernel: trained parameters differ in
their last bits under another kernel, so on another CPU these pins may fail
while the report pins hold.
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
        "bags.ckpt": "a0706c73a49fd890edd61db6a39603bbdf59beb8f907319d11586d7a164d95ed",
        "baseline.ckpt": "a102fd7c567844a13033ea387ec38873d2b802062dab89621084f7dcfa8c2cfd",
        "cb_focal.ckpt": "c16bb8b2584d1d8d4b794c18be945014cb0e9c80cbe137ad0257c572564db4c6",
        "sqrt_samp.ckpt": "4e336bb3b89a860e138187c7dd2577add48b54ab3d305e9611be1486bbf85c68",
        "ssb.ckpt": "0839b773ef7a104aa4988e722a0cb987b88063e8099fb203eb3cf1149f073b5b",
    },
    "one_stage": {
        "bags.ckpt": "a0706c73a49fd890edd61db6a39603bbdf59beb8f907319d11586d7a164d95ed",
        "baseline.ckpt": "a102fd7c567844a13033ea387ec38873d2b802062dab89621084f7dcfa8c2cfd",
        "cb_focal.ckpt": "5772886567cbb294868e78419532d05ac68bd1b0e8a15724fa5787c2d362a1cf",
        "sqrt_samp.ckpt": "0900f678432905d51f6926c2cb890ae007163ef6d9f39a0c67a6c9ae673f38e7",
        "ssb.ckpt": "0839b773ef7a104aa4988e722a0cb987b88063e8099fb203eb3cf1149f073b5b",
    },
    "background": {
        "bags.ckpt": "c81046c33dd1c728507c57dfd8b11b07b61b96de58ed04e3535fb08c082ffa03",
        "baseline.ckpt": "25da499b166a2603c16f2ec9c8c4be62f126fa8f089a89dda57c80a225cf2991",
        "cb_focal.ckpt": "19fb605e8fe5b8003adfac924c7f53cbdc7894086f5444918a69a6c834cb1fca",
        "sqrt_samp.ckpt": "a8c1b37d0445ad420e715d9dcc3e9c0f5ffad97a9e416ad009e58c7d83bec5ce",
        "ssb.ckpt": "c2bb3ee177b60f64fba1d58d16ce13393cccecdee89cbaa8823d2b58e9edc1d3",
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
