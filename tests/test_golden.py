"""Refactor guard: the reports and checkpoints of a short default run are
pinned byte for byte.

A change that is meant to keep every number must leave these digests alone;
a change that moves them must say why and re-pin them.
"""
import hashlib

import pytest
import yaml

from longtail_lab import (config_from_dict, load_model, load_report, run_experiment,
                          save_model, save_report)
from longtail_lab.experiment import DEFAULT_CONFIG_YAML

GOLDEN = {
    False: "4d64786040120a7edeb001d9c9dbd9b68aac31cbc554371d02bd3b64e0983343",
    True: "6655442db38e6e28ead7bbc94fdda2d30f1b2b8865db47a771f0680952d48aae",
}

# Two-stage with class 0 as background: bags trains its background head and
# its layout has a background group.
GOLDEN_BACKGROUND = "03c8329115294e0645957db0adca300cb58f2f89d1e163ae0e9bc3be1645d10a"

# sha256 of each checkpoints/*.ckpt, per run.
CHECKPOINTS = {
    "two_stage": {
        "bags.ckpt": "86749f7ac718f49b2bac33d6c367b30d5e69f6ff1da3f5c3a38c1cd268ac8697",
        "baseline.ckpt": "cd9d3a3aad62ceb638e7a622363989ecc1ada179f04efd0a23f41abe9d0f1072",
        "cb_focal.ckpt": "1d4778cf39e9b9652519323a4bf0f2243d7c4eebc1dd3f895b4422eeca50a263",
        "sqrt_samp.ckpt": "c3005a1697cfd93b4a94338106c064376a6b0707d7fc4dd01e351b1d4a4b03d5",
        "ssb.ckpt": "c2fa370a9d645a53cc279eadc18d9ccccc98ace5f6ac327ce56f3ebd5602f52d",
    },
    "one_stage": {
        "bags.ckpt": "86749f7ac718f49b2bac33d6c367b30d5e69f6ff1da3f5c3a38c1cd268ac8697",
        "baseline.ckpt": "cd9d3a3aad62ceb638e7a622363989ecc1ada179f04efd0a23f41abe9d0f1072",
        "cb_focal.ckpt": "9b806d1efb46d49b11b33f389e5288b601f92d53b042c2b00811b49379b58f2b",
        "sqrt_samp.ckpt": "b3be0e1f6f514819ca91e1ba56359907a05c5571894f03ea374c03bc6559e5b3",
        "ssb.ckpt": "c2fa370a9d645a53cc279eadc18d9ccccc98ace5f6ac327ce56f3ebd5602f52d",
    },
    "background": {
        "bags.ckpt": "546ba392cb501ed6ff89084ab1af06eec27316bf44b6df55596ad3328871182b",
        "baseline.ckpt": "b025aa70871a249b4cbfe3953eb3116fe41852da9b58807f66d280fb427e348a",
        "cb_focal.ckpt": "e8b34102c2c65eb825eb3d615104630dddaf3c2500c5f7b4f280d8a8f0d5a3e1",
        "sqrt_samp.ckpt": "be3cd226eaaf3ec78cd55d47cb047587ca86c0849b07b320949a37817f857c96",
        "ssb.ckpt": "5125797bd2ffd4dae987e597e1bc1b26276444432be23e003239145afa461bd8",
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


def short_run(out_dir, one_stage: bool, background_class=None):
    doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    doc["output_dir"] = str(out_dir)
    doc["one_stage"] = one_stage
    doc["dataset"]["background_class"] = background_class
    doc["stage1"].update(epochs=4, warmup_epochs=1)
    doc["stage2"].update(epochs=2)
    doc["model"]["hidden"] = [8]
    run_experiment(config_from_dict(doc))
    return out_dir


@pytest.mark.parametrize("one_stage", [False, True], ids=["two_stage", "one_stage"])
def test_short_default_run_reports_are_pinned(tmp_path, one_stage):
    run = short_run(tmp_path / "run", one_stage)
    assert reports_digest(run / "reports") == GOLDEN[one_stage]
    run_id = "one_stage" if one_stage else "two_stage"
    assert checkpoint_digests(run / "checkpoints") == CHECKPOINTS[run_id]
    assert_reload_resaves_same_bytes(run, tmp_path)


def test_background_run_is_pinned(tmp_path):
    run = short_run(tmp_path / "run", one_stage=False, background_class=0)
    assert reports_digest(run / "reports") == GOLDEN_BACKGROUND
    assert checkpoint_digests(run / "checkpoints") == CHECKPOINTS["background"]
    assert_reload_resaves_same_bytes(run, tmp_path)
