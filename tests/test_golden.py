"""Refactor guard: the reports of a short default run are pinned byte for byte.

A change that is meant to keep every number must leave these digests alone;
a change that moves them must say why and re-pin them.
"""
import hashlib

import pytest
import yaml

from longtail_lab import config_from_dict, run_experiment
from longtail_lab.experiment import DEFAULT_CONFIG_YAML

GOLDEN = {
    False: "4d64786040120a7edeb001d9c9dbd9b68aac31cbc554371d02bd3b64e0983343",
    True: "6655442db38e6e28ead7bbc94fdda2d30f1b2b8865db47a771f0680952d48aae",
}


def reports_digest(reports_dir) -> str:
    """sha256 over every reports/*.json, in name order: file name, then its bytes."""
    h = hashlib.sha256()
    for path in sorted(reports_dir.glob("*.json")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("one_stage", [False, True], ids=["two_stage", "one_stage"])
def test_short_default_run_reports_are_pinned(tmp_path, one_stage):
    doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    doc["output_dir"] = str(tmp_path / "run")
    doc["one_stage"] = one_stage
    doc["stage1"].update(epochs=4, warmup_epochs=1)
    doc["stage2"].update(epochs=2)
    doc["model"]["hidden"] = [8]
    run_experiment(config_from_dict(doc))
    assert reports_digest(tmp_path / "run" / "reports") == GOLDEN[one_stage]
