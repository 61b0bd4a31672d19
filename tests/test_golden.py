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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from longtail_lab import (Backbone, config_from_dict, load_model, load_report,
                          run_experiment, save_model, save_report)
from longtail_lab.data import BLOCK_ROWS
from longtail_lab.experiment import DEFAULT_CONFIG_YAML

GOLDEN = {
    False: "7ed64a1e640697d4deddfac8e81e2a7877b6e9738a286cd3dbc2222ac55de7eb",
    True: "09c62c35f6dc61fc0f5739879468fc301be09daddf1ced2e5a97f0fda38f6b9f",
}

# Two-stage with class 0 as background: bags trains its background head and
# its layout has a background group.
GOLDEN_BACKGROUND = "a1be8d77f4dd91c651db382bf8ad369c27dcee03450569da8f72172ab67eedf8"

# sha256 of each checkpoints/*.ckpt, per run.
CHECKPOINTS = {
    "two_stage": {
        "bags.ckpt": "c0ed26db02cd7344bbb0e30e2b4decc3488e4b6b365e0620d8f2ce34da169f84",
        "baseline.ckpt": "a102fd7c567844a13033ea387ec38873d2b802062dab89621084f7dcfa8c2cfd",
        "cb_focal.ckpt": "c16bb8b2584d1d8d4b794c18be945014cb0e9c80cbe137ad0257c572564db4c6",
        "sqrt_samp.ckpt": "4e336bb3b89a860e138187c7dd2577add48b54ab3d305e9611be1486bbf85c68",
        "ssb.ckpt": "0839b773ef7a104aa4988e722a0cb987b88063e8099fb203eb3cf1149f073b5b",
    },
    "one_stage": {
        "bags.ckpt": "c0ed26db02cd7344bbb0e30e2b4decc3488e4b6b365e0620d8f2ce34da169f84",
        "baseline.ckpt": "a102fd7c567844a13033ea387ec38873d2b802062dab89621084f7dcfa8c2cfd",
        "cb_focal.ckpt": "5772886567cbb294868e78419532d05ac68bd1b0e8a15724fa5787c2d362a1cf",
        "sqrt_samp.ckpt": "0900f678432905d51f6926c2cb890ae007163ef6d9f39a0c67a6c9ae673f38e7",
        "ssb.ckpt": "0839b773ef7a104aa4988e722a0cb987b88063e8099fb203eb3cf1149f073b5b",
    },
    "background": {
        "bags.ckpt": "8d35b12599c88f39e997eabb703bb76cb2d3cc810a8e846db6bc9ab2309e96c9",
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
# Report bytes differ: the config digest covers ``methods``.  The checkpoints
# are compared with the default order's own files, not with ``CHECKPOINTS``, so
# the claim is checked under whichever BLAS kernel runs.
@pytest.mark.parametrize("methods", [
    ["ssb", "bags", "cb_focal", "sqrt_samp", "baseline"],
    ["baseline", "ssb"],
], ids=["reversed", "baseline_and_ssb"])
def test_results_do_not_depend_on_method_list_or_order(tmp_path, default_order_run, methods):
    run = short_run(tmp_path / "run", one_stage=False, methods=methods)
    default_order = checkpoint_digests(default_order_run / "checkpoints")
    assert checkpoint_digests(run / "checkpoints") == {
        f"{m}.ckpt": default_order[f"{m}.ckpt"] for m in methods}
    for method in methods:
        got, want = (load_report(str(root / "reports" / f"{method}.json")).confusion
                     for root in (run, default_order_run))
        assert np.array_equal(got, want), method


def test_background_run_is_pinned(tmp_path):
    run = short_run(tmp_path / "run", one_stage=False, background_class=0)
    assert reports_digest(run / "reports") == GOLDEN_BACKGROUND
    assert checkpoint_digests(run / "checkpoints") == CHECKPOINTS["background"]
    assert_reload_resaves_same_bytes(run, tmp_path)


# No backbone pass of a run reads more rows than a training batch or a scoring
# block, so the backbone's output on a whole split is never computed.  The
# train split (10,234 rows) and the test split (5,000) are each larger.
@pytest.mark.parametrize("one_stage", [False, True], ids=["two_stage", "one_stage"])
def test_backbone_reads_at_most_a_batch_or_a_score_block(tmp_path, monkeypatch, one_stage):
    doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    doc.update(output_dir=str(tmp_path / "run"), one_stage=one_stage, model={"hidden": [8]},
               stage1={"epochs": 1, "warmup_epochs": 0}, stage2={"epochs": 1, "warmup_epochs": 0})
    doc["dataset"] = {"synthetic": {"head_count": 2500}, "eval": {"mode": "fresh",
                                                                   "per_class": 250}}
    config = config_from_dict(doc)
    seen = []
    features = Backbone.features

    def counted(self, x):
        seen.append(len(x))
        return features(self, x)

    monkeypatch.setattr(Backbone, "features", counted)
    run_experiment(config)
    assert seen and max(seen) <= max(config.stage2.batch_size, BLOCK_ROWS)


def _dynamic_arch_blas() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so that
    ``OPENBLAS_CORETYPE`` can choose another."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# The report pins hold under each other BLAS kernel the module docstring
# names, which a refactor of how rows are blocked or scored could break
# without changing a bit on this one.
@pytest.mark.skipif(not _dynamic_arch_blas(), reason="OpenBLAS without DYNAMIC_ARCH")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Prescott"])
def test_two_stage_reports_hold_under_another_kernel(tmp_path, kernel):
    tests = Path(__file__).resolve().parent
    child = ("import sys\n"
             "from pathlib import Path\n"
             "from test_golden import reports_digest, short_run\n"
             "print(reports_digest(short_run(Path(sys.argv[1]), one_stage=False) / 'reports'))\n")
    path = os.pathsep.join([str(tests), str(tests.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == GOLDEN[False]
