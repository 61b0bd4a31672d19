"""The benchmark wraps package functions by name; each name must still resolve,
and the wrappers must see the program's own calls.

A rename during a refactor then fails here instead of inside a traced
benchmark run, and so does a call path that bypasses a probed name (its
per-layer time would read 0).
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from test_golden import short_run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def probes(monkeypatch):
    """``perfbench/probes.py``, loaded without changing it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # probes.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_probes", PERFBENCH / "probes.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_layer_probe_resolves_to_a_callable(probes):
    unresolved = []
    for probe in probes.LAYER_PROBES:
        module_name, _, path = probe.target.partition(":")
        owner = importlib.import_module(f"longtail_lab.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(probe.target)
    assert len(probes.LAYER_PROBES) > 40
    assert unresolved == []


def traced_short_run(probes, out_dir, one_stage: bool):
    """The probes' totals over a short run of every method with a background class."""
    tracer = probes.Tracer()
    restore = probes.install(tracer, probes.LAYER_PROBES)
    try:
        root = tracer.begin("test.op")
        short_run(out_dir, one_stage=one_stage, background_class=0)
        tracer.end(root)
    finally:
        restore()
    return probes.totals_by_root(tracer)[root]


# Calls per span name in the two-stage run.  A refactor that keeps the work
# the same keeps these counts; one that moves a count says which and why.
# One scoring pass reads the 2,000 test rows in two blocks of
# ``SCORE_BLOCK_ROWS`` (1,024): the one stage-1 backbone runs once per block
# (2 of the 770 ``backbone_features`` calls; the rest are stage-2 batches),
# and each method's ``predict`` once per block, so every count per method and
# scoring block is twice the evaluations.  ``generate_synthetic`` and
# ``Dataset.digest`` see only the train draw: the fresh validation and test
# sets are ``FreshSplit``s, drawn a block at a time when hashed and once more
# for the scoring pass, and each draw derives two seeds.  Bags filters each
# group head's epoch stream in one call: 3 group heads times 2 epochs.
TWO_STAGE_CALLS = {
    "data.compute_class_stats": 7, "data.digest": 1, "data.generate_synthetic": 1,
    "experiment.emit_f1_delta": 1, "experiment.prepare_datasets": 1, "heads.bags_infer": 2,
    "heads.bags_scores": 2, "heads.bags_train_heads": 1, "heads.build_group_layout": 4,
    "heads.ssb_aggregate": 2, "losses.batch_loss": 1024, "losses.softmax": 18,
    "metrics.compare_methods": 1, "metrics.evaluate": 5, "metrics.save_report": 5,
    "model.backbone_bwd": 256, "model.backbone_features": 770, "model.backbone_fwd": 256,
    "model.fit_head": 7, "model.head_logits": 1042, "model.predict": 10, "model.save_model": 5,
    "model.scores": 10, "model.train_linear_head": 2, "model.train_stage1": 1,
    "model.train_stage2.bags": 1, "model.train_stage2.cb_focal": 1,
    "model.train_stage2.sqrt_samp": 1, "model.train_stage2.ssb": 1, "optim.lr_at": 1024,
    "optim.step": 1024, "sampling.bags_filter_batch": 6, "sampling.epoch_stream": 16,
    "sampling.make_sampler": 16, "seeding.derive_seed": 48,
}


def test_probes_see_a_two_stage_run_with_a_background_class(probes, tmp_path):
    totals = traced_short_run(probes, tmp_path / "run", one_stage=False)
    assert probes.train_time(totals) > 0
    assert probes.rows_drawn(totals) > 0
    assert totals.calls == TWO_STAGE_CALLS


def test_probes_see_a_one_stage_run_with_a_background_class(probes, tmp_path):
    """The benchmark's embed shape: sqrt_samp and cb_focal fit in one stage."""
    totals = traced_short_run(probes, tmp_path / "run", one_stage=True)
    assert probes.train_time(totals) > 0
    assert probes.rows_drawn(totals) > 0
    # The shared stage 1, then one own fit each for sqrt_samp and cb_focal.
    assert totals.calls.get("model.train_stage1") == 3
    assert {name: n for name, n in totals.calls.items()
            if name.startswith("model.train_stage2.")} == {
        "model.train_stage2.bags": 1, "model.train_stage2.ssb": 1}
