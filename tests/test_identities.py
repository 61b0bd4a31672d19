"""Identities that follow from the methods' definitions, checked bit for bit.

At a limit of the data or of a knob a method must equal another method
exactly, not approximately:

- with no class in the top count bin (Bin_4, 1,000 or more training rows),
  ssb reads only its square-root branch, which is sqrt_samp's stage-2 head;
- with every class in Bin_4, ssb reads only the stage-1 head, which is the
  baseline's;
- cb_focal at gamma = 0 and beta = 0 is cross-entropy.

The ssb cases run through ``run_experiment``, so a wrong head pairing in the
scoring pass shows as well as a wrong rule.
"""
import numpy as np
import pytest
import yaml

from longtail_lab import LossSpec, batch_loss, config_from_dict, load_report, run_experiment
from longtail_lab import experiment as experiment_module
from longtail_lab.experiment import DEFAULT_CONFIG_YAML


def short_run(out_dir, seed: int, synthetic: dict) -> dict:
    """Run baseline, sqrt_samp and ssb in two stages with short epochs on the
    default data with ``synthetic``'s keys changed.  Returns each method's
    confusion matrix and its score blocks from the scoring pass."""
    doc = yaml.safe_load(DEFAULT_CONFIG_YAML)
    doc.update(seed=seed, output_dir=str(out_dir), methods=["baseline", "sqrt_samp", "ssb"],
               stage1={"epochs": 2, "warmup_epochs": 1}, stage2={"epochs": 2, "warmup_epochs": 1})
    doc["dataset"]["synthetic"] = synthetic
    config = config_from_dict(doc)
    blocks = {method: [] for method in config.methods}
    predict = experiment_module.predict

    def recorded(model, features, **kwargs):
        preds, scores = predict(model, features, **kwargs)
        blocks[model.method].append(scores.copy())
        return preds, scores

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment_module, "predict", recorded)
        run_experiment(config)
    return {method: (load_report(str(out_dir / "reports" / f"{method}.json")).confusion,
                     blocks[method]) for method in config.methods}


def assert_same(runs: dict, method: str, twin: str) -> None:
    (confusion, scores), (twin_confusion, twin_scores) = runs[method], runs[twin]
    assert np.array_equal(confusion, twin_confusion)
    assert len(scores) == len(twin_scores) > 0
    for block, twin_block in zip(scores, twin_scores):
        assert block.tobytes() == twin_block.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ssb_without_a_bin_4_class_is_sqrt_samp(tmp_path, seed):
    # The largest class has 999 training rows; Bin_4 starts at 1,000.
    runs = short_run(tmp_path / "run", seed, {"head_count": 999})
    assert_same(runs, "ssb", "sqrt_samp")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ssb_with_every_class_in_bin_4_is_the_baseline(tmp_path, seed):
    # Six classes of 1,998 to 2,000 training rows.
    runs = short_run(tmp_path / "run", seed,
                     {"imbalance_factor": 1.001, "head_count": 2000, "num_classes": 6})
    assert_same(runs, "ssb", "baseline")


def test_cb_focal_at_gamma_0_and_beta_0_is_cross_entropy():
    rng = np.random.default_rng(0)
    focal, ce = LossSpec("cb_focal", gamma=0.0, cb_beta=0.0), LossSpec("cross_entropy")
    for _ in range(200):
        logits = rng.standard_normal((64, 20)) * 4.0
        labels = rng.integers(0, 20, size=64)
        counts = rng.integers(1, 5000, size=20)
        got, want = (batch_loss(logits, labels, counts, spec) for spec in (focal, ce))
        assert got.total == want.total
        assert got.per_instance.tobytes() == want.per_instance.tobytes()
        assert got.grad_logits.tobytes() == want.grad_logits.tobytes()
