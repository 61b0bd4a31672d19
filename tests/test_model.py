"""Model forward/backward, two-stage training contracts, prediction, checkpoints."""
import json
import os
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (Backbone, ClassifierHead, Dataset,
                          LossSpec, OptimSpec, TrainedModel, bags_train_heads, batch_loss,
                          compute_class_stats, generate_synthetic, load_model, predict,
                          save_model, softmax, train_stage1, train_stage2)
from longtail_lab import heads as heads_module
from longtail_lab import model as model_module
from longtail_lab.data import BLOCK_ROWS, block_slices, count_decade
from longtail_lab.losses import LOSS_KINDS
from longtail_lab.model import train_linear_head

from conftest import max_relative_error, traced_peak


CB_FOCAL_UNWEIGHTED = LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.0)


def blob_dataset(counts=(60, 40), dim=4, separation=10.0, seed=0,
                 background_class=None) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((len(counts), dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    rows, labels = [], []
    for c, n in enumerate(counts):
        rows.append(centers[c] + rng.standard_normal((n, dim)))
        labels.extend([c] * n)
    return Dataset(features=np.concatenate(rows), labels=np.array(labels),
                   class_names=tuple(f"c{j}" for j in range(len(counts))),
                   background_class=background_class)


def make_model(weight, bias, dataset, hidden=()):
    model = train_stage1(dataset, hidden, OptimSpec(epochs=0, warmup_epochs=0, seed=0),
                         LossSpec(kind="cross_entropy"))
    model.heads["head"].weight[...] = weight
    model.heads["head"].bias[...] = bias
    return model


class TestForward:
    def test_zero_head_gives_uniform_softmax(self):
        ds = blob_dataset()
        model = make_model(np.zeros((2, 4)), np.zeros(2), ds)
        assert np.array_equal(model.heads["head"].logits(ds.features[:5]), np.zeros((5, 2)))
        assert np.array_equal(model_module.scores(model, ds.features[:5]), np.full((5, 2), 0.5))

    @pytest.mark.parametrize("method", ["baseline", "sqrt_samp", "bags", "ssb"])
    def test_predict_rejects_wrong_width(self, stage1_setup, method):
        ds, model = stage1_setup
        if method != "baseline":
            model = train_stage2(model, ds, method, OptimSpec(seed=5).for_classifier(),
                                 LossSpec(kind="cross_entropy"))
        with pytest.raises(ValueError, match="feature dimension 7 does not match model input 6"):
            predict(model, np.zeros((3, 7)))

    def test_identity_head_passes_features_through(self):
        ds = blob_dataset(counts=(10, 10, 10), dim=3)
        model = make_model(np.eye(3), np.zeros(3), ds)
        h = model.backbone.features(ds.features)
        np.testing.assert_array_equal(model.heads["head"].logits(h), ds.features)

    def test_head_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        head = ClassifierHead(weight=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        spec = LossSpec(kind="cross_entropy")
        value = batch_loss(head.logits(feats), labels, None, spec)
        analytic = value.grad_logits.T @ feats
        h = 1e-5
        numeric = np.zeros_like(head.weight)
        for i in range(3):
            for j in range(4):
                for sign in (1, -1):
                    head.weight[i, j] += sign * h
                    total = batch_loss(head.logits(feats), labels, None, spec).total
                    numeric[i, j] += sign * total / (2 * h)
                    head.weight[i, j] -= sign * h
        assert max_relative_error(analytic, numeric) < 1e-5


class TestStage1:
    def test_separable_blobs_reach_high_training_accuracy(self):
        ds = blob_dataset(separation=10.0)
        model = train_stage1(ds, (), OptimSpec(seed=1), LossSpec(kind="cross_entropy"))
        preds, _ = predict(model, ds.features)
        assert (preds == ds.labels).mean() >= 0.99

    def test_zero_epochs_returns_initialized_model(self):
        ds = blob_dataset()
        model = train_stage1(ds, (),
                             OptimSpec(epochs=0, warmup_epochs=0, seed=3),
                             LossSpec(kind="cross_entropy"))
        assert model.train_log == []
        assert model.heads["head"].weight.shape == (2, 4)

    def test_same_seed_identical_weights(self):
        ds = blob_dataset()
        hidden = (8,)
        spec = OptimSpec(epochs=5, warmup_epochs=1, seed=11)
        a = train_stage1(ds, hidden, spec, LossSpec(kind="cross_entropy"))
        b = train_stage1(ds, hidden, spec, LossSpec(kind="cross_entropy"))
        assert np.array_equal(a.heads["head"].weight, b.heads["head"].weight)
        for wa, wb in zip(a.backbone.weights, b.backbone.weights):
            assert np.array_equal(wa, wb)

    def test_log_length_equals_epochs(self):
        ds = blob_dataset()
        model = train_stage1(ds, (),
                             OptimSpec(epochs=7, warmup_epochs=1, seed=0),
                             LossSpec(kind="cross_entropy"))
        assert [e.epoch for e in model.train_log] == list(range(7))

    def test_mlp_backbone_learns_nontrivially(self):
        ds = blob_dataset(counts=(80, 80), separation=6.0, seed=4)
        model = train_stage1(ds, (16,),
                             OptimSpec(epochs=12, warmup_epochs=1, seed=2),
                             LossSpec(kind="cross_entropy"))
        preds, _ = predict(model, ds.features)
        assert (preds == ds.labels).mean() >= 0.95

    def test_one_class_rejected(self):
        ds = blob_dataset(counts=(30,))
        with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
            train_stage1(ds, (), OptimSpec(seed=0), LossSpec(kind="cross_entropy"))

    @pytest.mark.parametrize("hidden", [(0,), (8, 0), (-3,)],
                             ids=["zero", "zero_after_eight", "negative"])
    def test_zero_width_layer_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden layer sizes must be >= 1"):
            train_stage1(blob_dataset(), hidden, OptimSpec(seed=0),
                         LossSpec(kind="cross_entropy"))

    def test_width_one_layer_accepted(self):
        backbone = Backbone.build(3, (1, 2), np.random.default_rng(0))
        assert [w.shape for w in backbone.weights] == [(1, 3), (2, 1)]

    def test_one_stage_method_samples_at_its_q(self, monkeypatch):
        drawn_at, make_sampler = [], model_module.make_sampler

        def recording(counts, q, seed):
            drawn_at.append(q)
            return make_sampler(counts, q, seed)

        monkeypatch.setattr(model_module, "make_sampler", recording)
        ds = blob_dataset()
        spec = OptimSpec(epochs=3, warmup_epochs=1, seed=0)
        model = train_stage1(ds, (), spec, LossSpec(kind="cross_entropy"),
                             method="sqrt_samp")
        assert model.method == "sqrt_samp"
        assert drawn_at == [0.5] * 3
        with pytest.raises(ValueError, match="ssb cannot train in one stage"):
            train_stage1(ds, (), spec, LossSpec(kind="cross_entropy"),
                         method="ssb")

    def test_divergence_reports_epoch(self):
        ds = blob_dataset()
        spec = OptimSpec(lr_init=1e307, weight_decay=1e-7, epochs=3,
                         warmup_epochs=0, seed=0)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="diverged.*epoch"):
            train_stage1(ds, (), spec, LossSpec(kind="cross_entropy"))


class TestFitHead:
    def test_nonfinite_gradient_names_parameter_and_epoch(self, monkeypatch):
        ds = blob_dataset()
        calls = []

        def nan_at_third_call(logits, labels, counts, spec):
            value = batch_loss(logits, labels, counts, spec)
            calls.append(1)
            if len(calls) == 3:
                value.grad_logits[0, 1] = np.nan
            return value

        monkeypatch.setattr(model_module, "batch_loss", nan_at_third_call)
        spec = OptimSpec(epochs=2, warmup_epochs=1, batch_size=64, seed=0)
        with pytest.raises(RuntimeError, match=r"non-finite gradient for backbone\.0\.weight "
                                               r"at epoch 1"):
            train_stage1(ds, (3,), spec, LossSpec(kind="cross_entropy"))
        calls.clear()
        head = ClassifierHead(weight=np.zeros((2, 4)), bias=np.zeros(2))
        with pytest.raises(RuntimeError, match=r"non-finite gradient for head\.weight at epoch 1"):
            model_module.fit_head(head, ds.features, ds.labels, np.array([60, 40]), 1.0, spec,
                                  LossSpec(kind="cross_entropy"), Backbone([], []))

    def test_overflowing_gradient_names_parameter_and_epoch(self):
        # Each gradient value is finite; the sum of their squares is not.
        ds = blob_dataset()
        head = ClassifierHead(weight=np.zeros((2, 4)), bias=np.zeros(2))
        spec = OptimSpec(epochs=2, warmup_epochs=1, batch_size=64, seed=0)
        with pytest.raises(RuntimeError, match=r"^training diverged: overflowing gradient for "
                                               r"head\.weight at epoch 0$"):
            model_module.fit_head(head, ds.features * 1e300, ds.labels, np.array([60, 40]), 1.0,
                                  spec, LossSpec(kind="cross_entropy"), Backbone([], []))

    def test_diverging_parameters_name_the_logits_and_epoch(self):
        # The first step blows the parameters up and the next logits compute
        # inf - inf.  numpy must not warn there: the suite turns warnings into errors.
        ds = blob_dataset()
        head = ClassifierHead(weight=np.zeros((2, 4)), bias=np.zeros(2))
        spec = OptimSpec(lr_init=1.0e+300, epochs=2, warmup_epochs=0, batch_size=16, seed=0)
        with pytest.raises(RuntimeError,
                           match=r"^training diverged: non-finite logits at epoch \d+$"):
            model_module.fit_head(head, ds.features, ds.labels, np.array([60, 40]), 1.0, spec,
                                  LossSpec(kind="cross_entropy"), Backbone([], []))

    def test_one_loss_and_one_update_per_step(self, monkeypatch):
        counted = {"batch_loss": 0, "optimizer_step": 0}
        for name in counted:
            def counting(*args, _name=name, _inner=getattr(model_module, name)):
                counted[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(model_module, name, counting)
        ds = blob_dataset()
        spec = OptimSpec(epochs=3, warmup_epochs=1, batch_size=16, seed=0)
        train_stage1(ds, (5, 3), spec, LossSpec(kind="cross_entropy"))
        steps = 3 * -(-ds.num_instances // 16)
        assert counted == {"batch_loss": steps, "optimizer_step": steps}

    def test_parameters_are_views_of_one_vector(self):
        ds = blob_dataset()
        model = train_stage1(ds, (5, 3),
                             OptimSpec(epochs=2, warmup_epochs=1, seed=0),
                             LossSpec(kind="cross_entropy"))
        head = model.heads["head"]
        tensors = [*model.backbone.weights, *model.backbone.biases, head.weight, head.bias]
        flat = head.weight.base
        assert flat is not None and flat.ndim == 1
        assert all(t.base is flat for t in tensors)
        assert flat.size == sum(t.size for t in tensors)

    def test_frozen_backbone_runs_forward_on_each_batch_only(self, monkeypatch):
        ds = blob_dataset()
        backbone = Backbone.build(4, (5,), np.random.default_rng(0)).frozen_copy()
        before = [w.copy() for w in backbone.weights + backbone.biases]
        rows = []
        features = Backbone.features
        monkeypatch.setattr(Backbone, "features",
                            lambda self, x: rows.append(len(x)) or features(self, x))
        for name in ("forward_cached", "backward"):
            monkeypatch.setattr(Backbone, name, lambda *args: pytest.fail("backbone trained"))
        head = ClassifierHead(weight=np.zeros((2, 5)), bias=np.zeros(2))
        spec = OptimSpec(epochs=2, warmup_epochs=1, batch_size=16, seed=0)
        model_module.fit_head(head, ds.features, ds.labels, np.array([60, 40]), 1.0, spec,
                              LossSpec(kind="cross_entropy"), backbone=backbone)
        assert rows == ([16] * 6 + [4]) * 2
        # Only the head's parameters are in the optimized vector.
        assert head.weight.base.size == head.weight.size + head.bias.size
        assert all(np.array_equal(a, b) for a, b in zip(before,
                                                       backbone.weights + backbone.biases))

    def test_frozen_identity_backbone_is_never_called(self, monkeypatch):
        for name in ("features", "forward_cached", "backward"):
            monkeypatch.setattr(Backbone, name, lambda *args: pytest.fail("backbone called"))
        ds = blob_dataset()
        head = ClassifierHead(weight=np.zeros((2, 4)), bias=np.zeros(2))
        model_module.fit_head(head, ds.features, ds.labels, np.array([60, 40]), 1.0,
                              OptimSpec(epochs=1, warmup_epochs=0, seed=0),
                              LossSpec(kind="cross_entropy"),
                              backbone=Backbone(weights=[], biases=[], frozen=True))
        assert head.weight.any()

    @pytest.mark.parametrize("n_labels", [50, 150])
    def test_labels_and_rows_must_agree(self, n_labels):
        ds = blob_dataset(counts=(60, 40))
        labels = np.resize(ds.labels, n_labels)
        head = ClassifierHead(weight=np.zeros((2, 4)), bias=np.zeros(2))
        spec = OptimSpec(epochs=1, warmup_epochs=0, batch_size=16, seed=0)
        with pytest.raises(ValueError, match=rf"100 feature rows but {n_labels} labels"):
            model_module.fit_head(head, ds.features, labels, np.array([60, 40]), 1.0, spec,
                                  LossSpec(kind="cross_entropy"), Backbone([], []))
        assert not head.weight.any()


@pytest.fixture(scope="module")
def stage1_setup():
    spec_kwargs = dict(counts=(400, 300, 30, 8), dim=6, separation=8.0, seed=9)
    ds = blob_dataset(**spec_kwargs)
    model = train_stage1(ds, (10,), OptimSpec(epochs=8, warmup_epochs=1, seed=21),
                         LossSpec(kind="cross_entropy"))
    return ds, model


@pytest.fixture
def no_fit(monkeypatch):
    """Any ``fit_head`` call fails the test."""

    def no_training(*args, **kwargs):
        raise AssertionError("fit_head called")

    monkeypatch.setattr(model_module, "fit_head", no_training)
    monkeypatch.setattr(heads_module, "fit_head", no_training)


class TestStage2:
    @pytest.mark.parametrize("method", ["sqrt_samp", "cb_focal", "bags", "ssb"])
    def test_backbone_frozen_bit_identical(self, stage1_setup, method):
        ds, model = stage1_setup
        before = [w.copy() for w in model.backbone.weights]
        loss = (LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9)
                if method == "cb_focal" else LossSpec(kind="cross_entropy"))
        retrained = train_stage2(model, ds, method, OptimSpec(seed=5).for_classifier(), loss)
        for w_prev, w_now, w_orig in zip(before, retrained.backbone.weights,
                                         model.backbone.weights):
            assert np.array_equal(w_prev, w_now)
            assert np.array_equal(w_prev, w_orig)
        assert retrained.backbone.frozen

    def test_ssb_keeps_stage1_head_and_adds_sqrt_head(self, stage1_setup):
        ds, model = stage1_setup
        ssb = train_stage2(model, ds, "ssb", OptimSpec(seed=5).for_classifier(),
                           LossSpec(kind="cross_entropy"))
        assert np.array_equal(ssb.heads["head"].weight, model.heads["head"].weight)
        assert np.array_equal(ssb.heads["head"].bias, model.heads["head"].bias)
        assert "sqrt_head" in ssb.heads
        assert not np.array_equal(ssb.heads["sqrt_head"].weight, ssb.heads["head"].weight)

    def test_ssb_and_sqrt_samp_share_one_fit(self, stage1_setup):
        ds, model = stage1_setup
        spec, loss = OptimSpec(seed=5).for_classifier(), LossSpec(kind="cross_entropy")
        fits = {}
        ssb = train_stage2(model, ds, "ssb", spec, loss, fits=fits)
        assert list(fits) == ["sqrt_samp"]
        sqrt = train_stage2(model, ds, "sqrt_samp", spec, loss, fits=fits)
        assert sqrt.heads["head"] is ssb.heads["sqrt_head"]
        assert ssb.train_log is sqrt.train_log
        alone = train_stage2(model, ds, "sqrt_samp", spec, loss)
        assert np.array_equal(alone.heads["head"].weight, sqrt.heads["head"].weight)
        assert np.array_equal(alone.heads["head"].bias, sqrt.heads["head"].bias)

    def test_sqrt_head_replaced_not_finetuned(self, stage1_setup):
        ds, model = stage1_setup
        sqrt = train_stage2(model, ds, "sqrt_samp", OptimSpec(seed=5).for_classifier(),
                            LossSpec(kind="cross_entropy"))
        assert not np.array_equal(sqrt.heads["head"].weight, model.heads["head"].weight)

    def test_unknown_method_rejected(self, stage1_setup):
        ds, model = stage1_setup
        with pytest.raises(ValueError, match="unknown method"):
            train_stage2(model, ds, "mystery", OptimSpec(seed=0), LossSpec(kind="cross_entropy"))

    @pytest.mark.parametrize("method, stage, loss, message", [
        ("bags", 2, CB_FOCAL_UNWEIGHTED, "bags trains with cross_entropy, not cb_focal"),
        ("cb_focal", 2, LossSpec(kind="cross_entropy"),
         "cb_focal trains with cb_focal, not cross_entropy"),
        ("ssb", 2, CB_FOCAL_UNWEIGHTED, "sqrt_samp trains with cross_entropy, not cb_focal"),
        ("sqrt_samp", 1, CB_FOCAL_UNWEIGHTED, "sqrt_samp trains with cross_entropy, not cb_focal"),
    ], ids=["bags", "cb_focal", "ssb", "one_stage_sqrt_samp"])
    def test_other_loss_kind_rejected_before_training(self, stage1_setup, no_fit,
                                                      method, stage, loss, message):
        ds, model = stage1_setup
        with pytest.raises(ValueError, match=message):
            if stage == 1:
                train_stage1(ds, (), OptimSpec(seed=5), loss, method=method)
            else:
                train_stage2(model, ds, method, OptimSpec(seed=5).for_classifier(), loss)

    # A stage-1 model of 4 classes, fitted again on 3 of them.
    @pytest.mark.parametrize("method", ["sqrt_samp", "bags", "ssb"])
    def test_dataset_of_other_classes_rejected_before_training(self, stage1_setup, no_fit,
                                                               method):
        _, model = stage1_setup
        fewer = blob_dataset(counts=(400, 300, 30), dim=6)
        with pytest.raises(ValueError, match=r"dataset classes \['c0', 'c1', 'c2'\] are not "
                                             r"the model's classes \['c0', 'c1', 'c2', 'c3'\]"):
            train_stage2(model, fewer, method, OptimSpec(seed=5).for_classifier(),
                         LossSpec(kind="cross_entropy"))

    def test_every_loss_kind_is_a_method_loss(self):
        assert set(LOSS_KINDS) == {m.loss for m in model_module.METHODS.values()}

    # The reference fit: the same trainer, through the identity backbone, on
    # the backbone's output for every train row, computed in one pass and held.
    # A stage-2 fit passes each batch through the frozen backbone instead, so
    # equal bytes rest on the BLAS kernel computing a row's product the same
    # whatever rows share it.
    @pytest.mark.parametrize("method", ["sqrt_samp", "cb_focal", "bags", "ssb"])
    def test_given_features_save_same_bytes(self, stage1_setup, tmp_path, method):
        ds, model = stage1_setup
        loss = (LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9)
                if method == "cb_focal" else LossSpec(kind="cross_entropy"))
        optim = OptimSpec(seed=5).for_classifier()
        frozen = replace(ds, features=model.backbone.features(ds.features))
        stats = compute_class_stats(ds)
        owner = model_module.fit_owner(method)
        if owner == "bags":
            new, log = bags_train_heads(frozen, optim, Backbone([], []))
        else:
            head, log = train_linear_head(frozen.features, ds.labels, stats,
                                          model_module.METHODS[owner].q, optim, loss,
                                          Backbone([], []))
            new = {"sqrt_head" if method == "ssb" else "head": head}
        given = TrainedModel(backbone=model.backbone.frozen_copy(),
                             heads={"head": model.heads["head"], **new}, counts=stats,
                             method=method, train_log=log, class_names=ds.class_names)
        computed = train_stage2(model, ds, method, optim, loss)
        save_model(given, str(tmp_path / "given.ckpt"))
        save_model(computed, str(tmp_path / "computed.ckpt"))
        assert (tmp_path / "given.ckpt").read_bytes() == (tmp_path / "computed.ckpt").read_bytes()

    def test_features_checked_against_the_head_input(self, stage1_setup):
        # With the identity backbone the model's input is its head's input.
        ds, _ = stage1_setup
        model = train_stage1(ds, (),
                             OptimSpec(epochs=1, warmup_epochs=0, seed=21),
                             LossSpec(kind="cross_entropy"))
        narrow = Dataset(ds.features[:, :5], ds.labels, ds.class_names)
        with pytest.raises(ValueError, match="feature dimension 5 does not match model input 6"):
            train_stage2(model, narrow, "ssb", OptimSpec(seed=5).for_classifier(),
                         LossSpec(kind="cross_entropy"))

    def test_features_of_other_rows_rejected(self, stage1_setup):
        ds, model = stage1_setup
        with pytest.raises(ValueError, match="fit_head: 5 feature rows but 738 labels"):
            train_linear_head(ds.features[:5], ds.labels, compute_class_stats(ds), 0.5,
                              OptimSpec(seed=5).for_classifier(), LossSpec(kind="cross_entropy"),
                              backbone=model.backbone.frozen_copy())

    def test_identity_backbone_equivalence(self):
        ds = blob_dataset(counts=(50, 30, 10), dim=5, seed=13)
        stage1 = train_stage1(ds, (), OptimSpec(epochs=3, warmup_epochs=1, seed=7),
                              LossSpec(kind="cross_entropy"))
        optim = OptimSpec(seed=19).for_classifier()
        loss = LossSpec(kind="cross_entropy")
        via_stage2 = train_stage2(stage1, ds, "sqrt_samp", optim, loss)
        counts = np.bincount(ds.labels, minlength=3)
        direct, _ = train_linear_head(ds.features, ds.labels, counts, 0.5, optim, loss,
                                      Backbone([], []))
        assert np.array_equal(via_stage2.heads["head"].weight, direct.weight)
        assert np.array_equal(via_stage2.heads["head"].bias, direct.bias)


class TestPredict:
    def test_argmax_on_scores(self):
        ds = blob_dataset(counts=(5, 5, 5), dim=3)
        model = make_model(np.eye(3) * 0.0, np.array([0.2, 0.7, 0.1]), ds)
        preds, scores = predict(model, np.zeros((1, 3)))
        assert preds[0] == 1
        np.testing.assert_allclose(scores[0], softmax([0.2, 0.7, 0.1]))

    def test_exact_tie_breaks_to_lowest_index(self):
        ds = blob_dataset(counts=(5, 5), dim=4)
        model = make_model(np.zeros((2, 4)), np.zeros(2), ds)
        preds, scores = predict(model, np.ones((3, 4)))
        np.testing.assert_allclose(scores, 0.5)
        assert preds.tolist() == [0, 0, 0]

    def test_positive_scaling_preserves_argmax(self, stage1_setup):
        ds, model = stage1_setup
        ssb = train_stage2(model, ds, "ssb", OptimSpec(seed=5).for_classifier(),
                           LossSpec(kind="cross_entropy"))
        preds, scores = predict(ssb, ds.features[:40])
        assert np.array_equal(np.argmax(scores * 3.7, axis=1), preds)

    def test_deterministic_predictions(self, stage1_setup):
        ds, model = stage1_setup
        a = predict(model, ds.features)[0]
        b = predict(model, ds.features)[0]
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def scoring_models():
    """One model per method on 12 classes in every count bin, with a hidden
    layer; class 1 is the background class, so bags trains a background head."""
    ds = blob_dataset(counts=(1100, 1000, 300, 200, 120, 60, 40, 30, 12, 8, 6, 5), dim=8,
                      separation=6.0, seed=3, background_class=1)
    loss = LossSpec(kind="cross_entropy")
    stage1 = train_stage1(ds, (16,),
                          OptimSpec(epochs=1, warmup_epochs=0, seed=2), loss)
    models = {"baseline": stage1}
    for method in ("sqrt_samp", "cb_focal", "bags", "ssb"):
        method_loss = LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9) \
            if method == "cb_focal" else loss
        models[method] = train_stage2(stage1, ds, method,
                                      OptimSpec(epochs=1, warmup_epochs=0, seed=4), method_loss)
    assert "bags.background" in models["bags"].heads
    return models


class TestBlockedScores:
    METHODS = ["baseline", "sqrt_samp", "cb_focal", "bags", "ssb"]

    @pytest.mark.parametrize("method", METHODS)
    def test_blocks_equal_one_pass(self, scoring_models, method):
        model = scoring_models[method]
        rows = 2 * BLOCK_ROWS + 1001
        x = np.random.default_rng(5).standard_normal((rows, 8)) * 6.0
        h = model.backbone.features(x)
        whole = model_module.METHODS[method].combine(model, h)
        assert np.array_equal(model_module.scores(model, x), whole)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_rows(self, scoring_models, method):
        preds, s = predict(scoring_models[method], np.zeros((0, 8)))
        assert preds.shape == (0,) and s.shape == (0, 12)

    @pytest.mark.parametrize("row", [17, 2 * BLOCK_ROWS + 5])
    def test_nonfinite_row_named(self, scoring_models, row):
        # The first bad row is named, also when it lies in a later block.
        x = np.zeros((3 * BLOCK_ROWS - 2, 8))
        x[row, 3] = np.nan
        x[row + 1, 0] = np.inf
        with pytest.raises(ValueError, match=f"features row {row} is not finite"):
            predict(scoring_models["ssb"], x)

    @pytest.mark.parametrize("method", METHODS)
    def test_predict_holds_about_its_output(self, scoring_models, method):
        model = scoring_models[method]
        x = np.random.default_rng(6).standard_normal((60_000, 8))
        (preds, s), peak = traced_peak(predict, model, x)
        # One block's backbone features plus one block's scores.
        block_bytes = BLOCK_ROWS * (16 + 12) * 8
        extra = peak - s.nbytes - preds.nbytes
        assert extra <= 4 * block_bytes, extra / block_bytes

    # One block's scores are returned as the combine rule made them, not
    # copied into a second matrix: baseline holds one score-sized array, ssb
    # its two head softmaxes and their combination.  1,000 rows are one block.
    @pytest.mark.parametrize("method, most", [("baseline", 1.5), ("ssb", 3.5)])
    def test_one_block_is_not_copied(self, method, most):
        rng = np.random.default_rng(7)
        classes, dim, rows = 200, 16, 1000
        assert len(block_slices(rows)) == 1
        heads = {name: ClassifierHead(weight=rng.standard_normal((classes, dim)),
                                      bias=rng.standard_normal(classes))
                 for name in ("head", "sqrt_head")[:2 if method == "ssb" else 1]}
        model = TrainedModel(backbone=Backbone(weights=[], biases=[]), heads=heads,
                             counts=np.arange(1, classes + 1) * 10,
                             method=method, train_log=[],
                             class_names=tuple(f"c{j}" for j in range(classes)))
        h = rng.standard_normal((rows, dim))
        s, peak = traced_peak(lambda: model_module.scores(model, h))
        assert s.shape == (rows, classes)
        assert peak < most * s.nbytes, peak / s.nbytes


class TestCheckpoint:
    # A field derivable from these would only restate them.
    HEADER_KEYS = {"format", "version", "endianness", "dtype", "method", "class_names",
                   "background_class", "backbone_frozen", "stats", "train_log", "params"}

    @pytest.mark.parametrize("method", TestBlockedScores.METHODS)
    def test_header_holds_only_what_a_load_reads(self, tmp_path, scoring_models, method):
        path = tmp_path / "model.ckpt"
        save_model(scoring_models[method], str(path))
        header = checkpoint_header(path.read_bytes())
        assert set(header) == self.HEADER_KEYS
        assert set(header["stats"]) == {"counts"}

    @pytest.mark.parametrize("method", ["baseline", "sqrt_samp", "cb_focal", "bags", "ssb"])
    def test_round_trip_bit_exact(self, tmp_path, stage1_setup, method):
        ds, model = stage1_setup
        if method == "baseline":
            trained = model
        else:
            loss = (LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9)
                    if method == "cb_focal" else LossSpec(kind="cross_entropy"))
            trained = train_stage2(model, ds, method, OptimSpec(seed=5).for_classifier(), loss)
        path = tmp_path / f"{method}.ckpt"
        save_model(trained, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.heads["head"].weight, trained.heads["head"].weight)
        assert np.array_equal(loaded.heads["head"].bias, trained.heads["head"].bias)
        for wa, wb in zip(loaded.backbone.weights, trained.backbone.weights):
            assert np.array_equal(wa, wb)
        assert loaded.method == trained.method
        assert loaded.class_names == trained.class_names
        assert np.array_equal(loaded.counts, trained.counts)
        assert [e.mean_loss for e in loaded.train_log] == \
               [e.mean_loss for e in trained.train_log]
        # Saving the loaded model reproduces the file byte for byte.
        path2 = tmp_path / f"{method}2.ckpt"
        save_model(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path, stage1_setup):
        ds, model = stage1_setup
        ssb = train_stage2(model, ds, "ssb", OptimSpec(seed=5).for_classifier(),
                           LossSpec(kind="cross_entropy"))
        path = tmp_path / "ssb.ckpt"
        save_model(ssb, str(path))
        loaded = load_model(str(path))
        a, sa = predict(ssb, ds.features)
        b, sb = predict(loaded, ds.features)
        assert np.array_equal(a, b)
        assert np.array_equal(sa, sb)

    def test_bags_with_background_round_trip(self, tmp_path):
        ds = blob_dataset(counts=(200, 40, 12), dim=5, seed=3, background_class=0)
        model = train_stage1(ds, (), OptimSpec(epochs=4, warmup_epochs=1, seed=2),
                             LossSpec(kind="cross_entropy"))
        bags = train_stage2(model, ds, "bags", OptimSpec(seed=4).for_classifier(),
                            LossSpec(kind="cross_entropy"))
        assert "bags.background" in bags.heads
        path = tmp_path / "bags.ckpt"
        save_model(bags, str(path))
        loaded = load_model(str(path))
        a = predict(bags, ds.features)[1]
        b = predict(loaded, ds.features)[1]
        assert np.array_equal(a, b)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a longtail-lab checkpoint"):
            load_model(str(path))


MAGIC_LEN = len(b"LTLABCKPT1\n")


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory, stage1_setup):
    path = tmp_path_factory.mktemp("ckpt") / "baseline.ckpt"
    save_model(stage1_setup[1], str(path))
    return path


@pytest.fixture(scope="module")
def bags_checkpoint_file(tmp_path_factory, stage1_setup):
    ds, model = stage1_setup
    path = tmp_path_factory.mktemp("ckpt") / "bags.ckpt"
    save_model(train_stage2(model, ds, "bags", OptimSpec(seed=5).for_classifier(),
                            LossSpec(kind="cross_entropy")), str(path))
    return path


def rejects(path, *fragments) -> None:
    """load_model raises ValueError whose message names the path and each fragment."""
    with pytest.raises(ValueError) as info:
        load_model(str(path))
    for text in (str(path),) + fragments:
        assert text in str(info.value)


def checkpoint_header(blob: bytes) -> dict:
    (header_len,) = struct.unpack_from("<Q", blob, MAGIC_LEN)
    return json.loads(blob[MAGIC_LEN + 8:MAGIC_LEN + 8 + header_len])


def edited_checkpoint(path, edit) -> bytes:
    """The checkpoint at ``path`` with ``edit`` applied to its header."""
    blob = path.read_bytes()
    header = checkpoint_header(blob)
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    (header_len,) = struct.unpack_from("<Q", blob, MAGIC_LEN)
    return (blob[:MAGIC_LEN] + struct.pack("<Q", len(new)) + new
            + blob[MAGIC_LEN + 8 + header_len:])


def older_header(header: dict) -> None:
    """Turn a baseline checkpoint's header into the format that also stored
    the count bins twice, a group layout and a bags head list."""
    bins = count_decade(np.array(header["stats"]["counts"])).tolist()
    header["stats"].update(bins=bins, groups=bins)
    header.update(layout=None, bags=None)


class TestCorruptCheckpoint:
    def test_truncated_length_field(self, tmp_path, checkpoint_file):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(checkpoint_file.read_bytes()[:MAGIC_LEN + 5])
        rejects(path, "header length")

    def test_tensor_missing_from_header(self, tmp_path, checkpoint_file, stage1_setup):
        blob = checkpoint_file.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, MAGIC_LEN)
        start = MAGIC_LEN + 8
        header = json.loads(blob[start:start + header_len])
        assert header["params"][-1]["name"] == "head.bias"
        header["params"].pop()
        new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        bias_bytes = 8 * stage1_setup[1].heads["head"].bias.size
        path = tmp_path / "nobias.ckpt"
        path.write_bytes(blob[:MAGIC_LEN] + struct.pack("<Q", len(new)) + new
                         + blob[start + header_len:-bias_bytes])
        rejects(path, "'head.bias'")

    # A checkpoint consistent with itself that lacks a head its method combines.
    @pytest.mark.parametrize("method, head", [("ssb", "sqrt_head"), ("bags", "bags.group1")])
    def test_missing_combined_head_named(self, tmp_path, stage1_setup, method, head):
        ds, model = stage1_setup
        trained = train_stage2(model, ds, method, OptimSpec(seed=5).for_classifier(),
                               LossSpec(kind="cross_entropy"))
        full = tmp_path / "full.ckpt"
        save_model(trained, str(full))
        blob = full.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, MAGIC_LEN)
        start = MAGIC_LEN + 8
        header = json.loads(blob[start:start + header_len])
        body, pos = b"", start + header_len
        kept = []
        for entry in header["params"]:
            size = 8 * int(np.prod(entry["shape"]))
            if entry["name"] not in (f"{head}.weight", f"{head}.bias"):
                kept.append(entry)
                body += blob[pos:pos + size]
            pos += size
        header["params"] = kept
        new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[:MAGIC_LEN] + struct.pack("<Q", len(new)) + new + body)
        rejects(path, f"'{head}'")

    def test_deeply_nested_header_names_the_file(self, tmp_path):
        header = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"LTLABCKPT1\n" + struct.pack("<Q", len(header)) + header)
        rejects(path, "header is not valid JSON", "recursion")

    def test_trailing_bytes(self, tmp_path, checkpoint_file):
        path = tmp_path / "long.ckpt"
        path.write_bytes(checkpoint_file.read_bytes() + bytes(8))
        rejects(path, "trailing bytes")

    # Each edit fails the type checks or the header check: the header a
    # rebuilt model would be saved with must equal the stored one.
    @pytest.mark.parametrize("edit, fragment", [
        (lambda h: h.update(params=5), "'params'"),
        (lambda h: h.update(layout="x"), "'layout'"),
        (lambda h: h.update(train_log=[{"epoch": "a"}]), "'train_log[0].epoch'"),
        (lambda h: h.update(method="nope"), "method"),
        (lambda h: h.update(class_names=h["class_names"][:3]), "class_names"),
        (lambda h: h.update(class_names=["c0"] * len(h["class_names"])),
         "field 'class_names': duplicate class name 'c0'"),
        (lambda h: h["stats"].update(bins=[1] * len(h["stats"]["counts"])), "'stats.bins'"),
        (lambda h: h["stats"]["counts"].__setitem__(0, 2**70), "'stats.counts[0]'"),
        (lambda h: h["params"][0]["shape"].reverse(), "'backbone.0.weight'"),
        (older_header, "'bags'"),
    ], ids=["params_not_a_list", "layout_not_an_object", "epoch_not_an_int",
            "unknown_method", "class_names_cut", "class_names_repeated", "bins_disagree", "count_beyond_int64",
            "weight_transposed", "older_format"])
    def test_bad_header_field_named(self, tmp_path, checkpoint_file, edit, fragment):
        path = tmp_path / "edited.ckpt"
        path.write_bytes(edited_checkpoint(checkpoint_file, edit))
        rejects(path, fragment)

    # Well-typed values a model of the stored classes cannot have: a
    # background class that is not one of the 4 classes, and a class with no
    # training rows.  Bags reads the background class to group its heads.
    @pytest.mark.parametrize("method", ["baseline", "bags"])
    @pytest.mark.parametrize("edit, fragment", [
        (lambda h: h.update(background_class=99),
         "field 'background_class' must lie in [0, 4), got 99"),
        (lambda h: h.update(background_class=-1),
         "field 'background_class' must lie in [0, 4), got -1"),
        (lambda h: h["stats"]["counts"].__setitem__(2, 0),
         "field 'stats.counts[2]' must be >= 1, got 0"),
        (lambda h: h["stats"]["counts"].__setitem__(2, -7),
         "field 'stats.counts[2]' must be >= 1, got -7"),
    ], ids=["background_beyond_classes", "negative_background", "zero_count",
            "negative_count"])
    def test_value_outside_the_classes_named(self, tmp_path, checkpoint_file,
                                             bags_checkpoint_file, method, edit, fragment):
        path = tmp_path / "edited.ckpt"
        source = bags_checkpoint_file if method == "bags" else checkpoint_file
        path.write_bytes(edited_checkpoint(source, edit))
        rejects(path, fragment)

    def test_background_head_without_background_class_named(self, tmp_path, scoring_models):
        full = tmp_path / "bags.ckpt"
        save_model(scoring_models["bags"], str(full))
        path = tmp_path / "edited.ckpt"
        path.write_bytes(edited_checkpoint(full, lambda h: h.update(background_class=None)))
        rejects(path, "field 'background_class' is null", "head 'bags.background'")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_truncation_rejected(self, checkpoint_file, data):
        blob = checkpoint_file.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="cut")
        path = checkpoint_file.with_name("truncated.ckpt")
        path.write_bytes(blob[:cut])
        rejects(path)


def wide_head_model() -> TrainedModel:
    """A baseline model on the identity backbone whose one head is 50 x 4096."""
    rng = np.random.default_rng(0)
    head = ClassifierHead(weight=rng.standard_normal((50, 4096)), bias=rng.standard_normal(50))
    return TrainedModel(backbone=Backbone(weights=[], biases=[]), heads={"head": head},
                        counts=np.arange(1, 51), method="baseline",
                        train_log=[], class_names=tuple(f"c{j}" for j in range(50)))


class TestModelFields:
    """What ``TrainedModel`` refuses when it is built in memory."""

    @staticmethod
    def model(counts=(5, 4, 3, 2), class_names=("a", "b", "c", "d")) -> TrainedModel:
        head = ClassifierHead(weight=np.zeros((len(class_names), 2)),
                              bias=np.zeros(len(class_names)))
        return TrainedModel(backbone=Backbone(weights=[], biases=[]), heads={"head": head},
                            counts=counts, method="baseline", train_log=[],
                            class_names=class_names)

    def test_counts_become_an_int64_vector(self):
        counts = self.model(counts=[5.0, 4.0, 3.0, 2.0]).counts
        assert counts.dtype == np.int64 and counts.tolist() == [5, 4, 3, 2]

    @pytest.mark.parametrize("counts, shape", [
        (np.full((2, 2), 5), [2, 2]),
        ((5, 4, 3), [3]),
        ((5, 4, 3, 2, 1), [5]),
    ], ids=["two_d", "short", "long"])
    def test_counts_one_per_class(self, counts, shape):
        with pytest.raises(ValueError) as info:
            self.model(counts=counts)
        assert str(info.value) == ("class_names has 4 entries but field 'stats.counts' "
                                   f"has shape {shape}")

    @pytest.mark.parametrize("names, message", [
        (("a", "b", "a", "d"), "duplicate class name 'a'"),
        (("a", "b", " ", "d"), "empty class name"),
    ])
    def test_class_names_blank_or_repeated(self, names, message):
        with pytest.raises(ValueError) as info:
            self.model(class_names=names)
        assert str(info.value) == f"field 'class_names': {message}"


class TestCheckpointFile:
    def test_interrupted_save_keeps_the_old_checkpoint(self, tmp_path, checkpoint_file):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_file.read_bytes())

        class InterruptedBias:  # read after the header and the weight are written
            shape = (50,)

            def __array__(self, dtype=None, copy=None):
                raise KeyboardInterrupt

        model = wide_head_model()
        model.heads["head"].bias = InterruptedBias()
        with pytest.raises(KeyboardInterrupt):
            save_model(model, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == checkpoint_file.read_bytes()

    def test_load_holds_about_the_parameters(self, tmp_path):
        model = wide_head_model()
        path = tmp_path / "wide.ckpt"
        save_model(model, str(path))
        loaded, peak = traced_peak(load_model, str(path))
        head = model.heads["head"]
        assert loaded.heads["head"].weight.tobytes() == head.weight.tobytes()
        params = head.weight.nbytes + head.bias.nbytes
        assert peak <= 1.1 * params, peak / params

    def test_fifo_refused_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "model.fifo"
        os.mkfifo(path)
        outcome = []

        def load():
            try:
                load_model(str(path))
            except ValueError as exc:
                outcome.append(str(exc))
        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "load_model opened the FIFO and waits for a writer"
        assert outcome == [f"{path}: not a regular file"]


class TestBackboneUnit:
    def test_identity_backbone_has_no_params(self):
        bb = Backbone.build(5, (), np.random.default_rng(0))
        assert bb.num_layers == 0
        x = np.random.default_rng(1).normal(size=(3, 5))
        np.testing.assert_array_equal(bb.features(x), x)

    def test_features_exact_and_input_untouched(self):
        rng = np.random.default_rng(4)
        bb = Backbone.build(5, (7, 3), rng)
        x = rng.normal(size=(6, 5))
        before = x.copy()
        expected = x
        for w, b in zip(bb.weights, bb.biases):
            expected = np.maximum(expected @ w.T + b, 0.0)
        out = bb.features(x)
        assert out.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_cached_forward_and_logits_exact_and_input_untouched(self):
        # The bias is added in place; the bits equal those of ``h @ w.T + b``.
        rng = np.random.default_rng(6)
        bb = Backbone(weights=[rng.normal(size=(7, 5)), rng.normal(size=(3, 7))],
                      biases=[rng.normal(size=7), rng.normal(size=3)])
        head = ClassifierHead(weight=rng.normal(size=(4, 3)), bias=rng.normal(size=4))
        x = rng.normal(size=(6, 5))
        before = x.copy()
        out, caches = bb.forward_cached(x)
        expected = x
        for (inp, z), w, b in zip(caches, bb.weights, bb.biases):
            assert inp.tobytes() == expected.tobytes()
            assert z.tobytes() == (expected @ w.T + b).tobytes()
            expected = np.maximum(expected @ w.T + b, 0.0)
        assert out.tobytes() == expected.tobytes()
        assert head.logits(out).tobytes() == (out @ head.weight.T + head.bias).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_relu_backbone_nonnegative(self):
        bb = Backbone.build(4, (6, 3), np.random.default_rng(0))
        out = bb.features(np.random.default_rng(1).normal(size=(10, 4)))
        assert out.shape == (10, 3)
        assert (out >= 0).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        bb = Backbone.build(3, (5,), rng)
        head = ClassifierHead.create(2, 5, rng)
        x = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 1, 0])
        spec = LossSpec(kind="cross_entropy")

        def total():
            h, _ = bb.forward_cached(x)
            return batch_loss(head.logits(h), labels, None, spec).total

        h_feats, caches = bb.forward_cached(x)
        value = batch_loss(head.logits(h_feats), labels, None, spec)
        grads = bb.backward(value.grad_logits @ head.weight, caches)
        step = 1e-6
        for param, grad in zip([bb.weights[0], bb.biases[0]], [grads[0], grads[1]]):
            numeric = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                param[idx] += step
                up = total()
                param[idx] -= 2 * step
                down = total()
                param[idx] += step
                numeric[idx] = (up - down) / (2 * step)
                it.iternext()
            assert max_relative_error(grad, numeric) < 1e-4
