"""Group layouts, the SSB mask and aggregation, and grouped-softmax inference."""
import dataclasses

import numpy as np
import pytest

from longtail_lab import (Backbone, ClassifierHead, GroupLayout,
                          LossSpec, OptimSpec, bags_infer, bags_scores,
                          bags_train_heads, build_group_layout, compute_class_stats,
                          softmax, ssb_aggregate, train_stage1, train_stage2)
from longtail_lab import model as model_module
from longtail_lab.heads import HEAD_GROUP
from longtail_lab.model import METHODS, scores
from longtail_lab.sampling import bags_filter_batch, make_epoch_stream, make_sampler
from longtail_lab.seeding import derive_seed

from conftest import dataset_with_counts


def stats_for(counts):
    return compute_class_stats(dataset_with_counts(counts))


class TestGroupLayout:
    def test_ssb_layout_by_count(self):
        stats = stats_for([5000, 500, 50, 5])
        layout = build_group_layout(stats)
        assert layout.group_of.tolist() == stats.bins.tolist() == [4, 3, 2, 1]
        assert not layout.has_background_group
        assert (stats.bins == HEAD_GROUP).tolist() == [True, False, False, False]

    def test_all_head_classes_identity_mask(self):
        assert (stats_for([2000, 1500, 1000]).bins == HEAD_GROUP).all()

    def test_no_head_classes_zero_mask(self):
        assert not (stats_for([999, 50, 5]).bins == HEAD_GROUP).any()

    def test_ssb_background_placed_by_count(self):
        # ssb scores a background class by its count bin, like any other class.
        ds = dataset_with_counts([1200, 50, 5], background_class=0)
        loss = LossSpec(kind="cross_entropy")
        stage1 = train_stage1(ds, (), OptimSpec(epochs=0, warmup_epochs=0),
                              loss)
        ssb = train_stage2(stage1, ds, "ssb", OptimSpec(epochs=0, warmup_epochs=0, seed=1),
                           loss)
        x = ds.features[:4]
        p_i = softmax(ssb.heads["head"].logits(x))
        p_sqrt = softmax(ssb.heads["sqrt_head"].logits(x))
        assert not np.array_equal(p_i[:, 0], p_sqrt[:, 0])
        np.testing.assert_array_equal(scores(ssb, x), np.hstack([p_i[:, :1], p_sqrt[:, 1:]]))

    def test_bags_background_group(self):
        layout = build_group_layout(stats_for([5000, 50, 5]), background_class=0)
        assert layout.has_background_group
        assert layout.group_of.tolist() == [0, 2, 1]
        assert layout.classes_in(0).tolist() == [0]

    def test_background_group_requires_background_class(self):
        with pytest.raises(ValueError, match="no background class"):
            build_group_layout(stats_for([5000, 50, 5]), with_background_group=True)

    def test_background_group_forced_off(self):
        layout = build_group_layout(stats_for([5000, 50, 5]), background_class=0,
                                    with_background_group=False)
        assert not layout.has_background_group
        assert layout.background_class is None
        assert layout.group_of.tolist() == [4, 2, 1]

    def test_group_of_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(GroupLayout)] == ["group_of"]

    def test_groups_lie_in_zero_to_four(self):
        assert GroupLayout(group_of=[4, 1, 2]).group_of.tolist() == [4, 1, 2]
        for bad in (5, -1):
            with pytest.raises(ValueError, match=r"group indices must lie in \[0, 1, 2, 3, 4\]"):
                GroupLayout(group_of=[4, bad, 2])

    def test_group_zero_holds_at_most_the_background_class(self):
        layout = GroupLayout(group_of=[3, 0, 1])
        assert layout.background_class == 1
        assert layout.has_background_group
        with pytest.raises(ValueError, match="group 0 holds at most one class"):
            GroupLayout(group_of=[0, 0, 1])

    def test_layout_invariant_to_class_order(self):
        counts = [5000, 500, 50, 5]
        perm = [2, 0, 3, 1]
        direct = build_group_layout(stats_for(counts)).group_of
        permuted = build_group_layout(stats_for([counts[p] for p in perm])).group_of
        assert permuted.tolist() == [int(direct[p]) for p in perm]

    def test_groups_partition_classes(self):
        layout = build_group_layout(stats_for([2000, 800, 30, 4, 120]))
        seen = np.concatenate([layout.classes_in(k) for k in range(5)])
        assert sorted(seen.tolist()) == list(range(5))


class TestSSBMask:
    def test_idempotent_and_diagonal(self):
        mask = stats_for([5000, 500, 5000, 5]).bins == HEAD_GROUP
        assert mask.tolist() == [True, False, True, False]
        # The paper's form: p = Q p_i + (I - Q) p_sqrt with Q the diagonal head mask.
        q = np.diag(mask.astype(np.float64))
        np.testing.assert_array_equal(q, q.T)
        np.testing.assert_array_equal(q @ q, q)
        np.testing.assert_array_equal(q @ (np.eye(4) - q), np.zeros((4, 4)))
        assert q.trace() == 2
        rng = np.random.default_rng(0)
        p_i, p_sqrt = rng.random(4), rng.random(4)
        np.testing.assert_array_equal(ssb_aggregate(p_i, p_sqrt, mask),
                                      q @ p_i + (np.eye(4) - q) @ p_sqrt)


class TestSSBAggregate:
    def test_coordinate_selection_example(self):
        mask = np.array([True, False])
        out = ssb_aggregate([0.7, 0.3], [0.4, 0.6], mask)
        np.testing.assert_allclose(out, [0.7, 0.6])
        assert out.sum() == pytest.approx(1.3)

    def test_identity_mask_returns_instance_branch(self):
        mask = np.ones(3, dtype=bool)
        p_i = np.array([0.5, 0.2, 0.3])
        np.testing.assert_array_equal(ssb_aggregate(p_i, [0.1, 0.1, 0.8], mask), p_i)

    def test_zero_mask_returns_sqrt_branch(self):
        mask = np.zeros(3, dtype=bool)
        p_sqrt = np.array([0.1, 0.1, 0.8])
        np.testing.assert_array_equal(ssb_aggregate([0.5, 0.2, 0.3], p_sqrt, mask), p_sqrt)

    def test_every_coordinate_comes_from_exactly_one_branch(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(2, 12))
            head = rng.random(c) < 0.5
            mask = head
            p_i, p_sqrt = rng.random(c), rng.random(c)
            out = ssb_aggregate(p_i, p_sqrt, mask)
            for a in range(c):
                assert out[a] == (p_i[a] if head[a] else p_sqrt[a])

    def test_batched_rows(self):
        mask = np.array([True, False])
        p_i = np.array([[0.7, 0.3], [0.6, 0.4]])
        p_sqrt = np.array([[0.4, 0.6], [0.5, 0.5]])
        np.testing.assert_allclose(ssb_aggregate(p_i, p_sqrt, mask),
                                   [[0.7, 0.6], [0.6, 0.5]])

    def test_length_mismatch_rejected(self):
        mask = np.array([True, False])
        with pytest.raises(ValueError):
            ssb_aggregate([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], mask)
        with pytest.raises(ValueError):
            ssb_aggregate([0.5, 0.5], [0.5, 0.3, 0.2], mask)


class TestBagsInfer:
    def test_remap_drops_others(self):
        layout = build_group_layout(stats_for([50, 20]))
        logits = np.log(np.array([[0.5, 0.3, 0.2]]))
        scores = bags_infer(layout, {2: logits})
        np.testing.assert_allclose(scores, [[0.5, 0.3]], atol=1e-12)

    def test_foreground_rescaling(self):
        layout = build_group_layout(stats_for([50, 20, 5000]), background_class=2)
        group_logits = np.log(np.array([[0.5, 0.3, 0.2]]))
        background_logits = np.log(np.array([[0.8, 0.2]]))
        scores = bags_infer(layout, {2: group_logits}, background_logits)
        np.testing.assert_allclose(scores, [[0.4, 0.24, 0.2]], atol=1e-12)

    def test_no_background_group_unscaled(self):
        layout = build_group_layout(stats_for([50, 20]))
        scores = bags_infer(layout, {2: np.log(np.array([[0.6, 0.3, 0.1]]))})
        np.testing.assert_allclose(scores, [[0.6, 0.3]], atol=1e-12)

    def test_degenerate_single_group_equals_restricted_softmax(self):
        layout = build_group_layout(stats_for([50, 20, 30]))
        rng = np.random.default_rng(4)
        head = ClassifierHead(weight=rng.normal(size=(4, 6)), bias=rng.normal(size=4))
        feats = rng.normal(size=(9, 6))
        scores = bags_scores(layout, {"bags.group2": head}, feats)
        np.testing.assert_allclose(scores, softmax(head.logits(feats))[:, :3], atol=1e-15)

    def test_background_scaling_bit_exact(self):
        # The foreground columns scaled through a mask, as a reference form.
        layout = build_group_layout(stats_for([50, 20, 5, 5000, 300]), background_class=3)
        rng = np.random.default_rng(8)
        group_logits = {1: rng.normal(size=(6, 2)), 2: rng.normal(size=(6, 3)),
                        3: rng.normal(size=(6, 2))}
        background_logits = rng.normal(size=(6, 2)) * 4.0
        expected = np.zeros((6, 5))
        for k, logits in group_logits.items():
            members = layout.classes_in(k)
            expected[:, members] = softmax(logits)[:, :members.size]
        bg_probs = softmax(background_logits)
        foreground = np.ones(5, dtype=bool)
        foreground[3] = False
        expected[:, foreground] *= bg_probs[:, 0][:, None]
        expected[:, 3] = bg_probs[:, 1]
        assert np.array_equal(bags_infer(layout, group_logits, background_logits), expected)

    def test_missing_background_logits_rejected(self):
        layout = build_group_layout(stats_for([50, 20, 5000]), background_class=2)
        with pytest.raises(ValueError, match="background"):
            bags_infer(layout, {2: np.zeros((1, 3))})

    def test_arity_mismatch_rejected(self):
        layout = build_group_layout(stats_for([50, 20]))
        with pytest.raises(ValueError, match=r"^group 2 logits have 5 outputs, expected 3$"):
            bags_infer(layout, {2: np.zeros((1, 5))})

    def test_background_arity_mismatch_rejected(self):
        layout = build_group_layout(stats_for([50, 20, 5000]), background_class=2)
        with pytest.raises(ValueError, match=r"^background logits have 3 outputs, expected 2$"):
            bags_infer(layout, {2: np.zeros((1, 3))}, np.zeros((1, 3)))

    @pytest.mark.parametrize("group_logits", [{2: np.zeros(3)}, {}])
    def test_vector_or_no_logits_rejected(self, group_logits):
        layout = build_group_layout(stats_for([50, 20]))
        with pytest.raises(ValueError, match=r"^group logits must be one or more "
                                             r"\(batch, outputs\) matrices$"):
            bags_infer(layout, group_logits)


@pytest.fixture(scope="module")
def toy():
    # Two tail classes (group 1) and two head-ish classes (group 3).
    ds = dataset_with_counts([7, 6, 300, 280], dim=6, seed=2)
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((4, 6)) * 4.0
    feats = ds.features + centers[ds.labels]
    ds = type(ds)(features=feats, labels=ds.labels, class_names=ds.class_names)
    model = train_stage1(ds, (), OptimSpec(epochs=6, warmup_epochs=1, seed=1),
                         LossSpec(kind="cross_entropy"))
    return ds, model, centers


class TestBagsTraining:
    def test_backbone_untouched(self, toy):
        ds, model, _ = toy
        head_before = model.heads["head"].weight.copy()
        feats_before = ds.features.copy()
        bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        assert np.array_equal(ds.features, feats_before)
        assert np.array_equal(model.heads["head"].weight, head_before)

    def test_group_heads_have_expected_arity(self, toy):
        ds, model, _ = toy
        heads, log = bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        assert set(heads) == {"bags.group1", "bags.group3"}
        assert heads["bags.group1"].num_outputs == 3  # 2 classes + others
        assert heads["bags.group3"].num_outputs == 3
        assert len(log) == 12

    def test_tail_group_head_beats_majority_baseline(self, toy):
        ds, model, centers = toy
        heads, _ = bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        rng = np.random.default_rng(9)
        val_feats = np.concatenate([centers[c] + rng.standard_normal((25, 6))
                                    for c in (0, 1)])
        val_labels = np.repeat([0, 1], 25)
        # The group head's own discrimination on its in-group slice: argmax
        # over its real-class outputs, "others" excluded.
        probs = softmax(heads["bags.group1"].logits(val_feats))
        preds = probs[:, :2].argmax(axis=1)
        majority_baseline = 0.5
        assert (preds == val_labels).mean() > majority_baseline

    def test_empty_group_skipped_with_warning(self, toy, caplog):
        ds, model, _ = toy
        layout = build_group_layout(compute_class_stats(ds))
        assert layout.classes_in(2).size == 0
        with caplog.at_level("WARNING"):
            heads, _ = bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        assert "bags.group2" not in heads
        assert any("group 2" in message for message in caplog.messages)

    def test_deterministic_given_seed(self, toy):
        ds, model, _ = toy
        a, _ = bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        b, _ = bags_train_heads(ds, OptimSpec(seed=3).for_classifier(), model.backbone)
        for name in a:
            assert np.array_equal(a[name].weight, b[name].weight)

    def test_background_sharing_a_decade_with_another_class(self):
        # The background class is pulled into group 0 even though its count
        # decade also holds class 1; its rows must train as "others".
        ds = dataset_with_counts([300, 250, 40, 6], dim=5, seed=8,
                                 background_class=0)
        model = train_stage1(ds, (),
                             OptimSpec(epochs=3, warmup_epochs=1, seed=1),
                             LossSpec(kind="cross_entropy"))
        layout = build_group_layout(compute_class_stats(ds), background_class=0)
        assert layout.group_of.tolist() == [0, 3, 2, 1]
        heads, _ = bags_train_heads(ds, OptimSpec(seed=2).for_classifier(), model.backbone)
        assert heads["bags.group3"].num_outputs == 2  # class 1 + others
        scores = bags_scores(layout, heads, ds.features[:10])
        assert scores.shape == (10, 4)
        assert np.isfinite(scores).all()

    def test_each_step_trains_on_the_filtered_rows_of_its_batch(self, monkeypatch):
        # 613 rows in batches of 64: the last batch of each epoch has 37.
        # Feature 0 is the row index, which the identity backbone hands the
        # head unchanged, so each step's rows can be read back.
        ds = dataset_with_counts([7, 6, 320, 280], dim=2, seed=4)
        ds = dataclasses.replace(ds, features=np.column_stack(
            [np.arange(ds.num_instances, dtype=np.float64), ds.features[:, 1]]))
        optim = OptimSpec(epochs=2, warmup_epochs=1, seed=5)
        assert ds.num_instances % optim.batch_size != 0
        seen_rows, steps = [], []
        logits = ClassifierHead.logits

        def reading_rows(head, h):
            seen_rows.append(h[:, 0].astype(np.int64))
            return logits(head, h)

        loss = model_module.batch_loss

        def recorded(logit_rows, targets, *args):
            steps.append((seen_rows[-1], np.asarray(targets)))
            return loss(logit_rows, targets, *args)

        monkeypatch.setattr(ClassifierHead, "logits", reading_rows)
        monkeypatch.setattr(model_module, "batch_loss", recorded)
        bags_train_heads(ds, optim, Backbone(weights=[], biases=[]), bags_beta=2.0)

        stats = compute_class_stats(ds)
        layout = build_group_layout(stats)
        expected = []
        for k in (1, 3):
            members = layout.classes_in(k)
            local = {c: i for i, c in enumerate(members.tolist())}
            head_seed = derive_seed(optim.seed, "bags-group", k)
            for epoch in range(optim.epochs):
                sampler = make_sampler(stats.counts, METHODS["bags"].q,
                                       derive_seed(head_seed, "stream", epoch))
                stream = make_epoch_stream(ds.labels, sampler, ds.num_instances)
                kept = bags_filter_batch(ds.labels[stream], k, layout.group_of, 2.0,
                                         seed=derive_seed(head_seed, "filter", epoch),
                                         batch_size=optim.batch_size)
                for start in range(0, ds.num_instances, optim.batch_size):
                    end = start + optim.batch_size
                    rows = stream[kept[(kept >= start) & (kept < end)]]
                    targets = [local.get(c, members.size) for c in ds.labels[rows].tolist()]
                    expected.append((rows.tolist(), targets))
        assert len(expected) == 2 * 2 * 10
        assert [(rows.tolist(), targets.tolist()) for rows, targets in steps] == expected
