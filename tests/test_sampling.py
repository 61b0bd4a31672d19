"""Sampling weights, epoch streams, and the grouped-head batch undersampler."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from longtail_lab import (SamplerSpec, bags_filter_batch, compute_class_stats,
                          make_epoch_stream, make_sampler, sampling_weights)

from longtail_lab.data import count_decade

from conftest import dataset_with_counts

counts_strategy = st.lists(st.integers(min_value=1, max_value=10**6),
                           min_size=1, max_size=12)


class TestSamplingWeights:
    def test_instance_sampling_is_empirical(self):
        assert sampling_weights([3, 1], 1.0).tolist() == [0.75, 0.25]

    def test_class_balanced_is_uniform(self):
        np.testing.assert_allclose(sampling_weights([7, 2, 5, 100], 0.0), 0.25)

    def test_square_root_exact(self):
        np.testing.assert_allclose(sampling_weights([100, 4], 0.5),
                                   [10 / 12, 2 / 12], atol=1e-15)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            sampling_weights([3, 0], 0.5)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            sampling_weights([3, 1], 1.5)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = rng.integers(1, 1000, size=rng.integers(1, 10)).tolist()
            q = float(rng.uniform(0, 1))
            got = sampling_weights(counts, q)
            total = sum(c ** q for c in counts)
            expected = [c ** q / total for c in counts]
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(counts_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_sums_to_one_and_permutation_equivariant(self, counts, q):
        p = sampling_weights(counts, q)
        assert abs(p.sum() - 1.0) < 1e-9
        perm = np.random.default_rng(1).permutation(len(counts))
        np.testing.assert_allclose(sampling_weights(np.asarray(counts)[perm], q), p[perm])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=10**6),
           st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)))
    def test_monotone_in_counts(self, a, b, q):
        # strictness below q ~ 1e-6 is lost to float64 rounding of n^q
        lo, hi = sorted((a, b))
        p = sampling_weights([hi, lo], q)
        assert p[0] >= p[1]
        if q > 0 and hi > lo:
            assert p[0] > p[1]


class TestEpochStream:
    def test_q1_is_permutation(self):
        ds = dataset_with_counts([6, 3, 2])
        stream = make_epoch_stream(ds.labels, make_sampler([6, 3, 2], 1.0, seed=4), 11)
        assert stream.dtype == np.int64
        assert sorted(stream.tolist()) == list(range(11))

    def test_q1_longer_than_n_tiles_permutations(self):
        ds = dataset_with_counts([4, 2])
        stream = make_epoch_stream(ds.labels, make_sampler([4, 2], 1.0, seed=4), 13)
        assert len(stream) == 13
        assert sorted(stream[:6].tolist()) == list(range(6))

    def test_fixed_seed_reproducible(self):
        ds = dataset_with_counts([50, 10])
        sampler = make_sampler([50, 10], 0.5, seed=77)
        a = make_epoch_stream(ds.labels, sampler, 1000)
        b = make_epoch_stream(ds.labels, sampler, 1000)
        assert np.array_equal(a, b)

    def test_all_indices_valid(self):
        ds = dataset_with_counts([5, 5, 5])
        stream = make_epoch_stream(ds.labels, make_sampler([5, 5, 5], 0.0, seed=0), 500)
        assert stream.min() >= 0 and stream.max() < 15

    def test_uniform_share_concentrates(self):
        ds = dataset_with_counts([90, 10])
        stream = make_epoch_stream(ds.labels, make_sampler([90, 10], 0.0, seed=21), 10**5)
        share0 = (ds.labels[stream] == 0).mean()
        assert abs(share0 - 0.5) < 0.01

    def test_chisquare_against_target_distribution(self):
        ds = dataset_with_counts([100, 4])
        stream = make_epoch_stream(ds.labels, make_sampler([100, 4], 0.5, seed=5), 10**5)
        observed = np.bincount(ds.labels[stream], minlength=2)
        expected = np.array([10 / 12, 2 / 12]) * 10**5
        assert chisquare(observed, expected).pvalue > 0.001

    def test_within_class_draws_cover_instances(self):
        ds = dataset_with_counts([3, 3])
        stream = make_epoch_stream(ds.labels, make_sampler([3, 3], 0.0, seed=2), 2000)
        assert set(stream.tolist()) == set(range(6))


class TestValidationEdges:
    """Each bound: the value just inside it is accepted, the value at it is
    rejected with its message."""

    @pytest.mark.parametrize("inside, edge, message", [
        ({"q": 1.0}, {"q": math.nextafter(1.0, 2.0)}, "q must lie in [0, 1]"),
        ({"class_probs": [0.0, 1.0]}, {"class_probs": [-1e-13, 1.0 + 1e-13]},
         "class probabilities must be non-negative"),
        ({"class_probs": [0.25, 0.75 + 0.9e-12]}, {"class_probs": [0.25, 0.75 + 1.1e-12]},
         "class probabilities must sum to 1 within 1e-12"),
    ], ids=["q", "negative_prob", "sum_tolerance"])
    def test_sampler_spec(self, inside, edge, message):
        base = {"q": 0.5, "class_probs": [0.5, 0.5], "seed": 0}
        SamplerSpec(**{**base, **inside})
        with pytest.raises(ValueError, match=re.escape(message)):
            SamplerSpec(**{**base, **edge})

    def test_epoch_len(self):
        sampler = make_sampler([2, 1], 0.5, seed=0)
        assert make_epoch_stream(np.array([0, 0, 1]), sampler, 1).shape == (1,)
        with pytest.raises(ValueError, match="epoch_len must be >= 1"):
            make_epoch_stream(np.array([0, 0, 1]), sampler, 0)

    def test_class_with_probability_needs_rows(self):
        # Class 2 has no rows: accepted at probability 0, rejected at the least above it.
        labels = np.array([0, 0, 1])
        make_epoch_stream(labels, SamplerSpec(q=0.5, class_probs=[0.5, 0.5, 0.0], seed=0), 10)
        tiny = math.nextafter(0.0, 1.0)
        with pytest.raises(ValueError, match="probability to a class with no instances"):
            make_epoch_stream(labels, SamplerSpec(q=0.5, class_probs=[0.5, 0.5, tiny], seed=0),
                              10)

    def test_bags_beta(self):
        labels = np.array([0, 1])
        group_of = np.array([1, 4])
        bags_filter_batch(labels, 1, group_of, math.nextafter(0.0, 1.0), seed=0,
                          batch_size=len(labels))
        with pytest.raises(ValueError, match="bags_beta must be > 0"):
            bags_filter_batch(labels, 1, group_of, 0.0, seed=0, batch_size=len(labels))

    def test_bags_batch_size(self):
        labels = np.array([0, 1])
        group_of = np.array([1, 4])
        assert bags_filter_batch(labels, 1, group_of, 1.0, seed=0, batch_size=1).tolist() == [0, 1]
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            bags_filter_batch(labels, 1, group_of, 1.0, seed=0, batch_size=0)


class TestBagsFilterBatch:
    def test_undersamples_others_to_beta_times_in_group(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.array([0, 0] + [1] * 64)  # class 0 is group 1, class 1 group 4
        kept = bags_filter_batch(labels, group=1, group_of=count_decade(stats), bags_beta=8.0, seed=3,
                                 batch_size=len(labels))
        in_group = (labels[kept] == 0).sum()
        others = (labels[kept] == 1).sum()
        assert in_group == 2 and others == 16

    def test_batch_entirely_in_group_unchanged(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.zeros(10, dtype=np.int64)
        kept = bags_filter_batch(labels, group=1, group_of=count_decade(stats), bags_beta=8.0, seed=0,
                                 batch_size=len(labels))
        assert kept.tolist() == list(range(10))

    def test_no_in_group_keeps_ceil_beta_others(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.ones(64, dtype=np.int64)
        kept = bags_filter_batch(labels, group=1, group_of=count_decade(stats), bags_beta=8.0, seed=3,
                                 batch_size=len(labels))
        assert kept.size == 8

    def test_never_drops_in_group(self):
        stats = compute_class_stats(dataset_with_counts([5, 50, 2000]))
        rng = np.random.default_rng(0)
        for trial in range(50):
            labels = rng.integers(0, 3, size=rng.integers(1, 80))
            for group in (1, 2, 4):
                kept = bags_filter_batch(labels, group, count_decade(stats), bags_beta=2.5, seed=trial,
                                         batch_size=len(labels))
                in_positions = np.flatnonzero(count_decade(stats)[labels] == group)
                assert set(in_positions.tolist()) <= set(kept.tolist())

    def test_cap_is_ceiling(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.array([0] + [1] * 30)
        kept = bags_filter_batch(labels, group=1, group_of=count_decade(stats), bags_beta=2.5, seed=1,
                                 batch_size=len(labels))
        assert (labels[kept] == 1).sum() == math.ceil(2.5 * 1)

    @pytest.mark.parametrize("bags_beta, others", [(math.nextafter(0.0, 1.0), 1), (0.5, 1),
                                                   (1.0, 2)], ids=["least", "half", "one"])
    def test_beta_at_most_one(self, bags_beta, others):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.array([0, 0] + [1] * 64)
        kept = bags_filter_batch(labels, 1, count_decade(stats), bags_beta, seed=3,
                                 batch_size=len(labels))
        assert (labels[kept] == 0).sum() == 2
        assert (labels[kept] == 1).sum() == others


# Class 0 is in group 1, classes 1 and 2 are not; each batch's labels come
# from one of these pools: wholly in group, no in-group row, or mixed.
EPOCH_GROUP_OF = np.array([1, 2, 4])
BATCH_POOLS = ((0,), (1, 2), (0, 1, 2))


@st.composite
def epoch_streams(draw):
    """A stream of whole batches, with at least one wholly in group 1 and one
    with no row of it, then a shorter last batch; and its batch size."""
    size = draw(st.integers(min_value=2, max_value=12))

    def batch(pool, length):
        return draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))

    batches = [batch(BATCH_POOLS[0], size), batch(BATCH_POOLS[1], size)]
    batches += [batch(draw(st.sampled_from(BATCH_POOLS)), size)
                for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    batches = draw(st.permutations(batches))
    last = batch(draw(st.sampled_from(BATCH_POOLS)), draw(st.integers(1, size - 1)))
    return np.array(sum(batches, []) + last, dtype=np.int64), size


class TestBagsFilterEpoch:
    @settings(max_examples=150, deadline=None)
    @given(epoch_streams(),
           st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                     st.floats(min_value=1.0, max_value=40.0, exclude_min=True)),
           st.integers(min_value=0, max_value=2**32))
    def test_each_batch_keeps_its_in_group_rows_and_the_rules_count_of_others(
            self, stream, bags_beta, seed):
        labels, size = stream
        assert labels.size % size != 0
        kept = bags_filter_batch(labels, 1, EPOCH_GROUP_OF, bags_beta, seed, batch_size=size)
        assert kept.dtype == np.int64
        assert (np.diff(kept) > 0).all()
        assert 0 <= kept[0] and kept[-1] < labels.size
        for start in range(0, labels.size, size):
            positions = np.arange(start, min(start + size, labels.size))
            in_group = positions[labels[positions] == 0]
            others = positions.size - in_group.size
            cap = math.ceil(bags_beta * in_group.size) if in_group.size else math.ceil(bags_beta)
            batch_kept = kept[(kept >= start) & (kept < start + size)]
            assert set(in_group.tolist()) <= set(batch_kept.tolist())
            assert batch_kept.size == in_group.size + min(cap, others)

    def test_every_other_of_a_batch_is_kept_equally_often(self):
        # Two in-group rows and 30 others per batch: 6 of the 30 are kept.
        batch = np.array([1] * 13 + [0] + [2] * 10 + [0] + [1] * 7)
        trials = 3000
        kept = bags_filter_batch(np.tile(batch, trials), 1, EPOCH_GROUP_OF, 3.0, seed=11,
                                 batch_size=batch.size)
        times = np.bincount(kept % batch.size, minlength=batch.size)
        others = batch != 0
        assert (times[~others] == trials).all()
        assert times[others].sum() == trials * 6
        assert chisquare(times[others]).pvalue > 0.001

    def test_equal_seeds_give_equal_positions(self):
        labels = np.random.default_rng(2).integers(0, 3, size=500)
        a, b, c = (bags_filter_batch(labels, 1, EPOCH_GROUP_OF, 1.5, seed, batch_size=64)
                   for seed in (7, 7, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_no_batch_size_is_one_batch(self):
        # A batch size of the whole stream or more makes one batch.
        labels = np.random.default_rng(3).integers(0, 3, size=90)
        whole = bags_filter_batch(labels, 1, EPOCH_GROUP_OF, 0.5, seed=4, batch_size=len(labels))
        assert np.array_equal(
            whole, bags_filter_batch(labels, 1, EPOCH_GROUP_OF, 0.5, seed=4, batch_size=1000))
        in_group = int((labels == 0).sum())
        assert whole.size == in_group + math.ceil(0.5 * in_group)
