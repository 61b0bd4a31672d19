"""Sampling weights, epoch streams, and the grouped-head batch undersampler."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from longtail_lab import (bags_filter_batch, compute_class_stats, make_epoch_stream,
                          make_sampler, sampling_weights)

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


class TestBagsFilterBatch:
    def test_undersamples_others_to_beta_times_in_group(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.array([0, 0] + [1] * 64)  # class 0 is group 1, class 1 group 4
        kept = bags_filter_batch(labels, group=1, group_of=stats.bins, bags_beta=8.0, seed=3)
        in_group = (labels[kept] == 0).sum()
        others = (labels[kept] == 1).sum()
        assert in_group == 2 and others == 16

    def test_batch_entirely_in_group_unchanged(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.zeros(10, dtype=np.int64)
        kept = bags_filter_batch(labels, group=1, group_of=stats.bins)
        assert kept.tolist() == list(range(10))

    def test_no_in_group_keeps_ceil_beta_others(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.ones(64, dtype=np.int64)
        kept = bags_filter_batch(labels, group=1, group_of=stats.bins, bags_beta=8.0, seed=3)
        assert kept.size == 8

    def test_never_drops_in_group(self):
        stats = compute_class_stats(dataset_with_counts([5, 50, 2000]))
        rng = np.random.default_rng(0)
        for trial in range(50):
            labels = rng.integers(0, 3, size=rng.integers(1, 80))
            for group in (1, 2, 4):
                kept = bags_filter_batch(labels, group, stats.bins, bags_beta=2.5, seed=trial)
                in_positions = np.flatnonzero(stats.bins[labels] == group)
                assert set(in_positions.tolist()) <= set(kept.tolist())

    def test_cap_is_ceiling(self):
        stats = compute_class_stats(dataset_with_counts([5, 2000]))
        labels = np.array([0] + [1] * 30)
        kept = bags_filter_batch(labels, group=1, group_of=stats.bins, bags_beta=2.5, seed=1)
        assert (labels[kept] == 1).sum() == math.ceil(2.5 * 1)
