"""Dataset generation, class statistics, splitting, and embedding-file IO."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (Dataset, SplitSpec, SyntheticSpec, compute_class_stats,
                          generate_synthetic, load_embeddings, save_embeddings,
                          split_dataset)
from longtail_lab.data import GROUP_LIMITS, synthetic_class_counts

from conftest import dataset_with_counts, traced_peak


def make_spec(**overrides) -> SyntheticSpec:
    base = dict(num_classes=3, feature_dim=4, head_count=100, imbalance_factor=100.0,
                class_separation=3.0, noise_sigma=1.0, seed=5)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticCounts:
    def test_two_class_endpoints(self):
        counts = synthetic_class_counts(make_spec(num_classes=2))
        assert counts.tolist() == [100, 1]

    def test_three_class_geometric(self):
        # 100 * 100^(-j/2) for j = 0, 1, 2
        counts = synthetic_class_counts(make_spec(num_classes=3))
        assert counts.tolist() == [100, 10, 1]

    def test_smallest_class_rounding_to_zero_rejected(self):
        spec = make_spec(head_count=200, imbalance_factor=199.0, num_classes=50)
        # intermediate classes stay >= 1 but rounding is what the guard checks
        counts = synthetic_class_counts(spec)
        assert counts.min() >= 1

    def test_invariant_head_over_imbalance(self):
        with pytest.raises(ValueError):
            make_spec(head_count=10, imbalance_factor=20.0)


class TestGenerateSynthetic:
    def test_deterministic_bytes(self):
        spec = make_spec()
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_counts_match_profile(self):
        ds = generate_synthetic(make_spec())
        assert np.bincount(ds.labels).tolist() == [100, 10, 1]

    def test_noise_stream_changes_draw_not_centroids(self):
        spec = make_spec(head_count=400)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec, noise_stream=1)
        assert a.features.shape == b.features.shape
        assert not np.array_equal(a.features, b.features)
        # Same centroids: per-class means agree far better than one sigma.
        for c in range(spec.num_classes):
            mu_a = a.features[a.labels == c].mean(axis=0)
            mu_b = b.features[b.labels == c].mean(axis=0)
            assert np.abs(mu_a - mu_b).max() < 5 * spec.noise_sigma

    def test_counts_override(self):
        ds = generate_synthetic(make_spec(), counts=np.array([7, 5, 3]))
        assert np.bincount(ds.labels).tolist() == [7, 5, 3]

    def test_seed_changes_dataset(self):
        assert not np.array_equal(generate_synthetic(make_spec()).features,
                                  generate_synthetic(make_spec(seed=6)).features)


class TestDatasetInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]),
                    class_names=("a",))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 2]),
                    class_names=("a", "b"))

    def test_digest_pinned(self):
        # The digest names a run's data; it must not move with how it is computed.
        ds = Dataset(features=np.arange(12, dtype=np.float64).reshape(4, 3) / 8,
                     labels=np.array([0, 1, 1, 2]), class_names=("a", "b", "c"),
                     background_class=2)
        pinned = "c71f2e5b7921970cd1c960773091f659fe1dd69a02263fc30591a7fe831305b0"
        assert ds.digest() == pinned
        ds.features = np.asfortranarray(ds.features)
        assert ds.digest() == pinned
        assert ds.with_background(None).digest() != pinned

    def test_rejects_bad_background(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((1, 2)), labels=np.array([0]),
                    class_names=("a",), background_class=3)


class TestClassStats:
    @pytest.mark.parametrize("count,expected", [(5, 1), (9, 1), (10, 2), (99, 2),
                                                (100, 3), (999, 3), (1000, 4), (50000, 4)])
    def test_decade_boundaries_half_open(self, count, expected):
        ds = dataset_with_counts([count, 20])
        stats = compute_class_stats(ds)
        assert stats.bins[0] == expected
        low, high = GROUP_LIMITS[expected - 1]
        assert low <= count < high

    def test_counts_sum_to_n(self, tiny_dataset):
        stats = compute_class_stats(tiny_dataset)
        assert stats.counts.sum() == tiny_dataset.num_instances

    def test_zero_count_class_rejected(self):
        ds = dataset_with_counts([4, 4])
        ds = Dataset(features=ds.features, labels=ds.labels,
                     class_names=("c0", "c1", "ghost"))
        with pytest.raises(ValueError, match="ghost"):
            compute_class_stats(ds)


class TestSplit:
    def test_partitions_disjoint_and_complete(self, tiny_dataset):
        spec = SplitSpec(seed=3)
        train, val, test = split_dataset(tiny_dataset, spec)
        total = train.num_instances + val.num_instances + test.num_instances
        assert total == tiny_dataset.num_instances

    def test_stratified_presence_for_three_plus(self):
        ds = dataset_with_counts([40, 9, 3])
        train, val, test = split_dataset(ds, SplitSpec(seed=1))
        for part in (train, val, test):
            present = set(np.unique(part.labels).tolist())
            assert present == {0, 1, 2}

    def test_deterministic(self, tiny_dataset):
        a = split_dataset(tiny_dataset, SplitSpec(seed=9))
        b = split_dataset(tiny_dataset, SplitSpec(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.9, val_fraction=0.2, test_fraction=0.1)

    def test_non_stratified_split(self):
        ds = dataset_with_counts([60, 40])
        train, val, test = split_dataset(ds, SplitSpec(seed=2, stratified=False))
        assert train.num_instances == 70
        assert val.num_instances == 15
        assert test.num_instances == 15

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=3, max_value=40), min_size=2, max_size=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_class_everywhere_property(self, counts, seed):
        ds = dataset_with_counts(counts, seed=1)
        train, val, test = split_dataset(ds, SplitSpec(seed=seed))
        for part in (train, val, test):
            assert set(np.unique(part.labels)) == set(range(len(counts)))


class TestEmbeddingIO:
    def test_round_trip_exact(self, tmp_path, tiny_dataset):
        path = tmp_path / "emb.txt"
        save_embeddings(tiny_dataset, str(path))
        loaded = load_embeddings(str(path))
        assert loaded.features.tobytes() == tiny_dataset.features.tobytes()
        assert loaded.labels.tolist() == tiny_dataset.labels.tolist()
        assert loaded.class_names == tiny_dataset.class_names

    def test_values_written_as_their_own_repr(self, tmp_path):
        values = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]
        ds = Dataset(np.array([values, values[::-1]]), np.array([1, 0]), ("a", "b"))
        path = tmp_path / "emb.txt"
        save_embeddings(ds, str(path))
        rows = [f"{int(label)}," + ",".join(repr(float(v)) for v in row)
                for label, row in zip(ds.labels, ds.features)]
        assert path.read_text() == "\n".join(["C=2 D=5", "a,b", *rows]) + "\n"
        assert rows[0] == "1,-0.0,5e-324,1e+16,1e-05,1.7976931348623157e+308"

    def test_three_rows_wellformed(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,2.0\n1,0.5,0.25\n0,-1.0,3.5\n")
        ds = load_embeddings(str(path))
        assert ds.num_instances == 3
        assert ds.num_classes == 2

    def test_crop_field_accepted_and_ignored(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,2.0,crop=1\n1,0.5,0.25,crop=0\n")
        ds = load_embeddings(str(path))
        assert ds.num_instances == 2

    def test_label_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=5 D=1\na,b,c,d,e\n0,1.0\n7,2.0\n")
        with pytest.raises(ValueError, match="line 4"):
            load_embeddings(str(path))

    def test_empty_feature_section(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n")
        with pytest.raises(ValueError, match="no instances"):
            load_embeddings(str(path))

    def test_nonfinite_feature_names_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,inf\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(str(path))

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=3\ncat,dog\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("classes=2 dims=2\ncat,dog\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings(str(path))


VALID_LINES = ["C=3 D=2", "cat,dog,eel", "0,1.0,2.0", "1,0.5,0.25", "2,-1.0,3.5", "1,4e-3,7"]

# Ways to corrupt one data line, each a function of the line's text and a draw.
CORRUPTIONS = {
    "underscore": lambda line, pos: line[:pos] + "_" + line[pos:],
    "non_ascii": lambda line, pos: line[:pos] + "¹" + line[pos:],
    "extra_field": lambda line, pos: line + ",1.0",
    "missing_field": lambda line, pos: line.rsplit(",", 1)[0],
    "signed_label": lambda line, pos: "+" + line,
    "spaced_label": lambda line, pos: " " + line,
    "label_too_large": lambda line, pos: "3" + line[line.index(","):],
    "not_a_number": lambda line, pos: line.rsplit(",", 1)[0] + ",1.0.0",
    "empty_feature": lambda line, pos: line.rsplit(",", 1)[0] + ",",
    "nan_feature": lambda line, pos: line.rsplit(",", 1)[0] + ",nan",
    "bad_crop": lambda line, pos: line + ",crop=2",
}


@pytest.fixture(scope="module")
def embed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("embeddings")


def embeddings_rejected(path, line: int, *fragments) -> None:
    """load_embeddings raises ValueError starting with the path and naming the line."""
    with pytest.raises(ValueError) as info:
        load_embeddings(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: line {line}:"), message
    for text in fragments:
        assert text in message


class TestEmbeddingRejects:
    @pytest.mark.parametrize("lines, line, fragment", [
        (["C=2 D=2", "cat,cat", "0,1.0,2.0"], 2, "duplicate class name 'cat'"),
        (["C=2 D=2", "cat,dog", "0,1_0,2.0"], 3, "'_'"),
        (["C=2 D=2", "cat,dog", "0,1.0,2.0", "+1,1.0,2.0"], 4, "label '+1'"),
        (["C=2 D=2", "cat,dog", "0,1.0,2.0", "-1,1.0,2.0"], 4, "label '-1'"),
        (["C=2 D=2", "cat,dog", "1,1.0,2.0", "١,1.0,2.0"], 4, "ASCII"),
        (["C=2 D=2"], 1, "missing header"),
    ], ids=["duplicate_names", "underscore_feature", "plus_label", "negative_label",
            "arabic_digit_label", "no_name_line"])
    def test_bad_content_names_path_and_line(self, tmp_path, lines, line, fragment):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        embeddings_rejected(path, line, fragment)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"C=2 D=2\ncat,dog\n0,1.0,2.0\n1,\xff.5,0.25\n")
        embeddings_rejected(path, 4, "not UTF-8")

    def test_no_instances_names_path(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n")
        with pytest.raises(ValueError) as info:
            load_embeddings(str(path))
        assert str(info.value) == f"{path}: no instances"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_corrupted_data_line_named(self, embed_dir, data):
        path = embed_dir / "corrupt.txt"
        path.write_text("\n".join(VALID_LINES) + "\n", encoding="utf-8")
        assert load_embeddings(str(path)).num_instances == len(VALID_LINES) - 2
        index = data.draw(st.integers(2, len(VALID_LINES) - 1), label="line index")
        lines = list(VALID_LINES)
        if data.draw(st.booleans(), label="invalid UTF-8"):
            encoded = [line.encode("utf-8") for line in lines]
            pos = data.draw(st.integers(0, len(encoded[index])), label="byte")
            encoded[index] = encoded[index][:pos] + b"\xc3" + encoded[index][pos:]
            path.write_bytes(b"\n".join(encoded) + b"\n")
        else:
            kind = data.draw(st.sampled_from(sorted(CORRUPTIONS)), label="corruption")
            pos = data.draw(st.integers(0, len(lines[index])), label="position")
            lines[index] = CORRUPTIONS[kind](lines[index], pos)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        embeddings_rejected(path, index + 1)


FINITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestEmbeddingLines:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_then_load_is_bit_exact(self, embed_dir, data):
        num_classes = data.draw(st.integers(1, 4), label="classes")
        n = data.draw(st.integers(1, 12), label="rows")
        dim = data.draw(st.integers(1, 5), label="dim")
        values = data.draw(st.lists(FINITE_FLOATS, min_size=n * dim, max_size=n * dim))
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        ds = Dataset(np.array(values).reshape(n, dim), np.array(labels),
                     tuple(f"c{j}" for j in range(num_classes)))
        path = embed_dir / "round_trip.txt"
        save_embeddings(ds, str(path))
        lines = path.read_text().splitlines()
        crops = data.draw(st.lists(st.sampled_from(["", ",crop=0", ",crop=1"]),
                                   min_size=n, max_size=n), label="crop flags")
        lines[2:] = [line + crop for line, crop in zip(lines[2:], crops)]
        blanks = data.draw(st.integers(0, 3), label="trailing blank lines")
        path.write_text("\n".join(lines) + "\n" * (1 + blanks))
        loaded = load_embeddings(str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tobytes() == ds.labels.tobytes()
        assert loaded.class_names == ds.class_names

    def test_blank_line_between_rows_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,2.0\n\n1,0.5,0.25\n\n")
        embeddings_rejected(path, 4, "got 1 fields")

    def test_missing_final_newline_accepted(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,2.0\n1,0.5,0.25")
        ds = load_embeddings(str(path))
        assert ds.features.tolist() == [[1.0, 2.0], [0.5, 0.25]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("first, second, line, fragment", [
        (b"0,1.0,inf", b"1,\xff.5,0.25", 3, "non-finite"),
        (b"1,\xff.5,0.25", b"0,1.0,inf", 3, "not UTF-8 text (byte 18)"),
        (b"7,1.0,2.0", b"0,1_0,2.0", 3, "label 7"),
        (b"0,1.0,2.0,crop=2", b"+1,1.0,2.0", 3, "crop flag"),
    ], ids=["nonfinite_then_bad_byte", "bad_byte_then_nonfinite", "label_then_underscore",
            "crop_then_signed_label"])
    def test_two_faults_name_the_first_line(self, tmp_path, first, second, line, fragment):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"C=2 D=2\ncat,dog\n" + first + b"\n0,0.5,0.5\n" + second + b"\n")
        embeddings_rejected(path, line, fragment)

    def test_non_utf8_class_name_counts_bytes_from_file_start(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"C=2 D=2\ncat,d\xc3g\n0,1.0,2.0\n")
        embeddings_rejected(path, 2, "not UTF-8 text (byte 13)")


@pytest.fixture(scope="module")
def wide_embedding_file(embed_dir):
    """About 20,000 rows of 32 features, written by save_embeddings."""
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((20_000, 32)), rng.integers(0, 5, 20_000),
                 tuple("abcde"))
    path = embed_dir / "wide.txt"
    save_embeddings(ds, str(path))
    return path, ds


class TestMemory:
    def test_load_holds_about_one_matrix(self, wide_embedding_file):
        path, ds = wide_embedding_file
        loaded, peak = traced_peak(load_embeddings, str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert peak <= 2 * loaded.features.nbytes, peak / loaded.features.nbytes

    def test_finiteness_check_holds_a_block_of_flags(self):
        features = np.random.default_rng(0).standard_normal((20_000, 32))
        labels = np.zeros(20_000, dtype=np.int64)
        ds, peak = traced_peak(Dataset, features, labels, ("a",))
        assert ds.features is features
        assert peak <= features.nbytes / 16, peak / features.nbytes

    def test_finiteness_check_reaches_the_last_block(self):
        features = np.zeros((10_000, 2))
        features[-1, 1] = np.nan
        with pytest.raises(ValueError, match="features contain non-finite values"):
            Dataset(features, np.zeros(10_000, dtype=np.int64), ("a",))

    def test_generate_draws_into_one_matrix(self):
        spec = make_spec(num_classes=20, feature_dim=32)
        ds, peak = traced_peak(generate_synthetic, spec, np.full(20, 1_000))
        assert ds.features.shape == (20_000, 32)
        assert peak <= 1.5 * ds.features.nbytes, peak / ds.features.nbytes
