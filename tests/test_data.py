"""Dataset generation, class statistics, splitting, and embedding-file IO."""
import logging
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (Dataset, SplitSpec, SyntheticSpec, compute_class_stats,
                          generate_synthetic, load_embeddings, save_embeddings,
                          split_dataset)
from longtail_lab import data as data_module
from longtail_lab.data import (GROUP_LIMITS, SIDECAR_SUFFIX, FreshSplit, block_slices,
                               synthetic_class_counts)

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

    @pytest.mark.parametrize("counts", [[7, 0, 3], [7, 5]], ids=["empty_class", "short"])
    def test_bad_counts_override_rejected(self, counts):
        with pytest.raises(ValueError, match="every class at least one instance"):
            generate_synthetic(make_spec(), counts=np.array(counts))

    def test_seed_changes_dataset(self):
        assert not np.array_equal(generate_synthetic(make_spec()).features,
                                  generate_synthetic(make_spec(seed=6)).features)


class TestFreshSplit:
    """A fresh split draws ``generate_synthetic``'s rows a block at a time."""

    # Class boundaries at rows 700, 1,600 and 3,100 fall inside the four
    # near-equal blocks (775 or 776 rows) that ``row_blocks`` reads, so
    # classes straddle them.
    COUNTS = np.array([700, 900, 1500, 3])

    @pytest.mark.parametrize("background", [None, 2])
    def test_digest_equals_the_whole_draws(self, background):
        spec = make_spec(num_classes=4)
        whole = generate_synthetic(spec, self.COUNTS, noise_stream=2)
        split = FreshSplit(spec, self.COUNTS, 2, background)
        assert split.digest() == whole.with_background(background).digest()
        assert split.labels.tobytes() == whole.labels.tobytes()
        assert split.class_names == whole.class_names

    @settings(max_examples=30, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=3103), max_size=6))
    def test_blocks_hold_the_bytes_of_one_whole_draw(self, cuts):
        spec = make_spec(num_classes=4)
        whole = generate_synthetic(spec, self.COUNTS, noise_stream=1).features
        edges = [0, *sorted(cuts), len(whole)]
        blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        drawn = list(FreshSplit(spec, self.COUNTS, 1)._draw(blocks))
        assert [block.tobytes() for block in drawn] == [whole[rows].tobytes() for rows in blocks]

    def test_row_blocks_are_the_block_slices(self):
        spec = make_spec(num_classes=4)
        whole = generate_synthetic(spec, self.COUNTS, noise_stream=1)
        pairs = list(FreshSplit(spec, self.COUNTS, 1).row_blocks())
        assert [rows for rows, _ in pairs] == block_slices(whole.num_instances)
        assert [(rows, x.tobytes()) for rows, x in whole.row_blocks()] == [
            (rows, x.tobytes()) for rows, x in pairs]

    def test_nonfinite_draw_rejected_by_the_digest(self):
        split = FreshSplit(make_spec(num_classes=4, noise_sigma=1e308), self.COUNTS, 1)
        # The product overflows to inf, which numpy warns of first.
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^features row 0 is not finite$"):
            split.digest()


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

    @pytest.mark.parametrize("names", [("a\x1fb", "c"), ("a", "b\x1fc")])
    def test_rejects_the_digest_separator_in_a_class_name(self, names):
        # The digest joins the names with it: these two would digest alike.
        with pytest.raises(ValueError) as info:
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]), class_names=names)
        bad = next(n for n in names if "\x1f" in n)
        assert str(info.value) == f"class name {bad!r} holds '\\x1f', the digest's separator"

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
        (["C=2 D=2", "cat\x1fdog,cow", "0,1.0,2.0"], 2, "class name 'cat\\x1fdog' holds"),
    ], ids=["duplicate_names", "underscore_feature", "plus_label", "negative_label",
            "arabic_digit_label", "no_name_line", "separator_in_name"])
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

# Class names: any text without a comma, a newline or the digest's separator
# "\x1f", plus the blank, repeated, separator-holding and unencodable names that
# save_embeddings must refuse.
TEXT_NAMES = st.text(st.characters(blacklist_characters=",\n\x1f"), max_size=4)
CLASS_NAMES = st.one_of(st.sampled_from(["a", " ", "", "a\x1fb", "\ud800"]), TEXT_NAMES)


def name_fault(names) -> str | None:
    """The loader's complaint about ``names``, or None if it accepts them."""
    if any(not n.strip() for n in names):
        return "empty class name"
    if len(set(names)) != len(names):
        return "duplicate class name"
    if any("\x1f" in n for n in names):
        return "the digest's separator"
    if any(n != n.encode("utf-8", "replace").decode("utf-8") for n in names):
        return "is not UTF-8 text"
    return None


def draw_dataset(data, names=None, unique: bool = False) -> Dataset:
    """A dataset of up to 12 rows; class names c0, c1, ... unless drawn from
    ``names``, all different if ``unique``."""
    num_classes = data.draw(st.integers(1, 4), label="classes")
    n = data.draw(st.integers(1, 12), label="rows")
    dim = data.draw(st.integers(1, 5), label="dim")
    values = data.draw(st.lists(FINITE_FLOATS, min_size=n * dim, max_size=n * dim))
    labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    ds = Dataset(np.array(values).reshape(n, dim), np.array(labels),
                 tuple(f"c{j}" for j in range(num_classes)))
    if names is not None:
        # Set after construction, so a name Dataset refuses reaches save_embeddings.
        ds.class_names = tuple(data.draw(st.lists(names, min_size=num_classes,
                                                  max_size=num_classes, unique=unique),
                                         label="names"))
    return ds


def write_embedding_file(data, ds: Dataset, path) -> None:
    """Save ``ds`` to ``path``, then add drawn crop flags and trailing blank lines."""
    save_embeddings(ds, str(path))
    lines = path.read_bytes().decode("utf-8").split("\n")[:-1]  # names may hold a "\r"
    crops = data.draw(st.lists(st.sampled_from(["", ",crop=0", ",crop=1"]),
                               min_size=ds.num_instances, max_size=ds.num_instances),
                      label="crop flags")
    lines[2:] = [line + crop for line, crop in zip(lines[2:], crops)]
    blanks = data.draw(st.integers(0, 3), label="trailing blank lines")
    path.write_bytes(("\n".join(lines) + "\n" * (1 + blanks)).encode("utf-8"))


class TestEmbeddingLines:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_then_load_is_bit_exact(self, embed_dir, data):
        ds = draw_dataset(data, CLASS_NAMES)
        path = embed_dir / "round_trip.txt"
        path.unlink(missing_ok=True)
        fault = name_fault(ds.class_names)
        if fault is not None:
            with pytest.raises(ValueError, match=fault):
                save_embeddings(ds, str(path))
            assert not path.exists() and list(embed_dir.glob("*.tmp")) == []
            return
        write_embedding_file(data, ds, path)
        loaded = load_embeddings(str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tobytes() == ds.labels.tobytes()
        assert loaded.class_names == ds.class_names

    @pytest.mark.parametrize("names, message", [
        (("a", "a"), "duplicate class name 'a'"),
        (("a", " "), "empty class name"),
        (("a", ""), "empty class name"),
        (("a", "b\ud800"), "class name 'b\\ud800' is not UTF-8 text"),
    ])
    def test_save_refuses_names_the_loader_rejects(self, tmp_path, names, message):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), names)
        with pytest.raises(ValueError) as info:
            save_embeddings(ds, str(tmp_path / "emb.txt"))
        assert str(info.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_the_digest_separator(self, tmp_path):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("a", "b"))
        ds.class_names = ("a", "b\x1fc")  # Dataset itself refuses such a name
        with pytest.raises(ValueError, match="class name 'b\\\\x1fc' holds"):
            save_embeddings(ds, str(tmp_path / "emb.txt"))
        assert list(tmp_path.iterdir()) == []

    def test_save_through_a_link_replaces_its_target(self, tmp_path):
        (tmp_path / "emb.txt").write_text("old")
        (tmp_path / "link.txt").symlink_to("emb.txt")
        save_embeddings(Dataset(np.zeros((1, 1)), np.array([0]), ("a",)),
                        str(tmp_path / "link.txt"))
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "emb.txt").read_text() == "C=1 D=1\na\n0,0.0\n"

    def test_interrupted_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("old")

        class InterruptedLabels:
            def tolist(self):
                yield 0
                raise KeyboardInterrupt

        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("a", "b"))
        ds.labels = InterruptedLabels()
        with pytest.raises(KeyboardInterrupt):
            save_embeddings(ds, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]
        assert path.read_text() == "old"

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


def sidecar_of(path) -> Path:
    return Path(f"{path}{SIDECAR_SUFFIX}")


def never_parse(monkeypatch) -> None:
    """Make any parse of an embedding file fail the test."""
    def parse(lines):
        raise AssertionError("the embedding file was parsed")
    monkeypatch.setattr(data_module, "_parse_embeddings", parse)


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return (a.features.tobytes() == b.features.tobytes()
            and a.labels.tobytes() == b.labels.tobytes()
            and a.class_names == b.class_names and a.digest() == b.digest())


SMALL_FILE = "C=2 D=2\ncat,dog\n0,1.0,2.0\n1,0.5,0.25\n0,-1.0,3.5\n"


class TestEmbeddingCache:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_second_load_equals_first(self, embed_dir, data):
        path = embed_dir / "cached.txt"
        ds = draw_dataset(data, TEXT_NAMES.filter(str.strip), unique=True)
        write_embedding_file(data, ds, path)
        first = load_embeddings(str(path))
        assert sidecar_of(path).is_file()
        assert same_dataset(load_embeddings(str(path)), first)

    def test_hit_never_parses(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text(SMALL_FILE)
        first = load_embeddings(str(path))
        never_parse(monkeypatch)
        assert same_dataset(load_embeddings(str(path)), first)

    def test_same_length_edit_reparses_and_replaces(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text(SMALL_FILE)
        load_embeddings(str(path))
        stale = sidecar_of(path).read_bytes()
        path.write_text(SMALL_FILE.replace("0.25", "0.75"))
        assert load_embeddings(str(path)).features[1].tolist() == [0.5, 0.75]
        assert sidecar_of(path).read_bytes() != stale
        never_parse(monkeypatch)
        assert load_embeddings(str(path)).features[1].tolist() == [0.5, 0.75]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_damaged_sidecar_gives_the_parse(self, embed_dir, data):
        path = embed_dir / "damaged.txt"
        if not path.exists():
            path.write_text(SMALL_FILE)
        expected = load_embeddings(str(path))
        whole = sidecar_of(path).read_bytes()
        pos = data.draw(st.integers(0, len(whole) - 1), label="position")
        kind = data.draw(st.sampled_from(["cut", "flip", "extend"]), label="damage")
        if kind == "cut":
            damaged = whole[:pos]
        elif kind == "flip":
            damaged = (whole[:pos] + bytes([whole[pos] ^ data.draw(st.integers(1, 255))])
                       + whole[pos + 1:])
        else:
            damaged = whole + data.draw(st.binary(min_size=1, max_size=16), label="tail")
        sidecar_of(path).write_bytes(damaged)
        assert same_dataset(load_embeddings(str(path)), expected)
        # A damaged sidecar is rewritten; a file without the magic is not ours to replace.
        ours = damaged.startswith(b"LTLABEMB1\n")
        assert sidecar_of(path).read_bytes() == (whole if ours else damaged)
        sidecar_of(path).write_bytes(whole)

    def test_faulty_file_raises_alike_and_is_not_cached(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("C=2 D=2\ncat,dog\n0,1.0,2.0\n1,0.5\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                load_embeddings(str(path))
            messages.append(str(info.value))
        assert messages == [f"{path}: line 4: expected label plus 2 features, got 2 fields"] * 2
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_returns_the_dataset(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "emb.txt"
        path.write_text(SMALL_FILE)

        def replace(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "replace", replace)
        with caplog.at_level(logging.INFO, logger="longtail_lab.data"):
            ds = load_embeddings(str(path))
        assert ds.features.tolist() == [[1.0, 2.0], [0.5, 0.25], [-1.0, 3.5]]
        assert list(tmp_path.iterdir()) == [path]
        assert "embedding cache not written" in caplog.text

    @pytest.mark.parametrize("kind", ["file", "fifo", "directory"])
    def test_foreign_file_left_untouched(self, tmp_path, kind):
        path = tmp_path / "emb.txt"
        path.write_text(SMALL_FILE)
        foreign = sidecar_of(path)
        if kind == "file":
            foreign.write_bytes(b"LTLABEMB notes kept by someone else")
        elif kind == "fifo":
            os.mkfifo(foreign)
        else:
            foreign.mkdir()
        for _ in range(2):
            assert load_embeddings(str(path)).num_instances == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", foreign.name]
        if kind == "file":
            assert foreign.read_bytes() == b"LTLABEMB notes kept by someone else"

    def test_non_regular_file_is_parsed_and_not_cached(self, tmp_path):
        path = tmp_path / "emb.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(SMALL_FILE,), daemon=True)
        writer.start()
        ds = load_embeddings(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert ds.num_instances == 3
        assert list(tmp_path.iterdir()) == [path]


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
        sidecar_of(path).unlink(missing_ok=True)  # a parse, which also writes the sidecar
        loaded, peak = traced_peak(load_embeddings, str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert peak <= 2 * loaded.features.nbytes, peak / loaded.features.nbytes

    def test_cache_hit_holds_one_matrix(self, wide_embedding_file, monkeypatch):
        path, ds = wide_embedding_file
        load_embeddings(str(path))
        never_parse(monkeypatch)
        loaded, peak = traced_peak(load_embeddings, str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert peak <= 1.1 * loaded.features.nbytes, peak / loaded.features.nbytes

    def test_finiteness_check_holds_a_block_of_flags(self):
        features = np.random.default_rng(0).standard_normal((20_000, 32))
        labels = np.zeros(20_000, dtype=np.int64)
        ds, peak = traced_peak(Dataset, features, labels, ("a",))
        assert ds.features is features
        assert peak <= features.nbytes / 16, peak / features.nbytes

    def test_finiteness_check_reaches_the_last_block(self):
        features = np.zeros((10_000, 2))
        features[-1, 1] = np.nan
        with pytest.raises(ValueError, match="^features row 9999 is not finite$"):
            Dataset(features, np.zeros(10_000, dtype=np.int64), ("a",))

    def test_generate_draws_into_one_matrix(self):
        spec = make_spec(num_classes=20, feature_dim=32)
        ds, peak = traced_peak(generate_synthetic, spec, np.full(20, 1_000))
        assert ds.features.shape == (20_000, 32)
        assert peak <= 1.5 * ds.features.nbytes, peak / ds.features.nbytes
