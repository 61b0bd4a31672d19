"""Evaluation metrics against brute-force oracles, comparison-table ranking,
and the report reader."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import (compare_methods, compute_class_stats, evaluate,
                          load_report, save_report)
from longtail_lab.metrics import report_from_json, report_to_json

from conftest import dataset_with_counts


def bruteforce_f1(true, preds, num_classes):
    """Per-class F1 from first principles, 0/0 convention mapped to 0."""
    out = []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(true, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, preds) if t == c and p != c)
        if tp + fp == 0 or tp + fn == 0:
            out.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        out.append(0.0 if precision + recall == 0 else
                   2 * precision * recall / (precision + recall))
    return out


def stats_for(counts):
    return compute_class_stats(dataset_with_counts(counts))


class TestEvaluate:
    def test_all_correct(self):
        stats = stats_for([500, 50, 5])
        true = np.array([0, 0, 1, 2, 2])
        report = evaluate(true, true, stats)
        assert report.acc_all == 1.0
        assert report.macro_f1 == 1.0
        assert all(v == 1.0 for v in report.acc_bins.values())

    def test_hand_confusion_example(self):
        # true/pred chosen so confusion = [[1, 0], [1, 1]]
        stats = stats_for([10, 10])
        report = evaluate(predictions=[0, 0, 1], true_labels=[0, 1, 1], stats=stats)
        assert report.confusion.tolist() == [[1, 0], [1, 1]]
        np.testing.assert_allclose(report.per_class_f1, [2 / 3, 2 / 3])
        assert report.macro_f1 == pytest.approx(2 / 3)

    def test_500_count_class_lands_in_bin3(self):
        stats = stats_for([500, 5])
        report = evaluate([0, 0], [0, 0], stats)
        assert stats.bins[0] == 3
        assert 3 in report.acc_bins

    def test_absent_bins_omitted(self):
        stats = stats_for([500, 5])
        report = evaluate([0], [0], stats)  # no bin-1 instances in this test set
        assert set(report.acc_bins) == {3}

    def test_acc_bins_use_true_class_bin(self):
        stats = stats_for([500, 5])
        # one bin-3 instance misclassified into the bin-1 class
        report = evaluate(predictions=[1], true_labels=[0], stats=stats)
        assert report.acc_bins == {3: 0.0}

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            num_classes = int(rng.integers(2, 8))
            counts = rng.integers(1, 2000, size=num_classes)
            stats = stats_for(counts.tolist())
            n = int(rng.integers(1, 60))
            true = rng.integers(0, num_classes, size=n)
            preds = rng.integers(0, num_classes, size=n)
            report = evaluate(preds, true, stats)
            expected_f1 = bruteforce_f1(true.tolist(), preds.tolist(), num_classes)
            np.testing.assert_allclose(report.per_class_f1, expected_f1, atol=1e-10)
            assert report.macro_f1 == pytest.approx(float(np.mean(expected_f1)), abs=1e-10)
            assert report.acc_all == pytest.approx(float((preds == true).mean()), abs=1e-12)

    def test_weighted_bin_recombination(self):
        rng = np.random.default_rng(5)
        stats = stats_for([1500, 600, 45, 3])
        true = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        report = evaluate(preds, true, stats)
        weighted = 0.0
        for b, acc in report.acc_bins.items():
            weight = (stats.bins[true] == b).sum() / true.size
            weighted += weight * acc
        assert report.acc_all == pytest.approx(weighted, abs=1e-12)

    def test_macro_f1_invariant_to_relabeling(self):
        rng = np.random.default_rng(6)
        counts = [300, 40, 7]
        stats = stats_for(counts)
        true = rng.integers(0, 3, size=90)
        preds = rng.integers(0, 3, size=90)
        base = evaluate(preds, true, stats)
        perm = np.array([2, 0, 1])
        stats_p = stats_for([counts[i] for i in np.argsort(perm)])
        relabeled = evaluate(perm[preds], perm[true], stats_p)
        assert relabeled.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)

    def test_f1_bounds_and_confusion_sums(self):
        rng = np.random.default_rng(7)
        stats = stats_for([80, 20, 4])
        true = rng.integers(0, 3, size=150)
        preds = rng.integers(0, 3, size=150)
        report = evaluate(preds, true, stats)
        assert ((report.per_class_f1 >= 0) & (report.per_class_f1 <= 1)).all()
        assert report.macro_f1 <= report.per_class_f1.max() + 1e-15
        np.testing.assert_array_equal(report.confusion.sum(axis=1),
                                      np.bincount(true, minlength=3))
        np.testing.assert_array_equal(report.confusion.sum(axis=0),
                                      np.bincount(preds, minlength=3))

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([], [], stats_for([5, 5]))

    @pytest.mark.parametrize("name", ["predictions", "labels"])
    def test_value_equal_to_the_class_count_rejected(self, name):
        values = {"predictions": [0, 1, 2], "labels": [2, 1, 0]}
        values[name] = [0, 1, 3]
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [0, 3)")):
            evaluate(values["predictions"], values["labels"], stats_for([5, 5, 5]))

    def test_report_json_round_trip(self, tmp_path):
        stats = stats_for([500, 50, 5])
        rng = np.random.default_rng(2)
        true = rng.integers(0, 3, size=40)
        preds = rng.integers(0, 3, size=40)
        report = evaluate(preds, true, stats, method="baseline", seed=9,
                          config_digest="cfg", dataset_digest="data",
                          class_names=("a", "b", "c"))
        path = tmp_path / "r.json"
        save_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded.acc_all == report.acc_all
        assert loaded.acc_bins == report.acc_bins
        np.testing.assert_array_equal(loaded.per_class_f1, report.per_class_f1)
        np.testing.assert_array_equal(loaded.confusion, report.confusion)
        assert loaded.class_names == ("a", "b", "c")
        assert report_to_json(loaded) == report_to_json(report)
        assert report_from_json(report_to_json(report)).macro_f1 == report.macro_f1


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    stats = stats_for([1500, 600, 45, 3])
    rng = np.random.default_rng(3)
    true = rng.integers(0, 4, size=60)
    preds = np.where(rng.random(60) < 0.7, true, rng.integers(0, 4, size=60))
    report = evaluate(preds, true, stats, method="ssb", seed=4, config_digest="cfg",
                      dataset_digest="data", class_names=("a", "b", "c", "d"))
    path = tmp_path_factory.mktemp("report") / "ssb.json"
    save_report(report, str(path))
    return path


def report_rejected(path, *fragments) -> str:
    """load_report raises ValueError whose message, returned, names the path and each fragment."""
    with pytest.raises(ValueError) as info:
        load_report(str(path))
    for text in (str(path),) + fragments:
        assert text in str(info.value)
    return str(info.value)


def write_edited(report_file, edit):
    stored = json.loads(report_file.read_text(encoding="utf-8"))
    edit(stored)
    path = report_file.with_name("edited.json")
    path.write_text(json.dumps(stored, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


# Fields a report derives from its confusion matrix and train counts.
DERIVED = ("acc_all", "acc_bins", "macro_f1", "per_class_f1", "class_bins")


class TestCorruptReport:
    @pytest.mark.parametrize("edit, fragment", [
        (lambda r: r.update(acc_all=0.99), "'acc_all'"),
        (lambda r: r["acc_bins"].update({"1": 1.0}), "'acc_bins.1'"),
        (lambda r: r.update(confusion=5), "'confusion'"),
        (lambda r: r.update(confusion=[[1, 2], [3]]), "'confusion'"),
        (lambda r: r["confusion"][1].__setitem__(0, 1.5), "'confusion[1][0]'"),
        (lambda r: r.update(train_counts=r["train_counts"][:3]), "train_counts"),
        (lambda r: r.update(seed=True), "'seed'"),
        (lambda r: r.update(format="longtail-lab-manifest"), "'format'"),
        (lambda r: r.update(version=2), "'version'"),
    ], ids=["acc_all_edited", "acc_bin_edited", "confusion_scalar", "confusion_ragged",
            "confusion_item_float", "train_counts_cut", "seed_bool", "wrong_format",
            "wrong_version"])
    def test_bad_field_named(self, report_file, edit, fragment):
        report_rejected(write_edited(report_file, edit), fragment)

    def test_every_dropped_field_named(self, report_file):
        for key in json.loads(report_file.read_text(encoding="utf-8")):
            report_rejected(write_edited(report_file, lambda r: r.pop(key)), f"'{key}'")

    def test_deeply_nested_text_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        report_rejected(path, "report is not valid JSON", "recursion")

    def test_reformatted_text_rejected(self, report_file):
        path = report_file.with_name("compact.json")
        path.write_text(json.dumps(json.loads(report_file.read_text(encoding="utf-8"))),
                        encoding="utf-8")
        report_rejected(path, "whitespace")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_truncation_rejected(self, report_file, data):
        text = report_file.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(text) - 1), label="cut")
        path = report_file.with_name("truncated.json")
        path.write_bytes(text[:cut])
        report_rejected(path)

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(DERIVED),
           value=st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                              | st.text(max_size=3),
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                              max_leaves=6))
    def test_any_derived_field_edit_named(self, report_file, key, value):
        stored = json.loads(report_file.read_text(encoding="utf-8"))
        if json.dumps(value, sort_keys=True) == json.dumps(stored[key], sort_keys=True):
            return
        message = report_rejected(write_edited(report_file, lambda r: r.update({key: value})))
        # The field is the key or one below it, quoted as repr quotes it: a name
        # holding ' comes in double quotes, as in "acc_bins.'".
        assert re.search(rf"""field (['"]){key}(\.|\1)""", message), message


def fake_report(method, acc_all, acc_bins, macro_f1, digest="shared"):
    stats = stats_for([500, 5])
    report = evaluate([0, 1], [0, 1], stats, method=method, dataset_digest=digest)
    report.acc_all = acc_all
    report.acc_bins = acc_bins
    report.macro_f1 = macro_f1
    return report


class TestCompareMethods:
    def test_single_report_unflagged(self):
        table = compare_methods([fake_report("baseline", 0.8, {1: 0.2, 3: 0.9}, 0.5)])
        assert table.methods == ("baseline",)
        assert all(flag == "" for flag in table.flags[0].values())

    def test_two_reports_exactly_one_best(self):
        table = compare_methods([
            fake_report("baseline", 0.80, {3: 0.9}, 0.5),
            fake_report("sqrt_samp", 0.75, {3: 0.8}, 0.6),
        ])
        best_flags = [row["acc_all"] for row in table.flags]
        assert best_flags.count("best") == 1
        assert best_flags.count("second") == 1
        assert table.flags[0]["acc_all"] == "best"
        assert table.flags[1]["macro_f1"] == "best"

    def test_flags_agree_with_independent_sort(self):
        rng = np.random.default_rng(0)
        reports = [fake_report(f"m{i}", float(rng.random()), {3: float(rng.random())},
                               float(rng.random())) for i in range(5)]
        table = compare_methods(reports)
        for col in table.columns:
            values = [row[col] for row in table.values]
            ranked = sorted(set(values), reverse=True)
            for row_values, row_flags in zip(table.values, table.flags):
                value = row_values[col]
                if value == ranked[0]:
                    assert row_flags[col] == "best"
                elif len(ranked) > 1 and value == ranked[1]:
                    assert row_flags[col] == "second"
                else:
                    assert row_flags[col] == ""

    def test_mismatched_digests_rejected(self):
        with pytest.raises(ValueError, match="digest"):
            compare_methods([fake_report("a", 0.5, {3: 0.5}, 0.5, digest="x"),
                             fake_report("b", 0.5, {3: 0.5}, 0.5, digest="y")])

    def test_absent_bin_renders_empty(self):
        table = compare_methods([
            fake_report("a", 0.8, {3: 0.9}, 0.5),
            fake_report("b", 0.7, {1: 0.1, 3: 0.8}, 0.4),
        ])
        assert "acc_bin1" in table.columns
        assert table.values[0]["acc_bin1"] is None
        csv = table.to_csv()
        assert csv.splitlines()[0].startswith("method,acc_bin1,acc_bin3,acc_all,macro_f1")
        text = table.to_text()
        assert "*" in text and "best" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_methods([])
