"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from longtail_lab import (ClassifierHead, LossSpec, OptimSpec, bags_infer, batch_loss,
                          compute_class_stats, evaluate,
                          build_group_layout, load_model, load_report, lr_at,
                          make_epoch_stream, make_sampler, predict,
                          run_experiment, sampling_weights, softmax,
                          ssb_aggregate, train_stage1, train_stage2)
from longtail_lab.experiment import config_from_dict
from longtail_lab.heads import HEAD_GROUP
from longtail_lab.model import scores as model_scores

from conftest import (cb_focal_term, dataset_with_counts, finite_difference_grad,
                      max_relative_error)

ATOL = 1e-10


def announce(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {status} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


# -- criterion 1: formula oracles -------------------------------------------


def _oracle_sampling_weights(counts, q):
    total = sum(c ** q for c in counts)
    return [c ** q / total for c in counts]


def _oracle_softmax(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def _oracle_bags_infer(group_of, members_by_group, background_class,
                       group_logits, background_logits):
    num_classes = len(group_of)
    scores = [0.0] * num_classes
    for k, logits in group_logits.items():
        probs = _oracle_softmax(list(logits))
        for slot, cls in enumerate(members_by_group[k]):
            scores[cls] = probs[slot]
    if background_logits is not None:
        bg_probs = _oracle_softmax(list(background_logits))
        for c in range(num_classes):
            scores[c] = bg_probs[1] if c == background_class else scores[c] * bg_probs[0]
    return scores


def _oracle_evaluate(true, preds, counts):
    def decade(n):
        return 1 + (n >= 10) + (n >= 100) + (n >= 1000)

    num_classes = len(counts)
    acc_all = sum(int(t == p) for t, p in zip(true, preds)) / len(true)
    acc_bins = {}
    for b in range(1, 5):
        pairs = [(t, p) for t, p in zip(true, preds) if decade(counts[t]) == b]
        if pairs:
            acc_bins[b] = sum(int(t == p) for t, p in pairs) / len(pairs)
    f1s = []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(true, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, preds) if t == c and p != c)
        f1s.append(0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
    return acc_all, acc_bins, f1s


def test_criterion_1_formula_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0

    for _ in range(120):
        counts = rng.integers(1, 5000, size=rng.integers(1, 9)).tolist()
        q = float(rng.uniform(0, 1))
        got = sampling_weights(counts, q)
        worst = max(worst, float(np.abs(got - _oracle_sampling_weights(counts, q)).max()))

    for _ in range(120):
        p = float(rng.uniform(1e-9, 1.0))
        gamma = float(rng.uniform(0, 6))
        expected = (1 - p) ** gamma * -math.log(p)
        worst = max(worst, abs(cb_focal_term(p, gamma, 0.0, 1) - expected))

    for _ in range(120):
        n = int(rng.integers(1, 10**6))
        beta = float(rng.uniform(0, 0.9999))
        expected = (1 - beta) / (1 - beta ** n) * math.log(2)
        worst = max(worst, abs(cb_focal_term(0.5, 0.0, beta, n) - expected))

    for _ in range(120):
        c = int(rng.integers(2, 12))
        head = rng.random(c) < 0.5
        p_i, p_sqrt = rng.random(c), rng.random(c)
        got = ssb_aggregate(p_i, p_sqrt, head)
        expected = [p_i[a] if head[a] else p_sqrt[a] for a in range(c)]
        worst = max(worst, float(np.abs(got - expected).max()))

    for _ in range(120):
        num_classes = int(rng.integers(2, 9))
        counts = rng.integers(1, 5000, size=num_classes)
        with_background = bool(rng.integers(0, 2))
        background = int(rng.integers(0, num_classes)) if with_background else None
        stats = compute_class_stats(dataset_with_counts(counts, seed=1))
        layout = build_group_layout(stats, background_class=background)
        members = {k: layout.classes_in(k).tolist() for k in range(5)}
        heads = {k: ClassifierHead(weight=np.zeros((len(m) + 1, 1)),
                                   bias=np.zeros(len(m) + 1))
                 for k, m in members.items() if m and k > 0}
        group_logits = {k: rng.normal(size=len(members[k]) + 1) for k in heads}
        background_logits = rng.normal(size=2) if layout.has_background_group else None
        got = bags_infer(layout, {k: v[None] for k, v in group_logits.items()},
                         None if background_logits is None else background_logits[None])[0]
        expected = _oracle_bags_infer(layout.group_of.tolist(), members, background,
                                      {k: v.tolist() for k, v in group_logits.items()},
                                      None if background_logits is None
                                      else background_logits.tolist())
        worst = max(worst, float(np.abs(got - np.asarray(expected)).max()))

    for _ in range(120):
        num_classes = int(rng.integers(2, 8))
        counts = rng.integers(1, 3000, size=num_classes)
        stats = compute_class_stats(dataset_with_counts(counts, seed=2))
        n = int(rng.integers(1, 50))
        true = rng.integers(0, num_classes, size=n)
        preds = rng.integers(0, num_classes, size=n)
        report = evaluate(preds, true, stats)
        acc_all, acc_bins, f1s = _oracle_evaluate(true.tolist(), preds.tolist(),
                                                  counts.tolist())
        worst = max(worst, abs(report.acc_all - acc_all))
        assert set(report.acc_bins) == set(acc_bins)
        for b in acc_bins:
            worst = max(worst, abs(report.acc_bins[b] - acc_bins[b]))
        worst = max(worst, float(np.abs(report.per_class_f1 - f1s).max()))
        worst = max(worst, abs(report.macro_f1 - float(np.mean(f1s))))

    elapsed = time.perf_counter() - started
    announce(1, "formula oracles agree to 1e-10 on randomized inputs",
             worst < ATOL and elapsed < 5.0,
             f"max abs err {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2: gradient check ---------------------------------------------


def test_criterion_2_gradient_check():
    started = time.perf_counter()
    specs = [LossSpec(kind="cross_entropy"),
             LossSpec(kind="cb_focal", gamma=0.5, cb_beta=0.0),
             LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.0),
             LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9)]
    rng = np.random.default_rng(321)
    worst = 0.0
    for spec in specs:
        for _ in range(100):
            batch = int(rng.integers(1, 9))
            num_classes = int(rng.integers(2, 11))
            logits = rng.normal(scale=2.5, size=(batch, num_classes))
            labels = rng.integers(0, num_classes, size=batch)
            counts = rng.integers(1, 800, size=num_classes)
            analytic = batch_loss(logits, labels, counts, spec).grad_logits
            numeric = finite_difference_grad(logits, labels, counts, spec)
            worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    announce(2, "analytic gradients match finite differences within 1e-5",
             worst < 1e-5 and elapsed < 10.0,
             f"max rel err {worst:.2e}, {elapsed:.2f}s")


# -- criterion 3: sampler distribution ---------------------------------------


def test_criterion_3_sampler_distribution():
    dataset = dataset_with_counts([100, 4], seed=0)
    stream = make_epoch_stream(dataset.labels, make_sampler([100, 4], 0.5, seed=5), 10**5)
    observed = np.bincount(dataset.labels[stream], minlength=2)
    expected = np.array([10 / 12, 2 / 12]) * 10**5
    pvalue = float(chisquare(observed, expected).pvalue)
    announce(3, "10^5-draw epoch stream at q=0.5 passes chi-square at 0.001",
             pvalue > 0.001, f"p-value {pvalue:.4f}")


# -- criterion 4: two-stage contract -----------------------------------------


def test_criterion_4_two_stage_contract():
    dataset = dataset_with_counts([300, 80, 12, 6], dim=6, seed=4)
    stage1 = train_stage1(dataset, (10,), OptimSpec(epochs=6, warmup_epochs=1, seed=9),
                          LossSpec(kind="cross_entropy"))
    ok = True
    details = []
    for method in ("sqrt_samp", "cb_focal", "bags", "ssb"):
        loss = (LossSpec(kind="cb_focal", gamma=2.0, cb_beta=0.9)
                if method == "cb_focal" else LossSpec(kind="cross_entropy"))
        retrained = train_stage2(stage1, dataset, method,
                                 OptimSpec(seed=13).for_classifier(), loss)
        same = all(np.array_equal(a, b) for a, b in
                   zip(stage1.backbone.weights, retrained.backbone.weights))
        same &= all(np.array_equal(a, b) for a, b in
                    zip(stage1.backbone.biases, retrained.backbone.biases))
        if not same:
            details.append(f"{method}: backbone changed")
        ok &= same
        if method == "ssb":
            fi_same = (np.array_equal(retrained.heads["head"].weight, stage1.heads["head"].weight)
                       and np.array_equal(retrained.heads["head"].bias, stage1.heads["head"].bias))
            if not fi_same:
                details.append("ssb: f_i differs from the stage-1 head")
            ok &= fi_same
    announce(4, "stage-2 leaves the backbone bit-identical; SSB keeps f_i verbatim",
             ok, "; ".join(details))


# -- criterion 5: trend reproduction -----------------------------------------


def trend_doc(out_dir: str, seed: int) -> dict:
    return {
        "seed": seed,
        "output_dir": out_dir,
        "methods": ["baseline", "sqrt_samp", "ssb"],
        "dataset": {
            "synthetic": {"num_classes": 20, "feature_dim": 16, "head_count": 1000,
                          "imbalance_factor": 200.0, "class_separation": 5.0,
                          "noise_sigma": 1.0},
            "eval": {"mode": "fresh", "per_class": 100},
        },
        "stage1": {"epochs": 30, "warmup_epochs": 2},
        "stage2": {"epochs": 12, "warmup_epochs": 1},
    }


def tail_accuracy(report) -> float:
    tail_classes = np.isin(report.class_bins, (1, 2))
    correct = np.diag(report.confusion)[tail_classes].sum()
    total = report.confusion.sum(axis=1)[tail_classes].sum()
    return float(correct / total)


@pytest.fixture(scope="module")
def trend_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend")
    out = {"baseline": [], "sqrt_samp": [], "ssb": []}
    started = time.perf_counter()
    for seed in range(5):
        run_dir = root / f"seed{seed}"
        config = config_from_dict(trend_doc(str(run_dir), seed))
        run_experiment(config)
        for method in out:
            out[method].append(load_report(str(run_dir / "reports" / f"{method}.json")))
    return out, time.perf_counter() - started


def test_criterion_5_trend_reproduction(trend_reports):
    reports, elapsed = trend_reports
    mean_tail = {m: float(np.mean([tail_accuracy(r) for r in rs]))
                 for m, rs in reports.items()}
    mean_bin4 = {m: float(np.mean([r.acc_bins[4] for r in rs]))
                 for m, rs in reports.items()}
    mean_acc = {m: float(np.mean([r.acc_all for r in rs]))
                for m, rs in reports.items()}
    conditions = {
        "baseline acc_all in [0.7, 0.9]": 0.7 <= mean_acc["baseline"] <= 0.9,
        "sqrt tail >= baseline + 3pts":
            mean_tail["sqrt_samp"] >= mean_tail["baseline"] + 0.03,
        "sqrt bin4 below baseline": mean_bin4["sqrt_samp"] < mean_bin4["baseline"],
        "ssb tail above baseline": mean_tail["ssb"] > mean_tail["baseline"],
        "ssb bin4 within 2pts of baseline":
            abs(mean_bin4["ssb"] - mean_bin4["baseline"]) <= 0.02,
        "runtime under 5 minutes": elapsed < 300.0,
    }
    detail = (f"tail base/sqrt/ssb = {mean_tail['baseline']:.3f}/"
              f"{mean_tail['sqrt_samp']:.3f}/{mean_tail['ssb']:.3f}; "
              f"bin4 = {mean_bin4['baseline']:.3f}/{mean_bin4['sqrt_samp']:.3f}/"
              f"{mean_bin4['ssb']:.3f}; acc_all base {mean_acc['baseline']:.3f}; "
              f"{elapsed:.0f}s")
    failed = [name for name, passed in conditions.items() if not passed]
    announce(5, "square-root and SSB tail/head trends reproduce over 5 seeds",
             not failed, detail + (f"; failed: {failed}" if failed else ""))


# -- criterion 6: SSB coordinate identity -------------------------------------


def test_criterion_6_ssb_coordinate_identity():
    dataset = dataset_with_counts([1200, 1500, 70, 8], dim=6, seed=6)
    stage1 = train_stage1(dataset, (), OptimSpec(epochs=5, warmup_epochs=1, seed=3),
                          LossSpec(kind="cross_entropy"))
    ssb = train_stage2(stage1, dataset, "ssb", OptimSpec(seed=8).for_classifier(),
                       LossSpec(kind="cross_entropy"))
    rng = np.random.default_rng(10)
    test_feats = rng.normal(size=(400, 6))
    combined = model_scores(ssb, test_feats)
    p_i = softmax(ssb.heads["head"].logits(test_feats))
    p_sqrt = softmax(ssb.heads["sqrt_head"].logits(test_feats))
    mask = ssb.stats.bins == HEAD_GROUP
    head_exact = np.array_equal(combined[:, mask], p_i[:, mask])
    tail_exact = np.array_equal(combined[:, ~mask], p_sqrt[:, ~mask])
    announce(6, "SSB scores equal f_i coordinates on head classes and f_sqrt "
                "elsewhere, exactly",
             head_exact and tail_exact and mask.sum() == 2)


# -- criterion 7: determinism -------------------------------------------------


def test_criterion_7_compare_determinism(tmp_path):
    def doc(out):
        return {
            "seed": 17,
            "output_dir": out,
            "methods": ["baseline", "sqrt_samp", "cb_focal", "bags", "ssb"],
            "dataset": {
                "synthetic": {"num_classes": 5, "feature_dim": 6, "head_count": 120,
                              "imbalance_factor": 20.0, "class_separation": 4.0,
                              "noise_sigma": 1.0},
                "eval": {"mode": "fresh", "per_class": 30},
            },
            "stage1": {"epochs": 8, "warmup_epochs": 1},
            "stage2": {"epochs": 5, "warmup_epochs": 1},
        }

    run_experiment(config_from_dict(doc(str(tmp_path / "a"))))
    run_experiment(config_from_dict(doc(str(tmp_path / "b"))))
    files = ["reports/baseline.json", "reports/sqrt_samp.json", "reports/cb_focal.json",
             "reports/bags.json", "reports/ssb.json", "reports/comparison.csv",
             "reports/comparison.txt", "reports/f1_delta.csv"]
    mismatched = [f for f in files
                  if (tmp_path / "a" / f).read_bytes() != (tmp_path / "b" / f).read_bytes()]
    announce(7, "two identical compare runs produce byte-identical report files",
             not mismatched, f"mismatched: {mismatched}" if mismatched else "8 files compared")


# -- criterion 8: metric reconciliation ---------------------------------------


def _reconciles(report) -> bool:
    weighted = 0.0
    total = report.confusion.sum()
    bin_of = report.class_bins
    for b, acc in report.acc_bins.items():
        instances = report.confusion.sum(axis=1)[bin_of == b].sum()
        weighted += acc * instances / total
    acc_ok = abs(report.acc_all - weighted) < 1e-12
    f1_ok = abs(report.macro_f1 - report.per_class_f1.mean()) < 1e-12
    return acc_ok and f1_ok


def test_criterion_8_metric_reconciliation(trend_reports):
    reports, _ = trend_reports
    ok = all(_reconciles(r) for rs in reports.values() for r in rs)
    rng = np.random.default_rng(77)
    for _ in range(100):
        num_classes = int(rng.integers(2, 9))
        counts = rng.integers(1, 3000, size=num_classes)
        stats = compute_class_stats(dataset_with_counts(counts, seed=3))
        n = int(rng.integers(1, 80))
        report = evaluate(rng.integers(0, num_classes, size=n),
                          rng.integers(0, num_classes, size=n), stats)
        ok &= _reconciles(report)
    announce(8, "acc_all reconciles with bin-weighted mean and macro F1 with "
                "per-class mean to 1e-12", ok)


# -- criterion 9: schedule endpoints ------------------------------------------


def test_criterion_9_schedule_endpoints():
    ok = True
    details = []
    for total, warmup, lr in ((100, 10, 1e-2), (3600, 240, 1e-5), (13, 1, 0.5),
                              (500, 0, 1.0)):
        start = lr_at(0, total, warmup, lr)
        peak = lr_at(warmup, total, warmup, lr)
        final = lr_at(total, total, warmup, lr)
        expected_start = 0.0 if warmup > 0 else lr
        if start != expected_start:
            ok, _ = False, details.append(f"start {start} at warmup {warmup}")
        if peak != lr:
            ok, _ = False, details.append(f"peak {peak} != {lr}")
        if not final < 1e-9 * lr:
            ok, _ = False, details.append(f"final {final} not < 1e-9*lr")
    announce(9, "schedule is exactly 0 at step 0, exactly lr_init at warmup end, "
                "and < 1e-9*lr_init at the final step", ok, "; ".join(details))
