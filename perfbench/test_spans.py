"""Self-time and percentile arithmetic of the benchmark's span recorder."""
import json
import statistics
from pathlib import Path

import pytest

import probes
from spans import (NO_PARENT, Tracer, covered_length, percentile, self_times,
                   summarize, tail_percentile)


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestCoveredLength:
    def test_disjoint_intervals_add(self):
        assert covered_length([(1, 2), (3, 5)], 0, 10) == 3

    def test_overlaps_count_once(self):
        assert covered_length([(1, 4), (2, 3), (3, 6)], 0, 10) == 5

    def test_clipped_to_the_window(self):
        assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4

    def test_outside_or_empty_intervals_count_nothing(self):
        assert covered_length([(11, 12), (3, 3), (5, 4)], 0, 10) == 0

    def test_touching_intervals_merge(self):
        assert covered_length([(0, 1), (1, 2)], 0, 10) == 2


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
        starts = [0, 1, 2, 5]
        ends = [10, 4, 3, 9]
        parents = [NO_PARENT, 0, 1, 0]
        assert self_times(starts, ends, parents) == [3, 2, 1, 4]

    def test_overlapping_children_are_not_subtracted_twice(self):
        assert self_times([0, 1, 2], [10, 5, 6], [NO_PARENT, 0, 0])[0] == 5

    def test_child_past_its_parent_is_clipped(self):
        assert self_times([0, 8], [10, 12], [NO_PARENT, 0])[0] == 8

    def test_self_times_sum_to_the_root_duration(self):
        starts = [0.0, 0.5, 0.75, 2.0, 2.5]
        ends = [4.0, 1.5, 1.25, 3.5, 3.0]
        parents = [NO_PARENT, 0, 1, 0, 3]
        assert sum(self_times(starts, ends, parents)) == pytest.approx(4.0)


class TestTracer:
    def test_wrap_records_name_times_and_parents(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0, 10.0))

        inner = tracer.wrap(lambda x: x + 1, "layer.inner")
        outer = tracer.wrap(lambda x: inner(inner(x)), "layer.outer")
        root = tracer.begin("bench.op")
        assert outer(1) == 3
        tracer.end(root)

        assert tracer.names == ["bench.op", "layer.outer", "layer.inner", "layer.inner"]
        assert tracer.parents == [NO_PARENT, 0, 1, 1]
        assert tracer.roots == [0, 0, 0, 0]
        assert tracer.self_times() == [2.0, 4.0, 1.0, 3.0]

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0))

        def fail():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap(fail, "layer.fail")()
        assert tracer.ends == [1.0]
        assert tracer.begin("next") == 1 and tracer.parents[1] == NO_PARENT

    def test_name_from_arguments_and_counts(self):
        tracer = Tracer(clock=FakeClock(0.0, 1.0))
        observe = lambda t, sid, args, kwargs, result: t.count(sid, "rows", len(result))
        wrapped = tracer.wrap(lambda method, rows: [0] * rows,
                              lambda method, rows: f"layer.{method}", observe)
        wrapped("bags", rows=3)
        assert tracer.names == ["layer.bags"]
        assert tracer.counts == {0: {"rows": 3}}

    def test_totals_by_root(self):
        tracer = Tracer(clock=FakeClock(*range(8)))
        step = tracer.wrap(lambda: None, "optim.step")
        fit = tracer.wrap(lambda: (step(), step()), "model.fit_head")
        root = tracer.begin("bench.op")
        fit()
        tracer.end(root)
        totals = probes.totals_by_root(tracer)[root]
        assert totals.total == {"model.fit_head": 5, "optim.step": 2}
        assert totals.self == {"model.fit_head": 3, "optim.step": 2}
        assert totals.calls == {"model.fit_head": 1, "optim.step": 2}
        assert totals.layer_self == {"model": 3, "optim": 2}


class TestPercentiles:
    def test_endpoints_and_median(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 50) == statistics.median(values)

    def test_interpolates_between_ranks(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile(list(range(11)), 90) == pytest.approx(9.0)
        assert percentile([10.0, 20.0], 25) == 12.5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @pytest.mark.parametrize("n, expected", [
        (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
        (9999, 99.0), (10000, 99.9),
    ])
    def test_tail_needs_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_summary_spread_uses_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary = summarize(values)
        assert summary["n"] == 5 and summary["median"] == 3.0
        assert summary["iqr_share"] == pytest.approx((q3 - q1) / 3.0)
        assert "p90" not in summary


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, unit, _ in probes.PER_LAYER}
    produced.update({"trace.overhead_s": "s", "trace.spans": "count"})
    assert declared == produced
