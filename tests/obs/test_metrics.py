"""Tests for the metrics registry: counters, histograms, timers."""

import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Timer,
    percentile,
    summarise_timer,
)


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 9.0

    def test_single_sample(self):
        assert percentile([7.0], 95.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricsError):
            percentile([1.0], 101.0)


class TestCounter:
    def test_inc_and_merge(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(4)
        b.inc(2)
        a.merge(b)
        assert a.value == 7

    def test_negative_rejected(self):
        with pytest.raises(MetricsError):
            Counter().inc(-1)


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram(edges=(0.0, 10.0))
        for value in (-5.0, 0.0, 5.0, 10.0, 15.0):
            hist.observe(value)
        # (-inf, 0], (0, 10], (10, inf)
        assert hist.counts == [2, 2, 1]
        assert hist.total == 5
        assert hist.min == -5.0
        assert hist.max == 15.0
        assert hist.mean == pytest.approx(5.0)

    def test_merge_adds_bucket_by_bucket(self):
        a = Histogram(edges=(0.0,))
        b = Histogram(edges=(0.0,))
        a.observe(-1.0)
        b.observe(1.0)
        b.observe(2.0)
        a.merge(b)
        assert a.counts == [1, 2]
        assert a.total == 3

    def test_merge_requires_matching_edges(self):
        with pytest.raises(MetricsError):
            Histogram(edges=(0.0,)).merge(Histogram(edges=(1.0,)))

    def test_unsorted_edges_rejected(self):
        with pytest.raises(MetricsError):
            Histogram(edges=(1.0, 0.0))


class TestTimer:
    def test_observe_and_quantiles(self):
        timer = Timer()
        for s in (0.1, 0.2, 0.3):
            timer.observe_s(s)
        assert timer.count == 3
        assert timer.total_s == pytest.approx(0.6)
        assert timer.quantile_s(50.0) == pytest.approx(0.2)

    def test_negative_rejected(self):
        with pytest.raises(MetricsError):
            Timer().observe_s(-0.1)

    def test_context_manager_records_one_sample(self):
        timer = Timer()
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.samples[0] >= 0.0


class TestRegistry:
    def test_redeclare_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(MetricsError):
            reg.timer("a")

    def test_histogram_edge_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", (0.0,))
        with pytest.raises(MetricsError):
            reg.histogram("h", (1.0,))

    def test_merge_is_the_worker_to_parent_path(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("passes").inc()
        worker.counter("passes").inc(2)
        worker.histogram("margin", (0.0,)).observe(1.0)
        worker.timer("wall").observe_s(0.5)
        parent.merge(worker)
        assert parent.counter("passes").value == 3
        assert parent.histogram("margin", (0.0,)).total == 1
        assert parent.timer("wall").count == 1

    def test_pickle_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h", (0.0, 1.0)).observe(0.5)
        reg.timer("t").observe_s(0.25)
        assert pickle.loads(pickle.dumps(reg)) == reg

    def test_equality_ignores_declaration_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        a.counter("y")
        b.counter("y")
        b.counter("x").inc()
        assert a == b
        b.counter("x").inc()
        assert a != b


class TestSummariseTimer:
    def test_empty(self):
        doc = summarise_timer([])
        assert doc["count"] == 0
        assert doc["p50_s"] is None

    def test_summary(self):
        doc = summarise_timer([0.1, 0.2, 0.3, 0.4])
        assert doc["count"] == 4
        assert doc["mean_s"] == pytest.approx(0.25)
        assert doc["p50_s"] == pytest.approx(0.25)
