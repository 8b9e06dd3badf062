"""Unit tests for the observability primitives (repro.obs)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (EventJournal, MetricsRegistry, current_span,
                       iter_jsonl, merge_snapshots, read_journal, replay,
                       span)
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("ops")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("ops").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("fleet")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5
        assert g.snapshot()["value"] == 7.5


class TestHistogramBuckets:
    """Bucket boundary semantics: inclusive upper bounds."""

    def test_value_on_boundary_lands_in_that_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)   # exactly the first bound -> bucket 0
        h.observe(2.0)   # exactly the second bound -> bucket 1
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[2] == 0

    def test_value_above_last_bound_overflows(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(2.0000001)
        h.observe(100.0)
        assert h.counts[-1] == 2

    def test_value_below_first_bound_in_first_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.001)
        assert h.counts[0] == 1

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_counts_mean_min_max(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 9.0, 20.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean() == pytest.approx(31.5 / 4)
        assert h.min == 0.5
        assert h.max == 20.0


class TestHistogramPercentiles:
    def test_empty_histogram_percentile_is_zero(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.percentile(50.0) == 0.0
        assert h.percentile(99.0) == 0.0

    def test_percentile_is_bucket_upper_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        # 10 observations: 5 in (<=1), 4 in (<=2), 1 in (<=4).
        for _ in range(5):
            h.observe(0.5)
        for _ in range(4):
            h.observe(1.5)
        h.observe(3.0)
        assert h.percentile(50.0) == 1.0   # rank 5 -> first bucket
        assert h.percentile(90.0) == 2.0   # rank 9 -> second bucket
        assert h.percentile(100.0) == 3.0  # clamped to observed max

    def test_percentile_clamped_to_observed_max(self):
        h = Histogram("h", buckets=(10.0,))
        h.observe(2.0)
        assert h.percentile(99.0) == 2.0   # not the 10.0 bound

    def test_overflow_percentile_returns_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(50.0)
        assert h.percentile(99.0) == 50.0

    def test_out_of_range_percentile_rejected(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ConfigurationError):
            h.percentile(101.0)
        with pytest.raises(ConfigurationError):
            h.percentile(-1.0)

    def test_snapshot_shape(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["buckets"] == {"1.0": 0, "2.0": 1}
        assert snap["overflow"] == 0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 2
        assert "a" in reg

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_snapshot_sorted_and_json_round_trips(self):
        import json
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1.5)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert json.loads(reg.to_json()) == snap

    def test_to_table_renders_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(3)
        reg.histogram("lat").observe(0.25)
        text = reg.to_table().to_text()
        assert "ops" in text and "lat" in text

    def test_emit_without_journal_is_noop(self):
        MetricsRegistry().emit("place", tenant=1)  # must not raise

    def test_emit_forwards_to_journal(self):
        journal = EventJournal()
        reg = MetricsRegistry(journal=journal)
        reg.emit("place", tenant=1)
        assert len(journal) == 1
        assert journal[0].type == "place"
        assert journal[0].data == {"tenant": 1}

    def test_merge_snapshots_sums_counters(self):
        a = MetricsRegistry()
        a.counter("ops").inc(2)
        a.gauge("fleet").set(5)
        b = MetricsRegistry()
        b.counter("ops").inc(3)
        b.gauge("fleet").set(9)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["ops"]["value"] == 5
        assert merged["fleet"]["value"] == 9  # last wins for gauges


class TestSpans:
    def test_duration_populated_without_registry(self):
        with span("work") as s:
            pass
        assert s.duration is not None and s.duration >= 0.0
        assert s.path == "work"

    def test_nesting_builds_slash_paths(self):
        with span("outer") as outer:
            assert current_span() is outer
            assert outer.depth == 1
            with span("inner") as inner:
                assert inner.path == "outer/inner"
                assert inner.depth == 2
        assert current_span() is None

    def test_registry_records_span_histogram(self):
        reg = MetricsRegistry()
        with span("recovery", registry=reg):
            with span("fit", registry=reg):
                pass
        assert "span.recovery.seconds" in reg
        assert "span.recovery/fit.seconds" in reg
        assert reg.histogram("span.recovery.seconds").count == 1

    def test_registry_span_convenience(self):
        reg = MetricsRegistry()
        with reg.span("pass"):
            pass
        assert "span.pass.seconds" in reg


class TestJournal:
    def test_sequence_numbers_increase(self):
        j = EventJournal()
        j.emit("a")
        j.emit("b", x=1)
        assert [e.seq for e in j] == [0, 1]
        assert j.events("b")[0].data == {"x": 1}

    def test_empty_type_rejected(self):
        with pytest.raises(ConfigurationError):
            EventJournal().emit("")

    def test_round_trip_write_read_replay(self, tmp_path):
        j = EventJournal()
        j.emit("place", tenant=0, load=0.5, servers=[0, 1])
        j.emit("place", tenant=1, load=0.25, servers=[0, 2])
        j.emit("remove", tenant=0)
        path = tmp_path / "run.jsonl"
        j.write(path)

        events = read_journal(path)
        assert [(e.seq, e.type, e.data) for e in events] == \
            [(e.seq, e.type, e.data) for e in j]

        summary = replay(events)
        assert summary.total == 3
        assert summary.count("place") == 2
        assert summary.count("remove") == 1
        assert summary.count("never") == 0
        assert j.replay().counts == summary.counts

    def test_jsonl_one_object_per_line(self):
        j = EventJournal()
        j.emit("a")
        j.emit("b")
        lines = j.to_jsonl().splitlines()
        assert len(lines) == 2
        assert EventJournal().to_jsonl() == ""

    def test_numpy_fields_serialize(self):
        import numpy as np
        j = EventJournal()
        j.emit("place", tenant=np.int64(3), load=np.float64(0.5))
        events = list(iter_jsonl(j.to_jsonl()))
        assert events[0].data == {"tenant": 3, "load": 0.5}

    def test_corrupt_jsonl_detected(self):
        with pytest.raises(ConfigurationError):
            list(iter_jsonl('{"seq": 0, "type": "a"}\nnot json\n'))

    def test_replay_rejects_reordered_stream(self):
        j = EventJournal()
        j.emit("a")
        j.emit("b")
        events = list(j)
        with pytest.raises(ConfigurationError):
            replay(reversed(events))

