"""TelemetrySink: delta-encoded windows, weak scheduling, JSONL stream."""

import json

import pytest

from repro.obs import MetricsRegistry, TelemetrySink
from repro.obs.telemetry import TELEMETRY_SCHEMA
from repro.ssd.engine import EventLoop, Resource


def drive(loop, registry, *, end_us=10.0, step_us=2.0, inc=3):
    """Schedule strong work that bumps a counter every ``step_us``."""
    t = step_us
    while t <= end_us:
        def bump(t=t):
            registry.counter("work.items").inc(inc)
            registry.histogram("work.lat_us").observe(t * 10.0)

        loop.schedule(t, bump)
        t += step_us


class TestWindows:
    def test_counter_deltas_per_window(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=10.0, step_us=2.0, inc=3)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        # windows close at 4.0 and 8.0 (ticks) and 10.0 (flush)
        assert [w["t_end_us"] for w in sink.windows] == [4.0, 8.0, 10.0]
        assert [w["counters"]["work.items"] for w in sink.windows] == [6, 6, 3]
        # deltas reassemble into the final total
        assert sum(w["counters"]["work.items"] for w in sink.windows) == \
            registry.get("work.items").value

    def test_histogram_bucket_deltas_sum_to_totals(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=10.0, step_us=2.0)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        hist = registry.get("work.lat_us")
        per_bucket = [0] * len(hist.counts)
        total_count = 0
        for w in sink.windows:
            entry = w["histograms"]["work.lat_us"]
            total_count += entry["count"]
            for i, d in enumerate(entry["buckets"]):
                per_bucket[i] += d
        assert total_count == hist.count
        assert per_bucket == hist.counts

    def test_quiet_window_skips_unchanged_metrics(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        registry.counter("work.items").inc(5)  # before baseline
        loop.schedule(1.0, lambda: None)
        loop.schedule(9.0, lambda: None)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        assert all("work.items" not in w["counters"] for w in sink.windows)

    def test_empty_flush_records_nothing(self):
        loop = EventLoop()
        sink = TelemetrySink(4.0)
        sink.attach(loop, MetricsRegistry())
        loop.run()
        sink.flush()
        assert sink.windows == []

    def test_resource_deltas(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        channel = Resource(loop, name="ch0", kind="channel")
        loop.schedule(0.0, lambda: channel.acquire((0, 0.0), 6.0, lambda _s: None))
        loop.schedule(10.0, lambda: None)
        sink = TelemetrySink(5.0)
        sink.attach(loop, registry, channels=[channel])
        loop.run()
        sink.flush()
        busy = [w["resources"]["channel_busy_us"][0] for w in sink.windows]
        # booked at grant time: the full 6us lands in the first window
        assert busy == [6.0, 0.0]


class TestNeverPerturbs:
    def test_sink_never_extends_the_run(self):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry, end_us=7.0, step_us=7.0)
        sink = TelemetrySink(3.0)
        sink.attach(loop, registry)
        loop.run()
        assert loop.now == 7.0  # not rounded up to a tick boundary


class TestJsonl:
    def test_header_and_windows_round_trip(self, tmp_path):
        loop = EventLoop()
        registry = MetricsRegistry()
        drive(loop, registry)
        sink = TelemetrySink(4.0)
        sink.attach(loop, registry)
        loop.run()
        sink.flush()
        path = tmp_path / "run.jsonl"
        written = sink.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema_version"] == TELEMETRY_SCHEMA.version
        assert header["windows"] == written == len(lines) - 1
        seqs = [json.loads(line)["seq"] for line in lines[1:]]
        assert seqs == list(range(len(seqs)))


class TestValidation:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySink(0.0)
