"""Unit tests for the trace ring and the recorder pair."""

import json

from repro.obs import NULL_RECORDER, Recorder, TraceRing
from repro.obs.trace import write_jsonl


class TestTraceRing:
    def test_records_with_timestamp_and_kind(self):
        ring = TraceRing()
        ring.record("promotion", item="a", window=3)
        (event,) = ring.events()
        assert event["kind"] == "promotion"
        assert event["item"] == "a"
        assert event["window"] == 3
        assert event["ts"] > 0

    def test_bounded_and_counts_drops(self):
        ring = TraceRing(capacity=3)
        for i in range(5):
            ring.record("e", i=i)
        assert len(ring) == 3
        assert ring.recorded == 5
        assert ring.dropped == 2
        assert [e["i"] for e in ring.events()] == [2, 3, 4]

    def test_filter_by_kind_and_item(self):
        ring = TraceRing()
        ring.record("promotion", item="x")
        ring.record("election", item="x")
        ring.record("promotion", item="y")
        assert len(ring.events("promotion")) == 2
        assert [e["kind"] for e in ring.for_item("x")] == ["promotion", "election"]

    def test_dump_jsonl(self, tmp_path):
        ring = TraceRing()
        ring.record("a", n=1)
        ring.record("b", n=2)
        path = tmp_path / "sub" / "trace.jsonl"
        assert ring.dump_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["a", "b"]

    def test_write_jsonl_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert write_jsonl([{"kind": "a"}], path) == 1

    def test_extend_merges_foreign_events(self):
        ring = TraceRing()
        ring.extend([{"kind": "a", "ts": 1.0}, {"kind": "b", "ts": 2.0}])
        assert ring.recorded == 2
        assert len(ring) == 2


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.registry is None
        assert NULL_RECORDER.trace is None
        # every instrument accepts its method and does nothing
        NULL_RECORDER.counter("c").inc()
        NULL_RECORDER.gauge("g").set(1)
        NULL_RECORDER.histogram("h").observe(0.5)
        NULL_RECORDER.event("kind", item="x")


class TestRecorder:
    def test_instruments_land_in_registry(self):
        recorder = Recorder()
        assert recorder.enabled is True
        recorder.counter("c").inc(2)
        assert recorder.registry.value("c") == 2

    def test_events_need_a_ring(self):
        recorder = Recorder()
        recorder.event("kind")  # no ring: silently dropped
        ring = TraceRing()
        recorder = Recorder(trace=ring)
        recorder.event("kind", item="x")
        assert len(ring) == 1
