"""Structured-event ring, file sink rotation, and the event() helper."""

import json
import os

import pytest

from repro import obs
from repro.obs.events import EventLog, FileSink


class TestEventLog:
    def test_emit_and_tail_oldest_first(self):
        log = EventLog()
        log.emit("a", "info", {"x": 1})
        log.emit("b", "warn")
        records = log.tail(10)
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[0]["fields"] == {"x": 1}
        assert records[0]["ts"] > 0
        assert log.tail(0) == [] and log.tail(-1) == []

    def test_ring_bounds_memory_and_counts_drops(self):
        log = EventLog(ring=3)
        for i in range(5):
            log.emit(f"e{i}")
        assert len(log) == 3
        assert [r["name"] for r in log.tail(10)] == ["e2", "e3", "e4"]
        assert log.stats() == {"logged": 5, "dropped": 2}

    def test_tail_filters_level_and_above(self):
        log = EventLog()
        for level in ("debug", "info", "warn", "error"):
            log.emit(level, level)
        assert [r["name"] for r in log.tail(10, level="warn")] == \
            ["warn", "error"]

    def test_unknown_level_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event level"):
            log.emit("x", "fatal")
        with pytest.raises(ValueError, match="unknown event level"):
            log.tail(level="verbose")

    def test_trace_context_stored_when_given(self):
        log = EventLog()
        log.emit("with", trace_id="t1", span_id="s2")
        log.emit("without")
        with_ctx, without = log.tail(10)
        assert with_ctx["trace_id"] == "t1" and with_ctx["span_id"] == "s2"
        assert "trace_id" not in without


class TestFileSink:
    def test_events_append_as_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.attach_sink(FileSink(str(path)))
        log.emit("a", "info", {"x": 1})
        log.emit("b")
        log.detach_sink().close()
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == ["a", "b"]

    def test_rotation_bounds_the_active_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.attach_sink(FileSink(str(path), max_bytes=200, backups=2))
        for i in range(40):
            log.emit("fill", "info", {"i": i, "pad": "x" * 40})
        log.detach_sink().close()
        assert os.path.getsize(path) < 400
        assert os.path.exists(f"{path}.1")
        backups = [p for p in os.listdir(tmp_path)
                   if p.startswith("events.jsonl.")]
        assert len(backups) <= 2             # oldest rotated out

    def test_detach_stops_writing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.attach_sink(FileSink(str(path)))
        log.emit("kept")
        log.detach_sink().close()
        log.emit("dropped-from-file")
        assert len(path.read_text().splitlines()) == 1
        assert len(log) == 2                 # the ring still has both

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileSink(str(tmp_path / "e"), max_bytes=0)
        with pytest.raises(ValueError):
            FileSink(str(tmp_path / "e"), backups=-1)
        with pytest.raises(ValueError):
            EventLog(ring=0)


class TestEventHelper:
    def test_disabled_event_is_a_no_op(self):
        reg = obs.Registry()
        old = obs.set_registry(reg)
        try:
            assert not obs.enabled()
            obs.event("tuning.fallback", reason="nope")
        finally:
            obs.set_registry(old)
        assert reg.snapshot()["events"] == {"logged": 0, "dropped": 0}

    def test_enabled_event_lands_in_registry_ring(self):
        with obs.scoped() as reg:
            obs.event("tuning.fallback", level="warn", op="gemm")
        rec = reg.events.tail(1)[0]
        assert rec["name"] == "tuning.fallback"
        assert rec["level"] == "warn"
        assert rec["fields"] == {"op": "gemm"}

    def test_event_inside_span_carries_trace_context(self):
        with obs.scoped() as reg:
            with obs.span("plan.gemm"):
                obs.event("plan_cache.evict", key="k")
            obs.event("outside")
        inside, outside = reg.events.tail(2)
        assert inside["trace_id"] == reg.spans[0].trace_id
        assert inside["span_id"] == reg.spans[0].span_id
        assert "trace_id" not in outside

    def test_overhead_self_accounting(self):
        with obs.scoped() as reg:
            obs.event("x")
            obs.event("y")
        snap = reg.snapshot()
        assert snap["counters"]["obs.overhead.events"] == 2
        assert snap["counters"]["obs.overhead.events.ms"] >= 0.0

    def test_event_stats_surface_in_snapshot(self):
        with obs.scoped() as reg:
            obs.event("one")
        assert reg.snapshot()["events"]["logged"] == 1
