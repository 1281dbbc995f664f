"""Flight recorder: dumps read the registry's history, triggers freeze it.

The end-to-end test injects a poisoned bucket into a running
:class:`BlasService` and asserts the failure froze a post-mortem that
replays the spans and events leading up to it — the recorder's whole
reason to exist.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import flight
from repro.obs.flight import FlightRecorder


class TestRings:
    def test_attach_mirrors_spans_and_events(self):
        # the dump reads the registry's newest spans and events
        with obs.scoped():
            with obs.span("work.outer"):
                with obs.span("work.inner"):
                    pass
            obs.event("work.done", items=3)
            snap = FlightRecorder().snapshot()
        names = [s["name"] for s in snap["spans"]]
        assert names == ["work.inner", "work.outer"]   # completion order
        assert [e["name"] for e in snap["events"]] == ["work.done"]

    def test_rings_keep_the_most_recent_past_capacity(self, monkeypatch):
        monkeypatch.setattr(obs.Registry, "MAX_SPANS", 4)
        with obs.scoped() as reg:
            for i in range(10):
                with obs.span("s", i=i):
                    pass
                obs.event("e", i=i)
            dump = FlightRecorder().dump("unit_test")
        assert reg.dropped_spans == 6
        assert [s["args"]["i"] for s in dump["spans"]] == [6, 7, 8, 9]
        assert [e["fields"]["i"] for e in dump["events"]] == list(range(10))

    def test_dump_carries_only_the_newest_spans_and_events(self,
                                                           monkeypatch):
        monkeypatch.setattr(flight, "SPANS", 3)
        monkeypatch.setattr(flight, "EVENTS", 2)
        with obs.scoped():
            for i in range(5):
                with obs.span("s", i=i):
                    pass
                obs.event("e", i=i)
            rec = FlightRecorder()
            dump = rec.dump("unit_test")
            assert rec.stats()["spans"] == 3
            assert rec.stats()["events"] == 2
        assert [s["args"]["i"] for s in dump["spans"]] == [2, 3, 4]
        assert [e["fields"]["i"] for e in dump["events"]] == [3, 4]

    def test_disabled_obs_feeds_nothing(self):
        rec = FlightRecorder()
        old = obs.set_registry(obs.Registry())
        try:
            assert not obs.enabled()
            with obs.span("never"):
                pass
            obs.event("never.event")
            snap = rec.dump("unit_test")
        finally:
            obs.set_registry(old)
        assert snap["spans"] == [] and snap["events"] == []

    def test_concurrent_recording_and_dumps_do_not_race(self):
        # two threads record spans and events while a third exports the
        # trace and dumps, so every reader copies a ring being appended
        errors = []
        stop = threading.Event()

        def loop(fn):
            try:
                while not stop.is_set():
                    fn()
            except Exception as e:   # noqa: BLE001 - any raise is the bug
                errors.append(e)
                stop.set()

        def record():
            with obs.span("stress"):
                pass

        def read():
            obs.chrome_trace()
            rec.dump("stress")

        rec = FlightRecorder()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.scoped():
                threads = [threading.Thread(target=loop, args=(fn,))
                           for fn in (record, lambda: obs.event("stress"),
                                      read)]
                for th in threads:
                    th.start()
                stop.wait(0.25)
                stop.set()
                for th in threads:
                    th.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        assert rec.dumps > 0


class TestTriggers:
    def test_reject_storm_triggers_one_dump_within_cooldown(self):
        # 200 rejects 0.1 s apart: the 50th tips the 10 s window, and
        # the rest fall inside the 30 s cooldown
        rec = FlightRecorder()
        dumps = [rec.note_reject("hog", now=100.0 + 0.1 * i)
                 for i in range(200)]
        produced = [d for d in dumps if d is not None]
        assert len(produced) == 1
        assert produced[0]["trigger"] == "reject_storm"
        assert produced[0]["detail"]["tenant"] == "hog"
        assert rec.dumps == 1
        assert rec.suppressed > 0

    def test_rejects_outside_the_window_do_not_storm(self):
        # one reject a second never holds 50 in the 10 s window
        rec = FlightRecorder()
        for i in range(200):
            assert rec.note_reject("slow", now=100.0 + 1.0 * i) is None
        assert rec.dumps == 0

    def test_cooldown_expires_and_a_second_incident_dumps(self):
        rec = FlightRecorder()
        assert rec.trigger("flush_error", now=100.0) is not None
        assert rec.trigger("flush_error", now=110.0) is None
        assert rec.trigger("flush_error", now=140.0) is not None
        assert rec.dumps == 2 and rec.suppressed == 1

    def test_on_demand_dump_is_never_rate_limited(self):
        rec = FlightRecorder()
        assert rec.dump("on_demand")["trigger"] == "on_demand"
        assert rec.dump("on_demand") is not None
        assert rec.dumps == 2

    def test_dump_dir_writes_one_json_file_per_dump(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        rec.note_pulse({"flushes": 1})
        dump = rec.dump("unit_test", why="testing")
        with open(dump["path"]) as f:
            loaded = json.load(f)
        assert loaded["trigger"] == "unit_test"
        assert loaded["detail"] == {"why": "testing"}
        assert loaded["stats_pulses"] == [{"flushes": 1}]

    def test_route_on_demand_vs_last_triggered(self):
        rec = FlightRecorder()
        rec.trigger("reject_storm", now=100.0)
        body, ctype = rec.route({"last": "1"})
        assert ctype == "application/json"
        assert json.loads(body)["trigger"] == "reject_storm"
        body, _ = rec.route({})
        assert json.loads(body)["trigger"] == "on_demand"


class TestServiceIntegration:
    def test_poisoned_bucket_freezes_a_post_mortem(self):
        from repro.serve import BlasService, Request
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        rec = FlightRecorder()
        with obs.scoped():
            with BlasService(max_batch=2, max_wait_ms=0.5,
                             flight=rec) as svc:
                ok = svc.submit(Request.gemm(a, a)).result(timeout=60.0)
                bad = Request.gemm(a, a)
                # sabotage the operands post-validation: the flush fails
                object.__setattr__(bad, "a", np.ones(3, dtype=np.float32))
                with pytest.raises(Exception):
                    svc.submit(bad).result(timeout=60.0)
        assert ok is not None
        dump = rec.last_dump
        assert dump is not None and dump["trigger"] == "flush_error"
        assert dump["detail"]["requests"] == 1
        # the post-mortem replays the history: the healthy request's
        # spans and the failure's error event are both in the rings
        assert any(s["name"] == "serve.request" for s in dump["spans"])
        assert any(e["name"] == "serve.flush.error"
                   for e in dump["events"])
        assert any(p.get("error") for p in dump["stats_pulses"])
        stats = svc.stats()["flight"]
        assert stats["dumps"] == 1

    def test_stats_counts_ring_depths(self):
        rec = FlightRecorder()
        rec.note_pulse({"flushes": 1})
        with obs.scoped():
            obs.event("e")
            stats = rec.stats()
        assert stats == {"spans": 0, "events": 1, "stats_pulses": 1,
                         "dumps": 0, "suppressed": 0}
