"""Exporter round-trips: Prometheus grammar, deltas, and the HTTP plane."""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import serve as obs_serve
from repro.obs.export import (JsonExporter, PrometheusExporter,
                              render_stats, snapshot_delta)

#: one Prometheus sample line: name, optional le label, numeric value
SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)$')
TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")


def _demo_registry():
    """A registry with one of everything the exporters must render."""
    reg = obs.Registry()
    reg.counter("plan_cache.misses").inc(3)
    reg.counter("tuning.db.entries").set(7)          # a gauge
    for v in (0.0005, 0.004, 0.2, 3.0, 999.0):
        reg.histogram("engine.time_plan.ms").observe(v)
    return reg


class TestPrometheusGrammar:
    def test_every_line_matches_the_exposition_grammar(self):
        text = PrometheusExporter().render(_demo_registry().snapshot())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert TYPE_LINE.match(line), line
                continue
            m = SAMPLE.match(line)
            assert m, f"bad sample line: {line!r}"
            value = m.group(3)
            float(value)                     # must parse as a number

    def test_counter_vs_gauge_kinds(self):
        text = PrometheusExporter().render(_demo_registry().snapshot())
        assert "# TYPE repro_plan_cache_misses counter" in text
        assert "repro_plan_cache_misses 3" in text
        assert "# TYPE repro_tuning_db_entries gauge" in text
        assert "repro_tuning_db_entries 7" in text

    def test_names_sanitized_to_grammar(self):
        reg = obs.Registry()
        reg.counter("weird-name.with.dots").inc()
        text = PrometheusExporter().render(reg.snapshot())
        assert "repro_weird_name_with_dots 1" in text

    def test_histogram_buckets_cumulative_and_le_sorted(self):
        text = PrometheusExporter().render(_demo_registry().snapshot())
        buckets = re.findall(
            r'repro_engine_time_plan_ms_bucket\{le="([^"]+)"\} (\d+)',
            text)
        assert buckets[-1][0] == "+Inf"
        les = [float(le) for le, _ in buckets[:-1]]
        counts = [int(c) for _, c in buckets]
        assert les == sorted(les)
        assert counts == sorted(counts)      # cumulative: non-decreasing
        assert counts[-1] == 5               # +Inf == observation count
        assert "repro_engine_time_plan_ms_count 5" in text

    def test_registry_health_gauges_present(self):
        text = PrometheusExporter().render(obs.Registry().snapshot())
        for name in ("repro_obs_spans_recorded", "repro_obs_spans_dropped",
                     "repro_obs_events_logged", "repro_obs_events_dropped"):
            assert f"# TYPE {name} gauge" in text

    def test_two_scrapes_of_an_idle_registry_are_bit_identical(self):
        reg = _demo_registry()
        exp = PrometheusExporter()
        assert exp.render(reg.snapshot()) == exp.render(reg.snapshot())

    def test_render_does_not_write_into_the_registry(self):
        reg = _demo_registry()
        before = reg.snapshot()
        PrometheusExporter().render(before)
        assert reg.snapshot() == before
        stats = render_stats()               # cost lands in module stats
        assert stats["renders"] >= 1 and stats["seconds"] >= 0.0


class TestJsonAndDispatch:
    def test_json_render_round_trips(self):
        snap = _demo_registry().snapshot()
        loaded = json.loads(JsonExporter().render(snap))
        assert loaded["counters"]["plan_cache.misses"] == 3
        assert loaded["gauge_names"] == ["tuning.db.entries"]



class TestDelta:
    def test_counter_deltas_and_rates_non_negative(self):
        reg = _demo_registry()
        before = reg.snapshot()
        reg.counter("plan_cache.misses").inc(5)
        reg.counter("plan_cache.hits").inc(2)
        delta = snapshot_delta(before, reg.snapshot(), seconds=2.0)
        assert delta["counters"]["plan_cache.misses"] == {
            "delta": 5, "rate": 2.5}
        assert delta["counters"]["plan_cache.hits"] == {
            "delta": 2, "rate": 1.0}
        for entry in delta["counters"].values():
            assert entry["delta"] >= 0 and entry["rate"] >= 0.0

    def test_reset_clamps_to_zero_not_negative(self):
        reg = _demo_registry()
        before = reg.snapshot()
        delta = snapshot_delta(before, obs.Registry().snapshot(), 1.0)
        for entry in delta["counters"].values():
            assert entry["delta"] == 0

    def test_gauges_keep_signed_deltas(self):
        reg = _demo_registry()
        before = reg.snapshot()
        reg.counter("tuning.db.entries").set(4)      # level fell 7 -> 4
        delta = snapshot_delta(before, reg.snapshot(), 1.0)
        assert delta["gauges"]["tuning.db.entries"] == {
            "value": 4, "delta": -3}

    def test_histogram_deltas(self):
        reg = _demo_registry()
        before = reg.snapshot()
        reg.histogram("engine.time_plan.ms").observe(2.0)
        delta = snapshot_delta(before, reg.snapshot(), 1.0)
        h = delta["histograms"]["engine.time_plan.ms"]
        assert h["delta_count"] == 1
        assert h["mean"] == pytest.approx(2.0)

    def test_stateful_delta_exporter_diffs_consecutive_renders(self):
        # each /delta.json scrape samples the registry and diffs the
        # two newest samples; the first diffs against nothing
        reg = _demo_registry()
        with _Endpoint(reg) as ep:
            first = json.loads(ep.get("/delta.json")[2])
            reg.counter("plan_cache.misses").inc()
            second = json.loads(ep.get("/delta.json")[2])
            reg.counter("plan_cache.misses").inc(2)
            reg.sample()                     # e.g. an /slo scrape
            third = json.loads(ep.get("/delta.json")[2])
        assert first["counters"]["plan_cache.misses"]["delta"] == 3
        assert first["seconds"] is None
        assert second["counters"]["plan_cache.misses"]["delta"] == 1
        assert second["seconds"] is not None
        # the last scrape reports what moved since the /slo sample
        assert third["counters"]["plan_cache.misses"]["delta"] == 0
        assert len(reg.samples()) == 4


class _Endpoint:
    """A telemetry server on an ephemeral port, torn down on exit."""

    def __init__(self, registry):
        self.server = obs_serve.make_server(port=0, registry=registry)
        self.base = "http://127.0.0.1:%d" % self.server.server_address[1]
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=10) as r:
            return r.status, r.headers["Content-Type"], r.read().decode()


class TestServeHTTP:
    def test_metrics_over_http_equals_direct_render(self):
        reg = _demo_registry()
        with _Endpoint(reg) as ep:
            status, ctype, body = ep.get("/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body == PrometheusExporter().render(reg.snapshot())

    def test_snapshot_and_healthz(self):
        reg = _demo_registry()
        with _Endpoint(reg) as ep:
            _, _, snap = ep.get("/snapshot.json")
            _, _, health = ep.get("/healthz")
        assert json.loads(snap)["counters"]["plan_cache.misses"] == 3
        health = json.loads(health)
        assert health["status"] == "ok"
        assert health["export"]["renders"] >= 1

    def test_events_endpoint_filters_level_and_count(self):
        reg = obs.Registry()
        for i in range(5):
            reg.events.emit(f"e{i}", "info")
        reg.events.emit("bad", "error")
        with _Endpoint(reg) as ep:
            _, _, all_events = ep.get("/events?n=3")
            _, _, errors = ep.get("/events?level=error")
            _, _, none = ep.get("/events?n=0")
        assert [r["name"] for r in json.loads(all_events)] == \
            ["e3", "e4", "bad"]
        assert json.loads(none) == []
        assert [r["name"] for r in json.loads(errors)] == ["bad"]

    def test_events_endpoint_filters_prefix(self):
        reg = obs.Registry()
        reg.events.emit("serve.reject", "warn")
        reg.events.emit("tuning.fallback", "info")
        reg.events.emit("serve.flush.error", "error")
        with _Endpoint(reg) as ep:
            _, _, serve_only = ep.get("/events?prefix=serve.")
            _, _, combined = ep.get("/events?prefix=serve.&level=error")
        assert [r["name"] for r in json.loads(serve_only)] == \
            ["serve.reject", "serve.flush.error"]
        assert [r["name"] for r in json.loads(combined)] == \
            ["serve.flush.error"]

    def test_events_endpoint_ignores_unknown_level(self):
        # a bad ?level= serves the unfiltered tail instead of a 500
        reg = obs.Registry()
        reg.events.emit("e0", "info")
        with _Endpoint(reg) as ep:
            status, _, body = ep.get("/events?level=bogus")
        assert status == 200
        assert [r["name"] for r in json.loads(body)] == ["e0"]

    def test_add_route_mounts_extra_endpoint(self):
        reg = obs.Registry()
        with _Endpoint(reg) as ep:
            ep.server.add_route(
                "/serve/stats",
                lambda query: ('{"ok": true}\n', "application/json"))
            status, ctype, body = ep.get("/serve/stats")
        assert status == 200
        assert ctype == "application/json"
        assert json.loads(body) == {"ok": True}

    def test_add_route_rejects_relative_path(self):
        server = obs_serve.make_server(port=0, registry=obs.Registry())
        try:
            with pytest.raises(ValueError):
                server.add_route("serve/stats", lambda q: ("", "text/plain"))
        finally:
            server.server_close()

    def test_unknown_path_is_404(self):
        with _Endpoint(obs.Registry()) as ep:
            with pytest.raises(urllib.error.HTTPError) as err:
                ep.get("/nope")
        assert err.value.code == 404

    def test_scraping_does_not_perturb_the_registry(self):
        reg = _demo_registry()
        before = reg.snapshot()
        with _Endpoint(reg) as ep:
            for path in ("/metrics", "/snapshot.json", "/healthz",
                         "/delta.json", "/delta.json"):
                ep.get(path)
        assert reg.snapshot() == before


class TestElapsedGuard:
    """Zero/negative elapsed must disable rates, not divide by them."""

    def test_zero_elapsed_yields_no_rates(self):
        reg = _demo_registry()
        before = reg.snapshot()
        reg.counter("plan_cache.misses").inc(5)
        delta = snapshot_delta(before, reg.snapshot(), seconds=0.0)
        assert delta["seconds"] is None
        assert delta["counters"]["plan_cache.misses"] == {"delta": 5}

    def test_negative_elapsed_yields_no_rates(self):
        # a clock step backwards between scrapes must not mint a
        # negative rate (or an infinite one)
        reg = _demo_registry()
        before = reg.snapshot()
        reg.counter("plan_cache.misses").inc(5)
        delta = snapshot_delta(before, reg.snapshot(), seconds=-1.0)
        assert delta["seconds"] is None
        assert "rate" not in delta["counters"]["plan_cache.misses"]
