"""Registry, counter, histogram, and enable/disable semantics."""

import threading

from repro import obs


class TestDisabledIsNoOp:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_count_records_nothing_when_disabled(self):
        reg = obs.Registry()
        old = obs.set_registry(reg)
        try:
            obs.count("x")
            obs.observe("y", 1.0)
            obs.gauge("z", 5)
            assert reg.snapshot()["counters"] == {}
            assert reg.snapshot()["histograms"] == {}
        finally:
            obs.set_registry(old)

    def test_span_is_shared_null_object(self):
        assert obs.span("a") is obs.span("b")

    def test_tick_free_when_disabled(self):
        assert obs.tick() == 0.0


class TestCounters:
    def test_increment_and_snapshot(self):
        with obs.scoped() as reg:
            obs.count("hits")
            obs.count("hits", 2)
            obs.count("cycles", 1.5)
            snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["counters"]["cycles"] == 1.5

    def test_gauge_is_last_write_wins(self):
        with obs.scoped() as reg:
            obs.gauge("size", 3)
            obs.gauge("size", 7)
            assert reg.counters()["size"] == 7

    def test_thread_safety(self):
        with obs.scoped() as reg:
            def work():
                for _ in range(1000):
                    obs.count("n")
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert reg.counters()["n"] == 8000


class TestHistograms:
    def test_summary_stats(self):
        h = obs.Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_percentile_from_sample(self):
        h = obs.Histogram("t")
        for v in range(101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(100) == 100.0

    def test_summary_includes_tail_percentiles(self):
        h = obs.Histogram("t")
        for v in range(101):
            h.observe(float(v))
        s = h.summary()
        assert s["p50"] == 50.0
        assert s["p95"] == 95.0
        assert s["p99"] == 99.0

    def test_sample_is_bounded(self):
        h = obs.Histogram("t")
        for v in range(10 * obs.Histogram.SAMPLE):
            h.observe(float(v))
        assert h.count == 10 * obs.Histogram.SAMPLE
        assert len(h._sample) == obs.Histogram.SAMPLE


class TestRegistry:
    def test_report_renders_counters_and_histograms(self):
        with obs.scoped() as reg:
            obs.count("plan_cache.hits", 3)
            obs.observe("gen_ms", 1.25)
            text = reg.report()
        assert "plan_cache.hits" in text
        assert "gen_ms" in text
        assert "p99=" in text

    def test_reset_clears_everything(self):
        with obs.scoped() as reg:
            obs.count("a")
            with obs.span("s"):
                pass
            reg.reset()
            snap = reg.snapshot()
        assert snap["counters"] == {} and snap["spans"] == 0

    def test_span_cap_drops_not_grows(self):
        reg = obs.Registry()
        reg.MAX_SPANS = 3
        for i in range(5):
            reg.record_span(i)
        assert reg.spans == [2, 3, 4]          # the newest survive
        assert reg.dropped_spans == 2

    def test_scoped_restores_previous_state(self):
        before_reg = obs.get_registry()
        before_enabled = obs.enabled()
        with obs.scoped() as reg:
            assert obs.enabled()
            assert obs.get_registry() is reg
            assert reg is not before_reg
        assert obs.get_registry() is before_reg
        assert obs.enabled() == before_enabled
