"""SLO burn rates: specs validate, verdicts flip, ``/slo`` serves JSON.

The verdict tests drive the monitor with synthetic snapshot pairs —
the evaluation is a pure function of two snapshots, so injected
deadline-miss/reject/latency traffic flips verdicts deterministically
with no sleeping and no service.
"""

import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs.slo import KINDS, SLOMonitor, SLOSpec, default_specs


def spec(kind="deadline_miss", **over):
    base = dict(name="t-slo", tenant="t", kind=kind,
                objective=(250.0 if kind == "latency" else 0.01),
                fast_window_s=10.0, slow_window_s=60.0)
    base.update(over)
    return SLOSpec(**base)


def miss_snap(done, missed):
    return {"counters": {"serve.tenant.t.completed": done,
                         "serve.tenant.t.deadline_missed": missed}}


def fed(specs, samples):
    """A monitor over a registry whose sample ring holds ``samples`` =
    [(t, snapshot), ...] (synthetic snapshots, so no ``sample()``)."""
    reg = obs.Registry()
    reg._samples.extend(samples)
    return SLOMonitor(specs, reg)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            spec(kind="vibes")

    def test_rejects_ratio_objective_of_one_or_more(self):
        with pytest.raises(ValueError, match="ratio"):
            spec(kind="reject", objective=1.5)

    def test_rejects_fast_window_exceeding_slow(self):
        with pytest.raises(ValueError, match="must not exceed"):
            spec(fast_window_s=120.0, slow_window_s=60.0)

    def test_allowed_ratio_latency_is_one_minus_quantile(self):
        s = spec(kind="latency", quantile=0.99)
        assert s.allowed_ratio == pytest.approx(0.01)
        assert spec(kind="reject", objective=0.05).allowed_ratio == 0.05

    def test_default_specs_cover_every_kind(self):
        specs = default_specs("alice")
        assert {s.kind for s in specs} == set(KINDS)
        assert all(s.tenant == "alice" for s in specs)


class TestVerdicts:
    def test_no_traffic_is_no_data(self):
        mon = fed([spec()], [(0.0, miss_snap(0, 0)),
                             (100.0, miss_snap(0, 0))])
        assert mon.evaluate(now=100.0)[0]["verdict"] == "no_data"

    def test_healthy_traffic_is_ok(self):
        mon = fed([spec()], [(0.0, miss_snap(0, 0)),
                             (100.0, miss_snap(1000, 1))])
        v = mon.evaluate(now=100.0)[0]
        assert v["verdict"] == "ok"
        assert v["slow"]["burn"] == pytest.approx(0.1)

    def test_injected_misses_flip_the_verdict_to_page(self):
        samples = [(0.0, miss_snap(0, 0)), (100.0, miss_snap(1000, 1))]
        mon = fed([spec()], samples)
        assert mon.evaluate(now=100.0)[0]["verdict"] == "ok"
        # inject a miss storm: 50% of the next 200 requests miss —
        # burning 50x the 1% budget in both windows
        mon.registry()._samples.append((200.0, miss_snap(1200, 101)))
        v = mon.evaluate(now=200.0)[0]
        assert v["verdict"] == "page"
        assert v["fast"]["burn"] >= v["page_burn"]
        assert v["slow"]["burn"] >= v["page_burn"]

    def test_fast_burn_alone_does_not_page(self):
        # a short blip: the fast window burns but the long window has
        # absorbed enough good traffic to stay under the page rate
        s = spec(page_burn=6.0)
        mon = fed([s], [(0.0, miss_snap(0, 0)),
                        (140.0, miss_snap(100_000, 10)),
                        (190.0, miss_snap(100_900, 10)),
                        (200.0, miss_snap(101_000, 60))])
        v = mon.evaluate(now=200.0)[0]
        assert v["fast"]["burn"] >= s.page_burn
        assert v["slow"]["burn"] < s.page_burn
        assert v["verdict"] in ("ok", "warn")

    def test_reject_kind_counts_rejections_against_submissions(self):
        def snap(sub, rej):
            return {"counters": {"serve.tenant.t.submitted": sub,
                                 "serve.tenant.t.rejected": rej}}
        s = spec(kind="reject", objective=0.05)
        mon = fed([s], [(0.0, snap(0, 0)), (100.0, snap(50, 50))])
        v = mon.evaluate(now=100.0)[0]
        assert v["slow"]["ratio"] == pytest.approx(0.5)
        assert v["verdict"] == "page"

    def test_latency_kind_reads_histogram_bucket_deltas(self):
        def snap(fast_n, slow_n):
            reg = obs.Registry()
            h = reg.histogram("serve.tenant.t.wait_ms")
            for _ in range(fast_n):
                h.observe(1.0)                    # under the objective
            for _ in range(slow_n):
                h.observe(10_000.0)               # way over
            return reg.snapshot()
        s = spec(kind="latency", objective=250.0, quantile=0.99)
        mon = fed([s], [(0.0, snap(0, 0)), (100.0, snap(80, 20))])
        v = mon.evaluate(now=100.0)[0]
        assert v["slow"]["ratio"] == pytest.approx(0.2)
        assert v["verdict"] == "page"              # 20x the 1% budget


class TestMonitorPlumbing:
    def test_window_truncates_to_monitor_age(self):
        # two samples 10s apart, a 600s window: the oldest sample is
        # the base, so a young monitor still produces verdicts
        reg = obs.Registry()
        mon = SLOMonitor([spec(fast_window_s=600.0, slow_window_s=600.0)],
                         reg)
        reg.sample(now=0.0)
        reg.counter("serve.tenant.t.completed").inc(100)
        reg.counter("serve.tenant.t.deadline_missed").inc(50)
        reg.sample(now=10.0)
        assert mon.evaluate(now=10.0)[0]["verdict"] == "page"

    def test_route_samples_live_registry_and_serves_json(self):
        with obs.scoped():
            obs.count("serve.tenant.t.completed", 100)
            mon = SLOMonitor(specs=[spec()])
            obs.get_registry().sample(now=0.0)
            obs.count("serve.tenant.t.completed", 100)
            obs.count("serve.tenant.t.deadline_missed", 100)
            body, ctype = mon.route({})
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["worst"] == "page"
        assert payload["samples"] == 2
        (v,) = payload["slos"]
        assert v["name"] == "t-slo" and v["verdict"] == "page"

    def test_dump_reports_worst_verdict_across_specs(self):
        mon = fed([spec(name="quiet", tenant="q"), spec()],
                  [(0.0, miss_snap(0, 0)), (100.0, miss_snap(100, 50))])
        dump = mon.dump(now=100.0)
        by_name = {v["name"]: v["verdict"] for v in dump["slos"]}
        assert by_name == {"quiet": "no_data", "t-slo": "page"}
        assert dump["worst"] == "page"

    def test_concurrent_sample_and_evaluate_do_not_race(self):
        # two scrapers append while a third evaluates far in the future,
        # so every evaluation walks the whole ring
        errors = []
        stop = threading.Event()

        def loop(fn):
            try:
                while not stop.is_set():
                    fn()
            except Exception as e:   # noqa: BLE001 - any raise is the bug
                errors.append(e)
                stop.set()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.scoped() as reg:
                obs.count("serve.tenant.t.completed", 1)
                mon = SLOMonitor(specs=[spec()])
                for _ in range(reg.SAMPLE_RING):
                    reg.sample()
                threads = [
                    threading.Thread(target=loop, args=(reg.sample,)),
                    threading.Thread(target=loop, args=(reg.sample,)),
                    threading.Thread(target=loop, args=(
                        lambda: mon.evaluate(now=time.monotonic() + 1e4),)),
                ]
                for th in threads:
                    th.start()
                stop.wait(0.25)
                stop.set()
                for th in threads:
                    th.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
