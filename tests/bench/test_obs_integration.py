"""Benchmark harness + reporting integration with the obs subsystem."""

import json

from repro import obs
from repro.bench.harness import BenchHarness
from repro.bench.reporting import decision_stats
from repro.bench import experiments


def test_sweep_points_emit_spans_and_counters():
    h = BenchHarness(sizes=(2, 3), batch=64)
    with obs.scoped() as reg:
        h.gemm_gflops("IATF", 2, "d")
        h.gemm_gflops("IATF", 3, "d")
        h.gemm_gflops("IATF", 2, "d")        # cached: no new span
        counters = reg.counters()
        points = [s for s in reg.spans if s.name == "bench.point"]
    assert counters["bench.points"] == 2
    assert counters["bench.points.gemm"] == 2
    assert counters["bench.cache_hits"] == 1
    assert len(points) == 2
    assert {p.args["size"] for p in points} == {2, 3}


def test_harness_write_trace_artifact(tmp_path):
    h = BenchHarness(sizes=(2,), batch=64)
    with obs.scoped():
        h.gemm_gflops("IATF", 2, "d")
        path = h.write_trace(tmp_path / "sweep.trace.json")
    with open(path) as f:
        trace = json.load(f)
    obs.validate_chrome_trace(trace)
    names = {e["name"] for e in trace["traceEvents"]}
    assert "bench.point" in names


def test_decision_stats_renders_decision_counters():
    with obs.scoped() as reg:
        obs.count("plan_cache.hits", 5)
        obs.count("pack_selector.gemm.a.nopack", 2)
        obs.count("engine.timed_plans", 9)   # not a decision counter
        text = decision_stats(reg)
    assert "plan_cache.hits" in text
    assert "pack_selector.gemm.a.nopack" in text
    assert "engine.timed_plans" not in text
    assert text.startswith("decision statistics:")


def test_decision_stats_empty_when_nothing_recorded():
    assert decision_stats(obs.Registry()) == ""


def test_ablation_renders_include_decision_stats():
    result = experiments.ablation_nopack(sizes=(1, 2), batch=64)
    assert "decision statistics:" in result["render"]
    assert "pack_selector" in result["render"]

    result = experiments.ablation_batch_counter(sizes=(4,), batch=64)
    assert "decision statistics:" in result["render"]
    assert "batch_counter." in result["render"]
