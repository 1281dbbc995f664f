"""The benchmark's own tests, over its smoke grid.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gate, report, workloads
from perfbench.grids import SMOKE

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SECONDS = 0.3

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    """One untraced and one traced smoke run of a workload."""
    fn = workloads.WORKLOADS[request.param]
    return (request.param, fn(SMOKE, 3, SECONDS, False),
            fn(SMOKE, 3, SECONDS, True))


def test_every_metric_name_and_unit_is_reported(runs):
    _name, plain, traced = runs
    for kind, out, metrics in (
            ("end_to_end", plain, report.end_to_end(plain)),
            ("per_layer", traced, report.per_layer(traced))):
        assert {k: u for k, (_v, u) in metrics.items()} == _units(kind)
        for value, _unit in metrics.values():
            assert isinstance(value, float) and math.isfinite(value)
        assert out.attempted > 0 and out.failed == 0
    for name, (value, _unit) in report.end_to_end(plain).items():
        assert value > 0, name


def test_layer_self_times_and_residual_sum_to_the_traced_time(runs):
    _name, _plain, traced = runs
    c = report.conservation(traced)
    assert c["e2e_ms"] > 0
    assert c["error"] <= 1e-9 * c["e2e_ms"]
    assert 0.0 < traced.layers["trace.overhead_ratio"]
    trace = traced.tracer.chrome_trace()
    assert trace["traceEvents"]
    from repro.obs import validate_chrome_trace
    validate_chrome_trace(trace)


def _perturbed_expect(monkeypatch):
    real = gate.expect

    def expect(*args, **kwargs):
        exp = real(*args, **kwargs)
        return dataclasses.replace(exp, values=exp.values * 1.01 + 0.01)
    monkeypatch.setattr(gate, "expect", expect)


@pytest.mark.parametrize("name", ["lib_bulk", "lib_cold_shapes",
                                  "serve_closed"])
def test_gate_trips_on_a_perturbed_reference(monkeypatch, name):
    _perturbed_expect(monkeypatch)
    out = workloads.WORKLOADS[name](SMOKE, 3, SECONDS, False)
    assert out.attempted > 0 and out.failed == out.attempted


def test_gate_trips_on_a_wrong_tuning_digest():
    grid = dataclasses.replace(SMOKE, tune_digest="0" * 64)
    out = workloads.tune_sweep(grid, 3, SECONDS, False)
    assert out.attempted > 0 and out.failed == out.attempted


def test_timings_are_scaled_to_the_reference_host_speed():
    # one repetition on a host running at half the reference speed
    probe = 2 * report.PROBE_REF_S
    out = workloads.Outcome(reps=[(6, 0.6, [0.1] * 6, [probe] * 6)],
                            setup_s=[(1.0, probe)])
    raw = report.end_to_end(out, normalize=False)
    scaled = report.end_to_end(out)
    assert raw["op_ms.p50"][0] == pytest.approx(100.0)
    assert scaled["op_ms.p50"][0] == pytest.approx(50.0)
    assert scaled["op_ms.p90"][0] == pytest.approx(50.0)
    assert scaled["ops_per_s"][0] == pytest.approx(2 * raw["ops_per_s"][0])
    assert scaled["setup_s"][0] == pytest.approx(0.5)


def test_each_operation_is_scaled_by_the_probe_next_to_it():
    # two 100 ms calls, the second timed while the host ran at half speed
    ref = report.PROBE_REF_S
    out = workloads.Outcome(reps=[(2, 0.2, [0.1, 0.1], [ref, 2 * ref])],
                            setup_s=[(1.0, ref)])
    scaled = report.end_to_end(out)
    assert scaled["op_ms.p50"][0] == pytest.approx(75.0)
    assert scaled["ops_per_s"][0] == pytest.approx(2 / 0.15)


def test_gate_rejects_nan_and_wrong_shapes():
    exp = gate.Expected(np.ones((2, 2)), 1e-6)
    assert gate.matches(np.ones((2, 2)), exp)
    assert not gate.matches(np.full((2, 2), np.nan), exp)
    assert not gate.matches(np.ones((2, 3)), exp)
    assert not gate.matches(None, exp)


def test_command_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_sweep",
         "--seed", "3", "--seconds", str(SECONDS), "--trace", "0",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_units("end_to_end"))
