"""Attribution-profiler tests: conservation, roofline, artifacts, drift."""

import json

import pytest

from repro import obs
from repro.codegen.registry import KernelRegistry
from repro.errors import ProfileError
from repro.machine.machines import KUNPENG_920
from repro.obs.profile import apportion
from repro.runtime.lowering import lower_plan
from repro.runtime.plan import build_gemm_plan, build_trsm_plan
from repro.types import GemmProblem, TrsmProblem

DTYPES = ("s", "d", "c", "z")


@pytest.fixture(scope="module")
def registry():
    return KernelRegistry(KUNPENG_920)


class TestApportion:
    def test_sums_exactly(self):
        weights = [3, 1, 7, 2, 11]
        parts = apportion(1000003, weights)
        assert sum(parts) == 1000003
        assert all(p >= 0 for p in parts)

    def test_proportional(self):
        parts = apportion(100, [1, 1, 2])
        assert parts == [25, 25, 50]

    def test_deterministic_tie_break(self):
        assert apportion(5, [1, 1, 1]) == apportion(5, [1, 1, 1])
        assert sum(apportion(5, [1, 1, 1])) == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ProfileError):
            apportion(10, [])
        with pytest.raises(ProfileError):
            apportion(10, [1, 0])
        with pytest.raises(ProfileError):
            apportion(-1, [1])


class TestConservation:
    """Attributed cycles sum exactly to the cycle model's totals."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("force_pack", [False, True],
                             ids=["nopack-eligible", "forced-pack"])
    @pytest.mark.parametrize("stream", ["raw", "fused"])
    def test_gemm_exact(self, registry, dtype, force_pack, stream):
        # n=2 qualifies for the no-pack fast path; force_pack covers the
        # packed alternative on the same shape
        p = GemmProblem(2, 2, 2, dtype, batch=256)
        plan = build_gemm_plan(p, KUNPENG_920, registry,
                               force_pack=force_pack)
        prof = obs.profile_plan(plan, stream=stream)
        budget = prof.timing.kernel_cycles_per_group * plan.groups
        assert sum(c.cycles for c in prof.classes.values()) == budget
        assert prof.total_cycles == prof.timing.total_cycles
        prof.check()                      # and the built-in invariant

    @pytest.mark.parametrize("dtype", ["s", "z"])
    @pytest.mark.parametrize("stream", ["raw", "fused"])
    def test_trsm_exact(self, registry, dtype, stream):
        p = TrsmProblem(8, 8, dtype, batch=128)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        prof = obs.profile_plan(plan, stream=stream)
        budget = prof.timing.kernel_cycles_per_group * plan.groups
        assert sum(c.cycles for c in prof.classes.values()) == budget
        assert prof.total_cycles == prof.timing.total_cycles

    def test_kernel_split_conserves_too(self, registry):
        p = GemmProblem(9, 9, 9, "d", batch=256)   # multiple kernels
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        prof = obs.profile_plan(plan, stream="raw")
        assert len(prof.kernels) >= 2
        budget = prof.kernel_cycle_budget
        assert sum(k.cycles for k in prof.kernels.values()) == budget
        for k in prof.kernels.values():
            assert sum(k.classes.values()) == k.cycles

    @pytest.mark.parametrize("stream", ["raw", "fused"])
    @pytest.mark.parametrize("problem", [
        GemmProblem(20, 13, 7, "d", batch=16),
        TrsmProblem(17, 33, "z", batch=5)], ids=["gemm", "trsm"])
    def test_multi_wave_plan_conserves(self, registry, problem, stream):
        """A wave replays N calls of one kernel at once; attribution
        walks the per-call streams, so it is conserved the same way."""
        build = (build_gemm_plan if isinstance(problem, GemmProblem)
                 else build_trsm_plan)
        plan = build(problem, KUNPENG_920, registry)
        compiled = lower_plan(plan)
        assert 1 < len(compiled.waves) < compiled.stats["calls"]
        assert any(len(w.calls) > 1 for w in compiled.waves)
        prof = obs.profile_plan(plan, stream=stream, compiled=compiled)
        budget = prof.kernel_cycle_budget
        assert sum(c.cycles for c in prof.classes.values()) == budget
        assert sum(k.cycles for k in prof.kernels.values()) == budget
        calls = {}
        for name, _, _ in compiled.call_ranges:
            calls[name] = calls.get(name, 0) + 1
        waved = {}
        for w in compiled.waves:
            name = compiled.templates[w.template].name
            waved[name] = waved.get(name, 0) + len(w.calls)
        assert waved == calls
        assert set(prof.kernels) == set(calls)

    def test_fused_stream_has_no_kernel_split(self, registry):
        p = GemmProblem(8, 8, 8, "s", batch=256)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        prof = obs.profile_plan(plan, stream="fused")
        # one kernel: nothing to split, it carries the whole budget
        (kernel,) = prof.kernels.values()
        assert kernel.cycles == prof.kernel_cycle_budget
        assert "MACC" in prof.classes     # macro-ops visible as a class

    def test_megakernel_stream_recovers_kernel_split(self, registry):
        # macro-op fusion blurs instruction boundaries, but every call
        # is optimized on its own: the fused stream must give back
        # per-kernel attribution with total coverage
        p = GemmProblem(9, 9, 9, "d", batch=256)   # multiple kernels
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        prof = obs.profile_plan(plan, stream="fused")
        assert len(prof.kernels) >= 2
        assert sum(k.cycles for k in prof.kernels.values()) \
            == prof.kernel_cycle_budget

    def test_unknown_stream_rejected(self, registry):
        p = GemmProblem(4, 4, 4, "d", batch=64)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        with pytest.raises(ProfileError):
            obs.profile_plan(plan, stream="optimized")


class TestHeadlineReport:
    """Acceptance: the batch-16384 sgemm8 ProfileReport."""

    @pytest.fixture(scope="class")
    def report(self, registry):
        p = GemmProblem(8, 8, 8, "s", batch=16384)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        return obs.profile_report(plan)

    def test_classes_sum_exactly_to_modeled_total(self, report):
        prof = report.profile
        assert (sum(c.cycles for c in prof.classes.values())
                == prof.timing.kernel_cycles_per_group * prof.groups)
        assert prof.total_cycles == prof.timing.total_cycles

    def test_percent_of_peak_against_machine(self, report):
        prof = report.profile
        peak = KUNPENG_920.peak_gflops("s")
        assert prof.percent_of_peak == pytest.approx(
            100.0 * prof.gflops / peak)
        assert 0 < prof.percent_of_peak < 100
        assert "% of peak" in report.render()

    def test_render_mentions_conservation_and_bound(self, report):
        text = report.render()
        for section in ("phase attribution", "instruction classes",
                        "roofline"):
            assert section in text
        assert "conserved" in text
        assert report.profile.bound in text
        assert "FMLA" in text and "LD" in text

    def test_json_round_trip(self, report, tmp_path):
        d = json.loads(json.dumps(report.to_dict()))
        assert d["machine_id"] == "kunpeng-920"
        assert d["roofline"]["peak_gflops"] == KUNPENG_920.peak_gflops("s")
        assert sum(c["cycles"] for c in d["classes"]) \
            == d["kernel_cycle_budget"]

    def test_collapsed_stacks_conserve_compute(self, report):
        total = 0
        for line in report.collapsed().strip().splitlines():
            frames, count = line.rsplit(" ", 1)
            assert frames.startswith("gemm[raw];")
            if ";compute;" in frames:
                total += int(count)
        assert total == report.profile.kernel_cycle_budget

    def test_trace_events_merge_and_validate(self, report):
        with obs.scoped() as reg:
            with obs.span("plan.gemm"):
                pass
            trace = obs.chrome_trace(reg, extra_events=report.trace_events())
        obs.validate_chrome_trace(trace)
        names = [e["name"] for e in trace["traceEvents"]]
        assert "plan.gemm" in names            # wall spans kept
        assert "profile.compute" in names      # modeled track merged


class TestRoofline:
    def test_machine_ridge_is_issue_rule_derived(self):
        m = KUNPENG_920
        # 2 FMA x 4 lanes x 2 flops / (1 mem slot x 16 B) = 1 flop/byte
        assert m.peak_bytes_per_cycle() == 16
        assert m.ridge_intensity("s") == pytest.approx(1.0)
        assert m.ridge_intensity("d") == pytest.approx(0.25)

    def test_machine_id_slug(self):
        assert KUNPENG_920.machine_id == "kunpeng-920"


class TestModelDrift:
    @pytest.mark.slow
    def test_drift_reports_ratio_per_backend(self):
        result = obs.model_drift(GemmProblem(4, 4, 4, "d", batch=64),
                                 repeats=1)
        assert set(result) == {"fused"}
        for d in result.values():
            assert d["predicted_seconds"] > 0
            assert d["wall_seconds"] > 0
            assert d["ratio"] == pytest.approx(
                d["wall_seconds"] / d["predicted_seconds"])
