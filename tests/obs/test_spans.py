"""Span recording and Chrome-trace export/schema tests."""

import json

import pytest

from repro import obs


class TestSpanRecording:
    def test_span_records_name_and_duration(self):
        with obs.scoped() as reg:
            with obs.span("plan.gemm", tuned=False):
                pass
        assert len(reg.spans) == 1
        s = reg.spans[0]
        assert s.name == "plan.gemm"
        assert s.dur_us >= 0
        assert s.args == {"tuned": False}

    def test_nesting_depth_tracked(self):
        with obs.scoped() as reg:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        by_name = {s.name: s for s in reg.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_inner_span_closes_first(self):
        with obs.scoped() as reg:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        assert [s.name for s in reg.spans] == ["inner", "outer"]

    def test_set_attaches_args_mid_span(self):
        with obs.scoped() as reg:
            with obs.span("s") as sp:
                sp.set(result=42)
        assert reg.spans[0].args["result"] == 42

    def test_null_span_supports_same_protocol(self):
        sp = obs.span("anything")           # disabled by default
        with sp as s:
            s.set(ignored=True)             # must not raise


class TestTraceContext:
    def test_root_span_starts_a_trace(self):
        with obs.scoped() as reg:
            with obs.span("root"):
                pass
        s = reg.spans[0]
        assert s.trace_id.startswith("t")
        assert s.span_id.startswith("s")
        assert s.parent_id is None

    def test_nested_spans_share_trace_and_chain_parents(self):
        with obs.scoped() as reg:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        by_name = {s.name: s for s in reg.spans}
        assert by_name["inner"].trace_id == by_name["outer"].trace_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_sibling_roots_get_distinct_traces(self):
        with obs.scoped() as reg:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert reg.spans[0].trace_id != reg.spans[1].trace_id

    def test_no_context_outside_any_span(self):
        with obs.scoped():
            assert obs.current_context() is None
            with obs.span("s"):
                assert obs.current_context() is not None
            assert obs.current_context() is None

    def test_carrier_attach_joins_a_thread_to_the_trace(self):
        import threading

        def worker(car, results):
            with obs.attach(car):
                with obs.span("shard"):
                    pass
            results.append(True)

        with obs.scoped() as reg:
            results = []
            with obs.span("run"):
                car = obs.carrier()
                t = threading.Thread(target=worker, args=(car, results))
                t.start()
                t.join()
        assert results == [True]
        by_name = {s.name: s for s in reg.spans}
        assert by_name["shard"].trace_id == by_name["run"].trace_id
        assert by_name["shard"].parent_id == by_name["run"].span_id

    def test_attach_restores_previous_context(self):
        with obs.scoped():
            with obs.span("a"):
                before = obs.current_context()
                with obs.attach(("tX", "sX", 0)):
                    assert obs.current_context() == ("tX", "sX", 0)
                assert obs.current_context() == before

    def test_spans_on_different_threads_get_distinct_small_tids(self):
        import threading

        with obs.scoped() as reg:
            with obs.span("main-thread"):
                pass
            t = threading.Thread(target=lambda: obs.span("worker").__enter__()
                                 .__exit__(None, None, None))
            t.start()
            t.join()
        tids = {s.tid for s in reg.spans}
        assert len(tids) == 2
        assert all(isinstance(t, int) and t >= 1 for t in tids)

class TestChromeTrace:
    def test_export_round_trips_json(self, tmp_path):
        with obs.scoped() as reg:
            with obs.span("plan.gemm"):
                with obs.span("codegen.generate"):
                    pass
            path = tmp_path / "run.trace.json"
            obs.write_chrome_trace(path, registry=reg)
        with open(path) as f:
            trace = json.load(f)
        obs.validate_chrome_trace(trace)    # schema-checked
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert names == ["codegen.generate", "plan.gemm"]

    def test_events_carry_required_fields(self):
        with obs.scoped() as reg:
            with obs.span("x", detail="hi"):
                pass
            trace = obs.chrome_trace(reg)
        ev = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in ev
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert ev["args"]["detail"] == "hi"
        # exported args also carry the trace context for grouping
        assert ev["args"]["trace_id"].startswith("t")
        assert ev["args"]["span_id"].startswith("s")

    def test_category_is_name_prefix(self):
        with obs.scoped() as reg:
            with obs.span("engine.time_plan"):
                pass
            trace = obs.chrome_trace(reg)
        ev = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
        assert ev["cat"] == "engine"


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_negative_timestamps(self):
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": -1.0,
                                "dur": 0.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(bad)

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"name": "x", "ph": "??"}]}
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(bad)

    def test_accepts_properly_nested_begin_end_pairs(self):
        good = {"traceEvents": [
            {"name": "outer", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "inner", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "inner", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "outer", "ph": "E", "ts": 3.0, "pid": 1, "tid": 1}]}
        obs.validate_chrome_trace(good)     # must not raise

    def test_rejects_end_without_begin(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(bad)

    def test_rejects_improperly_nested_pairs(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 3.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="nested"):
            obs.validate_chrome_trace(bad)

    def test_rejects_negative_span_duration(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "x", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="[Nn]egative"):
            obs.validate_chrome_trace(bad)

    def test_rejects_unclosed_begin(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(bad)

    def test_separate_threads_have_separate_stacks(self):
        good = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 1.0, "pid": 1, "tid": 2},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 3.0, "pid": 1, "tid": 2}]}
        obs.validate_chrome_trace(good)     # per-(pid,tid), not global

    def test_counter_and_instant_events_need_ts_and_ids(self):
        for ph in ("C", "i"):
            good = {"traceEvents": [
                {"name": "x", "ph": ph, "ts": 1.0, "pid": 1, "tid": 1}]}
            obs.validate_chrome_trace(good)  # must not raise
            for bad in (
                    {"name": "x", "ph": ph, "pid": 1, "tid": 1},
                    {"name": "x", "ph": ph, "ts": -1.0, "pid": 1,
                     "tid": 1},
                    {"name": "x", "ph": ph, "ts": 1.0, "tid": 1},
                    {"name": "x", "ph": ph, "ts": 1.0, "pid": 1},
                    {"name": "x", "ph": ph, "ts": 1.0, "pid": "p",
                     "tid": 1}):
                with pytest.raises(ValueError):
                    obs.validate_chrome_trace({"traceEvents": [bad]})

    def test_metadata_events_stay_exempt(self):
        good = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "shard-0"}}]}
        obs.validate_chrome_trace(good)      # no ts required for M

    def test_extra_events_merged_into_export(self):
        extra = [{"name": "modeled", "ph": "X", "ts": 0.0, "dur": 5.0,
                  "pid": 0, "tid": 99, "cat": "profile", "args": {}}]
        with obs.scoped() as reg:
            with obs.span("wall"):
                pass
            trace = obs.chrome_trace(reg, extra_events=extra)
        obs.validate_chrome_trace(trace)
        names = [e["name"] for e in trace["traceEvents"]]
        assert "wall" in names and "modeled" in names

    def test_accepts_exporter_output_for_real_workload(self, tmp_path):
        from repro import IATF
        from repro.types import GemmProblem
        with obs.scoped() as reg:
            IATF().time_gemm(GemmProblem(4, 4, 4, "d", batch=32))
            path = obs.write_chrome_trace(tmp_path / "w.trace.json",
                                          registry=reg)
        with open(path) as f:
            obs.validate_chrome_trace(json.load(f))
        assert len(reg.spans) > 0


class TestMultiPidValidator:
    """Traces spanning several pids: B/E nesting is per (pid, tid)."""

    def test_per_pid_tid_namespaces_do_not_collide(self):
        # the same tid on two pids is two tracks: B/E nesting must be
        # checked per (pid, tid), so interleaving across pids is legal
        good = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 1.0, "pid": 2, "tid": 1},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 3.0, "pid": 2, "tid": 1}]}
        obs.validate_chrome_trace(good)
