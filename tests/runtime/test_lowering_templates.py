"""Per-plan lowering templates: lowering each distinct call binding
once and relocating it must reproduce, command for command, what
lowering every call on its own and optimizing the whole stream gives.

Three equalities pin that down on the benchmark grids and on drawn
problems: each call's slice of ``commands``/``fused_commands`` equals
a one-call plan of just that call; the fused stream and its pass
statistics equal :func:`optimize_commands` over the whole raw stream;
each megakernel trace segment equals the pipeline over its raw span.
A later call that reuses a template but leaves its buffer must still
fail with that call's own error.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.grids import FULL, SMOKE
from repro import IATF, KUNPENG_920
from repro.errors import LoweringError
from repro.runtime.lowering import (lower_plan, optimize_commands,
                                    partition_trace)
from repro.types import GemmProblem, TrsmProblem
from tests.runtime.test_backends import _tampered

FW = IATF(KUNPENG_920)


def _plan(problem):
    if isinstance(problem, GemmProblem):
        return FW.plan_gemm(problem)
    return FW.plan_trsm(problem)


def _canon(cmds):
    """Commands in a form ``==`` compares exactly: index-array selectors
    as lists, NumPy immediates tagged with their type."""
    return [tuple(("sel", x.tolist()) if isinstance(x, np.ndarray)
                  else (type(x).__name__, x) if isinstance(x, np.generic)
                  else x for x in cmd) for cmd in cmds]


def _strides(compiled):
    return {name: lay.stride_bytes for name, lay in compiled.buffers.items()}


def _check_calls_match_one_call_plans(plan, compiled):
    assert len(compiled.fused_ranges) == len(compiled.call_ranges)
    for i, ((name, start, stop), (fstart, fstop)) in enumerate(
            zip(compiled.call_ranges, compiled.fused_ranges)):
        one = copy.copy(plan)
        one.calls = [plan.calls[i]]
        alone = lower_plan(one)
        assert alone.call_ranges == [(name, 0, stop - start)]
        assert alone.stats["templates"] == 1
        assert _canon(alone.commands) == _canon(compiled.commands[start:stop])
        assert (_canon(alone.fused_commands)
                == _canon(compiled.fused_commands[fstart:fstop])), i


def _check_whole_stream(compiled):
    fused, passes = optimize_commands(compiled.commands, compiled.lanes,
                                      compiled.ew, _strides(compiled))
    assert _canon(fused) == _canon(compiled.fused_commands)
    assert passes == compiled.stats["passes"]


def _check_segments(compiled):
    for seg in partition_trace(compiled):
        cmds, passes = optimize_commands(compiled.commands[seg.start:seg.stop],
                                         compiled.lanes, compiled.ew,
                                         _strides(compiled))
        assert _canon(seg.commands) == _canon(cmds), seg.kernel
        assert seg.max_stack == passes["max_stack"]


def _check_all(problem):
    plan = _plan(problem)
    compiled = lower_plan(plan)
    _check_calls_match_one_call_plans(plan, compiled)
    _check_whole_stream(compiled)
    _check_segments(compiled)
    return compiled


SMOKE_PROBLEMS = SMOKE.bulk + SMOKE.cold + SMOKE.tune


@pytest.mark.parametrize("problem", SMOKE_PROBLEMS, ids=repr)
def test_smoke_grid_matches_per_call_and_whole_stream(problem):
    _check_all(problem)


@pytest.mark.parametrize("problem", SMOKE.bulk + FULL.cold, ids=repr)
def test_segments_equal_pipeline_over_raw_span(problem):
    """Bulk (reduced batch) and cold grids: trace segments are slices of
    the fused stream, never a second optimization."""
    _check_segments(lower_plan(_plan(problem)))


def test_templates_are_shared_and_reported():
    compiled = lower_plan(_plan(GemmProblem(24, 24, 24, "z", batch=8)))
    assert compiled.stats["calls"] == 96
    assert compiled.stats["templates"] == 1
    assert "96 calls from 1 template" in compiled.describe()
    report = FW.explain_gemm(GemmProblem(24, 24, 24, "z", batch=8))
    assert "96 calls from 1 template" in report.render()


def test_relocated_calls_share_non_memory_commands():
    compiled = lower_plan(_plan(GemmProblem(8, 8, 8, "d", batch=4)))
    (_, s0, e0), (_, s3, e3) = compiled.call_ranges[0], compiled.call_ranges[3]
    pairs = list(zip(compiled.commands[s0:e0], compiled.commands[s3:e3]))
    assert any(a is b for a, b in pairs)          # fp commands shared
    assert any(a != b for a, b in pairs)          # memory relocated


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(1, 33), n=st.integers(1, 33), k=st.integers(1, 33),
       dtype=st.sampled_from("sdcz"), mode=st.sampled_from(["NN", "NT",
                                                            "TN", "TT"]),
       batch=st.integers(1, 9))
def test_drawn_gemm(m, n, k, dtype, mode, batch):
    _check_all(GemmProblem(m, n, k, dtype, mode[0], mode[1], batch=batch))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(1, 33), n=st.integers(1, 33),
       dtype=st.sampled_from("sdcz"),
       mode=st.sampled_from(["LLNN", "LUTN", "RLNN", "RUTU", "RLTN"]),
       batch=st.integers(1, 9))
def test_drawn_trsm(m, n, dtype, mode, batch):
    _check_all(TrsmProblem(m, n, dtype, *mode, batch=batch))


class TestLaterCallErrors:
    """Call 3 of dgemm 8x8x8 reuses call 0's template; tampering it must
    raise that call's error, whether the tamper changes the template key
    or only moves the call out of its buffer."""

    @pytest.fixture(scope="class")
    def plan(self):
        plan = _plan(GemmProblem(8, 8, 8, "d", batch=4))
        compiled = lower_plan(plan)
        assert compiled.stats["templates"] == 1 < len(plan.calls) == 4
        return plan

    def test_misaligned(self, plan):
        with pytest.raises(LoweringError, match=r"\[call 3\]: misaligned"):
            lower_plan(_tampered(plan, call=3, a_off=3))

    @pytest.mark.parametrize("a_off", [1 << 20, -512])
    def test_out_of_bounds_same_key(self, plan, a_off):
        with pytest.raises(LoweringError,
                           match=r"\[call 3\]: access .* group stride"):
            lower_plan(_tampered(plan, call=3, a_off=a_off))

    def test_unknown_buffer(self, plan):
        with pytest.raises(LoweringError,
                           match=r"\[call 3\]: plan addresses unknown "
                                 r"buffer 'bogus'"):
            lower_plan(_tampered(plan, call=3, a_buf="bogus"))
