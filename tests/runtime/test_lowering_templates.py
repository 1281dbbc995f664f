"""Per-plan lowering templates: lowering each distinct call binding
once and relocating it must reproduce, command for command, what
lowering every call on its own and optimizing the whole stream gives.

Three equalities pin that down on the benchmark grids and on drawn
problems: each call's slice of ``commands``/``fused_commands`` equals
a one-call plan of just that call; the fused stream and its pass
statistics equal :func:`optimize_commands` over the whole raw stream;
the fused slice of each run of consecutive same-kernel calls (what the
profiler's ``fused`` per-kernel breakdown attributes) equals the
pipeline over its raw span.
A later call that reuses a template but leaves its buffer must still
fail with that call's own error.

Through an engine's store, templates are shared across plans as well:
a plan lowered through a store other plans warmed must equal its fresh
lowering in streams, waves, statistics (but the sharing counts) and the
bytes it leaves, raise the same errors, and stay so under concurrent
lowering; the store is bounded.
"""

import copy
import dataclasses
import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.grids import FULL, SMOKE
from repro import IATF, KUNPENG_920, obs
from repro.errors import LoweringError
from repro.machine.isa import Instr, Op
from repro.runtime.lowering import lower_plan, optimize_commands
from repro.runtime.megakernel import ProgramMemo
from repro.types import GemmProblem, TrsmProblem
from tests.runtime.test_backends import _tampered
from tests.runtime.test_waves import _bytes, _call, _check_levels, _operands

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
                                      compiled.ew)
    assert _canon(fused) == _canon(compiled.fused_commands)
    assert passes == compiled.stats["passes"]


def _segments(compiled):
    """``(kernel, raw start, raw stop, fused start, fused stop)`` per run
    of consecutive same-kernel calls."""
    spans = []
    for (kernel, start, stop), (fstart, fstop) in zip(compiled.call_ranges,
                                                      compiled.fused_ranges):
        if spans and spans[-1][0] == kernel and spans[-1][2] == start:
            spans[-1][2], spans[-1][4] = stop, fstop
        else:
            spans.append([kernel, start, stop, fstart, fstop])
    return spans


def _check_segments(compiled):
    for kernel, start, stop, fstart, fstop in _segments(compiled):
        cmds, _ = optimize_commands(compiled.commands[start:stop],
                                    compiled.lanes, compiled.ew)
        assert (_canon(compiled.fused_commands[fstart:fstop])
                == _canon(cmds)), kernel


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
    """Bulk (reduced batch) and cold grids: a same-kernel run's fused
    slice is the pipeline over its raw span, never a second
    optimization."""
    _check_segments(lower_plan(_plan(problem)))


def test_templates_are_shared_and_reported():
    compiled = lower_plan(_plan(GemmProblem(24, 24, 24, "z", batch=8)))
    assert compiled.stats["calls"] == 96
    assert compiled.stats["templates"] == 1
    assert "96 calls (12 x 8) from 1 template" in compiled.describe()
    report = FW.explain_gemm(GemmProblem(24, 24, 24, "z", batch=8))
    assert "96 calls (12 x 8) from 1 template" in report.render()


def test_relocated_calls_share_non_memory_commands():
    compiled = lower_plan(_plan(GemmProblem(8, 8, 8, "d", batch=4)))
    (_, s0, e0), (_, s3, e3) = compiled.call_ranges[0], compiled.call_ranges[3]
    pairs = list(zip(compiled.commands[s0:e0], compiled.commands[s3:e3]))
    assert any(a is b for a, b in pairs)          # fp commands shared
    assert any(a != b for a, b in pairs)          # memory relocated


def test_execution_builds_only_the_optimized_memory_sites():
    """Waves relocate the optimized stream; the raw stream's memory
    sites are built only when the relocated raw view is read."""
    iatf = IATF(KUNPENG_920)
    p = GemmProblem(8, 8, 8, "d", batch=4)
    iatf.gemm(*(np.ones((4, 8, 8)) for _ in range(3)))
    plan, key, _ = iatf._plan_gemm_keyed(p, False)
    compiled = iatf._compiled_for(key, plan)
    tpls = compiled.templates
    assert all("opt_sites" in vars(t) for t in tpls)
    assert not any("raw_sites" in vars(t) for t in tpls)
    compiled.commands[0]
    assert any("raw_sites" in vars(t) for t in tpls)


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

    @pytest.fixture
    def store(self):
        return None                     # a private store per lowering

    def test_misaligned(self, plan, store):
        with pytest.raises(LoweringError, match=r"\[call 3\]: misaligned"):
            lower_plan(_tampered(plan, call=3, a_off=3), store)

    @pytest.mark.parametrize("a_off", [1 << 20, -512])
    def test_out_of_bounds_same_key(self, plan, store, a_off):
        with pytest.raises(LoweringError,
                           match=r"\[call 3\]: access .* group stride"):
            lower_plan(_tampered(plan, call=3, a_off=a_off), store)

    def test_unknown_buffer(self, plan, store):
        with pytest.raises(LoweringError,
                           match=r"\[call 3\]: plan addresses unknown "
                                 r"buffer 'bogus'"):
            lower_plan(_tampered(plan, call=3, a_buf="bogus"), store)

    @pytest.mark.parametrize("tamper", [
        lambda p: _tampered(p, call=0, a_off=1 << 20),
        lambda p: _tampered(p, call=0, a_off=-512),
        lambda p: _with_stride(p, "packA", 1024 + 4),
        lambda p: _without_buffer(p, "packA"),
    ], ids=["beyond", "before", "stride-not-ew", "unknown"])
    def test_first_call_errors_match_a_fresh_lowering(self, plan, store,
                                                      tamper):
        """Call 0 keeps its key, so a warmed store hands it the stored
        template: the bounds and layout checks must still raise the
        message a fresh lowering raises."""
        bad = tamper(plan)
        with pytest.raises(LoweringError) as fresh:
            lower_plan(bad)
        assert "[call 0]: " in str(fresh.value)
        with pytest.raises(LoweringError) as got:
            lower_plan(bad, store)
        assert str(got.value) == str(fresh.value)


class TestLaterCallErrorsWarmStore(TestLaterCallErrors):
    """The same cases through a store the untampered plan warmed, so
    call 0 (and with it call 3) starts from the stored template."""

    @pytest.fixture
    def store(self, plan):
        store = ProgramMemo()
        assert lower_plan(plan, store).stats["templates_shared"] == 0
        assert lower_plan(plan, store).stats["templates_shared"] == 1
        return store


    def test_bindings_of_one_program_match_the_parent(self, store):
        """strsm 13 binds two of its programs at two PB->PC distances
        each: the second binding of each starts from the first's program
        pass (through the warm store, too), and every template's raw
        stream, optimized stream and pass statistics hash to what
        lowering each binding on its own gave."""
        plan = _plan(_trsm(13, 13, "s", "LLNN", 8))
        for _ in range(2):
            compiled = lower_plan(plan, store)
            assert compiled.stats["templates"] == 9
            assert compiled.stats["templates_shared"] in (0, 9)
            assert _templates_digest(compiled) == STRSM13_TEMPLATES
        one = lower_plan(plan)
        assert one.stats["programs_shared"] == 2
        assert _templates_digest(one) == STRSM13_TEMPLATES


STRSM13_TEMPLATES = ("7ff5983b843a454d88da4a4fa3361c84"
                     "a9e3f70f28a842fe9f916f46f0cba820")
"""sha256 over each strsm 13 LLNN template's kernel, raw stream,
optimized stream and pass statistics, as lowering every binding on its
own gave them."""


def _templates_digest(compiled):
    def plain(cmds):
        return [[x.tolist() if isinstance(x, np.ndarray)
                 else [type(x).__name__, float(x)]
                 if isinstance(x, np.generic)
                 else [x.start, x.stop] if isinstance(x, slice) else x
                 for x in cmd] for cmd in cmds]
    digest = hashlib.sha256()
    for tpl in compiled.templates:
        digest.update(json.dumps([tpl.name, plain(tpl.raw), plain(tpl.opt),
                                  tpl.passes], sort_keys=True).encode())
    return digest.hexdigest()


def _with_stride(plan, buf, stride_bytes):
    plan = copy.copy(plan)
    plan.buffers = dict(plan.buffers)
    plan.buffers[buf] = dataclasses.replace(plan.buffers[buf],
                                            group_stride_bytes=stride_bytes)
    return plan


def _without_buffer(plan, buf):
    plan = copy.copy(plan)
    plan.buffers = {k: v for k, v in plan.buffers.items() if k != buf}
    return plan


# -- templates shared across plans ---------------------------------------------

def _trsm(m, n, dtype, mode, batch):
    return TrsmProblem(m, n, dtype, *mode, batch=batch)


SHARING = {
    # lower-notrans and upper-trans solves pack to the same kernels
    **{f"strsm{m}-LLNN-LUTN": ([_trsm(m, m, "s", "LLNN", 8),
                               _trsm(m, m, "s", "LUTN", 8)], True)
       for m in (4, 8, 13)},
    # different kernels (column strides 512 vs 544 B): nothing to share
    "ztrsm-16x16-17x33": ([_trsm(16, 16, "z", "LLNN", 4),
                           _trsm(17, 33, "z", "LLNN", 4)], False),
    "sgemm8-batch8-40": ([GemmProblem(8, 8, 8, "s", batch=8),
                          GemmProblem(8, 8, 8, "s", batch=40)], True),
}


def _prepared(fw, problem):
    if isinstance(problem, GemmProblem):
        return fw.prepare_gemm(problem)[1]
    return fw.prepare_trsm(problem)[1]


SHARING_COUNTS = ("templates_shared", "programs_shared")


def _assert_same_lowering(got, want):
    assert _canon(got.commands) == _canon(want.commands)
    assert _canon(got.fused_commands) == _canon(want.fused_commands)
    assert (got.call_ranges, got.fused_ranges) == (want.call_ranges,
                                                   want.fused_ranges)
    assert got.buffers == want.buffers
    assert ([(w.level, w.calls, w.lattice) for w in got.waves]
            == [(w.level, w.calls, w.lattice) for w in want.waves])
    assert ({k: v for k, v in got.stats.items() if k not in SHARING_COUNTS}
            == {k: v for k, v in want.stats.items()
                if k not in SHARING_COUNTS})
    assert want.stats["templates_shared"] == 0


@pytest.mark.parametrize("problems,shares", SHARING.values(),
                         ids=SHARING.keys())
def test_shared_store_lowers_what_a_fresh_store_lowers(problems, shares):
    """Each plan lowered through one IATF's store equals its lowering
    through a fresh IATF, and leaves the same bytes on every execute
    (the first replays, the second runs generated code)."""
    fw = IATF(KUNPENG_920)
    for i, problem in enumerate(problems):
        fresh = IATF(KUNPENG_920)
        got = _prepared(fw, problem)
        _assert_same_lowering(got, _prepared(fresh, problem))
        if i:
            assert got.stats["templates_shared"] == (
                got.stats["templates"] if shares else 0)
            assert ("shared)" in got.calls_summary()) is shares
        for seed in range(2):
            ops = _operands(problem, seed)
            assert np.array_equal(_bytes(_call(fw, problem, ops)),
                                  _bytes(_call(fresh, problem, ops))), seed


def test_sharing_is_counted_and_reported():
    """The counter, ``describe()`` and explain say a cold plan reused
    an earlier plan's templates."""
    fw = IATF(KUNPENG_920)
    first, second = SHARING["strsm8-LLNN-LUTN"][0]
    with obs.scoped() as reg:
        fw.prepare_trsm(first)
        assert reg.counters().get("lower.templates.shared", 0) == 0
        compiled = fw.prepare_trsm(second)[1]
        assert reg.counters()["lower.templates.shared"] == 2
    assert "6 calls (2 x 3) from 2 templates (2 shared) in 3 waves" in (
        compiled.describe())
    assert "(2 shared)" in fw.explain_trsm(second).render()


def test_stride_off_16_bytes_is_rejected_through_the_store():
    """A plan that binds a stored template's buffer at a group stride
    off the 16-byte grid must not borrow the template: it raises the
    error a fresh lowering raises, and the store keeps only the valid
    plan's template."""
    plan = _plan(GemmProblem(8, 8, 8, "d", batch=4))
    odd = _with_stride(plan, "C", plan.buffers["C"].group_stride_bytes + 8)
    with pytest.raises(LoweringError) as fresh:
        lower_plan(odd)
    assert str(fresh.value) == (
        "dgemm_4x4_k8_a1.0_b1.0 @pc=196 (ldp   q0, q1, [x2, #0]) [call 0]: "
        "buffer 'C' group stride 1032 B is not a multiple of 16 B")
    store = ProgramMemo()
    lower_plan(plan, store)
    with pytest.raises(LoweringError) as warm:
        lower_plan(odd, store)
    assert str(warm.value) == str(fresh.value)
    assert len(store) == 1 and store.generated == 1
    again = lower_plan(plan, store)
    assert again.stats["templates_shared"] == 1
    _assert_same_lowering(again, lower_plan(plan))


def test_store_is_a_bounded_lru():
    plan = _plan(_trsm(13, 13, "s", "LLNN", 8))
    n = lower_plan(plan).stats["templates"]
    assert n > 2
    small = ProgramMemo(maxsize=2)
    first = lower_plan(plan, small)
    assert len(small) == 2 and small.evictions == n - 2
    assert small.generated == n
    again = lower_plan(plan, small)       # each key evicted before reuse
    assert again.stats["templates_shared"] == 0
    _assert_same_lowering(again, first)
    roomy = ProgramMemo(maxsize=n)
    lower_plan(plan, roomy)
    assert lower_plan(plan, roomy).stats["templates_shared"] == n
    assert roomy.evictions == 0


def test_concurrent_lowering_through_one_iatf(monkeypatch):
    """Threads (more than cores, switching often) lowering
    template-sharing plans through one IATF, each in its own order, get
    the plans serial lowering gives; the store counts every template
    lowered and holds the keys serial lowering stores, and its passes
    companion does the same for the program passes the threads share
    (strsm 13 binds two programs at two root distances each)."""
    from repro.runtime import lowering

    problems = [p for ps, shares in SHARING.values() if shares for p in ps]
    fw = IATF(KUNPENG_920)
    made = {"_coalesce_mem": 0, "_program_pass": 0}
    lock = threading.Lock()

    def counted(name):
        real = getattr(lowering, name)

        def spy(*args):
            with lock:
                made[name] += 1
            return real(*args)
        return spy
    for name in made:       # once per template lowered / pass made
        monkeypatch.setattr(lowering, name, counted(name))
    workers = 4
    barrier = threading.Barrier(workers, timeout=30.0)
    got: "list[list]" = [[] for _ in range(workers)]
    errors = []

    def order(i: int) -> list:
        return problems[i:] + problems[:i]

    def lower(i: int) -> None:
        try:
            barrier.wait()
            for problem in order(i):
                got[i].append(_prepared(fw, problem))
        except Exception as exc:       # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=lower, args=(i,))
               for i in range(workers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    store = fw.engine.templates
    assert store.generated == made["_coalesce_mem"]
    assert store.passes.generated == made["_program_pass"]
    serial = dict(zip(problems, (_prepared(IATF(KUNPENG_920), p)
                                 for p in problems)))
    for i in range(workers):
        assert len(got[i]) == len(problems)
        for problem, compiled in zip(order(i), got[i]):
            _assert_same_lowering(compiled, serial[problem])
    one = IATF(KUNPENG_920)             # the keys serial sharing stores
    for problem in problems:
        _prepared(one, problem)
    assert len(store) == len(one.engine.templates)
    assert len(store.passes) == len(one.engine.templates.passes)
    assert len(store.passes) < len(store)      # templates shared passes


# -- repeated call blocks ------------------------------------------------------

def _copies(plan, head, copies, shift):
    """``plan`` with its first ``head`` calls repeated ``copies`` times,
    copy ``k`` moved ``k * shift[buffer]`` bytes in every buffer."""
    def moved(call, k):
        def at(buf, off):
            return off + k * shift.get(buf, 0)
        return dataclasses.replace(
            call, a_off=at(call.a_buf, call.a_off),
            b_off=at(call.b_buf, call.b_off),
            c_offsets=tuple(at(call.c_buf, o) for o in call.c_offsets),
            x_off=(call.x_off if call.x_buf is None
                   else at(call.x_buf, call.x_off)))
    plan = copy.copy(plan)
    plan.calls = [moved(c, k) for k in range(copies)
                  for c in plan.calls[:head]]
    return plan


def _call_by_call(plan, store=None):
    """``lower_plan`` with block detection off: every call keyed, fitted
    and levelled on its own."""
    from repro.runtime import lowering
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowering, "_repeat", lambda calls: None)
        return lower_plan(plan, store)


BLOCK_STATS = ("block", "blocks_translated")


def _assert_translated_like(got, want):
    """``got`` equals the call-by-call lowering ``want`` in streams,
    ranges, buffers, every wave field and the statistics but the block
    ones."""
    assert _canon(got.commands) == _canon(want.commands)
    assert _canon(got.fused_commands) == _canon(want.fused_commands)
    assert (got.call_ranges, got.fused_ranges) == (want.call_ranges,
                                                   want.fused_ranges)
    assert got.buffers == want.buffers
    assert list(got.buffers) == list(want.buffers)
    assert ([(w.level, w.template, w.calls, w.buffers, w.deltas, w.lattice)
             for w in got.waves]
            == [(w.level, w.template, w.calls, w.buffers, w.deltas, w.lattice)
                for w in want.waves])
    assert ({k: v for k, v in got.stats.items() if k not in BLOCK_STATS}
            == {k: v for k, v in want.stats.items() if k not in BLOCK_STATS})
    assert want.stats["block"] is None
    assert want.stats["blocks_translated"] == 0


BLOCKS = {
    # name: (problem, (copies, calls per block))
    "sgemm4x8": (GemmProblem(4, 8, 4, "s", batch=4), (2, 1)),
    "sgemm4x12": (GemmProblem(4, 12, 4, "s", batch=4), (3, 1)),
    "dgemm8x16x3": (GemmProblem(8, 16, 3, "d", batch=4), (4, 2)),
    "strsm8": (_trsm(8, 8, "s", "LLNN", 4), (2, 3)),
    "dgemm12x12x5": (GemmProblem(12, 12, 5, "d", batch=6), (3, 3)),
    "ztrsm17x33": (_trsm(17, 33, "z", "LLNN", 5), (17, 45)),
}


@pytest.mark.parametrize("problem,shape", BLOCKS.values(), ids=BLOCKS.keys())
def test_block_translation_equals_call_by_call(problem, shape):
    """Blocks of 1, 2, 3 and 45 calls: binding only the first block and
    translating the rest gives the call-by-call lowering, whose levels
    pass the brute-force conflict check."""
    plan = _plan(problem)
    got = lower_plan(plan)
    assert got.stats["block"] == shape
    assert got.stats["blocks_translated"] == len(plan.calls) - shape[1]
    assert f"{len(plan.calls)} calls ({shape[0]} x {shape[1]}) from" in (
        got.calls_summary())
    want = _call_by_call(plan)
    _assert_translated_like(got, want)
    _check_levels(got)


def test_one_call_plan_translates_nothing():
    plan = _plan(_trsm(4, 12, "s", "LLNN", 4))
    assert len(plan.calls) == 1
    got = lower_plan(plan)
    assert got.stats["block"] is None and got.stats["blocks_translated"] == 0
    assert got.calls_summary() == "1 calls from 1 template in 1 wave"


@pytest.mark.parametrize("problem", FULL.cold, ids=repr)
def test_cold_grid_blocks_equal_call_by_call(problem):
    plan = _plan(problem)
    _assert_translated_like(lower_plan(plan), _call_by_call(plan))


# copies of a real block moved less than the block writes: the copies
# conflict, so every call must be levelled on its own
OVERLAPPING = {
    "1-call": (GemmProblem(4, 8, 4, "s", batch=4), 1, {"packB": 16, "C": 16}),
    "2-call": (GemmProblem(8, 16, 3, "d", batch=4), 2, {"packB": 16,
                                                        "C": 16}),
    "3-call": (_trsm(8, 8, "s", "LLNN", 4), 3, {"workB": 16}),
}


@pytest.mark.parametrize("problem,head,shift", OVERLAPPING.values(),
                         ids=OVERLAPPING.keys())
def test_overlapping_copies_level_every_call(problem, head, shift):
    plan = _copies(_plan(problem), head, 3, shift)
    got = lower_plan(plan)
    assert got.stats["block"] == (3, head)       # bound by translation
    _assert_translated_like(got, _call_by_call(plan))
    _check_levels(got)
    assert max(w.level for w in got.waves) > max(
        w.level for w in lower_plan(_copies(plan, head, 1, {})).waves)


@pytest.mark.parametrize("problem,head,shift", [
    (GemmProblem(4, 8, 4, "s", batch=4), 1, {"packB": 8, "C": 8}),
    (GemmProblem(8, 16, 3, "d", batch=4), 2, {"packB": 8, "C": 8}),
    (_trsm(8, 8, "s", "LLNN", 4), 3, {"workB": 8}),
], ids=["1-call", "2-call", "3-call"])
def test_shift_off_16_bytes_is_not_translated(problem, head, shift):
    """Copies 8 B apart key differently mod 16 B, so no block is
    translated: the calls bind one by one, and the first call of the
    second copy, off the 16-byte grid, raises its own error (the one
    call-by-call lowering raises)."""
    plan = _copies(_plan(problem), head, 3, shift)
    with pytest.raises(LoweringError,
                       match=rf"\[call {head}\]: misaligned access .* "
                             rf"not a multiple of 16\)") as got:
        lower_plan(plan)
    with pytest.raises(LoweringError) as want:
        _call_by_call(plan)
    assert str(got.value) == str(want.value)


# the last copy leaves a buffer's group stride: the lowering must raise
# what lowering call by call raised before blocks were translated
LEAVING = {
    # the first call of the last copy leaves packB
    "1-call": ((GemmProblem(4, 8, 4, "s", batch=4), 1, 3,
                {"packB": 256, "C": 256}),
               "sgemm_4x4_k4_a1.0_b1.0 @pc=12 (ldp   q8, q9, [x1, #0]) "
               "[call 2]: access [128, 136) of 'packB' leaves the group "
               "stride (128 elements)"),
    # the last copy's first call fits, its second leaves C
    "2-call": ((GemmProblem(8, 16, 3, "d", batch=4), 2, 3, {"C": 784}),
               "dgemm_4x4_k3_a1.0_b1.0 @pc=101 (ldp   q6, q7, [x5, #32]) "
               "[call 5]: access [256, 260) of 'C' leaves the group stride "
               "(256 elements)"),
    # the last copy's second call leaves workB
    "3-call": ((_trsm(8, 8, "s", "LLNN", 4), 3, 3, {"workB": 272}),
               "strsm_rect_4x4_k4_xs128 @pc=7 (ldp   q30, q31, [x5, #32]) "
               "[call 7]: access [256, 264) of 'workB' leaves the group "
               "stride (256 elements)"),
}


@pytest.mark.parametrize("case,message", LEAVING.values(),
                         ids=LEAVING.keys())
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_last_copy_leaving_the_stride_raises_the_call_error(case, message,
                                                            warm):
    problem, head, copies, shift = case
    plan = _copies(_plan(problem), head, copies, shift)
    store = ProgramMemo()
    if warm:
        lower_plan(_copies(_plan(problem), head, copies - 1, shift), store)
    with pytest.raises(LoweringError) as got:
        lower_plan(plan, store)
    assert str(got.value) == message
    with pytest.raises(LoweringError) as want:
        _call_by_call(plan)
    assert str(want.value) == message


# -- the per-program pass --------------------------------------------------------

def _vmov(dst, src):
    return Instr(Op.VMOV, dst=(dst,), srcs=(src,))


def _with_instrs(prog, **at):
    """``prog`` with the instructions at the given ``pcN`` replaced (a
    new program object, so nothing memoized for ``prog`` applies)."""
    instrs = list(prog.instrs)
    for pc, ins in at.items():
        instrs[int(pc[2:])] = ins(instrs[int(pc[2:])])
    return dataclasses.replace(prog, instrs=instrs)


# dgemm 4x4 k8, call 0 of dgemm 8x8x8: pc 4 is the first load through PA
# (x0), pc 12 the first through PB (x1); v20 is first written at pc 24,
# so a VMOV from it before then reads before write
READ_V20 = lambda ins: _vmov(16, 20)                    # noqa: E731
UNBOUND = lambda ins: dataclasses.replace(ins, base=6)  # noqa: E731
STORE_V20 = lambda ins: Instr(Op.STPV, srcs=(20, 21), base=2)  # noqa: E731

# the errors lowering each call on its own raised, by case
_D = "dgemm_4x4_k8_a1.0_b1.0 @pc="
_V20 = "[call 0]: vector register v20 read before write"

PRECEDENCE = {
    # name: (instructions replaced, binding tamper, the error)
    "misaligned-first": (
        {"pc12": READ_V20}, {"a_off": 4},
        _D + "4 (ldp   q0, q1, [x0, #0]) [call 0]: misaligned access into "
             "'packA' (offset 4 not a multiple of 8)"),
    "register-first-misaligned": (
        {"pc2": READ_V20}, {"a_off": 4},
        _D + "2 (mov   v16.16b, v20.16b) " + _V20),
    "bounds-first": (
        {"pc20": READ_V20}, {"b_off": 1 << 20},
        _D + "12 (ldp   q8, q9, [x1, #0]) [call 0]: access [131072, 131076) "
             "of 'packB' leaves the group stride (128 elements)"),
    "register-first-bounds": (
        {"pc6": READ_V20}, {"b_off": 1 << 20},
        _D + "6 (mov   v16.16b, v20.16b) " + _V20),
    "unbound-first": (
        {"pc12": UNBOUND, "pc20": READ_V20}, {},
        _D + "12 (ldp   q8, q9, [x6, #0]) [call 0]: scalar register x6 "
             "read before write"),
    "register-first-unbound": (
        {"pc8": READ_V20, "pc12": UNBOUND}, {},
        _D + "8 (mov   v16.16b, v20.16b) " + _V20),
    "register-only": (
        {"pc12": READ_V20}, {},
        _D + "12 (mov   v16.16b, v20.16b) " + _V20),
    # one store both reads an unwritten register and misses alignment:
    # its register check comes first
    "store-register-and-misaligned": (
        {"pc4": STORE_V20}, {"c_offsets": (4, 128, 256, 384)},
        _D + "4 (stp   q20, q21, [x2, #0]) " + _V20),
}


def _precedence_plan(at, binding):
    plan = _plan(GemmProblem(8, 8, 8, "d", batch=4))
    prog = _with_instrs(plan.calls[0].program, **at)
    return _tampered(plan, call=0, program=prog, **binding)


@pytest.mark.parametrize("at,binding,message", PRECEDENCE.values(),
                         ids=PRECEDENCE.keys())
def test_first_error_keeps_its_precedence(at, binding, message):
    """A program with a register error and a binding with an address
    error (misaligned, out of bounds, unbound root) raise the error at
    the lower pc, as lowering each call on its own did, both from a
    cold store and from one whose passes companion holds the program."""
    plan = _precedence_plan(at, binding)
    store = ProgramMemo()
    for warm in (False, True):
        made = store.passes.generated
        with pytest.raises(LoweringError) as got:
            lower_plan(plan, store)
        assert str(got.value) == message
        assert store.passes.generated == made + (not warm)
