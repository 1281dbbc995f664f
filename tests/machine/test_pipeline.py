"""Scoreboard pipeline tests: issue rules, dependencies, latencies, FDIV,
and the equivalences the cheap timing path rests on (per-model decode,
cache-only replay, a golden digest of timed plans)."""

import hashlib
import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.machine.isa import (addi, fdiv, fmla, fmul, ld1r, ld2v, ldpv, ldrv,
                               nop, prfm, st2v, stpv, strv)
from repro.machine.machines import A64FX, KUNPENG_920, XEON_GOLD_6240
from repro.machine.pipeline import (ADDI, LOAD, OTHER, PREFETCH, STORE,
                                    AddressSpace, IssueRules, Latencies,
                                    PipelineModel, TimingResult)
from repro.machine.program import Program


def make_pipe(machine=KUNPENG_920, warm_bytes=4096):
    caches = machine.make_caches()
    caches.warm_range(0, warm_bytes, "l1")
    return machine.make_pipeline(caches)


def simulate(instrs, machine=KUNPENG_920, ew=8, lanes=2, init=None):
    pipe = make_pipe(machine)
    return pipe.simulate(Program("t", instrs, ew=ew, lanes=lanes),
                         init or {0: 0, 1: 1024, 2: 2048})


class TestIssueRules:
    def test_dp_one_fma_per_cycle(self):
        """Kunpeng: fp64 issues at most one FP op per cycle -> N FMAs on
        independent accumulators take ~N cycles."""
        instrs = [fmul(i % 8, 8 + i % 8, 16 + i % 8, ew=8)
                  for i in range(32)]
        # make them fully independent: distinct destinations, sources ready
        instrs = [fmul(i % 28, 28, 29, ew=8) for i in range(28)]
        r = simulate([fmul(28, 28, 28, ew=8)] * 0 + instrs)
        assert r.cycles >= 28

    def test_sp_two_fp_per_cycle(self):
        """fp32 dual-issues FP -> ~N/2 cycles for N independent FMULs
        (the paper's single-precision special case)."""
        instrs = [fmul(i, 30, 31, ew=4) for i in range(28)]
        r = simulate(instrs, ew=4, lanes=4)
        assert r.cycles <= 28 // 2 + 3

    def test_one_mem_per_cycle(self):
        instrs = [ldrv(i, 0, i * 16) for i in range(16)]
        r = simulate(instrs)
        assert r.cycles >= 16

    def test_xeon_two_mem_per_cycle(self):
        instrs = [ldrv(i, 0, i * 64, ew=8) for i in range(16)]
        r = simulate(instrs, machine=XEON_GOLD_6240, lanes=8)
        assert r.cycles <= 16 // 2 + 2

    def test_load_pairs_with_fp_same_cycle(self):
        """Kunpeng can co-issue one load + one FP op."""
        instrs = []
        for i in range(8):
            instrs.append(ldrv(i, 0, i * 16))
            instrs.append(fmul(8 + i, 30, 31, ew=8))
        r = simulate(instrs)
        # 16 instructions, 2-wide with 1 mem + 1 fp per cycle -> ~8 cycles
        assert r.cycles <= 10

    def test_width_bounds_total(self):
        rules = IssueRules(width=1, max_mem=1, max_fp32=1, max_fp64=1,
                           max_int=1)
        lat = Latencies()
        caches = CacheHierarchy(CacheConfig(1024, 2, 64, 10),
                                CacheConfig(4096, 4, 64), 100)
        caches.warm_range(0, 1024, "l1")
        pipe = PipelineModel(rules, lat, caches, 16)
        prog = Program("t", [nop() for _ in range(10)], ew=8, lanes=2)
        r = pipe.simulate(prog, {})
        assert r.cycles >= 10


class TestDependencies:
    def test_raw_dependency_stalls(self):
        dep = simulate([fmul(0, 30, 31, ew=8), fmul(1, 0, 31, ew=8)])
        indep = simulate([fmul(0, 30, 31, ew=8), fmul(1, 30, 31, ew=8)])
        assert dep.cycles > indep.cycles

    def test_accumulator_chain_costs_latency(self):
        """Dependent FMA chain: each link pays the full FMA latency."""
        n = 10
        chain = simulate([fmla(0, 30, 31, ew=8) for _ in range(n)])
        lat = KUNPENG_920.lat.fp_ma
        assert chain.cycles >= (n - 1) * lat

    def test_load_use_latency(self):
        r1 = simulate([ldrv(0, 0, 0), fmul(1, 0, 0, ew=8)])
        r2 = simulate([ldrv(0, 0, 0), fmul(1, 30, 30, ew=8)])
        # wait... v30 uninitialized is fine for timing (ready at 0)
        assert r1.cycles - r2.cycles >= KUNPENG_920.lat.load_use - 1

    def test_addi_creates_address_dependency(self):
        dep = simulate([addi(0, 0, 16), ldrv(0, 0, 0)])
        indep = simulate([addi(3, 0, 16), ldrv(0, 0, 0)])
        assert dep.cycles >= indep.cycles

    def test_in_order_issue(self):
        """A stalled instruction blocks everything behind it (in-order)."""
        stalled_first = simulate([
            fmla(0, 30, 31, ew=8), fmla(0, 30, 31, ew=8),  # chain
            fmul(1, 30, 31, ew=8),                          # independent
        ])
        free_first = simulate([
            fmul(1, 30, 31, ew=8),
            fmla(0, 30, 31, ew=8), fmla(0, 30, 31, ew=8),
        ])
        assert free_first.cycles <= stalled_first.cycles


class TestMemoryTiming:
    def test_cold_load_pays_miss(self):
        pipe = make_pipe(warm_bytes=64)      # only first line warm
        prog = Program("t", [ldrv(0, 0, 0), fmul(1, 0, 0, ew=8)],
                       ew=8, lanes=2)
        warm = pipe.simulate(prog, {0: 0})
        pipe2 = make_pipe(warm_bytes=64)
        cold = pipe2.simulate(prog, {0: 1 << 16})
        assert cold.cycles > warm.cycles + 50

    def test_prfm_hides_latency(self):
        machine = KUNPENG_920
        caches = machine.make_caches()
        pipe = machine.make_pipeline(caches)
        fillers = [fmul(2, 30, 31, ew=8) for _ in range(40)]
        with_pf = Program("t", [prfm(0, 0)] + fillers
                          + [ldrv(0, 0, 0), fmul(1, 0, 0, ew=8)],
                          ew=8, lanes=2)
        r1 = pipe.simulate(with_pf, {0: 0})
        caches2 = machine.make_caches()
        pipe2 = machine.make_pipeline(caches2)
        without = Program("t", fillers + [ldrv(0, 0, 0),
                                          fmul(1, 0, 0, ew=8)],
                          ew=8, lanes=2)
        r2 = pipe2.simulate(without, {0: 0})
        assert r1.cycles < r2.cycles

    def test_l1_miss_counted(self):
        pipe = make_pipe(warm_bytes=64)
        prog = Program("t", [ldrv(0, 0, 0)], ew=8, lanes=2)
        r = pipe.simulate(prog, {0: 1 << 18})
        assert r.l1_misses >= 1


class TestFDIV:
    def test_fdiv_blocks_fp_pipe(self):
        with_div = simulate([fdiv(0, 30, 31, ew=8)]
                            + [fmul(i, 28, 29, ew=8) for i in range(1, 10)])
        without = simulate([fmul(0, 30, 31, ew=8)]
                           + [fmul(i, 28, 29, ew=8) for i in range(1, 10)])
        assert with_div.cycles >= without.cycles + \
            KUNPENG_920.lat.div_block64 - 2

    def test_fdiv32_cheaper_than_fdiv64(self):
        d32 = simulate([fdiv(0, 30, 31, ew=4), fmul(1, 0, 0, ew=4)],
                       ew=4, lanes=4)
        d64 = simulate([fdiv(0, 30, 31, ew=8), fmul(1, 0, 0, ew=8)])
        assert d32.cycles < d64.cycles


class TestTimingResult:
    def test_add_and_scale(self):
        a = TimingResult(10, 1, 5, 2, 3, 2, 1, 0)
        b = TimingResult(20, 3, 7, 1, 4, 3, 0, 1)
        c = a + b
        assert c.cycles == 30 and c.instructions == 12
        assert c.drain_cycles == 3
        s = a.scaled(4)
        assert s.cycles == 40 and s.fp_issued == 12

    def test_ipc(self):
        assert TimingResult(10, 0, 20, 0, 0, 0, 0, 0).ipc == 2.0


class TestAddressSpace:
    def test_placement_alignment_and_disjointness(self):
        asp = AddressSpace()
        a = asp.place("a", 100)
        b = asp.place("b", 100)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 100
        assert "a" in asp and asp.base("a") == a
        assert asp.extent("b") == (b, 100)


def test_dgemm_kernel_reaches_near_peak():
    """End-to-end sanity: the optimized 4x4 DGEMM kernel sustains >85%
    of the machine's DP peak on warm caches (Figure 5's end state)."""
    from repro.codegen.generator_gemm import generate_gemm_kernel
    from repro.codegen.optimizer import schedule_program
    m = KUNPENG_920
    prog = schedule_program(generate_gemm_kernel(4, 4, 32, "d", m), m)
    caches = m.make_caches()
    pipe = m.make_pipeline(caches)
    asp = AddressSpace()
    aA = asp.place("pA", 4 * 32 * 16)
    aB = asp.place("pB", 4 * 32 * 16)
    aC = asp.place("C", 512)
    caches.warm_range(aA, 4 * 32 * 16)
    caches.warm_range(aB, 4 * 32 * 16)
    caches.warm_range(aC, 512)
    init = {0: aA, 1: aB}
    init.update({2 + j: aC + j * 64 for j in range(4)})
    r = pipe.simulate(prog, init)
    gflops = m.gflops(prog.flops_per_group, r.cycles)
    assert gflops > 0.85 * m.peak_gflops("d")


class TestDecode:
    def test_rows_carry_static_facts(self):
        pipe = make_pipe()
        prog = Program("t", [ldpv(0, 1, 0, 32), fmla(2, 0, 1, ew=8),
                             strv(2, 1, 16, nlanes=1), prfm(2, 64),
                             addi(3, 0, 48), fdiv(4, 2, 2, ew=4)],
                       ew=8, lanes=2)
        rows = pipe.decode(prog)
        assert [r[0] for r in rows] == [LOAD, OTHER, STORE, PREFETCH, ADDI,
                                        OTHER]
        assert rows[0][10] == 2 * KUNPENG_920.vector_bytes   # pair load
        assert rows[1][1] == (0, 1, 2)          # accumulator is read
        assert rows[1][4] and rows[1][6] == KUNPENG_920.rules.max_fp64
        assert rows[2][10] == 8                 # one 8-byte lane
        assert rows[3][10] == pipe.caches.line
        assert rows[4][2] == (0,) and rows[4][5]
        assert rows[5][12] == KUNPENG_920.lat.div_block32
        assert rows[1][12] is None
        assert [r[-1] for r in rows] == prog.instrs

    def test_memo_hit_is_the_same_decode(self):
        pipe = make_pipe()
        prog = Program("t", [ldrv(0, 0, 0), fmul(1, 0, 0, ew=8)],
                       ew=8, lanes=2)
        assert pipe.decode(prog) is pipe.decode(prog)

    def test_memo_invalidated_when_instrs_replaced(self):
        pipe = make_pipe()
        prog = Program("t", [ldrv(0, 0, 0), fmul(1, 0, 0, ew=8)],
                       ew=8, lanes=2)
        init = {0: 0}
        before = pipe.decode(prog)
        prog.instrs = [fmla(0, 30, 31, ew=8) for _ in range(6)]
        after = pipe.decode(prog)
        assert after is not before
        assert [r[-1] for r in after] == prog.instrs
        r = pipe.simulate(prog, init)
        assert r.instructions == 6
        fresh = make_pipe().simulate(prog, init)
        assert astuple(r) == astuple(fresh)
        # an equal but distinct list is not trusted either
        prog.instrs = list(prog.instrs)
        assert pipe.decode(prog) is not after

    def test_memo_lives_on_the_model(self):
        prog = Program("t", [ldrv(0, 0, 0)], ew=8, lanes=2)
        a, b = make_pipe(), make_pipe()
        assert a.decode(prog) is not b.decode(prog)
        assert a.decode(prog) == b.decode(prog)


# -- touch == simulate, as far as the caches can tell ----------------------

# register 4 is never given an address, so reading it (as a base or an
# ADDI source) gives 0, as does an ADDI with no source
_BASES = {0: 0, 1: 4096, 2: 9000, 3: 1 << 14}


def _mem_instr():
    reg = st.integers(0, 4)
    off = st.integers(0, 64).map(lambda i: 8 * i)
    v = st.integers(0, 29)
    ew = st.sampled_from((4, 8))
    return st.one_of(
        st.builds(lambda d, b, o, e: ldrv(d, b, o, ew=e), v, reg, off, ew),
        st.builds(lambda d, b, o: ldpv(d, d + 1, b, o), v, reg, off),
        st.builds(lambda d, b, o, e: ld1r(d, b, o, ew=e), v, reg, off, ew),
        st.builds(lambda d, b, o: ld2v(d, d + 1, b, o), v, reg, off),
        st.builds(lambda s, b, o: st2v(s, s + 1, b, o), v, reg, off),
        st.builds(lambda s, b, o, n: strv(s, b, o, nlanes=n), v, reg, off,
                  st.sampled_from((None, 1))),
        st.builds(lambda s, b, o: stpv(s, s + 1, b, o), v, reg, off),
        st.builds(prfm, reg, off),
        st.builds(addi, reg, st.none() | reg,
                  st.integers(0, 64).map(lambda i: 16 * i)),
        st.builds(lambda d: fmla(d, 30, 31, ew=8), v),
    )


def _cache_state(h: CacheHierarchy) -> tuple:
    """Everything later accesses can observe: per-set LRU order on both
    levels, hit/access counters, and the stream window in order."""
    return ([list(s) for s in h.l1._sets], [list(s) for s in h.l2._sets],
            (h.l1.stats.accesses, h.l1.stats.hits),
            (h.l2.stats.accesses, h.l2.stats.hits),
            list(h._recent_misses))


def _small_pipe(vector_bytes: int) -> PipelineModel:
    caches = CacheHierarchy(CacheConfig(1024, 2, 64, 10),
                            CacheConfig(4096, 4, 64), 100)
    caches.warm_range(4096, 512, "l1")
    caches.warm_range(9000, 1024, "l2")
    return PipelineModel(KUNPENG_920.rules, KUNPENG_920.lat, caches,
                         vector_bytes)


@settings(max_examples=40, deadline=None)
@given(st.lists(_mem_instr(), min_size=1, max_size=60),
       st.sampled_from((16, 64)), st.integers(0, 3))
def test_touch_leaves_caches_as_simulate_does(instrs, vector_bytes, shift):
    """The cache pass is exact: after the same invocations (two groups,
    the second shifted like the next group's data), the hierarchy is in
    the same state whether the scoreboard ran or not; the extras the
    cache pass returns give the scoreboard's counts; and a model reused
    across groups, whose memo may hold the first group's counts, times
    every field as a fresh model does."""
    prog = Program("t", instrs, ew=8, lanes=2)
    replayed, timed, fresh = (_small_pipe(vector_bytes) for _ in range(3))
    for group in (0, 1):
        init = {r: a + group * 64 * shift for r, a in _BASES.items()}
        extras = replayed.touch(prog, init)
        r = timed.simulate(prog, init)
        assert replayed.scoreboard(replayed.decode(prog), extras) == \
            astuple(r)[:6]
        # a new model per group over the same caches: an empty memo
        once = PipelineModel(fresh.rules, fresh.lat, fresh.caches,
                             fresh.vector_bytes)
        assert astuple(r) == astuple(once.simulate(prog, init))
        state = _cache_state(replayed.caches)
        for other in (timed, fresh):
            assert _cache_state(other.caches) == state


def test_scoreboard_is_pure():
    """Equal rows and extras give equal counts, from any cache state."""
    prog = Program("t", [ldrv(0, 0, 0), fmla(1, 0, 0, ew=8),
                         addi(0, 0, 64), ldrv(2, 0, 0),
                         fmla(3, 2, 2, ew=8), strv(3, 1, 0)],
                   ew=8, lanes=2)
    pipe = make_pipe()
    rows = pipe.decode(prog)
    before = _cache_state(pipe.caches)
    hot = pipe.scoreboard(rows, (0, 0))
    assert pipe.scoreboard(rows, (0, 0)) == hot
    assert _cache_state(pipe.caches) == before
    cold = pipe.scoreboard(rows, (0, 120))
    assert cold[0] > hot[0] or cold[1] > hot[1]
    assert astuple(make_pipe().simulate(prog, {0: 0, 1: 64}))[:6] == hot


def test_time_plan_scoreboards_repeated_calls_once():
    """A FULL-grid plan whose calls repeat a (program, load extras) key
    runs the scoreboard once per key, not once per call."""
    from perfbench.grids import FULL
    from repro.runtime.engine import Engine
    from repro.tuning.evaluate import Evaluator
    from repro.tuning.tuner import _space_for

    p = next(p for p in FULL.tune
             if getattr(p, "k", None) == 8 and p.dtype.value == "s")
    plan = Evaluator(KUNPENG_920).build_plan(
        p, _space_for(p, KUNPENG_920, False)[0])
    runs = []
    real = PipelineModel.scoreboard

    def spy(self, rows, extras, trace=None):
        runs.append(extras)
        return real(self, rows, extras, trace)

    engine = Engine(KUNPENG_920)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PipelineModel, "scoreboard", spy)
        timing = engine.time_plan(plan)
    assert len(plan.calls) > 1
    assert 1 <= len(runs) < len(plan.calls)
    assert timing.detail.instructions == sum(
        len(c.program.instrs) for c in plan.calls)


# -- golden digest of timed plans ------------------------------------------

SMOKE_TIMING_DIGEST = ("8cfbb3bdefa56265bdb69e3de810439e"
                       "9f299906c2129506c66f016ee439b6db")
"""sha256 over every timing field of 387 plans (see below), pinned from
the cycle model that ran both groups of a plan through the scoreboard.
Any change to any figure the cycle model produces changes it."""


def test_time_plan_golden_digest():
    """Every :meth:`Engine.time_plan` figure — the ``PlanTiming`` cycle
    fields and all eight ``TimingResult`` fields — for the perfbench
    SMOKE problems x each one's tuner candidates x three machines."""
    from perfbench.grids import SMOKE
    from repro.runtime.engine import Engine
    from repro.tuning.evaluate import Evaluator
    from repro.tuning.tuner import _space_for

    digest = hashlib.sha256()
    plans = 0
    for machine in (KUNPENG_920, XEON_GOLD_6240, A64FX):
        ev, engine = Evaluator(machine), Engine(machine)
        for p in SMOKE.bulk + SMOKE.cold + SMOKE.tune:
            for cand in _space_for(p, machine, False):
                t = engine.time_plan(ev.build_plan(p, cand))
                row = [machine.machine_id, repr(p), cand.label,
                       t.kernel_cycles_per_group, t.pack_cycles,
                       t.unpack_cycles, t.overhead_cycles, t.total_cycles,
                       list(astuple(t.detail))]
                digest.update(json.dumps(row).encode() + b"\n")
                plans += 1
    assert plans == 387
    assert digest.hexdigest() == SMOKE_TIMING_DIGEST
