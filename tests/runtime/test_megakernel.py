"""The ``fused`` executor's generated tier (:mod:`repro.runtime.megakernel`).

Bit-equivalence of both tiers across the backend matrix lives in
``test_backends.py``; this module covers what is unique to code
generation: deterministic source, the tier rule (first execute replays,
the second generates, programs are shared by stream across plans and
memoized per engine), and special-value replay.
"""

import numpy as np
import pytest

import repro.obs as obs
from perfbench.grids import SMOKE
from repro.layout import CompactBatch
from repro.machine.machines import A64FX, KUNPENG_920, XEON_GOLD_6240
from repro.runtime import megakernel
from repro.runtime.engine import Engine
from repro.runtime.iatf import IATF
from repro.runtime.lowering import lower_plan
from repro.runtime.megakernel import ProgramMemo, generate_source
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import random_batch, random_triangular

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}

# NaN/Inf operands are the point of the special-value cases
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def iatf():
    return IATF(KUNPENG_920)


def _gemm_runner(fw, p, rng):
    """A closure running ``p`` once on fresh compact operands through
    ``fw`` and returning C's bytes."""
    lanes = LANES[p.dtype.value]
    a = random_batch(rng, p.batch, *p.a_shape, p.dtype.value)
    b = random_batch(rng, p.batch, *p.b_shape, p.dtype.value)
    c = random_batch(rng, p.batch, *p.c_shape, p.dtype.value)

    def run():
        cc = CompactBatch.from_matrices(c, lanes)
        fw.gemm_compact(p, CompactBatch.from_matrices(a, lanes),
                        CompactBatch.from_matrices(b, lanes), cc)
        return cc.buffer.tobytes()
    return run


def _generated(fw) -> int:
    return fw.engine.programs.generated


class TestCodegen:
    def test_generated_source_is_deterministic(self, iatf):
        """Same stream -> byte-identical source, both across repeated
        codegen of one lowering and across independent lowerings of
        the same plan (no dict-order or id() leakage)."""
        p = GemmProblem(8, 8, 8, "s", batch=128)
        c1 = lower_plan(iatf.plan_gemm(p))
        c2 = lower_plan(iatf.plan_gemm(p))
        t1, t2 = c1.templates[0], c2.templates[0]
        s1a, k1a, _ = generate_source(t1.wave_form[0], c1.lanes, c1.ew)
        s1b, k1b, _ = generate_source(t1.wave_form[0], c1.lanes, c1.ew)
        s2, k2, _ = generate_source(t2.wave_form[0], c2.lanes, c2.ew)
        assert s1a == s1b == s2
        assert list(k1a) == list(k1b) == list(k2)
        assert t1.program_key == t2.program_key

    def test_generated_source_shape(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(8, 8, 8, "s",
                                                         batch=128)))
        tpl = compiled.templates[0]
        src, _consts, meta = generate_source(tpl.wave_form[0],
                                             compiled.lanes, compiled.ew)
        assert src.startswith("def run(M, F, R, T, K, MC, RC):")
        # straight-line numpy: no interpreter loop, no branches
        assert "for " not in src and "if " not in src
        # the outer-product macro-ops became single broadcast multiplies
        assert meta["stats"]["batched_macc"] > 0
        assert meta["stats"]["scalar_macc"] == 0

    def test_program_compiles_and_caches(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(33, 33, 33, "d",
                                                         batch=4)))
        memo = ProgramMemo()
        with obs.scoped() as reg:
            bound1 = megakernel.ensure_program(compiled, memo)
            bound2 = megakernel.ensure_program(compiled, memo)
            counters = reg.counters()
        assert bound1 is bound2 is compiled.programs and bound1.complete
        n = len(compiled.templates)
        assert memo.generated == n == len(memo) > 1
        assert counters.get("fused.codegen.programs", 0) == n
        loc = sum(p.source.count("\n") for p in bound1.programs)
        assert bound1.stats["loc"] == loc > 0
        assert counters.get("fused.codegen.loc", 0) == loc
        # a second lowering of the plan finds every stream generated
        again = megakernel.ensure_program(
            lower_plan(iatf.plan_gemm(GemmProblem(33, 33, 33, "d",
                                                  batch=4))), memo)
        assert again.programs == bound1.programs
        assert again.stats["loc"] == 0 and memo.generated == n

    def test_second_run_compiles_nothing(self, rng):
        """The tier rule end to end: the first execute replays, the
        second generates the plan's programs, every later one only runs
        them."""
        fw = IATF(KUNPENG_920)
        run = _gemm_runner(fw, GemmProblem(8, 8, 8, "s", batch=32), rng)
        first = run()
        assert _generated(fw) == 0
        assert run() == first
        made = _generated(fw)
        assert made >= 1
        compiled = fw._plan_cache.get_compiled(
            fw._cache_key("gemm", GemmProblem(8, 8, 8, "s", batch=32),
                          False, None))
        assert compiled.runs == 2 and compiled.programs.complete
        with obs.scoped() as reg:
            assert run() == first
            counters = reg.counters()
        assert _generated(fw) == made
        assert counters.get("fused.codegen.programs", 0) == 0


class TestTiers:
    def test_plans_executed_once_generate_nothing(self, rng):
        fw = IATF(KUNPENG_920)
        for p in SMOKE.cold:
            if isinstance(p, GemmProblem):
                _gemm_runner(fw, p, rng)()
        assert _generated(fw) == 0 and len(fw.engine.programs) == 0

    def test_streams_are_shared_across_group_counts(self, rng):
        """A stream does not depend on the group count, so the plan of a
        new batch size runs generated code on its first execute without
        generating anything."""
        fw = IATF(KUNPENG_920)
        p = GemmProblem(8, 8, 8, "s", batch=32)
        run = _gemm_runner(fw, p, rng)
        run()
        run()
        made = _generated(fw)
        other = p.with_batch(96)
        ref = _gemm_runner(IATF(KUNPENG_920, backend="interpret"), other,
                           np.random.default_rng(5))()
        assert _gemm_runner(fw, other, np.random.default_rng(5))() == ref
        assert _generated(fw) == made
        _, compiled, _ = fw.prepare_gemm(other)
        assert compiled.runs == 1 and compiled.programs.complete

    def test_memo_is_per_engine_and_leaves_plan_cache_alone(self, rng):
        p = GemmProblem(8, 8, 8, "s", batch=32)
        fw1, fw2 = IATF(KUNPENG_920), IATF(KUNPENG_920)
        run = _gemm_runner(fw1, p, rng)
        run()
        compiled = fw1.prepare_gemm(p)[1]
        before = fw1.plan_cache_stats
        with obs.scoped() as reg:
            megakernel.bind_programs(compiled, fw1.engine.programs)
            counters = reg.counters()
        assert _generated(fw1) >= 1
        assert not any(k.startswith("plan_cache.") for k in counters)
        assert fw1.plan_cache_stats == before
        assert len(fw2.engine.programs) == 0

    def test_memo_is_bounded(self, rng):
        memo = ProgramMemo(maxsize=2)
        fw = IATF(KUNPENG_920)
        compiled = lower_plan(fw.plan_gemm(GemmProblem(33, 33, 33, "d",
                                                       batch=2)))
        assert len(compiled.templates) > 2
        assert megakernel.ensure_program(compiled, memo).complete
        assert len(memo) == 2
        assert memo.evictions == len(compiled.templates) - 2

    @pytest.mark.parametrize("problem", SMOKE.bulk + SMOKE.cold, ids=repr)
    def test_generated_tier_matches_interpret_on_smoke_grid(self, problem):
        """Every smoke-grid plan, run until its programs exist, leaves
        the interpret bytes (plans whose waves all hold one call switch
        from plan-order replay to waves when generated)."""
        rng = np.random.default_rng(7)
        lanes = LANES[problem.dtype.value]
        dt = problem.dtype.value
        if isinstance(problem, GemmProblem):
            ops = (random_batch(rng, problem.batch, *problem.a_shape, dt),
                   random_batch(rng, problem.batch, *problem.b_shape, dt),
                   random_batch(rng, problem.batch, *problem.c_shape, dt))
        else:
            ops = (random_triangular(rng, problem.batch, problem.a_dim, dt,
                                     problem.uplo.value),
                   random_batch(rng, problem.batch, *problem.b_shape, dt))
        fw = IATF(KUNPENG_920)
        plan = (fw.plan_gemm(problem) if isinstance(problem, GemmProblem)
                else fw.plan_trsm(problem))

        def execute(engine, compiled):
            cbs = [CompactBatch.from_matrices(x, lanes) for x in ops]
            if isinstance(problem, GemmProblem):
                engine.execute_gemm(plan, *cbs, compiled=compiled)
            else:
                engine.execute_trsm(plan, *cbs, compiled=compiled)
            return cbs[-1].buffer.tobytes()

        ref = execute(Engine(KUNPENG_920, backend="interpret"), None)
        engine, compiled = Engine(KUNPENG_920), lower_plan(plan)
        for _ in range(3):
            assert execute(engine, compiled) == ref
        assert compiled.programs.complete


class TestSpecialValues:
    @pytest.mark.parametrize("dtype", ["s", "d"])
    def test_nan_inf_negzero_replay_bit_identical(self, rng, dtype):
        """NaN payloads, infinities, and -0.0 must survive the
        generated code exactly as the interpreter leaves them — the
        codegen mirrors the replay's operation set, so the bytes (not
        just the values) must match."""
        p = GemmProblem(8, 8, 8, dtype, batch=24)
        lanes = LANES[dtype]
        a = random_batch(rng, p.batch, 8, 8, dtype)
        b = random_batch(rng, p.batch, 8, 8, dtype)
        c = random_batch(rng, p.batch, 8, 8, dtype)
        a[0, 0, 0] = np.nan
        a[1, 2, 3] = np.inf
        b[2, 1, 0] = -np.inf
        b[3, 3, 3] = -0.0
        c[4, 0, 7] = np.nan
        plan = IATF(KUNPENG_920).plan_gemm(p)

        def execute(engine, compiled):
            ca = CompactBatch.from_matrices(a, lanes)
            cb = CompactBatch.from_matrices(b, lanes)
            cc = CompactBatch.from_matrices(c, lanes)
            engine.execute_gemm(plan, ca, cb, cc, compiled=compiled)
            return cc.buffer.tobytes()

        ref = execute(Engine(KUNPENG_920, backend="interpret"), None)
        engine, compiled = Engine(KUNPENG_920), lower_plan(plan)
        for _ in range(3):
            assert execute(engine, compiled) == ref
        assert compiled.programs.complete

    def test_trsm_special_values_bit_identical(self, rng):
        p = TrsmProblem(8, 8, "d", "L", "U", "T", "N", batch=12)
        a = random_triangular(rng, p.batch, 8, "d", "U")
        b = random_batch(rng, p.batch, 8, 8, "d")
        b[0, 0, 0], b[1, 3, 2], b[2, 5, 5] = np.nan, -np.inf, -0.0
        plan = IATF(KUNPENG_920).plan_trsm(p)

        def execute(engine, compiled):
            cb = CompactBatch.from_matrices(b, 2)
            engine.execute_trsm(plan, CompactBatch.from_matrices(a, 2), cb,
                                compiled=compiled)
            return cb.buffer.tobytes()

        ref = execute(Engine(KUNPENG_920, backend="interpret"), None)
        engine, compiled = Engine(KUNPENG_920), lower_plan(plan)
        for _ in range(3):
            assert execute(engine, compiled) == ref
        assert compiled.programs.complete


class TestConcurrency:
    def test_threads_share_one_plan_without_lost_runs(self, rng):
        """More threads than cores execute the same plans on one IATF
        with a short switch interval: every execute is counted, each
        stream is generated once, and every result is the interpret
        bytes."""
        import sys
        import threading

        problems = [GemmProblem(8, 8, 8, "s", batch=16),
                    GemmProblem(33, 33, 33, "d", batch=4)]
        fw = IATF(KUNPENG_920)
        runners = [_gemm_runner(fw, p, np.random.default_rng(i))
                   for i, p in enumerate(problems)]
        refs = [_gemm_runner(IATF(KUNPENG_920, backend="interpret"), p,
                             np.random.default_rng(i))()
                for i, p in enumerate(problems)]
        for run, ref in zip(runners, refs):
            assert run() == ref     # plan + lowering cached before threads
        threads, per_thread, bad = 8, 6, []

        def work():
            for k in range(per_thread):
                i = k % len(problems)
                if runners[i]() != refs[i]:
                    bad.append(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(old)
        assert not bad
        streams = set()
        for p in problems:
            _, compiled, _ = fw.prepare_gemm(p)
            assert compiled.runs == 1 + threads * per_thread // len(problems)
            assert compiled.programs.complete
            streams |= {t.program_key for t in compiled.templates}
        assert _generated(fw) == len(streams)


@pytest.mark.parametrize("machine", [XEON_GOLD_6240, A64FX],
                         ids=lambda m: m.machine_id)
@pytest.mark.parametrize("problem", [
    GemmProblem(5, 7, 3, "s", batch=40), GemmProblem(8, 8, 8, "d", batch=20),
    GemmProblem(6, 4, 5, "c", "N", "T", batch=33),
    GemmProblem(9, 9, 9, "z", batch=9), TrsmProblem(9, 5, "s", batch=40),
    TrsmProblem(7, 6, "z", "R", "U", "T", "N", batch=17)], ids=repr)
def test_wide_vector_machines_match_interpret(machine, problem):
    """512-bit vectors hold several 16-byte units per register, the
    other form of every wide copy; both tiers still leave the interpret
    bytes."""
    fw = IATF(machine)
    lanes = machine.lanes(problem.dtype)
    rng = np.random.default_rng(3)
    dt = problem.dtype.value
    if isinstance(problem, GemmProblem):
        plan = fw.plan_gemm(problem)
        ops = (random_batch(rng, problem.batch, *problem.a_shape, dt),
               random_batch(rng, problem.batch, *problem.b_shape, dt),
               random_batch(rng, problem.batch, *problem.c_shape, dt))
    else:
        plan = fw.plan_trsm(problem)
        ops = (random_triangular(rng, problem.batch, problem.a_dim, dt,
                                 problem.uplo.value),
               random_batch(rng, problem.batch, *problem.b_shape, dt))

    def execute(engine, compiled):
        cbs = [CompactBatch.from_matrices(x, lanes) for x in ops]
        if isinstance(problem, GemmProblem):
            engine.execute_gemm(plan, *cbs, compiled=compiled)
        else:
            engine.execute_trsm(plan, *cbs, compiled=compiled)
        return cbs[-1].buffer.tobytes()

    ref = execute(Engine(machine, backend="interpret"), None)
    engine, compiled = Engine(machine), lower_plan(plan)
    for _ in range(3):
        assert execute(engine, compiled) == ref
    assert compiled.programs.complete
