"""Trace-compiler (megakernel backend) specific tests.

Bit-equivalence across the full backend matrix lives in
``test_backends.py`` (EQUIV_BACKENDS includes ``megakernel``); this
module covers what is unique to the trace compiler: deterministic
codegen, compile-once caching, special-value replay, and trace
partitioning invariants.
"""

import time

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import ExecutionError
from repro.layout import CompactBatch
from repro.machine.machines import KUNPENG_920
from repro.runtime.engine import Engine
from repro.runtime.iatf import IATF
from repro.runtime.lowering import lower_plan, partition_trace
from repro.runtime.megakernel import (PROGRAM_KEY, MegakernelBackend,
                                      ensure_program, generate_source)
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import random_batch

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}


@pytest.fixture(scope="module")
def iatf():
    return IATF(KUNPENG_920)


class TestTracePartition:
    def test_segments_cover_raw_stream(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(8, 8, 8, "s",
                                                         batch=64)))
        segs = partition_trace(compiled)
        assert segs, "a lowered gemm plan must partition into segments"
        assert segs[0].start == 0
        assert segs[-1].stop == len(compiled.commands)
        for a, b in zip(segs, segs[1:]):
            assert a.stop == b.start
        # merged spans account for every raw call
        assert sum(s.calls for s in segs) == len(compiled.call_ranges)

    def test_segment_kernels_match_call_ranges(self, iatf):
        compiled = lower_plan(iatf.plan_trsm(TrsmProblem(12, 6, "d", "L",
                                                         "L", "N", "N",
                                                         batch=8)))
        segs = partition_trace(compiled)
        seg_kernels = [s.kernel for s in segs]
        # consecutive same-kernel calls merge, so the segment kernel
        # sequence is the run-length-collapsed call sequence
        collapsed = []
        for name, _, _ in compiled.call_ranges:
            if not collapsed or collapsed[-1] != name:
                collapsed.append(name)
        assert seg_kernels == collapsed

    def test_stream_concatenates_segments(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(8, 8, 8, "s",
                                                         batch=64)))
        cmds, max_stack = MegakernelBackend.stream(compiled)
        segs = partition_trace(compiled)
        assert cmds == [c for s in segs for c in s.commands]
        assert max_stack == max(s.max_stack for s in segs)


class TestCodegen:
    def test_generated_source_is_deterministic(self, iatf):
        """Same plan -> byte-identical generated source, both across
        repeated codegen of one lowering and across independent
        lowerings of the same plan (no dict-order or id() leakage)."""
        p = GemmProblem(8, 8, 8, "s", batch=128)
        c1 = lower_plan(iatf.plan_gemm(p))
        c2 = lower_plan(iatf.plan_gemm(p))
        s1a, k1a, _ = generate_source(c1)
        s1b, k1b, _ = generate_source(c1)
        s2, k2, _ = generate_source(c2)
        assert s1a == s1b == s2
        assert list(k1a) == list(k1b) == list(k2)

    def test_generated_source_shape(self, iatf):
        src, _consts, meta = generate_source(
            lower_plan(iatf.plan_gemm(GemmProblem(8, 8, 8, "s",
                                                  batch=128))))
        assert "def _stage(" in src
        for i in range(len(meta["segments"])):
            assert f"def _seg{i}(" in src
        # steady state is straight-line numpy: no interpreter loop
        assert "for " not in src.replace("for cmd", "")

    def test_program_compiles_and_caches(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(8, 8, 8, "s",
                                                         batch=128)))
        with obs.scoped() as reg:
            prog1 = ensure_program(compiled)
            prog2 = ensure_program(compiled)
            counters = reg.counters()
        assert prog1 is prog2
        assert compiled.attachments[PROGRAM_KEY] is prog1
        assert counters.get("megakernel.compile.miss", 0) == 1
        assert counters.get("megakernel.compile.hit", 0) == 1
        assert prog1.stats["loc"] > 0
        assert prog1.stats["segments"] == len(prog1.segments)

    def test_second_run_compiles_nothing(self, rng):
        """Cache reuse end to end: after the first execution the
        program rides the plan-cache's lowering, so the second run is
        pure cache hits — zero compiles."""
        fw = IATF(KUNPENG_920, backend="megakernel")
        p = GemmProblem(8, 8, 8, "s", batch=32)
        a = random_batch(rng, p.batch, 8, 8, "s")
        lanes = LANES["s"]

        def run():
            ca = CompactBatch.from_matrices(a, lanes)
            cb = CompactBatch.from_matrices(a, lanes)
            cc = CompactBatch.from_matrices(np.zeros_like(a), lanes)
            fw.gemm_compact(p, ca, cb, cc)

        run()                               # first: compiles + caches
        with obs.scoped() as reg:
            run()                           # second: must not compile
            counters = reg.counters()
        assert counters.get("megakernel.compile.miss", 0) == 0
        assert counters.get("megakernel.compile.hit", 0) >= 1

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
        fw = IATF(KUNPENG_920)
        plan = fw.plan_gemm(p)
        outs = []
        for backend in ("interpret", "megakernel"):
            ca = CompactBatch.from_matrices(a, lanes)
            cb = CompactBatch.from_matrices(b, lanes)
            cc = CompactBatch.from_matrices(c, lanes)
            Engine(KUNPENG_920, backend=backend).execute_gemm(plan, ca,
                                                              cb, cc)
            outs.append(cc.buffer.tobytes())
        assert outs[0] == outs[1]


@pytest.mark.slow
class TestPerfGuard:
    def test_megakernel_not_slower_than_fused_on_large_batch(self, rng):
        """The trace compiler's payoff on the headline shape: measured
        ~1.5x over fused on an otherwise idle single core, guarded here
        only as not-slower so background load cannot flake CI (the CI
        perf smoke carries the real floor)."""
        p = GemmProblem(8, 8, 8, "s", batch=16384)
        a = random_batch(rng, p.batch, 8, 8, "s")
        lanes = LANES["s"]
        times = {}
        for backend in ("fused", "megakernel"):
            fw = IATF(KUNPENG_920, backend=backend)
            ca = CompactBatch.from_matrices(a, lanes)
            cb = CompactBatch.from_matrices(a, lanes)
            cc = CompactBatch.from_matrices(np.zeros_like(a), lanes)
            fw.gemm_compact(p, ca, cb, cc)       # warm: plan + compile
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                fw.gemm_compact(p, ca, cb, cc)
                best = min(best, time.perf_counter() - t0)
            times[backend] = best
        assert times["megakernel"] <= 1.10 * times["fused"], times
