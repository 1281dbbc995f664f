"""Unit tests for the optimizing pass pipeline over synthetic streams.

The equivalence suite (test_backends.py) proves end-to-end that the
fused backend reproduces interpret bytes; these tests pin down *why*
by driving :func:`optimize_commands` over hand-built command streams
where the expected rewrite is known exactly — which chains fuse, where
segmentation cuts, what coalesces, what DCE may and may not remove —
and by running hand-built plans on ``fused`` against ``interpret``.
"""

import copy

import numpy as np
import pytest

from repro.codegen import regs
from repro.errors import LoweringError
from repro.machine import isa
from repro.machine.machines import KUNPENG_920
from repro.machine.memory import MemorySpace
from repro.machine.program import Program
from repro.runtime.engine import Engine
from repro.runtime.iatf import IATF
from repro.runtime.lowering import (FUSE_MIN_CHAIN, K_FMLA, K_FMLS, K_FMUL,
                                    K_LOAD, K_LOADW, K_MACC, K_STORE,
                                    K_STOREPAIR, K_STOREW, K_VZERO,
                                    lower_plan, optimize_commands)
from repro.runtime.plan import BufferSpec, KernelCall
from repro.types import GemmProblem

LANES = 4                     # float32 vector: 4 lanes * 4 B = 16 B
EW = 4
STRIDE_ELEMS = 32             # 128 B group stride — on the 16-byte grid
GROUPS = 37                   # deliberately odd

PASS_KEYS = ("commands_before", "commands_after", "dce_removed",
             "fuse_chains", "fuse_commands", "fuse_max_chain",
             "coalesce_loads", "coalesce_stores", "coalesce_commands",
             "coalesce_vectorized", "max_stack")


def optimize(commands):
    return optimize_commands(commands, LANES, EW)


def kinds(commands):
    return [c[0] for c in commands]


def hand_plan(instrs, strides=None):
    """A one-call float32 plan of ``instrs`` over buffers a (PA), b (PB)
    and c (PC0), each ``STRIDE_ELEMS`` elements per group unless
    ``strides`` (bytes) says otherwise."""
    base = IATF(KUNPENG_920).plan_gemm(GemmProblem(4, 4, 4, "s",
                                                   batch=4 * GROUPS))
    plan = copy.copy(base)
    prog = Program("synthetic", instrs, ew=EW, lanes=LANES)
    plan.calls = [KernelCall(prog, a_buf="a", a_off=0, b_buf="b", b_off=0,
                             c_buf="c", c_offsets=(0,))]
    plan.buffers = {name: BufferSpec(name, (strides or {}).get(
                        name, STRIDE_ELEMS * EW)) for name in "abc"}
    plan.groups = GROUPS
    return plan


def run_plan(plan, backend, data, compiled=None, engine=None):
    """Run ``plan`` on ``data`` (buffer -> ``(groups, elements)``
    float32, updated in place) through ``backend``."""
    engine = engine or Engine(KUNPENG_920, backend=backend)
    mem = MemorySpace()
    for name, arr in data.items():
        mem.bind(name, arr.reshape(-1))
    strides = {name: spec.group_stride_bytes
               for name, spec in plan.buffers.items()}
    with np.errstate(all="ignore"):
        engine.run_plan(plan, mem, strides, plan.groups, compiled)


def operands(rng, plan):
    return {name: rng.standard_normal(
                (plan.groups, spec.group_stride_bytes // EW)).astype(
                    np.float32)
            for name, spec in plan.buffers.items()}


class TestDce:
    def test_removes_write_never_read(self):
        cmds = [(K_LOAD, 8, "a", 0, LANES),
                (K_FMUL, 20, 8, 8),          # v20 never read again
                (K_STORE, 8, "c", 0, LANES)]
        out, p = optimize(cmds)
        assert p["dce_removed"] == 1
        assert all(k != K_FMUL for k in kinds(out))

    def test_stores_always_survive(self):
        cmds = [(K_VZERO, 0), (K_STORE, 0, "c", 0, LANES)]
        out, p = optimize(cmds)
        assert p["dce_removed"] == 0
        assert K_STOREW in kinds(out) or K_STORE in kinds(out)

    def test_accumulator_chain_is_live(self):
        """FMLA reads its destination, so an earlier write into the
        accumulator can never be considered dead."""
        cmds = [(K_VZERO, 0), (K_LOAD, 8, "a", 0, LANES),
                (K_FMLA, 0, 8, 8), (K_STORE, 0, "c", 0, LANES)]
        _, p = optimize(cmds)
        assert p["dce_removed"] == 0


class TestFusion:
    def chain(self, n, kind=K_FMLA, first_dst=0):
        return [(kind, first_dst + i, 8, 9) for i in range(n)]

    def prologue(self):
        return [(K_LOAD, 8, "a", 0, LANES), (K_LOAD, 9, "a", 4, LANES)]

    def epilogue(self, n, first_dst=0):
        return [(K_STORE, first_dst + i, "c", 4 * i, LANES)
                for i in range(n)]

    def test_chain_fuses_into_one_macc(self):
        cmds = self.prologue() + self.chain(6) + self.epilogue(6)
        out, p = optimize(cmds)
        maccs = [c for c in out if c[0] == K_MACC]
        assert len(maccs) == 1 and p["fuse_chains"] == 1
        _, dsel, aids, bids, neg, n = maccs[0]
        assert n == 6 and not neg
        assert dsel == slice(0, 6)          # consecutive dsts -> slice
        assert aids == (8,) * 6 and bids == (9,) * 6
        assert p["fuse_commands"] == 5      # 6 raw -> 1 macro-op
        assert p["fuse_max_chain"] == 6
        assert p["max_stack"] >= 6

    def test_chain_below_min_stays_raw(self):
        n = FUSE_MIN_CHAIN - 1
        cmds = self.prologue() + self.chain(n) + self.epilogue(n)
        out, p = optimize(cmds)
        assert p["fuse_chains"] == 0
        assert kinds(out).count(K_FMLA) == n

    def test_fmls_chain_fuses_negated(self):
        cmds = self.prologue() + self.chain(4, kind=K_FMLS) \
            + self.epilogue(4)
        out, _ = optimize(cmds)
        (macc,) = [c for c in out if c[0] == K_MACC]
        assert macc[4] is True              # neg flag

    def test_repeated_accumulator_splits_segments(self):
        """A run revisiting its accumulators (the next k-step) must
        split into consecutive macro-ops, never one vectorized
        accumulate — ``d += p1; d += p2`` is order-dependent."""
        cmds = (self.prologue() + self.chain(4) + self.chain(4)
                + self.epilogue(4))
        out, p = optimize(cmds)
        maccs = [c for c in out if c[0] == K_MACC]
        assert len(maccs) == 2 and p["fuse_chains"] == 2
        assert [m[5] for m in maccs] == [4, 4]

    def test_mixed_sign_and_repeat_reemits_raw(self):
        """Segments shorter than FUSE_MIN_CHAIN fall back to the raw
        commands in original order."""
        members = [(K_FMLA, 5, 1, 2), (K_FMLA, 6, 3, 4),
                   (K_FMLA, 5, 1, 4), (K_FMLS, 5, 2, 3)]
        loads = [(K_LOAD, r, "a", 4 * i, LANES)
                 for i, r in enumerate((1, 2, 3, 4, 5, 6))]
        stores = [(K_STORE, 5, "c", 0, LANES),
                  (K_STORE, 6, "c", 4, LANES)]
        out, p = optimize(loads + members + stores)
        assert p["fuse_chains"] == 0
        fp = [c for c in out if c[0] in (K_FMLA, K_FMLS)]
        assert fp == members                 # order preserved exactly

    def test_non_conflicting_command_hoists_past_run(self):
        """The generated kernels interleave next-step loads with the
        FMLAs; a load touching neither sources nor accumulators must
        not break the chain."""
        cmds = (self.prologue() + self.chain(2)
                + [(K_LOAD, 12, "b", 0, LANES)]      # independent
                + self.chain(2, first_dst=2) + self.epilogue(4))
        out, p = optimize(cmds)
        assert p["fuse_chains"] == 1 and p["fuse_max_chain"] == 4
        ks = kinds(out)
        assert ks.index(K_LOADW) < ks.index(K_MACC) or \
            ks.index(K_LOAD) < ks.index(K_MACC)

    def test_conflicting_write_seals_run(self):
        """Reloading a source register mid-run invalidates the fused
        read-all-sources-at-seal semantics: the run must seal first."""
        cmds = (self.prologue() + self.chain(2)
                + [(K_LOAD, 8, "a", 8, LANES)]       # clobbers source v8
                + self.chain(2, first_dst=2) + self.epilogue(4))
        _, p = optimize(cmds)
        assert p["fuse_chains"] == 0         # both halves below min


class TestCoalesce:
    def test_adjacent_loads_merge_wide(self):
        cmds = [(K_LOAD, 0, "a", 0, LANES), (K_LOAD, 1, "a", 4, LANES),
                (K_STORE, 0, "c", 0, LANES), (K_STORE, 1, "c", 4, LANES)]
        out, p = optimize(cmds)
        assert kinds(out) == [K_LOADW, K_STOREW]
        _, dsel, buf, first, n, count, cfirst = out[0]
        assert (buf, first, n, count) == ("a", 0, LANES, 2)
        assert cfirst == 0                   # 16-byte eligible
        assert p["coalesce_loads"] == 1 and p["coalesce_stores"] == 1
        assert p["coalesce_commands"] == 2
        assert p["coalesce_vectorized"] == 2

    def test_storepair_counts_as_two_pieces(self):
        cmds = [(K_VZERO, 0), (K_VZERO, 1), (K_VZERO, 2),
                (K_STORE, 0, "c", 0, LANES),
                (K_STOREPAIR, 1, 2, "c", 4, LANES)]
        out, _ = optimize(cmds)
        (wide,) = [c for c in out if c[0] == K_STOREW]
        assert wide[5] == 3                  # three registers, one copy

    def test_stride_off_16_bytes_is_rejected(self):
        """A group stride off the 16-byte grid cannot be viewed in
        16-byte units: lowering rejects it at the first access."""
        plan = hand_plan([isa.ldrv(0, regs.PA, 0, ew=EW),
                          isa.ldrv(1, regs.PA, 16, ew=EW),
                          isa.stpv(0, 1, regs.pc(0), 0, ew=EW)],
                         strides={"a": 136, "c": 136})
        with pytest.raises(LoweringError, match=(
                r"synthetic @pc=0 \(ldrv  v0.4s, \[x0, #0\]\) \[call 0\]: "
                r"buffer 'a' group stride 136 B is not a multiple of 16 B")):
            lower_plan(plan)

    def test_lone_eligible_copy_goes_wide(self):
        cmds = [(K_LOAD, 0, "a", 8, LANES), (K_STORE, 0, "c", 8, LANES)]
        out, p = optimize(cmds)
        assert kinds(out) == [K_LOADW, K_STOREW]
        assert out[0][5] == 1 and out[0][6] == 8 * EW // 16
        assert p["coalesce_commands"] == 0   # nothing merged away

    def test_lone_misaligned_copy_is_rejected(self):
        """A copy 8 B off the 16-byte grid: a raw stream holding one
        fails to coalesce, and a program making one fails to lower."""
        cmds = [(K_LOAD, 0, "a", 2, LANES), (K_STORE, 0, "c", 2, LANES)]
        with pytest.raises(LoweringError, match="16-byte grid"):
            optimize(cmds)
        plan = hand_plan([isa.ldrv(0, regs.PA, 0, ew=EW),
                          isa.ldrv(1, regs.PA, 8, ew=EW),
                          isa.strv(1, regs.pc(0), 0, ew=EW)])
        with pytest.raises(LoweringError, match=(
                r"synthetic @pc=1 \(ldrv  v1.4s, \[x0, #8\]\) \[call 0\]: "
                r"misaligned access into 'a' \(offset 8 not a multiple of "
                r"16\)")):
            lower_plan(plan)

    def test_repeated_load_destination_breaks_run(self):
        cmds = [(K_LOAD, 0, "a", 0, LANES), (K_LOAD, 0, "a", 4, LANES),
                (K_STORE, 0, "c", 0, LANES)]
        out, _ = optimize(cmds)
        wides = [c for c in out if c[0] == K_LOADW]
        assert all(w[5] == 1 for w in wides)  # never merged into one


class TestReplayEquivalence:
    def synthetic(self):
        """A program exercising every rewrite at once: fusable chains,
        segment cuts (repeat + sign flip), a hoistable load, dead code,
        coalescible and lone stores."""
        a, b, c = regs.PA, regs.PB, regs.pc(0)
        return [
            isa.ldrv(8, a, 0, ew=EW), isa.ldrv(9, a, 16, ew=EW),
            isa.ldrv(10, b, 0, ew=EW),
            isa.vzero(0, ew=EW), isa.vzero(1, ew=EW),
            isa.vzero(2, ew=EW), isa.vzero(3, ew=EW),
            isa.fmla(0, 8, 10, ew=EW), isa.fmla(1, 8, 9, ew=EW),
            isa.fmla(2, 9, 10, ew=EW), isa.fmla(3, 8, 8, ew=EW),
            isa.ldrv(11, b, 16, ew=EW),          # hoistable mid-run
            isa.fmla(0, 9, 11, ew=EW),           # accumulator revisit
            isa.fmls(1, 8, 11, ew=EW),           # sign flip
            isa.fmls(2, 9, 11, ew=EW), isa.fmls(3, 10, 11, ew=EW),
            isa.fmuli(4, 0, 1.5, ew=EW),
            isa.fmul(20, 8, 9, ew=EW),           # dead: v20 never read
            isa.strv(0, c, 0, ew=EW), isa.strv(1, c, 16, ew=EW),
            isa.stpv(2, 3, c, 32, ew=EW),
            isa.strv(4, c, 64, ew=EW),
            isa.strv(0, c, 96, ew=EW),           # lone, after a gap
        ]

    def check(self, data):
        """``fused`` — its first execute replays, its second runs the
        generated program — leaves the bytes ``interpret`` leaves."""
        plan = hand_plan(self.synthetic())
        ref = {name: v.copy() for name, v in data.items()}
        run_plan(plan, "interpret", ref)
        engine = Engine(KUNPENG_920)
        compiled = lower_plan(plan, engine.templates)
        for execute in ("replayed", "generated"):
            got = {name: v.copy() for name, v in data.items()}
            run_plan(plan, "fused", got, compiled, engine)
            assert (compiled.programs is not None) is (
                execute == "generated")
            for name in data:
                assert got[name].tobytes() == ref[name].tobytes(), (
                    execute, name)
        return compiled

    def test_optimized_stream_bit_identical(self, rng):
        plan = hand_plan(self.synthetic())
        for _ in range(3):
            compiled = self.check(operands(rng, plan))
        p = compiled.stats["passes"]
        assert p["commands_after"] < p["commands_before"]
        assert p["dce_removed"] == 1 and p["fuse_chains"] >= 1

    def test_special_values_survive_fusion(self, rng):
        """NaN payloads and signed zeros ride through macro-ops
        unchanged — subtract is never rewritten as negate-then-add."""
        data = operands(rng, hand_plan(self.synthetic()))
        data["a"][:, :2] = [np.nan, np.inf]
        data["b"][:, :2] = [-0.0, -np.inf]
        self.check(data)


class TestPlanIntegration:
    @pytest.fixture(scope="class")
    def compiled(self):
        fw = IATF(KUNPENG_920)
        return lower_plan(fw.plan_gemm(GemmProblem(8, 8, 8, "s", batch=16)))

    def test_stats_shape_and_payoff(self, compiled):
        p = compiled.stats["passes"]
        for key in PASS_KEYS:
            assert key in p, key
        assert p["commands_after"] < p["commands_before"]
        assert p["fuse_chains"] > 0 and p["coalesce_vectorized"] > 0

    def test_describe_mentions_passes(self, compiled):
        text = compiled.describe()
        assert "optimized" in text and "fused" in text

    def test_counters_emitted(self):
        import repro.obs as obs
        fw = IATF(KUNPENG_920)
        plan = fw.plan_gemm(GemmProblem(8, 8, 8, "d", batch=8))
        with obs.scoped() as reg:
            lower_plan(plan)
            counters = reg.counters()
        for name in ("lower.dce.removed", "lower.fuse.chains",
                     "lower.fuse.commands", "lower.coalesce.merged"):
            assert name in counters, name
        assert counters["lower.fuse.chains"] > 0
