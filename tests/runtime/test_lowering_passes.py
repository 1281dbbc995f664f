"""Unit tests for the optimizing pass pipeline over synthetic streams.

The equivalence suite (test_backends.py) proves end-to-end that the
fused backend reproduces interpret bytes; these tests pin down *why*
by driving :func:`optimize_commands` over hand-built command streams
where the expected rewrite is known exactly — which chains fuse, where
segmentation cuts, what coalesces, what DCE may and may not remove.
"""

import numpy as np
import pytest

from repro.machine.isa import NUM_VREGS
from repro.machine.machines import KUNPENG_920
from repro.runtime.backends import FusedBackend
from repro.runtime.iatf import IATF
from repro.runtime.lowering import (FUSE_MIN_CHAIN, K_FMLA, K_FMLS, K_FMUL,
                                    K_FMULI, K_LOAD, K_LOAD1R, K_LOADW,
                                    K_MACC, K_STORE, K_STOREPAIR, K_STOREW,
                                    K_VZERO, lower_plan, optimize_commands)
from repro.runtime.megakernel import compile_program
from repro.types import GemmProblem

LANES = 4                     # float32 vector: 4 lanes * 4 B = 16 B
EW = 4
STRIDE_ELEMS = 32             # 128 B group stride — 16-byte eligible
STRIDES = {"a": STRIDE_ELEMS * EW, "b": STRIDE_ELEMS * EW,
           "c": STRIDE_ELEMS * EW}

PASS_KEYS = ("commands_before", "commands_after", "dce_removed",
             "fuse_chains", "fuse_commands", "fuse_max_chain",
             "coalesce_loads", "coalesce_stores", "coalesce_commands",
             "coalesce_vectorized", "max_stack")


def optimize(commands, strides=STRIDES):
    return optimize_commands(commands, LANES, EW, strides)


def kinds(commands):
    return [c[0] for c in commands]


def replay(commands, bufs, max_stack=0, generated=False):
    """Drive the shared replay loop — or, with ``generated``, the
    program generated from ``commands`` — directly over synthetic
    buffers."""
    groups = next(iter(bufs.values())).shape[0]
    if generated:
        prog = compile_program(commands, LANES, EW)
        max_stack = max(max_stack, prog.stack_need)
    rbank = np.zeros((NUM_VREGS, groups, LANES), dtype=np.float32)
    scratch = np.empty((groups, LANES), dtype=np.float32)
    stacks = (np.empty((2, max_stack, groups, LANES), dtype=np.float32)
              if max_stack else None)
    rbankC = rbank.view(np.complex128)
    matsC = {name: (v.view(np.complex128)
                    if (v.shape[1] * v.itemsize) % 16 == 0 else None)
             for name, v in bufs.items()}
    args = (bufs, list(rbank), rbank, scratch, stacks, matsC, rbankC)
    with np.errstate(all="ignore"):
        if generated:
            prog.fn(*args)
        else:
            FusedBackend._replay(commands, *args)
    return rbank


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

    def test_ineligible_stride_merges_without_vectorizing(self):
        strides = {"a": 136, "c": 136}       # not a multiple of 16
        cmds = [(K_LOAD, 0, "a", 0, LANES), (K_LOAD, 1, "a", 4, LANES),
                (K_STORE, 0, "c", 0, LANES), (K_STORE, 1, "c", 4, LANES)]
        out, p = optimize(cmds, strides)
        assert out[0][0] == K_LOADW and out[0][6] == -1
        assert p["coalesce_vectorized"] == 0

    def test_lone_eligible_copy_goes_wide(self):
        cmds = [(K_LOAD, 0, "a", 8, LANES), (K_STORE, 0, "c", 8, LANES)]
        out, p = optimize(cmds)
        assert kinds(out) == [K_LOADW, K_STOREW]
        assert out[0][5] == 1 and out[0][6] == 8 * EW // 16
        assert p["coalesce_commands"] == 0   # nothing merged away

    def test_lone_misaligned_copy_stays_raw(self):
        cmds = [(K_LOAD, 0, "a", 2, LANES), (K_STORE, 0, "c", 2, LANES)]
        out, _ = optimize(cmds)
        assert kinds(out) == [K_LOAD, K_STORE]

    def test_repeated_load_destination_breaks_run(self):
        cmds = [(K_LOAD, 0, "a", 0, LANES), (K_LOAD, 0, "a", 4, LANES),
                (K_STORE, 0, "c", 0, LANES)]
        out, _ = optimize(cmds)
        wides = [c for c in out if c[0] == K_LOADW]
        assert all(w[5] == 1 for w in wides)  # never merged into one


class TestReplayEquivalence:
    def synthetic(self):
        """A stream exercising every rewrite at once: fusable chains,
        segment cuts (repeat + sign flip), a hoistable load, dead code,
        coalescible and lone stores."""
        L = LANES
        return [
            (K_LOAD, 8, "a", 0, L), (K_LOAD, 9, "a", 4, L),
            (K_LOAD1R, 10, "b", 0),
            (K_VZERO, 0), (K_VZERO, 1), (K_VZERO, 2), (K_VZERO, 3),
            (K_FMLA, 0, 8, 10), (K_FMLA, 1, 8, 9),
            (K_FMLA, 2, 9, 10), (K_FMLA, 3, 8, 8),
            (K_LOAD, 11, "b", 4, L),         # hoistable mid-run
            (K_FMLA, 0, 9, 11),              # accumulator revisit
            (K_FMLS, 1, 8, 11),              # sign flip
            (K_FMLS, 2, 9, 11), (K_FMLS, 3, 10, 11),
            (K_FMULI, 4, 0, np.float32(1.5)),
            (K_FMUL, 20, 8, 9),              # dead: v20 never read
            (K_STORE, 0, "c", 0, L), (K_STORE, 1, "c", 4, L),
            (K_STOREPAIR, 2, 3, "c", 8, L),
            (K_STORE, 4, "c", 16, L),
            (K_STORE, 0, "c", 22, 2),        # partial, ineligible
        ]

    def test_optimized_stream_bit_identical(self, rng):
        raw = self.synthetic()
        opt, p = optimize(raw)
        assert p["commands_after"] < p["commands_before"]
        assert p["dce_removed"] == 1 and p["fuse_chains"] >= 1
        groups = 37                          # deliberately odd
        for seed_bufs in range(3):
            data = {name: rng.standard_normal(
                        (groups, STRIDE_ELEMS)).astype(np.float32)
                    for name in ("a", "b", "c")}
            ref = {name: v.copy() for name, v in data.items()}
            gen = {name: v.copy() for name, v in data.items()}
            replay(raw, ref)
            replay(opt, data, max_stack=p["max_stack"])
            replay(opt, gen, max_stack=p["max_stack"], generated=True)
            for name in ("a", "b", "c"):
                assert data[name].tobytes() == ref[name].tobytes(), name
                assert gen[name].tobytes() == ref[name].tobytes(), name

    def test_special_values_survive_fusion(self, rng):
        """NaN payloads and signed zeros ride through macro-ops
        unchanged — subtract is never rewritten as negate-then-add."""
        raw = self.synthetic()
        opt, p = optimize(raw)
        data = {name: rng.standard_normal(
                    (8, STRIDE_ELEMS)).astype(np.float32)
                for name in ("a", "b", "c")}
        data["a"][:, :2] = [np.nan, np.inf]
        data["b"][:, :2] = [-0.0, -np.inf]
        ref = {name: v.copy() for name, v in data.items()}
        gen = {name: v.copy() for name, v in data.items()}
        replay(raw, ref)
        replay(opt, data, max_stack=p["max_stack"])
        replay(opt, gen, max_stack=p["max_stack"], generated=True)
        assert data["c"].tobytes() == ref["c"].tobytes()
        assert gen["c"].tobytes() == ref["c"].tobytes()


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
