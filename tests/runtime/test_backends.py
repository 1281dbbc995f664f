"""Backend equivalence and lowering tests.

Every executor backend must be *bit-identical* to the ``interpret``
reference on every supported configuration — not merely within
tolerance: all paths perform the same float operations in the same
order (fusion never reassociates), so their results are the same
bytes.
"""

import time

import numpy as np
import pytest

from repro.errors import ExecutionError, LoweringError, PlanError
from repro.layout import CompactBatch
from repro.machine.machines import KUNPENG_920
from repro.machine.memory import MemorySpace
from repro.runtime.backends import (BACKENDS, DEFAULT_BACKEND,
                                    FusedBackend, InterpretBackend,
                                    resolve_backend)
from repro.runtime import engine as engine_mod
from repro.runtime.engine import Engine
from repro.runtime.iatf import IATF
from repro.runtime.lowering import lower_plan
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import ALL_DTYPES, random_batch, random_triangular

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}

# every registered backend, the interpret reference first
EQUIV_BACKENDS = ("interpret", "fused")

# fused executes each lowered plan this often: the first execute replays,
# the second generates the plan's programs, the rest run them
FUSED_RUNS = 3


def assert_bit_identical(outs):
    (_, ref), *rest = outs
    for label, out in rest:
        assert out.tobytes() == ref.tobytes(), (
            f"{label} diverged from interpret")


def _runs(plan, execute):
    """``(label, result)`` per run: interpret once, then fused
    ``FUSED_RUNS`` times on one engine and one lowering, so both the
    replay tier and the generated tier are compared."""
    outs = [("interpret", execute(Engine(KUNPENG_920, backend="interpret"),
                                  None))]
    engine = Engine(KUNPENG_920, backend="fused")
    compiled = lower_plan(plan)
    for run in range(FUSED_RUNS):
        out = execute(engine, compiled)
        tier = "generated" if compiled.programs else "replay"
        assert tier == "replay" or compiled.programs.complete
        outs.append((f"fused run {run + 1} ({tier})", out))
    assert tier == "generated"
    return outs


@pytest.fixture(scope="module")
def iatf():
    return IATF(KUNPENG_920)


def run_gemm_both(iatf, rng, problem, force_pack=False):
    """Execute one GEMM plan on every backend (fused in both tiers);
    return the labelled C buffers."""
    plan = iatf.plan_gemm(problem, force_pack=force_pack)
    lanes = LANES[problem.dtype.value]
    a = random_batch(rng, problem.batch, *problem.a_shape,
                     problem.dtype.value)
    b = random_batch(rng, problem.batch, *problem.b_shape,
                     problem.dtype.value)
    c = random_batch(rng, problem.batch, problem.m, problem.n,
                     problem.dtype.value)

    def execute(engine, compiled):
        ca = CompactBatch.from_matrices(a, lanes)
        cb = CompactBatch.from_matrices(b, lanes)
        cc = CompactBatch.from_matrices(c, lanes)
        engine.execute_gemm(plan, ca, cb, cc, compiled=compiled)
        return cc.buffer
    return _runs(plan, execute)


def run_trsm_both(iatf, rng, problem, force_pack=False):
    plan = iatf.plan_trsm(problem, force_pack=force_pack)
    lanes = LANES[problem.dtype.value]
    a = random_triangular(rng, problem.batch, problem.a_dim,
                          problem.dtype.value,
                          problem.uplo.value)
    b = random_batch(rng, problem.batch, problem.m, problem.n,
                     problem.dtype.value)

    def execute(engine, compiled):
        ca = CompactBatch.from_matrices(a, lanes)
        cb = CompactBatch.from_matrices(b, lanes)
        engine.execute_trsm(plan, ca, cb, compiled=compiled)
        return cb.buffer
    return _runs(plan, execute)


class TestGemmEquivalence:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("mode", ["NN", "NT", "TN", "TT"])
    def test_bit_identical_all_modes(self, iatf, rng, dtype, mode):
        p = GemmProblem(9, 7, 5, dtype, mode[0], mode[1], 9, 1.25, 0.5)
        assert_bit_identical(run_gemm_both(iatf, rng, p))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("force_pack", [False, True])
    def test_bit_identical_pack_paths(self, iatf, rng, dtype, force_pack):
        p = GemmProblem(8, 8, 8, dtype, batch=13)
        assert_bit_identical(run_gemm_both(iatf, rng, p,
                                           force_pack=force_pack))

    @pytest.mark.parametrize("m,n,k", [(1, 1, 1), (5, 5, 5), (13, 3, 17),
                                       (33, 33, 33)])
    def test_bit_identical_odd_shapes(self, iatf, rng, m, n, k):
        p = GemmProblem(m, n, k, "d", batch=7)
        assert_bit_identical(run_gemm_both(iatf, rng, p))


class TestTrsmEquivalence:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_bit_identical_whole_in_regs(self, iatf, rng, dtype):
        p = TrsmProblem(4, 6, dtype, "L", "L", "N", "N", batch=9)
        assert_bit_identical(run_trsm_both(iatf, rng, p))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_bit_identical_blocked(self, iatf, rng, dtype):
        p = TrsmProblem(12, 6, dtype, "L", "L", "N", "N", batch=9)
        assert_bit_identical(run_trsm_both(iatf, rng, p))

    @pytest.mark.parametrize("side", ["L", "R"])
    @pytest.mark.parametrize("force_pack", [False, True])
    def test_bit_identical_sides_and_pack(self, iatf, rng, side,
                                          force_pack):
        p = TrsmProblem(7, 5, "d", side, "L", "N", "N", batch=6)
        assert_bit_identical(run_trsm_both(iatf, rng, p,
                                           force_pack=force_pack))


# identity-normalized B packs (alpha 1, no flip, no transpose, no padded
# columns) solve B in place; each near miss breaks one condition
IN_PLACE_B = [
    (TrsmProblem(12, 8, "s", batch=9), True),                 # blocked
    (TrsmProblem(7, 6, "c", batch=9), True),
    (TrsmProblem(12, 8, "z", batch=9), True),
    (TrsmProblem(8, 8, "d", "L", "U", "T", "N", batch=9), True),  # LTUN
    (TrsmProblem(12, 8, "d", batch=9, alpha=2.0), False),      # alpha
    (TrsmProblem(12, 8, "d", "L", "U", "N", "N", batch=9), False),  # flip
    (TrsmProblem(8, 12, "d", "R", "U", "N", "N", batch=9), False),  # side R
    (TrsmProblem(12, 5, "d", batch=9), False),                 # n_pad > n
]


class TestTrsmInPlaceB:
    @pytest.mark.parametrize("problem,in_place", IN_PLACE_B, ids=repr)
    def test_bit_identical_in_place_b(self, iatf, rng, monkeypatch, problem,
                                      in_place):
        """Both tiers and interpret leave the bytes of the packed route,
        and B is packed exactly when the pack is not an identity copy."""
        plan = iatf.plan_trsm(problem)
        assert "workB" in plan.buffers
        packs = []
        real = engine_mod.pack_trsm_b
        monkeypatch.setattr(engine_mod, "pack_trsm_b",
                            lambda *a, **k: packs.append(1) or real(*a, **k))
        outs = run_trsm_both(iatf, rng, problem)
        assert bool(packs) != in_place
        assert_bit_identical(outs)
        if in_place:
            # a pack and an unpack, the route before, give equal bytes
            monkeypatch.setattr(engine_mod, "_b_in_place", lambda *a: False)
            packed = run_trsm_both(iatf, np.random.default_rng(7), problem)
            monkeypatch.undo()
            solved = run_trsm_both(iatf, np.random.default_rng(7), problem)
            assert ([o.tobytes() for _, o in packed]
                    == [o.tobytes() for _, o in solved])


class TestLowering:
    def test_stream_has_no_address_arithmetic(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(8, 8, 8, "d", batch=8))
        compiled = lower_plan(plan)
        # every ADDI folded, every PRFM/NOP dropped: stream length plus
        # folded/dropped accounts for every instruction of every call
        s = compiled.stats
        assert s["folded_addi"] > 0
        assert (compiled.num_commands + s["folded_addi"] + s["dropped"]
                == s["instructions"])

    def test_gather_indices_matches_group_view(self, iatf, rng):
        """The slice a command replays addresses exactly the elements the
        interpreter's per-instruction index arrays would gather."""
        plan = iatf.plan_gemm(GemmProblem(6, 6, 6, "d", batch=5))
        compiled = lower_plan(plan)
        groups = compiled.groups
        mem = MemorySpace()
        mats = {}
        for name, lay in compiled.buffers.items():
            arr = rng.standard_normal(groups * lay.stride_elems)
            mem.bind(name, arr)
            mats[name] = mem.group_view(name, groups, lay.stride_elems)
        for cmd in compiled.mem_commands():
            buf, first, count, step = cmd.access()
            lay = compiled.buffers[buf]
            idx = cmd.gather_indices(groups, lay.stride_elems)
            assert idx.shape == (groups, count)
            flat = mem[buf]
            assert np.array_equal(flat[idx],
                                  mats[buf][:, first:first + count])

    def test_misaligned_offset_raises(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(4, 4, 4, "d", batch=4))
        plan = _tampered(plan, a_off=3)     # not a multiple of ew=8
        with pytest.raises(LoweringError, match="misaligned"):
            lower_plan(plan)

    def test_out_of_bounds_offset_raises(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(4, 4, 4, "d", batch=4))
        plan = _tampered(plan, a_off=1 << 20)
        with pytest.raises(LoweringError, match="group stride"):
            lower_plan(plan)

    def test_unknown_buffer_raises(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(4, 4, 4, "d", batch=4))
        plan = _tampered(plan, a_buf="bogus")
        with pytest.raises(LoweringError, match="bogus"):
            lower_plan(plan)

    def test_describe_mentions_folding(self, iatf):
        compiled = lower_plan(iatf.plan_gemm(GemmProblem(4, 4, 4, "d",
                                                         batch=4)))
        text = compiled.describe()
        assert "ADDIs folded" in text
        assert "commands" in text

    def test_immediates_precast_to_element_dtype(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(4, 4, 4, "s", batch=4,
                                          alpha=1.1, beta=0.3))
        compiled = lower_plan(plan)
        from repro.runtime.lowering import K_FMAI, K_FMULI
        imms = [cmd[-1] for cmd in compiled.commands
                if cmd[0] in (K_FMAI, K_FMULI)]
        assert imms, "scaled gemm should carry immediates"
        assert all(isinstance(i, np.float32) for i in imms)


def _tampered(plan, call=0, **repl):
    """Copy of a plan with one call's fields replaced."""
    import copy
    import dataclasses
    plan = copy.copy(plan)
    plan.calls = list(plan.calls)
    plan.calls[call] = dataclasses.replace(plan.calls[call], **repl)
    return plan


class TestBackendSelection:
    def test_default_is_fused(self):
        assert DEFAULT_BACKEND == "fused"
        assert Engine(KUNPENG_920).backend.name == "fused"
        assert IATF(KUNPENG_920).backend.name == "fused"

    def test_registry_contents(self):
        assert set(BACKENDS) == {"interpret", "fused"}
        assert isinstance(resolve_backend("interpret"), InterpretBackend)
        assert isinstance(resolve_backend("fused"), FusedBackend)

    def test_unknown_name_error_lists_all_backends(self):
        """The unknown-name PlanError must name every registered
        backend — including the ones added after the message was first
        written (a stale list sent users hunting for spellings)."""
        with pytest.raises(PlanError, match="unknown executor backend"):
            resolve_backend("jit")
        try:
            resolve_backend("jit")
        except PlanError as e:
            msg = str(e)
        for name in ("interpret", "fused"):
            assert name in msg, f"error message omits {name!r}: {msg}"

    def test_megakernel_is_no_backend(self):
        """The generated code is a tier of ``fused``; the old backend
        name fails loudly and says what exists."""
        with pytest.raises(PlanError, match="available: fused, interpret"):
            IATF(KUNPENG_920, backend="megakernel")

    def test_non_backend_object_rejected_before_first_use(self):
        """Anything but a registered name — backend instances included —
        fails at resolution time, naming what exists, not with an
        AttributeError mid-execution."""
        available = "available: fused, interpret"
        with pytest.raises(PlanError, match=available):
            resolve_backend(42)
        with pytest.raises(PlanError, match=available):
            resolve_backend(FusedBackend())
        with pytest.raises(PlanError, match=available):
            Engine(KUNPENG_920, backend=object())
        with pytest.raises(PlanError, match=available):
            IATF(KUNPENG_920, backend=3.14)

    def test_named_backends_are_cached(self):
        """Every run_plan used to construct a fresh backend object;
        named resolutions now share one instance per name."""
        for name in ("interpret", "fused"):
            assert resolve_backend(name) is resolve_backend(name)
        assert Engine(KUNPENG_920).backend is Engine(KUNPENG_920).backend

    def test_sharding_knobs_are_gone(self):
        """Backends take no configuration: no entry point accepts
        inner=/workers=/mode=, so a stray one fails loudly instead of
        being silently ignored."""
        for kw in ({"inner": "fused"}, {"workers": 2}, {"mode": "thread"}):
            with pytest.raises(TypeError):
                resolve_backend("fused", **kw)
            with pytest.raises(TypeError):
                Engine(KUNPENG_920, **kw)
            with pytest.raises(TypeError):
                IATF(KUNPENG_920, **kw)

    def test_group_count_mismatch_raises(self, iatf, rng):
        plan = iatf.plan_gemm(GemmProblem(4, 4, 4, "d", batch=4))
        compiled = lower_plan(plan)
        mem = MemorySpace()
        with pytest.raises(ExecutionError, match="groups"):
            FusedBackend().run(plan, mem, {}, groups=7,
                               compiled=compiled)


class TestObservability:
    def test_backend_run_counter_and_lowering_span(self):
        import repro.obs as obs
        fw = IATF(KUNPENG_920)
        p = GemmProblem(4, 4, 4, "d", batch=4)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4, 4))
        with obs.scoped() as reg:
            fw.gemm(a, a, np.zeros_like(a), beta=0.0)
            counters = reg.counters()
            assert counters.get("backend.fused.runs", 0) >= 1
            assert counters.get("lower.plans", 0) >= 1
            assert counters.get("lower.commands", 0) > 0
            assert any(s.name == "lower.plan" for s in reg.spans)


@pytest.mark.slow
class TestPerfGuard:
    def test_fused_beats_interpret_on_large_batch(self, rng):
        """The lowering payoff on the paper's headline batch size: the
        fused replay must beat per-instruction interpretation on
        batch-16384 sgemm (m=n=k=8) wall clock."""
        p = GemmProblem(8, 8, 8, "s", batch=16384)
        a = random_batch(rng, p.batch, 8, 8, "s")
        lanes = LANES["s"]
        times = {}
        for backend in ("interpret", "fused"):
            fw = IATF(KUNPENG_920, backend=backend)
            ca = CompactBatch.from_matrices(a, lanes)
            cb = CompactBatch.from_matrices(a, lanes)
            cc = CompactBatch.from_matrices(np.zeros_like(a), lanes)
            fw.gemm_compact(p, ca, cb, cc)       # warm: plan + lowering
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                fw.gemm_compact(p, ca, cb, cc)
                best = min(best, time.perf_counter() - t0)
            times[backend] = best
        # measured several x; guard a softer bound so background load
        # cannot flake CI
        assert times["fused"] < 0.75 * times["interpret"], times
