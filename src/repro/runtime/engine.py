"""Plan execution: functional (NumPy-vectorized) and timed (pipeline model).

The engine is the run-time stage's backend, layered **plan → lower →
execute**.  ``execute_gemm`` / ``execute_trsm`` validate operands, bind
buffers (packing or aliasing the compact originals through one shared
path; a packed operand may also be the caller's own array, a
:class:`~repro.layout.compact.StandardBatch` the pack gathers from
directly; a TRSM whose B pack would be an identity copy solves the
compact B in place), and hand the plan — plus, for ``fused``, its
one-time :class:`~repro.runtime.lowering.CompiledPlan` — to the configured
backend (by default ``fused``, which replays the pass-optimized
template streams wave by wave on a plan's first execute and runs
generated code per template once the plan executes again).
``time_plan`` replays the same command queue, its programs scheduled,
for a single representative group on the scoreboard pipeline with the
cache hierarchy initialized to the batch counter's residency verdicts
(and primed by a cache-only replay of the group before it), then scales
by the group count and adds the bandwidth-model packing cost — valid
because compact kernels are data-independent and each group touches its
own (identically laid out) data.  (Timing models the simulated silicon,
so it is backend-independent by construction.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..codegen import regs
from ..codegen.optimizer import schedule_program
from ..codegen.validate import assert_valid
from ..errors import PlanError
from ..layout.compact import CompactBatch, StandardBatch
from ..machine.machines import MachineConfig
from ..machine.memory import MemorySpace
from ..machine.program import Program
from ..machine.pipeline import AddressSpace, TimingResult
from ..codegen.templates_trsm import PX
from ..packing.gemm_pack import pack_gemm_a, pack_gemm_b
from ..packing.trsm_pack import pack_trsm_a, pack_trsm_b, unpack_trsm_b
from ..types import GemmProblem, TrsmProblem
from . import megakernel
from .backends import FusedBackend, InterpretBackend, resolve_backend
from .lowering import CompiledPlan, lower_plan
from .plan import ExecutionPlan, KernelCall

__all__ = ["Engine", "PlanTiming", "PLAN_GENERATION_OVERHEAD_CYCLES"]

PLAN_GENERATION_OVERHEAD_CYCLES = 2000.0
"""One-off run-time-stage cost per plan (paper: negligible once
apportioned over a large batch; charged once per timed problem)."""

PER_KERNEL_CALL_SETUP_CYCLES = 8
"""Host-side loop control and pointer materialization around each
branch-free kernel invocation (per group)."""


@dataclass
class PlanTiming:
    """Cycle breakdown of one planned problem over its whole batch."""

    plan: ExecutionPlan
    kernel_cycles_per_group: int
    pack_cycles: float
    unpack_cycles: float
    overhead_cycles: float
    detail: TimingResult

    @property
    def groups(self) -> int:
        return self.plan.groups

    @property
    def kernel_cycles(self) -> float:
        return float(self.kernel_cycles_per_group) * self.groups

    @property
    def total_cycles(self) -> float:
        return (self.kernel_cycles + self.pack_cycles + self.unpack_cycles
                + self.overhead_cycles)

    @property
    def seconds(self) -> float:
        return self.plan.machine.cycles_to_seconds(self.total_cycles)

    @property
    def gflops(self) -> float:
        return self.plan.machine.gflops(self.plan.problem.flops,
                                        self.total_cycles)

    @property
    def percent_of_peak(self) -> float:
        return 100.0 * self.gflops / self.plan.machine.peak_gflops(
            self.plan.problem.dtype)


def _check_compact(name: str, cb: "CompactBatch | StandardBatch",
                   rows: int, cols: int, plan: ExecutionPlan) -> None:
    p = plan.problem
    if (cb.rows, cb.cols) != (rows, cols):
        raise PlanError(f"{name} is {cb.rows}x{cb.cols}, plan expects "
                        f"{rows}x{cols}")
    if cb.batch != p.batch:
        raise PlanError(f"{name} batch {cb.batch} != plan batch {p.batch}")
    if cb.dtype != p.dtype:
        raise PlanError(f"{name} dtype {cb.dtype} != plan dtype {p.dtype}")
    if cb.lanes != plan.machine.lanes(p.dtype):
        raise PlanError(f"{name} lanes {cb.lanes} != machine lanes")


def _scale_compact(c: CompactBatch, beta: complex) -> None:
    """``C := beta * C`` in place (``C := 0`` when beta is 0, so NaN in C
    does not survive), in C's element type; complex batches keep split
    re/im planes."""
    buf = c.buffer
    if beta == 0:
        buf.fill(0)
    elif not c.dtype.is_complex:
        np.multiply(buf, buf.dtype.type(beta), out=buf)
    else:
        br, bi = buf.dtype.type(beta.real), buf.dtype.type(beta.imag)
        planes = buf.reshape(-1, 2, c.lanes)
        re, im = planes[:, 0].copy(), planes[:, 1]
        planes[:, 0] = br * re - bi * im
        planes[:, 1] = br * im + bi * re


def _b_in_place(plan: ExecutionPlan, b: CompactBatch) -> bool:
    """Whether the plan packs B into ``workB`` by an identity copy: alpha
    1, no flip, no transpose, no padded columns and B's own group
    stride.  The solve then runs on B itself, with no pack or unpack
    (the plan, its lowering and its modelled cost are unchanged)."""
    spec = plan.buffers.get("workB")
    norm = plan.meta["norm"]
    return (spec is not None and norm.alpha == 1 and not norm.flip
            and not norm.transpose_b and plan.meta["n_pad"] == norm.n_rhs
            and spec.group_stride_bytes == b.group_stride_bytes)


class Engine:
    """Executes and times execution plans on one machine.

    ``backend`` selects the functional-execution strategy by name, from
    :data:`repro.runtime.backends.BACKENDS` (``"interpret"`` or
    ``"fused"``), or ``None`` for the default.  Timing is backend-independent.  ``programs`` holds
    the code generated for the lowered plans this engine executes (see
    :mod:`repro.runtime.megakernel`), and ``templates`` the lowered call
    bindings every plan it lowers shares (see
    :mod:`repro.runtime.lowering`); beside them, the engine memoizes the
    scheduled form of each kernel program it times (:meth:`scheduled`).
    """

    def __init__(self, machine: MachineConfig,
                 backend: "str | None" = None) -> None:
        self.machine = machine
        self.backend: "InterpretBackend | FusedBackend" = resolve_backend(
            backend)
        self.programs = megakernel.ProgramMemo()
        self.templates = megakernel.ProgramMemo()
        # id(program) -> (program, its scheduled form); holding the
        # program keeps its id unique while the entry lives
        self._scheduled: dict[int, tuple[Program, Program]] = {}

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------

    def run_plan(self, plan: ExecutionPlan, mem: MemorySpace,
                 strides: dict[str, int], groups: int,
                 compiled: "CompiledPlan | None" = None) -> None:
        """Run every kernel call of a bound plan through the backend.

        ``compiled`` is the plan's cached lowering; when the backend
        needs one and none is supplied (direct engine use, extensions
        without their own cache) the plan is lowered on the spot,
        through the engine's templates.  Each execute of a lowered plan
        is counted on it and binds the programs its tier calls for.
        """
        backend = self.backend
        if backend.needs_lowering:
            if compiled is None:
                compiled = lower_plan(plan, self.templates)
            megakernel.bind_programs(compiled, self.programs)
        obs.count(f"backend.{backend.name}.runs")
        with obs.span("engine.kernels", calls=len(plan.calls),
                      backend=backend.name):
            backend.run(plan, mem, strides, groups, compiled)

    @staticmethod
    def _bind_operand(mem: MemorySpace, strides: dict[str, int],
                      plan: ExecutionPlan, origin_name: str,
                      origin: "CompactBatch | StandardBatch",
                      packed_name: str,
                      pack_fn: "Callable[[], tuple[np.ndarray, int]]",
                      span_name: str) -> "np.ndarray | None":
        """Bind one operand the way the plan decided: pack it (returning
        the packed array) or alias the compact original (returning
        ``None``).  This is the single buffer-binding path shared by the
        GEMM and TRSM execute methods."""
        if packed_name in plan.buffers:
            with obs.span(span_name):
                arr, stride = pack_fn()
            mem.bind(packed_name, arr)
            strides[packed_name] = stride
            return arr
        if not isinstance(origin, CompactBatch):
            raise PlanError(f"{origin_name} must be compact: the plan reads "
                            f"it in place")
        mem.bind(origin_name, origin.buffer)
        strides[origin_name] = origin.group_stride_bytes
        return None

    def execute_gemm(self, plan: ExecutionPlan,
                     a: "CompactBatch | StandardBatch",
                     b: "CompactBatch | StandardBatch", c: CompactBatch,
                     compiled: "CompiledPlan | None" = None) -> CompactBatch:
        """Run the plan; C is updated in place and returned.  A and B
        may be :class:`StandardBatch` sources where the plan packs
        them."""
        if plan.kind != "gemm":
            raise PlanError(f"expected a gemm plan, got {plan.kind}")
        p: GemmProblem = plan.problem
        _check_compact("A", a, *p.a_shape, plan)
        _check_compact("B", b, *p.b_shape, plan)
        _check_compact("C", c, *p.c_shape, plan)
        if p.alpha == 0:
            # Netlib BLAS: alpha == 0 references neither A nor B
            _scale_compact(c, p.beta)
            return c
        obs.count("engine.execute.gemm")
        obs.count("engine.kernel_calls", len(plan.calls))

        with obs.span("engine.execute_gemm", groups=c.groups):
            mem = MemorySpace()
            strides = {"C": c.group_stride_bytes}
            mem.bind("C", c.buffer)
            m_tiles = plan.meta["m_tiles"]
            n_tiles = plan.meta["n_tiles"]

            def packed_a() -> "tuple[np.ndarray, int]":
                pa = pack_gemm_a(a, p.transa, p.k, m_tiles)
                return pa.data, pa.group_stride_bytes

            def packed_b() -> "tuple[np.ndarray, int]":
                pb = pack_gemm_b(b, p.transb, p.k, n_tiles)
                return pb.data, pb.group_stride_bytes

            self._bind_operand(mem, strides, plan, "A", a, "packA",
                               packed_a, "pack.A")
            self._bind_operand(mem, strides, plan, "B", b, "packB",
                               packed_b, "pack.B")
            self.run_plan(plan, mem, strides, c.groups, compiled)
        return c

    def execute_trsm(self, plan: ExecutionPlan,
                     a: "CompactBatch | StandardBatch", b: CompactBatch,
                     compiled: "CompiledPlan | None" = None) -> CompactBatch:
        """Run the plan; B is overwritten with X and returned.  A may be
        a :class:`StandardBatch` source where the plan packs it."""
        if plan.kind != "trsm":
            raise PlanError(f"expected a trsm plan, got {plan.kind}")
        p: TrsmProblem = plan.problem
        _check_compact("A", a, p.a_dim, p.a_dim, plan)
        _check_compact("B", b, *p.b_shape, plan)
        if p.alpha == 0:
            # Netlib BLAS: alpha == 0 sets B := 0 without referencing A
            b.buffer.fill(0)
            return b
        norm = plan.meta["norm"]
        blocks = plan.meta["blocks"]
        obs.count("engine.execute.trsm")
        obs.count("engine.kernel_calls", len(plan.calls))

        with obs.span("engine.execute_trsm", groups=b.groups):
            mem = MemorySpace()
            strides: dict[str, int] = {}

            def packed_t() -> "tuple[np.ndarray, int]":
                packed = pack_trsm_a(a, norm, blocks)
                return packed.data, packed.group_stride_bytes

            def packed_b() -> "tuple[np.ndarray, int]":
                # pad_cols_to is the final padded width: padded_count(n,
                # n_pad) == n_pad whenever n_pad >= n, which the plan
                # guarantees
                work, _ = pack_trsm_b(b, norm,
                                      pad_cols_to=plan.meta["n_pad"])
                return work, plan.buffers["workB"].group_stride_bytes

            self._bind_operand(mem, strides, plan, "A", a, "packT",
                               packed_t, "pack.T")
            if _b_in_place(plan, b):
                # the pack would copy B byte for byte: solve B itself
                mem.bind("workB", b.buffer)
                strides["workB"] = b.group_stride_bytes
                work = None
            else:
                work = self._bind_operand(mem, strides, plan, "B", b,
                                          "workB", packed_b, "pack.B")
            self.run_plan(plan, mem, strides, b.groups, compiled)

            if work is not None:
                with obs.span("unpack.B"):
                    unpack_trsm_b(work, b, norm,
                                  pad_cols_to=plan.meta["n_pad"])
        return b

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    def scheduled(self, program: Program, machine: MachineConfig) -> Program:
        """``program`` in the kernel optimizer's order for ``machine``
        (paper Fig. 5): scheduled and validated on first use, then
        memoized for the engine's lifetime.  Only the model sees it."""
        hit = self._scheduled.get(id(program))
        if hit is not None:
            return hit[1]
        with obs.span("codegen.optimize", kernel=program.name):
            sched = schedule_program(program, machine)
            assert_valid(sched, machine)
        obs.count("codegen.optimized")
        self._scheduled[id(program)] = (program, sched)
        return sched

    def time_plan(self, plan: ExecutionPlan) -> PlanTiming:
        """Cycle-model timing of one steady-state group, scaled out.

        Two consecutive groups are replayed.  Group 0 only primes the
        cache and stream-prefetcher state the way the previous group's
        execution would have: the cache pass
        (:meth:`PipelineModel.touch`) replays its cache accesses in
        program order, without the scoreboard.  That is exact, because
        the hierarchy sees accesses in program order whatever cycle each
        issues in and timing never feeds back into the caches.  Group 1
        runs the cache pass for every call and the scoreboard once per
        distinct (program, load extras).  Each call's program is timed
        in its :meth:`scheduled` form, or as generated when the plan's
        ``schedule`` bit is off.  The pipeline model is built per
        call, so each distinct kernel program is decoded once per plan,
        and the decode and the scoreboard memo are dropped with the
        model; the per-opcode part of the decode (issue class,
        latency, FP cap) comes from the machine's shared
        :func:`~repro.machine.facts.opcode_facts` table, the one the
        scheduler and validator read.  Each kernel call also pays a
        small host-side setup cost (pointer materialization and loop
        control around the branch-free kernels).
        """
        machine = plan.machine
        with obs.span("engine.time_plan", kind=plan.kind):
            caches = machine.make_caches()
            pipe = machine.make_pipeline(caches)
            asp = AddressSpace()
            for name, spec in plan.buffers.items():
                stride = max(spec.group_stride_bytes, 64)
                base = asp.place(name, 2 * stride)
                if spec.warm == "l1":
                    caches.warm_range(base, 2 * spec.group_stride_bytes, "l1")
                elif spec.warm == "l2":
                    caches.warm_range(base, 2 * spec.group_stride_bytes, "l2")

            def xregs(call: KernelCall, group: int) -> dict[int, int]:
                def addr(buf: str, off: int) -> int:
                    return (asp.base(buf)
                            + group * plan.buffers[buf].group_stride_bytes
                            + off)
                init = {
                    regs.PA: addr(call.a_buf, call.a_off),
                    regs.PB: addr(call.b_buf, call.b_off),
                }
                for j, off in enumerate(call.c_offsets):
                    init[regs.pc(j)] = addr(call.c_buf, off)
                if call.x_buf is not None:
                    init[PX] = addr(call.x_buf, call.x_off)
                return init

            progs = [self.scheduled(call.program, machine) if plan.schedule
                     else call.program for call in plan.calls]
            for call, prog in zip(plan.calls, progs):  # group 0: cache only
                pipe.touch(prog, xregs(call, 0))
            total: TimingResult | None = None
            for call, prog in zip(plan.calls, progs):  # group 1: scoreboard
                r = pipe.simulate(prog, xregs(call, 1))
                total = r if total is None else total + r
            assert total is not None, "plan has no kernel calls"
            setup = PER_KERNEL_CALL_SETUP_CYCLES * len(plan.calls)
            total = TimingResult(total.cycles + setup, total.drain_cycles,
                                 total.instructions, total.stall_cycles,
                                 total.fp_issued, total.mem_issued,
                                 total.l1_misses, total.l2_misses)

            timing = PlanTiming(
                plan=plan,
                kernel_cycles_per_group=total.cycles,
                pack_cycles=plan.pack_cost.cycles(machine),
                unpack_cycles=plan.unpack_cost.cycles(machine),
                overhead_cycles=PLAN_GENERATION_OVERHEAD_CYCLES,
                detail=total,
            )
        obs.count("engine.timed_plans")
        obs.count("engine.cycles.kernel", timing.kernel_cycles)
        obs.count("engine.cycles.pack", timing.pack_cycles)
        obs.count("engine.cycles.unpack", timing.unpack_cycles)
        obs.count("engine.cycles.overhead", timing.overhead_cycles)
        obs.count("engine.stall_cycles", total.stall_cycles)
        obs.count("engine.l1_misses", total.l1_misses)
        obs.count("engine.l2_misses", total.l2_misses)
        return timing
