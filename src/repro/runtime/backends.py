"""Pluggable executor backends: how a bound plan's kernels actually run.

The engine separates *what* to run (the plan), *how it was compiled*
(the lowered command stream), and *what executes it* (a backend):

``interpret``
    The original :class:`~repro.machine.executor.VectorExecutor` walking
    every program instruction by instruction.  It is the bit-exact
    reference: every other backend must produce identical
    :class:`~repro.layout.compact.CompactBatch` bytes.

``fused`` (the default)
    Replays a :class:`~repro.runtime.lowering.CompiledPlan`'s
    pass-*optimized* stream (``CompiledPlan.fused_commands``): one 2-D
    ``(groups, stride_elems)`` view per buffer, a preallocated vector
    register file, and a flat loop of slice copies and in-place ufuncs.
    No pointer resolution, no alignment/bounds checks, no per-op
    allocation — all of that happened once at lower time.  FMLA chains
    are collapsed into stacked ``K_MACC`` macro-ops, adjacent
    loads/stores merged into wide copies, dead register writes
    eliminated, so each macro-op is a handful of large ufuncs instead
    of dozens of tiny ones — with bit-exact results by pass
    construction.

``megakernel``
    The trace-compiled backend
    (:class:`~repro.runtime.megakernel.MegakernelBackend`): the fused
    stream is partitioned into straight-line segments and compiled
    *once* into generated Python source of whole-group NumPy ops, so
    the steady state executes zero per-instruction Python dispatch.
    The program is cached on the lowered plan and rides the engine's
    ``PlanCache``; results stay bit-identical to ``interpret``.

``parallel``
    A wrapper that shards the *group axis* across a
    ``ThreadPoolExecutor``, running an inner backend (``fused`` by
    default) on each contiguous shard.  Groups are fully independent
    and NumPy releases the GIL inside ufuncs, so sharding is bit-exact
    by construction and genuinely concurrent.  Configure via
    ``IATF(backend="parallel", inner="fused", workers=N)``; with
    ``mode="process"`` the shards run in a fork-based process pool
    over shared-memory buffer slices instead, sidestepping the GIL
    entirely for inner backends that do not release it.

Adding a backend means implementing the :class:`ExecutorBackend`
protocol (``name``, ``needs_lowering``, ``run``) and registering it in
``BACKENDS``; see ``docs/architecture.md`` for the contract.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from .. import obs
from ..codegen import regs
from ..codegen.templates_trsm import PX
from ..errors import ExecutionError, PlanError
from ..machine.executor import VectorExecutor
from ..machine.isa import NUM_VREGS
from ..machine.memory import MemorySpace
from .lowering import (K_FADD, K_FDIV, K_FIMM, K_FMAI, K_FMLA, K_FMLS,
                       K_FMUL, K_FMULI, K_FSUB, K_LOAD, K_LOAD1R, K_LOAD2,
                       K_LOAD_PART, K_LOADPAIR, K_LOADW, K_MACC, K_STORE,
                       K_STORE2, K_STOREPAIR, K_STOREW, K_VMOV, K_VZERO,
                       CompiledPlan, lower_plan)
from .megakernel import MegakernelBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import ExecutionPlan

__all__ = ["ExecutorBackend", "InterpretBackend", "FusedBackend",
           "MegakernelBackend", "ParallelBackend", "BACKENDS",
           "DEFAULT_BACKEND", "DEFAULT_INNER", "resolve_backend",
           "backend_name"]

DEFAULT_BACKEND = "fused"

DEFAULT_INNER = "fused"
"""The inner backend a ``parallel`` wrapper shards over when none is
named — the optimized replayer, so the two tentpole halves compose."""


@runtime_checkable
class ExecutorBackend(Protocol):
    """What the engine needs from an execution strategy."""

    #: short identifier used in ``IATF(backend=...)``, obs counters, and
    #: explain reports
    name: str
    #: True if :meth:`run` consumes a :class:`CompiledPlan` (the engine
    #: lowers — or fetches the cached lowering — before calling)
    needs_lowering: bool

    def run(self, plan: "ExecutionPlan", mem: MemorySpace,
            strides: "dict[str, int]", groups: int,
            compiled: "CompiledPlan | None" = None) -> None:
        """Execute every kernel call of the plan against bound buffers."""
        ...


class InterpretBackend:
    """Per-instruction reference execution (the original engine path)."""

    name = "interpret"
    needs_lowering = False

    def run(self, plan: "ExecutionPlan", mem: MemorySpace,
            strides: "dict[str, int]", groups: int,
            compiled: "CompiledPlan | None" = None) -> None:
        ex = VectorExecutor(mem, groups=groups)
        garange = np.arange(groups, dtype=np.int64)
        bases = {name: garange * stride for name, stride in strides.items()}
        for call in plan.calls:
            ex.set_pointer(regs.PA, call.a_buf, bases[call.a_buf] + call.a_off)
            ex.set_pointer(regs.PB, call.b_buf, bases[call.b_buf] + call.b_off)
            for j, off in enumerate(call.c_offsets):
                ex.set_pointer(regs.pc(j), call.c_buf,
                               bases[call.c_buf] + off)
            if call.x_buf is not None:
                ex.set_pointer(PX, call.x_buf, bases[call.x_buf] + call.x_off)
            ex.run(call.program)


class FusedBackend:
    """Replays a lowered plan's pass-optimized command stream
    (``fused_commands``) in L2-resident group blocks — the
    compile-once / execute-many half of the paper's run-time stage,
    extended from kernel selection down to execution.

    All address resolution happened at lower time, so a run is one 2-D
    view per buffer, a preallocated register bank, and a flat loop of
    slice copies and in-place ufuncs.  Macro-ops (fused FMLA chains,
    coalesced wide copies, dead writes gone) cut the Python dispatches
    per block roughly in half, which is what makes small blocks
    affordable; blocking keeps the whole register bank hot in L2, so
    the dispatches that remain run at cache speed instead of memory
    bandwidth.  Groups are independent, so blocking is bit-exact by
    construction — the equivalence suite enforces it.
    """

    name = "fused"
    needs_lowering = True

    @staticmethod
    def stream(compiled: CompiledPlan) -> "tuple[list[tuple], int]":
        """The command stream this backend replays and the macro-op
        stack depth it needs (0 = no macro-ops, no stack scratch
        allocated).  Public so the attribution profiler
        (:mod:`repro.obs.profile`) can profile exactly what a backend
        would execute."""
        return compiled.fused_commands, compiled.stats["passes"]["max_stack"]

    @staticmethod
    def _block_groups(l2_bytes: int, lanes: int, itemsize: int) -> int:
        """Largest group block whose register bank fits half of L2 (the
        other half is left to the operand panels streaming through);
        the floor keeps per-ufunc work from degenerating into pure
        dispatch overhead on machines modelled with tiny caches."""
        block = (l2_bytes // 2) // (NUM_VREGS * lanes * itemsize)
        return max(64, block)

    def run(self, plan: "ExecutionPlan", mem: MemorySpace,
            strides: "dict[str, int]", groups: int,
            compiled: "CompiledPlan | None" = None) -> None:
        if compiled is None:
            compiled = lower_plan(plan)
        if groups != compiled.groups:
            raise ExecutionError(
                f"compiled plan covers {compiled.groups} groups, "
                f"execution asked for {groups}")
        mats = self._bind(compiled, mem, strides, groups)
        dtype = compiled.dtype
        lanes = compiled.lanes
        commands, max_stack = self.stream(compiled)
        block = min(groups, self._block_groups(
            plan.machine.l2.size, lanes, np.dtype(dtype).itemsize))
        rbank = np.empty((NUM_VREGS, block, lanes), dtype=dtype)
        scratch = np.empty((block, lanes), dtype=dtype)
        stacks = (np.empty((2, max_stack, block, lanes), dtype=dtype)
                  if max_stack else None)
        # 16-byte-unit reinterpretations for the vectorized wide copies
        # (commands carry cfirst >= 0 only for buffers whose stride
        # passed the lower-time eligibility check)
        rbankC = (rbank.view(np.complex128)
                  if (lanes * rbank.itemsize) % 16 == 0 else None)
        matsC = {name: (v.view(np.complex128)
                        if (v.shape[1] * v.itemsize) % 16 == 0 else None)
                 for name, v in mats.items()}
        with np.errstate(all="ignore"):
            for start in range(0, groups, block):
                n = min(block, groups - start)
                if n == groups:
                    # one block covers every group: no per-block views
                    bm, bmC, rb = mats, matsC, rbank
                else:
                    cut = slice(start, start + n)
                    bm = {k: v[cut] for k, v in mats.items()}
                    bmC = {k: None if v is None else v[cut]
                           for k, v in matsC.items()}
                    rb = rbank[:, :n]
                self._replay(commands, bm, list(rb), rb, scratch[:n],
                             None if stacks is None else stacks[:, :, :n],
                             bmC, None if rbankC is None else rbankC[:, :n])

    # -- binding -------------------------------------------------------

    @staticmethod
    def _bind(compiled: CompiledPlan, mem: MemorySpace,
              strides: "dict[str, int]",
              groups: int) -> "dict[str, np.ndarray]":
        """One validated ``(groups, stride_elems)`` view per buffer.

        This is the entire per-execution address-resolution cost: every
        command's operand is a column slice of one of these views.
        """
        mats: dict[str, np.ndarray] = {}
        for name, lay in compiled.buffers.items():
            if name not in mem:
                raise ExecutionError(
                    f"compiled plan buffer {name!r} was not bound")
            actual = strides.get(name)
            if actual is not None and actual != lay.stride_bytes:
                raise PlanError(
                    f"buffer {name!r} stride {actual} B does not match the "
                    f"lowered stride {lay.stride_bytes} B — the plan was "
                    f"lowered for a different layout")
            mats[name] = mem.group_view(name, groups, lay.stride_elems)
        return mats

    # -- replay --------------------------------------------------------

    @staticmethod
    def _replay(commands: "list[tuple]", mats: "dict[str, np.ndarray]",
                rfile: "list[np.ndarray]", rbank: np.ndarray,
                scratch: np.ndarray, stacks: "np.ndarray | None",
                matsC: "dict | None", rbankC: "np.ndarray | None") -> None:
        # Ordered roughly by dynamic frequency in GEMM/TRSM kernels
        # (raw streams are FMLA-heavy; fused streams lead with macro-ops).
        for cmd in commands:
            k = cmd[0]
            if k == K_FMLA:
                _, d, a, b = cmd
                np.multiply(rfile[a], rfile[b], out=scratch)
                np.add(rfile[d], scratch, out=rfile[d])
            elif k == K_MACC:
                # per-member multiplies straight out of the register
                # file (sources repeat, a stacked multiply would need a
                # full gather copy), then ONE vectorized accumulate —
                # bit-exact because accumulators are distinct with a
                # uniform sign (see lowering.K_MACC)
                _, dsel, aids, bids, neg, n = cmd
                prod = stacks[0, :n]
                for i in range(n):
                    np.multiply(rfile[aids[i]], rfile[bids[i]],
                                out=prod[i])
                if type(dsel) is slice:
                    acc = rbank[dsel]
                    if neg:
                        np.subtract(acc, prod, out=acc)
                    else:
                        np.add(acc, prod, out=acc)
                else:
                    acc = np.take(rbank, dsel, axis=0, out=stacks[1, :n])
                    if neg:
                        np.subtract(acc, prod, out=acc)
                    else:
                        np.add(acc, prod, out=acc)
                    rbank[dsel] = acc
            elif k == K_LOADW:
                # count consecutive column slices -> count registers in
                # one copy; cfirst >= 0 means both sides reinterpret as
                # 16-byte units (complex128) so the copy is one C-level
                # elementwise loop instead of a segmented float copy
                _, dsel, buf, first, n, count, cfirst = cmd
                if cfirst >= 0:
                    vb = rbankC.shape[2]
                    src = matsC[buf][:, cfirst:cfirst + count * vb]
                    if count == 1:
                        d = dsel.start if type(dsel) is slice else dsel[0]
                        np.copyto(rbankC[d], src)
                    else:
                        src = src.reshape(-1, count, vb).transpose(1, 0, 2)
                        if type(dsel) is slice:
                            np.copyto(rbankC[dsel], src)
                        else:
                            rbankC[dsel] = src
                else:
                    src = mats[buf][:, first:first + count * n]
                    src = src.reshape(-1, count, n).transpose(1, 0, 2)
                    if type(dsel) is slice:
                        np.copyto(rbank[dsel], src)
                    else:
                        rbank[dsel] = src
            elif k == K_STOREW:
                _, ssel, buf, first, n, count, cfirst = cmd
                if cfirst >= 0:
                    vb = rbankC.shape[2]
                    dst = matsC[buf][:, cfirst:cfirst + count * vb]
                    if count == 1:
                        s = ssel.start if type(ssel) is slice else ssel[0]
                        np.copyto(dst, rbankC[s])
                    else:
                        gs = rbankC[ssel]   # fancy-index copy is fine: read-only
                        np.copyto(dst.reshape(-1, count, vb),
                                  gs.transpose(1, 0, 2))
                else:
                    if type(ssel) is slice:
                        gs = rbank[ssel]
                    else:
                        gs = np.take(rbank, ssel, axis=0,
                                     out=stacks[0, :count])
                    dst = mats[buf][:, first:first + count * n]
                    np.copyto(dst.reshape(-1, count, n),
                              gs[:, :, :n].transpose(1, 0, 2))
            elif k == K_LOAD:
                _, d, buf, first, n = cmd
                np.copyto(rfile[d], mats[buf][:, first:first + n])
            elif k == K_LOADPAIR:
                _, d1, d2, buf, first, n = cmd
                view = mats[buf][:, first:first + 2 * n]
                np.copyto(rfile[d1], view[:, :n])
                np.copyto(rfile[d2], view[:, n:])
            elif k == K_STORE:
                _, s, buf, first, n = cmd
                np.copyto(mats[buf][:, first:first + n], rfile[s][:, :n])
            elif k == K_STOREPAIR:
                _, s1, s2, buf, first, n = cmd
                view = mats[buf][:, first:first + 2 * n]
                np.copyto(view[:, :n], rfile[s1])
                np.copyto(view[:, n:], rfile[s2])
            elif k == K_FMLS:
                _, d, a, b = cmd
                np.multiply(rfile[a], rfile[b], out=scratch)
                np.subtract(rfile[d], scratch, out=rfile[d])
            elif k == K_LOAD1R:
                _, d, buf, first = cmd
                np.copyto(rfile[d], mats[buf][:, first:first + 1])
            elif k == K_LOAD2:
                _, de, do, buf, first, n = cmd
                reg = rfile[de]
                reg[:, n:] = 0.0
                reg[:, :n] = mats[buf][:, first:first + 2 * n:2]
                reg = rfile[do]
                reg[:, n:] = 0.0
                reg[:, :n] = mats[buf][:, first + 1:first + 2 * n:2]
            elif k == K_STORE2:
                _, se, so, buf, first, n = cmd
                np.copyto(mats[buf][:, first:first + 2 * n:2],
                          rfile[se][:, :n])
                np.copyto(mats[buf][:, first + 1:first + 2 * n:2],
                          rfile[so][:, :n])
            elif k == K_LOAD_PART:
                _, d, buf, first, n = cmd
                reg = rfile[d]
                reg[:, n:] = 0.0
                reg[:, :n] = mats[buf][:, first:first + n]
            elif k == K_FMUL:
                _, d, a, b = cmd
                np.multiply(rfile[a], rfile[b], out=rfile[d])
            elif k == K_FMAI:
                _, d, a, imm = cmd
                np.multiply(rfile[a], imm, out=scratch)
                np.add(rfile[d], scratch, out=rfile[d])
            elif k == K_FMULI:
                _, d, a, imm = cmd
                np.multiply(rfile[a], imm, out=rfile[d])
            elif k == K_FADD:
                _, d, a, b = cmd
                np.add(rfile[a], rfile[b], out=rfile[d])
            elif k == K_FSUB:
                _, d, a, b = cmd
                np.subtract(rfile[a], rfile[b], out=rfile[d])
            elif k == K_FDIV:
                _, d, a, b = cmd
                np.divide(rfile[a], rfile[b], out=rfile[d])
            elif k == K_VZERO:
                rfile[cmd[1]].fill(0.0)
            elif k == K_VMOV:
                np.copyto(rfile[cmd[1]], rfile[cmd[2]])
            elif k == K_FIMM:
                rfile[cmd[1]].fill(cmd[2])
            else:  # pragma: no cover - lowering emits only known kinds
                raise ExecutionError(f"unknown compiled command kind {k}")


def _default_workers() -> int:
    """Worker-count default: the host's cores, capped — oversubscribing
    tiny per-shard workloads with threads only adds overhead."""
    return max(1, min(8, os.cpu_count() or 1))


class ParallelBackend:
    """Shards the group axis across a thread pool, one inner-backend
    run per contiguous shard.

    Groups are independent by construction (each owns a disjoint
    ``stride_elems`` slice of every buffer), so per-shard
    :class:`MemorySpace` views over disjoint slices of the same arrays
    produce bit-identical bytes to a single whole-batch run — in any
    execution order.  NumPy releases the GIL inside ufuncs, so shards
    genuinely overlap.  The pool is created lazily and reused across
    runs; the inner backend must be shard-agnostic (every registered
    backend is — per-run state only).
    """

    name = "parallel"

    MODES = ("thread", "process")

    def __init__(self, inner: "str | ExecutorBackend | None" = None,
                 workers: "int | None" = None,
                 mode: "str | None" = None) -> None:
        self.inner = resolve_backend(DEFAULT_INNER if inner is None
                                     else inner)
        if self.inner.name == self.name:
            raise PlanError("parallel backend cannot wrap itself")
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise PlanError("parallel backend needs workers >= 1")
        self.mode = "thread" if mode is None else str(mode)
        if self.mode not in self.MODES:
            raise PlanError(f"parallel mode must be one of {self.MODES}, "
                            f"got {mode!r}")
        if (self.mode == "process"
                and "fork" not in multiprocessing.get_all_start_methods()):
            raise PlanError("parallel mode='process' needs the fork start "
                            "method, which this platform does not offer")
        self._pool: "ThreadPoolExecutor | None" = None
        self._pool_lock = threading.Lock()

    @property
    def needs_lowering(self) -> bool:
        return self.inner.needs_lowering

    @staticmethod
    def shard_ranges(groups: int, shards: int) -> "list[tuple[int, int]]":
        """Contiguous, balanced ``[start, stop)`` group ranges (never
        more shards than groups; sizes differ by at most one)."""
        shards = max(1, min(shards, groups))
        base, extra = divmod(groups, shards)
        ranges, start = [], 0
        for i in range(shards):
            count = base + (1 if i < extra else 0)
            ranges.append((start, start + count))
            start += count
        return ranges

    def _pool_get(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-parallel")
        return self._pool

    def run(self, plan: "ExecutionPlan", mem: MemorySpace,
            strides: "dict[str, int]", groups: int,
            compiled: "CompiledPlan | None" = None) -> None:
        if self.inner.needs_lowering and compiled is None:
            compiled = lower_plan(plan)
        ranges = self.shard_ranges(groups, self.workers)
        obs.count("backend.parallel.shards", len(ranges))
        if len(ranges) == 1:
            self.inner.run(plan, mem, strides, groups, compiled)
            return
        if self.mode == "process":
            self._run_process(plan, mem, strides, compiled, ranges)
            return
        # pool threads do not inherit the caller's trace context, so
        # capture it once and hand it to every shard explicitly — the
        # shard spans then join the plan-run's trace instead of
        # becoming orphaned roots
        car = obs.carrier()
        pool = self._pool_get()
        futures = []
        for idx, (start, stop) in enumerate(ranges):
            smem = self._shard_memory(mem, strides, start, stop)
            count = stop - start
            scompiled = (compiled.for_groups(count)
                         if compiled is not None else None)
            futures.append(pool.submit(self._run_shard, idx, start, plan,
                                       smem, strides, count, scompiled,
                                       car))
        for f in futures:
            f.result()          # re-raises any shard failure

    @staticmethod
    def _shard_memory(mem: MemorySpace, strides: "dict[str, int]",
                      start: int, stop: int) -> MemorySpace:
        """A MemorySpace whose buffers are zero-copy slices covering
        groups ``[start, stop)`` — writes land in the caller's arrays."""
        smem = MemorySpace()
        for name, stride_bytes in strides.items():
            arr = mem[name]
            se = stride_bytes // arr.dtype.itemsize
            smem.bind(name, arr[start * se:stop * se])
        return smem

    def _run_shard(self, idx: int, start: int, plan: "ExecutionPlan",
                   smem: MemorySpace, strides: "dict[str, int]",
                   count: int, compiled: "CompiledPlan | None",
                   car: "tuple | None" = None) -> None:
        if car is not None:
            obs.count("obs.overhead.trace.attach")
            with obs.attach(car):
                with obs.span("backend.parallel.shard", shard=idx,
                              start=start, groups=count,
                              inner=self.inner.name):
                    self.inner.run(plan, smem, strides, count, compiled)
            return
        with obs.span("backend.parallel.shard", shard=idx, start=start,
                      groups=count, inner=self.inner.name):
            self.inner.run(plan, smem, strides, count, compiled)

    # -- process mode --------------------------------------------------

    def _run_process(self, plan: "ExecutionPlan", mem: MemorySpace,
                     strides: "dict[str, int]",
                     compiled: "CompiledPlan | None",
                     ranges: "list[tuple[int, int]]") -> None:
        """Shards across fork()ed worker processes over shared memory.

        Every bound buffer is copied once into a
        :mod:`multiprocessing.shared_memory` block; forked children
        inherit the mappings (and the plan, the lowering, even an
        already-compiled megakernel program — fork never pickles), bind
        zero-copy slice views over their disjoint group ranges, and
        write results straight into the shared block, which the parent
        copies back after every child exits.  The two extra full-buffer
        passes buy a pool the GIL cannot serialize — worth it only for
        inner work that holds the GIL, which is why ``mode="process"``
        is opt-in rather than the wrapper default.

        When instrumentation is on, each child records into a fresh
        registry and ships it back over the same queue as errors (see
        :mod:`repro.obs.procagg`); the parent merges every shard's
        counters, histograms, spans, and events after the join, so a
        process-mode run is exactly as observable as a thread-mode one.
        """
        obs.count("backend.parallel.process.runs")
        telemetry = obs.enabled()
        # captured before the fork: the merge re-parents each shard's
        # span tree under the span that is open right here
        car = obs.carrier() if telemetry else None
        shms: "list[shared_memory.SharedMemory]" = []
        shared: "dict[str, np.ndarray]" = {}
        ctx = multiprocessing.get_context("fork")
        try:
            for name in strides:
                arr = mem[name]
                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(1, arr.nbytes))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                np.copyto(view, arr)
                shms.append(shm)
                shared[name] = view
            errq = ctx.SimpleQueue()
            procs = []
            for idx, (start, stop) in enumerate(ranges):
                p = ctx.Process(target=self._process_shard,
                                args=(idx, start, stop, plan, strides,
                                      shared, compiled, errq),
                                daemon=True)
                p.start()
                procs.append(p)
            failures: "list[tuple[str, str]]" = []
            payloads: "list[dict]" = []

            def drain() -> None:
                while not errq.empty():
                    msg = errq.get()
                    if msg[0] == "telemetry":
                        payloads.append(msg[1])
                    else:
                        failures.append((msg[1], msg[2]))

            # drain while joining: a child blocked writing a large
            # telemetry payload into the queue's pipe cannot exit, and
            # a parent blocked in join() would never read — the classic
            # SimpleQueue deadlock
            for p in procs:
                while p.is_alive():
                    p.join(timeout=0.05)
                    drain()
                p.join()
            drain()
            for p, (start, stop) in zip(procs, ranges):
                if p.exitcode != 0 and not failures:
                    failures.append((f"groups [{start}, {stop})",
                                     f"exit code {p.exitcode}"))
            if telemetry and payloads:
                from ..obs import procagg
                for payload in sorted(
                        payloads, key=lambda d: d.get("shard") or 0):
                    procagg.merge_child(payload, carrier=car)
            if failures:
                detail = "; ".join(f"shard {who}: {why}"
                                   for who, why in failures)
                raise ExecutionError(
                    f"parallel process shard failed: {detail}")
            for name, view in shared.items():
                np.copyto(mem[name], view)
        finally:
            for shm in shms:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - double clean
                    pass

    def _process_shard(self, idx: int, start: int, stop: int,
                       plan: "ExecutionPlan", strides: "dict[str, int]",
                       shared: "dict[str, np.ndarray]",
                       compiled: "CompiledPlan | None", errq) -> None:
        """Body of one forked worker (child process only)."""
        telemetry = obs.enabled()
        if telemetry:
            # fresh registry: ship only what THIS child records (the
            # inherited pre-fork contents would double-count on merge)
            from ..obs import procagg
            procagg.child_begin()
        try:
            smem = MemorySpace()
            for name, stride_bytes in strides.items():
                arr = shared[name]
                se = stride_bytes // arr.dtype.itemsize
                smem.bind(name, arr[start * se:stop * se])
            count = stop - start
            scompiled = (compiled.for_groups(count)
                         if compiled is not None else None)
            with obs.span("backend.parallel.shard", shard=idx,
                          start=start, groups=count,
                          inner=self.inner.name):
                self.inner.run(plan, smem, strides, count, scompiled)
        except BaseException as exc:
            errq.put(("error", str(idx), f"{type(exc).__name__}: {exc}"))
            raise
        finally:
            # ships even for a failed shard — a crashed worker's
            # telemetry is exactly what the post-mortem wants
            if telemetry:
                errq.put(("telemetry", procagg.child_capture(shard=idx)))


BACKENDS: "dict[str, type]" = {
    InterpretBackend.name: InterpretBackend,
    FusedBackend.name: FusedBackend,
    MegakernelBackend.name: MegakernelBackend,
    ParallelBackend.name: ParallelBackend,
}


def backend_name(backend: "str | ExecutorBackend | None") -> str:
    """Canonical name of a backend selector (None = the default)."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, str):
        return backend
    name = getattr(backend, "name", None)
    if not isinstance(name, str):
        raise PlanError(f"object {backend!r} does not implement the "
                        f"ExecutorBackend protocol (no 'name')")
    return name


#: shared instances per configuration — backends are stateless across
#: runs (the parallel pool is reused deliberately), so every
#: ``Engine``/``IATF`` resolving the same name shares one object
#: instead of constructing a fresh backend per resolution
_INSTANCES: "dict[tuple, ExecutorBackend]" = {}


def _conforms(backend: object) -> bool:
    """Structural protocol check usable *before* first use: the three
    members exist and ``run`` is callable (``isinstance`` against a
    runtime_checkable Protocol only probes attribute presence)."""
    return (isinstance(backend, ExecutorBackend)
            and callable(getattr(backend, "run", None)))


def resolve_backend(backend: "str | ExecutorBackend | None" = None, *,
                    inner: "str | ExecutorBackend | None" = None,
                    workers: "int | None" = None,
                    mode: "str | None" = None) -> ExecutorBackend:
    """Turn a backend name (or ready instance) into an instance.

    Named backends are cached per configuration, so repeated
    resolutions share one instance; an explicit instance passes through
    untouched (never cached, never reconfigured).  ``inner``,
    ``workers``, and ``mode`` configure the ``parallel`` wrapper and
    are rejected for anything else — a silently ignored option would
    read as applied.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        cls = BACKENDS.get(backend)
        if cls is None:
            raise PlanError(
                f"unknown executor backend {backend!r}; available: "
                f"{', '.join(sorted(BACKENDS))}")
        if backend == ParallelBackend.name:
            if inner is not None and not isinstance(inner, str):
                # instance-configured wrapper: build fresh, don't cache
                return ParallelBackend(inner=inner, workers=workers,
                                       mode=mode)
            # cache on the FULL parameterization, with omitted options
            # normalized to their defaults first — resolve(workers=None)
            # and resolve(workers=<host default>) must share one
            # instance (and one pool), not build two
            key = (backend, DEFAULT_INNER if inner is None else inner,
                   _default_workers() if workers is None else int(workers),
                   "thread" if mode is None else mode)
            instance = _INSTANCES.get(key)
            if instance is None:
                instance = _INSTANCES.setdefault(
                    key, ParallelBackend(inner=inner, workers=workers,
                                         mode=mode))
            return instance
        if inner is not None or workers is not None or mode is not None:
            raise PlanError(
                f"inner=/workers=/mode= configure the 'parallel' backend; "
                f"{backend!r} takes none of them")
        instance = _INSTANCES.get((backend,))
        if instance is None:
            instance = _INSTANCES.setdefault((backend,), cls())
        return instance
    if inner is not None or workers is not None or mode is not None:
        raise PlanError("inner=/workers=/mode= cannot reconfigure a ready "
                        "backend instance")
    if not _conforms(backend):
        raise PlanError(f"object {backend!r} does not implement the "
                        f"ExecutorBackend protocol (name, needs_lowering, "
                        f"run)")
    return backend
