"""Executor backends: how a bound plan's kernels actually run.

The engine separates *what* to run (the plan), *how it was compiled*
(the lowered command stream), and *what executes it* (a backend):

``interpret``
    The original :class:`~repro.machine.executor.VectorExecutor` walking
    every program instruction by instruction.  It is the bit-exact
    reference: ``fused`` must produce identical
    :class:`~repro.layout.compact.CompactBatch` bytes.

``fused`` (the default)
    Runs a :class:`~repro.runtime.lowering.CompiledPlan`'s waves over
    its pass-*optimized* template streams: one 2-D ``(groups,
    stride_elems)`` view per buffer, a preallocated vector register
    bank, and no pointer resolution, alignment/bounds checks or per-op
    allocation — all of that happened once at lower time.  FMLA chains
    are collapsed into stacked ``K_MACC`` macro-ops, every load/store
    is a wide copy in 16-byte units (adjacent ones merged) and dead
    register writes are eliminated, with bit-exact results by pass
    construction.  It implements only the ten command kinds lowering
    emits (see :mod:`repro.runtime.lowering`); a program outside that
    contract fails at lower time and runs on ``interpret``.  It has two
    tiers over one wave schedule: a plan's first execute *replays* each
    template's stream command by command; once a plan executes again,
    each template's stream runs as *generated* straight-line NumPy code
    (:mod:`repro.runtime.megakernel`), called in place of the replay
    loop with the same inputs.

A backend is selected by name (``IATF(backend="interpret")``);
``BACKENDS`` maps each name to its one shared instance.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..codegen import regs
from ..codegen.templates_trsm import PX
from ..errors import ExecutionError, PlanError
from ..machine.executor import VectorExecutor
from ..machine.isa import NUM_VREGS
from ..machine.memory import MemorySpace
from .lowering import (K_FMAI, K_FMLA, K_FMLS, K_FMUL, K_FMULI, K_LOADW,
                       K_MACC, K_STOREW, K_VMOV, K_VZERO, CompiledPlan,
                       Wave)
from .megakernel import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import ExecutionPlan

__all__ = ["InterpretBackend", "FusedBackend", "BACKENDS",
           "DEFAULT_BACKEND", "resolve_backend"]

DEFAULT_BACKEND = "fused"

PASS_GROUPS = 512
"""Groups per pass that already amortize a ufunc's dispatch: past it a
wave pass gains more from holding more calls, whose operands share
cache lines (a tile grid's calls of one row read one A panel), than
from more groups.  Measured on batch-16384 sgemm 8x8x8 (4-call
waves, 2048-row bank, 2-vCPU x86 host): 512 groups x 4 calls per pass
ran the waves 25-30 % faster than 2048 groups x 1 call with generated
programs (~10 % replayed); 1024 x 2 and 256 x 4 were in between."""

HOIST_CALLS = 4
"""Calls along a pass axis from which a buffer that does not move on
that axis (and that the template never writes) is hoisted: its pass
view gets length 1 there, so each panel load copies once for the whole
axis and the generated program's outer-product multiplies broadcast it.
A broadcast operand splits the multiply's inner loop at that axis,
which costs more than the copy it saves when the axis is short: on the
lib_bulk problems (2-vCPU x86 host), hoisting sgemm 8^3's 2-call axes
ran it 4-9 % slower, while dgemm 33^3's 7-call runs ran 7-12 %
faster."""

HOIST_GROUPS = 128
"""Groups a pass needs before it hoists: the split inner loops are
``groups * lanes`` long, and shorter ones cost more than the copies
saved (dgemm 33^3 ran 3-6 % slower hoisted at 16-64 groups, 4-7 %
faster at 128-256)."""


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
    """Runs a lowered plan's waves over their pass-optimized template
    streams — the compile-once / execute-many half of the paper's
    run-time stage, extended from kernel selection down to execution.

    All address resolution happened at lower time, so a run is one 2-D
    view per buffer, a preallocated register bank, and a flat loop of
    slice copies and in-place ufuncs.  Macro-ops (fused FMLA chains,
    coalesced wide copies, dead writes gone) cut the Python dispatches
    roughly in half.  Groups are independent, so every ordering below is
    bit-exact by construction — the equivalence suite enforces it.

    One schedule drives every run: **group blocks x wave chunks**.  The
    groups split into blocks of at most :meth:`_block_groups` (half the
    host's L2 holds the register bank) — and of at most
    :data:`PASS_GROUPS` when that lets a pass hold a wider wave — and
    each block runs every wave in level order, in passes of at most
    ``block // groups-per-block`` calls.  A pass holds whole rows of the
    wave's lattice (a row is split only when it alone exceeds the
    budget) and binds each buffer as one strided ``(rows, cols, groups,
    width)`` view, so a GEMM tile grid replays its template once per
    pass, not once per tile.  A buffer the template never writes gets
    length 1 on a pass axis of at least :data:`HOIST_CALLS` calls that
    it does not move along (hoisted, in passes of at least
    :data:`HOIST_GROUPS` groups): a generated program copies its panel
    once for that axis and broadcasts it into its outer products, and a
    replay's loads broadcast it into the full bank.  With few groups a
    ufunc is pure dispatch overhead, so one dispatch per pass instead of
    per call is the whole gain.

    Each pass runs its template's generated program when the plan has
    one (``CompiledPlan.programs``, bound by the engine per execute; see
    :mod:`repro.runtime.megakernel`) and replays the stream
    (:meth:`_replay`) otherwise.  Two bound buffers sharing memory,
    which the per-buffer footprints cannot see, run every call as its
    own one-call wave in plan order, replayed.
    """

    name = "fused"
    needs_lowering = True

    @staticmethod
    def _block_groups(l2_bytes: int, lanes: int, itemsize: int) -> int:
        """Largest register-bank row count (groups, or calls x groups)
        that fits half of the host's L2 (the other half is left to the
        operand panels streaming through); ``l2_bytes``, the plan
        machine's modelled L2, stands in where the host's is unknown.
        The floor keeps per-ufunc work from degenerating into pure
        dispatch overhead with tiny caches."""
        l2 = _host_l2_bytes() or l2_bytes
        return max(64, (l2 // 2) // (NUM_VREGS * lanes * itemsize))

    def run(self, plan: "ExecutionPlan", mem: MemorySpace,
            strides: "dict[str, int]", groups: int,
            compiled: CompiledPlan) -> None:
        if groups != compiled.groups:
            raise ExecutionError(
                f"compiled plan covers {compiled.groups} groups, "
                f"execution asked for {groups}")
        mats = self._bind(compiled, mem, strides, groups)
        block = self._block_groups(plan.machine.l2.size, compiled.lanes,
                                   compiled.dtype.itemsize)
        waves = compiled.waves
        progs = (None if compiled.programs is None
                 else compiled.programs.programs)
        if _aliased(mats):
            waves, progs = _plan_order(waves), None
        widest = max(len(w.calls) for w in waves)
        # every group in one block when they fit, but a pass that already
        # spans PASS_GROUPS groups spends further bank rows on calls
        per_block = min(groups, block, max(PASS_GROUPS, block // widest))
        cap = block // per_block
        rows = per_block * min(cap, widest)
        bank = _Bank(rows, compiled.lanes, compiled.dtype, max(
            [compiled.stats["passes"]["max_stack"]]
            + [p.stack_need for p in progs or () if p is not None]))
        with np.errstate(all="ignore"):
            for start in range(0, groups, per_block):
                n = min(per_block, groups - start)
                bm = (mats if n == groups else
                      {k: v[start:start + n] for k, v in mats.items()})
                self._run_waves(compiled, bm, n, cap, bank, progs, waves)

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

    # -- waves ---------------------------------------------------------

    @staticmethod
    def _run_waves(compiled: CompiledPlan, mats: "dict[str, np.ndarray]",
                   groups: int, cap: int, bank: "_Bank",
                   progs: "Sequence[Program | None] | None",
                   waves: "Sequence[Wave]") -> None:
        """Run ``waves`` over ``groups`` groups in order, at most ``cap``
        calls per pass (see :func:`_passes`): each pass calls the
        template's program from ``progs`` or replays its stream."""
        isz = compiled.ew
        hoist = groups >= HOIST_GROUPS
        for wave in waves:
            stream, window, writes = (
                compiled.templates[wave.template].wave_form)
            if progs is not None and progs[wave.template] is not None:
                stream = progs[wave.template]
            deltas = wave.deltas
            # per-buffer element steps along a lattice row and down its
            # columns (unused where the lattice is one wide)
            rows, cols = wave.lattice
            col = _steps(deltas[0], deltas[min(1, cols - 1)])
            row = _steps(deltas[0], deltas[cols * (rows > 1)])
            for first, nrows, ncols in _passes(wave, cap):
                calls = (nrows, ncols) if nrows > 1 else (ncols,)
                views: "dict[str, np.ndarray]" = {}
                viewsC: "dict[str, np.ndarray]" = {}
                for j, buf in enumerate(wave.buffers):
                    if buf not in window:
                        continue            # a root the kernel never uses
                    lo, span = window[buf]
                    m = mats[buf]
                    # one strided view: rows and cols step by the
                    # lattice's deltas
                    st = ((row[j] * isz,) if nrows > 1 else ()) + (
                        col[j] * isz, m.strides[0])
                    off = (deltas[first][j] + lo) * isz
                    shape = calls
                    if hoist and buf not in writes:
                        # hoisted: one panel serves every call along an
                        # axis the buffer does not move on
                        shape = tuple(1 if s == 0 and n >= HOIST_CALLS
                                      else n for n, s in zip(calls, st))
                    views[buf] = np.ndarray(shape + (groups, span), m.dtype,
                                            m, off, st + (isz,))
                    viewsC[buf] = np.ndarray(
                        shape + (groups, span * isz // 16), np.complex128,
                        m, off, st + (16,))
                bank.replay(stream, views, calls + (groups,), viewsC)

    # -- replay --------------------------------------------------------

    @staticmethod
    def _replay(commands: "Sequence[tuple]", mats: "dict[str, np.ndarray]",
                rfile: "list[np.ndarray]", rbank: np.ndarray,
                scratch: np.ndarray, stacks: "np.ndarray | None",
                matsC: "dict[str, np.ndarray]", rbankC: np.ndarray) -> None:
        """The one replay loop.  Registers are ``(*lead, lanes)`` and
        memory operands ``(*lead, elements)``: ``lead`` is ``(groups,)``
        for a plain replay and ``(calls, groups)`` or ``(rows, cols,
        groups)`` for a wave pass; every command addresses the last axis
        only.  Memory moves in 16-byte units, through the complex128
        views ``matsC`` and ``rbankC``; ``mats`` (the float views) only
        keeps the generated programs' signature."""
        lead = rbank.shape[1:-1]
        nl = len(lead)
        vb = rbankC.shape[-1]           # 16-byte units per register
        # wide copies split the last axis into (count, vb) registers and
        # move count to the front (loads) or back from it (stores)
        to_regs = (nl,) + tuple(range(nl)) + (nl + 1,)
        to_mem = tuple(range(1, nl + 1)) + (0, nl + 1)
        # Ordered roughly by dynamic frequency in GEMM/TRSM kernels
        # (fused streams lead with macro-ops).
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
                    # selectors are in range by construction: "clip"
                    # skips the buffered copy "raise" makes of ``out``
                    acc = np.take(rbank, dsel, axis=0, out=stacks[1, :n],
                                  mode="clip")
                    if neg:
                        np.subtract(acc, prod, out=acc)
                    else:
                        np.add(acc, prod, out=acc)
                    rbank[dsel] = acc
            elif k == K_LOADW:
                # count consecutive column slices -> count registers in
                # one copy: both sides reinterpret as 16-byte units
                # (complex128), so the copy is one C-level elementwise
                # loop instead of a segmented float copy
                _, dsel, buf, _, _, count, cfirst = cmd
                src = matsC[buf][..., cfirst:cfirst + count * vb]
                if count == 1:
                    d = dsel.start if type(dsel) is slice else dsel[0]
                    np.copyto(rbankC[d], src)
                else:
                    # a hoisted view's lead is shorter: broadcast
                    src = src.reshape(src.shape[:-1] + (
                        count, vb)).transpose(to_regs)
                    if type(dsel) is slice:
                        np.copyto(rbankC[dsel], src)
                    else:
                        rbankC[dsel] = src
            elif k == K_STOREW:
                _, ssel, buf, _, _, count, cfirst = cmd
                dst = matsC[buf][..., cfirst:cfirst + count * vb]
                if count == 1:
                    s = ssel.start if type(ssel) is slice else ssel[0]
                    np.copyto(dst, rbankC[s])
                else:
                    gs = rbankC[ssel]   # fancy-index copy is fine: read-only
                    np.copyto(dst.reshape(lead + (count, vb)),
                              gs.transpose(to_mem))
            elif k == K_FMLS:
                _, d, a, b = cmd
                np.multiply(rfile[a], rfile[b], out=scratch)
                np.subtract(rfile[d], scratch, out=rfile[d])
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
            elif k == K_VZERO:
                rfile[cmd[1]].fill(0.0)
            elif k == K_VMOV:
                np.copyto(rfile[cmd[1]], rfile[cmd[2]])
            else:  # pragma: no cover - lowering emits only these kinds
                raise ExecutionError(f"unknown compiled command kind {k}")


@functools.cache
def _host_l2_bytes(
        root: Path = Path("/sys/devices/system/cpu/cpu0/cache")
) -> "int | None":
    """The host's per-core L2 size from Linux sysfs (the level-2 data or
    unified cache of cpu0), read once; None where it cannot be read."""
    try:
        for index in sorted(root.glob("index*")):
            if ((index / "level").read_text().strip() == "2"
                    and (index / "type").read_text().strip()
                    in ("Data", "Unified")):
                size = (index / "size").read_text().strip()
                unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
                return int(size.rstrip("KMG")) * unit.get(size[-1], 1)
    except (OSError, ValueError):
        pass
    return None


def _steps(d0: "tuple[int, ...]", d1: "tuple[int, ...]") -> "list[int]":
    return [y - x for x, y in zip(d0, d1)]


def _passes(wave: Wave, cap: int) -> "list[tuple[int, int, int]]":
    """``(first call, rows, cols)`` of each pass over a wave of at most
    ``cap`` calls: whole lattice rows, a row split into column runs only
    when it alone exceeds ``cap``."""
    rows, cols = wave.lattice
    if cols <= cap:
        per = cap // cols
        return [(r0 * cols, min(per, rows - r0), cols)
                for r0 in range(0, rows, per)]
    return [(r * cols + c0, 1, min(cap, cols - c0))
            for r in range(rows) for c0 in range(0, cols, cap)]


def _aliased(mats: "dict[str, np.ndarray]") -> bool:
    """Whether two bound buffers share memory (``gemm_compact(p, C, B,
    C)`` binds one array as A and C): per-buffer footprints cannot see
    such conflicts, so the calls must run one by one in plan order."""
    views = list(mats.values())
    return any(np.may_share_memory(a, b)
               for i, a in enumerate(views) for b in views[i + 1:])


def _plan_order(waves: "Sequence[Wave]") -> "list[Wave]":
    """Every call of ``waves`` as a one-call wave, in plan order."""
    return sorted((Wave(w.level, w.template, (ci,), w.buffers, (d,), (1, 1))
                   for w in waves for ci, d in zip(w.calls, w.deltas)),
                  key=lambda w: w.calls)


class _Bank:
    """Register bank, scratch and macro-op stacks for up to ``rows``
    register rows (groups, or calls x groups), shaped per replay."""

    def __init__(self, rows: int, lanes: int, dtype,
                 max_stack: int) -> None:
        size = rows * lanes
        self.lanes = lanes
        self.max_stack = max_stack
        self.regs = np.empty(NUM_VREGS * size, dtype=dtype)
        self.scratch = np.empty(size, dtype=dtype)
        self.stacks = (np.empty(2 * max_stack * size, dtype=dtype)
                       if max_stack else None)

    def replay(self, commands: "Sequence[tuple] | Program",
               mats: "dict[str, np.ndarray]", lead: "tuple[int, ...]",
               matsC: "dict[str, np.ndarray]") -> None:
        """Run ``commands`` — a stream to interpret, or the generated
        :class:`~repro.runtime.megakernel.Program` of one — over
        operands with leading shape ``lead``."""
        shape = lead + (self.lanes,)
        size = self.lanes
        for n in lead:
            size *= n
        rbank = self.regs[:NUM_VREGS * size].reshape((NUM_VREGS,) + shape)
        stacks = (None if self.stacks is None else
                  self.stacks[:2 * self.max_stack * size].reshape(
                      (2, self.max_stack) + shape))
        args = (mats, list(rbank), rbank, self.scratch[:size].reshape(shape),
                stacks, matsC, rbank.view(np.complex128))
        if isinstance(commands, Program):
            commands.fn(*args)
        else:
            FusedBackend._replay(commands, *args)


BACKENDS: "dict[str, InterpretBackend | FusedBackend]" = {
    backend.name: backend for backend in (InterpretBackend(), FusedBackend())
}
"""One shared instance per name: backends keep no state across runs."""


def resolve_backend(
        backend: "str | None" = None) -> "InterpretBackend | FusedBackend":
    """The shared instance of the backend named ``backend`` (None: the
    default); anything but a registered name raises :class:`PlanError`."""
    if backend is None:
        backend = DEFAULT_BACKEND
    found = BACKENDS.get(backend) if isinstance(backend, str) else None
    if found is None:
        raise PlanError(
            f"unknown executor backend {backend!r}; available: "
            f"{', '.join(sorted(BACKENDS))}")
    return found
