"""Trace-compiled "megakernel" executor backend.

Every other backend — including ``fused`` — replays the command stream
instruction by instruction in Python, so interpreter dispatch is the
wall-clock ceiling long before the machine model is.  This module
removes the dispatch entirely: the plan's trace is compiled *once* into
generated Python source of whole-group NumPy array ops (one module per
:class:`~repro.runtime.lowering.CompiledPlan`), byte-compiled with
``compile()``/``exec`` and cached in the plan's ``attachments`` side
slot, so a steady-state run executes a straight line of C-level ufunc
calls with zero per-instruction Python control flow.

The pipeline:

1. :func:`~repro.runtime.lowering.partition_trace` splits the fused
   stream into straight-line segments keyed by ``call_ranges`` (merged
   per kernel, sliced out of ``fused_commands``) — one generated
   function per segment, so profiler attribution survives codegen.
2. A staging analysis finds buffers whose full-lane loads all precede
   any overlapping store.  Each such buffer is bulk-copied once per
   group block into a contiguous *stage bank* ``S``; the loads
   themselves then compile to nothing — registers become views into
   ``S`` via copy propagation — which removes both the per-load strided
   copies and their replay redundancy (packed panels are re-loaded by
   many calls).
3. ``K_MACC`` macro-ops with outer-product source structure, and runs
   of ``K_FMUL``/``K_FMAI``, compile to single broadcast ufuncs over
   ``(q, p, groups, lanes)`` reshapes.  Every batched form keeps the
   fused replay's exact operation set — per-member multiplies, then one
   elementwise accumulate — so results stay bit-identical to
   ``interpret`` (the equivalence suite enforces it across dtypes,
   modes, TRSM and pack paths).
4. Execution runs the generated functions per L2-sized group block,
   exactly like ``fused`` blocks its replay.

Compilation is observable (``megakernel.compile.*`` counters, one span
per compile) and idempotent: the program rides the lowered plan through
the engine's thread-safe ``PlanCache``, so the second run compiles
nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ExecutionError
from ..machine.isa import NUM_VREGS
from .lowering import (K_FADD, K_FDIV, K_FIMM, K_FMAI, K_FMLA, K_FMLS,
                       K_FMUL, K_FMULI, K_FSUB, K_LOAD, K_LOAD1R, K_LOAD2,
                       K_LOAD_PART, K_LOADPAIR, K_LOADW, K_MACC, K_STORE,
                       K_STORE2, K_STOREPAIR, K_STOREW, K_VMOV, K_VZERO,
                       CompiledPlan, TraceSegment, lower_plan,
                       partition_trace)

__all__ = ["MegakernelBackend", "MegakernelProgram", "ensure_program",
           "generate_source", "PROGRAM_KEY", "BATCH_MIN"]

PROGRAM_KEY = "megakernel"
"""Key under which the compiled program rides ``CompiledPlan.attachments``."""

BATCH_MIN = 4
"""Shortest FMUL/FMAI run worth collapsing into one broadcast ufunc."""


def _sel_list(sel) -> "list[int]":
    return (list(range(sel.start, sel.stop)) if type(sel) is slice
            else list(sel))


def _outer_product(aids, bids, n):
    """Detect ``aids = tile(inner, q)``, ``bids = repeat(outer, p)``
    with consecutive inner/outer registers — the microkernel broadcast
    structure every FMLA block lowers to.  Returns ``(p, a0, q, b0)``
    or None."""
    for p in range(1, n + 1):
        if n % p:
            continue
        q = n // p
        inner, outer = list(aids[:p]), list(bids[::p])
        if (all(aids[i] == inner[i % p] for i in range(n))
                and all(bids[i] == outer[i // p] for i in range(n))
                and all(inner[i + 1] == inner[i] + 1 for i in range(p - 1))
                and all(outer[i + 1] == outer[i] + 1 for i in range(q - 1))):
            return p, inner[0], q, outer[0]
    return None


@dataclass(frozen=True)
class _Staged:
    """Stage-bank placement of one buffer's loaded column range."""

    lo: int                       # first staged buffer column
    hi: int                       # one past the last staged column
    base: int                     # first slot in the shared stage bank
    slots: int                    # (hi - lo) // lanes


def _analyze_staging(compiled: CompiledPlan,
                     segments: "list[TraceSegment]"
                     ) -> "tuple[dict[str, _Staged], int]":
    """Decide which buffers can be bulk-staged at block start.

    A buffer qualifies when every full-lane load of it precedes the
    first store touching any of that load's columns (so the block-start
    snapshot equals what each load would have read), all loads sit on
    one lanes-aligned column lattice, and the loaded slots cover at
    least half the staged span (staging a mostly-dead range would cost
    more copy traffic than it saves).
    """
    lanes = compiled.lanes
    stores: "dict[str, list[tuple[int, int, int]]]" = {}
    loads: "dict[str, list[tuple[int, int, int]]]" = {}
    idx = 0
    for seg in segments:
        for cmd in seg.commands:
            k = cmd[0]
            if k == K_LOADW:
                _, _dsel, buf, first, n, count, _cf = cmd
                if n == lanes:
                    loads.setdefault(buf, []).append((idx, first, count * n))
            elif k == K_LOAD:
                _, _d, buf, first, n = cmd
                if n == lanes:
                    loads.setdefault(buf, []).append((idx, first, n))
            elif k == K_STORE:
                _, _s, buf, first, n = cmd
                stores.setdefault(buf, []).append((idx, first, first + n))
            elif k in (K_STOREPAIR, K_STORE2):
                _, _s1, _s2, buf, first, n = cmd
                stores.setdefault(buf, []).append((idx, first,
                                                   first + 2 * n))
            elif k == K_STOREW:
                _, _ssel, buf, first, n, count, _cf = cmd
                stores.setdefault(buf, []).append((idx, first,
                                                   first + count * n))
            idx += 1
    staged: "dict[str, _Staged]" = {}
    base = 0
    for name in compiled.buffers:
        cand = loads.get(name)
        if not cand:
            continue
        lo = min(f for _i, f, _c in cand)
        hi = max(f + c for _i, f, c in cand)
        if (hi - lo) % lanes or any((f - lo) % lanes for _i, f, _c in cand):
            continue
        sts = stores.get(name, ())
        if any(si < li and f < shi and slo < f + c
               for li, f, c in cand for si, slo, shi in sts):
            continue
        slots = (hi - lo) // lanes
        covered: "set[int]" = set()
        loaded = 0
        for _i, f, c in cand:
            s0 = (f - lo) // lanes
            covered.update(range(s0, s0 + c // lanes))
            loaded += c // lanes
        # staging pays one extra bank write + read per column, so it
        # only wins when columns are re-loaded (packed panels are read
        # by several calls; a once-read accumulator tile is not) and
        # when the span is mostly live
        if 2 * len(covered) < slots or 2 * loaded < 3 * slots:
            continue
        staged[name] = _Staged(lo=lo, hi=hi, base=base, slots=slots)
        base += slots
    return staged, base


class _Gen:
    """Deterministic source generator for one compiled plan."""

    def __init__(self, compiled: CompiledPlan,
                 segments: "list[TraceSegment]") -> None:
        self.c = compiled
        self.segments = segments
        self.lanes = compiled.lanes
        self.ew = compiled.ew
        self.vb = ((self.lanes * self.ew) // 16
                   if (self.lanes * self.ew) % 16 == 0 else 0)
        self.staged, self.stage_slots = _analyze_staging(compiled, segments)
        self.consts: list = []
        self.prop: "dict[int, int]" = {}      # register -> stage slot
        self.body: "list[str]" = []
        self.used: "set[str]" = set()
        self.stack_need = 0
        self.stats = {"prop_loads": 0, "batched_macc": 0,
                      "scalar_macc": 0, "batched_runs": 0}

    # -- emission helpers --------------------------------------------

    def K(self, v) -> str:
        self.consts.append(v)
        return f"C[{len(self.consts) - 1}]"

    def emit(self, line: str) -> None:
        self.body.append("    " + line)

    def stack(self, n: int) -> None:
        self.stack_need = max(self.stack_need, n)

    def m(self, buf: str) -> str:
        self.used.add("m:" + buf)
        return f"m_{buf}"

    def mc(self, buf: str) -> str:
        self.used.add("mc:" + buf)
        return f"mc_{buf}"

    def s0(self) -> str:
        self.used.add("s0")
        return "s0"

    def s1(self) -> str:
        self.used.add("s1")
        return "s1"

    def rc(self) -> str:
        self.used.add("Rc")
        return "Rc"

    def val(self, r: int) -> str:
        slot = self.prop.get(r)
        return f"R[{r}]" if slot is None else f"S[{slot}]"

    def kill(self, r: int) -> None:
        self.prop.pop(r, None)

    def block_expr(self, regs: "list[int]") -> "str | None":
        """Expression of shape ``(len(regs), g, lanes)`` reading the
        registers without a copy, or None when the mix of propagated
        and materialized registers (or non-consecutive storage) makes
        that impossible."""
        n = len(regs)
        slots = [self.prop.get(r) for r in regs]
        if all(s is None for s in slots):
            if all(regs[i + 1] == regs[i] + 1 for i in range(n - 1)):
                return f"R[{regs[0]}:{regs[0] + n}]"
            return None
        if (all(s is not None for s in slots)
                and all(slots[i + 1] == slots[i] + 1 for i in range(n - 1))):
            return f"S[{slots[0]}:{slots[0] + n}]"
        return None

    def _materialize(self, regs: "list[int]") -> None:
        """Copy propagated registers into the bank before an in-place
        update reads *and* writes them."""
        for r in regs:
            slot = self.prop.get(r)
            if slot is not None:
                self.emit(f"np.copyto(R[{r}], S[{slot}])")
                self.kill(r)

    # -- staged-load bookkeeping -------------------------------------

    def _slot(self, buf: str, first: int) -> "int | None":
        st = self.staged.get(buf)
        if st is None or first < st.lo or first + self.lanes > st.hi:
            return None
        if (first - st.lo) % self.lanes:
            return None
        return st.base + (first - st.lo) // self.lanes

    # -- per-command emission ----------------------------------------

    def _loadw(self, cmd) -> None:
        _, dsel, buf, first, n, count, cf = cmd
        lanes, vb = self.lanes, self.vb
        if n != lanes:
            raise ExecutionError(
                f"K_LOADW carries a partial vector (n={n}, lanes={lanes})")
        regs = _sel_list(dsel)
        if buf in self.staged:
            slot0 = self._slot(buf, first)
            if slot0 is not None:
                for j, r in enumerate(regs):
                    self.prop[r] = slot0 + j
                self.stats["prop_loads"] += 1
                return
        for r in regs:
            self.kill(r)
        if cf >= 0:
            mc = self.mc(buf)
            if count == 1:
                self.emit(f"np.copyto({self.rc()}[{regs[0]}], "
                          f"{mc}[:, {cf}:{cf + vb}])")
                return
            self.emit(f"t = {mc}[:, {cf}:{cf + count * vb}]"
                      f".reshape(-1, {count}, {vb}).transpose(1, 0, 2)")
            if type(dsel) is slice:
                self.emit(f"np.copyto({self.rc()}"
                          f"[{dsel.start}:{dsel.stop}], t)")
            else:
                sel = self.K(np.array(dsel, dtype=np.intp))
                self.emit(f"{self.rc()}[{sel}] = t")
            return
        mname = self.m(buf)
        self.emit(f"t = {mname}[:, {first}:{first + count * n}]"
                  f".reshape(-1, {count}, {n}).transpose(1, 0, 2)")
        if type(dsel) is slice:
            self.emit(f"np.copyto(R[{dsel.start}:{dsel.stop}], t)")
        else:
            sel = self.K(np.array(dsel, dtype=np.intp))
            self.emit(f"R[{sel}] = t")

    def _storew(self, cmd) -> None:
        _, ssel, buf, first, n, count, cf = cmd
        vb = self.vb
        regs = _sel_list(ssel)
        slots = [self.prop.get(r) for r in regs]
        if cf >= 0:
            mc = self.mc(buf)
            if count == 1:
                src = (f"{self.rc()}[{regs[0]}]" if slots[0] is None
                       else f"Sc[{slots[0]}]")
                self.emit(f"np.copyto({mc}[:, {cf}:{cf + vb}], {src})")
                return
            src = None
            if all(s is None for s in slots):
                if all(regs[i + 1] == regs[i] + 1
                       for i in range(count - 1)):
                    src = f"{self.rc()}[{regs[0]}:{regs[0] + count}]"
                else:
                    sel = self.K(np.array(regs, dtype=np.intp))
                    src = f"{self.rc()}[{sel}]"
            elif all(s is not None for s in slots):
                if all(slots[i + 1] == slots[i] + 1
                       for i in range(count - 1)):
                    src = f"Sc[{slots[0]}:{slots[0] + count}]"
                else:
                    sel = self.K(np.array(slots, dtype=np.intp))
                    src = f"Sc[{sel}]"
            if src is not None:
                self.emit(f"np.copyto({mc}[:, {cf}:{cf + count * vb}]"
                          f".reshape(-1, {count}, {vb}), "
                          f"{src}.transpose(1, 0, 2))")
                return
            for j, (r, s) in enumerate(zip(regs, slots)):
                src = f"{self.rc()}[{r}]" if s is None else f"Sc[{s}]"
                self.emit(f"np.copyto({mc}[:, {cf + j * vb}:"
                          f"{cf + (j + 1) * vb}], {src})")
            return
        mname = self.m(buf)
        gs = None
        if all(s is None for s in slots):
            if all(regs[i + 1] == regs[i] + 1 for i in range(count - 1)):
                gs = f"R[{regs[0]}:{regs[0] + count}]"
            else:
                sel = self.K(np.array(regs, dtype=np.intp))
                self.stack(count)
                self.emit(f"g = np.take(R, {sel}, axis=0, "
                          f"out={self.s0()}[:{count}])")
                gs = "g"
        elif all(s is not None for s in slots):
            if all(slots[i + 1] == slots[i] + 1 for i in range(count - 1)):
                gs = f"S[{slots[0]}:{slots[0] + count}]"
            else:
                sel = self.K(np.array(slots, dtype=np.intp))
                self.stack(count)
                self.emit(f"g = np.take(S, {sel}, axis=0, "
                          f"out={self.s0()}[:{count}])")
                gs = "g"
        if gs is not None:
            self.emit(f"np.copyto({mname}[:, {first}:{first + count * n}]"
                      f".reshape(-1, {count}, {n}), "
                      f"{gs}[:, :, :{n}].transpose(1, 0, 2))")
            return
        for j, r in enumerate(regs):
            self.emit(f"np.copyto({mname}[:, {first + j * n}:"
                      f"{first + j * n + n}], {self.val(r)}[:, :{n}])")

    def _macc(self, cmd) -> None:
        _, dsel, aids, bids, neg, n = cmd
        fn = "subtract" if neg else "add"
        is_slice = type(dsel) is slice
        op = _outer_product(aids, bids, n)
        batched = False
        if op is not None and is_slice:
            p, a0, q, b0 = op
            ablk = self.block_expr(list(range(a0, a0 + p)))
            bblk = self.block_expr(list(range(b0, b0 + q)))
            if ablk is not None and bblk is not None:
                self.stack(n)
                self.emit(f"prod = np.multiply(({ablk})[None], "
                          f"({bblk})[:, None], out={self.s0()}[:{n}]"
                          f".reshape({q}, {p}, *R.shape[1:]))")
                batched = True
                self.stats["batched_macc"] += 1
        if not batched:
            for x in range(n):
                self.emit(f"np.multiply({self.val(aids[x])}, "
                          f"{self.val(bids[x])}, out={self.s0()}[{x}])")
            self.stack(n)
            self.stats["scalar_macc"] += 1
        if is_slice:
            d0, d1 = dsel.start, dsel.stop
            regs = list(range(d0, d1))
            slots = [self.prop.get(r) for r in regs]
            if (all(s is not None for s in slots)
                    and all(slots[i + 1] == slots[i] + 1
                            for i in range(n - 1))):
                # accumulators still live in the stage bank: read the
                # snapshot, write the bank — same values as materialize
                # followed by an in-place add, one copy cheaper
                sblk = f"S[{slots[0]}:{slots[0] + n}]"
                if batched:
                    self.emit(f"np.{fn}({sblk}.reshape({q}, {p}, "
                              f"*R.shape[1:]), prod, out=R[{d0}:{d1}]"
                              f".reshape({q}, {p}, *R.shape[1:]))")
                else:
                    self.emit(f"np.{fn}({sblk}, {self.s0()}[:{n}], "
                              f"out=R[{d0}:{d1}])")
                for r in regs:
                    self.kill(r)
                return
            self._materialize(regs)
            if batched:
                self.emit(f"acc = R[{d0}:{d1}]"
                          f".reshape({q}, {p}, *R.shape[1:])")
                self.emit(f"np.{fn}(acc, prod, out=acc)")
            else:
                self.emit(f"acc = R[{d0}:{d1}]")
                self.emit(f"np.{fn}(acc, {self.s0()}[:{n}], out=acc)")
            return
        dlist = _sel_list(dsel)
        self._materialize(dlist)
        sel = self.K(np.array(dsel, dtype=np.intp))
        self.stack(n)
        self.emit(f"acc = np.take(R, {sel}, axis=0, "
                  f"out={self.s1()}[:{n}])")
        prod_expr = "prod" if batched else f"{self.s0()}[:{n}]"
        if batched:
            self.emit(f"np.{fn}(acc.reshape({q}, {p}, *R.shape[1:]), "
                      f"{prod_expr}, out=acc.reshape({q}, {p}, "
                      f"*R.shape[1:]))")
        else:
            self.emit(f"np.{fn}(acc, {prod_expr}, out=acc)")
        self.emit(f"R[{sel}] = acc")

    def _fmul_run(self, cmds: "list[tuple]", i: int) -> int:
        j = i
        while j < len(cmds) and cmds[j][0] == K_FMUL:
            j += 1
        run = cmds[i:j]
        n = len(run)
        dsts = [c[1] for c in run]
        aids = [c[2] for c in run]
        bids = [c[3] for c in run]
        if (n >= BATCH_MIN
                and all(dsts[x + 1] == dsts[x] + 1 for x in range(n - 1))
                and not (set(dsts) & (set(aids) | set(bids)))):
            op = _outer_product(aids, bids, n)
            if op is not None:
                p, a0, q, b0 = op
                ablk = self.block_expr(list(range(a0, a0 + p)))
                bblk = self.block_expr(list(range(b0, b0 + q)))
                if ablk is not None and bblk is not None:
                    for d in dsts:
                        self.kill(d)
                    self.emit(f"np.multiply(({ablk})[None], "
                              f"({bblk})[:, None], "
                              f"out=R[{dsts[0]}:{dsts[0] + n}]"
                              f".reshape({q}, {p}, *R.shape[1:]))")
                    self.stats["batched_runs"] += 1
                    return j
        _, d, a, b = cmds[i]
        av, bv = self.val(a), self.val(b)
        self.kill(d)
        self.emit(f"np.multiply({av}, {bv}, out=R[{d}])")
        return i + 1

    def _fmai_run(self, cmds: "list[tuple]", i: int) -> int:
        cmd = cmds[i]
        imm = cmd[3]
        j = i
        while (j < len(cmds) and cmds[j][0] == K_FMAI
               and cmds[j][3] == imm
               and cmds[j][1] == cmd[1] + (j - i)
               and cmds[j][2] == cmd[2] + (j - i)):
            j += 1
        n = j - i
        dsts = list(range(cmd[1], cmd[1] + n))
        srcs = list(range(cmd[2], cmd[2] + n))
        if n >= BATCH_MIN and not (set(dsts) & set(srcs)):
            sblk = self.block_expr(srcs)
            dblk = self.block_expr(dsts)
            if sblk is not None and dblk is not None:
                self.stack(n)
                self.emit(f"np.multiply({sblk}, {self.K(imm)}, "
                          f"out={self.s0()}[:{n}])")
                for d in dsts:
                    self.kill(d)
                self.emit(f"np.add({dblk}, {self.s0()}[:{n}], "
                          f"out=R[{dsts[0]}:{dsts[0] + n}])")
                self.stats["batched_runs"] += 1
                return j
        _, d, a, imm = cmd
        av, dv = self.val(a), self.val(d)
        self.kill(d)
        self.emit(f"np.multiply({av}, {self.K(imm)}, out=scratch)")
        self.emit(f"np.add({dv}, scratch, out=R[{d}])")
        return i + 1

    def _command(self, cmds: "list[tuple]", i: int) -> int:
        cmd = cmds[i]
        k = cmd[0]
        if k == K_MACC:
            self._macc(cmd)
        elif k == K_LOADW:
            self._loadw(cmd)
        elif k == K_STOREW:
            self._storew(cmd)
        elif k == K_FMUL:
            return self._fmul_run(cmds, i)
        elif k == K_FMAI:
            return self._fmai_run(cmds, i)
        elif k in (K_FMLA, K_FMLS):
            _, d, a, b = cmd
            fn = "add" if k == K_FMLA else "subtract"
            av, bv, dv = self.val(a), self.val(b), self.val(d)
            self.kill(d)
            self.emit(f"np.multiply({av}, {bv}, out=scratch)")
            self.emit(f"np.{fn}({dv}, scratch, out=R[{d}])")
        elif k == K_LOAD:
            _, d, buf, first, n = cmd
            slot = (self._slot(buf, first) if buf in self.staged
                    and n == self.lanes else None)
            if slot is not None:
                self.prop[d] = slot
                self.stats["prop_loads"] += 1
            else:
                self.kill(d)
                self.emit(f"np.copyto(R[{d}], "
                          f"{self.m(buf)}[:, {first}:{first + n}])")
        elif k == K_LOADPAIR:
            _, d1, d2, buf, first, n = cmd
            self.kill(d1)
            self.kill(d2)
            mname = self.m(buf)
            self.emit(f"v = {mname}[:, {first}:{first + 2 * n}]")
            self.emit(f"np.copyto(R[{d1}], v[:, :{n}])")
            self.emit(f"np.copyto(R[{d2}], v[:, {n}:])")
        elif k == K_STORE:
            _, s, buf, first, n = cmd
            self.emit(f"np.copyto({self.m(buf)}[:, {first}:{first + n}], "
                      f"{self.val(s)}[:, :{n}])")
        elif k == K_STOREPAIR:
            _, s1, s2, buf, first, n = cmd
            mname = self.m(buf)
            self.emit(f"v = {mname}[:, {first}:{first + 2 * n}]")
            self.emit(f"np.copyto(v[:, :{n}], {self.val(s1)})")
            self.emit(f"np.copyto(v[:, {n}:], {self.val(s2)})")
        elif k == K_LOAD1R:
            _, d, buf, first = cmd
            self.kill(d)
            self.emit(f"np.copyto(R[{d}], "
                      f"{self.m(buf)}[:, {first}:{first + 1}])")
        elif k == K_LOAD2:
            _, de, do, buf, first, n = cmd
            self.kill(de)
            self.kill(do)
            mname = self.m(buf)
            if n < self.lanes:
                self.emit(f"R[{de}][:, {n}:] = 0.0")
                self.emit(f"R[{do}][:, {n}:] = 0.0")
            self.emit(f"R[{de}][:, :{n}] = "
                      f"{mname}[:, {first}:{first + 2 * n}:2]")
            self.emit(f"R[{do}][:, :{n}] = "
                      f"{mname}[:, {first + 1}:{first + 1 + 2 * n}:2]")
        elif k == K_STORE2:
            _, se, so, buf, first, n = cmd
            mname = self.m(buf)
            self.emit(f"np.copyto({mname}[:, {first}:{first + 2 * n}:2], "
                      f"{self.val(se)}[:, :{n}])")
            self.emit(f"np.copyto({mname}"
                      f"[:, {first + 1}:{first + 1 + 2 * n}:2], "
                      f"{self.val(so)}[:, :{n}])")
        elif k == K_LOAD_PART:
            _, d, buf, first, n = cmd
            self.kill(d)
            self.emit(f"R[{d}][:, {n}:] = 0.0")
            self.emit(f"R[{d}][:, :{n}] = "
                      f"{self.m(buf)}[:, {first}:{first + n}]")
        elif k == K_FMULI:
            _, d, a, imm = cmd
            av = self.val(a)
            self.kill(d)
            self.emit(f"np.multiply({av}, {self.K(imm)}, out=R[{d}])")
        elif k in (K_FADD, K_FSUB, K_FDIV):
            _, d, a, b = cmd
            fn = {K_FADD: "add", K_FSUB: "subtract", K_FDIV: "divide"}[k]
            av, bv = self.val(a), self.val(b)
            self.kill(d)
            self.emit(f"np.{fn}({av}, {bv}, out=R[{d}])")
        elif k == K_VZERO:
            self.kill(cmd[1])
            self.emit(f"R[{cmd[1]}].fill(0.0)")
        elif k == K_VMOV:
            _, d, s = cmd
            slot = self.prop.get(s)
            self.kill(d)
            if slot is not None:
                self.prop[d] = slot
            else:
                self.emit(f"np.copyto(R[{d}], R[{s}])")
        elif k == K_FIMM:
            self.kill(cmd[1])
            self.emit(f"R[{cmd[1]}].fill({self.K(cmd[2])})")
        else:  # pragma: no cover - lowering emits only known kinds
            raise ExecutionError(f"unknown compiled command kind {k}")
        return i + 1

    # -- assembly ----------------------------------------------------

    def _finish_fn(self, name: str) -> "list[str]":
        lines = [f"def {name}(M, S, Sc, R, Rc, scratch, stk, C):"]
        for buf in self.c.buffers:
            if "m:" + buf in self.used:
                lines.append(f"    m_{buf} = M[{buf!r}]")
            if "mc:" + buf in self.used:
                lines.append(f"    mc_{buf} = M[{buf!r}]"
                             f".view(np.complex128)")
        if "s0" in self.used:
            lines.append("    s0 = stk[0]")
        if "s1" in self.used:
            lines.append("    s1 = stk[1]")
        if not self.body:
            lines.append("    pass")
        lines.extend(self.body)
        self.body = []
        self.used = set()
        return lines

    def _stage_fn(self) -> "list[str]":
        lanes, ew, vb = self.lanes, self.ew, self.vb
        lines = ["def _stage(M, S, Sc):"]
        for name, st in self.staged.items():
            lay = self.c.buffers[name]
            if (vb and (st.lo * ew) % 16 == 0
                    and lay.stride_bytes % 16 == 0):
                clo = st.lo * ew // 16
                lines.append(
                    f"    np.copyto(Sc[{st.base}:{st.base + st.slots}], "
                    f"M[{name!r}].view(np.complex128)"
                    f"[:, {clo}:{clo + st.slots * vb}]"
                    f".reshape(-1, {st.slots}, {vb}).transpose(1, 0, 2))")
            else:
                lines.append(
                    f"    np.copyto(S[{st.base}:{st.base + st.slots}], "
                    f"M[{name!r}][:, {st.lo}:{st.hi}]"
                    f".reshape(-1, {st.slots}, {lanes})"
                    f".transpose(1, 0, 2))")
        if not self.staged:
            lines.append("    pass")
        return lines

    def build(self) -> "tuple[str, list, dict]":
        c = self.c
        out = [f"# megakernel program: kind={c.kind} lanes={self.lanes} "
               f"ew={self.ew}",
               f"# segments={len(self.segments)} "
               f"stage_slots={self.stage_slots} "
               f"staged={list(self.staged)!r}"]
        out.extend(self._stage_fn())
        for i, seg in enumerate(self.segments):
            out.append(f"# segment {i}: kernel={seg.kernel} "
                       f"calls={seg.calls} commands={len(seg.commands)}")
            j = 0
            while j < len(seg.commands):
                j = self._command(seg.commands, j)
            out.extend(self._finish_fn(f"_seg{i}"))
        source = "\n".join(out) + "\n"
        meta = {"segments": self.segments, "staged": self.staged,
                "stage_slots": self.stage_slots,
                "stack_need": self.stack_need, "stats": dict(self.stats)}
        return source, self.consts, meta


def generate_source(compiled: CompiledPlan) -> "tuple[str, list, dict]":
    """Generate the megakernel module source for a lowered plan.

    Pure and deterministic: the same plan always yields byte-identical
    source (the determinism test relies on it).  Returns ``(source,
    consts, meta)`` where ``consts`` is the immediate/selector pool the
    generated code indexes as ``C[i]`` and ``meta`` carries the
    segment/staging layout the runner needs.
    """
    return _Gen(compiled, partition_trace(compiled)).build()


@dataclass
class MegakernelProgram:
    """One compiled plan's generated program plus its layout/stats."""

    source: str
    consts: tuple
    stage: "object"               # _stage(M, S, Sc)
    segs: "tuple"                 # _segN(M, S, Sc, R, Rc, scratch, stk, C)
    segments: "tuple[TraceSegment, ...]"
    staged: "dict[str, _Staged]"
    stage_slots: int
    stack_need: int
    stats: dict = field(default_factory=dict)


_COMPILE_LOCK = threading.Lock()


def compile_program(compiled: CompiledPlan) -> MegakernelProgram:
    """Generate + byte-compile a plan's megakernel (no caching)."""
    t0 = time.perf_counter()
    with obs.span("megakernel.compile", kind=compiled.kind):
        source, consts, meta = generate_source(compiled)
        code = compile(source, f"<megakernel:{compiled.kind}>", "exec")
        ns: dict = {"np": np}
        exec(code, ns)                  # noqa: S102 - our own codegen
        segs = tuple(ns[f"_seg{i}"] for i in range(len(meta["segments"])))
    ms = (time.perf_counter() - t0) * 1e3
    loc = source.count("\n")
    stats = dict(meta["stats"])
    stats.update(segments=len(meta["segments"]), loc=loc,
                 compile_ms=ms, stage_slots=meta["stage_slots"])
    obs.count("megakernel.compile.segments", len(meta["segments"]))
    obs.count("megakernel.compile.loc", loc)
    return MegakernelProgram(
        source=source, consts=tuple(consts), stage=ns["_stage"],
        segs=segs, segments=tuple(meta["segments"]),
        staged=meta["staged"], stage_slots=meta["stage_slots"],
        stack_need=meta["stack_need"], stats=stats)


def ensure_program(compiled: CompiledPlan) -> MegakernelProgram:
    """The plan's compiled program, building it at most once.

    The program rides ``CompiledPlan.attachments`` — the engine's
    thread-safe ``PlanCache`` keeps the lowered plan alive across runs,
    so the steady state is a dict lookup (``megakernel.compile.hit``)
    and only the first run pays codegen (``megakernel.compile.miss``).
    """
    prog = compiled.attachments.get(PROGRAM_KEY)
    if prog is not None:
        obs.count("megakernel.compile.hit")
        return prog
    with _COMPILE_LOCK:
        prog = compiled.attachments.get(PROGRAM_KEY)
        if prog is not None:
            obs.count("megakernel.compile.hit")
            return prog
        prog = compile_program(compiled)
        obs.count("megakernel.compile.miss")
        compiled.attachments[PROGRAM_KEY] = prog
    return prog


class MegakernelBackend:
    """Runs the generated straight-line program per L2 group block."""

    name = "megakernel"
    needs_lowering = True

    @staticmethod
    def stream(compiled: CompiledPlan) -> "tuple[list[tuple], int]":
        """What this backend executes, flattened back to a command
        stream: the trace segments are slices of ``fused_commands``, so
        the attribution profiler walks exactly that for
        ``stream="megakernel"``."""
        return compiled.fused_commands, compiled.stats["passes"]["max_stack"]

    @staticmethod
    def _block_groups(l2_bytes: int, lanes: int, itemsize: int,
                      stack_need: int) -> int:
        """Group-block size: large enough to amortize the per-block
        Python calls (the whole point of this backend), small enough
        that the *hot* working set — the macro-op product stack, read
        back immediately after being written — stays L2-resident.  The
        stage and register banks stream sequentially, so unlike
        ``fused`` they are deliberately not charged against L2 here;
        measurement (batch-16384 sgemm8) puts the optimum at the stack
        bound, not the bank bound."""
        hot = 2 * max(stack_need, NUM_VREGS // 4) * lanes * itemsize
        return max(64, min(4096, l2_bytes // hot))

    def run(self, plan, mem, strides: "dict[str, int]", groups: int,
            compiled: "CompiledPlan | None" = None) -> None:
        if compiled is None:
            compiled = lower_plan(plan)
        if groups != compiled.groups:
            raise ExecutionError(
                f"compiled plan covers {compiled.groups} groups, "
                f"execution asked for {groups}")
        from .backends import FusedBackend, _aliased
        mats = FusedBackend._bind(compiled, mem, strides, groups)
        dtype = compiled.dtype
        lanes = compiled.lanes
        itemsize = np.dtype(dtype).itemsize
        if _aliased(mats):
            # staging snapshots a buffer at block start, seeing only
            # stores to that buffer's own name
            FusedBackend.run_plan_order(
                compiled, mats, groups,
                FusedBackend._block_groups(plan.machine.l2.size, lanes,
                                           itemsize))
            return
        prog = ensure_program(compiled)
        if not prog.segs:
            return
        cplx = (lanes * itemsize) % 16 == 0
        block = min(groups, self._block_groups(
            plan.machine.l2.size, lanes, itemsize, prog.stack_need))

        def alloc(g: int):
            R = np.empty((NUM_VREGS, g, lanes), dtype=dtype)
            S = np.empty((prog.stage_slots, g, lanes), dtype=dtype)
            scr = np.empty((g, lanes), dtype=dtype)
            stk = (np.empty((2, prog.stack_need, g, lanes), dtype=dtype)
                   if prog.stack_need else None)
            Rc = R.view(np.complex128) if cplx else None
            Sc = S.view(np.complex128) if cplx else None
            return R, S, scr, stk, Rc, Sc

        R, S, scr, stk, Rc, Sc = alloc(block)
        names = list(mats)
        consts = prog.consts
        with np.errstate(all="ignore"):
            for start in range(0, groups, block):
                nb = min(block, groups - start)
                bm = {name: mats[name][start:start + nb]
                      for name in names}
                if nb != block:
                    # a sliced bank cannot reshape contiguously; the
                    # tail block gets (small) fresh arrays instead
                    R, S, scr, stk, Rc, Sc = alloc(nb)
                prog.stage(bm, S, Sc)
                for fn in prog.segs:
                    fn(bm, S, Sc, R, Rc, scr, stk, consts)
