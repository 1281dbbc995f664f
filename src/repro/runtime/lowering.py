"""Lowering: compile an :class:`ExecutionPlan` into a flat command stream.

The plan layer produces a *command queue* — kernel calls whose programs
the interpreting executor walks instruction by instruction, resolving
every memory operand (pointer lookup, alignment check, bounds check,
per-group index construction) on every call of every batch.  That
per-instruction work is input-independent: offsets depend only on the
problem shape, exactly like the plan itself.  Lowering therefore runs
the whole resolution **once**, producing a :class:`CompiledPlan` the
executor backends can replay with nothing but NumPy slice views and
in-place ufuncs:

* ADDI pointer-bump chains are constant-folded through a symbolic
  scalar register file, so the compiled stream contains no address
  arithmetic at all (PRFM/NOP timing fillers are dropped too);
* every memory operand collapses to ``(buffer, first_element, count,
  step)`` — because group base offsets are affine (``group *
  stride``), the per-group element-index arrays the interpreter builds
  per instruction become column slices of one ``(groups,
  stride_elems)`` view per buffer (:meth:`CompiledCommand.gather_indices`
  reconstructs the explicit index array for parity tests);
* alignment, bounds, def-before-use, and dtype agreement are validated
  a single time here, at lower time, instead of per instruction at run
  time.

**The lowered contract.**  The compact format keeps each scalar as one
vector holding that element of ``lanes`` matrices, so the GEMM and TRSM
kernel generators only move whole vectors (LDR/LDP/STR/STP) and compute
with FMLA/FMLS/FMUL and their immediate forms, VMOV and VZERO.  Lowering
accepts exactly that: a program using LD1R, LD2V, ST2V, FADD, FSUB, FDIV
or FIMM, a partial-lane LDRV/STRV, a memory access off the 16-byte grid
or a group stride that is not a multiple of 16 B raises
:class:`LoweringError` naming the kernel, pc and instruction.  The
interpreting executor (the oracle) still runs all of these; the
baselines and the GETRF kernel that use them never lower.  So every
lowered memory operand is a whole number of 16-byte units from its
group's start: 16-byte eligibility of the wide copies is an invariant,
not a decision.

After validation an **optimizing pass pipeline** (:func:`optimize_commands`)
rewrites a second copy of the stream into macro-ops the ``fused``
backend replays with far fewer ufunc dispatches:

1. *dead-code elimination* — commands whose written registers are never
   read before being overwritten (or before the stream ends) are
   dropped; stores always survive (memory is the observable output);
2. *FMLA-chain fusion* — dependence-free runs of ``K_FMLA``/``K_FMLS``
   collapse into one ``K_MACC`` macro-op: a single stacked ``(chain,
   groups, lanes)`` multiply followed by accumulation that is bit-exact
   by construction (repeated accumulators keep the original
   left-to-right sequential ``add``/``subtract`` order; provably
   independent accumulators may accumulate as one vectorized op);
3. *load/store coalescing* — every load (store) becomes a wide
   ``K_LOADW`` (``K_STOREW``) copy in 16-byte units, adjacent ones from
   contiguous memory merged into one.

The optimized stream therefore holds ten kinds, the only ones the
executors implement: ``K_FMLA``, ``K_FMLS``, ``K_FMUL``, ``K_FMAI``,
``K_FMULI``, ``K_VZERO``, ``K_VMOV``, ``K_MACC``, ``K_LOADW`` and
``K_STOREW``.  The raw stream's ``K_LOAD``/``K_LOADPAIR``/``K_STORE``/
``K_STOREPAIR`` are read by the profiler's ``raw`` view, the footprints
and the digests, never executed.

Every pass preserves bit-identical memory effects, so the equivalence
contract (same bytes as ``interpret``) holds for the optimized stream
too.  The raw stream is kept alongside (``commands`` vs
``fused_commands``): it carries the per-kernel ``call_ranges`` the
attribution profiler's ``raw`` stream reports against.

**Programs.**  Pointer folding, the register checks, DCE and FMLA
fusion read a call's program and which root registers it binds, never
its buffers or offsets.  They run once per (program, root-register set)
as a *program pass* over symbolic ``(root register, byte offset)``
operands, kept in the store's ``passes`` companion.  Binding a pass to
a call resolves each operand to ``(buffer, first element)``, runs the
layout, alignment and bounds checks (raising, in pc order, the first
error lowering the call on its own would meet, the pass's register
error included) and coalesces loads and stores, which needs the
addresses.

**Templates.**  A template is one distinct call binding, bound and
coalesced: keyed by the program, each root's offset relative to the
lowest root in its buffer, and that lowest offset mod 16 B (so a
binding off the 16-byte grid never borrows an aligned template; it is
lowered on its own and raises).  Templates live in the engine's store
(``Engine.templates``, a bounded LRU beside its generated programs), so
every plan the engine lowers shares them; the free :func:`lower_plan`
keeps a private store per call.  A call whose binding is already lowered, by
this plan or an earlier one, validates its buffers' layouts, re-checks
the template's extents against its group strides and keeps only its
per-buffer element delta.  Registers never live across a call, so the
per-call optimized streams concatenate to the whole-stream result.  The
plan lists its templates; ``commands`` and ``fused_commands`` are views
that relocate them on first element access (memory commands move by the
buffer's delta; the rest are shared), and ``len`` never relocates.

**Blocks.**  A plan whose calls are one block of ``p`` calls repeated,
each copy moved by one shift per buffer that is a multiple of 16 B (a
TRSM column panel, a GEMM tile column), keeps every key across copies.
Only the first block is keyed, bound and fitted; every later call takes
its slot, delta and ranges by translation, and each slot's extents are
checked over all copies at once (if a copy leaves a group stride, the
calls are fitted one by one, so the first failing call raises its own
error).

**Waves.**  Each template's read and write footprint is a per-buffer
list of element intervals within one group stride; a call's footprint
is the template's, shifted by its delta.  A call's *level* is 1 + the
highest level of any earlier call it conflicts with (RAW, WAR or WAW on
one element), and a :class:`Wave` is every call of one (level,
template), in call order, with the lattice its deltas lie on (a
progression, or rows x cols for a GEMM tile grid; calls on no lattice
are one wave each).  Levels replay in order and calls of one level
never conflict, so the ``fused`` backend can replay a wave's template
once per pass over whole lattice rows, bound as one strided view per
buffer (levels → waves → passes), and every element still sees its
plan-order sequence of ufuncs.  Copies of a block that touch no element
another copy writes have the first block's levels, so only the first
block is levelled.

Lowering is pure analysis: it never touches matrix data, so a
``CompiledPlan`` is cached alongside its plan in the
:class:`~repro.runtime.iatf.PlanCache` and reused for every batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, sub
from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..codegen import regs
from ..codegen.templates_trsm import PX
from ..errors import LoweringError
from ..machine.isa import NUM_VREGS, Op
from .plan import ExecutionPlan, KernelCall

if TYPE_CHECKING:
    from .megakernel import ProgramMemo

__all__ = ["CompiledPlan", "CompiledCommand", "BufferLayout", "Wave",
           "lower_plan", "optimize_commands", "FUSE_MIN_CHAIN",
           "K_LOAD", "K_LOADPAIR", "K_STORE", "K_STOREPAIR", "K_FMLA",
           "K_FMLS", "K_FMUL", "K_FMAI", "K_FMULI", "K_VZERO", "K_VMOV",
           "K_MACC", "K_LOADW", "K_STOREW"]

# Command kinds.  Integers (not enums) so the replay loop dispatches on
# a plain ``==`` against the tuple head; the gaps are kinds of
# instructions lowering rejects (the values are hashed into digests, so
# they never move).  The memory kinds address whole vectors (n ==
# lanes) and occur in the raw stream only: coalescing turns every one
# into a K_LOADW/K_STOREW.
K_LOAD = 0        # (kind, dst, buf, first, n)
K_LOADPAIR = 2    # (kind, dst1, dst2, buf, first, n)    2n consecutive
K_STORE = 5       # (kind, src, buf, first, n)
K_STOREPAIR = 6   # (kind, src1, src2, buf, first, n)
K_FMLA = 8        # (kind, dst, a, b)                    dst += a * b
K_FMLS = 9        # (kind, dst, a, b)                    dst -= a * b
K_FMUL = 10       # (kind, dst, a, b)
K_FMAI = 11       # (kind, dst, a, imm)                  dst += a * imm
K_FMULI = 12      # (kind, dst, a, imm)
K_VZERO = 16      # (kind, dst)
K_VMOV = 17       # (kind, dst, src)

# Kinds produced only by the pass pipeline (never by _lower); they
# appear in ``CompiledPlan.fused_commands`` exclusively.
K_MACC = 19       # (kind, dsel, aids, bids, neg, n)
#   n multiplies of (a, b) register pairs into a product stack, then ONE
#   vectorized add/subtract (neg=True for an FMLS chain) of the stack
#   into rbank[dsel] (slice or index array).  ``aids``/``bids`` are
#   plain int tuples: sources repeat across members (the microkernel
#   broadcast registers), so they can never form a slice — replaying
#   them as per-member multiplies out of the register file avoids the
#   full-bandwidth gather copy a stacked multiply would need.  Fusion
#   only emits chains whose accumulators are distinct with one uniform
#   sign, so the vectorized accumulate touches each element exactly
#   once — bit-identical to the raw left-to-right replay.
K_LOADW = 20      # (kind, dsel, buf, first, n, count, cfirst)
K_STOREW = 21     # (kind, ssel, buf, first, n, count, cfirst)
#   count registers of n consecutive columns each in one copy.  Vector,
#   offset and group stride are all multiples of 16 bytes (the lowered
#   contract), so ``cfirst`` holds the offset in 16-byte units and the
#   copy runs elementwise over a complex128 reinterpretation of both
#   sides: one C-level strided loop moving 16 B per element, instead of
#   a segmented float copy paying per-16-B-segment loop overhead — the
#   bytes moved are identical, so the result is too.

_MEM_KINDS = frozenset((K_LOAD, K_LOADPAIR, K_STORE, K_STOREPAIR))

FUSE_MIN_CHAIN = 4
"""Shortest FMLA/FMLS segment worth fusing: ``c`` raw commands cost
``2c`` ufunc dispatches (multiply + accumulate each), the macro-op
``c + 1`` plus the accumulate's stack traffic — the crossover is at
about 4 members."""


@dataclass(frozen=True)
class BufferLayout:
    """Per-buffer geometry the compiled backend binds against."""

    name: str
    stride_elems: int             # elements between consecutive groups
    itemsize: int                 # bytes per real element

    @property
    def stride_bytes(self) -> int:
        return self.stride_elems * self.itemsize


@dataclass(frozen=True)
class CompiledCommand:
    """Debug/reporting view of one lowered command (tests, explain)."""

    kind: int
    raw: tuple

    @property
    def is_mem(self) -> bool:
        return self.kind in _MEM_KINDS

    def access(self) -> "tuple[str, int, int, int]":
        """Memory footprint as (buffer, first_element, count, step)."""
        if not self.is_mem:
            raise LoweringError(f"command kind {self.kind} touches no memory")
        return (*_access(self.raw), 1)

    def gather_indices(self, groups: int, stride_elems: int) -> np.ndarray:
        """The explicit ``(groups, count)`` element-index array this
        command's slice view stands for — bit-for-bit what the
        interpreter's address resolution would build per call."""
        _, first, count, _ = self.access()
        base = np.arange(groups, dtype=np.int64) * stride_elems + first
        return base[:, None] + np.arange(count, dtype=np.int64)[None, :]


def _access(cmd: tuple) -> "tuple[str, int, int]":
    """``(buffer, first element, count)`` of a raw memory command; every
    access is at step 1."""
    if cmd[0] in (K_LOAD, K_STORE):
        return cmd[2], cmd[3], cmd[4]
    return cmd[3], cmd[4], 2 * cmd[5]       # pairs


@dataclass
class CompiledPlan:
    """A plan lowered to a replayable flat command stream.

    ``commands`` is a list of plain tuples headed by a ``K_*`` kind;
    :class:`~repro.runtime.backends.FusedBackend` runs the ``waves``
    over the templates' pass-optimized streams against one 2-D
    ``(groups, stride_elems)`` view per buffer with a preallocated
    vector-register file.  Everything input-dependent was
    resolved at lower time; replay performs zero address arithmetic.
    """

    kind: str                     # "gemm" | "trsm" | "trmm"
    groups: int
    lanes: int
    ew: int                       # element width in bytes (4 or 8)
    buffers: dict[str, BufferLayout]
    commands: "Sequence[tuple]"
    fused_commands: "Sequence[tuple]" = field(default_factory=list)
    """The pass-optimized stream (macro-ops allowed), relocated call by
    call in plan order (the attribution profiler's ``fused`` stream);
    ``commands`` stays the validated raw stream."""
    call_ranges: "Sequence[tuple[str, int, int]]" = field(
        default_factory=list)
    """``(kernel_name, start, stop)`` per plan call over ``commands`` —
    which slice of the raw stream each kernel invocation lowered to."""
    fused_ranges: "Sequence[tuple[int, int]]" = field(default_factory=list)
    """``(start, stop)`` per plan call over ``fused_commands`` (each call
    is optimized on its own, so its macro-ops are contiguous)."""
    stats: dict = field(default_factory=dict)
    templates: "list[_Template]" = field(default_factory=list,
                                         compare=False, repr=False)
    """The plan's distinct call bindings, each lowered once (possibly by
    an earlier plan of the engine): raw and optimized streams plus
    footprints; ``commands``/``fused_commands`` relocate these."""
    waves: "list[Wave]" = field(default_factory=list, compare=False,
                                repr=False)
    """The calls grouped into waves, in replay order (see
    :func:`_build_waves`)."""
    runs: int = field(default=0, compare=False, repr=False)
    """Executes so far (counted by the engine: the code-generation tier
    keys off it, see :mod:`repro.runtime.megakernel`)."""
    programs: "object | None" = field(default=None, compare=False,
                                      repr=False)
    """The :class:`~repro.runtime.megakernel.PlanPrograms` bound to the
    plan (per template, a generated program or None), or None while it
    replays."""

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.ew == 4 else np.float64)

    @property
    def num_commands(self) -> int:
        return len(self.commands)

    def mem_commands(self) -> "list[CompiledCommand]":
        return [CompiledCommand(t[0], t) for t in self.commands
                if t[0] in _MEM_KINDS]

    def calls_summary(self) -> str:
        t = self.stats.get("templates", 0)
        shared = self.stats.get("templates_shared", 0)
        w = self.stats.get("waves", 0)
        block = self.stats.get("block")
        return (f"{self.stats.get('calls', 0)} calls"
                f"{f' ({block[0]} x {block[1]})' if block else ''} from {t} "
                f"template{'s' * (t != 1)}"
                f"{f' ({shared} shared)' if shared else ''} "
                f"in {w} wave{'s' * (w != 1)}")

    def describe(self) -> str:
        s = self.stats
        text = (f"CompiledPlan[{self.kind}] {self.num_commands} commands "
                f"({s.get('mem_commands', 0)} mem, {s.get('fp_commands', 0)} fp) "
                f"lowered from {s.get('instructions', 0)} instructions in "
                f"{self.calls_summary()}; "
                f"{s.get('folded_addi', 0)} ADDIs folded, "
                f"{s.get('dropped', 0)} PRFM/NOP dropped")
        p = s.get("passes")
        if p:
            text += (f"; optimized {p['commands_before']} -> "
                     f"{p['commands_after']} ({p['fuse_chains']} fused "
                     f"chains, {p['coalesce_loads'] + p['coalesce_stores']} "
                     f"wide copies, {p['dce_removed']} dead)")
        return text


def _root_pointers(call: KernelCall) -> "dict[int, tuple[str, int]]":
    """Initial scalar-register bindings, in the engine's binding order
    (PX last, mirroring ``set_pointer`` overwrite semantics)."""
    roots = {regs.PA: (call.a_buf, call.a_off),
             regs.PB: (call.b_buf, call.b_off)}
    for j, off in enumerate(call.c_offsets):
        roots[regs.pc(j)] = (call.c_buf, off)
    if call.x_buf is not None:
        roots[PX] = (call.x_buf, call.x_off)
    return roots


def lower_plan(plan: ExecutionPlan,
               templates: "ProgramMemo | None" = None) -> CompiledPlan:
    """Lower a plan once; the result replays for every batch.

    ``templates`` is the store lowered call bindings are shared through
    (an engine passes ``Engine.templates``, so its plans share them and
    the per-program passes in its ``passes`` companion); without one the
    plan gets a private store and shares nothing.

    Raises :class:`LoweringError` on anything the interpreter would only
    catch at run time (misalignment, out-of-group-bounds access,
    register read-before-write) and on anything outside the lowered
    contract (see the module docstring) — the error surfaces at plan
    time, before any data is touched.
    """
    if templates is None:
        from .megakernel import ProgramMemo
        templates = ProgramMemo()
    with obs.span("lower.plan", kind=plan.kind, calls=len(plan.calls)):
        compiled = _lower(plan, templates)
    obs.count("lower.plans")
    obs.count("lower.commands", compiled.num_commands)
    obs.count("lower.folded_addi", compiled.stats["folded_addi"])
    obs.count("lower.templates.shared", compiled.stats["templates_shared"])
    obs.count("lower.programs.shared", compiled.stats["programs_shared"])
    obs.count("lower.blocks.translated", compiled.stats["blocks_translated"])
    passes = compiled.stats["passes"]
    obs.count("lower.dce.removed", passes["dce_removed"])
    obs.count("lower.fuse.chains", passes["fuse_chains"])
    obs.count("lower.fuse.commands", passes["fuse_commands"])
    obs.count("lower.coalesce.merged", passes["coalesce_commands"])
    return compiled


def _lower(plan: ExecutionPlan, store: "ProgramMemo") -> CompiledPlan:
    if not plan.calls:
        raise LoweringError(f"{plan.kind} plan has no kernel calls")
    ew = plan.calls[0].program.ew
    lanes = plan.calls[0].program.lanes
    isz = ew

    layouts: dict[str, BufferLayout] = {}

    def layout(buf: str) -> BufferLayout:
        lay = layouts.get(buf)
        if lay is None:
            spec = plan.buffers.get(buf)
            if spec is None:
                raise LoweringError(f"plan addresses unknown buffer {buf!r}")
            if spec.group_stride_bytes % 16:
                raise LoweringError(
                    f"buffer {buf!r} group stride {spec.group_stride_bytes} B "
                    f"is not a multiple of 16 B")
            lay = BufferLayout(buf, spec.group_stride_bytes // isz, isz)
            layouts[buf] = lay
        return lay

    def fit(tpl: _Template, base: "dict[str, int]", prog,
            roots: "dict[int, tuple[str, int]]", ci: int) -> "dict[str, int]":
        """The call's per-buffer element deltas from ``tpl``.  Same key
        => same lattice, 16 B apart: only bounds can differ."""
        delta = {buf: (off - tpl.base[buf]) // isz for buf, off in base.items()}
        for buf, (lo, hi) in tpl.extents.items():
            d = delta[buf]
            if lo + d < 0 or hi + d > layouts[buf].stride_elems:
                # raises this call's exact per-instruction error
                _check(_program_pass_for(store, prog, roots, lanes, ew)[0],
                       prog, roots, ci, layout, ew)
        return delta

    slots: "dict[tuple, _Slot]" = {}
    calls: "list[tuple[_Slot, dict[str, int]]]" = []
    call_ranges: "list[tuple[str, int, int]]" = []
    fused_ranges: "list[tuple[int, int]]" = []
    raw_len = opt_len = shared = programs_shared = 0

    def bind(ci: int, call: KernelCall) -> None:
        """Key, bind and fit one call."""
        nonlocal raw_len, opt_len, shared, programs_shared
        prog = call.program
        if prog.ew != ew or prog.lanes != lanes:
            raise LoweringError(
                f"{prog.name}: mixed element geometry in one plan "
                f"(ew={prog.ew}/{ew}, lanes={prog.lanes}/{lanes})")
        roots = _root_pointers(call)
        base: "dict[str, int]" = {}
        for buf, off in roots.values():
            low = base.get(buf)
            if low is None or off < low:
                base[buf] = off
        key = (id(prog), tuple([(r, buf, off - base[buf])
                                for r, (buf, off) in roots.items()]),
               tuple([(buf, off % 16) for buf, off in base.items()]))
        slot = slots.get(key)
        if slot is not None:
            delta = fit(slot.tpl, base, prog, roots, ci)
        else:
            tpl, stored, memoized = _template(store, key, prog, roots, base,
                                              ci, layout, lanes, ew)
            delta = (fit(tpl, base, prog, roots, ci) if stored
                     else dict.fromkeys(base, 0))
            shared += stored
            programs_shared += memoized
            slot = slots[key] = _Slot(tpl, len(slots))
        tpl = slot.tpl
        slot.uses += 1
        calls.append((slot, delta))
        call_ranges.append((prog.name, raw_len, raw_len + len(tpl.raw)))
        fused_ranges.append((opt_len, opt_len + len(tpl.opt)))
        raw_len += len(tpl.raw)
        opt_len += len(tpl.opt)

    n = len(plan.calls)
    block = _repeat(plan.calls)
    p = n if block is None else block[0]
    for ci in range(p):
        bind(ci, plan.calls[ci])
    copies = n // p
    if copies > 1:
        step = {buf: s // isz for buf, s in block[1].items()}
        if _copies_fit(calls, step, copies - 1, layouts):
            _translate(calls, call_ranges, fused_ranges, step, copies,
                       raw_len, opt_len)
            for slot in slots.values():
                slot.uses *= copies
            raw_len *= copies
            opt_len *= copies
        else:
            # call by call: the first call that leaves its buffer raises
            for ci in range(p, n):
                bind(ci, plan.calls[ci])
            p, copies = n, 1

    counts = dict.fromkeys(("instructions", "mem_commands", "folded_addi",
                            "dropped"), 0)
    passes = {}
    for slot in slots.values():
        for k in counts:
            counts[k] += slot.uses * slot.tpl.counts[k]
        for k, v in slot.tpl.passes.items():
            passes[k] = (max(passes.get(k, 0), v) if k in _PEAK_PASSES
                         else passes.get(k, 0) + slot.uses * v)
    waves = _build_waves(calls, layouts,
                         (p, step) if copies > 1 else None)
    return CompiledPlan(
        kind=plan.kind, groups=plan.groups, lanes=lanes, ew=ew,
        buffers=layouts,
        commands=_Relocated(calls, ew, False, raw_len),
        fused_commands=_Relocated(calls, ew, True, opt_len),
        call_ranges=call_ranges, fused_ranges=fused_ranges,
        stats={"calls": n,
               "instructions": counts["instructions"],
               "mem_commands": counts["mem_commands"],
               "fp_commands": raw_len - counts["mem_commands"],
               "folded_addi": counts["folded_addi"],
               "dropped": counts["dropped"],
               "passes": passes, "templates": len(slots),
               "templates_shared": shared, "waves": len(waves),
               "programs_shared": programs_shared,
               "blocks_translated": n - p,
               "block": (copies, p) if copies > 1 else None},
        templates=[slot.tpl for slot in slots.values()], waves=waves)


def _repeat(calls: "Sequence[KernelCall]"
            ) -> "tuple[int, dict[str, int]] | None":
    """``(p, shift)`` when ``calls`` are one block of their first ``p``
    calls repeated, copy ``k`` moved ``k * shift[buffer]`` bytes in
    every buffer it addresses, with each shift a multiple of 16 B (so a
    copy's calls keep their keys); else None.  Periods dividing the
    call count are tried shortest first, each dropped at its first
    mismatch."""
    n = len(calls)
    first = calls[0]
    for p in range(1, n // 2 + 1):
        if n % p or calls[p].program is not first.program:
            continue
        shift: "dict[str, int]" = {}
        if (_moved(first, calls[p], shift)
                and not any(s % 16 for s in shift.values())
                and all(_moved(calls[i - p], calls[i], shift)
                        for i in range(p + 1, n))):
            return p, shift
    return None


def _moved(a: KernelCall, b: KernelCall, shift: "dict[str, int]") -> bool:
    """Whether ``b`` is ``a`` with every root moved by its buffer's
    shift (a buffer not in ``shift`` yet takes this call's)."""
    if (b.program is not a.program or b.a_buf != a.a_buf
            or b.b_buf != a.b_buf or b.c_buf != a.c_buf
            or b.x_buf != a.x_buf):
        return False
    take = shift.setdefault
    d = b.a_off - a.a_off
    if take(a.a_buf, d) != d:
        return False
    d = b.b_off - a.b_off
    if take(a.b_buf, d) != d:
        return False
    if a.c_offsets:
        d = take(a.c_buf, b.c_offsets[0] - a.c_offsets[0])
        if b.c_offsets != tuple(map(d.__add__, a.c_offsets)):
            return False
    elif b.c_offsets:
        return False
    if a.x_buf is not None:
        d = b.x_off - a.x_off
        if take(a.x_buf, d) != d:
            return False
    return True


def _copies_fit(head: "list[tuple[_Slot, dict[str, int]]]",
                step: "dict[str, int]", last: int,
                layouts: "dict[str, BufferLayout]") -> bool:
    """Whether every call of the block ``head``, moved ``last`` steps
    on, stays inside its buffers' group strides.  The block itself was
    fitted call by call, and the copies between lie between the two, so
    this checks every slot's extents over all copies at once."""
    for slot, delta in head:
        for buf, (lo, hi) in slot.tpl.extents.items():
            d = delta[buf] + last * step[buf]
            if lo + d < 0 or hi + d > layouts[buf].stride_elems:
                return False
    return True


def _translate(calls: "list[tuple[_Slot, dict[str, int]]]",
               call_ranges: "list[tuple[str, int, int]]",
               fused_ranges: "list[tuple[int, int]]",
               step: "dict[str, int]", copies: int, raw_len: int,
               opt_len: int) -> None:
    """Append copies ``1 .. copies - 1`` of the bound block: each call
    keeps its slot, its deltas move ``k * step`` and its ranges ``k``
    block lengths."""
    head = list(zip(calls, call_ranges, fused_ranges))
    for k in range(1, copies):
        move = {buf: k * s for buf, s in step.items()}
        ro, oo = k * raw_len, k * opt_len
        for (slot, delta), (name, s, e), (fs, fe) in head:
            calls.append((slot, {buf: d + move[buf]
                                 for buf, d in delta.items()}))
            call_ranges.append((name, s + ro, e + ro))
            fused_ranges.append((fs + oo, fe + oo))


def _template(store: "ProgramMemo", key: tuple, prog,
              roots: "dict[int, tuple[str, int]]", base: "dict[str, int]",
              ci: int, layout, lanes: int, ew: int
              ) -> "tuple[_Template, bool, bool]":
    """``(template, stored, memoized)``: the template ``store`` holds
    for the call's key (stored True); else the call bound from its
    program pass (memoized True when ``store.passes`` already held it),
    coalesced and stored.  A store entry is ``(program, template)``;
    holding the program keeps its id unique while the entry lives."""
    entry = store.get(key)
    if entry is not None:
        tpl = entry[1]
        try:            # the layouts a fresh lowering validates
            for buf in tpl.buffers:
                layout(buf)
        except LoweringError:
            # raises this call's exact per-instruction error
            _check(_program_pass_for(store, prog, roots, lanes, ew)[0],
                   prog, roots, ci, layout, ew)
        return tpl, True, False
    pp, memoized = _program_pass_for(store, prog, roots, lanes, ew)
    lays = _check(pp, prog, roots, ci, layout, ew)
    raw, fused = _resolve(pp, roots, ew)
    opt, coal = _coalesce_mem(fused, ew)
    tpl = _Template(prog.name, ew, raw, opt, base, pp.counts,
                    _pass_stats(len(raw), opt, pp.dce_removed, pp.fuse,
                                coal),
                    tuple(lays))
    with store.lock:
        if store.get(key) is None:
            store.put(key, (prog, tpl))
        store.generated += 1
    return tpl, False, memoized


_PEAK_PASSES = ("fuse_max_chain", "max_stack")

_STORE_KINDS = frozenset((K_STORE, K_STOREPAIR))


@dataclass
class _Template:
    """One call binding lowered at its own offsets, relocatable to every
    call with the same key, of this plan or of any later plan lowered
    through the same store.  Plan-independent: a plan's own view of it
    is a :class:`_Slot`."""

    name: str                     # kernel (program) name
    ew: int                       # element width in bytes
    raw: "list[tuple]"            # the validated raw stream
    opt: "list[tuple]"            # its pass-optimized stream
    base: "dict[str, int]"        # buffer -> lowest root byte offset
    counts: dict                  # instructions / mem / folded / dropped
    passes: dict                  # optimize_commands statistics
    buffers: "tuple[str, ...]"    # buffers it addresses, first access first

    @cached_property
    def footprint(self) -> "dict[str, tuple[list, list]]":
        """Buffer -> ``(reads, writes)``: sorted, merged ``[start, end)``
        element intervals within one group stride, over the raw stream."""
        acc: "dict[str, tuple[list, list]]" = {}
        for cmd in self.raw:
            k = cmd[0]
            if k in _MEM_KINDS:
                buf, first, n = _access(cmd)
                acc.setdefault(buf, ([], []))[k in _STORE_KINDS].append(
                    (first, first + n))
        return {buf: (_merge(r), _merge(w)) for buf, (r, w) in acc.items()}

    @cached_property
    def extents(self) -> "dict[str, tuple[int, int]]":
        """Buffer -> ``[min_first, max_end)`` over every access."""
        return {buf: (min(iv[0][0] for iv in rw if iv),
                      max(iv[-1][1] for iv in rw if iv))
                for buf, rw in self.footprint.items()}

    @cached_property
    def opt_sites(self) -> "dict[str, list[tuple]]":
        """The optimized stream's memory sites (what execution reads)."""
        return _mem_sites(self.opt)

    @cached_property
    def raw_sites(self) -> "dict[str, list[tuple]]":
        """The raw stream's memory sites, built only when a relocated
        raw view (``CompiledPlan.commands``) is read."""
        return _mem_sites(self.raw)

    @cached_property
    def wave_form(self) -> "tuple[list[tuple], dict, frozenset]":
        """What a wave replays: the optimized stream with every memory
        operand re-based to its buffer's window, the windows ``buffer ->
        (start, width)`` (start rounded down to 16 B, so the rebase keeps
        ``cfirst`` whole and a window never starts before the group),
        and the buffers it writes."""
        unit = 16 // self.ew
        window = {buf: (lo - lo % unit, hi - lo + lo % unit)
                  for buf, (lo, hi) in self.extents.items()}
        stream = _relocate(self.opt, self.opt_sites,
                           {buf: -lo for buf, (lo, _) in window.items()},
                           self.ew)
        writes = frozenset(buf for buf, (_, w) in self.footprint.items()
                           if w)
        return stream, window, writes

    @cached_property
    def program_key(self) -> str:
        """The ``wave_form`` stream as one string: equal keys (at equal
        lanes) replay identically, whatever plan the template came
        from."""
        return repr((self.ew, self.wave_form[0]))


@dataclass
class _Slot:
    """A template's place in one plan."""

    tpl: _Template
    index: int                    # position in CompiledPlan.templates
    uses: int = 0                 # calls of the plan it lowered


def _merge(ivs: "list[tuple[int, int]]") -> "list[tuple[int, int]]":
    """Sorted, coalesced union of ``[start, end)`` intervals."""
    out: "list[list[int]]" = []
    for s, e in sorted(ivs):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def _subtract(ivs: "list[tuple[int, int]]",
              cut: "list[tuple[int, int]]") -> "list[tuple[int, int]]":
    """``ivs`` minus ``cut`` (both sorted and merged)."""
    out = []
    for s, e in ivs:
        for cs, ce in cut:
            if ce <= s or cs >= e:
                continue
            if cs > s:
                out.append((s, cs))
            s = max(s, ce)
            if s >= e:
                break
        if s < e:
            out.append((s, e))
    return out


@dataclass(frozen=True)
class Wave:
    """Calls of one template with pairwise-disjoint footprints, replayed
    in passes over a ``(rows, cols, groups, lanes)`` register bank.

    ``lattice`` is ``(rows, cols)``: call ``i`` sits at ``deltas[0] +
    (i // cols) * row step + (i % cols) * col step`` in every buffer — a
    1-D progression is one row, a GEMM tile grid is rows x cols — so a
    pass binds each buffer as one strided view."""

    level: int                    # conflict depth; levels replay in order
    template: int                 # index into CompiledPlan.templates
    calls: "tuple[int, ...]"      # plan call indices, in call order
    buffers: "tuple[str, ...]"    # the template's root buffers
    deltas: "tuple[tuple[int, ...], ...]"  # per call, per buffer: elements
    lattice: "tuple[int, int]"    # (rows, cols)


def _lattice(deltas: "tuple[tuple[int, ...], ...]"
             ) -> "tuple[int, int] | None":
    """``(rows, cols)`` of the lattice the per-call deltas lie on, in
    call order (row-major), or None.  ``cols`` is the length of the
    first run of equal steps, so a progression is ``(1, calls)``."""
    n = len(deltas)
    d0 = deltas[0]
    if n == 1:
        return 1, 1
    col = tuple(map(sub, deltas[1], d0))
    cols, at = 2, tuple(map(add, deltas[1], col))
    while cols < n and deltas[cols] == at:
        cols += 1
        at = tuple(map(add, at, col))
    if n % cols:
        return None
    row = tuple(map(sub, deltas[cols], d0)) if cols < n else col
    start = d0
    for r in range(0, n, cols):
        at = start
        for d in deltas[r:r + cols]:
            if d != at:
                return None
            at = tuple(map(add, at, col))
        start = tuple(map(add, start, row))
    return n // cols, cols


def _build_waves(calls: "list[tuple[_Slot, dict[str, int]]]",
                 layouts: "dict[str, BufferLayout]",
                 block: "tuple[int, dict[str, int]] | None" = None
                 ) -> "list[Wave]":
    """Group a plan's calls into waves, in replay order.

    A call's *level* is 1 + the highest level of any earlier call it
    conflicts with: a write against any earlier access, or a read
    against any earlier write, of one element of one buffer (buffers no
    call writes never conflict).  Per written buffer two level maps —
    highest level of any access and of any write, per element — are read
    and updated with interval slices.  A wave is every call of one
    (level, template), in call order; waves replay level by level.  A
    level is an antichain of the conflict order, so the reordering is
    exact: every element sees its accesses in plan order.  A bucket
    whose deltas lie on no lattice (only hand-built plans have one)
    becomes one wave per call: its calls still never conflict.

    ``block = (p, step)`` says the calls are their first ``p`` repeated,
    copy ``k`` moved ``k * step[buffer]`` elements.  When no copy writes
    an element another copy accesses — per written buffer, the block's
    write union never meets its access union moved by a nonzero multiple
    of the step (fewer than the copies) — a copy's conflicts all lie in
    the copy, so every copy has the first's levels: only the first is
    levelled, and each of its waves takes its calls from every copy.
    Otherwise every call is levelled.
    """
    def waves(level: int, slot: _Slot, members: "list[int]"
              ) -> "list[Wave]":
        bufs = tuple(slot.tpl.base)
        deltas = tuple([tuple(map(calls[ci][1].__getitem__, bufs))
                        for ci in members])
        lattice = _lattice(deltas)
        if lattice:
            return [Wave(level, slot.index, tuple(members), bufs, deltas,
                         lattice)]
        return [Wave(level, slot.index, (ci,), bufs, (d,), (1, 1))
                for ci, d in zip(members, deltas)]

    n = len(calls)
    p = n
    if block is not None and _copies_disjoint(calls[:block[0]], block[1],
                                              n // block[0]):
        p = block[0]
    buckets = _levels(calls[:p], layouts)
    if p < n:
        buckets = {key: [i + k for k in range(0, n, p) for i in members]
                   for key, members in buckets.items()}
    order = sorted(buckets.items(), key=lambda kv: (kv[0][0], kv[1][0]))
    return [w for (level, _), members in order
            for w in waves(level, calls[members[0]][0], members)]


def _levels(calls: "list[tuple[_Slot, dict[str, int]]]",
            layouts: "dict[str, BufferLayout]"
            ) -> "dict[tuple[int, int], list[int]]":
    """``(level, template index) -> calls``, levelled in call order (see
    :func:`_build_waves`)."""
    if len(calls) == 1:
        return {(1, calls[0][0].index): [0]}
    written = {buf for slot, _ in calls
               for buf, (_, w) in slot.tpl.footprint.items() if w}
    seen = {buf: [0] * layouts[buf].stride_elems for buf in written}
    wrote = {buf: [0] * layouts[buf].stride_elems for buf in written}
    spans: "dict[int, list[tuple]]" = {}
    buckets: "dict[tuple[int, int], list[int]]" = {}
    for ci, (slot, delta) in enumerate(calls):
        tracked = spans.get(slot.index)
        if tracked is None:
            tracked = spans[slot.index] = [
                (buf, w, _subtract(r, w))
                for buf, (r, w) in slot.tpl.footprint.items()
                if buf in written]
        level = 0
        for buf, writes, reads in tracked:
            d = delta[buf]
            lv = seen[buf]
            for s, e in writes:         # WAW, WAR
                level = max(level, max(lv[s + d:e + d]))
            lv = wrote[buf]
            for s, e in reads:          # RAW
                level = max(level, max(lv[s + d:e + d]))
        level += 1
        for buf, writes, reads in tracked:
            d = delta[buf]
            lv = seen[buf]
            for s, e in writes:
                lv[s + d:e + d] = wrote[buf][s + d:e + d] = [level] * (e - s)
            for s, e in reads:
                lv[s + d:e + d] = [x if x > level else level
                                   for x in lv[s + d:e + d]]
        buckets.setdefault((level, slot.index), []).append(ci)
    return buckets


def _copies_disjoint(head: "list[tuple[_Slot, dict[str, int]]]",
                     step: "dict[str, int]", copies: int) -> bool:
    """Whether no copy of the block ``head`` writes an element another
    of the ``copies`` accesses (see :func:`_build_waves`)."""
    acc: "dict[str, tuple[list, list]]" = {}
    for slot, delta in head:
        for buf, (reads, writes) in slot.tpl.footprint.items():
            d = delta[buf]
            r, w = acc.setdefault(buf, ([], []))
            r.extend((s + d, e + d) for s, e in reads)
            w.extend((s + d, e + d) for s, e in writes)
    for buf, (reads, writes) in acc.items():
        if not writes:
            continue
        st = step[buf]
        if not st:
            return False
        writes = _merge(writes)
        every = _merge(reads + writes)
        reach = max(writes[-1][1], every[-1][1]) - min(writes[0][0],
                                                       every[0][0])
        for m in range(1, copies):
            move = m * st
            if abs(move) >= reach:
                break
            if _meets(writes, every, move) or _meets(every, writes, move):
                return False
    return True


def _meets(xs: "list[tuple[int, int]]", ys: "list[tuple[int, int]]",
           move: int) -> bool:
    """Whether ``xs`` moved by ``move`` meets ``ys`` (both sorted and
    merged)."""
    i = j = 0
    while i < len(xs) and j < len(ys):
        s, e = xs[i]
        ys0, ye = ys[j]
        if e + move <= ys0:
            i += 1
        elif ye <= s + move:
            j += 1
        else:
            return True
    return False


# tuple index of the buffer name in each memory command (first follows)
_BUF_AT = {K_LOAD: 2, K_STORE: 2, K_LOADW: 2, K_STOREW: 2, K_LOADPAIR: 3,
           K_STOREPAIR: 3}


def _mem_sites(stream: "list[tuple]") -> "dict[str, list[tuple]]":
    """Buffer -> ``(index, buffer slot, has cfirst)`` per memory command."""
    sites: "dict[str, list[tuple]]" = {}
    for i, cmd in enumerate(stream):
        b = _BUF_AT.get(cmd[0])
        if b is not None:
            sites.setdefault(cmd[b], []).append(
                (i, b, cmd[0] in (K_LOADW, K_STOREW)))
    return sites


class _Relocated(Sequence):
    """A plan's whole raw (or optimized) stream, relocated call by call
    from the templates on first element access and kept for the plan's
    life.  ``len`` never relocates."""

    def __init__(self, calls: "list[tuple[_Slot, dict[str, int]]]",
                 ew: int, optimized: bool, length: int) -> None:
        self._calls, self._ew, self._optimized = calls, ew, optimized
        self._len = length
        self._items: "list | None" = None

    def _list(self) -> list:
        items = self._items
        if items is None:
            items = []
            opt = self._optimized
            for slot, delta in self._calls:
                tpl = slot.tpl
                stream = tpl.opt if opt else tpl.raw
                if any(delta.values()):
                    sites = tpl.opt_sites if opt else tpl.raw_sites
                    stream = _relocate(stream, sites, delta, self._ew)
                items.extend(stream)
            self._items = items
        return items

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __reversed__(self):
        return reversed(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, (_Relocated, list, tuple)):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._list())


def _relocate(stream: "list[tuple]", sites: "dict[str, list[tuple]]",
              delta: "dict[str, int]", ew: int) -> "list[tuple]":
    """``stream`` with memory commands moved by their buffer's element
    delta (``cfirst`` in 16-B units); other commands are shared."""
    out = stream.copy()
    for buf, d in delta.items():
        if d:
            du = d * ew // 16
            for i, b, wide in sites.get(buf, ()):
                cmd = out[i]
                cmd = cmd[:b + 1] + (cmd[b + 1] + d,) + cmd[b + 2:]
                out[i] = cmd[:6] + (cmd[6] + du,) if wide else cmd
    return out


_BINARY = {Op.FMLA: K_FMLA, Op.FMLS: K_FMLS, Op.FMUL: K_FMUL}
# keyed by member identity: an Enum member hashes in Python code, which
# the program pass would pay once per instruction
_BINARY_BY_ID = {id(op): kind for op, kind in _BINARY.items()}


@dataclass
class _ProgramPass:
    """One program lowered for one set of bound root registers, before
    any binding: ADDI chains folded and every memory operand left as a
    symbolic ``(root register, byte offset)`` in the command's
    ``(buffer, first element)`` fields, the register checks run, and DCE
    and FMLA fusion (which read register ids only) applied.  Every call
    binding of the program at those registers shares it."""

    program: object              # held so its id stays unique
    raw: "list[tuple]"            # the raw stream, memory operands symbolic
    mem: "list[tuple]"            # (pc, raw index, root, byte offset,
    #                               elements) per memory operand, pc order
    opt: list                     # DCE'd, fused stream: a raw index for
    #                               each memory command, else the command
    spans: "dict[int, tuple[int, int, int]]"
    """Root -> (lowest byte offset, highest end byte, the offsets'
    common residue mod 16 B or -1), first access first."""
    counts: dict                  # instructions / mem / folded / dropped
    dce_removed: int
    fuse: dict                    # _fuse_fmla_chains statistics
    error: "tuple[int, str] | None"   # first pass error: (pc, message)


class _PassError(Exception):
    """A program pass's first error, as ``(pc, message)``: a register
    read before write, or an instruction outside the lowered contract."""


def _program_pass_for(store: "ProgramMemo", prog,
                      roots: "dict[int, tuple[str, int]]", lanes: int,
                      ew: int) -> "tuple[_ProgramPass, bool]":
    """The program pass ``store.passes`` holds for the program and the
    call's root registers, and True; else one made and memoized, and
    False."""
    memo = store.passes
    key = (id(prog), frozenset(roots))
    pp = memo.get(key)
    if pp is not None:
        return pp, True
    pp = _program_pass(prog, key[1], lanes, ew)
    with memo.lock:
        if memo.get(key) is None:
            memo.put(key, pp)
        memo.generated += 1
    return pp, False


def _program_pass(prog, regs: "frozenset[int]", lanes: int,
                  ew: int) -> _ProgramPass:
    """Fold, check and optimize ``prog`` over symbolic operands, with
    ``regs`` the root registers a binding sets.  The pass stops at its
    first error (a scalar or vector register read before write, or an
    instruction the lowered contract excludes: see the module
    docstring); a binding raises it unless an address error comes
    first."""
    xstate = {r: (r, 0) for r in regs}
    written: set[int] = set()
    raw: list[tuple] = []
    mem: list[tuple] = []
    folded = dropped = 0

    def resolve(pc: int, n_elems: int) -> "tuple[int, int]":
        ins = prog.instrs[pc]
        sym = xstate.get(ins.base)
        if sym is None:
            raise _PassError(pc, f"scalar register x{ins.base} read "
                                 f"before write")
        root, off = sym[0], sym[1] + ins.offset
        mem.append((pc, len(raw), root, off, n_elems))
        return root, off

    def read_vregs(pc: int, vreg_ids: "tuple[int, ...]") -> None:
        for r in vreg_ids:
            if r not in written:
                raise _PassError(pc, f"vector register v{r} read "
                                     f"before write")

    def whole(pc: int, ins) -> None:
        if ins.nlanes is not None and ins.nlanes != lanes:
            raise _PassError(pc, f"partial-lane access ({ins.nlanes} of "
                                 f"{lanes} lanes) is not lowered; only "
                                 f"interpret runs it")

    error = None
    try:
        for pc, ins in enumerate(prog.instrs):
            op = ins.op
            kind = _BINARY_BY_ID.get(id(op))
            if kind is not None:
                (a, b), d = ins.srcs, ins.dst[0]
                if not (a in written and b in written
                        and (kind > K_FMLS or d in written)):
                    read_vregs(pc, ins.reads)   # FMLA/FMLS: dst is read too
                raw.append((kind, d, a, b))
                written.add(d)
            elif op is Op.ADDI:
                sym = xstate.get(ins.xsrc)
                if sym is None:
                    raise _PassError(pc, f"scalar register x{ins.xsrc} "
                                         f"read before write")
                xstate[ins.xdst] = (sym[0], sym[1] + ins.ximm)
                folded += 1
            elif op in (Op.PRFM, Op.NOP):
                dropped += 1
            elif op is Op.LDRV:
                whole(pc, ins)
                root, off = resolve(pc, lanes)
                raw.append((K_LOAD, ins.dst[0], root, off, lanes))
                written.add(ins.dst[0])
            elif op is Op.LDPV:
                root, off = resolve(pc, 2 * lanes)
                raw.append((K_LOADPAIR, ins.dst[0], ins.dst[1], root, off,
                            lanes))
                written.update(ins.dst)
            elif op is Op.STRV:
                whole(pc, ins)
                read_vregs(pc, ins.srcs)
                root, off = resolve(pc, lanes)
                raw.append((K_STORE, ins.srcs[0], root, off, lanes))
            elif op is Op.STPV:
                read_vregs(pc, ins.srcs)
                root, off = resolve(pc, 2 * lanes)
                raw.append((K_STOREPAIR, ins.srcs[0], ins.srcs[1], root,
                            off, lanes))
            elif op is Op.FMAI:
                read_vregs(pc, ins.reads)
                raw.append((K_FMAI, ins.dst[0], ins.srcs[0],
                            _imm(ins.imm, ew)))
            elif op is Op.FMULI:
                read_vregs(pc, ins.reads)
                raw.append((K_FMULI, ins.dst[0], ins.srcs[0],
                            _imm(ins.imm, ew)))
                written.add(ins.dst[0])
            elif op is Op.VZERO:
                raw.append((K_VZERO, ins.dst[0]))
                written.add(ins.dst[0])
            elif op is Op.VMOV:
                read_vregs(pc, ins.srcs)
                raw.append((K_VMOV, ins.dst[0], ins.srcs[0]))
                written.add(ins.dst[0])
            else:   # LD1R, LD2V, ST2V, FADD, FSUB, FDIV, FIMM
                raise _PassError(pc, f"{op.name} is not lowered; only "
                                     f"interpret runs it")
    except _PassError as exc:
        error = exc.args

    spans: "dict[int, list[int]]" = {}
    for _, _, root, off, n in mem:
        end = off + n * ew
        sp = spans.get(root)
        if sp is None:
            spans[root] = [off, end, off % 16]
        else:
            sp[0], sp[1] = min(sp[0], off), max(sp[1], end)
            if sp[2] != off % 16:
                sp[2] = -1
    counts = {"instructions": len(prog.instrs), "mem_commands": len(mem),
              "folded_addi": folded, "dropped": dropped}
    opt: list = []
    dce_removed, fuse = 0, {}
    if error is None:
        cmds, dce_removed = _dce(raw)
        cmds, fuse = _fuse_fmla_chains(cmds)
        at = {id(raw[i]): i for _, i, _, _, _ in mem}
        opt = [at.get(id(cmd), cmd) for cmd in cmds]
    return _ProgramPass(prog, raw, mem, opt,
                        {r: tuple(sp) for r, sp in spans.items()}, counts,
                        dce_removed, fuse, error)


def _check(pp: _ProgramPass, prog, roots: "dict[int, tuple[str, int]]",
           ci: int, layout, ew: int) -> "dict[str, BufferLayout]":
    """Validate one binding of a program pass: each operand's buffer
    layout, 16-byte alignment and bounds.  Returns the layouts of the
    buffers it addresses, in first-access order; raises the first error
    a pc-order walk meets, the pass's own error included.  Per root, the
    operands' byte hull and common residue decide a valid binding at
    once; anything else walks the operands."""
    if pp.error is None:
        lays: "dict[str, BufferLayout]" = {}
        for root, (lo, hi, rem) in pp.spans.items():
            buf, off = roots[root]
            try:
                lay = layout(buf)
            except LoweringError:
                break
            if (rem < 0 or (off + rem) % 16 or off + lo < 0
                    or off + hi > lay.stride_bytes):
                break
            lays[buf] = lay
        else:
            return lays

    def err(pc: int, msg: str) -> LoweringError:
        ins = prog.instrs[pc]
        return LoweringError(
            f"{prog.name} @pc={pc} ({ins.asm()}) [call {ci}]: {msg}")

    lays = {}
    for pc, _, root, off, n in pp.mem:
        buf, base = roots[root]
        try:
            lay = lays[buf] = layout(buf)
        except LoweringError as exc:
            raise err(pc, str(exc)) from None
        byte = base + off
        if byte % 16:
            raise err(pc, f"misaligned access into {buf!r} (offset "
                          f"{byte} not a multiple of "
                          f"{ew if byte % ew else 16})")
        first = byte // ew
        if first < 0 or first + n > lay.stride_elems:
            raise err(pc, f"access [{first}, {first + n}) of {buf!r} "
                          f"leaves the group stride ({lay.stride_elems} "
                          f"elements)")
    if pp.error is not None:
        raise err(*pp.error)
    return lays


def _resolve(pp: _ProgramPass, roots: "dict[int, tuple[str, int]]",
             ew: int) -> "tuple[list[tuple], list[tuple]]":
    """A checked binding's raw stream and its DCE'd, fused (not yet
    coalesced) stream: each symbolic operand becomes ``(buffer, first
    element)``; every other command is the pass's own."""
    raw = pp.raw.copy()
    for _, i, root, off, _ in pp.mem:
        buf, base = roots[root]
        cmd = raw[i]
        b = _BUF_AT[cmd[0]]
        raw[i] = (*cmd[:b], buf, (base + off) // ew, *cmd[b + 2:])
    return raw, [raw[x] if x.__class__ is int else x for x in pp.opt]


# ---------------------------------------------------------------------------
# the optimizing pass pipeline (raw stream -> fused stream)
# ---------------------------------------------------------------------------

def _rw(cmd: tuple) -> "tuple[tuple, tuple]":
    """(registers read, registers written) of one raw command.

    FMLA/FMLS/FMAI read their destination (read-modify-write), so DCE
    can never treat the accumulated-into value as dead.
    """
    k = cmd[0]
    if k == K_FMLA or k == K_FMLS:
        return (cmd[1], cmd[2], cmd[3]), (cmd[1],)
    if k == K_LOAD or k == K_VZERO:
        return (), (cmd[1],)
    if k == K_LOADPAIR:
        return (), (cmd[1], cmd[2])
    if k == K_STORE:
        return (cmd[1],), ()
    if k == K_STOREPAIR:
        return (cmd[1], cmd[2]), ()
    if k == K_FMAI:
        return (cmd[1], cmd[2]), (cmd[1],)
    if k == K_FMUL:
        return (cmd[2], cmd[3]), (cmd[1],)
    if k == K_FMULI or k == K_VMOV:
        return (cmd[2],), (cmd[1],)
    raise LoweringError(f"unknown command kind {k} in pass pipeline")


def _dce(commands: "list[tuple]") -> "tuple[list[tuple], int]":
    """Drop commands none of whose written registers are ever read
    again (before overwrite or stream end).  Memory writes are the
    stream's observable output, so stores are always live; every
    surviving command's memory effect is untouched — bit-exact."""
    live: set[int] = set()
    kept: list[tuple] = []
    removed = 0
    for cmd in reversed(commands):
        reads, writes = _rw(cmd)
        if writes and live.isdisjoint(writes):
            removed += 1
            continue
        live.difference_update(writes)
        live.update(reads)
        kept.append(cmd)
    kept.reverse()
    return kept, removed


def _sel(ids: "list[int]"):
    """Register selector: a slice when the ids are consecutive
    ascending (zero-copy view of the register bank), else an index
    array for one gather."""
    if all(ids[i + 1] == ids[i] + 1 for i in range(len(ids) - 1)):
        return slice(ids[0], ids[-1] + 1)
    return np.array(ids, dtype=np.intp)


def _make_macc(members: "list[tuple]") -> tuple:
    """Build one K_MACC from segment members ``(is_fmls, dst, a, b)``.

    Callers guarantee distinct accumulators and one uniform sign (see
    :func:`_segment_run`), so the accumulate is a single vectorized
    add/subtract: each element is touched exactly once, making the
    macro-op bit-identical to the raw left-to-right replay — never a
    tree reduction, never a reassociation.
    """
    n = len(members)
    dsel = _sel([d for _, d, _, _ in members])
    aids = tuple(a for _, _, a, _ in members)
    bids = tuple(b for _, _, _, b in members)
    return (K_MACC, dsel, aids, bids, members[0][0], n)


def _segment_run(members: "list[tuple]") -> "list[tuple[int, int]]":
    """Split one FMLA/FMLS run into maximal ``[start, stop)`` segments
    with all-distinct accumulators and a uniform sign.

    A chain that revisits an accumulator (a microkernel's next k-step)
    or flips between FMLA and FMLS cannot be one vectorized accumulate;
    cutting at exactly those points keeps every segment vectorizable
    while preserving the raw order segment-to-segment — the sequential
    dependency ``d += p1; d += p2`` lands in two consecutive macro-ops.
    """
    segments: list[tuple[int, int]] = []
    start = 0
    dsts: set[int] = set()
    for i, (is_fmls, d, _, _) in enumerate(members):
        if i > start and (d in dsts or is_fmls != members[start][0]):
            segments.append((start, i))
            start = i
            dsts = set()
        dsts.add(d)
    segments.append((start, len(members)))
    return segments


def _fuse_fmla_chains(commands: "list[tuple]") -> "tuple[list[tuple], dict]":
    """Collapse dependence-free FMLA/FMLS runs into K_MACC macro-ops.

    The generated kernels interleave one FMLA per accumulator per
    k-step with the next step's operand loads, so a run is formed
    *across* intervening commands: a non-FMLA command is hoisted ahead
    of the open run when it cannot conflict (its writes touch neither
    the run's sources nor its accumulators, its reads touch no
    accumulator); otherwise the run seals.  A new member seals the run
    first if one of its sources was accumulated into by the run (its
    product must see the pre-run value no longer available at macro-op
    time).  Hoisting is sound because the macro-op reads all sources
    and writes all accumulators at the seal point, and the checks
    guarantee no hoisted command reads or writes either set in between.
    """
    out: list[tuple] = []
    members: list[tuple] = []       # (is_fmls, dst, a, b)
    raw: list[tuple] = []
    accs: set[int] = set()
    srcs: set[int] = set()
    chains = fused_away = max_chain = 0

    def seal() -> None:
        nonlocal chains, fused_away, max_chain
        if len(members) >= FUSE_MIN_CHAIN:
            for start, stop in _segment_run(members):
                if stop - start >= FUSE_MIN_CHAIN:
                    out.append(_make_macc(members[start:stop]))
                    chains += 1
                    fused_away += (stop - start) - 1
                    max_chain = max(max_chain, stop - start)
                else:
                    out.extend(raw[start:stop])
        else:
            out.extend(raw)
        members.clear()
        raw.clear()
        accs.clear()
        srcs.clear()

    for cmd in commands:
        k = cmd[0]
        if k in (K_FMLA, K_FMLS):
            _, d, a, b = cmd
            if members and (a in accs or b in accs):
                seal()
            members.append((k == K_FMLS, d, a, b))
            raw.append(cmd)
            accs.add(d)
            srcs.update((a, b))
            continue
        if members:
            reads, writes = _rw(cmd)
            if not (accs.isdisjoint(writes) and srcs.isdisjoint(writes)
                    and accs.isdisjoint(reads)):
                seal()
        out.append(cmd)
    seal()
    return out, {"chains": chains, "commands": fused_away,
                 "max_chain": max_chain}


def _coalesce_mem(commands: "list[tuple]",
                  ew: int) -> "tuple[list[tuple], dict]":
    """Turn every column load/store into a wide copy, merging adjacent
    contiguous ones.

    A LOADPAIR/STOREPAIR counts as two full-lane pieces.  Loads merge
    only while destinations stay distinct (a repeated destination would
    make the single gather-assign order-ambiguous); stores merge while
    the memory runs on contiguously, which rules out overlap.  A lone
    copy is emitted wide too (count 1): the complex128 replay beats a
    float copy on its own.  Every operand lies on the 16-byte grid (the
    lowered contract, see the K_LOADW layout note); one that does not
    raises.
    """
    out: list[tuple] = []
    merged = [0, 0, 0, 0]         # loads, stores, commands, vectorized
    run: list[tuple] = []         # the open run's raw commands
    regs: list[int] = []          # its pieces' registers, in order
    seen: set[int] = set()
    load, buf, n, first, last = True, "", 0, 0, 0

    def flush() -> None:
        cfirst, rem = divmod(first * ew, 16)
        if rem:
            raise LoweringError(f"{'load' if load else 'store'} at element "
                                f"{first} of {buf!r} is off the 16-byte "
                                f"grid")
        out.append((K_LOADW if load else K_STOREW, _sel(regs), buf,
                    first, n, len(regs), cfirst))
        if len(regs) >= 2:
            merged[0 if load else 1] += 1
            merged[2] += len(run) - 1
        merged[3] += 1

    for cmd in commands:
        k = cmd[0]
        if k == K_LOAD or k == K_STORE:
            _, r, b, f, m = cmd
            pregs, end = (r,), f
        elif k == K_LOADPAIR or k == K_STOREPAIR:
            _, r, r2, b, f, m = cmd
            pregs, end = (r, r2), f + m
        else:
            if run:
                flush()
                run, regs = [], []
            out.append(cmd)
            continue
        is_load = k == K_LOAD or k == K_LOADPAIR
        if run and (is_load is not load or b != buf or m != n
                    or f != last + n
                    or (is_load and not seen.isdisjoint(pregs))):
            flush()
            run, regs = [], []
        if not run:
            load, buf, n, first = is_load, b, m, f
            seen = set()
        run.append(cmd)
        regs.extend(pregs)
        seen.update(pregs)
        last = end
    if run:
        flush()
    return out, {"loads": merged[0], "stores": merged[1],
                 "commands": merged[2], "vectorized": merged[3]}


def optimize_commands(commands: "list[tuple]", lanes: int, ew: int = 4
                      ) -> "tuple[list[tuple], dict]":
    """Run the DCE -> fuse -> coalesce pipeline over a raw stream.

    Returns the optimized stream plus per-pass statistics (surfaced in
    explain reports and the ``lower.fuse.*`` / ``lower.coalesce.*`` /
    ``lower.dce.*`` counters).  Fusion runs before coalescing because
    removing the FMLAs between operand loads is what makes the loads
    adjacent in the first place.  ``ew`` (element bytes) converts
    element offsets to the wide copies' 16-byte units; every memory
    operand must lie on that grid, as every lowered one does.
    """
    del lanes  # geometry is uniform per stream; kept for signature clarity
    cmds, dce_removed = _dce(commands)
    cmds, fuse = _fuse_fmla_chains(cmds)
    cmds, coal = _coalesce_mem(cmds, ew)
    return cmds, _pass_stats(len(commands), cmds, dce_removed, fuse, coal)


def _pass_stats(before: int, cmds: "list[tuple]", dce_removed: int,
                fuse: dict, coal: dict) -> dict:
    """The pipeline's statistics for an optimized stream ``cmds`` made
    from ``before`` raw commands."""
    return {
        "commands_before": before,
        "commands_after": len(cmds),
        "dce_removed": dce_removed,
        "fuse_chains": fuse["chains"],
        "fuse_commands": fuse["commands"],
        "fuse_max_chain": fuse["max_chain"],
        "coalesce_loads": coal["loads"],
        "coalesce_stores": coal["stores"],
        "coalesce_commands": coal["commands"],
        "coalesce_vectorized": coal["vectorized"],
        "max_stack": _max_stack(cmds),
    }


def _max_stack(commands: "list[tuple]") -> int:
    """Scratch stack depth a stream needs: K_LOADW scatters straight
    into the register bank, MACC (product stack) and STOREW (gather)
    stage through the stack."""
    return max((c[5] for c in commands if c[0] in (K_MACC, K_STOREW)),
               default=0)


def _imm(value: float, ew: int):
    """Immediates are pre-cast to the element dtype at lower time, so
    replay rounds exactly like the interpreter's ``dtype.type(imm)``."""
    return (np.float32 if ew == 4 else np.float64)(value)
