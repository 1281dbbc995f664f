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
3. *load/store coalescing* — adjacent full-lane loads (stores) from
   contiguous memory merge into one wide ``K_LOADW`` (``K_STOREW``)
   strided copy.

Every pass preserves bit-identical memory effects, so the equivalence
contract (same bytes as ``interpret``) holds for the optimized stream
too.  The raw stream is kept alongside (``commands`` vs
``fused_commands``): it carries the per-kernel ``call_ranges`` the
attribution profiler's ``raw`` stream reports against.

**Templates.**  Resolution, validation and the passes run once per
distinct call binding: the program, each root's offset relative to the
lowest root in its buffer, and that lowest offset mod 16 B.  Later calls
with the key re-check its extents against the group stride and keep
only their per-buffer element delta.  Registers never live across a
call, so the per-call optimized streams concatenate to the
whole-stream result.  The plan stores the templates; ``commands`` and
``fused_commands`` are views that relocate them on first element access
(memory commands move by the buffer's delta; the rest are shared), and
``len`` never relocates.

**Waves.**  Each template's read and write footprint is a per-buffer
list of element intervals within one group stride; a call's footprint
is the template's, shifted by its delta.  A call's *level* is 1 + the
highest level of any earlier call it conflicts with (RAW, WAR or WAW on
one element), and a :class:`Wave` is every call of one (level,
template), in call order, with the lattice its deltas lie on (a
progression, or rows x cols for a GEMM tile grid).  Levels replay in
order and calls of one level never conflict, so the ``fused`` backend
can replay a wave's template once per pass over whole lattice rows,
bound as one strided view per buffer (levels → waves → passes), and
every element still sees its plan-order sequence of ufuncs.

Lowering is pure analysis: it never touches matrix data, so a
``CompiledPlan`` is cached alongside its plan in the
:class:`~repro.runtime.iatf.PlanCache` and reused for every batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import obs
from ..codegen import regs
from ..codegen.templates_trsm import PX
from ..errors import LoweringError
from ..machine.isa import NUM_VREGS, Op
from .plan import ExecutionPlan, KernelCall

__all__ = ["CompiledPlan", "CompiledCommand", "BufferLayout", "Wave",
           "lower_plan", "optimize_commands", "FUSE_MIN_CHAIN",
           "K_LOAD", "K_LOAD_PART", "K_LOADPAIR", "K_LOAD1R", "K_LOAD2",
           "K_STORE", "K_STOREPAIR", "K_STORE2", "K_FMLA", "K_FMLS",
           "K_FMUL", "K_FMAI", "K_FMULI", "K_FADD", "K_FSUB", "K_FDIV",
           "K_VZERO", "K_VMOV", "K_FIMM", "K_MACC", "K_LOADW", "K_STOREW"]

# Command kinds.  Integers (not enums) so the replay loop dispatches on
# a plain ``==`` against the tuple head.
K_LOAD = 0        # (kind, dst, buf, first, n)           n == lanes
K_LOAD_PART = 1   # (kind, dst, buf, first, n)           n < lanes, zero tail
K_LOADPAIR = 2    # (kind, dst1, dst2, buf, first, n)    2n consecutive
K_LOAD1R = 3      # (kind, dst, buf, first)              broadcast one elem
K_LOAD2 = 4       # (kind, dste, dsto, buf, first, n)    deinterleave step 2
K_STORE = 5       # (kind, src, buf, first, n)
K_STOREPAIR = 6   # (kind, src1, src2, buf, first, n)
K_STORE2 = 7      # (kind, srce, srco, buf, first, n)    interleave step 2
K_FMLA = 8        # (kind, dst, a, b)                    dst += a * b
K_FMLS = 9        # (kind, dst, a, b)                    dst -= a * b
K_FMUL = 10       # (kind, dst, a, b)
K_FMAI = 11       # (kind, dst, a, imm)                  dst += a * imm
K_FMULI = 12      # (kind, dst, a, imm)
K_FADD = 13       # (kind, dst, a, b)
K_FSUB = 14       # (kind, dst, a, b)
K_FDIV = 15       # (kind, dst, a, b)
K_VZERO = 16      # (kind, dst)
K_VMOV = 17       # (kind, dst, src)
K_FIMM = 18       # (kind, dst, imm)

# Macro-op kinds produced only by the pass pipeline (never by _lower);
# they appear in ``CompiledPlan.fused_commands`` exclusively.
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
#   count registers of n consecutive columns each in one copy.  When
#   the geometry allows (vector, offset and group stride all multiples
#   of 16 bytes) ``cfirst`` holds the offset in 16-byte units and the
#   copy runs elementwise over a complex128 reinterpretation of both
#   sides: one C-level strided loop moving 16 B per element, instead of
#   a segmented float copy paying per-16-B-segment loop overhead — the
#   bytes moved are identical, so the result is too.  ``cfirst`` is -1
#   when the fallback float path must be used.

_MEM_KINDS = frozenset((K_LOAD, K_LOAD_PART, K_LOADPAIR, K_LOAD1R, K_LOAD2,
                        K_STORE, K_STOREPAIR, K_STORE2))

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
        k = self.kind
        if k in (K_LOAD, K_LOAD_PART, K_STORE):
            _, _, buf, first, n = self.raw
            return buf, first, n, 1
        if k in (K_LOADPAIR, K_STOREPAIR):
            _, _, _, buf, first, n = self.raw
            return buf, first, 2 * n, 1
        if k == K_LOAD1R:
            _, _, buf, first = self.raw
            return buf, first, 1, 1
        # K_LOAD2 / K_STORE2: 2n elements at step 1, consumed pairwise
        _, _, _, buf, first, n = self.raw
        return buf, first, 2 * n, 1

    def gather_indices(self, groups: int, stride_elems: int) -> np.ndarray:
        """The explicit ``(groups, count)`` element-index array this
        command's slice view stands for — bit-for-bit what the
        interpreter's address resolution would build per call."""
        _, first, count, _ = self.access()
        base = np.arange(groups, dtype=np.int64) * stride_elems + first
        return base[:, None] + np.arange(count, dtype=np.int64)[None, :]


@dataclass
class CompiledPlan:
    """A plan lowered to a replayable flat command stream.

    ``commands`` is a list of plain tuples headed by a ``K_*`` kind;
    :class:`~repro.runtime.backends.FusedBackend` replays them (or
    their pass-optimized ``fused_commands``) against one 2-D
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
    """The pass-optimized stream (macro-ops allowed) the ``fused``
    backend replays in plan order; ``commands`` stays the validated raw
    stream."""
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
    """Each distinct call binding lowered once: raw and optimized
    streams plus footprints; ``commands``/``fused_commands`` relocate
    these."""
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
        w = self.stats.get("waves", 0)
        return (f"{self.stats.get('calls', 0)} calls from {t} "
                f"template{'s' * (t != 1)} in {w} wave{'s' * (w != 1)}")

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


def lower_plan(plan: ExecutionPlan) -> CompiledPlan:
    """Lower a plan once; the result replays for every batch.

    Raises :class:`LoweringError` on anything the interpreter would only
    catch at run time (misalignment, out-of-group-bounds access,
    register read-before-write) and on dtype/stride geometry the
    compiled backend cannot replay — the error surfaces at plan time,
    before any data is touched.
    """
    with obs.span("lower.plan", kind=plan.kind, calls=len(plan.calls)):
        compiled = _lower(plan)
    obs.count("lower.plans")
    obs.count("lower.commands", compiled.num_commands)
    obs.count("lower.folded_addi", compiled.stats["folded_addi"])
    passes = compiled.stats["passes"]
    obs.count("lower.dce.removed", passes["dce_removed"])
    obs.count("lower.fuse.chains", passes["fuse_chains"])
    obs.count("lower.fuse.commands", passes["fuse_commands"])
    obs.count("lower.coalesce.merged", passes["coalesce_commands"])
    return compiled


def _lower(plan: ExecutionPlan) -> CompiledPlan:
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
            if spec.group_stride_bytes % isz:
                raise LoweringError(
                    f"buffer {buf!r} group stride {spec.group_stride_bytes} B "
                    f"is not a multiple of the element width {isz}")
            lay = BufferLayout(buf, spec.group_stride_bytes // isz, isz)
            layouts[buf] = lay
        return lay

    templates: "dict[tuple, _Template]" = {}
    calls: "list[tuple[_Template, dict[str, int]]]" = []
    call_ranges: "list[tuple[str, int, int]]" = []
    fused_ranges: "list[tuple[int, int]]" = []
    raw_len = opt_len = 0

    for ci, call in enumerate(plan.calls):
        prog = call.program
        if prog.ew != ew or prog.lanes != lanes:
            raise LoweringError(
                f"{prog.name}: mixed element geometry in one plan "
                f"(ew={prog.ew}/{ew}, lanes={prog.lanes}/{lanes})")
        roots = _root_pointers(call)
        base: "dict[str, int]" = {}
        for buf, off in roots.values():
            base[buf] = min(base.get(buf, off), off)
        key = (id(prog), tuple((r, buf, off - base[buf])
                               for r, (buf, off) in roots.items()),
               tuple((buf, off % 16) for buf, off in base.items()))
        tpl = templates.get(key)
        if tpl is None:
            raw, counts = _lower_call(prog, roots, ci, layout, lanes, ew)
            opt, passes = optimize_commands(
                raw, lanes, ew,
                {name: lay.stride_bytes for name, lay in layouts.items()})
            tpl = templates[key] = _Template(
                len(templates), prog.name, ew, raw, opt, base, counts, passes)
            delta = dict.fromkeys(base, 0)
        else:
            # same key => same lattice, 16 B apart: only bounds can differ
            delta = {buf: (off - tpl.base[buf]) // isz
                     for buf, off in base.items()}
            if any(lo + delta[buf] < 0
                   or hi + delta[buf] > layouts[buf].stride_elems
                   for buf, (lo, hi) in tpl.extents.items()):
                # raises this call's exact per-instruction error
                _lower_call(prog, roots, ci, layout, lanes, ew)
        tpl.uses += 1
        calls.append((tpl, delta))
        call_ranges.append((prog.name, raw_len, raw_len + len(tpl.raw)))
        fused_ranges.append((opt_len, opt_len + len(tpl.opt)))
        raw_len += len(tpl.raw)
        opt_len += len(tpl.opt)

    counts = dict.fromkeys(("instructions", "mem_commands", "folded_addi",
                            "dropped"), 0)
    passes = {}
    for tpl in templates.values():
        for k in counts:
            counts[k] += tpl.uses * tpl.counts[k]
        for k, v in tpl.passes.items():
            passes[k] = (max(passes.get(k, 0), v) if k in _PEAK_PASSES
                         else passes.get(k, 0) + tpl.uses * v)
    waves = _build_waves(calls, layouts)
    return CompiledPlan(
        kind=plan.kind, groups=plan.groups, lanes=lanes, ew=ew,
        buffers=layouts,
        commands=_Relocated(calls, ew, False, raw_len),
        fused_commands=_Relocated(calls, ew, True, opt_len),
        call_ranges=call_ranges, fused_ranges=fused_ranges,
        stats={"calls": len(plan.calls),
               "instructions": counts["instructions"],
               "mem_commands": counts["mem_commands"],
               "fp_commands": raw_len - counts["mem_commands"],
               "folded_addi": counts["folded_addi"],
               "dropped": counts["dropped"],
               "passes": passes, "templates": len(templates),
               "waves": len(waves)},
        templates=list(templates.values()), waves=waves)


_PEAK_PASSES = ("fuse_max_chain", "max_stack")

_STORE_KINDS = frozenset((K_STORE, K_STOREPAIR, K_STORE2))


@dataclass
class _Template:
    """One call lowered at its own offsets, relocatable to every later
    call of the plan with the same key."""

    index: int                    # position in CompiledPlan.templates
    name: str                     # kernel (program) name
    ew: int                       # element width in bytes
    raw: "list[tuple]"            # the validated raw stream
    opt: "list[tuple]"            # its pass-optimized stream
    base: "dict[str, int]"        # buffer -> lowest root byte offset
    counts: dict                  # instructions / mem / folded / dropped
    passes: dict                  # optimize_commands statistics
    uses: int = 0                 # calls of the plan it lowered

    @cached_property
    def footprint(self) -> "dict[str, tuple[list, list]]":
        """Buffer -> ``(reads, writes)``: sorted, merged ``[start, end)``
        element intervals within one group stride, over the raw stream."""
        acc: "dict[str, tuple[list, list]]" = {}
        for cmd in self.raw:
            k = cmd[0]
            if k in _MEM_KINDS:
                buf, first, n, _ = CompiledCommand(k, cmd).access()
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
    def sites(self) -> "tuple[dict, dict]":
        return _mem_sites(self.raw), _mem_sites(self.opt)

    @cached_property
    def wave_form(self) -> "tuple[list[tuple], dict, dict, frozenset]":
        """What a wave replays: the optimized stream with every memory
        operand re-based to its buffer's window, the windows ``buffer ->
        (start, width)`` (start rounded down to 16 B, so the rebase keeps
        ``cfirst`` whole and a window never starts before the group),
        each written buffer's element offsets within its window, and the
        buffers the 16-byte-unit wide copies address."""
        unit = 16 // self.ew
        window = {buf: (lo - lo % unit, hi - lo + lo % unit)
                  for buf, (lo, hi) in self.extents.items()}
        stream = _relocate(self.opt, self.sites[1],
                           {buf: -lo for buf, (lo, _) in window.items()},
                           self.ew)
        writes = {buf: np.concatenate([np.arange(s, e) - window[buf][0]
                                       for s, e in w])
                  for buf, (_, w) in self.footprint.items() if w}
        wide = frozenset(buf for buf, sites in self.sites[1].items()
                         if any(w for _, _, w in sites))
        return stream, window, writes, wide

    @cached_property
    def program_key(self) -> str:
        """The ``wave_form`` stream as one string: equal keys (at equal
        lanes) replay identically, whatever plan the template came
        from."""
        return repr((self.ew, self.wave_form[0]))


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

    ``lattice`` is ``(rows, cols)`` when call ``i`` sits at ``deltas[0]
    + (i // cols) * row step + (i % cols) * col step`` in every buffer —
    a 1-D progression is one row, a GEMM tile grid is rows x cols — so a
    pass binds each buffer as one strided view; ``None`` marks an
    irregular wave, whose calls are gathered and scattered back."""

    level: int                    # conflict depth; levels replay in order
    template: int                 # index into CompiledPlan.templates
    calls: "tuple[int, ...]"      # plan call indices, in call order
    buffers: "tuple[str, ...]"    # the template's root buffers
    deltas: "tuple[tuple[int, ...], ...]"  # per call, per buffer: elements
    lattice: "tuple[int, int] | None"      # (rows, cols), None: irregular


def _lattice(deltas: "tuple[tuple[int, ...], ...]"
             ) -> "tuple[int, int] | None":
    """``(rows, cols)`` of the lattice the per-call deltas lie on, in
    call order (row-major), or None.  ``cols`` is the length of the
    first run of equal steps, so a progression is ``(1, calls)``."""
    n = len(deltas)
    d0 = deltas[0]
    if n == 1:
        return 1, 1
    col = tuple(y - x for x, y in zip(d0, deltas[1]))
    cols = next((i for i in range(2, n)
                 if tuple(y - x for x, y in zip(deltas[i - 1], deltas[i]))
                 != col), n)
    if n % cols:
        return None
    row = tuple(y - x for x, y in zip(d0, deltas[cols] if cols < n else d0))
    for i, d in enumerate(deltas):
        r, c = divmod(i, cols)
        if any(x != b + r * rs + c * cs
               for x, b, rs, cs in zip(d, d0, row, col)):
            return None
    return n // cols, cols


def _build_waves(calls: "list[tuple[_Template, dict[str, int]]]",
                 layouts: "dict[str, BufferLayout]") -> "list[Wave]":
    """Group a plan's calls into waves, in replay order.

    A call's *level* is 1 + the highest level of any earlier call it
    conflicts with: a write against any earlier access, or a read
    against any earlier write, of one element of one buffer (buffers no
    call writes never conflict).  Per written buffer two level maps —
    highest level of any access and of any write, per element — are read
    and updated with interval slices.  A wave is every call of one
    (level, template), in call order; waves replay level by level.  A
    level is an antichain of the conflict order, so the reordering is
    exact: every element sees its accesses in plan order.
    """
    def wave(level: int, tpl: _Template, members: "list[int]") -> Wave:
        bufs = tuple(tpl.base)
        deltas = tuple(tuple(calls[ci][1][b] for b in bufs) for ci in members)
        return Wave(level, tpl.index, tuple(members), bufs, deltas,
                    _lattice(deltas))

    if len(calls) == 1:
        return [wave(1, calls[0][0], [0])]
    written = {buf for tpl, _ in calls
               for buf, (_, w) in tpl.footprint.items() if w}
    seen = {buf: [0] * layouts[buf].stride_elems for buf in written}
    wrote = {buf: [0] * layouts[buf].stride_elems for buf in written}
    spans: "dict[int, list[tuple]]" = {}
    buckets: "dict[tuple[int, int], list[int]]" = {}
    for ci, (tpl, delta) in enumerate(calls):
        tracked = spans.get(tpl.index)
        if tracked is None:
            tracked = spans[tpl.index] = [
                (buf, w, _subtract(r, w))
                for buf, (r, w) in tpl.footprint.items() if buf in written]
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
        buckets.setdefault((level, tpl.index), []).append(ci)
    order = sorted(buckets.items(), key=lambda kv: (kv[0][0], kv[1][0]))
    return [wave(level, calls[members[0]][0], members)
            for (level, _), members in order]


# tuple index of the buffer name in each memory command (first follows)
_BUF_AT = {K_LOAD: 2, K_LOAD_PART: 2, K_LOAD1R: 2, K_STORE: 2,
           K_LOADW: 2, K_STOREW: 2, K_LOADPAIR: 3, K_LOAD2: 3,
           K_STOREPAIR: 3, K_STORE2: 3}


def _mem_sites(stream: "list[tuple]") -> "dict[str, list[tuple]]":
    """Buffer -> ``(index, buffer slot, has cfirst)`` per memory command."""
    sites: "dict[str, list[tuple]]" = {}
    for i, cmd in enumerate(stream):
        b = _BUF_AT.get(cmd[0])
        if b is not None:
            sites.setdefault(cmd[b], []).append(
                (i, b, cmd[0] in (K_LOADW, K_STOREW) and cmd[6] >= 0))
    return sites


class _Relocated(Sequence):
    """A plan's whole raw (or optimized) stream, relocated call by call
    from the templates on first element access and kept for the plan's
    life.  ``len`` never relocates."""

    def __init__(self, calls: "list[tuple[_Template, dict[str, int]]]",
                 ew: int, optimized: bool, length: int) -> None:
        self._calls, self._ew, self._optimized = calls, ew, optimized
        self._len = length
        self._items: "list | None" = None

    def _list(self) -> list:
        items = self._items
        if items is None:
            items = []
            which = int(self._optimized)
            for tpl, delta in self._calls:
                stream = tpl.opt if which else tpl.raw
                if any(delta.values()):
                    stream = _relocate(stream, tpl.sites[which], delta,
                                       self._ew)
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


_BINARY = {Op.FMLA: K_FMLA, Op.FMLS: K_FMLS, Op.FMUL: K_FMUL,
           Op.FADD: K_FADD, Op.FSUB: K_FSUB, Op.FDIV: K_FDIV}


def _lower_call(prog, roots: "dict[int, tuple[str, int]]", ci: int,
                layout, lanes: int, ew: int) -> "tuple[list[tuple], dict]":
    """Lower one call at its own root offsets: fold pointers, resolve and
    validate every operand.  Returns the raw stream and its counts."""
    xstate = dict(roots)
    written: set[int] = set()
    commands: list[tuple] = []
    folded = dropped = 0

    def err(pc: int, msg: str) -> LoweringError:
        ins = prog.instrs[pc]
        return LoweringError(
            f"{prog.name} @pc={pc} ({ins.asm()}) [call {ci}]: {msg}")

    def resolve(pc: int, n_elems: int) -> "tuple[str, int]":
        """Fold the memory operand to (buffer, first element) and
        run the one-time alignment/bounds validation."""
        ins = prog.instrs[pc]
        root = xstate.get(ins.base)
        if root is None:
            raise err(pc, f"scalar register x{ins.base} read before write")
        buf, off = root
        try:
            lay = layout(buf)
        except LoweringError as exc:
            raise err(pc, str(exc)) from None
        byte = off + ins.offset
        if byte % ew:
            raise err(pc, f"misaligned access into {buf!r} (offset "
                          f"{byte} not a multiple of {ew})")
        first = byte // ew
        if first < 0 or first + n_elems > lay.stride_elems:
            raise err(pc, f"access [{first}, {first + n_elems}) of "
                          f"{buf!r} leaves the group stride "
                          f"({lay.stride_elems} elements)")
        return buf, first

    def read_vregs(pc: int, vreg_ids: "tuple[int, ...]") -> None:
        for r in vreg_ids:
            if r not in written:
                raise err(pc, f"vector register v{r} read before write")

    for pc, ins in enumerate(prog.instrs):
        op = ins.op
        if op is Op.ADDI:
            root = xstate.get(ins.xsrc)
            if root is None:
                raise err(pc, f"scalar register x{ins.xsrc} read "
                              f"before write")
            xstate[ins.xdst] = (root[0], root[1] + ins.ximm)
            folded += 1
        elif op in (Op.PRFM, Op.NOP):
            dropped += 1
        elif op is Op.LDRV:
            n = ins.nlanes if ins.nlanes is not None else lanes
            buf, first = resolve(pc, n)
            commands.append(((K_LOAD_PART if n < lanes else K_LOAD),
                             ins.dst[0], buf, first, n))
            written.add(ins.dst[0])
        elif op is Op.LDPV:
            buf, first = resolve(pc, 2 * lanes)
            commands.append((K_LOADPAIR, ins.dst[0], ins.dst[1], buf,
                             first, lanes))
            written.update(ins.dst)
        elif op is Op.LD1R:
            buf, first = resolve(pc, 1)
            commands.append((K_LOAD1R, ins.dst[0], buf, first))
            written.add(ins.dst[0])
        elif op is Op.LD2V:
            n = ins.nlanes if ins.nlanes is not None else lanes
            buf, first = resolve(pc, 2 * n)
            commands.append((K_LOAD2, ins.dst[0], ins.dst[1], buf,
                             first, n))
            written.update(ins.dst)
        elif op is Op.ST2V:
            n = ins.nlanes if ins.nlanes is not None else lanes
            read_vregs(pc, ins.srcs)
            buf, first = resolve(pc, 2 * n)
            commands.append((K_STORE2, ins.srcs[0], ins.srcs[1], buf,
                             first, n))
        elif op is Op.STRV:
            n = ins.nlanes if ins.nlanes is not None else lanes
            read_vregs(pc, ins.srcs)
            buf, first = resolve(pc, n)
            commands.append((K_STORE, ins.srcs[0], buf, first, n))
        elif op is Op.STPV:
            read_vregs(pc, ins.srcs)
            buf, first = resolve(pc, 2 * lanes)
            commands.append((K_STOREPAIR, ins.srcs[0], ins.srcs[1], buf,
                             first, lanes))
        elif op in _BINARY:
            read_vregs(pc, ins.reads)     # FMLA/FMLS: dst is read too
            commands.append((_BINARY[op], ins.dst[0], ins.srcs[0],
                             ins.srcs[1]))
            written.add(ins.dst[0])
        elif op is Op.FMAI:
            read_vregs(pc, ins.reads)
            commands.append((K_FMAI, ins.dst[0], ins.srcs[0],
                             _imm(ins.imm, ew)))
        elif op is Op.FMULI:
            read_vregs(pc, ins.reads)
            commands.append((K_FMULI, ins.dst[0], ins.srcs[0],
                             _imm(ins.imm, ew)))
            written.add(ins.dst[0])
        elif op is Op.VZERO:
            commands.append((K_VZERO, ins.dst[0]))
            written.add(ins.dst[0])
        elif op is Op.VMOV:
            read_vregs(pc, ins.srcs)
            commands.append((K_VMOV, ins.dst[0], ins.srcs[0]))
            written.add(ins.dst[0])
        elif op is Op.FIMM:
            commands.append((K_FIMM, ins.dst[0], _imm(ins.imm, ew)))
            written.add(ins.dst[0])
        else:  # pragma: no cover - exhaustive over the ISA
            raise err(pc, f"unimplemented opcode {op}")

    mem = sum(1 for c in commands if c[0] in _MEM_KINDS)
    return commands, {"instructions": len(prog.instrs), "mem_commands": mem,
                      "folded_addi": folded, "dropped": dropped}


# ---------------------------------------------------------------------------
# the optimizing pass pipeline (raw stream -> fused stream)
# ---------------------------------------------------------------------------

def _rw(cmd: tuple) -> "tuple[tuple, tuple]":
    """(registers read, registers written) of one raw command.

    FMLA/FMLS/FMAI read their destination (read-modify-write), so DCE
    can never treat the accumulated-into value as dead.
    """
    k = cmd[0]
    if k in (K_LOAD, K_LOAD_PART, K_LOAD1R):
        return (), (cmd[1],)
    if k in (K_LOADPAIR, K_LOAD2):
        return (), (cmd[1], cmd[2])
    if k == K_STORE:
        return (cmd[1],), ()
    if k in (K_STOREPAIR, K_STORE2):
        return (cmd[1], cmd[2]), ()
    if k in (K_FMLA, K_FMLS):
        return (cmd[1], cmd[2], cmd[3]), (cmd[1],)
    if k == K_FMAI:
        return (cmd[1], cmd[2]), (cmd[1],)
    if k in (K_FMUL, K_FADD, K_FSUB, K_FDIV):
        return (cmd[2], cmd[3]), (cmd[1],)
    if k in (K_FMULI, K_VMOV):
        return (cmd[2],), (cmd[1],)
    if k in (K_VZERO, K_FIMM):
        return (), (cmd[1],)
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
        if writes and not (live & set(writes)):
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
            ws = set(writes)
            if (accs & ws) or (srcs & ws) or (accs & set(reads)):
                seal()
        out.append(cmd)
    seal()
    return out, {"chains": chains, "commands": fused_away,
                 "max_chain": max_chain}


def _coalesce_mem(commands: "list[tuple]", ew: int,
                  strides: "dict[str, int]") -> "tuple[list[tuple], dict]":
    """Merge adjacent contiguous column loads/stores into wide copies.

    A LOADPAIR/STOREPAIR counts as two full-lane pieces.  Loads merge
    only while destinations stay distinct (a repeated destination would
    make the single gather-assign order-ambiguous); stores merge while
    the memory runs on contiguously, which rules out overlap.

    ``ew``/``strides`` feed the 16-byte-unit eligibility check (see the
    K_LOADW layout note): an eligible run is emitted wide even when it
    is a single command — the complex128 replay beats the segmented
    float copy on its own — while ineligible singles stay raw.
    """
    out: list[tuple] = []
    run: "dict | None" = None
    merged_loads = merged_stores = removed = vectorized = 0

    def pieces_of(cmd: tuple):
        k = cmd[0]
        if k == K_LOAD:
            _, d, buf, first, n = cmd
            return "load", buf, n, [(d, first)]
        if k == K_LOADPAIR:
            _, d1, d2, buf, first, n = cmd
            return "load", buf, n, [(d1, first), (d2, first + n)]
        if k == K_STORE:
            _, s, buf, first, n = cmd
            return "store", buf, n, [(s, first)]
        if k == K_STOREPAIR:
            _, s1, s2, buf, first, n = cmd
            return "store", buf, n, [(s1, first), (s2, first + n)]
        return None

    def flush() -> None:
        nonlocal run, merged_loads, merged_stores, removed, vectorized
        if run is None:
            return
        pieces = run["pieces"]
        first = pieces[0][1]
        n = run["n"]
        eligible = ((n * ew) % 16 == 0 and (first * ew) % 16 == 0
                    and strides.get(run["buf"], 0) % 16 == 0)
        if len(run["raw"]) >= 2 or (eligible and len(pieces) >= 2):
            cfirst = first * ew // 16 if eligible else -1
            wide = (K_LOADW if run["op"] == "load" else K_STOREW,
                    _sel([r for r, _ in pieces]), run["buf"],
                    first, n, len(pieces), cfirst)
            out.append(wide)
            if run["op"] == "load":
                merged_loads += 1
            else:
                merged_stores += 1
            removed += len(run["raw"]) - 1
            vectorized += cfirst >= 0
        elif eligible:
            # a lone full-vector copy still wins as one 16-byte-unit
            # elementwise move (count=1 wide command)
            wide = (K_LOADW if run["op"] == "load" else K_STOREW,
                    _sel([r for r, _ in pieces]), run["buf"],
                    first, n, 1, first * ew // 16)
            out.append(wide)
            vectorized += 1
        else:
            out.extend(run["raw"])
        run = None

    for cmd in commands:
        p = pieces_of(cmd)
        if p is None:
            flush()
            out.append(cmd)
            continue
        op, buf, n, pieces = p
        if run is not None:
            contiguous = (run["op"] == op and run["buf"] == buf
                          and run["n"] == n
                          and pieces[0][1] == run["pieces"][-1][1] + n)
            conflict = (op == "load"
                        and any(r in run["regs"] for r, _ in pieces))
            if not contiguous or conflict:
                flush()
        if run is None:
            run = {"op": op, "buf": buf, "n": n, "pieces": [], "raw": [],
                   "regs": set()}
        run["pieces"].extend(pieces)
        run["raw"].append(cmd)
        run["regs"].update(r for r, _ in pieces)
    flush()
    return out, {"loads": merged_loads, "stores": merged_stores,
                 "commands": removed, "vectorized": vectorized}


def optimize_commands(commands: "list[tuple]", lanes: int, ew: int = 4,
                      strides: "dict[str, int] | None" = None
                      ) -> "tuple[list[tuple], dict]":
    """Run the DCE -> fuse -> coalesce pipeline over a raw stream.

    Returns the optimized stream plus per-pass statistics (surfaced in
    explain reports and the ``lower.fuse.*`` / ``lower.coalesce.*`` /
    ``lower.dce.*`` counters).  Fusion runs before coalescing because
    removing the FMLAs between operand loads is what makes the loads
    adjacent in the first place.  ``ew`` (element bytes) and ``strides``
    (buffer name -> group stride in bytes) drive the 16-byte-unit copy
    eligibility; omitting ``strides`` just disables that fast path.
    """
    del lanes  # geometry is uniform per stream; kept for signature clarity
    before = len(commands)
    cmds, dce_removed = _dce(commands)
    cmds, fuse = _fuse_fmla_chains(cmds)
    cmds, coal = _coalesce_mem(cmds, ew, strides or {})
    passes = {
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
    return cmds, passes


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
