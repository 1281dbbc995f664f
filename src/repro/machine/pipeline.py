"""In-order dual-issue scoreboard: the cycle-accurate-ish timing model.

This is the substitute for running kernels on silicon.  It models the
properties the paper's optimizations target:

* **issue-slot structure** — per cycle, a bounded number of instructions
  may issue, with per-class caps.  The Kunpeng 920 configuration encodes
  the paper's §6.3 statement verbatim: "Kunpeng 920 CPU can only issue
  one memory access instruction and one calculation instruction at the
  same time, or simultaneously issue two calculation instructions for
  single-precision floating-point numbers".
* **register dependencies** — an instruction cannot issue before its
  sources (including FMA accumulators) are ready; results become ready
  ``latency`` cycles after issue.  Issue is strictly in order, which is
  what makes the paper's instruction-scheduling pass (Figure 5)
  measurable: a dependent pair placed back-to-back stalls the front end.
* **memory latency** — loads ask the :class:`CacheHierarchy` where their
  line lives; PRFM warms lines without blocking.
* **division** — FDIV occupies the FP pipe for several cycles
  (unpipelined), reproducing the paper's remark that ARM division is
  expensive enough to justify reciprocal packing in TRSM.

:meth:`PipelineModel.simulate` is a cache pass (:meth:`~PipelineModel.touch`:
each load's extra latency, in program order) then a scoreboard that
reads no cache (:meth:`~PipelineModel.scoreboard`).  Timing never feeds
back into the caches, so the split is exact and the model may reuse
the scoreboard's counts for a repeated (program, load extras) pair.

The model is deliberately in-order.  The real TaiShan V110 core has some
out-of-order capacity, but the paper's entire install-time optimizer is
motivated by static instruction placement mattering; an in-order
scoreboard is the simplest machine on which that motivation is true, and
it reproduces the paper's peak rates by construction (see
:mod:`repro.machine.machines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import CacheHierarchy
from .facts import ADDI, LOAD, OTHER, PREFETCH, STORE, opcode_facts
from .isa import Instr, Op
from .program import Program

__all__ = ["IssueRules", "Latencies", "TimingResult", "PipelineModel",
           "AddressSpace"]


@dataclass(frozen=True)
class IssueRules:
    """Per-cycle issue caps."""

    width: int = 2           # total instructions per cycle
    max_mem: int = 1         # loads + stores + prefetches
    max_fp32: int = 2        # FP ops per cycle at 4-byte element width
    max_fp64: int = 1        # FP ops per cycle at 8-byte element width
    max_int: int = 2         # scalar ALU ops

    def max_fp(self, ew: int) -> int:
        return self.max_fp32 if ew == 4 else self.max_fp64


@dataclass(frozen=True)
class Latencies:
    """Result latencies (cycles from issue to readiness) and FDIV blocking."""

    load_use: int = 4        # L1-hit load-to-use
    fp_ma: int = 4           # FMLA/FMLS/FMAI
    fp_mul: int = 3          # FMUL/FMULI
    fp_add: int = 3          # FADD/FSUB
    fp_div32: int = 11       # FDIV float32 result latency
    fp_div64: int = 18       # FDIV float64 result latency
    div_block32: int = 8     # cycles FDIV occupies the FP pipe (fp32)
    div_block64: int = 14    # cycles FDIV occupies the FP pipe (fp64)
    int_alu: int = 1

    def div_block(self, ew: int) -> int:
        return self.div_block32 if ew == 4 else self.div_block64


@dataclass
class TimingResult:
    """Outcome of timing one program invocation."""

    cycles: int                     # issue span (throughput-relevant)
    drain_cycles: int               # extra cycles until last result is ready
    instructions: int
    stall_cycles: int               # cycles in the span with zero issues
    fp_issued: int
    mem_issued: int
    l1_misses: int
    l2_misses: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def __add__(self, other: "TimingResult") -> "TimingResult":
        return TimingResult(
            self.cycles + other.cycles,
            max(self.drain_cycles, other.drain_cycles),
            self.instructions + other.instructions,
            self.stall_cycles + other.stall_cycles,
            self.fp_issued + other.fp_issued,
            self.mem_issued + other.mem_issued,
            self.l1_misses + other.l1_misses,
            self.l2_misses + other.l2_misses,
        )

    def scaled(self, factor: int) -> "TimingResult":
        """Replicate this invocation ``factor`` times back-to-back."""
        return TimingResult(
            self.cycles * factor, self.drain_cycles,
            self.instructions * factor, self.stall_cycles * factor,
            self.fp_issued * factor, self.mem_issued * factor,
            self.l1_misses * factor, self.l2_misses * factor,
        )


class AddressSpace:
    """Flat address allocator used to place buffers for timing runs."""

    def __init__(self, base: int = 1 << 20) -> None:
        self._next = int(base)
        self._map: dict[str, tuple[int, int]] = {}

    def place(self, name: str, nbytes: int, align: int = 64) -> int:
        """Allocate ``nbytes`` for ``name``; returns the base address."""
        addr = (self._next + align - 1) // align * align
        self._map[name] = (addr, int(nbytes))
        self._next = addr + int(nbytes)
        return addr

    def base(self, name: str) -> int:
        return self._map[name][0]

    def extent(self, name: str) -> tuple[int, int]:
        return self._map[name]

    def __contains__(self, name: str) -> bool:
        return name in self._map


class PipelineModel:
    """Scoreboard simulator producing deterministic cycle counts.

    Everything :meth:`scoreboard` needs to know about an instruction that
    does not depend on run-time state (issue class, registers read,
    latency, access size) is derived once per program by :meth:`decode`
    and memoized on the model, so a model that times the same kernels
    many times (one plan's calls, two groups) decodes each program once.
    The scoreboard's counts are memoized the same way, per (program,
    load extras), so a model is meant for one evaluation (one plan, one
    problem) and is dropped with it.  The per-opcode part of a row
    (issue class, memory kind, FP cap, latency, FDIV occupancy) comes
    from the machine's shared :func:`~repro.machine.facts.opcode_facts`
    table, the same one the scheduler and the kernel validator read.
    """

    def __init__(self, rules: IssueRules, lat: Latencies,
                 caches: CacheHierarchy, vector_bytes: int) -> None:
        self.rules = rules
        self.lat = lat
        self.caches = caches
        self.vector_bytes = int(vector_bytes)
        self._facts = opcode_facts(rules, lat)
        # id(program) -> (program, its instrs list, decoded rows)
        self._decoded: dict[int, tuple[Program, list, tuple]] = {}
        # (id(rows), load extras) -> (rows, scoreboard counts); holding
        # ``rows`` keeps its id unique while the entry lives
        self._scored: dict[tuple, tuple[tuple, tuple]] = {}

    def _access_size(self, ins: Instr) -> int:
        """Bytes a memory op touches."""
        if ins.op is Op.PRFM:
            return self.caches.line
        if ins.op in (Op.LDPV, Op.STPV, Op.LD2V, Op.ST2V):
            return 2 * self.vector_bytes
        if ins.op is Op.LD1R:
            return ins.ew
        if ins.nlanes is not None:
            return ins.nlanes * ins.ew
        return self.vector_bytes

    def decode(self, program: Program) -> tuple:
        """One flat row per instruction, in program order.

        Row fields: ``(kind, reads, xdeps, is_mem, is_fp, is_int,
        fp_cap, dst, base, offset, size, latency, div_block, xdst, xsrc,
        ximm, instr)`` — ``kind`` is one of :data:`LOAD`,
        :data:`STORE`, :data:`PREFETCH`, :data:`ADDI`, :data:`OTHER`;
        ``reads`` includes accumulator inputs; ``xdeps`` are the scalar
        registers the instruction waits for (``base``, plus ``xsrc`` for
        ADDI); ``size`` is the bytes a memory op touches; ``div_block``
        is the FP-pipe occupancy of an FDIV (None otherwise).

        Memoized per model by ``id(program)``; a hit is only trusted
        while it is still the same program object holding the same
        ``instrs`` list, so replacing a program's instructions decodes
        afresh.
        """
        hit = self._decoded.get(id(program))
        if (hit is not None and hit[0] is program
                and hit[1] is program.instrs):
            return hit[2]
        facts = self._facts
        rows = []
        for ins in program.instrs:
            (_icls, kind, is_mem, is_fp, is_int, fp_cap, accumulates,
             latency, div_block) = facts[ins.op, ins.ew]
            base = ins.base
            xdeps = () if base is None else (base,)
            if kind == ADDI and ins.xsrc is not None:
                xdeps += (ins.xsrc,)
            dst = ins.dst
            rows.append((kind, ins.srcs + dst if accumulates else ins.srcs,
                         xdeps, is_mem, is_fp, is_int, fp_cap, dst, base,
                         ins.offset, self._access_size(ins) if is_mem else 0,
                         latency, div_block, ins.xdst, ins.xsrc, ins.ximm,
                         ins))
        rows = tuple(rows)
        self._decoded[id(program)] = (program, program.instrs, rows)
        return rows

    def touch(self, program: Program,
              xreg_init: dict[int, int] | None = None) -> tuple[int, ...]:
        """The cache pass: replay one invocation's cache traffic.

        Issues the loads, stores and prefetches in program order and
        returns each load's extra latency beyond an L1 hit.  The
        hierarchy and stream window see accesses in program order
        whatever cycle each issues in, and timing never feeds back into
        them, so this leaves the caches exactly as :meth:`simulate`
        would.  Alone, it primes a group whose timing is discarded.
        """
        access = self.caches.access
        prefetch = self.caches.prefetch
        xval: dict[int, int] = dict(xreg_init or {})
        extras = []
        for (kind, _r, _x, _m, _f, _i, _c, _d, base, offset, size, _l, _b,
             xdst, xsrc, ximm, _ins) in self.decode(program):
            if kind == OTHER:
                continue
            if kind == LOAD:
                extras.append(access(xval.get(base, 0) + offset, size))
            elif kind == STORE:
                access(xval.get(base, 0) + offset, size, write=True)
            elif kind == PREFETCH:
                prefetch(xval.get(base, 0) + offset, size)
            else:
                xval[xdst] = xval.get(xsrc, 0) + ximm
        return tuple(extras)

    def scoreboard(self, rows: tuple, extras: tuple[int, ...],
                   trace: list | None = None) -> tuple[int, ...]:
        """Issue decoded ``rows`` from an empty pipeline at cycle 0, the
        i-th load ``extras[i]`` cycles later than an L1 hit; returns the
        first six :class:`TimingResult` fields.  Pure: it reads no cache.
        ``trace``, if given, receives ``(issue_cycle, instr)`` per row.
        """
        rules = self.rules
        width, max_mem, max_int = rules.width, rules.max_mem, rules.max_int
        next_extra = iter(extras).__next__
        vready = [0] * 32
        xready: dict[int, int] = {}
        # Issue counts of the open cycle ``cycle``.  Issue is in order, so
        # no instruction issues before the previous one: every earlier
        # cycle is closed for good and needs no counts.
        cycle = -1                       # no cycle open yet
        n_all = n_mem = n_fp = n_int = 0
        issue_cycles = 0
        fp_blocked_until = 0             # unpipelined FDIV occupancy

        cursor = 0
        last_issue = 0
        last_ready = 0
        fp_issued = 0
        mem_issued = 0

        for (kind, reads, xdeps, is_mem, is_fp, is_int, fp_cap, dst, _base,
             _offset, _size, latency, div_block, xdst, _xsrc, _ximm,
             ins) in rows:
            # dependency readiness
            t = cursor
            for r in reads:
                if vready[r] > t:
                    t = vready[r]
            for x in xdeps:
                tr = xready.get(x, 0)
                if tr > t:
                    t = tr
            if is_fp and t < fp_blocked_until:
                t = fp_blocked_until

            # find an issue slot honouring per-class caps: a full open
            # cycle pushes the instruction into the next one, which is
            # empty (every cap is at least 1, so it has room)
            if t == cycle and (n_all >= width
                               or (is_mem and n_mem >= max_mem)
                               or (is_fp and n_fp >= fp_cap)
                               or (is_int and n_int >= max_int)):
                t += 1
            if t != cycle:
                cycle = t
                n_all = n_mem = n_fp = n_int = 0
                issue_cycles += 1
            n_all += 1
            if is_mem:
                n_mem += 1
                mem_issued += 1
            if is_fp:
                n_fp += 1
                fp_issued += 1
            if is_int:
                n_int += 1

            # effects
            ready = t + latency
            if kind == OTHER:
                for d in dst:
                    vready[d] = ready
                if div_block is not None:
                    fp_blocked_until = t + div_block
            elif kind == LOAD:
                ready += next_extra()
                for d in dst:
                    vready[d] = ready
            elif kind == ADDI:
                xready[xdst] = ready

            if trace is not None:
                trace.append((t, ins))
            cursor = t  # in-order: next instruction issues at >= this cycle
            if t > last_issue:
                last_issue = t
            if ready > last_ready:
                last_ready = ready

        span = last_issue + 1
        return (span, max(0, last_ready - last_issue - 1), len(rows),
                max(0, span - issue_cycles), fp_issued, mem_issued)

    def simulate(self, program: Program,
                 xreg_init: dict[int, int] | None = None,
                 trace: list | None = None) -> TimingResult:
        """Time one invocation: the cache pass, then the scoreboard.

        ``xreg_init`` maps scalar registers to flat byte addresses (from an
        :class:`AddressSpace`).  The cache hierarchy retains state across
        calls, so back-to-back invocations see realistic residency.
        ``trace``, if given, receives one ``(issue_cycle, instr)`` pair per
        instruction (see :mod:`repro.machine.trace`).  The cache pass
        always runs; the scoreboard's counts are memoized on the model
        per (program, load extras), except when tracing.
        """
        stats1, stats2 = self.caches.l1.stats, self.caches.l2.stats
        l1_m0, l2_m0 = stats1.misses, stats2.misses
        extras = self.touch(program, xreg_init)
        misses = (stats1.misses - l1_m0, stats2.misses - l2_m0)
        rows = self.decode(program)
        if trace is not None:
            return TimingResult(*self.scoreboard(rows, extras, trace),
                                *misses)
        key = (id(rows), extras)
        hit = self._scored.get(key)
        if hit is None:
            hit = self._scored[key] = (rows, self.scoreboard(rows, extras))
        return TimingResult(*hit[1], *misses)
