"""Generated code for the ``fused`` executor: one program per template.

``fused`` replays each wave of a lowered plan by interpreting its
template's ``wave_form`` stream command by command, so per-command
Python dispatch is what a small batch pays for.  This module removes
that dispatch for streams that run again: the stream is turned *once*
into straight-line NumPy source, byte-compiled with ``compile()``/
``exec``, and called in place of the interpreted replay with the same
inputs as :meth:`~repro.runtime.backends.FusedBackend._replay` — the
pass views of one wave and the register bank.  Like the replay, it
knows only the ten kinds lowering emits (see
:mod:`repro.runtime.lowering`), and every memory command is a wide copy
in 16-byte units.  The source keeps the replay's exact operation set
(per-member multiplies, then one elementwise accumulate; copies stay
copies), so results are bit-identical to ``interpret``; what changes is
how many ufunc calls and how much Python runs per command:

* no dispatch: every command is already resolved to its ufunc calls,
  and each register, register block and buffer view the commands share
  is a local computed once per call;
* copy propagation: ``K_VMOV`` emits nothing — the destination reads its
  source register until either is overwritten;
* batched forms: a ``K_MACC`` with the microkernel's outer-product
  operands, and runs of ``K_FMUL``/``K_FMAI``, compile to one broadcast
  ufunc over ``(q, p, ...)`` register blocks;
* hoisted loads: a register loaded from a buffer the stream never
  stores to, and read only as an outer-product operand, is read and
  written through that buffer's own lead (``M[buf].shape[:-1]``).
  Where the wave schedule cut a pass axis the buffer does not move
  along to length 1
  (:meth:`~repro.runtime.backends.FusedBackend._run_waves`), its panel
  is copied once for the whole axis and the outer-product multiplies
  broadcast it; elsewhere the lead is the full one and nothing changes.
  A load whose value is read any other way (elementwise arithmetic, an
  accumulator, a store, a block mixing leads) writes at the full lead,
  since a broadcast there would split every ufunc's inner loop;
  ``Program.stats["hoisted_loads"]`` counts the others.

**Tiers.**  A program is keyed by the stream alone (lanes, element
width and the commands), not by the plan: streams do not depend on the
group count, so every plan that shares a template shares its program.
:func:`bind_programs`, called by the engine before each execute,
decides per lowered plan:

* the first execute replays (nothing is generated: a plan that runs
  once, like a cold shape, pays no codegen);
* the second execute generates every stream of the plan that has no
  program yet (:func:`ensure_program`, the one codegen entry point,
  which every later execute calls to fetch the plan's programs);
* from then on — and on any execute of a plan whose streams already
  have programs — the generated code runs.

Programs live in a :class:`ProgramMemo`: one bounded LRU per engine,
never process-wide.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..errors import ExecutionError
from .lowering import (K_FMAI, K_FMLA, K_FMLS, K_FMUL, K_FMULI, K_LOADW,
                       K_MACC, K_STOREW, K_VMOV, K_VZERO, CompiledPlan)

__all__ = ["Program", "PlanPrograms", "ProgramMemo", "ensure_program",
           "compile_program", "generate_source", "bind_programs",
           "BATCH_MIN", "MEMO_SIZE"]

BATCH_MIN = 4
"""Shortest FMUL/FMAI run worth collapsing into one broadcast ufunc."""

MEMO_SIZE = 256
"""Programs (and lowering templates) one engine keeps (least recently
used go first)."""

#: wide-copy axis orders per number of leading axes: split the last axis
#: into (count, n) and move count to the front (loads) or back (stores)
_AXES = {nl: ((nl,) + tuple(range(nl)) + (nl + 1,),
              tuple(range(1, nl + 1)) + (0, nl + 1)) for nl in range(1, 5)}



def _sel_list(sel) -> "list[int]":
    return (list(range(sel.start, sel.stop)) if type(sel) is slice
            else [int(x) for x in sel])


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


class _Gen:
    """Deterministic source generator for one ``wave_form`` stream.

    Registers are ``(*lead, lanes)`` and memory operands ``(*lead,
    elements)``, exactly as in the replay loop, so one program serves
    every pass shape (groups, calls x groups, rows x cols x groups).

    A register whose value was loaded from a buffer the stream never
    stores to is read and written through that buffer's own lead
    (``M[buf].shape[:-1]``): a pass that cuts an axis the buffer does
    not move along to length 1 (see :meth:`FusedBackend._run_waves`)
    makes the load copy one panel for the whole axis, and the outer
    products that read the register broadcast it.  A value read any
    other way (:meth:`read`: elementwise arithmetic, an accumulator, a
    store, a block mixing leads) is loaded at the full lead instead:
    ``demoted`` names those loads by stream position, and
    :func:`generate_source` regenerates until no read demotes another."""

    def __init__(self, stream: "list[tuple]", lanes: int, ew: int,
                 demoted: "frozenset[int]" = frozenset()) -> None:
        self.stream = stream
        self.lanes = lanes
        self.vb = (lanes * ew) // 16          # 16-byte units per register
        self.consts: list = []
        self.alias: "dict[int, int]" = {}   # register -> register it copies
        self.body: "list[str]" = []
        self.regs: "set[int]" = set()
        self.bufs: "dict[str, int]" = {}
        self.needs: "set[str]" = set()
        self.views: "dict[str, str]" = {}   # hoisted expression -> name
        self.stack_need = 0
        self.stored = {cmd[2] for cmd in stream if cmd[0] == K_STOREW}
        self.demoted = demoted
        self.at = 0                         # stream position being emitted
        self.lead: "dict[int, str]" = {}    # register -> buffer it holds
        self.loaded_at: "dict[int, int]" = {}
        self.conflicts: "set[int]" = set()  # loads to demote
        self.stats = {"commands": len(stream), "batched_macc": 0,
                      "scalar_macc": 0, "batched_runs": 0,
                      "propagated_moves": 0, "hoisted_loads": 0}

    # -- names ---------------------------------------------------------

    def K(self, v) -> str:
        self.consts.append(v)
        return f"C[{len(self.consts) - 1}]"

    def emit(self, line: str) -> None:
        self.body.append("    " + line)

    def r(self, reg: int) -> str:
        """The register's own storage (a write target)."""
        self.regs.add(reg)
        return f"r{reg}"

    def rv(self, reg: int, wide: bool = False) -> str:
        """The register's current value: its storage, cut to the lead of
        the buffer it was loaded from."""
        buf = self.lead.get(reg)
        if buf is None:
            return f"RC[{reg}]" if wide else self.r(reg)
        return self.v(f"{self.cut(buf, wide)}[{reg}]")

    def read(self, reg: int, wide: bool = False) -> str:
        """A full-lead read of the register's own value: a load that gave
        it a shorter lead is demoted."""
        self.full([reg])
        return self.rv(reg, wide)

    def val(self, reg: int) -> str:
        """Where the register's current value lives (a read)."""
        return self.read(self.alias.get(reg, reg))

    def mc(self, buf: str) -> str:
        """The buffer's pass view in 16-byte units."""
        return f"c{self.bufs.setdefault(buf, len(self.bufs))}"

    def need(self, name: str) -> str:
        self.needs.add(name)
        return name

    def stack(self, n: int) -> str:
        self.stack_need = max(self.stack_need, n)
        return self.need("s0")

    def v(self, expr: str) -> str:
        """A view computed once, at the top of the program: the same
        slices and reshapes recur across a stream's commands."""
        name = self.views.get(expr)
        if name is None:
            name = self.views[expr] = f"v{len(self.views)}"
        return name

    def blead(self, buf: str) -> str:
        """The lead of ``buf``'s pass view: the full lead for a buffer
        the stream stores to, else its own (shorter where the pass
        hoisted it)."""
        if buf in self.stored:
            return self.need("lead")
        return self.v(f"M[{buf!r}].shape[:-1]")

    def cut(self, buf: "str | None", wide: bool = False) -> str:
        """The register bank with its lead cut to ``buf``'s."""
        if buf is None:
            return "RC" if wide else "R"
        sel = self.v(f"(slice(None),) + tuple(map(slice, {self.blead(buf)}))")
        return self.v(f"{'RC' if wide else 'R'}[{sel}]")

    def bank(self, lo: int, hi: int, wide: bool = False,
             buf: "str | None" = None) -> str:
        return self.v(f"{self.cut(buf, wide)}[{lo}:{hi}]")

    def prods(self, n: int, q: int = 0, p: int = 0) -> str:
        """The first ``n`` product-stack rows, as ``(q, p, ...)`` when
        given."""
        rows = self.v(f"{self.stack(n)}[:{n}]")
        return (self.v(f"{rows}.reshape({q}, {p}, *{self.need('sh')})")
                if q else rows)

    def _wide(self, buf: str) -> "str | None":
        """With one 16-byte unit per register (128-bit vectors): the
        buffer as ``(units, *lead, 1)``, so each wide copy is one slice
        of it.  Wider vectors keep the replay's reshape per copy."""
        if self.vb != 1:
            return None
        return self.v(f"{self.mc(buf)}.reshape({self.blead(buf)} + (-1, 1))"
                      f".transpose({self.need('tr')})")

    # -- hoisted leads -------------------------------------------------

    def load_lead(self, buf: str) -> "str | None":
        """The lead the load being emitted writes at: its buffer's, unless
        the stream stores to that buffer or a later read demoted it."""
        if buf in self.stored or self.at in self.demoted:
            return None
        self.stats["hoisted_loads"] += 1
        return buf

    def full(self, regs: "list[int]") -> None:
        """Registers read other than as an outer-product operand: each
        load that gave one a shorter lead is demoted."""
        self.conflicts.update(self.loaded_at[reg] for reg in regs
                              if reg in self.lead)

    def block(self, regs: "list[int]") -> "str | None":
        """The one lead a register block is read at; a block mixing leads
        demotes its loads."""
        leads = {self.lead.get(reg) for reg in regs}
        if len(leads) == 1:
            return leads.pop()
        self.full(regs)
        return None

    # -- copy propagation ----------------------------------------------

    def read_block(self, regs: "list[int]") -> None:
        """Registers about to be read through a bank slice or gather
        must hold their own values."""
        for reg in regs:
            src = self.alias.pop(reg, None)
            if src is not None:
                self.emit(f"copyto({self.r(reg)}, {self.read(src)})")

    def write(self, regs: "list[int]", buf: "str | None" = None) -> None:
        """Registers about to be overwritten, by a load at ``buf``'s lead
        or (None) anything at the full lead: every alias still reading
        one of them takes its own copy first, and their own aliases end."""
        for reg in regs:
            for d in [d for d, s in self.alias.items() if s == reg]:
                del self.alias[d]
                self.emit(f"copyto({self.r(d)}, {self.read(reg)})")
            self.alias.pop(reg, None)
            if buf is None:
                self.lead.pop(reg, None)
            else:
                self.lead[reg] = buf
                self.loaded_at[reg] = self.at

    # -- per-command emission ------------------------------------------

    def _loadw(self, cmd) -> None:
        _, dsel, buf, _, _, count, cf = cmd
        regs = _sel_list(dsel)
        lead = self.load_lead(buf)
        self.write(regs, lead)
        w = self._wide(buf)
        if w is not None:
            if count == 1:
                self.emit(f"copyto({self.rv(regs[0], True)}, {w}[{cf}])")
            elif type(dsel) is slice:
                self.emit(f"copyto({self.bank(dsel.start, dsel.stop, True, lead)}"
                          f", {w}[{cf}:{cf + count}])")
            else:
                self.emit(f"{self.cut(lead, True)}[{self.K(dsel)}] = "
                          f"{w}[{cf}:{cf + count}]")
            return
        view = f"{self.mc(buf)}[..., {cf}:{cf + count * self.vb}]"
        if count == 1:
            self.emit(f"copyto({self.rv(regs[0], True)}, {view})")
            return
        view = (f"{view}.reshape({self.blead(buf)} + ({count}, {self.vb}))"
                f".transpose({self.need('tr')})")
        if type(dsel) is slice:
            self.emit(f"copyto({self.cut(lead, True)}[{dsel.start}:"
                      f"{dsel.stop}], {view})")
        else:
            self.emit(f"{self.cut(lead, True)}[{self.K(dsel)}] = {view}")

    def _storew(self, cmd) -> None:
        _, ssel, buf, _, _, count, cf = cmd
        regs = _sel_list(ssel)
        w = self._wide(buf)
        if count == 1:
            reg = self.alias.get(regs[0], regs[0])
            dst = (f"{w}[{cf}]" if w is not None
                   else f"{self.mc(buf)}[..., {cf}:{cf + self.vb}]")
            self.emit(f"copyto({dst}, {self.read(reg, True)})")
            return
        self.read_block(regs)
        self.full(regs)
        if w is not None:
            gs = (self.bank(ssel.start, ssel.stop, True)
                  if type(ssel) is slice else f"RC[{self.K(ssel)}]")
            self.emit(f"copyto({w}[{cf}:{cf + count}], {gs})")
            return
        gs = (f"RC[{ssel.start}:{ssel.stop}]" if type(ssel) is slice
              else f"RC[{self.K(ssel)}]")
        self.emit(f"copyto({self.mc(buf)}[..., {cf}:{cf + count * self.vb}]"
                  f".reshape({self.need('lead')} + ({count}, {self.vb})), "
                  f"{gs}.transpose({self.need('tm')}))")

    def _outer(self, aids, bids, n) -> "tuple[str, int, int] | None":
        """When the members' products form one outer product of two
        consecutive register blocks: the broadcast operands and the
        ``(q, p)`` shape of the products; else None."""
        op = _outer_product(aids, bids, n)
        if op is None:
            return None
        p, a0, q, b0 = op
        ablk, bblk = list(range(a0, a0 + p)), list(range(b0, b0 + q))
        self.read_block(ablk + bblk)
        av = self.bank(a0, a0 + p, buf=self.block(ablk))
        bv = self.bank(b0, b0 + q, buf=self.block(bblk))
        return f"{self.v(av + '[None]')}, {self.v(bv + '[:, None]')}", q, p

    def _macc(self, cmd) -> None:
        _, dsel, aids, bids, neg, n = cmd
        fn = "sub" if neg else "add"
        s0 = self.stack(n)
        outer = self._outer(aids, bids, n) if n > 1 else None
        if outer is not None:
            ops, q, p = outer
            self.emit(f"mul({ops}, out={self.prods(n, q, p)})")
            self.stats["batched_macc"] += 1
        else:
            for x in range(n):
                self.emit(f"mul({self.val(aids[x])}, {self.val(bids[x])}, "
                          f"out={self.v(f'{s0}[{x}]')})")
            self.stats["scalar_macc"] += 1
        dregs = _sel_list(dsel)
        self.read_block(dregs)
        self.full(dregs)
        self.write(dregs)
        if type(dsel) is slice:
            acc = self.bank(dsel.start, dsel.stop)
            self.emit(f"{fn}({acc}, {self.prods(n)}, out={acc})")
            return
        sel = self.K(dsel)
        self.emit(f"acc = take(R, {sel}, axis=0, out={self.need('s1')}[:{n}], "
                  "mode='clip')")
        self.emit(f"{fn}(acc, {self.prods(n)}, out=acc)")
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
                and not set(dsts) & (set(aids) | set(bids))):
            outer = self._outer(aids, bids, n)
            if outer is not None:
                ops, q, p = outer
                self.write(dsts)
                out = self.v(f"{self.bank(dsts[0], dsts[0] + n)}"
                             f".reshape({q}, {p}, *{self.need('sh')})")
                self.emit(f"mul({ops}, out={out})")
                self.stats["batched_runs"] += 1
                return j
        _, d, a, b = cmds[i]
        av, bv = self.val(a), self.val(b)
        self.write([d])
        self.emit(f"mul({av}, {bv}, out={self.r(d)})")
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
        if n >= BATCH_MIN and not set(dsts) & set(srcs):
            self.read_block(srcs + dsts)
            self.full(srcs + dsts)
            sblk = self.bank(srcs[0], srcs[0] + n)
            self.write(dsts)
            dblk, prods = self.bank(dsts[0], dsts[0] + n), self.prods(n)
            self.emit(f"mul({sblk}, {self.K(imm)}, out={prods})")
            self.emit(f"add({dblk}, {prods}, out={dblk})")
            self.stats["batched_runs"] += 1
            return j
        _, d, a, imm = cmd
        av, dv = self.val(a), self.val(d)
        self.write([d])
        self.emit(f"mul({av}, {self.K(imm)}, out=T)")
        self.emit(f"add({dv}, T, out={self.r(d)})")
        return i + 1

    def _command(self, cmds: "list[tuple]", i: int) -> int:
        cmd = cmds[i]
        k = cmd[0]
        self.at = i
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
            av, bv, dv = self.val(a), self.val(b), self.val(d)
            self.write([d])
            self.emit(f"mul({av}, {bv}, out=T)")
            self.emit(f"{'add' if k == K_FMLA else 'sub'}({dv}, T, "
                      f"out={self.r(d)})")
        elif k == K_FMULI:
            _, d, a, imm = cmd
            av = self.val(a)
            self.write([d])
            self.emit(f"mul({av}, {self.K(imm)}, out={self.r(d)})")
        elif k == K_VZERO:
            self.write([cmd[1]])
            self.emit(f"{self.r(cmd[1])}.fill(0.0)")
        elif k == K_VMOV:
            _, d, s = cmd
            src = self.alias.get(s, s)
            if src != d:
                self.write([d])
                self.alias[d] = src
                self.stats["propagated_moves"] += 1
        else:  # pragma: no cover - lowering emits only these kinds
            raise ExecutionError(f"unknown compiled command kind {k}")
        return i + 1

    # -- assembly ------------------------------------------------------

    def build(self) -> "tuple[str, list, dict]":
        i = 0
        while i < len(self.stream):
            i = self._command(self.stream, i)
        head = ["def run(M, F, R, T, K, MC, RC):"]
        head.extend(f"    c{j} = MC[{buf!r}]" for buf, j in self.bufs.items())
        head.extend(f"    r{reg} = F[{reg}]" for reg in sorted(self.regs))
        if self.needs & {"sh", "lead", "tr", "tm"}:
            head.append("    sh = R.shape[1:]")
            head.append("    lead = sh[:-1]")
        if self.needs & {"tr", "tm"}:
            head.append("    tr, tm = AX[len(lead)]")
        if "s0" in self.needs:
            head.append("    s0 = K[0]")
        if "s1" in self.needs:
            head.append("    s1 = K[1]")
        head.extend(f"    {name} = {expr}" for expr, name in self.views.items())
        source = "\n".join(head + (self.body or ["    pass"])) + "\n"
        return source, self.consts, {"stack_need": self.stack_need,
                                     "stats": dict(self.stats)}


def generate_source(stream: "list[tuple]", lanes: int,
                    ew: int) -> "tuple[str, list, dict]":
    """Generate the program source for one ``wave_form`` stream.

    Pure and deterministic: the same stream always yields byte-identical
    source (the determinism test relies on it).  Returns ``(source,
    consts, meta)``: ``consts`` is the immediate/selector pool the code
    indexes as ``C[i]``, ``meta`` the stack depth and emission stats
    (``hoisted_loads``: the loads that write at their buffer's own
    lead).  Regenerates, with more loads at the full lead, until no
    read needs a full-lead value a load gave a shorter lead.
    """
    demoted: "frozenset[int]" = frozenset()
    while True:
        gen = _Gen(stream, lanes, ew, demoted)
        out = gen.build()
        if not gen.conflicts:
            return out
        demoted |= gen.conflicts


@dataclass(frozen=True)
class Program:
    """One stream's generated function, called as ``fn(mats, rfile,
    rbank, scratch, stacks, matsC, rbankC)`` — the replay loop's inputs
    without the commands."""

    fn: Callable
    source: str
    stack_need: int               # macro-op stack rows the code uses
    stats: dict = field(default_factory=dict)


class ProgramMemo:
    """Bounded, thread-safe LRU.  An engine keeps two: generated
    programs keyed by stream (see :func:`bind_programs`), and lowering
    templates keyed by call binding (see
    :mod:`repro.runtime.lowering`), whose per-program passes live in
    its :attr:`passes` companion.  Generate and evict totals are plain
    ints."""

    def __init__(self, maxsize: int = MEMO_SIZE) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self.lock = threading.RLock()
        self.generated = 0
        self.evictions = 0
        self._passes: "ProgramMemo | None" = None

    @property
    def passes(self) -> "ProgramMemo":
        """A companion LRU of the same bound, made on first use: what
        this memo's entries are built from (the lowering's per-program
        passes, beside its templates)."""
        with self.lock:
            if self._passes is None:
                self._passes = ProgramMemo(self.maxsize)
            return self._passes

    def get(self, key: tuple):
        with self.lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: tuple, value) -> None:
        with self.lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)


def compile_program(stream: "list[tuple]", lanes: int, ew: int) -> Program:
    """Generate and byte-compile one stream's program (no memo)."""
    t0 = time.perf_counter()
    source, consts, meta = generate_source(stream, lanes, ew)
    code = compile(source, "<fused program>", "exec")
    ns = {"C": tuple(consts), "AX": _AXES, "mul": np.multiply,
          "add": np.add, "sub": np.subtract, "copyto": np.copyto,
          "take": np.take}
    exec(code, ns)                      # noqa: S102 - our own codegen
    stats = dict(meta["stats"], loc=source.count("\n"),
                 compile_ms=(time.perf_counter() - t0) * 1e3)
    return Program(fn=ns["run"], source=source,
                   stack_need=meta["stack_need"], stats=stats)


@dataclass(frozen=True)
class PlanPrograms:
    """One lowered plan's programs, per template (None: that stream
    replays), and ``stats["loc"]``: the source lines generated when
    they were bound (0 where every stream already had a program)."""

    programs: "tuple[Program | None, ...]"
    stats: dict

    @property
    def complete(self) -> bool:
        return all(p is not None for p in self.programs)


def _keys(compiled: CompiledPlan) -> "list[tuple]":
    return [(compiled.lanes, tpl.program_key) for tpl in compiled.templates]


def ensure_program(compiled: CompiledPlan,
                   memo: ProgramMemo) -> PlanPrograms:
    """The plan's programs, generating (under the memo's lock, so
    concurrent executes generate each once) every stream ``memo`` has
    no program for — the one code-generation entry point."""
    bound = compiled.programs
    if bound is not None and bound.complete:
        return bound
    with memo.lock:
        progs, loc = [], 0
        for key, tpl in zip(_keys(compiled), compiled.templates):
            prog = memo.get(key)
            if prog is None:
                stream = tpl.wave_form[0]
                with obs.span("fused.codegen", commands=len(stream)):
                    prog = compile_program(stream, compiled.lanes, tpl.ew)
                memo.put(key, prog)
                memo.generated += 1
                loc += prog.stats["loc"]
                obs.count("fused.codegen.programs")
                obs.count("fused.codegen.loc", prog.stats["loc"])
            progs.append(prog)
        bound = compiled.programs = PlanPrograms(tuple(progs), {"loc": loc})
    return bound


def bind_programs(compiled: CompiledPlan, memo: ProgramMemo) -> None:
    """Count one execute of ``compiled`` and bind its programs by the
    tier rule in the module docstring: from the second execute on (or
    once every stream has a program) through :func:`ensure_program`;
    on a first execute only the programs ``memo`` already holds."""
    with memo.lock:                 # concurrent executes of one plan
        compiled.runs += 1
        runs = compiled.runs
    bound = compiled.programs
    if runs >= 2 or (bound is not None and bound.complete):
        ensure_program(compiled, memo)
    elif len(memo):
        progs = tuple(memo.get(key) for key in _keys(compiled))
        if any(progs):
            compiled.programs = PlanPrograms(progs, {"loc": 0})
