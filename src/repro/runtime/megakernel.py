"""Generated code for the ``fused`` executor: one program per template.

``fused`` replays each wave of a lowered plan by interpreting its
template's ``wave_form`` stream command by command, so per-command
Python dispatch is what a small batch pays for.  This module removes
that dispatch for streams that run again: the stream is turned *once*
into straight-line NumPy source, byte-compiled with ``compile()``/
``exec``, and called in place of the interpreted replay with the same
inputs as :meth:`~repro.runtime.backends.FusedBackend._replay` — the
pass views of one wave and the register bank.  The source keeps the
replay's exact operation set (per-member multiplies, then one
elementwise accumulate; copies stay copies), so results are
bit-identical to ``interpret``; what changes is how many ufunc calls and
how much Python runs per command:

* no dispatch: every command is already resolved to its ufunc calls,
  and each register, register block and buffer view the commands share
  is a local computed once per call;
* copy propagation: ``K_VMOV`` emits nothing — the destination reads its
  source register until either is overwritten;
* batched forms: a ``K_MACC`` with the microkernel's outer-product
  operands, and runs of ``K_FMUL``/``K_FMAI``, compile to one broadcast
  ufunc over ``(q, p, ...)`` register blocks.

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
from .lowering import (K_FADD, K_FDIV, K_FIMM, K_FMAI, K_FMLA, K_FMLS,
                       K_FMUL, K_FMULI, K_FSUB, K_LOAD, K_LOAD1R, K_LOAD2,
                       K_LOAD_PART, K_LOADPAIR, K_LOADW, K_MACC, K_STORE,
                       K_STORE2, K_STOREPAIR, K_STOREW, K_VMOV, K_VZERO,
                       CompiledPlan)

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
    every pass shape (groups, calls x groups, rows x cols x groups)."""

    def __init__(self, stream: "list[tuple]", lanes: int, ew: int) -> None:
        self.stream = stream
        self.lanes = lanes
        self.vb = (lanes * ew) // 16 if (lanes * ew) % 16 == 0 else 0
        self.consts: list = []
        self.alias: "dict[int, int]" = {}   # register -> register it copies
        self.body: "list[str]" = []
        self.regs: "set[int]" = set()
        self.bufs: "dict[str, int]" = {}
        self.plain: "set[str]" = set()
        self.wide: "set[str]" = set()
        self.needs: "set[str]" = set()
        self.views: "dict[str, str]" = {}   # hoisted expression -> name
        self.stack_need = 0
        self.stats = {"commands": len(stream), "batched_macc": 0,
                      "scalar_macc": 0, "batched_runs": 0,
                      "propagated_moves": 0}

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

    def val(self, reg: int) -> str:
        """Where the register's current value lives (a read)."""
        return self.r(self.alias.get(reg, reg))

    def m(self, buf: str) -> str:
        self.plain.add(buf)
        return f"m{self.bufs.setdefault(buf, len(self.bufs))}"

    def mc(self, buf: str) -> str:
        self.wide.add(buf)
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

    def bank(self, lo: int, hi: int, wide: bool = False) -> str:
        return self.v(f"{'RC' if wide else 'R'}[{lo}:{hi}]")

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
        return self.v(f"{self.mc(buf)}.reshape({self.need('lead')} + (-1, 1))"
                      f".transpose({self.need('tr')})")

    # -- copy propagation ----------------------------------------------

    def read_block(self, regs: "list[int]") -> None:
        """Registers about to be read through a bank slice or gather
        must hold their own values."""
        for reg in regs:
            src = self.alias.pop(reg, None)
            if src is not None:
                self.emit(f"copyto({self.r(reg)}, {self.r(src)})")

    def write(self, regs: "list[int]") -> None:
        """Registers about to be overwritten: every alias still reading
        one of them takes its own copy first, and their own aliases end."""
        for reg in regs:
            for d in [d for d, s in self.alias.items() if s == reg]:
                del self.alias[d]
                self.emit(f"copyto({self.r(d)}, {self.r(reg)})")
            self.alias.pop(reg, None)

    # -- per-command emission ------------------------------------------

    def _loadw(self, cmd) -> None:
        _, dsel, buf, first, n, count, cf = cmd
        regs = _sel_list(dsel)
        self.write(regs)
        w = self._wide(buf) if cf >= 0 else None
        if w is not None:
            if count == 1:
                self.emit(f"copyto(RC[{regs[0]}], {w}[{cf}])")
            elif type(dsel) is slice:
                self.emit(f"copyto({self.bank(dsel.start, dsel.stop, True)}"
                          f", {w}[{cf}:{cf + count}])")
            else:
                self.emit(f"RC[{self.K(dsel)}] = {w}[{cf}:{cf + count}]")
            return
        # cf >= 0: both sides as 16-byte units (complex128 views)
        src, bank, width, start = ((self.mc(buf), "RC", self.vb, cf)
                                   if cf >= 0 else
                                   (self.m(buf), "R", n, first))
        view = f"{src}[..., {start}:{start + count * width}]"
        if count == 1:
            dst = f"RC[{regs[0]}]" if cf >= 0 else self.r(regs[0])
            self.emit(f"copyto({dst}, {view})")
            return
        view = (f"{view}.reshape({self.need('lead')} + ({count}, {width}))"
                f".transpose({self.need('tr')})")
        if type(dsel) is slice:
            self.emit(f"copyto({bank}[{dsel.start}:{dsel.stop}], {view})")
        else:
            self.emit(f"{bank}[{self.K(dsel)}] = {view}")

    def _storew(self, cmd) -> None:
        _, ssel, buf, first, n, count, cf = cmd
        regs = _sel_list(ssel)
        w = self._wide(buf) if cf >= 0 else None
        if w is not None:
            if count == 1:
                reg = self.alias.get(regs[0], regs[0])
                self.emit(f"copyto({w}[{cf}], RC[{reg}])")
                return
            self.read_block(regs)
            gs = (self.bank(ssel.start, ssel.stop, True)
                  if type(ssel) is slice else f"RC[{self.K(ssel)}]")
            self.emit(f"copyto({w}[{cf}:{cf + count}], {gs})")
            return
        if cf >= 0:
            dst = f"{self.mc(buf)}[..., {cf}:{cf + count * self.vb}]"
            if count == 1:
                reg = self.alias.get(regs[0], regs[0])
                self.emit(f"copyto({dst}, RC[{reg}])")
                return
            self.read_block(regs)
            gs = (f"RC[{ssel.start}:{ssel.stop}]" if type(ssel) is slice
                  else f"RC[{self.K(ssel)}]")
            self.emit(f"copyto({dst}.reshape({self.need('lead')} + ({count}, "
                      f"{self.vb})), {gs}.transpose({self.need('tm')}))")
            return
        self.read_block(regs)
        if type(ssel) is slice:
            gs = self.bank(ssel.start, ssel.stop)
        else:
            gs = (f"take(R, {self.K(ssel)}, axis=0, "
                  f"out={self.stack(count)}[:{count}])")
        self.emit(f"copyto({self.m(buf)}[..., {first}:{first + count * n}]"
                  f".reshape({self.need('lead')} + ({count}, {n})), "
                  f"{gs}[..., :{n}].transpose({self.need('tm')}))")

    def _outer(self, aids, bids, n) -> "tuple[str, int, int] | None":
        """When the members' products form one outer product of two
        consecutive register blocks: the broadcast operands and the
        ``(q, p)`` shape of the products; else None."""
        op = _outer_product(aids, bids, n)
        if op is None:
            return None
        p, a0, q, b0 = op
        self.read_block(list(range(a0, a0 + p)) + list(range(b0, b0 + q)))
        return (f"{self.v(self.bank(a0, a0 + p) + '[None]')}, "
                f"{self.v(self.bank(b0, b0 + q) + '[:, None]')}", q, p)

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
        self.write(dregs)
        if type(dsel) is slice:
            acc = self.bank(dsel.start, dsel.stop)
            self.emit(f"{fn}({acc}, {self.prods(n)}, out={acc})")
            return
        sel = self.K(dsel)
        self.emit(f"acc = take(R, {sel}, axis=0, out={self.need('s1')}[:{n}])")
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
            self.write(dsts)
            dblk, prods = self.bank(dsts[0], dsts[0] + n), self.prods(n)
            self.emit(f"mul({self.bank(srcs[0], srcs[0] + n)}, "
                      f"{self.K(imm)}, out={prods})")
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
        elif k in (K_FADD, K_FSUB, K_FDIV):
            _, d, a, b = cmd
            av, bv = self.val(a), self.val(b)
            self.write([d])
            fn = {K_FADD: "add", K_FSUB: "sub", K_FDIV: "div"}[k]
            self.emit(f"{fn}({av}, {bv}, out={self.r(d)})")
        elif k == K_FMULI:
            _, d, a, imm = cmd
            av = self.val(a)
            self.write([d])
            self.emit(f"mul({av}, {self.K(imm)}, out={self.r(d)})")
        elif k == K_LOAD:
            _, d, buf, first, n = cmd
            self.write([d])
            self.emit(f"copyto({self.r(d)}, "
                      f"{self.m(buf)}[..., {first}:{first + n}])")
        elif k == K_LOAD1R:
            _, d, buf, first = cmd
            self.write([d])
            self.emit(f"copyto({self.r(d)}, "
                      f"{self.m(buf)}[..., {first}:{first + 1}])")
        elif k == K_LOADPAIR:
            _, d1, d2, buf, first, n = cmd
            self.write([d1, d2])
            mv = self.m(buf)
            self.emit(f"copyto({self.r(d1)}, {mv}[..., {first}:{first + n}])")
            self.emit(f"copyto({self.r(d2)}, "
                      f"{mv}[..., {first + n}:{first + 2 * n}])")
        elif k in (K_LOAD_PART, K_LOAD2):
            # partial vectors: zero tail, then the n elements (LOAD2
            # de-interleaves even/odd elements into two registers)
            if k == K_LOAD_PART:
                _, d, buf, first, n = cmd
                parts = [(d, f"{first}:{first + n}")]
            else:
                _, de, do, buf, first, n = cmd
                parts = [(de, f"{first}:{first + 2 * n}:2"),
                         (do, f"{first + 1}:{first + 2 * n}:2")]
            self.write([d for d, _ in parts])
            for d, cols in parts:
                if n < self.lanes:
                    self.emit(f"{self.r(d)}[..., {n}:] = 0.0")
                self.emit(f"{self.r(d)}[..., :{n}] = "
                          f"{self.m(buf)}[..., {cols}]")
        elif k == K_STORE:
            _, s, buf, first, n = cmd
            self.emit(f"copyto({self.m(buf)}[..., {first}:{first + n}], "
                      f"{self.val(s)}[..., :{n}])")
        elif k == K_STOREPAIR:
            _, s1, s2, buf, first, n = cmd
            mv = self.m(buf)
            self.emit(f"copyto({mv}[..., {first}:{first + n}], "
                      f"{self.val(s1)})")
            self.emit(f"copyto({mv}[..., {first + n}:{first + 2 * n}], "
                      f"{self.val(s2)})")
        elif k == K_STORE2:
            _, se, so, buf, first, n = cmd
            mv = self.m(buf)
            self.emit(f"copyto({mv}[..., {first}:{first + 2 * n}:2], "
                      f"{self.val(se)}[..., :{n}])")
            self.emit(f"copyto({mv}[..., {first + 1}:{first + 2 * n}:2], "
                      f"{self.val(so)}[..., :{n}])")
        elif k == K_VZERO:
            self.write([cmd[1]])
            self.emit(f"{self.r(cmd[1])}.fill(0.0)")
        elif k == K_FIMM:
            self.write([cmd[1]])
            self.emit(f"{self.r(cmd[1])}.fill({self.K(cmd[2])})")
        elif k == K_VMOV:
            _, d, s = cmd
            src = self.alias.get(s, s)
            if src != d:
                self.write([d])
                self.alias[d] = src
                self.stats["propagated_moves"] += 1
        else:  # pragma: no cover - lowering emits only known kinds
            raise ExecutionError(f"unknown compiled command kind {k}")
        return i + 1

    # -- assembly ------------------------------------------------------

    def build(self) -> "tuple[str, list, dict]":
        i = 0
        while i < len(self.stream):
            i = self._command(self.stream, i)
        head = ["def run(M, F, R, T, K, MC, RC):"]
        for buf, j in self.bufs.items():
            if buf in self.plain:
                head.append(f"    m{j} = M[{buf!r}]")
            if buf in self.wide:
                head.append(f"    c{j} = MC[{buf!r}]")
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
    indexes as ``C[i]``, ``meta`` the stack depth and emission stats.
    """
    return _Gen(stream, lanes, ew).build()


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
    ns = {"np": np, "C": tuple(consts), "AX": _AXES, "mul": np.multiply,
          "add": np.add, "sub": np.subtract, "div": np.divide,
          "copyto": np.copyto, "take": np.take}
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
