"""Static kernel validation: catch codegen bugs before execution.

Generated kernels are straight-line and self-contained, which makes
strong static checks cheap.  The registry runs these on every kernel it
caches, so a template bug surfaces as a loud `CodegenError` naming the
kernel and the defect rather than as garbage numerics three layers up.

Checks:

* **def-before-use** — every vector register read (including FMA
  accumulators) must have been written earlier in the program;
* **register budget** — no register index at or above the machine's
  file size;
* **pointer discipline** — memory ops only through known pointers: the
  registers the engine initializes (PA, PB, the PC(j) family, and the
  TRSM store alias PX), plus any register an ADDI derives from a known
  pointer (``add x20, x0, #64`` makes x20 known); an ADDI whose source
  is not known is a defect;
* **dead stores of uninitialized data** never occur (implied by
  def-before-use on store sources);
* **immediate sanity** — FMAI/FMULI immediates are finite.

Each defect reads ``@pc (asm): what``.  The disassembly is formatted
only for instructions that have a defect, so a valid kernel costs one
table lookup per instruction (the machine's shared
:func:`~repro.machine.facts.opcode_facts`), not one ``asm()`` each.
"""

from __future__ import annotations

import math

from ..errors import CodegenError
from ..machine.facts import opcode_facts
from ..machine.isa import Op
from ..machine.machines import MachineConfig
from ..machine.program import Program
from . import regs
from .templates_trsm import PX

__all__ = ["validate_kernel", "KNOWN_POINTERS"]

KNOWN_POINTERS = frozenset(
    {regs.PA, regs.PB, PX} | {regs.pc(j) for j in range(8)})


def validate_kernel(program: Program, machine: MachineConfig) -> list[str]:
    """Return a list of defect descriptions (empty = kernel is valid)."""
    facts = opcode_facts(machine.rules, machine.lat)
    nv = machine.num_vregs
    found: list[tuple[int, str]] = []      # (pc, defect), formatted below
    written: set[int] = set()
    xinit: set[int] = set(KNOWN_POINTERS)
    for pc, ins in enumerate(program.instrs):
        op, dst, srcs = ins.op, ins.dst, ins.srcs
        for r in dst + srcs:
            if r >= nv:
                found.append((pc, f"v{r} exceeds the machine's "
                                  f"{nv}-register file"))
        for r in (srcs + dst if facts[op, ins.ew].accumulates else srcs):
            if r not in written:
                found.append((pc, f"v{r} read before any write"))
        if ins.base is not None and ins.base not in xinit:
            found.append((pc, f"memory access through unknown "
                              f"pointer x{ins.base}"))
        if op is Op.ADDI:
            if ins.xsrc not in xinit:
                found.append((pc, f"ADDI reads unknown x{ins.xsrc}"))
            else:
                xinit.add(ins.xdst)
        elif (op is Op.FMAI or op is Op.FMULI) and not math.isfinite(ins.imm):
            found.append((pc, f"non-finite immediate {ins.imm}"))
        written.update(dst)
    instrs = program.instrs
    return [f"@{pc} ({instrs[pc].asm()}): {what}" for pc, what in found]


def assert_valid(program: Program, machine: MachineConfig) -> Program:
    """Raise :class:`CodegenError` on the first validation failure."""
    issues = validate_kernel(program, machine)
    if issues:
        raise CodegenError(
            f"kernel {program.name} failed validation:\n  "
            + "\n  ".join(issues[:10]))
    return program
