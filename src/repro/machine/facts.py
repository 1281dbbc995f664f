"""Per-machine opcode facts: one table every instruction consumer reads.

The scheduler (:mod:`repro.codegen.optimizer`), the kernel validator
(:mod:`repro.codegen.validate`) and the scoreboard
(:class:`repro.machine.pipeline.PipelineModel`) all need the same static
facts about an instruction: its issue class, how it touches memory,
whether it reads its own destination, when its result is ready, and how
many FP ops of its element width may issue per cycle.  They depend only
on the opcode, the element width and the machine's issue rules and
latencies, so :func:`opcode_facts` computes them once per machine and
every consumer looks them up by ``(op, ew)`` instead of re-deriving
them per instruction.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from .isa import Op, OpClass, iclass_of

if TYPE_CHECKING:                      # pragma: no cover - typing only
    from .pipeline import IssueRules, Latencies

__all__ = ["OpFacts", "opcode_facts", "LOAD", "STORE", "PREFETCH", "ADDI",
           "OTHER"]

# Memory kinds (``OpFacts.kind``).
LOAD, STORE, PREFETCH, ADDI, OTHER = range(5)

_KIND = {OpClass.MEM_LOAD: LOAD, OpClass.MEM_STORE: STORE,
         OpClass.PREFETCH: PREFETCH}

_ACCUMULATES = (Op.FMLA, Op.FMLS, Op.FMAI)


class OpFacts(NamedTuple):
    """Static facts of one ``(op, ew)`` on one machine."""

    iclass: OpClass
    kind: int                  # LOAD, STORE, PREFETCH, ADDI or OTHER
    is_mem: bool               # takes a memory slot (loads, stores, PRFM)
    is_fp: bool                # takes an FP slot (FP and FDIV)
    is_int: bool               # takes a scalar-ALU slot
    fp_cap: int                # FP ops per cycle at this element width
    accumulates: bool          # reads its destination (FMLA/FMLS/FMAI)
    latency: int               # issue to result ready; loads at L1 load-use
    div_block: Optional[int]   # cycles an FDIV holds the FP pipe, else None


def _latency(op: Op, kind: int, ew: int, lat: "Latencies") -> int:
    if kind == LOAD:
        return lat.load_use
    if op in _ACCUMULATES:
        return lat.fp_ma
    if op in (Op.FMUL, Op.FMULI):
        return lat.fp_mul
    if op in (Op.FADD, Op.FSUB, Op.VZERO, Op.VMOV, Op.FIMM):
        return lat.fp_add
    if op is Op.FDIV:
        return lat.fp_div32 if ew == 4 else lat.fp_div64
    if op is Op.ADDI:
        return lat.int_alu
    return 1                   # stores, PRFM, NOP


@lru_cache(maxsize=None)
def opcode_facts(rules: "IssueRules",
                 lat: "Latencies") -> Mapping[tuple[Op, int], OpFacts]:
    """The facts of every ``(op, ew)`` under one machine's issue rules
    and latencies, keyed by ``(op, ew)`` for ``ew`` in (4, 8).

    Built once per distinct ``(rules, lat)`` and shared read-only by
    every caller in the process."""
    table = {}
    for op in Op:
        icls = iclass_of(op)
        kind = ADDI if op is Op.ADDI else _KIND.get(icls, OTHER)
        for ew in (4, 8):
            table[op, ew] = OpFacts(
                iclass=icls,
                kind=kind,
                is_mem=kind in (LOAD, STORE, PREFETCH),
                is_fp=icls in (OpClass.FP, OpClass.FP_DIV),
                is_int=icls is OpClass.INT,
                fp_cap=rules.max_fp(ew),
                accumulates=op in _ACCUMULATES,
                latency=_latency(op, kind, ew, lat),
                div_block=lat.div_block(ew) if op is Op.FDIV else None)
    return MappingProxyType(table)
