"""Simulated ARMv8-like machine substrate.

The paper's kernels are hand-scheduled NEON assembly; Python cannot run
those natively, so this package provides the closest synthetic equivalent
that exercises the same code path:

* :mod:`repro.machine.isa` — a NEON-subset instruction set (vector loads
  and stores, fused multiply-add/subtract, pointer arithmetic, prefetch).
* :mod:`repro.machine.program` — straight-line kernel containers (the
  paper's kernels are fully unrolled; loops live in the host engine).
* :mod:`repro.machine.memory` / :mod:`executor` — functional execution of
  generated kernels, vectorized over the whole batch with NumPy.
* :mod:`repro.machine.cache` / :mod:`pipeline` — a set-associative cache
  hierarchy and an in-order dual-issue scoreboard that together produce
  deterministic cycle counts (the figure-of-merit for every experiment).
* :mod:`repro.machine.facts` — the per-machine opcode-facts table (issue
  class, memory kind, latency, FP cap) the scheduler, the kernel
  validator and the scoreboard all read.
* :mod:`repro.machine.machines` — concrete configurations reproducing the
  paper's Table 2 (Kunpeng 920 and Intel Xeon Gold 6240).
"""

from .isa import Instr, Op, OpClass, iclass_of
from .program import Program
from .memory import MemorySpace
from .executor import VectorExecutor
from .cache import Cache, CacheHierarchy
from .pipeline import PipelineModel, TimingResult
from .machines import MachineConfig, KUNPENG_920, XEON_GOLD_6240

__all__ = [
    "Instr", "Op", "OpClass", "iclass_of",
    "Program", "MemorySpace", "VectorExecutor",
    "Cache", "CacheHierarchy", "PipelineModel", "TimingResult",
    "MachineConfig", "KUNPENG_920", "XEON_GOLD_6240",
]
