"""Run-time stage: input-aware plan generation and execution (Section 5).

Given the input matrix properties, the batch counter sizes batch rounds
to keep working sets L1-resident, the pack selector picks packing or the
no-packing fast path, and the execution-plan generator binds packing and
compute kernels into a command queue.  Plans are then *lowered* once to
a flat command stream (:mod:`.lowering`) and executed by a backend
chosen by name (:mod:`.backends`): the ``interpret`` reference
interpreter or ``fused`` (the default), which runs every lowered plan
as waves of lattice passes over the pass-optimized macro-op streams,
in two tiers — it replays a plan's first execute and runs code
generated per template (:mod:`.megakernel`) once the plan executes
again.  The engine drives either and times plans on the
pipeline model.
"""

from .batch_counter import groups_per_round
from .plan import ExecutionPlan, KernelCall, BufferSpec, build_gemm_plan, build_trsm_plan
from .lowering import CompiledPlan, CompiledCommand, BufferLayout, lower_plan
from .backends import (InterpretBackend, FusedBackend, BACKENDS,
                       DEFAULT_BACKEND, resolve_backend)
from .engine import Engine, PlanTiming
from .iatf import IATF, PlanCache

__all__ = [
    "groups_per_round", "ExecutionPlan", "KernelCall", "BufferSpec",
    "build_gemm_plan", "build_trsm_plan", "Engine", "PlanTiming", "IATF",
    "PlanCache", "CompiledPlan", "CompiledCommand", "BufferLayout",
    "lower_plan", "InterpretBackend", "FusedBackend",
    "BACKENDS", "DEFAULT_BACKEND", "resolve_backend",
]
