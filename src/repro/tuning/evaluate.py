"""Candidate measurement for the install-time sweep.

The primary metric is the machine simulator's cycle model
(:meth:`repro.runtime.engine.Engine.time_plan`): deterministic, exact,
and the same model the analytic planner is judged by, so tuned and
analytic selections are compared on identical terms.  Optionally a
candidate is *also* replayed for wall-clock time on the default
executor backend over a small random batch — host-time provenance for the DB, never the
selection metric (host timing is noisy; the cycle model is the
simulated silicon).

``repeats`` governs the wall-clock path only (best of ``repeats``
replays, which genuinely reduces variance).  The cycle model is
deterministic, so each candidate is timed on it exactly once however
many repeats were asked for; the record still stamps ``repeats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..codegen.registry import KernelRegistry
from ..machine.machines import MachineConfig
from ..runtime.backends import DEFAULT_BACKEND
from ..runtime.engine import Engine
from ..runtime.lowering import lower_plan
from ..runtime.plan import ExecutionPlan, build_gemm_plan, build_trsm_plan
from ..types import GemmProblem, TrsmProblem
from .space import Candidate

__all__ = ["Measurement", "Evaluator", "EVALUATOR_VERSION"]

EVALUATOR_VERSION = 1
"""Measurement-procedure version stamped into record provenance: bump
when the metric itself changes (what is timed, how repeats aggregate),
so fleet merges can tell records measured under different rules apart.
v1 = cycle-model cycles (deterministic, so one timing equals the median
of any number of samples), best-of-repeats wall clock."""

WALL_CLOCK_BATCH_CAP = 512
"""Wall-clock replays cap the batch: host time scales linearly with
groups, so a small batch ranks candidates just as well."""


@dataclass(frozen=True)
class Measurement:
    """One candidate's measured cost."""

    cycles: float                 # simulated, whole batch (the metric)
    gflops: float
    repeats: int
    wall_seconds: "float | None" = None


class Evaluator:
    """Builds and measures candidate plans for one machine.

    Holds one :class:`KernelRegistry`, so repeated evaluations share
    generated kernels, and one timing engine (timing is
    backend-independent, so a single engine serves every candidate).
    A candidate's ``schedule`` bit only selects the order its plan is
    timed in, so both variants share every kernel and every schedule.
    """

    def __init__(self, machine: MachineConfig, *, repeats: int = 1,
                 wall_clock: bool = False, rng_seed: int = 20220829) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.machine = machine
        self.repeats = repeats
        self.wall_clock = wall_clock
        self.registry = KernelRegistry(machine)
        self._engine = Engine(machine)
        self._rng_seed = rng_seed

    # -- plan construction ------------------------------------------------

    def build_plan(self, problem, cand: Candidate) -> ExecutionPlan:
        """The exact plan the run-time stage would build for this
        candidate's decisions — same builders, same arguments, which is
        what makes a reloaded DB reproduce decisions bit-identically."""
        if isinstance(problem, GemmProblem):
            return build_gemm_plan(problem, self.machine, self.registry,
                                   force_pack=cand.force_pack,
                                   main_override=cand.main,
                                   schedule=cand.schedule)
        if isinstance(problem, TrsmProblem):
            return build_trsm_plan(problem, self.machine, self.registry,
                                   force_pack=cand.force_pack,
                                   schedule=cand.schedule)
        raise TypeError(f"cannot tune {type(problem).__name__}")

    # -- measurement ------------------------------------------------------

    def evaluate(self, problem, cand: Candidate) -> Measurement:
        """Measure one candidate: one cycle-model timing (deterministic,
        so repeating it would only repeat the number) plus, with
        ``wall_clock``, a best-of-``repeats`` host replay."""
        with obs.span("tuning.evaluate", candidate=cand.label):
            plan = self.build_plan(problem, cand)
            cycles = self._engine.time_plan(plan).total_cycles
            gflops = self.machine.gflops(problem.flops, cycles)
            wall = (self._wall_run(problem, cand) if self.wall_clock
                    else None)
        obs.count("tuning.eval.candidates")
        return Measurement(cycles=cycles, gflops=gflops,
                           repeats=self.repeats, wall_seconds=wall)

    def drift(self, problem, cand: "Candidate | None" = None
              ) -> "dict[str, dict]":
        """Cycle-model prediction vs wall-clock replay on the default
        backend.

        Both sides run the *same* capped-batch problem the wall replay
        uses (host time scales linearly with groups, so capping keeps
        the check cheap without changing the ratio).  Returns
        ``{"fused": {"predicted_seconds", "wall_seconds", "ratio"}}``;
        the ratio (wall / predicted) is the model-drift figure the
        profiler reports — host-dependent, so it is provenance, never a
        selection metric.
        """
        if cand is None:
            cand = Candidate(main=None)
        p = problem.with_batch(min(problem.batch, WALL_CLOCK_BATCH_CAP))
        predicted = self._engine.time_plan(self.build_plan(p, cand)).seconds
        wall = self._wall_run(problem, cand)
        return {DEFAULT_BACKEND: {
            "predicted_seconds": predicted, "wall_seconds": wall,
            "ratio": wall / predicted if predicted else 0.0}}

    def _wall_run(self, problem, cand: Candidate) -> float:
        """Best-of-``repeats`` host seconds executing the candidate's
        plan on the default backend over a capped random batch, lowered
        once and warmed twice (``fused`` then runs its generated
        code)."""
        from ..layout.compact import CompactBatch

        dt = problem.dtype
        lanes = self.machine.lanes(dt)
        small = min(problem.batch, WALL_CLOCK_BATCH_CAP)
        rng = np.random.default_rng(self._rng_seed)

        def batch_of(rows: int, cols: int, spd: bool = False) -> CompactBatch:
            mats = rng.uniform(0.1, 1.0, (small, rows, cols))
            if dt.is_complex:
                mats = mats + 1j * rng.uniform(0.1, 1.0, mats.shape)
            if spd:                      # well-conditioned triangular A
                mats = np.tril(mats) + 3.0 * np.eye(rows)
            return CompactBatch.from_matrices(mats.astype(dt.np_dtype),
                                              lanes, dt)

        engine = Engine(self.machine)
        p = problem.with_batch(small)
        small_plan = self.build_plan(p, cand)
        if isinstance(problem, GemmProblem):
            a = batch_of(*p.a_shape)
            b = batch_of(*p.b_shape)
            c = batch_of(*p.c_shape)
            run = lambda: engine.execute_gemm(small_plan, a, b, c,
                                              compiled=compiled)
        else:
            a = batch_of(p.a_dim, p.a_dim, spd=True)
            b = batch_of(*p.b_shape)
            run = lambda: engine.execute_trsm(small_plan, a, b,
                                              compiled=compiled)

        compiled = lower_plan(small_plan, engine.templates)
        run()                            # warm: replay, then codegen
        run()
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        obs.observe("tuning.eval.wall_seconds", best)
        return best
