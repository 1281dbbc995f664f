"""Request-scoped latency budgets: where did this request's wall time go?

Counters say the service is busy and histograms say requests are slow;
a :class:`Budget` says *why*: every request entering
:class:`~repro.serve.service.BlasService` carries one, and each stage
of its life stamps a mark as it completes::

    admit -> coalesce_wait -> stack -> plan -> execute -> scatter

Durations are **telescoping** — stage ``i`` is ``mark[i+1] - mark[i]``
and the end-to-end wall is ``mark[last] - mark[first]`` — so the stage
sum equals the total *exactly* (each intermediate mark cancels), the
same discipline as the attribution profiler's largest-remainder
invariant: attributed time == measured time, or the budget is broken
and :meth:`Budget.check` raises :class:`~repro.errors.BudgetError`.
Float addition can still lose the last few ulps when the magnitudes
differ wildly, which is why conservation is asserted to a relative
epsilon instead of ``==``.

A bucket flush serves many requests at once; the scheduler stamps every
entry's budget with the *same* absolute timestamps for the shared
stages (stack/plan/execute/scatter), so per-request conservation holds
while per-request ``coalesce_wait`` still differs (each request joined
the bucket at its own time).

:class:`BudgetLedger` aggregates closed budgets per group (the service
keeps one ledger keyed by tenant and one keyed by coalescing key), and
the service also exports each stage into ``serve.budget.<stage>.ms``
histograms when instrumentation is on.  The ledger itself is always-on
(plain locked floats), like the rest of the service's operator stats.
"""

from __future__ import annotations

import math
import threading
import time

from ..errors import BudgetError

__all__ = ["STAGES", "Budget", "BudgetLedger"]

#: request lifecycle stages, in order.  ``admit`` covers validation +
#: admission + parking in the coalescer; ``coalesce_wait`` ends when the
#: pump starts flushing the bucket; ``stack`` is operand stacking +
#: compact interleave; ``plan`` is plan-cache lookup or compile;
#: ``execute`` is the backend run; ``scatter`` is de-interleave +
#: future fan-out.
STAGES = ("admit", "coalesce_wait", "stack", "plan", "execute", "scatter")

_STAGE_INDEX = {name: i for i, name in enumerate(STAGES)}

#: relative conservation epsilon: the telescoping sum is exact in real
#: arithmetic; float addition may lose a few ulps, never more
EPSILON = 1e-9


class Budget:
    """Per-request stage marks with exact wall-time conservation.

    Stamp stages in order (skipping none); :meth:`stages` yields the
    per-stage seconds, :attr:`total` the end-to-end wall, and
    :meth:`check` enforces that they agree.  ``flags`` carries
    discrete facts discovered along the way (``plan_cache="hit"``,
    ``error=True``) for the post-mortem record.
    """

    __slots__ = ("t0", "_marks", "flags")

    def __init__(self, t0: "float | None" = None) -> None:
        self.t0 = time.perf_counter() if t0 is None else t0
        self._marks: "list[float]" = []
        self.flags: dict = {}

    def stamp(self, stage: str, t: "float | None" = None) -> float:
        """Mark ``stage`` as completed at ``t`` (now by default).

        Stages must arrive in :data:`STAGES` order with no repeats —
        a scheduler bug that stamped out of order would silently
        misattribute time, so it raises instead.  Passing an explicit
        ``t`` is how a bucket flush gives every entry the same shared
        timestamps.  Returns the timestamp used.
        """
        idx = _STAGE_INDEX.get(stage)
        if idx is None:
            raise BudgetError(f"unknown budget stage {stage!r}; "
                              f"stages: {', '.join(STAGES)}")
        if idx != len(self._marks):
            expected = (STAGES[len(self._marks)]
                        if len(self._marks) < len(STAGES) else "nothing")
            raise BudgetError(
                f"budget stage {stage!r} stamped out of order "
                f"(expected {expected!r})")
        if t is None:
            t = time.perf_counter()
        last = self._marks[-1] if self._marks else self.t0
        if t < last:
            # clock marks never go backwards (perf_counter is
            # monotonic); a caller-supplied earlier timestamp would
            # mint negative stage time out of nothing
            t = last
        self._marks.append(t)
        return t

    def annotate(self, **flags) -> None:
        self.flags.update(flags)

    def abort(self, t: "float | None" = None) -> None:
        """Stamp every remaining stage at one instant (zero width) so a
        failed request still closes with exact conservation."""
        if t is None:
            t = time.perf_counter()
        for stage in STAGES[len(self._marks):]:
            self.stamp(stage, t)

    @property
    def closed(self) -> bool:
        return len(self._marks) == len(STAGES)

    @property
    def total(self) -> float:
        """End-to-end wall seconds (0.0 until the first stamp)."""
        return self._marks[-1] - self.t0 if self._marks else 0.0

    def stages(self) -> "dict[str, float]":
        """Per-stage seconds for the stages stamped so far."""
        out: "dict[str, float]" = {}
        prev = self.t0
        for stage, mark in zip(STAGES, self._marks):
            out[stage] = mark - prev
            prev = mark
        return out

    def conservation_error(self) -> float:
        """``|sum(stages) - total|`` — zero in real arithmetic, a few
        ulps at most in floats."""
        return abs(math.fsum(self.stages().values()) - self.total)

    def split(self) -> "tuple[dict[str, float], bool]":
        """:meth:`stages` and whether :meth:`check` passes, from one
        pass over the marks (what a ledger folds)."""
        stages = self.stages()
        err = abs(math.fsum(stages.values()) - self.total)
        bound = EPSILON * max(1.0, self.total)
        return stages, self.closed and not err > bound   # as check()

    def check(self) -> None:
        """Raise :class:`BudgetError` unless the budget is closed and
        its stage sum reproduces the end-to-end wall within epsilon."""
        if not self.closed:
            missing = STAGES[len(self._marks):]
            raise BudgetError(
                f"budget not closed: stages {', '.join(missing)} never "
                f"stamped")
        err = self.conservation_error()
        bound = EPSILON * max(1.0, self.total)
        if err > bound:
            raise BudgetError(
                f"budget conservation violated: stage sum differs from "
                f"end-to-end wall by {err:.3e}s (> {bound:.3e}s)")

    def to_dict(self) -> dict:
        """JSON-able report: per-stage milliseconds, total, flags."""
        return {
            "stages_ms": {s: d * 1e3 for s, d in self.stages().items()},
            "total_ms": self.total * 1e3,
            "flags": dict(self.flags),
        }


class _GroupTotals:
    """Per-group accumulator (internal to :class:`BudgetLedger`)."""

    __slots__ = ("count", "total", "max_total", "stage_totals")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max_total = 0.0
        self.stage_totals = [0.0] * len(STAGES)


class BudgetLedger:
    """Always-on aggregation of closed budgets, per group label.

    The service keeps two: one keyed by tenant, one keyed by coalescing
    key (the problem descriptor) — the input-aware view the paper's
    framing asks for, budgets per problem-signature rather than one
    global blur.  ``max_groups`` bounds cardinality: beyond it new
    groups fold into ``"(other)"`` instead of growing without limit.
    """

    def __init__(self, max_groups: int = 64) -> None:
        if max_groups < 1:
            raise ValueError(f"max_groups must be >= 1, got {max_groups}")
        self.max_groups = int(max_groups)
        self._lock = threading.Lock()
        self._groups: "dict[str, _GroupTotals]" = {}
        self.recorded = 0
        self.violations = 0

    OVERFLOW = "(other)"

    def record(self, group: str, budget: Budget,
               split: "tuple[dict, bool] | None" = None) -> None:
        """Fold one closed budget into ``group``'s totals; ``split`` is
        its :meth:`Budget.split` when the caller already has it.

        A budget that fails its own conservation check is counted in
        ``violations`` (the number an operator alerts on — it should
        stay zero forever) but still aggregated, so the evidence is in
        the totals rather than silently dropped.
        """
        stages, ok = budget.split() if split is None else split
        with self._lock:
            g = self._groups.get(group)
            if g is None:
                if len(self._groups) >= self.max_groups:
                    group = self.OVERFLOW
                    g = self._groups.get(group)
                if g is None:
                    g = self._groups.setdefault(group, _GroupTotals())
            g.count += 1
            g.total += budget.total
            g.max_total = max(g.max_total, budget.total)
            for i, stage in enumerate(STAGES):
                g.stage_totals[i] += stages.get(stage, 0.0)
            self.recorded += 1
            if not ok:
                self.violations += 1

    def summary(self) -> dict:
        """JSON-able per-group stage breakdown in milliseconds.

        Each group reports count, mean/max end-to-end, and per-stage
        totals + the fraction of that group's wall each stage consumed
        (the budget view: "tenant alice spends 60% of her latency in
        coalesce_wait").
        """
        with self._lock:
            items = sorted(self._groups.items())
            recorded, violations = self.recorded, self.violations
            groups = {}
            for name, g in items:
                total = g.total
                groups[name] = {
                    "count": g.count,
                    "total_ms": total * 1e3,
                    "mean_ms": (total / g.count) * 1e3 if g.count else 0.0,
                    "max_ms": g.max_total * 1e3,
                    "stages_ms": {s: g.stage_totals[i] * 1e3
                                  for i, s in enumerate(STAGES)},
                    "stage_share": {s: (g.stage_totals[i] / total
                                        if total > 0 else 0.0)
                                    for i, s in enumerate(STAGES)},
                }
        return {"recorded": recorded, "violations": violations,
                "groups": groups}

    def reset(self) -> None:
        with self._lock:
            self._groups.clear()
            self.recorded = 0
            self.violations = 0
