"""The install-time sweep: enumerate, measure, persist winners.

This is the paper's install-time stage made *empirical* (the IAAT
direction): instead of trusting the closed-form CMAR argmax alone, the
tuner times every register-feasible candidate plan on the machine model
and records the winner — with full provenance — in the
:class:`~repro.tuning.db.TuningDB` the run-time stage consults.

Selection invariant: the analytic candidate (CMAR-optimal main kernel,
analytic pack rule) is always measured, measured *first*, and only a
**strictly** cheaper candidate replaces it.  Ties keep the analytic
choice, so a tuned selection is never worse than the analytic one and
the sweep is deterministic (the cycle model is exact, candidate order
is fixed).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..machine.machines import MachineConfig
from ..types import GemmProblem, TrsmProblem
from .db import TUNER_VERSION, TuningDB, TuningKey, TuningRecord
from .evaluate import EVALUATOR_VERSION, Evaluator, Measurement
from .space import (Candidate, enumerate_gemm_space, enumerate_trsm_space,
                    full_space, rank_candidates, size_class)

__all__ = ["TuneOutcome", "tune_problem", "sweep",
           "DEFAULT_TUNED_BACKEND", "DEFAULT_TOP_K"]

DEFAULT_TUNED_BACKEND = "megakernel"
"""Backend recorded when the sweep did not measure wall clock: the
trace-compiled executor is bit-exact by construction (the equivalence
matrix enforces identity with ``interpret``) and guarded against
``fused`` by the perf smoke, so recommending it is safe without host
timing — and a constant keeps the cycle-model sweep byte-reproducible.
With ``wall_clock=True`` the tuner instead races the real backends on
the winning candidate and records the host-time winner.  The recorded
name is provenance only: no code applies ``record.backend``, so records
from older DBs (``"compiled"`` included) apply unchanged and run on the
IATF's own backend."""

DEFAULT_TOP_K = 8
"""How many candidates the analytical-first sweep measures per shape:
the analytic (CMAR) candidate plus the ``top_k - 1`` best-ranked others
by :func:`repro.tuning.space.score_candidate`.  Eight keeps the sweep
at <= 25% of the full register-feasible space on the modeled machines
while (empirically, see tests/tuning/test_topk.py) always containing
the full-sweep winner.  Pass ``top_k=None`` for the exhaustive sweep."""


@dataclass(frozen=True)
class TuneOutcome:
    """The result of tuning one problem shape."""

    key: TuningKey
    record: TuningRecord
    sweep: "tuple[dict, ...]"      # every candidate with its measurement
    improved: bool                 # a non-analytic candidate won strictly

    @property
    def analytic_cycles(self) -> float:
        return self.sweep[0]["cycles"]

    def describe(self) -> str:
        head = (f"{self.key.op} {self.key.dtype} "
                f"{self.key.m}x{self.key.n}x{self.key.k} {self.key.mode}: ")
        win = self.record
        label = Candidate(win.main, win.force_pack, win.schedule).label
        if self.improved:
            gain = self.analytic_cycles / win.cycles
            return (head + f"tuned {label} wins "
                    f"({win.cycles:.0f} cycles, {gain:.3f}x vs analytic, "
                    f"{win.candidates} candidates)")
        return (head + f"analytic {label} holds "
                f"({win.cycles:.0f} cycles, {win.candidates} candidates)")


def _space_for(problem, machine: MachineConfig,
               schedule_variants: bool) -> "list[Candidate]":
    if isinstance(problem, GemmProblem):
        return enumerate_gemm_space(problem, machine, schedule_variants)
    if isinstance(problem, TrsmProblem):
        return enumerate_trsm_space(problem, machine, schedule_variants)
    raise TypeError(f"cannot tune {type(problem).__name__}")


def _key_for(problem, machine: MachineConfig) -> TuningKey:
    if isinstance(problem, GemmProblem):
        return TuningKey.for_gemm(machine, problem)
    return TuningKey.for_trsm(machine, problem)


def _select_top_k(problem, machine: MachineConfig,
                  candidates: "list[Candidate]",
                  top_k: int) -> "list[Candidate]":
    """The analytical-first cut: keep the analytic head unconditionally
    plus the ``top_k - 1`` best-ranked of the rest, in the original
    (analytic-first) measurement order.

    Keeping enumeration order — rather than rank order — preserves the
    exact tie-breaking semantics of the full sweep on the surviving
    candidates, so a top-k sweep that measures the same winner also
    records the same winner.
    """
    ranked = rank_candidates(problem, machine, candidates[1:])
    keep = {cand for cand, _score in ranked[:max(0, top_k - 1)]}
    return [candidates[0]] + [c for c in candidates[1:] if c in keep]


def tune_problem(problem, machine: MachineConfig, *,
                 evaluator: "Evaluator | None" = None,
                 repeats: int = 1, schedule_variants: bool = False,
                 wall_clock: bool = False,
                 top_k: "int | None" = DEFAULT_TOP_K,
                 sweep_label: "str | None" = None,
                 timestamp: float = 0.0) -> TuneOutcome:
    """Sweep one problem shape and return the winner + full sweep.

    With the default ``top_k`` the sweep is analytical-first: the full
    register-feasible space is *ranked* by the analytic machine model
    and only the analytic candidate plus the ``top_k - 1`` best-ranked
    others are measured.  ``top_k=None`` measures the whole (pruned)
    enumeration.  ``timestamp`` is provenance injected by the caller —
    the library never reads the clock, keeping sweeps
    byte-reproducible; ``sweep_label`` overrides the recorded sweep
    mode (the online re-tuning loop stamps ``"retune"``).
    """
    ev = evaluator or Evaluator(machine, repeats=repeats,
                                wall_clock=wall_clock)
    candidates = _space_for(problem, machine, schedule_variants)
    space_size = len(full_space(problem, machine))
    mode = "full"
    if top_k is not None and top_k >= 1 and len(candidates) > top_k:
        candidates = _select_top_k(problem, machine, candidates, top_k)
        mode = "topk"
    klass = size_class(problem.m, problem.n,
                       getattr(problem, "k", 0))
    sweep_rows: list[dict] = []
    best_cand: Candidate = candidates[0]
    best: "Measurement | None" = None
    with obs.span("tuning.tune_problem", op=_key_for(problem, machine).op,
                  size_class=klass, candidates=len(candidates)):
        for cand in candidates:
            meas = ev.evaluate(problem, cand)
            sweep_rows.append({"candidate": cand.label,
                               **cand.describe(),
                               "cycles": meas.cycles,
                               "gflops": meas.gflops,
                               "wall_seconds": meas.wall_seconds})
            # strict improvement only: ties keep the earlier (analytic-
            # first) candidate, making "tuned never worse" structural
            if best is None or meas.cycles < best.cycles:
                best, best_cand = meas, cand
    assert best is not None
    if ev.wall_clock:
        backend, _race = ev.race_backends(problem, best_cand)
    else:
        backend = DEFAULT_TUNED_BACKEND
    record = TuningRecord(
        main=best_cand.main,
        force_pack=best_cand.force_pack,
        schedule=best_cand.schedule,
        cycles=best.cycles,
        gflops=best.gflops,
        candidates=len(candidates),
        tuner_version=TUNER_VERSION,
        batch=problem.batch,
        repeats=ev.repeats,
        backend=backend,
        machine_id=machine.machine_id,
        sweep=sweep_label if sweep_label is not None else mode,
        evaluator_version=EVALUATOR_VERSION,
        timestamp=timestamp,
        space=space_size,
    )
    obs.count("tuning.sweep.problems")
    improved = best_cand != candidates[0]
    if improved:
        obs.count("tuning.sweep.improved")
    return TuneOutcome(key=_key_for(problem, machine), record=record,
                       sweep=tuple(sweep_rows), improved=improved)


def sweep(db: TuningDB, machine: MachineConfig, *,
          ops=("gemm", "trsm"), dtypes=("d",), sizes=(4, 8, 16),
          batch: int = 16384, repeats: int = 1,
          schedule_variants: bool = False, wall_clock: bool = False,
          top_k: "int | None" = DEFAULT_TOP_K, timestamp: float = 0.0,
          progress=None) -> "list[TuneOutcome]":
    """Tune square problems over a size grid and store winners in ``db``.

    This is the "Table 1 sweep" entry point: for each requested op and
    dtype it walks the square sizes (GEMM ``n x n x n`` NN, TRSM
    ``n x n`` LNLN — the paper's protocol shapes) and upserts one
    record per shape.  ``progress`` is an optional callable given each
    :class:`TuneOutcome` as it lands (the CLI prints them live).
    """
    ev = Evaluator(machine, repeats=repeats, wall_clock=wall_clock)
    outcomes: list[TuneOutcome] = []
    with obs.span("tuning.sweep", ops=",".join(ops),
                  dtypes=",".join(dtypes), sizes=len(sizes)):
        for op in ops:
            for dt in dtypes:
                for n in sizes:
                    if op == "gemm":
                        problem = GemmProblem(n, n, n, dt, batch=batch)
                    elif op == "trsm":
                        problem = TrsmProblem(n, n, dt, batch=batch)
                    else:
                        raise ValueError(f"unknown op {op!r}")
                    outcome = tune_problem(
                        problem, machine, evaluator=ev,
                        schedule_variants=schedule_variants,
                        top_k=top_k, timestamp=timestamp)
                    db.put(outcome.key, outcome.record)
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
    obs.count("tuning.sweeps")
    return outcomes
