"""Candidate-space enumeration for the install-time sweep.

A *candidate* is one complete configuration of the run-time stage's
tunable choices for a problem shape:

* the main-kernel preference ``(mc, nc)``, drawn from the
  register-feasible sizes the CMAR budget (:mod:`repro.codegen.cmar`)
  allows and the tile decomposer supports;
* the pack-selector override (``force_pack``: sweep the packed variant
  even where the analytic rule would take the no-pack fast path);
* the kernel-optimizer schedule variant (scheduled vs template order,
  :mod:`repro.codegen.optimizer`) — optional, off by default because
  the scheduled kernels win essentially always.  It selects only the
  order the cycle model times; execution replays the generated
  program either way.

The first candidate returned is always the **analytic choice** — the
CMAR-optimal main kernel with the analytic pack rule — and the tuner
only replaces it on a *strictly* better measurement, which is what
makes the tuned selection never worse than the analytic one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..codegen.cmar import (cmar_complex, cmar_real, fits_registers,
                            register_cost)
from ..machine.machines import MachineConfig
from ..types import BlasDType, GemmProblem, TrsmProblem

__all__ = ["Candidate", "AnalyticScore", "size_class",
           "feasible_gemm_mains", "enumerate_gemm_space",
           "enumerate_trsm_space", "full_gemm_space", "full_trsm_space",
           "full_space", "score_candidate", "rank_candidates"]

DECOMPOSABLE_MAINS = (2, 3, 4)
"""Main-kernel sizes the tile decomposer accepts per dimension."""


@dataclass(frozen=True)
class Candidate:
    """One point of the tuning space (see module docstring)."""

    main: "tuple[int, int] | None"    # None for TRSM (fixed family)
    force_pack: bool = False
    schedule: bool = True

    @property
    def label(self) -> str:
        parts = []
        if self.main is not None:
            parts.append(f"{self.main[0]}x{self.main[1]}")
        parts.append("pack" if self.force_pack else "auto")
        if not self.schedule:
            parts.append("unscheduled")
        return "/".join(parts)

    def describe(self) -> dict:
        return {"main": self.main, "force_pack": self.force_pack,
                "schedule": self.schedule}


def size_class(m: int, n: int, k: int = 0) -> str:
    """Coarse shape bucket the sweep reports per entry.

    The buckets track where each run-time decision can still move the
    needle: ``micro`` problems are single-tile (packing and tiling are
    mostly settled), ``small``/``medium`` have real tiling freedom, and
    ``large`` shapes exceed the paper's 1..33 sweep where per-call
    overheads vanish into the kernels.
    """
    top = max(m, n, k)
    if top <= 4:
        return "micro"
    if top <= 12:
        return "small"
    if top <= 33:
        return "medium"
    return "large"


def feasible_gemm_mains(dtype: "BlasDType | str",
                        num_vregs: int = 32) -> "list[tuple[int, int]]":
    """Register-feasible main-kernel preferences, best CMAR first.

    Reuses the CMAR budget: a ping-ponged ``(mc, nc)`` kernel must fit
    the register file, and both dimensions must be sizes the tile
    decomposer can use as a main.  Sorting is by the dtype's CMAR
    metric, tie-breaking toward the taller kernel exactly like
    :func:`repro.codegen.cmar.optimal_gemm_kernel`, so the head of this
    list *is* the analytic optimum whenever it lies on the grid.
    """
    dt = BlasDType.from_any(dtype)
    metric = cmar_complex if dt.is_complex else cmar_real
    mains = [(mc, nc)
             for mc in DECOMPOSABLE_MAINS for nc in DECOMPOSABLE_MAINS
             if fits_registers(mc, nc, dt, num_vregs)]
    mains.sort(key=lambda p: (metric(*p), p[0], p[1]), reverse=True)
    return mains


def enumerate_gemm_space(problem: GemmProblem, machine: MachineConfig,
                         schedule_variants: bool = False
                         ) -> "list[Candidate]":
    """All candidates the sweep measures for one GEMM shape.

    Pack variants are pruned where they cannot change the plan: the
    ``force_pack`` candidate only exists for mains whose analytic
    decision leaves at least one operand on the no-pack fast path
    (otherwise the two plans are identical and would waste a
    measurement).  Schedule variants double the space and are opt-in.
    """
    from ..codegen.tiling import decompose_dim
    from ..runtime.pack_selector import select_gemm_packing

    out: list[Candidate] = []
    for main in feasible_gemm_mains(problem.dtype, machine.num_vregs):
        base = Candidate(main=main)
        out.append(base)
        decision = select_gemm_packing(
            problem,
            decompose_dim(problem.m, main[0]),
            decompose_dim(problem.n, main[1]))
        if not (decision.pack_a and decision.pack_b):
            out.append(replace(base, force_pack=True))
    if schedule_variants:
        out.extend(replace(c, schedule=False) for c in list(out))
    return out


def enumerate_trsm_space(problem: TrsmProblem, machine: MachineConfig,
                         schedule_variants: bool = False
                         ) -> "list[Candidate]":
    """Candidates for one TRSM shape.

    The triangular/rectangular kernel family is fixed by the register
    budget (Table 1), so the TRSM space is the pack-selector choice —
    the analytic rule vs the forced panel pack — times the optional
    schedule variants.
    """
    out = [Candidate(main=None), Candidate(main=None, force_pack=True)]
    if schedule_variants:
        out.extend(replace(c, schedule=False) for c in list(out))
    return out


# ---------------------------------------------------------------------------
# The full candidate space and the analytic ranker
# ---------------------------------------------------------------------------

def full_gemm_space(problem: GemmProblem,
                    machine: MachineConfig) -> "list[Candidate]":
    """Every register-feasible GEMM candidate, **unpruned**: feasible
    mains x {analytic pack, forced pack} x {scheduled, unscheduled}.

    This is the space the analytic ranker scores and the denominator of
    the top-k sweep's coverage fraction — what a naive exhaustive
    install-time sweep would have to measure.  (The measured
    enumeration in :func:`enumerate_gemm_space` additionally prunes
    pack/schedule variants that provably cannot change the plan.)
    """
    return [Candidate(main=main, force_pack=fp, schedule=sched)
            for main in feasible_gemm_mains(problem.dtype, machine.num_vregs)
            for fp in (False, True)
            for sched in (True, False)]


def full_trsm_space(problem: TrsmProblem,
                    machine: MachineConfig) -> "list[Candidate]":
    """Every TRSM candidate: pack choice x schedule variant."""
    return [Candidate(main=None, force_pack=fp, schedule=sched)
            for fp in (False, True)
            for sched in (True, False)]


def full_space(problem, machine: MachineConfig) -> "list[Candidate]":
    """Dispatch to the op's full (unpruned) candidate space."""
    if isinstance(problem, GemmProblem):
        return full_gemm_space(problem, machine)
    if isinstance(problem, TrsmProblem):
        return full_trsm_space(problem, machine)
    raise TypeError(f"no tuning space for {type(problem).__name__}")


@dataclass(frozen=True)
class AnalyticScore:
    """Why the ranker placed a candidate where it did.

    ``score`` is the ranking key (higher is better); the remaining
    fields are the diagnostic decomposition: the issue-slot estimate of
    achieved flops/cycle, the register-file occupancy of the main
    kernel, how balanced the FP and memory issue slots are (1.0 =
    perfectly overlapped), and the cache-residency factor of the
    group's working set.
    """

    score: float
    est_flops_per_cycle: float
    occupancy: float
    balance: float
    residency: float

    def describe(self) -> dict:
        return {"score": self.score,
                "est_flops_per_cycle": self.est_flops_per_cycle,
                "occupancy": self.occupancy,
                "balance": self.balance,
                "residency": self.residency}


_UNSCHEDULED_PENALTY = 0.95
"""Unscheduled variants rank slightly below their scheduled twins:
the list scheduler usually wins by hiding FP latency, but the margin
is machine-dependent (a wide issue window needs no help), so the
penalty must be mild enough that an unscheduled winner still makes
the top-k cut."""

_TRSM_FORCE_PACK_PENALTY = 0.99
"""TRSM's analytic pack rule is almost always right; the forced-pack
variant ranks marginally below it so the analytic choice leads."""


def _residency(working_bytes: int, machine: MachineConfig) -> float:
    """Cache-residency factor for one group's working set.

    1.0 while the group round-trips in L1; decays through an
    L2-resident band (the streaming kernels still run near issue rate,
    but reuse costs L2 latency); falls off proportionally once even L2
    cannot hold a group.  Piecewise and monotonic — the ranker only
    needs ordering, not absolute accuracy.
    """
    l1, l2 = machine.l1.size, machine.l2.size
    if working_bytes <= l1:
        return 1.0
    if working_bytes <= l2:
        return 0.75 + 0.25 * (l1 / working_bytes)
    return 0.75 * (l2 / working_bytes)


def _score_gemm(problem: GemmProblem, machine: MachineConfig,
                cand: Candidate) -> AnalyticScore:
    from ..codegen.tiling import decompose_dim
    from ..runtime.pack_selector import select_gemm_packing

    dt = problem.dtype
    ew = dt.real_itemsize
    lanes = machine.lanes(dt)
    ncomp = 2 if dt.is_complex else 1
    per_elem = lanes * ncomp * ew
    # vector-op multipliers: a complex multiply-add lowers to 4 real
    # FMLA/FMLS ops, and every complex operand access touches 2 planes
    cf = 4 if dt.is_complex else 1
    lf = ncomp

    mc, nc = cand.main
    m_tiles = decompose_dim(problem.m, mc)
    n_tiles = decompose_dim(problem.n, nc)
    fp_slots = machine.rules.max_fp(ew)
    mem_slots = machine.rules.max_mem
    k = problem.k

    # Issue-slot model, per group (one vector lane set of matrices):
    # each (mt, nt) tile pair runs k steps of mt*nt vector FMAs fed by
    # mt + nt vector loads, then writes its mt*nt C tile back.  The
    # tile's cycles are whichever issue slot saturates first — the same
    # dual-issue rule the cycle model enforces exactly.
    compute_cycles = 0.0
    mem_cycles = 0.0
    total_cycles = 0.0
    for mt in m_tiles:
        for nt in n_tiles:
            fp_ops = k * mt * nt * cf
            mem_ops = (k * (mt + nt) + mt * nt) * lf
            c = fp_ops / fp_slots
            m = mem_ops / mem_slots
            compute_cycles += c
            mem_cycles += m
            total_cycles += max(c, m)

    # Packing cost and working set: the analytic pack rule (or the
    # forced override) decides which operands get packed copies; packed
    # bytes stream once through the copy engine and stay live in cache.
    decision = select_gemm_packing(problem, m_tiles, n_tiles,
                                   force_pack=cand.force_pack)
    pack_bytes = 0
    if decision.pack_a:
        pack_bytes += problem.m * problem.k * per_elem
    if decision.pack_b:
        pack_bytes += problem.k * problem.n * per_elem
    total_cycles += pack_bytes / machine.copy_bytes_per_cycle
    working = ((problem.m * problem.k + problem.k * problem.n
                + problem.m * problem.n) * per_elem + pack_bytes)

    group_flops = 2.0 * problem.m * problem.n * k * cf * lanes
    est = group_flops / total_cycles if total_cycles > 0 else 0.0
    occupancy = register_cost(mc, nc, dt) / machine.num_vregs
    balance = (min(compute_cycles, mem_cycles)
               / max(compute_cycles, mem_cycles))
    residency = _residency(working, machine)

    score = est * residency * (0.8 + 0.2 * occupancy)
    if not cand.schedule:
        score *= _UNSCHEDULED_PENALTY
    return AnalyticScore(score=score, est_flops_per_cycle=est,
                         occupancy=occupancy, balance=balance,
                         residency=residency)


def _score_trsm(problem: TrsmProblem, machine: MachineConfig,
                cand: Candidate) -> AnalyticScore:
    from ..runtime.batch_counter import trsm_group_working_bytes

    dt = problem.dtype
    ew = dt.real_itemsize
    residency = _residency(trsm_group_working_bytes(problem, machine),
                           machine)
    # The kernel family is fixed, so the only ranking signal is cache
    # residency and the pack/schedule preference ordering.
    est = machine.rules.max_fp(ew) * machine.fp_lanes(ew) * 2.0 * residency
    score = est
    if cand.force_pack:
        score *= _TRSM_FORCE_PACK_PENALTY
    if not cand.schedule:
        score *= _UNSCHEDULED_PENALTY
    return AnalyticScore(score=score, est_flops_per_cycle=est,
                         occupancy=1.0, balance=1.0, residency=residency)


def score_candidate(problem, machine: MachineConfig,
                    cand: Candidate) -> AnalyticScore:
    """Rank one candidate analytically — no plan built, no measurement.

    The model reuses the machine description end to end: the cycle
    model's issue rules bound FP vs memory slot pressure per tile pair,
    the CMAR register-cost formula gives occupancy, and the cache
    hierarchy sizes give the group's residency factor.  It is a
    *ranking* model: orderings are meaningful, absolute cycle counts
    are not (the exact scoreboard is what the top-k measurement is
    for).
    """
    if isinstance(problem, GemmProblem):
        return _score_gemm(problem, machine, cand)
    if isinstance(problem, TrsmProblem):
        return _score_trsm(problem, machine, cand)
    raise TypeError(f"cannot score {type(problem).__name__}")


def rank_candidates(problem, machine: MachineConfig, candidates=None
                    ) -> "list[tuple[Candidate, AnalyticScore]]":
    """Candidates best-score-first, deterministically.

    Ties break on the candidate label, so equal-scoring candidates have
    a fixed, machine-independent order and the top-k cut is
    byte-reproducible run to run.
    """
    cands = list(candidates) if candidates is not None \
        else full_space(problem, machine)
    scored = [(c, score_candidate(problem, machine, c)) for c in cands]
    scored.sort(key=lambda cs: (-cs[1].score, cs[0].label))
    return scored
