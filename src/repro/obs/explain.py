"""``explain(plan)``: narrate every run-time-stage decision in a plan.

The paper's run-time stage decides four things per problem shape —
how many groups per batch round (Section 5.1), whether to pack each
operand (Section 5.2), how to tile the dimensions over the Table 1
kernel family (CMAR, Section 4), and whether a TuningDB record
overrode the analytic choice.  A plan carries the *outcomes*; this module
reconstructs the *reasoning* into a structured, renderable report, plus
(with ``deep=True``) the cycle-model consequences: pack-vs-nopack cost
comparison and the ``TimingResult`` stall/miss breakdown.

Runtime imports happen inside functions: ``repro.runtime`` itself
imports ``repro.obs`` for instrumentation, so module-level imports here
would be circular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["ExplainReport", "explain"]


@dataclass
class ExplainReport:
    """Structured narration of one execution plan's decisions."""

    kind: str
    problem: object
    machine_name: str
    sections: list = field(default_factory=list)
    """``(title, lines)`` pairs in presentation order."""

    def section(self, title: str) -> "list[str]":
        """Lines of one section (KeyError if absent)."""
        for t, lines in self.sections:
            if t == title:
                return lines
        raise KeyError(title)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "problem": str(self.problem),
                "machine": self.machine_name,
                "sections": {t: list(lines) for t, lines in self.sections}}

    def render(self) -> str:
        out = [f"explain[{self.kind}] {self.problem}",
               f"machine: {self.machine_name}"]
        for title, lines in self.sections:
            out.append(f"-- {title} " + "-" * max(1, 54 - len(title)))
            out.extend(f"  {line}" for line in lines)
        return "\n".join(out)


def _fmt_bytes(n: int) -> str:
    return f"{n} B" if n < 4096 else f"{n} B ({n / 1024:.1f} KiB)"


def _batch_counter_section(plan) -> "list[str]":
    from ..runtime.batch_counter import (gemm_group_working_bytes,
                                         trsm_group_working_bytes)
    machine = plan.machine
    if plan.kind == "gemm":
        work = gemm_group_working_bytes(plan.problem, machine)
    else:
        work = trsm_group_working_bytes(plan.problem, machine)
    gpr = plan.groups_per_round
    rounds = math.ceil(plan.groups / gpr)
    round_set = work * min(gpr, plan.groups)
    raw = max(1, machine.l1.size // work)
    if gpr < raw:
        gpr_line = (f"groups per round: {gpr} (clamped to the batch's "
                    f"{plan.groups} groups; L1 alone would allow {raw})")
    else:
        gpr_line = (f"groups per round: {gpr} "
                    f"(= max(1, L1 // working_set) = max(1, "
                    f"{machine.l1.size} // {work}))")
    lines = [
        f"working set per group: {_fmt_bytes(work)}",
        f"L1 capacity: {_fmt_bytes(machine.l1.size)}",
        gpr_line,
        f"batch rounds: {rounds} x {gpr} groups covering "
        f"{plan.groups} groups",
    ]
    if work > machine.l1.size:
        lines.append("verdict: one group alone exceeds L1 — degenerate "
                     "single-group rounds, traffic served from L2")
    else:
        fits = round_set <= machine.l1.size
        lines.append(f"round working set: {_fmt_bytes(round_set)} — "
                     + ("fits in L1, packed buffers simulated warm"
                        if fits else "exceeds L1, packed buffers demoted "
                        "to L2"))
    lines.append("buffer residency: "
                 + ", ".join(f"{name}={spec.warm}"
                             for name, spec in sorted(plan.buffers.items())))
    return lines


def _pack_selector_section(plan, deep: bool, registry) -> "list[str]":
    machine = plan.machine
    packing = plan.meta.get("packing", {})
    lines = [f"strategy: " + ", ".join(f"{op}: {how}"
                                       for op, how in packing.items())]
    if plan.kind == "gemm":
        reasons = plan.meta.get("pack_reasons", {})
        for op in ("A", "B"):
            if op in reasons:
                lines.append(f"reason {op}: {reasons[op]}")
    else:
        norm = plan.meta.get("norm")
        if norm is not None:
            lines.append(
                f"mode normalization: d={norm.d} n_rhs={norm.n_rhs} "
                f"flip={norm.flip} transpose_b={norm.transpose_b} "
                f"unit={norm.unit} alpha={norm.alpha}")
        reason = plan.meta.get("pack_reason_b")
        if reason:
            lines.append(f"reason B: {reason}")
    lines.append(f"analytic pack cost: "
                 f"{plan.pack_cost.cycles(machine):.0f} cycles; "
                 f"unpack: {plan.unpack_cost.cycles(machine):.0f} cycles")
    if deep and registry is not None:
        alt = _alternative_plan(plan, registry)
        if alt is not None:
            from ..runtime.engine import Engine
            engine = Engine(machine)
            ours = engine.time_plan(plan).total_cycles
            theirs = engine.time_plan(alt).total_cycles
            label = ("forced-pack" if _has_nopack(plan) else "no-pack")
            verdict = "selector wins" if ours <= theirs else \
                "alternative would have been faster"
            lines.append(
                f"cost comparison: selected plan {ours:.0f} cycles vs "
                f"{label} alternative {theirs:.0f} cycles "
                f"({theirs / ours:.2f}x) — {verdict}")
    return lines


def _has_nopack(plan) -> bool:
    if plan.kind == "gemm":
        packing = plan.meta.get("packing", {})
        return "no-pack" in packing.values()
    return bool(plan.meta.get("b_nopack"))


def _alternative_plan(plan, registry):
    """The road not taken: forced-pack if any no-pack was chosen."""
    from ..runtime.plan import build_gemm_plan, build_trsm_plan
    if not _has_nopack(plan):
        return None        # both operands already packed; nopack is
    if plan.kind == "gemm":   # shape-infeasible, nothing to compare
        return build_gemm_plan(plan.problem, plan.machine, registry,
                               force_pack=True,
                               main_override=plan.meta.get("main_kernel"),
                               schedule=plan.schedule)
    return build_trsm_plan(plan.problem, plan.machine, registry,
                           force_pack=True, schedule=plan.schedule)


def _tiles_section(plan) -> "list[str]":
    lines = []
    if plan.kind == "gemm":
        lines.append(f"main kernel (CMAR): "
                     f"{plan.meta.get('main_kernel')}")
        lines.append(f"m tiles: {plan.problem.m} -> "
                     f"{plan.meta.get('m_tiles')}")
        lines.append(f"n tiles: {plan.problem.n} -> "
                     f"{plan.meta.get('n_tiles')}")
    else:
        lines.append(f"diagonal blocks: {plan.meta.get('blocks')} "
                     f"(whole_in_regs={plan.meta.get('whole_in_regs')})")
        lines.append(f"rhs panel width padded to n_pad="
                     f"{plan.meta.get('n_pad')}")
    lines.append(f"kernel calls per group: {len(plan.calls)}")
    for name in plan.kernels_used:
        lines.append(f"  - {name}")
    return lines


def _decision_section(plan) -> "list[str]":
    """Where the plan's decisions came from: the analytic CMAR rules or
    a TuningDB record (written at install time or by ``retune``) — with
    the record's provenance when tuned."""
    d = plan.meta.get("decision") or {"source": "analytic"}
    source = d.get("source", "analytic")
    if source == "tuned":
        lines = [
            f"source: tuned @ db v{d.get('db_schema')} "
            f"(tuner v{d.get('tuner_version')}, "
            f"{d.get('candidates')} candidates swept)",
            f"record: {d.get('cycles'):.0f} cycles measured at batch "
            f"{d.get('batch')}",
        ]
        main = d.get("main")
        applied = [f"main={main[0]}x{main[1]}" if main is not None
                   else "main=fixed",
                   "pack=tuned" if d.get("force_pack") else "pack=analytic",
                   "schedule=" + ("on" if d.get("schedule", True)
                                  else "off")]
        lines.append("applied: " + " ".join(applied))
        # schema-v3 record provenance: where/how/when the sweep ran
        # (absent on records loaded from legacy v1/v2 files)
        if d.get("machine_id") or d.get("evaluator_version"):
            prov = [f"machine={d.get('machine_id') or '?'}",
                    f"sweep={d.get('sweep', 'full')}"]
            if d.get("space"):
                prov.append(f"({d.get('candidates')}/{d.get('space')} "
                            "of space measured)")
            prov.append(f"evaluator v{d.get('evaluator_version')}")
            ts = d.get("timestamp") or 0.0
            prov.append(f"at t={ts:.0f}" if ts else "unstamped")
            lines.append("provenance: " + " ".join(prov))
        return lines
    return ["source: analytic CMAR (no TuningDB record applied)"]


def _timing_section(plan) -> "list[str]":
    from ..runtime.engine import Engine
    t = Engine(plan.machine).time_plan(plan)
    d = t.detail
    total = t.total_cycles
    def pct(x: float) -> str:
        return f"{100.0 * x / total:5.1f}%"
    lines = [
        f"total: {total:.0f} cycles = {t.gflops:.2f} GFLOPS "
        f"({t.percent_of_peak:.1f}% of peak)",
        f"  kernel:   {t.kernel_cycles:12.0f} cycles  {pct(t.kernel_cycles)}"
        f"  ({t.kernel_cycles_per_group} / group x {t.groups} groups)",
        f"  pack:     {t.pack_cycles:12.0f} cycles  {pct(t.pack_cycles)}",
        f"  unpack:   {t.unpack_cycles:12.0f} cycles  {pct(t.unpack_cycles)}",
        f"  overhead: {t.overhead_cycles:12.0f} cycles  "
        f"{pct(t.overhead_cycles)}",
        f"pipeline detail (one group): {d.instructions} instructions in "
        f"{d.cycles} cycles (IPC {d.ipc:.2f})",
        f"  stall cycles: {d.stall_cycles}  fp issued: {d.fp_issued}  "
        f"mem issued: {d.mem_issued}",
        f"  L1 misses: {d.l1_misses}  L2 misses: {d.l2_misses}",
    ]
    return lines


def _backend_section(backend, compiled) -> "list[str]":
    lines = [f"backend: {backend.name} "
             + ("(replays the lowered command stream, then runs code "
                "generated from it)"
                if backend.needs_lowering
                else "(interprets programs instruction by instruction)")]
    if compiled is not None and backend.needs_lowering:
        made = (0 if compiled.programs is None else
                sum(p is not None for p in compiled.programs.programs))
        lines.append(
            f"tier: {'generated' if made else 'replay'} — {made} of "
            f"{len(compiled.templates)} template streams have generated "
            f"programs after {compiled.runs} execute"
            f"{'s' * (compiled.runs != 1)}")
    if compiled is not None:
        s = compiled.stats
        lines.append(
            f"lowered: {s['instructions']} instructions over "
            f"{compiled.calls_summary()} -> {compiled.num_commands} commands "
            f"({s['mem_commands']} mem, {s['fp_commands']} fp)")
        lines.append(
            f"constant-folded at lower time: {s['folded_addi']} "
            f"pointer-arithmetic instrs; dropped: {s['dropped']} "
            f"prefetch/nop")
        p = s.get("passes")
        if p:
            lines.append(
                f"pass pipeline: {p['commands_before']} -> "
                f"{p['commands_after']} commands "
                f"(dce -{p['dce_removed']}, fuse -{p['fuse_commands']}, "
                f"coalesce -{p['coalesce_commands']})")
            lines.append(
                f"  fused chains: {p['fuse_chains']} "
                f"(longest {p['fuse_max_chain']}); wide copies: "
                f"{p['coalesce_loads']} load / {p['coalesce_stores']} "
                f"store ({p['coalesce_vectorized']} vectorized 16-B)")
    return lines



def _plan_cache_section(stats: dict) -> "list[str]":
    total = stats.get("hits", 0) + stats.get("misses", 0)
    rate = stats.get("hit_rate", 0.0)
    lines = [
        f"entries: {stats.get('size', 0)} / {stats.get('maxsize', 0)}",
        f"lookups: {total} ({stats.get('hits', 0)} hits, "
        f"{stats.get('misses', 0)} misses) -> hit rate {100.0 * rate:.1f}%",
        f"evictions: {stats.get('evictions', 0)}; "
        f"invalidations: {stats.get('invalidations', 0)}",
    ]
    if total and rate < 0.5:
        lines.append("verdict: mostly cold — plans are not being reused "
                     "(expected on first calls; a concern under steady "
                     "serving traffic)")
    return lines


def explain(plan, *, registry=None, deep: bool = False, backend=None,
            compiled=None, plan_cache=None) -> ExplainReport:
    """Build the decision report for one :class:`ExecutionPlan`.

    ``deep`` additionally runs the cycle model: the pack-vs-nopack cost
    comparison (needs ``registry``, a :class:`KernelRegistry`, to build
    the alternative plan) and the full ``TimingResult`` breakdown.
    ``backend`` (an executor backend) adds an execution-backend section,
    with lowering statistics when its ``compiled`` plan is supplied.
    ``plan_cache`` (a :meth:`PlanCache.stats` dict) adds a plan-cache
    section so operators see reuse alongside the plan's decisions.
    """
    report = ExplainReport(kind=plan.kind, problem=plan.problem,
                           machine_name=plan.machine.name)
    report.sections.append(
        ("batch counter (Section 5.1)", _batch_counter_section(plan)))
    report.sections.append(
        ("pack selector (Section 5.2)",
         _pack_selector_section(plan, deep, registry)))
    report.sections.append(
        ("tile decomposition (Section 4)", _tiles_section(plan)))
    report.sections.append(
        ("decision provenance (install-time tuning)",
         _decision_section(plan)))
    if backend is not None:
        report.sections.append(
            ("execution backend", _backend_section(backend, compiled)))
    if plan_cache is not None:
        report.sections.append(
            ("plan cache", _plan_cache_section(plan_cache)))
    if deep:
        report.sections.append(
            ("timing breakdown (cycle model)", _timing_section(plan)))
    return report
