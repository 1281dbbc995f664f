"""Performance-attribution profiler over compiled command streams.

The paper's headline metric is *percentage of machine peak* (Figs.
11-12); ``explain`` already prints the cycle model's four-way phase
split, but nothing said *where inside the kernels* the cycles and bytes
go.  This module walks a :class:`~repro.runtime.lowering.CompiledPlan`'s
raw or pass-optimized command stream and attributes the cycle model's
kernel budget per **instruction class** (loads, stores, FMLA/FMLS
chains, ``K_MACC`` macro-ops, wide copies, ...), per **kernel** (via the
lowering's recorded call ranges), and per **plan phase** (pack /
compute / save / plan overhead), under one hard invariant:

    **conservation** — attributed cycles sum *exactly* (integer
    equality for the kernel budget, bitwise float equality for the
    phase split) to ``PlanTiming.total_cycles``.  Nothing is lost,
    nothing is invented; :meth:`PlanProfile.check` enforces it and
    the profiler runs it before returning.

Exactness comes from integer largest-remainder apportionment: the
kernel budget ``kernel_cycles_per_group * groups`` is an integer, each
command gets an integer issue-slot weight from the machine's
:class:`~repro.machine.pipeline.IssueRules`, and the apportionment
distributes the budget so the parts reconstruct the whole in any
summation order.  The weights are a *model* (attribution shares), the
*total* is the scoreboard simulation's — so per-class shares are
honest about the machine's issue structure while the sum stays pinned
to the measured number.

On top of the attribution sit three consumers:

* :func:`profile_report` — a renderable :class:`ProfileReport`
  (text / JSON / collapsed-stack flamegraph / Chrome-trace events)
  including the roofline verdict: achieved GFLOPS vs
  ``machine.peak_gflops`` and arithmetic intensity vs the issue-rule
  ridge point, flagging memory- vs compute-bound plans;
* :func:`model_drift` — cycle-model predictions cross-checked against
  an ``Evaluator`` wall-clock replay on ``fused``, as a ratio;
* ``python -m repro.obs profile``, which persists the JSON form.

Runtime imports happen inside functions (the ``explain`` idiom):
``repro.runtime`` imports ``repro.obs`` for instrumentation, so
module-level imports here would be circular.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ProfileError

__all__ = ["ClassProfile", "KernelProfile", "PlanProfile", "ProfileReport",
           "apportion", "profile_plan", "profile_report", "model_drift"]


def apportion(total: int, weights: "list[int]") -> "list[int]":
    """Split integer ``total`` over positive integer ``weights`` so the
    parts sum back exactly (largest-remainder method, ties broken by
    lower index — fully deterministic).
    """
    if total < 0:
        raise ProfileError(f"cannot apportion a negative total ({total})")
    if not weights:
        raise ProfileError("cannot apportion over zero weights")
    if any(w <= 0 for w in weights):
        raise ProfileError("apportionment weights must be positive")
    w_sum = sum(weights)
    base = [total * w // w_sum for w in weights]
    rem = total - sum(base)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(total * weights[i] % w_sum), i))
    for i in order[:rem]:
        base[i] += 1
    return base


@dataclass
class ClassProfile:
    """Attribution totals for one instruction class over the batch."""

    name: str
    commands: int = 0
    cycles: int = 0
    flops: int = 0
    bytes_moved: int = 0

    def to_dict(self) -> dict:
        return {"class": self.name, "commands": self.commands,
                "cycles": self.cycles, "flops": self.flops,
                "bytes": self.bytes_moved}


@dataclass
class KernelProfile:
    """Attribution totals for one kernel's raw-stream slice, with the
    per-class cycle split inside it (feeds the flamegraph stacks)."""

    name: str
    commands: int = 0
    cycles: int = 0
    flops: int = 0
    bytes_moved: int = 0
    classes: "dict[str, int]" = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kernel": self.name, "commands": self.commands,
                "cycles": self.cycles, "flops": self.flops,
                "bytes": self.bytes_moved, "classes": dict(self.classes)}


def _command_metrics(cmd: tuple, lanes: int, ew: int, rules,
                     lw) -> "tuple[str, int, int, int]":
    """One command's ``(class, weight, flops, bytes)`` — all per group.

    The weight is issue slots in a common unit: a memory command costs
    ``pieces / max_mem`` cycles under the issue rules, an FP command
    ``ops / max_fp``; multiplying both through by ``max_mem * max_fp``
    keeps everything integral.  A ``K_MACC`` of ``n`` members replays
    as ``n`` multiplies plus one vectorized accumulate.
    """
    k = cmd[0]
    mem_u = rules.max_fp(ew)          # weight of one vector-sized access
    fp_u = rules.max_mem              # weight of one FP pipe op
    if k == lw.K_LOAD:
        return "LD", mem_u, 0, cmd[4] * ew
    if k == lw.K_LOADPAIR:
        return "LD", 2 * mem_u, 0, 2 * cmd[5] * ew
    if k == lw.K_STORE:
        return "ST", mem_u, 0, cmd[4] * ew
    if k == lw.K_STOREPAIR:
        return "ST", 2 * mem_u, 0, 2 * cmd[5] * ew
    if k in (lw.K_FMLA, lw.K_FMAI):
        return "FMLA", fp_u, 2 * lanes, 0
    if k == lw.K_FMLS:
        return "FMLS", fp_u, 2 * lanes, 0
    if k in (lw.K_FMUL, lw.K_FMULI):
        return "FMUL", fp_u, lanes, 0
    if k in (lw.K_VZERO, lw.K_VMOV):
        return "MOV", fp_u, 0, 0
    if k == lw.K_MACC:
        n = cmd[5]
        return "MACC", (n + 1) * fp_u, 2 * n * lanes, 0
    if k == lw.K_LOADW:
        return "LDW", cmd[5] * mem_u, 0, cmd[4] * cmd[5] * ew
    if k == lw.K_STOREW:
        return "STW", cmd[5] * mem_u, 0, cmd[4] * cmd[5] * ew
    raise ProfileError(f"unknown command kind {k}")


@dataclass
class PlanProfile:
    """Full attribution of one timed plan over one command stream."""

    kind: str                     # "gemm" | "trsm"
    problem: object
    machine: object               # MachineConfig
    stream: str                   # "raw" | "fused"
    groups: int
    timing: object                # PlanTiming
    classes: "dict[str, ClassProfile]"
    kernels: "dict[str, KernelProfile]"
    """Per-kernel attribution: from the lowering's ``call_ranges`` for
    ``"raw"``, from each call's ``fused_ranges`` slice for ``"fused"``
    (each call is optimized on its own, so coverage is total by
    construction)."""

    # -- totals ----------------------------------------------------------

    @property
    def kernel_cycle_budget(self) -> int:
        """The integer compute budget the classes were apportioned from."""
        return self.timing.kernel_cycles_per_group * self.groups

    @property
    def flops(self) -> int:
        return sum(c.flops for c in self.classes.values())

    @property
    def bytes_moved(self) -> int:
        return sum(c.bytes_moved for c in self.classes.values())

    @property
    def phases(self) -> "dict[str, float]":
        """Cycle split by plan phase; summed left-to-right in this
        order it reproduces ``timing.total_cycles`` bit-exactly."""
        t = self.timing
        return {"compute": float(self.kernel_cycle_budget),
                "pack": t.pack_cycles,
                "save": t.unpack_cycles,
                "plan-overhead": t.overhead_cycles}

    @property
    def total_cycles(self) -> float:
        total = 0.0
        for v in self.phases.values():
            total += v
        return total

    # -- roofline --------------------------------------------------------

    @property
    def gflops(self) -> float:
        return self.timing.gflops

    @property
    def percent_of_peak(self) -> float:
        return self.timing.percent_of_peak

    @property
    def intensity(self) -> float:
        """Achieved arithmetic intensity (flops per byte of modeled
        kernel-stream traffic)."""
        b = self.bytes_moved
        return self.flops / b if b else float("inf")

    @property
    def ridge(self) -> float:
        return self.machine.ridge_intensity(self.problem.dtype)

    @property
    def memory_bound(self) -> bool:
        return self.intensity < self.ridge

    @property
    def bound(self) -> str:
        return "memory-bound" if self.memory_bound else "compute-bound"

    # -- invariants ------------------------------------------------------

    def check(self) -> None:
        """Enforce conservation; raises :class:`ProfileError`."""
        budget = self.kernel_cycle_budget
        got = sum(c.cycles for c in self.classes.values())
        if got != budget:
            raise ProfileError(
                f"class attribution lost cycles: {got} != budget {budget}")
        if self.kernels:
            got = sum(k.cycles for k in self.kernels.values())
            if got != budget:
                raise ProfileError(
                    f"kernel attribution lost cycles: {got} != {budget}")
            for k in self.kernels.values():
                if sum(k.classes.values()) != k.cycles:
                    raise ProfileError(
                        f"kernel {k.name} class split != kernel total")
        if self.total_cycles != self.timing.total_cycles:
            raise ProfileError(
                f"phase attribution drifted: {self.total_cycles!r} != "
                f"cycle-model total {self.timing.total_cycles!r}")


def profile_plan(plan, *, stream: str = "raw", compiled=None,
                 timing=None) -> PlanProfile:
    """Attribute one plan's modeled cycles/flops/bytes.

    ``stream`` selects what to walk: ``"raw"`` (the unoptimized
    lowering) or ``"fused"`` (the pass-optimized macro-op stream the
    ``fused`` backend replays and generates code from).  Both carry a
    per-kernel breakdown: every call's commands are one contiguous
    slice of either stream.
    ``compiled`` and ``timing`` may be supplied to reuse a cached
    lowering / an existing ``PlanTiming``; otherwise both are computed
    here.  The returned profile has passed :meth:`PlanProfile.check`.
    """
    from .. import obs
    from ..runtime import lowering as lw
    from ..runtime.engine import Engine

    if stream not in ("raw", "fused"):
        raise ProfileError(f"unknown stream {stream!r} "
                           "(expected 'raw' or 'fused')")
    with obs.span("obs.profile", kind=plan.kind, stream=stream):
        if compiled is None:
            compiled = lw.lower_plan(plan)
        if timing is None:
            timing = Engine(plan.machine).time_plan(plan)
        if stream == "raw":
            commands, ranges = compiled.commands, compiled.call_ranges
        else:
            commands = compiled.fused_commands
            ranges = [(name, *fused) for (name, _, _), fused in
                      zip(compiled.call_ranges, compiled.fused_ranges)]
        if not commands:
            raise ProfileError(f"plan has no {stream} commands to profile")

        machine = plan.machine
        lanes, ew = compiled.lanes, compiled.ew
        rules = machine.rules
        groups = plan.groups
        metrics = [_command_metrics(cmd, lanes, ew, rules, lw)
                   for cmd in commands]
        budget = timing.kernel_cycles_per_group * groups
        cycles = apportion(budget, [m[1] for m in metrics])

        classes: "dict[str, ClassProfile]" = {}
        for (cls, _w, flops, nbytes), cyc in zip(metrics, cycles):
            cp = classes.get(cls)
            if cp is None:
                cp = classes[cls] = ClassProfile(cls)
            cp.commands += 1
            cp.cycles += cyc
            cp.flops += flops * groups
            cp.bytes_moved += nbytes * groups

        kernels: "dict[str, KernelProfile]" = {}
        covered = 0
        for name, start, stop in ranges:
            kp = kernels.get(name)
            if kp is None:
                kp = kernels[name] = KernelProfile(name)
            for i in range(start, stop):
                cls = metrics[i][0]
                kp.commands += 1
                kp.cycles += cycles[i]
                kp.flops += metrics[i][2] * groups
                kp.bytes_moved += metrics[i][3] * groups
                kp.classes[cls] = kp.classes.get(cls, 0) + cycles[i]
            covered += stop - start
        if ranges and covered != len(commands):
            # a lowering that emitted commands outside any call range
            # would break kernel-level conservation; fail loudly
            raise ProfileError(
                f"call ranges cover {covered} of {len(commands)} "
                f"{stream} commands")

        profile = PlanProfile(
            kind=plan.kind, problem=plan.problem, machine=machine,
            stream=stream, groups=groups, timing=timing,
            classes=classes, kernels=kernels)
        profile.check()
    obs.count("obs.profile.plans")
    return profile


# -- the renderable report ----------------------------------------------

#: synthetic tid the modeled-profile track uses in merged Chrome traces
#: (real span tids are thread idents masked to 16 bits, so 17 bits is
#: collision-free)
PROFILE_TRACE_TID = 1 << 16


@dataclass
class ProfileReport:
    """Renderable roofline/attribution report over a :class:`PlanProfile`.

    ``render()`` is the human text, ``to_dict()`` the JSON artifact,
    ``collapsed()`` the collapsed-stack flamegraph format (one
    ``frame;frame;frame count`` line per stack, cycles as counts —
    feed to ``flamegraph.pl`` or speedscope), and ``trace_events()``
    Chrome-trace complete events on a synthetic modeled timeline,
    mergeable into the span exporter via
    ``obs.write_chrome_trace(path, extra_events=...)``.
    """

    profile: PlanProfile
    drift: "dict[str, dict] | None" = None

    def to_dict(self) -> dict:
        p = self.profile
        m = p.machine
        out = {
            "kind": p.kind,
            "problem": str(p.problem),
            "machine": m.name,
            "machine_id": m.machine_id,
            "dtype": p.problem.dtype.value,
            "stream": p.stream,
            "groups": p.groups,
            "phases": dict(p.phases),
            "total_cycles": p.total_cycles,
            "kernel_cycle_budget": p.kernel_cycle_budget,
            "classes": [c.to_dict() for c in p.classes.values()],
            "kernels": [k.to_dict() for k in p.kernels.values()],
            "roofline": {
                "gflops": p.gflops,
                "peak_gflops": m.peak_gflops(p.problem.dtype),
                "percent_of_peak": p.percent_of_peak,
                "flops": p.flops,
                "bytes": p.bytes_moved,
                "intensity": p.intensity,
                "ridge_intensity": p.ridge,
                "bound": p.bound,
            },
        }
        if self.drift is not None:
            out["drift"] = {b: dict(d) for b, d in self.drift.items()}
        return out

    def render(self) -> str:
        p = self.profile
        m = p.machine
        total = p.total_cycles

        def sect(title: str) -> str:
            return f"-- {title} " + "-" * max(1, 54 - len(title))

        out = [f"profile[{p.kind}] {p.problem}",
               f"machine: {m.name} ({m.machine_id})  stream: {p.stream}",
               sect("phase attribution")]
        for name, cyc in p.phases.items():
            out.append(f"  {name:<14} {cyc:14.0f} cycles "
                       f"{100.0 * cyc / total:5.1f}%")
        out.append(f"  {'total':<14} {total:14.0f} cycles "
                   "(== cycle-model total, conserved)")
        out.append(sect("instruction classes (compute budget "
                        f"{p.kernel_cycle_budget} cycles)"))
        out.append(f"  {'class':<6} {'commands':>9} {'cycles':>14} "
                   f"{'share':>6} {'flops':>14} {'bytes':>14}")
        budget = p.kernel_cycle_budget
        for c in sorted(p.classes.values(), key=lambda c: -c.cycles):
            out.append(f"  {c.name:<6} {c.commands:>9} {c.cycles:>14} "
                       f"{100.0 * c.cycles / budget:5.1f}% "
                       f"{c.flops:>14} {c.bytes_moved:>14}")
        if p.kernels:
            out.append(sect(f"kernels ({p.stream} call ranges)"))
            for k in sorted(p.kernels.values(), key=lambda k: -k.cycles):
                out.append(f"  {k.name}: {k.cycles} cycles "
                           f"({100.0 * k.cycles / budget:.1f}%), "
                           f"{k.commands} commands")
        out.append(sect("roofline (vs machine peak)"))
        peak = m.peak_gflops(p.problem.dtype)
        out.append(f"  achieved: {p.gflops:.2f} GFLOPS = "
                   f"{p.percent_of_peak:.1f}% of peak "
                   f"({peak:.1f} GFLOPS '{p.problem.dtype.value}')")
        out.append(f"  arithmetic intensity: {p.intensity:.2f} flops/byte "
                   f"vs ridge {p.ridge:.2f} -> {p.bound}")
        if self.drift is not None:
            out.append(sect("model drift (cycle model vs wall clock)"))
            for backend, d in self.drift.items():
                out.append(
                    f"  {backend}: predicted {d['predicted_seconds']:.3e} s, "
                    f"wall {d['wall_seconds']:.3e} s, "
                    f"ratio {d['ratio']:.2f}x")
        return "\n".join(out)

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph lines (cycles as sample counts)."""
        p = self.profile
        root = f"{p.kind}[{p.stream}]"
        lines = []
        if p.kernels:
            for k in p.kernels.values():
                for cls, cyc in k.classes.items():
                    if cyc:
                        lines.append(f"{root};compute;{k.name};{cls} {cyc}")
        else:
            for c in p.classes.values():
                if c.cycles:
                    lines.append(f"{root};compute;{c.name} {c.cycles}")
        for name in ("pack", "save", "plan-overhead"):
            cyc = int(round(p.phases[name]))
            if cyc:
                lines.append(f"{root};{name} {cyc}")
        return "\n".join(lines) + "\n"

    def trace_events(self) -> "list[dict]":
        """Chrome-trace complete events on a synthetic modeled timeline
        (phases laid end to end, kernels/classes nested inside
        compute).  Timestamps are modeled microseconds at the machine's
        clock, not wall time; the track is named accordingly."""
        p = self.profile
        m = p.machine
        pid = os.getpid()
        tid = PROFILE_TRACE_TID

        def us(cycles: float) -> float:
            return cycles / (m.freq_ghz * 1e3)

        events: "list[dict]" = [{
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": "modeled profile (cycle attribution)"},
        }, {
            "name": f"profile.{p.kind}", "cat": "profile", "ph": "X",
            "ts": 0.0, "dur": us(p.total_cycles), "pid": pid, "tid": tid,
            "args": {"stream": p.stream, "machine": m.machine_id,
                     "percent_of_peak": p.percent_of_peak},
        }]
        t = 0.0
        for name, cyc in p.phases.items():
            if cyc <= 0:
                continue
            events.append({
                "name": f"profile.{name}", "cat": "profile", "ph": "X",
                "ts": t, "dur": us(cyc), "pid": pid, "tid": tid,
                "args": {"cycles": cyc},
            })
            if name == "compute":
                inner = (p.kernels or p.classes).values()
                ti = t
                for item in inner:
                    events.append({
                        "name": item.name, "cat": "profile.compute",
                        "ph": "X", "ts": ti, "dur": us(item.cycles),
                        "pid": pid, "tid": tid,
                        "args": {"cycles": item.cycles,
                                 "commands": item.commands},
                    })
                    ti += us(item.cycles)
            t += us(cyc)
        return events


def profile_report(plan, *, stream: str = "raw", compiled=None,
                   timing=None, drift=None) -> ProfileReport:
    """Profile a plan and wrap it in a renderable report; ``drift`` is
    an optional :func:`model_drift` result to append."""
    return ProfileReport(profile_plan(plan, stream=stream,
                                      compiled=compiled, timing=timing),
                         drift=drift)


def model_drift(problem, machine=None, *,
                repeats: int = 3) -> "dict[str, dict]":
    """Cycle-model prediction vs a wall-clock replay on ``fused``.

    Returns ``{"fused": {"predicted_seconds", "wall_seconds",
    "ratio"}}`` where the ratio is wall over predicted (>1 means the
    host is slower than the modeled silicon — expected, since the
    replay is NumPy, not ARM assembly; what matters is that the ratio
    is *stable*; a shape whose ratio grows is a candidate for
    :meth:`IATF.retune <repro.runtime.iatf.IATF.retune>`).
    """
    from ..machine.machines import KUNPENG_920
    from ..tuning.evaluate import Evaluator

    ev = Evaluator(machine if machine is not None else KUNPENG_920,
                   repeats=repeats)
    return ev.drift(problem)
