"""Kernel optimizer: dependence-aware instruction scheduling (Figure 5).

The kernel designer emits template-ordered code — all loads of a
template first, then its FMAs, with a pointer ``add`` after every
``ldp`` (the left column of Figure 5).  On an in-order dual-issue core
that order stalls: each FMA chain begins right after the loads that feed
it.  The optimizer re-schedules:

1. build the dependence DAG (RAW through vector and scalar registers,
   WAR/WAW to preserve register reuse, and memory-order edges between
   accesses through the same base pointer — different base pointers are
   guaranteed disjoint by the packing contract);
2. compute critical-path priorities with the machine's latencies;
3. greedily list-schedule under the machine's issue caps, which both
   separates dependent pairs ("reordering", Figure 5 middle) and
   interleaves loads between FMAs so compute hides load latency
   (Figure 5 right).

Every per-instruction fact the three steps need (issue class, memory
kind, accumulator reads, result latency, FP cap) comes from the
machine's shared :func:`~repro.machine.facts.opcode_facts` table.

The list scheduler keeps its ready instructions in two heaps: an
*issuable* heap of those whose operands are ready, ordered by
``(-critical path, program index)``, and a *waiting* heap keyed by the
cycle their operands become ready.  Each cycle moves every waiting
instruction that has become ready into the issuable heap, then scans the
issuable heap best first, issuing what fits the issue caps.  One rule
keeps the order exactly that of sorting the whole ready list every
cycle: an instruction freed during the scan (its last predecessor just
issued) is still visited in the same cycle, after the heap and in the
order it was freed, and issues then if its edge weight was zero (a
WAR/WAW ordering edge) and a slot is left.  Deferring freed
instructions to the next cycle would change schedules.

``resource_aware=False`` disables step 3's slot caps, yielding the
purely dependence-driven order — the middle column — which the
Figure 5 ablation benchmark compares against.

Scheduling never changes semantics: a property-based test executes the
original and scheduled programs on random memory images and asserts
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ..machine.facts import ADDI, LOAD, PREFETCH, STORE, OpFacts, opcode_facts
from ..machine.isa import Instr, Op
from ..machine.machines import MachineConfig
from ..machine.program import Program

__all__ = ["schedule_program", "build_dag"]


@dataclass
class _Dag:
    succs: list[list[tuple[int, int]]]   # (succ index, latency weight)
    npreds: list[int]
    facts: list[OpFacts]                 # per-instruction opcode facts


def build_dag(instrs: list[Instr], machine: MachineConfig) -> _Dag:
    """Dependence DAG over a straight-line program.

    Edge weights are producer latencies for RAW edges and 0 for ordering
    (WAR/WAW/memory) edges.
    """
    table = opcode_facts(machine.rules, machine.lat)
    facts = [table[ins.op, ins.ew] for ins in instrs]
    int_alu = machine.lat.int_alu
    n = len(instrs)
    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    npreds = [0] * n

    last_vwrite: dict[int, int] = {}
    vreads_since: dict[int, list[int]] = {}
    last_xwrite: dict[int, int] = {}
    xreads_since: dict[int, list[int]] = {}
    # memory ordering per base register: last store, loads since last store
    last_store: dict[int, int] = {}
    loads_since_store: dict[int, list[int]] = {}

    for i, ins in enumerate(instrs):
        f = facts[i]
        kind = f.kind
        # edges into i: producer -> weight (the largest when several
        # dependences join the same pair; ordering edges weigh 0)
        preds: dict[int, int] = {}
        # vector register RAW / WAR
        for r in (ins.srcs + ins.dst if f.accumulates else ins.srcs):
            src = last_vwrite.get(r)
            if src is not None:
                w = facts[src].latency
                if preds.get(src, -1) < w:
                    preds[src] = w
            vreads_since.setdefault(r, []).append(i)
        # scalar register reads (memory base, ADDI source)
        xreads = () if ins.base is None else (ins.base,)
        if kind == ADDI and ins.xsrc is not None:
            xreads += (ins.xsrc,)
        for r in xreads:
            src = last_xwrite.get(r)
            if src is not None and preds.get(src, -1) < int_alu:
                preds[src] = int_alu
            xreads_since.setdefault(r, []).append(i)
        # vector register WAW / WAR
        for r in ins.dst:
            for rd in vreads_since.get(r, ()):
                if rd != i:
                    preds.setdefault(rd, 0)
            if r in last_vwrite and not vreads_since.get(r):
                preds.setdefault(last_vwrite[r], 0)
            last_vwrite[r] = i
            vreads_since[r] = []
        # scalar register WAW / WAR (ADDI)
        if kind == ADDI:
            r = ins.xdst
            for rd in xreads_since.get(r, ()):
                if rd != i:
                    preds.setdefault(rd, 0)
            if r in last_xwrite and not xreads_since.get(r):
                preds.setdefault(last_xwrite[r], 0)
            last_xwrite[r] = i
            xreads_since[r] = []
        # memory ordering within one base pointer
        if kind == LOAD or kind == PREFETCH:
            b = ins.base
            src = last_store.get(b)
            if src is not None and preds.get(src, -1) < 1:
                preds[src] = 1
            loads_since_store.setdefault(b, []).append(i)
        elif kind == STORE:
            b = ins.base
            for ld in loads_since_store.get(b, ()):
                preds.setdefault(ld, 0)
            if b in last_store:
                preds.setdefault(last_store[b], 0)
            last_store[b] = i
            loads_since_store[b] = []

        npreds[i] = len(preds)
        for src, w in preds.items():
            succs[src].append((i, w))
    return _Dag(succs, npreds, facts)


def schedule_program(program: Program, machine: MachineConfig,
                     resource_aware: bool = True) -> Program:
    """Return a semantically equivalent program with optimized placement."""
    instrs = program.instrs
    # prefetches stay pinned at the front (their payoff is wall-clock
    # distance to the use, which the DAG cannot see)
    pinned = [ins for ins in instrs if ins.op is Op.PRFM]
    body = [ins for ins in instrs if ins.op is not Op.PRFM]

    dag = build_dag(body, machine)
    n = len(body)
    succs, facts = dag.succs, dag.facts

    # critical-path priorities (reverse topological = reverse program order)
    cp = [0] * n
    for i in range(n - 1, -1, -1):
        best = facts[i].latency
        for dst, w in succs[i]:
            cand = w + cp[dst]
            if cand > best:
                best = cand
        cp[i] = best

    rules = machine.rules
    width, max_mem, max_int = rules.width, rules.max_mem, rules.max_int
    npreds = list(dag.npreds)
    data_ready = [0] * n
    issuable = [(-cp[i], i) for i in range(n) if npreds[i] == 0]
    heapify(issuable)
    waiting: list[tuple[int, int]] = []     # (data-ready cycle, index)
    order: list[Instr] = []
    t = 0
    while len(order) < n:
        while waiting and waiting[0][0] <= t:
            i = heappop(waiting)[1]
            heappush(issuable, (-cp[i], i))
        if not issuable:
            t = waiting[0][0]
            continue
        used_mem = used_fp = used_int = issued = 0
        skipped: list[tuple[int, int]] = []
        freed: list[int] = []     # successors freed this cycle, in order
        pos = 0
        while True:
            if issuable:
                key = heappop(issuable)
                i = key[1]
            elif pos < len(freed):
                i = freed[pos]
                pos += 1
                if data_ready[i] > t:
                    heappush(waiting, (data_ready[i], i))
                    continue
                key = (-cp[i], i)
            else:
                break
            f = facts[i]
            if resource_aware:
                if issued >= width:
                    heappush(issuable, key)
                    break
                if ((f.is_mem and used_mem >= max_mem)
                        or (f.is_fp and used_fp >= f.fp_cap)
                        or (f.is_int and used_int >= max_int)):
                    skipped.append(key)
                    continue
            issued += 1
            used_mem += f.is_mem
            used_fp += f.is_fp
            used_int += f.is_int
            order.append(body[i])
            for dst, w in succs[i]:
                if t + w > data_ready[dst]:
                    data_ready[dst] = t + w
                npreds[dst] -= 1
                if npreds[dst] == 0:
                    freed.append(dst)
            if not resource_aware:
                break  # dependence-only mode: one instruction per step
        for key in skipped:
            heappush(issuable, key)
        for i in freed[pos:]:
            heappush(waiting, (data_ready[i], i))
        t += 1   # the heap was not empty and every cap is >= 1: one issued

    out = pinned + order
    assert len(out) == len(instrs)
    mode = "opt" if resource_aware else "reord"
    sched = program.with_instrs(out, suffix=f"_{mode}")
    sched.meta["scheduled"] = mode
    return sched
