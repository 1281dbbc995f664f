"""Property-based scheduler verification on randomized programs.

The list scheduler may only reorder; it must never change results.  We
generate arbitrary straight-line programs over a small register file —
loads, stores, FMAs, pointer bumps, register moves — execute original
and scheduled versions on identical memory images, and demand bitwise
equality of all memory.  This exercises every dependence class the DAG
builder models: RAW/WAR/WAW on vector registers, pointer-register
chains through ADDI, and store/load ordering through aliased pointers.

The same programs also pin the scheduler's *order contract*: the
two-heap list scheduler must emit exactly the order of the reference
below, which re-sorts its whole ready list every cycle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.optimizer import build_dag, schedule_program
from repro.machine import KUNPENG_920, MemorySpace, VectorExecutor
from repro.machine.isa import (Op, addi, fadd, fmla, fmls, fmul, fmuli,
                               ldrv, prfm, strv, vmov, vzero)
from repro.machine.machines import A64FX, XEON_GOLD_6240
from repro.machine.program import Program

N_VREGS = 8          # small register file -> dense dependences
N_BUF_ELEMS = 32     # elements in the shared buffer
LANES = 2
EW = 8


@st.composite
def random_instr(draw, initialized: set[int]):
    """One random instruction whose sources are already initialized."""
    choices = ["load", "zero"]
    if initialized:
        choices += ["store", "mov", "muli"]
    if len(initialized) >= 2:
        choices += ["fmla", "fmls", "fmul", "fadd"]
    kind = draw(st.sampled_from(choices))
    dst = draw(st.integers(0, N_VREGS - 1))
    off = draw(st.integers(0, (N_BUF_ELEMS - LANES) // LANES)) * LANES * EW
    if kind == "load":
        ins = ldrv(dst, 0, off, ew=EW)
    elif kind == "zero":
        ins = vzero(dst, ew=EW)
    elif kind == "store":
        src = draw(st.sampled_from(sorted(initialized)))
        return strv(src, 0, off, ew=EW)
    elif kind == "mov":
        src = draw(st.sampled_from(sorted(initialized)))
        ins = vmov(dst, src, ew=EW)
    elif kind == "muli":
        src = draw(st.sampled_from(sorted(initialized)))
        ins = fmuli(dst, src, draw(st.floats(-2, 2)), ew=EW)
    else:
        srcs = sorted(initialized)
        a = draw(st.sampled_from(srcs))
        b = draw(st.sampled_from(srcs))
        op = {"fmla": fmla, "fmls": fmls, "fmul": fmul, "fadd": fadd}[kind]
        if op in (fmla, fmls) and dst not in initialized:
            # accumulators read their destination; make it a fresh def
            ins = fmul(dst, a, b, ew=EW)
        else:
            ins = op(dst, a, b, ew=EW)
    initialized.add(ins.dst[0])
    return ins


@st.composite
def random_program(draw):
    initialized: set[int] = set()
    n = draw(st.integers(3, 40))
    instrs = []
    for _ in range(n):
        instrs.append(draw(random_instr(initialized)))
    # a couple of pointer bumps through a second register to stress the
    # scalar-register dependence tracking
    if draw(st.booleans()):
        instrs.insert(draw(st.integers(0, len(instrs))), addi(0, 0, 0))
    return Program("rand", instrs, ew=EW, lanes=LANES)


def run(program: Program, image: np.ndarray) -> np.ndarray:
    mem = MemorySpace()
    buf = mem.alloc("m", N_BUF_ELEMS, EW)
    buf[:] = image
    ex = VectorExecutor(mem, groups=1)
    ex.set_pointer(0, "m", 0)
    ex.run(program)
    return buf.copy()


@settings(max_examples=120, deadline=None)
@given(prog=random_program(), seed=st.integers(0, 2**16))
def test_scheduling_preserves_any_program(prog, seed):
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(N_BUF_ELEMS)
    scheduled = schedule_program(prog, KUNPENG_920)
    assert len(scheduled) == len(prog)
    out_a = run(prog, image)
    out_b = run(scheduled, image)
    assert np.array_equal(out_a, out_b)


@settings(max_examples=60, deadline=None)
@given(prog=random_program(), seed=st.integers(0, 2**16))
def test_dependence_only_mode_preserves_too(prog, seed):
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(N_BUF_ELEMS)
    scheduled = schedule_program(prog, KUNPENG_920, resource_aware=False)
    assert np.array_equal(run(prog, image), run(scheduled, image))


# -- order contract: the heaps emit the sort-every-cycle order --------------

def reference_order(program: Program, machine, resource_aware: bool) -> list:
    """The list scheduler as a plain sort of the whole ready list every
    cycle.  Successors freed while a cycle is scanned are appended to the
    list being scanned, so they are visited in that same cycle, after
    the sorted part and in the order they were freed."""
    pinned = [ins for ins in program.instrs if ins.op is Op.PRFM]
    body = [ins for ins in program.instrs if ins.op is not Op.PRFM]
    dag = build_dag(body, machine)
    n = len(body)
    cp = [0] * n
    for i in range(n - 1, -1, -1):
        cp[i] = max([dag.facts[i].latency]
                    + [w + cp[d] for d, w in dag.succs[i]])
    rules = machine.rules
    npreds = list(dag.npreds)
    data_ready = [0] * n
    ready = [i for i in range(n) if npreds[i] == 0]
    order = []
    t = 0
    while len(order) < n:
        ready.sort(key=lambda i: (-cp[i], i))
        used_mem = used_fp = used_int = issued = 0
        issued_now = []
        for i in ready:
            if data_ready[i] > t:
                continue
            f = dag.facts[i]
            if resource_aware:
                if issued >= rules.width:
                    break
                if f.is_mem and used_mem >= rules.max_mem:
                    continue
                if f.is_fp and used_fp >= rules.max_fp(body[i].ew):
                    continue
                if f.is_int and used_int >= rules.max_int:
                    continue
            issued += 1
            used_mem += f.is_mem
            used_fp += f.is_fp
            used_int += f.is_int
            issued_now.append(i)
            order.append(body[i])
            for dst, w in dag.succs[i]:
                data_ready[dst] = max(data_ready[dst], t + w)
                npreds[dst] -= 1
                if npreds[dst] == 0:
                    ready.append(dst)
            if not resource_aware:
                break
        for i in issued_now:
            ready.remove(i)
        if not issued_now:
            pending = [data_ready[i] for i in ready]
            t = min(pending) if pending and min(pending) > t else t + 1
        else:
            t += 1
    return pinned + order


@st.composite
def prefetched_program(draw):
    """A random program with PRFMs scattered through it (the scheduler
    pins them at the front)."""
    prog = draw(random_program())
    instrs = list(prog.instrs)
    for _ in range(draw(st.integers(0, 3))):
        instrs.insert(draw(st.integers(0, len(instrs))),
                      prfm(0, draw(st.integers(0, 7)) * 64))
    return Program("rand_pf", instrs, ew=EW, lanes=LANES)


MACHINES = (KUNPENG_920, XEON_GOLD_6240, A64FX)


@settings(max_examples=120, deadline=None)
@given(prog=st.one_of(random_program(), prefetched_program()),
       machine=st.sampled_from(MACHINES), resource_aware=st.booleans())
def test_heap_scheduler_matches_sort_every_cycle(prog, machine,
                                                 resource_aware):
    got = schedule_program(prog, machine, resource_aware).instrs
    assert got == reference_order(prog, machine, resource_aware)


def test_war_successor_freed_mid_cycle_issues_that_cycle():
    """Cycle 0 issues the ADDI and the VMOV.  The VMOV's issue frees the
    load that overwrites v1 (a zero-weight WAR edge), and that load
    takes cycle 0's free memory slot.  Cycle 1 then issues the higher
    priority load through the bumped x5.  Deferring freed instructions
    to the next cycle would put the two loads the other way round."""
    prog = Program("war", [
        vmov(2, 1),             # reads v1
        ldrv(1, 0, 0),          # WAR on v1: freed by the VMOV
        addi(5, 5, 16),         # feeds the x5 load one cycle later
        ldrv(6, 5, 0),
        fmul(7, 6, 6),          # makes the x5 load the critical one
    ], ew=EW, lanes=LANES)
    got = schedule_program(prog, XEON_GOLD_6240).instrs
    assert got == reference_order(prog, XEON_GOLD_6240, True)
    assert got == [prog[2], prog[0], prog[1], prog[3], prog[4]]
