"""The lowered contract: what ``fused`` executes, and what it refuses.

Every stream the executors run (a template's ``wave_form``) holds only
the ten kinds they implement, with every copy in 16-byte units; a
program outside the contract fails at lower time, naming its kernel, pc
and instruction, and still runs on ``interpret``, the oracle.
"""

import numpy as np
import pytest

from perfbench.grids import FULL
from repro import IATF, KUNPENG_920
from repro.codegen import regs
from repro.errors import LoweringError
from repro.extensions import CompactTrmm
from repro.machine import isa
from repro.runtime import lowering as L
from repro.types import GemmProblem, TrmmProblem, TrsmProblem
from tests.runtime.test_lowering_passes import (EW, hand_plan, operands,
                                                run_plan)

EXECUTED = frozenset((L.K_FMLA, L.K_FMLS, L.K_FMUL, L.K_FMAI, L.K_FMULI,
                      L.K_VZERO, L.K_VMOV, L.K_MACC, L.K_LOADW, L.K_STOREW))
RAW = frozenset((L.K_LOAD, L.K_LOADPAIR, L.K_STORE, L.K_STOREPAIR,
                 L.K_FMLA, L.K_FMLS, L.K_FMUL, L.K_FMAI, L.K_FMULI,
                 L.K_VZERO, L.K_VMOV))


def _modes():
    out = []
    for dt in "sdcz":
        out += [GemmProblem(5, 7, 3, dt, batch=9),
                GemmProblem(9, 4, 6, dt, "T", "T", batch=9, alpha=1.5,
                            beta=0.5)]
        out += [TrsmProblem(7, 5, dt, *mode, batch=9)
                for mode in ("LLNN", "LUTN", "RLNU", "RUTU")]
    return out


def _compiled(problems):
    fw = IATF(KUNPENG_920)
    for p in problems:
        plan = (fw.plan_gemm(p) if isinstance(p, GemmProblem)
                else fw.plan_trsm(p))
        yield p, L.lower_plan(plan, fw.engine.templates)
    trmm = CompactTrmm(KUNPENG_920)
    p = TrmmProblem(6, 5, "d", "R", "U", "T", "N", batch=5, alpha=1.5)
    yield p, L.lower_plan(trmm.plan(p))


def _check_vocabulary(p, compiled):
    for tpl in compiled.templates:
        assert {c[0] for c in tpl.raw} <= RAW, p
        stream = tpl.wave_form[0]
        assert {c[0] for c in stream} <= EXECUTED, p
        for cmd in stream:
            if cmd[0] in (L.K_LOADW, L.K_STOREW):
                _, _, _, first, n, _, cfirst = cmd
                assert n == compiled.lanes, p
                assert cfirst >= 0 and cfirst * 16 == first * compiled.ew, p


@pytest.mark.parametrize("grid", ["cold", "bulk", "modes"])
def test_executed_streams_hold_only_the_ten_kinds(grid):
    problems = {"cold": FULL.cold, "bulk": FULL.bulk,
                "modes": _modes()}[grid]
    for p, compiled in _compiled(problems):
        _check_vocabulary(p, compiled)


# one kernel outside the contract per case: (instructions, strides, the
# error's pc, instruction and reason, what interpret leaves in c[:4])
A, C = regs.PA, regs.pc(0)
OUTSIDE = {
    "ld1r": ([isa.ld1r(0, A, 4, ew=EW), isa.strv(0, C, 0, ew=EW)], None,
             r"@pc=0 \(ld1r  v0.4s, \[x0, #4\]\) \[call 0\]: LD1R is not "
             r"lowered",
             lambda a: np.repeat(a[:, 1:2], 4, axis=1)),
    "fdiv": ([isa.ldrv(0, A, 0, ew=EW), isa.ldrv(1, A, 16, ew=EW),
              isa.fdiv(2, 0, 1, ew=EW), isa.strv(2, C, 0, ew=EW)], None,
             r"@pc=2 \(fdiv  v2.4s, v0.4s, v1.4s\) \[call 0\]: FDIV is not "
             r"lowered",
             lambda a: a[:, :4] / a[:, 4:8]),
    "partial-lane": (
        [isa.ldrv(0, A, 0, ew=EW, nlanes=2), isa.strv(0, C, 0, ew=EW)],
        None,
        r"@pc=0 \(ldrv  v0.4s, \[x0, #0\]\) \[call 0\]: partial-lane "
        r"access \(2 of 4 lanes\) is not lowered",
        lambda a: np.concatenate([a[:, :2], np.zeros_like(a[:, :2])], 1)),
    "misaligned-stride": (
        [isa.ldrv(0, A, 0, ew=EW), isa.strv(0, C, 0, ew=EW)],
        {"a": 136},
        r"@pc=0 \(ldrv  v0.4s, \[x0, #0\]\) \[call 0\]: buffer 'a' group "
        r"stride 136 B is not a multiple of 16 B",
        lambda a: a[:, :4]),
}


@pytest.mark.parametrize("case", OUTSIDE)
def test_outside_the_contract_fails_to_lower_and_runs_on_interpret(case,
                                                                   rng):
    instrs, strides, message, want = OUTSIDE[case]
    plan = hand_plan(instrs, strides)
    data = operands(rng, plan)
    with pytest.raises(LoweringError, match=r"^synthetic " + message):
        run_plan(plan, "fused", {k: v.copy() for k, v in data.items()})
    a = data["a"].copy()
    run_plan(plan, "interpret", data)
    assert np.array_equal(data["c"][:, :4], want(a))
