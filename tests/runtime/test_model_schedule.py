"""Execution runs the generated kernels; only the cycle model schedules.

The registry caches programs in the generators' template order, plans
and every executor consume them as they are, and
:meth:`Engine.time_plan` times each program in the kernel optimizer's
order (memoized per engine), unless the plan's ``schedule`` bit (set
from a tuned record or a tuning candidate) asks for template order.
"""

import sys

import numpy as np
import pytest

from perfbench.grids import FULL
from repro import IATF, KUNPENG_920
from repro.codegen import optimizer
from repro.codegen.registry import KernelRegistry
from repro.runtime.engine import Engine
from repro.tuning import TuningDB
from repro.tuning.db import TUNER_VERSION, TuningKey, TuningRecord
from repro.tuning.evaluate import Evaluator
from repro.tuning.space import Candidate
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import random_batch, random_triangular


@pytest.fixture
def schedule_calls(monkeypatch):
    """Every program handed to ``schedule_program``, through whichever
    module imported it."""
    real = optimizer.schedule_program
    calls = []

    def spy(prog, *args, **kwargs):
        calls.append(prog)
        return real(prog, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(mod, "schedule_program", None) is real):
            monkeypatch.setattr(mod, "schedule_program", spy)
    return calls


def _run(iatf, p, rng):
    """One NumPy-in, NumPy-out call of ``p`` through ``iatf``."""
    dt = p.dtype.value
    if isinstance(p, GemmProblem):
        return iatf.gemm(random_batch(rng, p.batch, *p.a_shape, dt),
                         random_batch(rng, p.batch, *p.b_shape, dt),
                         random_batch(rng, p.batch, *p.c_shape, dt),
                         p.alpha, p.beta, p.transa, p.transb)
    a = random_triangular(rng, p.batch, p.a_dim, dt, p.uplo.value)
    return iatf.trsm(a, random_batch(rng, p.batch, *p.b_shape, dt), p.alpha,
                     p.side, p.uplo, p.transa, p.diag)


COLD = FULL.cold[::6]


def test_execute_path_never_schedules(schedule_calls):
    """Planning, lowering, replay and generated code, on first-seen
    GEMM and TRSM shapes of every dtype, run no scheduler at all."""
    assert {type(p) for p in COLD} == {GemmProblem, TrsmProblem}
    iatf = IATF(KUNPENG_920)
    rng = np.random.default_rng(5)
    for p in COLD:
        for _ in range(2):          # replay, then the generated code
            _run(iatf, p, rng)
    assert len(iatf.registry) > 0
    assert schedule_calls == []


def test_time_gemm_schedules_each_program_once(schedule_calls):
    iatf = IATF(KUNPENG_920)
    p = GemmProblem(12, 7, 5, "d", batch=64)      # 3 x 2 tiles
    first = iatf.time_gemm(p)
    distinct = {id(c.program): c.program for c in first.plan.calls}
    assert len(first.plan.calls) > len(distinct) > 1
    assert sorted(map(id, schedule_calls)) == sorted(distinct)
    again = iatf.time_gemm(p)
    assert len(schedule_calls) == len(distinct)
    assert again.total_cycles == first.total_cycles


@pytest.fixture
def unscheduled_db():
    """A TuningDB whose one record keeps the analytic decisions but
    asks for the template order."""
    p = GemmProblem(9, 9, 9, "d", batch=16)
    rec = TuningRecord(main=KernelRegistry(KUNPENG_920).main_gemm_kernel("d"),
                       force_pack=False, schedule=False, cycles=1.0,
                       gflops=1.0, candidates=2,
                       tuner_version=TUNER_VERSION, batch=16)
    db = TuningDB()
    db.put(TuningKey.for_gemm(KUNPENG_920, p), rec)
    return p, db


def test_unscheduled_record_executes_the_analytic_bits(unscheduled_db):
    p, db = unscheduled_db
    tuned, analytic = IATF(KUNPENG_920, tuning_db=db), IATF(KUNPENG_920)
    plan = tuned.plan_gemm(p)
    assert plan.meta["decision"]["source"] == "tuned"
    assert plan.schedule is False
    for seed in (1, 1, 2):          # replay, then the generated code
        got = _run(tuned, p, np.random.default_rng(seed))
        want = _run(analytic, p, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def test_unscheduled_record_times_the_template_order(unscheduled_db):
    p, db = unscheduled_db
    iatf = IATF(KUNPENG_920, tuning_db=db)
    cand = Candidate(iatf.registry.main_gemm_kernel("d"), schedule=False)
    want = Engine(KUNPENG_920).time_plan(
        Evaluator(KUNPENG_920).build_plan(p, cand))
    got = iatf.time_gemm(p)
    assert got.total_cycles == want.total_cycles
    assert got.kernel_cycles_per_group == want.kernel_cycles_per_group
    # the bit reaches the model: the scheduled order times faster
    assert IATF(KUNPENG_920).time_gemm(p).total_cycles < got.total_cycles


def test_unscheduled_record_shares_the_one_registry(unscheduled_db):
    p, db = unscheduled_db
    iatf = IATF(KUNPENG_920, tuning_db=db)
    tuned = iatf.plan_gemm(p)
    analytic = iatf.plan_gemm(p, force_pack=True)   # bypasses the DB
    assert analytic.schedule and not tuned.schedule
    registries = [v for v in vars(iatf).values()
                  if isinstance(v, KernelRegistry)]
    assert registries == [iatf.registry]
    # packing moves buffers, not kernels: both plans call the same
    # generated programs
    assert [id(c.program) for c in tuned.calls] == \
        [id(c.program) for c in analytic.calls]
