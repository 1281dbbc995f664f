"""Evaluator: cycle-model measurements, wall-clock provenance."""

import pytest

from repro.machine.machines import KUNPENG_920
from repro.runtime.engine import Engine
from repro.runtime.plan import build_gemm_plan
from repro.tuning.evaluate import Evaluator, Measurement
from repro.tuning.space import Candidate
from repro.types import GemmProblem, TrsmProblem


@pytest.fixture(scope="module")
def ev():
    return Evaluator(KUNPENG_920)


class TestCycleModel:
    def test_matches_engine_time_plan(self, ev):
        """The evaluator's metric is exactly the runtime's cycle model
        on exactly the runtime's plan — nothing bespoke in between."""
        p = GemmProblem(6, 6, 6, "d", batch=256)
        cand = Candidate(main=(3, 3))
        meas = ev.evaluate(p, cand)
        plan = build_gemm_plan(p, KUNPENG_920, ev.registry,
                               main_override=(3, 3))
        assert meas.cycles == Engine(KUNPENG_920).time_plan(plan).total_cycles

    def test_deterministic_across_repeats(self):
        p = GemmProblem(8, 8, 8, "d", batch=256)
        one = Evaluator(KUNPENG_920, repeats=1).evaluate(p, Candidate((4, 4)))
        five = Evaluator(KUNPENG_920, repeats=5).evaluate(p, Candidate((4, 4)))
        assert one.cycles == five.cycles
        assert five.repeats == 5

    def test_time_plan_is_deterministic(self, ev):
        """Why one cycle-model timing per candidate suffices: timing the
        same plan twice gives equal figures, field for field."""
        from dataclasses import asdict
        for p, cand in ((GemmProblem(7, 5, 6, "s", batch=256),
                         Candidate(None)),
                        (TrsmProblem(5, 4, "z", batch=64), Candidate(None))):
            plan = ev.build_plan(p, cand)
            engine = Engine(KUNPENG_920)
            a, b = engine.time_plan(plan), engine.time_plan(plan)
            assert a.plan is b.plan
            assert asdict(a.detail) == asdict(b.detail)
            assert ((a.kernel_cycles_per_group, a.pack_cycles,
                     a.unpack_cycles, a.overhead_cycles, a.total_cycles)
                    == (b.kernel_cycles_per_group, b.pack_cycles,
                        b.unpack_cycles, b.overhead_cycles, b.total_cycles))

    def test_cycle_model_timed_once_per_candidate(self, monkeypatch):
        ev5 = Evaluator(KUNPENG_920, repeats=5)
        calls = []
        real = ev5._engine.time_plan
        monkeypatch.setattr(ev5._engine, "time_plan",
                            lambda plan: calls.append(plan) or real(plan))
        meas = ev5.evaluate(GemmProblem(4, 4, 4, "d", batch=64),
                            Candidate((4, 4)))
        assert len(calls) == 1
        assert meas.repeats == 5

    def test_trsm_candidates(self, ev):
        p = TrsmProblem(4, 4, "d", batch=256)
        auto = ev.evaluate(p, Candidate(None))
        packed = ev.evaluate(p, Candidate(None, force_pack=True))
        assert auto.cycles > 0 and packed.cycles > 0

    def test_gflops_positive(self, ev):
        meas = ev.evaluate(GemmProblem(4, 4, 4, "d", batch=256),
                           Candidate((4, 4)))
        assert meas.gflops > 0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            Evaluator(KUNPENG_920, repeats=0)

    def test_one_registry_serves_both_schedules(self, ev):
        """A candidate's ``schedule`` bit rides on its plan; both orders
        call the same generated programs from the one registry."""
        p = GemmProblem(9, 7, 5, "d", batch=64)
        on = ev.build_plan(p, Candidate((4, 4)))
        off = ev.build_plan(p, Candidate((4, 4), schedule=False))
        assert on.schedule and not off.schedule
        assert all(a.program is b.program
                   for a, b in zip(on.calls, off.calls, strict=True))
        assert ev.evaluate(p, Candidate((4, 4))).cycles < \
            ev.evaluate(p, Candidate((4, 4), schedule=False)).cycles


class TestWallClock:
    def test_wall_clock_recorded_as_provenance(self):
        ev = Evaluator(KUNPENG_920, wall_clock=True)
        meas = ev.evaluate(GemmProblem(4, 4, 4, "d", batch=64),
                           Candidate((4, 4)))
        assert meas.wall_seconds is not None
        assert meas.wall_seconds > 0

    def test_wall_clock_off_by_default(self):
        meas = Evaluator(KUNPENG_920).evaluate(
            GemmProblem(4, 4, 4, "d", batch=64), Candidate((4, 4)))
        assert meas.wall_seconds is None

    def test_trsm_wall_clock(self):
        ev = Evaluator(KUNPENG_920, wall_clock=True)
        meas = ev.evaluate(TrsmProblem(4, 4, "d", batch=64),
                           Candidate(None))
        assert meas.wall_seconds > 0
