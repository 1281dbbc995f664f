"""TuningDB consultation from the run-time stage: hit, miss, fallback."""

import json

import pytest

from repro import IATF, KUNPENG_920, obs
from repro.runtime.engine import Engine
from repro.tuning import TuningDB, sweep
from repro.tuning.db import TuningKey, TuningRecord, TUNER_VERSION
from repro.types import GemmProblem, TrsmProblem


@pytest.fixture(scope="module")
def tuned_db(tmp_path_factory):
    """A small real sweep persisted to disk, as installation would."""
    path = tmp_path_factory.mktemp("tuning") / "kunpeng920.tuning.json"
    db = TuningDB(path=str(path))
    sweep(db, KUNPENG_920, ops=("gemm", "trsm"), dtypes=("d",),
          sizes=(3, 6, 9, 12), batch=512)
    db.save()
    return str(path)


class TestLookups:
    def test_hit_applies_record_and_counts(self, tuned_db):
        iatf = IATF(KUNPENG_920, tuning_db=tuned_db)
        with obs.scoped() as reg:
            plan = iatf.plan_gemm(GemmProblem(9, 9, 9, "d", batch=512))
        assert plan.meta["decision"]["source"] == "tuned"
        assert plan.meta["decision"]["tuner_version"] == TUNER_VERSION
        assert reg.snapshot()["counters"]["tuning.hit"] == 1

    def test_miss_falls_back_to_analytic(self, tuned_db):
        iatf = IATF(KUNPENG_920, tuning_db=tuned_db)
        with obs.scoped() as reg:
            plan = iatf.plan_gemm(GemmProblem(31, 31, 31, "d", batch=512))
        assert plan.meta["decision"]["source"] == "analytic"
        assert reg.snapshot()["counters"]["tuning.miss"] == 1

    def test_no_db_means_no_lookup_counters(self):
        iatf = IATF(KUNPENG_920)
        with obs.scoped() as reg:
            iatf.plan_gemm(GemmProblem(9, 9, 9, "d", batch=512))
        counters = reg.snapshot()["counters"]
        assert "tuning.hit" not in counters
        assert "tuning.miss" not in counters

    def test_trsm_hit(self, tuned_db):
        iatf = IATF(KUNPENG_920, tuning_db=tuned_db)
        plan = iatf.plan_trsm(TrsmProblem(6, 6, "d", batch=512))
        assert plan.meta["decision"]["source"] == "tuned"

    def test_force_pack_bypasses_db(self, tuned_db):
        iatf = IATF(KUNPENG_920, tuning_db=tuned_db)
        with obs.scoped() as reg:
            forced = iatf.plan_gemm(GemmProblem(9, 9, 9, "d", batch=512),
                                    force_pack=True)
        assert "tuning.hit" not in reg.snapshot()["counters"]
        assert forced.meta["decision"]["source"] == "analytic"

    def test_legacy_compiled_backend_record_applies(self, tmp_path):
        """The record's ``backend`` column is provenance only: a record
        naming the removed ``compiled`` backend still loads, is applied
        as a tuned decision, and runs on the IATF's own backend."""
        import numpy as np

        p = GemmProblem(9, 9, 9, "d", batch=8)
        key = TuningKey.for_gemm(KUNPENG_920, p)
        rec = TuningRecord(main=(3, 4), force_pack=False, schedule=True,
                           cycles=1.0, gflops=1.0, candidates=4,
                           tuner_version=TUNER_VERSION, batch=8,
                           backend="compiled")
        db = TuningDB(path=str(tmp_path / "legacy.json"))
        db.put(key, rec)
        db.save()
        loaded = TuningDB.load(db.path)
        assert loaded.get(key).backend == "compiled"
        iatf = IATF(KUNPENG_920, tuning_db=loaded)
        plan = iatf.plan_gemm(p)
        assert plan.meta["decision"]["source"] == "tuned"
        assert plan.meta["decision"]["backend"] == "compiled"
        assert plan.meta["main_kernel"] == (3, 4)
        assert iatf.backend.name == "fused"
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 9, 9))
        b = rng.standard_normal((8, 9, 9))
        got = iatf.gemm(a, b, np.zeros((8, 9, 9)), beta=0.0)
        assert np.abs(got - a @ b).max() < 1e-9


class TestNeverWorse:
    def test_tuned_plans_never_slower_on_cycle_model(self, tuned_db):
        """Acceptance criterion, measured through the public API: for
        every swept shape the tuned plan's simulated cycles are <= the
        analytic plan's."""
        tuned = IATF(KUNPENG_920, tuning_db=tuned_db)
        analytic = IATF(KUNPENG_920)
        engine = Engine(KUNPENG_920)
        for n in (3, 6, 9, 12):
            p = GemmProblem(n, n, n, "d", batch=512)
            t = engine.time_plan(tuned.plan_gemm(p)).total_cycles
            a = engine.time_plan(analytic.plan_gemm(p)).total_cycles
            assert t <= a


class TestFallback:
    def test_corrupt_db_counts_fallback_and_plans_analytically(self,
                                                               tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ definitely not json")
        iatf = IATF(KUNPENG_920, tuning_db=str(path))
        assert iatf.tuning_db.corrupt
        with obs.scoped() as reg:
            plan = iatf.plan_gemm(GemmProblem(6, 6, 6, "d", batch=512))
        assert plan.meta["decision"]["source"] == "analytic"
        assert reg.snapshot()["counters"]["tuning.fallback"] == 1

    def test_infeasible_record_degrades_to_analytic(self, tmp_path):
        """A hand-edited record with a main the decomposer rejects must
        not propagate an exception out of plan_gemm."""
        db = TuningDB(path=str(tmp_path / "edited.json"))
        key = TuningKey.for_gemm(KUNPENG_920,
                                 GemmProblem(6, 6, 6, "d", batch=512))
        db.put(key, TuningRecord(main=(7, 7), force_pack=False,
                                 schedule=True, cycles=1.0, gflops=1.0,
                                 candidates=1, tuner_version=TUNER_VERSION,
                                 batch=512))
        db.save()
        iatf = IATF(KUNPENG_920, tuning_db=db.path)
        with obs.scoped() as reg:
            plan = iatf.plan_gemm(GemmProblem(6, 6, 6, "d", batch=512))
        assert plan.meta["decision"]["source"] == "analytic"
        assert reg.snapshot()["counters"]["tuning.fallback"] == 1


class TestCacheCoherence:
    def test_cache_key_includes_record_signature(self, tmp_path):
        """Swapping the DB entry for a shape must produce a fresh plan,
        not serve the one cached under the old record."""
        p = GemmProblem(9, 9, 9, "d", batch=512)
        key = TuningKey.for_gemm(KUNPENG_920, p)

        db = TuningDB(path=str(tmp_path / "db.json"))
        db.put(key, TuningRecord(main=(3, 3), force_pack=False,
                                 schedule=True, cycles=1.0, gflops=1.0,
                                 candidates=1, tuner_version=TUNER_VERSION,
                                 batch=512))
        iatf = IATF(KUNPENG_920, tuning_db=db)
        first = iatf.plan_gemm(p)
        assert first.meta["main_kernel"] == (3, 3)

        db.put(key, TuningRecord(main=(4, 4), force_pack=False,
                                 schedule=True, cycles=1.0, gflops=1.0,
                                 candidates=1, tuner_version=TUNER_VERSION,
                                 batch=512))
        second = iatf.plan_gemm(p)
        assert second.meta["main_kernel"] == (4, 4)

    def test_tuned_and_untuned_plans_coexist(self, tuned_db):
        p = GemmProblem(9, 9, 9, "d", batch=512)
        tuned = IATF(KUNPENG_920, tuning_db=tuned_db).plan_gemm(p)
        plain = IATF(KUNPENG_920).plan_gemm(p)
        assert tuned.meta["decision"]["source"] == "tuned"
        assert plain.meta["decision"]["source"] == "analytic"


class TestExplainProvenance:
    def test_tuned_provenance_rendered(self, tuned_db):
        iatf = IATF(KUNPENG_920, tuning_db=tuned_db)
        text = iatf.explain_gemm(GemmProblem(9, 9, 9, "d",
                                             batch=512)).render()
        assert "decision provenance" in text
        assert "tuned @ db v3" in text
        assert "candidates swept" in text

    def test_analytic_provenance_rendered(self):
        iatf = IATF(KUNPENG_920)
        text = iatf.explain_gemm(GemmProblem(9, 9, 9, "d",
                                             batch=512)).render()
        assert "analytic CMAR" in text

    def test_runtime_autotune_provenance_rendered(self):
        """Run-time tuning is ``retune`` into an in-memory DB; the plan
        it yields renders as tuned, with the retune sweep named."""
        iatf = IATF(KUNPENG_920, tuning_db=TuningDB())
        p = GemmProblem(9, 9, 9, "d", batch=512)
        iatf.retune(p, save=False)
        text = iatf.explain_gemm(p).render()
        assert "source: tuned" in text
        assert "sweep=retune" in text


class TestExecutionWithTunedPlans:
    def test_gemm_results_identical_with_and_without_db(self, tuned_db):
        """Tuning changes the schedule, never the mathematics."""
        import numpy as np

        rng = np.random.default_rng(7)
        a = rng.standard_normal((32, 9, 9))
        b = rng.standard_normal((32, 9, 9))
        c0 = np.zeros((32, 9, 9))
        tuned = IATF(KUNPENG_920, tuning_db=tuned_db)
        plain = IATF(KUNPENG_920)
        out_t = tuned.gemm(a, b, c0.copy(), beta=0.0)
        out_p = plain.gemm(a, b, c0.copy(), beta=0.0)
        np.testing.assert_allclose(out_t, out_p, rtol=1e-12)
        np.testing.assert_allclose(
            out_t, np.einsum("bij,bjk->bik", a, b), rtol=1e-10)
