"""Drift-triggered online re-tuning: record swap, plan-cache
invalidation, DB self-heal."""

from repro import IATF, KUNPENG_920
from repro import obs
from repro.tuning.db import TuningDB
from repro.tuning.tuner import tune_problem
from repro.types import GemmProblem

PROBLEM = GemmProblem(6, 6, 6, "d", batch=512)


def _tuned_iatf(tmp_path):
    """An IATF over a saved DB holding one tuned GEMM record."""
    db = TuningDB(path=str(tmp_path / "tuning.json"))
    out = tune_problem(PROBLEM, KUNPENG_920, timestamp=1.0)
    db.put(out.key, out.record)
    db.save()
    return IATF(KUNPENG_920, tuning_db=db), out


class TestRetune:
    def test_swaps_record_and_persists(self, tmp_path):
        iatf, old = _tuned_iatf(tmp_path)
        out = iatf.retune(PROBLEM, timestamp=99.0)
        assert out is not None
        assert out.record.sweep == "retune"
        assert out.record.timestamp == 99.0
        # the swap hit both the live DB and the file
        assert iatf.tuning_db.get(old.key) == out.record
        reloaded = TuningDB.load(iatf.tuning_db.path)
        assert reloaded.get(old.key) == out.record

    def test_invalidates_cached_plans(self, tmp_path):
        iatf, _ = _tuned_iatf(tmp_path)
        plan = iatf.plan_gemm(PROBLEM)
        assert iatf.plan_gemm(PROBLEM) is plan          # cached
        # same shape at another batch caches separately but must also go
        iatf.plan_gemm(PROBLEM.with_batch(64))
        iatf.retune(PROBLEM)
        assert iatf.plan_cache_stats["invalidations"] >= 2
        assert iatf.plan_gemm(PROBLEM) is not plan      # re-planned

    def test_unrelated_plans_survive(self, tmp_path):
        iatf, _ = _tuned_iatf(tmp_path)
        other = GemmProblem(9, 9, 9, "d", batch=512)
        kept = iatf.plan_gemm(other)
        iatf.retune(PROBLEM)
        assert iatf.plan_gemm(other) is kept

    def test_no_db_is_counted_not_fatal(self):
        iatf = IATF(KUNPENG_920)
        with obs.scoped() as reg:
            assert iatf.retune(PROBLEM) is None
        counters = reg.snapshot()["counters"]
        assert counters["tuning.retune.skipped"] == 1

    def test_corrupt_db_self_heals(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        iatf = IATF(KUNPENG_920, tuning_db=str(path))
        assert iatf.tuning_db.corrupt
        with obs.scoped() as reg:
            out = iatf.retune(PROBLEM)
        assert out is not None
        assert not iatf.tuning_db.corrupt
        assert reg.snapshot()["counters"]["tuning.retune.db_reset"] == 1
        assert not TuningDB.load(path).corrupt          # healed on disk

    def test_events_tell_the_story(self, tmp_path):
        iatf, _ = _tuned_iatf(tmp_path)
        iatf.plan_gemm(PROBLEM)                 # a cached plan to drop
        with obs.scoped() as reg:
            iatf.retune(PROBLEM)
            names = [e["name"]
                     for e in reg.events.tail(prefix="tuning.retune.")]
        assert "tuning.retune.scheduled" in names
        assert "tuning.retune.swapped" in names
        counters = reg.snapshot()["counters"]
        for name in ("tuning.retune.scheduled", "tuning.retune.swapped",
                     "tuning.retune.plans_invalidated"):
            assert counters.get(name, 0) > 0, name
