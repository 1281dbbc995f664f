"""repro.tuning — the install-time autotuning subsystem.

The paper's install-time stage pre-builds kernels; this subsystem makes
it *input-aware* end to end by empirically searching the run-time
stage's decision space per machine and persisting the winners:

* :mod:`repro.tuning.space` — enumerate the candidate space per
  (op, dtype, size-class) — register-feasible main kernels under the
  CMAR budget, pack-vs-nopack, schedule variants —
  and *rank* it analytically (:func:`score_candidate` /
  :func:`rank_candidates`: occupancy, cache residency, issue-slot
  balance from the machine model) so only a top-k needs measuring;
* :mod:`repro.tuning.evaluate` — measure candidates on the machine
  simulator's cycle model (optionally also default-backend wall
  clock), with repeat/median controls;
* :mod:`repro.tuning.db` — the schema-versioned, fleet-ready
  :class:`TuningDB` (atomic writes, corruption -> graceful fallback,
  per-record provenance, deterministic :meth:`TuningDB.merge` /
  :meth:`TuningDB.diff` across machines);
* :mod:`repro.tuning.tuner` — the analytical-first sweep orchestrator
  (top-k measurement, default :data:`DEFAULT_TOP_K`) with the
  "tuned is never worse than analytic" selection invariant;
* ``python -m repro.tuning`` — ``sweep`` / ``show`` / ``export`` /
  ``merge`` / ``diff`` / ``import`` CLI.

Quick start::

    from repro import IATF
    from repro.machine.machines import KUNPENG_920
    from repro.tuning import TuningDB, sweep

    db = TuningDB(path="kunpeng920.tuning.json")
    sweep(db, KUNPENG_920, ops=("gemm",), dtypes=("d",),
          sizes=range(1, 34))
    db.save()

    iatf = IATF(KUNPENG_920, tuning_db="kunpeng920.tuning.json")
    plan = iatf.plan_gemm(...)     # tuned decisions, analytic fallback

See ``docs/autotuning.md`` for the DB schema and design notes.
"""

from .db import (LEGACY_SCHEMAS, SCHEMA_VERSION, TUNER_VERSION, TuningDB,
                 TuningKey, TuningRecord)
from .evaluate import EVALUATOR_VERSION, Evaluator, Measurement
from .space import (AnalyticScore, Candidate, enumerate_gemm_space,
                    enumerate_trsm_space, feasible_gemm_mains, full_space,
                    rank_candidates, score_candidate, size_class)
from .tuner import (DEFAULT_TOP_K, DEFAULT_TUNED_BACKEND, TuneOutcome,
                    sweep, tune_problem)

__all__ = [
    "SCHEMA_VERSION", "LEGACY_SCHEMAS", "TUNER_VERSION",
    "EVALUATOR_VERSION",
    "TuningDB", "TuningKey", "TuningRecord",
    "Evaluator", "Measurement",
    "Candidate", "AnalyticScore", "enumerate_gemm_space",
    "enumerate_trsm_space", "feasible_gemm_mains", "full_space",
    "score_candidate", "rank_candidates", "size_class",
    "TuneOutcome", "sweep", "tune_problem",
    "DEFAULT_TOP_K", "DEFAULT_TUNED_BACKEND",
]
