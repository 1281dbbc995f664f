"""The IATF framework object: install-time + run-time stages in one place.

This is the library's main entry point::

    from repro import IATF, machines
    iatf = IATF(machines.KUNPENG_920)
    iatf.install()                       # install-time stage (optional)
    C = iatf.gemm(A, B, C, alpha=1.0)    # run-time stage: plan + execute
    t = iatf.time_gemm(problem)          # cycle-model performance

Plans are cached per problem configuration, mirroring the paper's
run-time stage generating the execution plan once and amortizing it
over the batch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .. import obs
from ..codegen.registry import KernelRegistry
from ..errors import InvalidProblemError
from ..layout.compact import CompactBatch, StandardBatch
from ..machine.machines import KUNPENG_920, MachineConfig
from ..types import BlasDType, Diag, GemmProblem, Side, Trans, TrsmProblem, UpLo
from .backends import FusedBackend, InterpretBackend
from .engine import Engine, PlanTiming
from .lowering import CompiledPlan, lower_plan
from .plan import ExecutionPlan, build_gemm_plan, build_trsm_plan

__all__ = ["IATF", "PlanCache"]


class PlanCache:
    """Bounded, thread-safe LRU map from problem-configuration keys to
    plans — and to their lowered :class:`CompiledPlan`, which rides in a
    side slot of the same entry so one eviction drops both.

    The paper amortizes plan generation over the batch, so hits are the
    common case; the bound exists so a long-lived service sweeping many
    shapes cannot grow without limit.  Hit/miss/eviction totals are
    kept unconditionally (plain ints, negligible cost) and mirrored
    into the obs registry when instrumentation is enabled.  All
    operations take one re-entrant lock, making concurrent planning
    from multiple threads safe (worst case: two threads race to build
    the same plan and the second ``put`` wins — wasted work, never a
    corrupt cache; the fresh plan drops any lowering of the old one).
    Lowerings are different: ``put_compiled`` keeps the first one
    attached to an entry and hands it to later callers, so concurrent
    first executes of one plan share one :class:`CompiledPlan` and the
    executes counted on it.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("plan cache needs room for at least one plan")
        self.maxsize = maxsize
        # key -> [plan, compiled-or-None]
        self._data: "OrderedDict[tuple, list]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple) -> "ExecutionPlan | None":
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                obs.count("plan_cache.misses")
                obs.gauge("plan_cache.hit_rate", round(self.hit_rate, 6))
                return None
            self._data.move_to_end(key)
            self.hits += 1
            obs.count("plan_cache.hits")
            obs.gauge("plan_cache.hit_rate", round(self.hit_rate, 6))
            return entry[0]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any
        lookup) — the one number a service operator watches to confirm
        plan reuse is happening.  Mirrored into the
        ``plan_cache.hit_rate`` gauge (and thus ``/snapshot.json`` and
        ``/metrics``) on every instrumented lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def put(self, key: tuple, plan: ExecutionPlan) -> None:
        with self._lock:
            # a fresh plan invalidates any lowering cached for the key
            self._data[key] = [plan, None]
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                old_key, _ = self._data.popitem(last=False)
                self.evictions += 1
                obs.count("plan_cache.evictions")
                obs.event("plan_cache.evict", key=str(old_key),
                          maxsize=self.maxsize)
            obs.gauge("plan_cache.size", len(self._data))

    def get_compiled(self, key: tuple) -> "CompiledPlan | None":
        """The cached lowering for ``key``, if the plan is still cached
        and has been lowered."""
        with self._lock:
            entry = self._data.get(key)
            return None if entry is None else entry[1]

    def put_compiled(self, key: tuple,
                     compiled: "CompiledPlan") -> "CompiledPlan":
        """Attach a lowering to an already-cached plan and return the
        one the entry holds: a lowering attached first (by a concurrent
        first execute) wins, so every caller shares one.  A plan evicted
        meanwhile caches nothing and ``compiled`` comes back."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return compiled
            if entry[1] is None:
                entry[1] = compiled
            return entry[1]

    def invalidate(self, match) -> int:
        """Drop every entry whose key satisfies ``match(key)``; returns
        how many were removed.  This is the online re-tuning hook: when
        a DB record is swapped, the plans built from the *old* record
        must go, or a long-lived service would keep replaying the stale
        decision until eviction happened to reach it."""
        with self._lock:
            doomed = [k for k in self._data if match(k)]
            for k in doomed:
                del self._data[k]
            if doomed:
                self.invalidations += len(doomed)
                obs.count("plan_cache.invalidations", len(doomed))
                obs.gauge("plan_cache.size", len(self._data))
        return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "hit_rate": self.hit_rate,
                    "evictions": self.evictions,
                    "invalidations": self.invalidations}


class IATF:
    """Input-aware tuning framework for compact batched GEMM/TRSM.

    **Concurrency contract** (the service frontend in
    :mod:`repro.serve` shares one instance across request streams):
    ``plan_gemm`` / ``plan_trsm`` → ``gemm_compact`` / ``trsm_compact``
    are safe to call from multiple threads concurrently, for mixed
    routines and dtypes.  The pieces that make this true: the
    :class:`PlanCache` serializes every operation under one lock (a
    planning race wastes one duplicate build, never corrupts), the
    :class:`~repro.codegen.registry.KernelRegistry` generates kernels
    under its own lock, plans are immutable once cached (meta is
    complete before ``put``), and the engine binds a fresh
    :class:`~repro.machine.memory.MemorySpace` per execution so no
    run-time state is shared between concurrent ``run_plan`` calls.
    ``retune`` swaps DB records atomically and invalidates under the
    cache lock, so it may run concurrently with serving.
    """

    def __init__(self, machine: MachineConfig = KUNPENG_920, *,
                 backend: "str | None" = None,
                 plan_cache_size: int = 1024,
                 tuning_db=None) -> None:
        self.machine = machine
        self.registry = KernelRegistry(machine)
        self.engine = Engine(machine, backend=backend)
        self._plan_cache = PlanCache(plan_cache_size)
        self._tuning_db = (self._load_tuning_db(tuning_db)
                           if tuning_db is not None else None)

    @staticmethod
    def _load_tuning_db(source):
        """Accept a path (loaded through the never-raises loader) or an
        already-constructed :class:`repro.tuning.db.TuningDB`."""
        # imported lazily: repro.tuning imports this module's siblings
        from ..tuning.db import TuningDB

        if isinstance(source, TuningDB):
            return source
        return TuningDB.load(source)

    @property
    def tuning_db(self):
        """The attached TuningDB, or ``None`` (analytic-only planning)."""
        return self._tuning_db

    @property
    def backend(self) -> "InterpretBackend | FusedBackend":
        """The executor backend plans run on (``iatf.backend.name``)."""
        return self.engine.backend

    # -- install-time stage ---------------------------------------------

    def install(self, dtypes=("s", "d", "c", "z")) -> int:
        """Pre-generate the Table 1 kernel inventory; returns cache size."""
        return self.registry.install(dtypes=dtypes)

    # -- planning ---------------------------------------------------------

    def plan_gemm(self, problem: GemmProblem,
                  force_pack: bool = False) -> ExecutionPlan:
        """Build (and cache) the execution plan for a problem shape.

        When a :class:`~repro.tuning.db.TuningDB` is attached, the
        record for this shape (if any) drives the main kernel and pack
        decisions; a miss — or a corrupt DB — falls back to the
        analytic CMAR choice, so tuning can only ever *refine*
        planning, never break it.  Run-time tuning is :meth:`retune`
        on an attached DB (an in-memory ``TuningDB()`` will do): it
        measures the analytically ranked top-k candidates on the
        machine model and swaps the winner in for the next plan.
        """
        return self._plan_gemm_keyed(problem, force_pack)[0]

    def _plan_gemm_keyed(self, problem: GemmProblem, force_pack: bool
                         ) -> "tuple[ExecutionPlan, tuple, bool]":
        """The plan, its cache key, and whether this lookup hit the
        cache (taken from the lookup itself: the shared hit counter
        also moves on other threads' hits)."""
        record = (None if force_pack
                  else self._tuned_record("gemm", problem))
        key = self._cache_key("gemm", problem, force_pack, record)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan, key, True
        with obs.span("plan.gemm", tuned=record is not None):
            if record is not None:
                plan = self._apply_tuned_gemm(problem, record)
            else:
                plan = build_gemm_plan(problem, self.machine, self.registry,
                                       force_pack)
                plan.meta["decision"] = {"source": "analytic"}
        # meta is complete before the plan becomes visible to other
        # callers through the cache
        self._plan_cache.put(key, plan)
        return plan, key, False

    # -- TuningDB consultation --------------------------------------------

    def _tuned_record(self, op: str, problem):
        """The install-time record for this shape, or ``None`` — with
        the ``tuning.hit`` / ``tuning.miss`` / ``tuning.fallback``
        counters narrating which way each lookup went."""
        db = self._tuning_db
        if db is None:
            return None
        if db.corrupt:
            obs.count("tuning.fallback")
            obs.event("tuning.fallback", level="warn", op=op,
                      reason=f"corrupt TuningDB: {db.corrupt_reason}")
            return None
        record = db.get(self._tuning_key(op, problem))
        obs.count("tuning.hit" if record is not None else "tuning.miss")
        return record

    def _tuning_key(self, op: str, problem):
        """The DB key for this shape on *this* machine configuration —
        keyed by ``tuning_id`` (id + physical fingerprint), so a
        same-named machine with different clocks or caches can never be
        served this machine's schedules."""
        from ..tuning.db import TuningKey

        if op == "gemm":
            return TuningKey.for_gemm(self.machine, problem)
        return TuningKey.for_trsm(self.machine, problem)

    # -- online re-tuning --------------------------------------------------

    def retune(self, problem, *, reason: str = "drift",
               top_k: "int | None" = None, save: bool = True,
               timestamp: float = 0.0):
        """Bounded re-sweep for one shape, swapping the DB record and
        invalidating the stale cached plans — the run-time half of the
        drift loop (``python -m repro.obs profile --drift`` detects,
        ``retune`` corrects).

        The sweep is the analytical-first top-k one (``top_k=None``
        takes the tuner default), so a retune costs a handful of
        cycle-model measurements, never the exhaustive space.  The new
        record is swapped in atomically (``db.save`` is
        write-temp-then-rename) and every PlanCache entry whose shape
        maps to the retuned :class:`TuningKey` is dropped, so the next
        call re-plans from the fresh record.  A corrupt DB is reset
        (self-healed) first: re-tuning is exactly the moment fresh
        records replace untrustworthy ones.  Returns the
        :class:`~repro.tuning.tuner.TuneOutcome`, or ``None`` when no
        DB is attached (nothing to swap — counted and evented, never an
        error).
        """
        from ..tuning.tuner import DEFAULT_TOP_K, tune_problem

        op = "gemm" if isinstance(problem, GemmProblem) else "trsm"
        obs.count("tuning.retune.scheduled")
        obs.event("tuning.retune.scheduled", op=op, reason=reason,
                  m=problem.m, n=problem.n,
                  k=getattr(problem, "k", 0),
                  dtype=problem.dtype.value)
        db = self._tuning_db
        if db is None:
            obs.count("tuning.retune.skipped")
            obs.event("tuning.retune.skipped", level="warn", op=op,
                      reason="no TuningDB attached")
            return None
        if db.corrupt:
            obs.count("tuning.retune.db_reset")
            obs.event("tuning.retune.db_reset", level="warn",
                      reason=db.corrupt_reason)
            db.reset()
        key = self._tuning_key(op, problem)
        old = db.get(key)
        outcome = tune_problem(
            problem, self.machine,
            top_k=top_k if top_k is not None else DEFAULT_TOP_K,
            sweep_label="retune", timestamp=timestamp)
        db.put(outcome.key, outcome.record)
        if save and db.path is not None:
            db.save()
        invalidated = self._plan_cache.invalidate(
            lambda cache_key: self._cache_key_matches(cache_key, key))
        obs.count("tuning.retune.swapped")
        if invalidated:
            obs.count("tuning.retune.plans_invalidated", invalidated)
        obs.event("tuning.retune.swapped", op=op, reason=reason,
                  key=key.encode(), plans_invalidated=invalidated,
                  old_cycles=old.cycles if old is not None else None,
                  new_cycles=outcome.record.cycles,
                  candidates=outcome.record.candidates)
        return outcome

    def _cache_key_matches(self, cache_key: tuple,
                           tuning_key) -> bool:
        """Does a PlanCache key's problem map to ``tuning_key``?

        Rebuilds the TuningKey from the cached problem, so the match is
        batch-independent exactly like DB lookups are — a retune
        triggered at batch 512 invalidates the batch-16384 plan of the
        same shape."""
        op, problem = cache_key[0], cache_key[1]
        if op not in ("gemm", "trsm"):
            return False
        return self._tuning_key(op, problem) == tuning_key

    def _decision_meta(self, record) -> dict:
        db = self._tuning_db
        return {
            "source": "tuned",
            "db_schema": db.version,
            "tuner_version": record.tuner_version,
            "candidates": record.candidates,
            "cycles": record.cycles,
            "batch": record.batch,
            "main": record.main,
            "force_pack": record.force_pack,
            "schedule": record.schedule,
            "backend": record.backend,
            # schema-v3 provenance (zero/empty on legacy records)
            "machine_id": record.machine_id,
            "sweep": record.sweep,
            "evaluator_version": record.evaluator_version,
            "timestamp": record.timestamp,
            "space": record.space,
        }

    def _apply_tuned_gemm(self, problem: GemmProblem,
                          record) -> ExecutionPlan:
        try:
            plan = build_gemm_plan(
                problem, self.machine, self.registry,
                main_override=record.main,
                tuned_pack=record.force_pack or None,
                schedule=record.schedule)
        except Exception as exc:
            # a hand-edited record can carry decisions the planner
            # rejects (e.g. a main size the decomposer cannot use);
            # degrade to analytic, never propagate
            obs.count("tuning.fallback")
            obs.event("tuning.fallback", level="warn", op="gemm",
                      reason=f"tuned record rejected: {exc}",
                      main=list(record.main))
            plan = build_gemm_plan(problem, self.machine, self.registry)
            plan.meta["decision"] = {"source": "analytic"}
            return plan
        plan.meta["decision"] = self._decision_meta(record)
        return plan

    def plan_trsm(self, problem: TrsmProblem,
                  force_pack: bool = False) -> ExecutionPlan:
        return self._plan_trsm_keyed(problem, force_pack)[0]

    def _plan_trsm_keyed(self, problem: TrsmProblem, force_pack: bool
                         ) -> "tuple[ExecutionPlan, tuple, bool]":
        record = (None if force_pack
                  else self._tuned_record("trsm", problem))
        key = self._cache_key("trsm", problem, force_pack, record)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan, key, True
        with obs.span("plan.trsm", tuned=record is not None):
            if record is not None:
                plan = build_trsm_plan(
                    problem, self.machine, self.registry,
                    tuned_pack=record.force_pack or None,
                    schedule=record.schedule)
                plan.meta["decision"] = self._decision_meta(record)
            else:
                plan = build_trsm_plan(problem, self.machine, self.registry,
                                       force_pack)
                plan.meta["decision"] = {"source": "analytic"}
        self._plan_cache.put(key, plan)
        return plan, key, False

    # -- lowering ---------------------------------------------------------

    @staticmethod
    def _cache_key(op: str, problem, force_pack: bool, record) -> tuple:
        # the key carries the applied record's decision triple, so
        # replacing the DB (or its entry for a shape) can never serve a
        # plan built from the old record
        sig = (None if record is None
               else (record.main, record.force_pack, record.schedule))
        return (op, problem, force_pack, sig)

    def _compiled_for(self, key: tuple,
                      plan: ExecutionPlan) -> "CompiledPlan | None":
        """The plan's cached lowering, lowering (and caching) on first
        use through the engine's templates, so plans that call one
        kernel at one binding share its lowering.  ``None`` when the
        active backend executes plans directly.
        """
        if not self.engine.backend.needs_lowering:
            return None
        compiled = self._plan_cache.get_compiled(key)
        if compiled is None:
            compiled = self._plan_cache.put_compiled(
                key, lower_plan(plan, self.engine.templates))
        return compiled

    @property
    def plan_cache_stats(self) -> dict:
        """Plan-cache size/hit/miss/eviction totals (always tracked)."""
        return self._plan_cache.stats()

    # -- planning split out from execution (the serve scheduler uses
    # this to budget "plan" and "execute" as separate request stages) --

    def prepare_gemm(self, problem: GemmProblem
                     ) -> "tuple[ExecutionPlan, CompiledPlan | None, bool]":
        """Plan + lower for ``problem`` without executing.

        Returns ``(plan, compiled, cache_hit)``: everything
        :meth:`gemm_compact` would resolve before touching operand
        data, plus whether the plan came from the cache.  Execute with
        ``engine.execute_gemm(plan, a, b, c, compiled=compiled)``.
        """
        plan, key, hit = self._plan_gemm_keyed(problem, False)
        return plan, self._compiled_for(key, plan), hit

    def prepare_trsm(self, problem: TrsmProblem
                     ) -> "tuple[ExecutionPlan, CompiledPlan | None, bool]":
        """TRSM twin of :meth:`prepare_gemm`."""
        plan, key, hit = self._plan_trsm_keyed(problem, False)
        return plan, self._compiled_for(key, plan), hit

    # -- execution (compact-layout API) -----------------------------------

    def gemm_compact(self, problem: GemmProblem, a: CompactBatch,
                     b: CompactBatch, c: CompactBatch) -> CompactBatch:
        """``C = alpha op(A) op(B) + beta C`` on compact operands, in place."""
        plan, key, _ = self._plan_gemm_keyed(problem, False)
        compiled = self._compiled_for(key, plan)
        return self.engine.execute_gemm(plan, a, b, c, compiled=compiled)

    def trsm_compact(self, problem: TrsmProblem, a: CompactBatch,
                     b: CompactBatch) -> CompactBatch:
        """Solve in place: B becomes X."""
        plan, key, _ = self._plan_trsm_keyed(problem, False)
        compiled = self._compiled_for(key, plan)
        return self.engine.execute_trsm(plan, a, b, compiled=compiled)

    # -- execution (standard-layout convenience API) -----------------------

    def gemm(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
             alpha: complex = 1.0, beta: complex = 1.0,
             transa: "Trans | str" = "N",
             transb: "Trans | str" = "N") -> np.ndarray:
        """Batched GEMM on standard ``(batch, rows, cols)`` arrays.

        Plans first; then each operand the plan packs is gathered into
        its panels straight from the caller's array, in one copy, and
        only C and the operands the kernels read in place are
        interleaved to the compact layout.  The result is de-interleaved
        from C.  (The compact API, :meth:`gemm_compact`, lets a caller
        hold data compact across many calls instead.)
        """
        if a.ndim != 3 or b.ndim != 3 or c.ndim != 3:
            raise InvalidProblemError("gemm expects (batch, rows, cols) arrays")
        if not (a.shape[0] == b.shape[0] == c.shape[0]):
            raise InvalidProblemError("batch sizes differ between A, B, C")
        dt = BlasDType.from_any(c.dtype)
        ta, tb = Trans.from_any(transa), Trans.from_any(transb)
        m, n = c.shape[1], c.shape[2]
        k = a.shape[2] if ta is Trans.N else a.shape[1]
        problem = GemmProblem(m, n, k, dt, ta, tb, c.shape[0], alpha, beta)
        # every operand must match the shape the problem derives — a
        # wrong B under transb would otherwise fail deep in packing (or
        # not at all)
        if a.shape[1:] != problem.a_shape:
            raise InvalidProblemError(
                f"A is {a.shape[1]}x{a.shape[2]} but transa={ta.value} with "
                f"C {m}x{n} requires {problem.a_shape[0]}x"
                f"{problem.a_shape[1]}")
        if b.shape[1:] != problem.b_shape:
            raise InvalidProblemError(
                f"B is {b.shape[1]}x{b.shape[2]} but transb={tb.value} with "
                f"k={k}, n={n} requires {problem.b_shape[0]}x"
                f"{problem.b_shape[1]}")
        dt.check_operand("A", a)
        dt.check_operand("B", b)
        lanes = self.machine.lanes(dt)
        plan, key, _ = self._plan_gemm_keyed(problem, False)
        compiled = self._compiled_for(key, plan)
        ca = _source(a, "packA" in plan.buffers, lanes, dt)
        cb = _source(b, "packB" in plan.buffers, lanes, dt)
        cc = CompactBatch.from_matrices(c, lanes, dt)
        self.engine.execute_gemm(plan, ca, cb, cc, compiled=compiled)
        # free the operand batches first, so the result can take their
        # memory instead of growing the heap past them
        del ca, cb
        return cc.to_matrices()

    def trsm(self, a: np.ndarray, b: np.ndarray, alpha: complex = 1.0,
             side: "Side | str" = "L", uplo: "UpLo | str" = "L",
             transa: "Trans | str" = "N",
             diag: "Diag | str" = "N") -> np.ndarray:
        """Batched TRSM on standard ``(batch, rows, cols)`` arrays.

        As :meth:`gemm`: a triangle the plan packs is gathered straight
        from the caller's A; B, which the solve overwrites, is
        interleaved."""
        if a.ndim != 3 or b.ndim != 3:
            raise InvalidProblemError("trsm expects (batch, rows, cols) arrays")
        if a.shape[0] != b.shape[0]:
            raise InvalidProblemError("batch sizes differ between A and B")
        dt = BlasDType.from_any(b.dtype)
        problem = TrsmProblem(b.shape[1], b.shape[2], dt,
                              Side.from_any(side), UpLo.from_any(uplo),
                              Trans.from_any(transa), Diag.from_any(diag),
                              a.shape[0], alpha)
        # A must be the square the side dictates: m x m for L, n x n for R
        if a.shape[1] != a.shape[2] or a.shape[1] != problem.a_dim:
            raise InvalidProblemError(
                f"A is {a.shape[1]}x{a.shape[2]} but side="
                f"{problem.side.value} with B "
                f"{b.shape[1]}x{b.shape[2]} requires "
                f"{problem.a_dim}x{problem.a_dim}")
        dt.check_operand("A", a)
        lanes = self.machine.lanes(dt)
        plan, key, _ = self._plan_trsm_keyed(problem, False)
        compiled = self._compiled_for(key, plan)
        ca = _source(a, "packT" in plan.buffers, lanes, dt)
        cb = CompactBatch.from_matrices(b, lanes, dt)
        self.engine.execute_trsm(plan, ca, cb, compiled=compiled)
        del ca              # as in gemm: the result may reuse its memory
        return cb.to_matrices()

    # -- timing -------------------------------------------------------------

    def time_gemm(self, problem: GemmProblem,
                  force_pack: bool = False) -> PlanTiming:
        return self.engine.time_plan(self.plan_gemm(problem, force_pack))

    def time_trsm(self, problem: TrsmProblem,
                  force_pack: bool = False) -> PlanTiming:
        return self.engine.time_plan(self.plan_trsm(problem, force_pack))

    # -- observability ------------------------------------------------------

    def explain_gemm(self, problem: GemmProblem, force_pack: bool = False,
                     deep: bool = False):
        """Narrated run-time-stage decisions for one GEMM shape
        (:class:`repro.obs.ExplainReport`)."""
        plan, key, _ = self._plan_gemm_keyed(problem, force_pack)
        compiled = self._compiled_for(key, plan)
        return obs.explain(plan, registry=self.registry, deep=deep,
                           backend=self.engine.backend, compiled=compiled,
                           plan_cache=self.plan_cache_stats)

    def explain_trsm(self, problem: TrsmProblem, force_pack: bool = False,
                     deep: bool = False):
        """Narrated run-time-stage decisions for one TRSM shape."""
        plan, key, _ = self._plan_trsm_keyed(problem, force_pack)
        compiled = self._compiled_for(key, plan)
        return obs.explain(plan, registry=self.registry, deep=deep,
                           backend=self.engine.backend, compiled=compiled,
                           plan_cache=self.plan_cache_stats)


def _source(x: np.ndarray, packed: bool, lanes: int,
            dt: BlasDType) -> "CompactBatch | StandardBatch":
    """An operand as the plan reads it: one it packs is gathered
    straight from the caller's array; one the kernels read in place is
    interleaved."""
    if packed:
        return StandardBatch(x, lanes, dt)
    return CompactBatch.from_matrices(x, lanes, dt)
