"""The BLAS-as-a-service facade: submit small problems, get futures.

:class:`BlasService` wires the subsystem together — request validation
(:mod:`.types`), admission control (:mod:`.admission`), coalescing
(:mod:`.coalesce`), and the batching pump (:mod:`.scheduler`) over one
shared :class:`~repro.runtime.iatf.IATF` — and keeps its own always-on
statistics (plain locked counters plus a wait-time histogram) so
``stats()`` and the ``/serve/stats`` HTTP route work even when the
process-wide :mod:`repro.obs` instrumentation is disabled.

Usage::

    from repro.serve import BlasService, Request

    with BlasService(max_batch=32, max_wait_ms=2.0) as svc:
        fut = svc.submit(Request.gemm(a, b, tenant="alice"))
        c = fut.result()

``svc.stats()`` is the operator view: request totals, rejections per
reason, coalesce ratio (requests per flush), batch occupancy, wait-time
percentiles, and the shared PlanCache's hit rate.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future

from .. import obs
from ..errors import RejectedError
from ..obs.budget import STAGES, Budget, BudgetLedger
from ..obs.flight import FlightRecorder
from ..obs.slo import SLOMonitor
from ..machine.machines import KUNPENG_920, MachineConfig
from ..runtime.iatf import IATF
from .admission import AdmissionController
from .coalesce import Coalescer, PendingRequest
from .scheduler import Scheduler
from .types import Request

__all__ = ["BlasService"]


class BlasService:
    """Coalescing frontend over one shared IATF instance."""

    def __init__(self, machine: MachineConfig = KUNPENG_920, *,
                 backend=None, tuning_db=None, iatf: "IATF | None" = None,
                 max_batch: int = 64, max_wait_ms: float = 2.0,
                 max_in_flight: int = 256,
                 max_queue_depth: int = 4096,
                 slos: "list | None" = None,
                 flight: "FlightRecorder | None" = None) -> None:
        self.iatf = iatf if iatf is not None else IATF(
            machine, backend=backend, tuning_db=tuning_db)
        self.machine = self.iatf.machine
        self.admission = AdmissionController(max_in_flight, max_queue_depth)
        self.coalescer = Coalescer(max_batch, max_wait_ms)
        self.scheduler = Scheduler(self.iatf, self.coalescer,
                                   on_done=self._on_done,
                                   on_flush=self._on_flush)
        self._lock = threading.Lock()
        self._t_start: "float | None" = None
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._deadline_missed = 0
        self._flushes = 0
        self._flush_errors = 0
        self._flushed_requests = 0
        self._max_occupancy = 0
        self._wait_ms = obs.Histogram("serve.wait_ms")
        self._routines: "dict[str, int]" = {}
        # request latency budgets, aggregated two ways: per tenant (the
        # operator view) and per coalescing-key label (the input-aware
        # view — where do *this shape's* milliseconds go?)
        self._budget_by_tenant = BudgetLedger()
        self._budget_by_key = BudgetLedger()
        # (key, label) of the last request recorded by key: a bucket's
        # requests share both and complete back to back, so the label is
        # formatted once per bucket
        self._last_label: tuple = (None, "")
        # per-tenant objectives evaluated over the registry's samples
        # on every /slo scrape (obs must be enabled for the per-tenant
        # telemetry the monitor reads)
        self.slo = SLOMonitor(specs=slos)
        # post-mortems: per-flush stats pulses plus the registry's
        # newest spans/events, dumped on poisoned buckets and reject
        # storms
        self.flight = flight if flight is not None else FlightRecorder()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "BlasService":
        with self._lock:
            if self._t_start is None:
                self._t_start = time.perf_counter()
        self.scheduler.start()
        obs.event("serve.start", machine=self.machine.name,
                  backend=self.iatf.backend.name,
                  max_batch=self.coalescer.max_batch,
                  max_wait_ms=self.coalescer.max_wait * 1000.0)
        return self

    def stop(self) -> None:
        """Drain and stop: every accepted request still resolves."""
        self.scheduler.stop()
        obs.event("serve.stop", submitted=self._submitted,
                  completed=self._completed)

    def __enter__(self) -> "BlasService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self.scheduler.running

    # -- submission -----------------------------------------------------

    def submit(self, request: Request) -> "Future":
        """Admit one validated request; the future resolves to the
        result matrix (or raises what the flush raised).

        Raises :class:`RejectedError` when the service is stopped, the
        tenant is over its in-flight limit, or the queue is full —
        *after* validation, so malformed input still surfaces as
        :class:`InvalidProblemError` regardless of load.
        """
        if not isinstance(request, Request):
            raise TypeError(
                f"submit takes a repro.serve.Request, got "
                f"{type(request).__name__}")
        budget = Budget()
        if not self.scheduler.running:
            self._note_reject(request.tenant)
            raise RejectedError("service not running", request.tenant)
        with obs.span("serve.request", routine=request.routine,
                      dtype=request.problem.dtype.value,
                      tenant=request.tenant):
            try:
                self.admission.admit(request.tenant)
            except RejectedError:
                self._note_reject(request.tenant)
                raise
            now = time.perf_counter()
            entry = PendingRequest(
                request=request, future=Future(), carrier=obs.carrier(),
                t_submit=now,
                deadline_at=(None if request.deadline_ms is None
                             else now + request.deadline_ms / 1000.0),
                budget=budget)
            # "admit" (validation + admission) must be stamped *before*
            # the entry becomes visible to the pump: a bucket the offer
            # fills can flush on the pump thread before this one
            # returns, and the pump's "coalesce_wait" stamp must find
            # "admit" already in place
            budget.stamp("admit")
            try:
                self.scheduler.offer(entry)
            except BaseException as exc:
                self.admission.release(request.tenant)
                if isinstance(exc, RejectedError):
                    self._note_reject(request.tenant)
                raise
        with self._lock:
            self._submitted += 1
            self._routines[request.routine] = \
                self._routines.get(request.routine, 0) + 1
        if obs.enabled():
            obs.count("serve.submitted")
            obs.count(f"serve.tenant.{request.tenant}.submitted")
        return entry.future

    def _note_reject(self, tenant: str) -> None:
        if obs.enabled():
            obs.count(f"serve.tenant.{tenant}.rejected")
        self.flight.note_reject(tenant)

    # -- scheduler callbacks --------------------------------------------

    def _on_done(self, entry: PendingRequest, missed: bool) -> None:
        tenant = entry.request.tenant
        self.admission.release(tenant)
        wait_ms = (time.perf_counter() - entry.t_submit) * 1000.0
        failed = entry.future.exception() is not None
        with self._lock:
            if failed:
                self._failed += 1
            else:
                self._completed += 1
            if missed:
                self._deadline_missed += 1
            self._wait_ms.observe(wait_ms)
        budget = entry.budget
        split = (budget.split() if budget is not None and budget.closed
                 else None)
        if split is not None:
            self._budget_by_tenant.record(tenant, budget, split)
            key, label = self._last_label
            if entry.request.key != key:
                label = entry.request.label
                self._last_label = (entry.request.key, label)
            self._budget_by_key.record(label, budget, split)
        if not obs.enabled():   # skip formatting per-request metric names
            return
        obs.observe("serve.wait_ms", wait_ms)
        obs.observe(f"serve.tenant.{tenant}.wait_ms", wait_ms)
        obs.count(f"serve.tenant.{tenant}.completed")
        if missed:
            obs.count("serve.deadline.missed")
            obs.count(f"serve.tenant.{tenant}.deadline_missed")
        if split is not None:
            for stage, seconds in split[0].items():
                obs.observe(f"serve.budget.{stage}.ms", seconds * 1e3)

    def _on_flush(self, bucket, wall: float, error) -> None:
        with self._lock:
            self._flushes += 1
            self._flushed_requests += len(bucket)
            self._max_occupancy = max(self._max_occupancy, len(bucket))
            if error is not None:
                self._flush_errors += 1
            flushes, errors = self._flushes, self._flush_errors
        self.flight.note_pulse({
            "t": time.time(), "flushes": flushes, "flush_errors": errors,
            "requests": len(bucket), "wall_ms": wall * 1000.0,
            "routine": bucket.routine, "error": repr(error) if error
            else None,
        })
        if error is not None:
            obs.event("serve.flush.error", level="error",
                      routine=bucket.routine, requests=len(bucket),
                      error=repr(error))
            # a poisoned bucket failed every request in the batch:
            # freeze the flight rings while the evidence is fresh
            self.flight.trigger("flush_error", routine=bucket.routine,
                                requests=len(bucket), error=repr(error))

    # -- operator view --------------------------------------------------

    def stats(self) -> dict:
        """The ``/serve/stats`` payload (always available, obs on or
        off).  ``coalesce.ratio`` is requests per flush — the service's
        reason to exist; 1.0 means no coalescing happened."""
        with self._lock:
            flushes = self._flushes
            flushed = self._flushed_requests
            wait = self._wait_ms.summary()
            uptime = (0.0 if self._t_start is None
                      else time.perf_counter() - self._t_start)
            stats = {
                "running": self.scheduler.running,
                "uptime_seconds": round(uptime, 3),
                "machine": self.machine.name,
                "backend": self.iatf.backend.name,
                "requests": {
                    "submitted": self._submitted,
                    "completed": self._completed,
                    "failed": self._failed,
                    "deadline_missed": self._deadline_missed,
                    "by_routine": dict(sorted(self._routines.items())),
                },
                "coalesce": {
                    "max_batch": self.coalescer.max_batch,
                    "max_wait_ms": self.coalescer.max_wait * 1000.0,
                    "flushes": flushes,
                    "flush_errors": self._flush_errors,
                    "coalesced_requests": flushed,
                    "ratio": round(flushed / flushes, 3) if flushes else 0.0,
                    "max_occupancy": self._max_occupancy,
                },
                "wait_ms": wait,
            }
        stats["backlog"] = self.scheduler.backlog
        stats["admission"] = self.admission.stats()
        stats["plan_cache"] = self.iatf.plan_cache_stats
        stats["budget"] = {
            "stages": list(STAGES),
            "by_tenant": self._budget_by_tenant.summary(),
            "by_key": self._budget_by_key.summary(),
        }
        stats["flight"] = self.flight.stats()
        return stats

    def stats_route(self, query) -> "tuple[str, str]":
        """``(body, content_type)`` handler for
        :meth:`TelemetryServer.add_route` — a pure read."""
        return (json.dumps(self.stats(), sort_keys=True, indent=2) + "\n",
                "application/json")

    def slo_route(self, query) -> "tuple[str, str]":
        """``/slo`` handler: sample + evaluate the service's SLOs."""
        return self.slo.route(query)

    def flight_route(self, query) -> "tuple[str, str]":
        """``/flight`` handler: an on-demand flight-recorder dump."""
        return self.flight.route(query)
