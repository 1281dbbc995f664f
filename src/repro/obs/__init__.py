"""repro.obs — zero-dependency observability for the run-time stage.

The layers:

* :mod:`repro.obs.core` — the process-wide :class:`Registry` of named
  :class:`Counter`/:class:`Histogram` objects and the hot-path helpers
  (:func:`count`, :func:`observe`) that are true no-ops while
  instrumentation is disabled (the default).  The registry is the one
  store of history (spans, events, :meth:`Registry.sample` snapshots):
  the flight recorder, SLO monitor and ``/delta.json`` only read it;
* :mod:`repro.obs.spans` — hierarchical :func:`span` timing regions,
  exportable to Chrome ``chrome://tracing`` / Perfetto JSON;
* :mod:`repro.obs.explain` — :func:`explain` reports narrating every
  run-time-stage decision a plan embodies (batch counter math,
  pack-selector reasoning, tile decomposition, decision provenance,
  and the cycle-model breakdown);
* :mod:`repro.obs.profile` — the attribution profiler:
  :func:`profile_plan` walks a plan's compiled command stream and
  attributes modeled cycles/FLOPs/bytes to instruction classes,
  kernels, and plan phases with exact conservation;
  :class:`ProfileReport` adds the %-of-peak roofline view, collapsed
  flamegraph stacks, and a modeled Chrome-trace track;
  :func:`model_drift` compares the cycle model to wall clock;
* :mod:`repro.obs.events` — leveled structured events
  (:func:`event`): a bounded in-memory ring per registry plus an
  optional size-rotated JSONL file sink — the durable record for
  plan-cache evictions, TuningDB fallbacks, and re-tuning episodes;
* :mod:`repro.obs.export` — :class:`PrometheusExporter` and
  :class:`JsonExporter` render one :meth:`Registry.snapshot`;
  :func:`snapshot_delta` diffs two into deltas and rates;
* :mod:`repro.obs.serve` — ``python -m repro.obs serve``, the stdlib
  ``http.server`` endpoint exposing ``/metrics``, ``/snapshot.json``,
  ``/delta.json``, ``/events``, and ``/healthz``.

Spans carry a **trace context** (``trace_id`` / ``span_id`` /
``parent_id``) propagated through :mod:`contextvars`; cross-thread
handoff is explicit via :func:`carrier` / :func:`attach` — the serve
scheduler uses it so a flush on the pump thread joins the trace of the
request that opened its bucket.

Quick start::

    from repro import IATF, obs
    from repro.types import GemmProblem

    iatf = IATF()
    with obs.scoped() as reg:                 # enable + fresh registry
        t = iatf.time_gemm(GemmProblem(8, 8, 8, "d", batch=16384))
        print(reg.report())                   # counters & histograms
        obs.write_chrome_trace("run.trace.json", registry=reg)

    print(iatf.explain_gemm(GemmProblem(8, 8, 8, "d", batch=16384),
                            deep=True).render())
"""

from .budget import STAGES as BUDGET_STAGES
from .budget import Budget, BudgetLedger
from .core import (Counter, Histogram, Registry, count, disable, enable,
                   enabled, gauge, get_registry, observe, scoped,
                   set_registry, tick, tock)
from .events import EventLog, FileSink, event
from .explain import ExplainReport, explain
from .export import JsonExporter, PrometheusExporter, snapshot_delta
from .flight import FlightRecorder
from .profile import (ClassProfile, KernelProfile, PlanProfile,
                      ProfileReport, model_drift, profile_plan,
                      profile_report)
from .slo import SLOMonitor, SLOSpec, default_specs
from .spans import (SpanRecord, attach, carrier, chrome_trace,
                    current_context, span, validate_chrome_trace,
                    write_chrome_trace)

__all__ = [
    "Counter", "Histogram", "Registry",
    "count", "observe", "gauge", "tick", "tock",
    "enabled", "enable", "disable", "scoped",
    "get_registry", "set_registry",
    "SpanRecord", "span", "carrier", "attach", "current_context",
    "chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "EventLog", "FileSink", "event",
    "PrometheusExporter", "JsonExporter", "snapshot_delta",
    "Budget", "BudgetLedger", "BUDGET_STAGES",
    "SLOSpec", "SLOMonitor", "default_specs",
    "FlightRecorder",
    "ExplainReport", "explain",
    "ClassProfile", "KernelProfile", "PlanProfile", "ProfileReport",
    "profile_plan", "profile_report", "model_drift",
]
