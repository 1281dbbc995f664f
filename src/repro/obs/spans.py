"""Hierarchical spans, trace-context propagation, and Chrome-trace export.

A span brackets one region of work (``span("plan.gemm")``,
``span("pack.A")``, ``span("engine.time_plan")``).  Spans nest via a
**trace context** carried in a :mod:`contextvars` variable: the first
span entered with no surrounding context starts a new *trace* (a fresh
``trace_id``); every nested span records its parent's ``span_id`` as
``parent_id``, so the recorded spans of one logical operation form a
single tree no matter which thread recorded them.

Threads do not inherit context automatically (a fresh thread starts
with an empty context), so cross-thread handoff is **explicit**:
:func:`carrier` captures the current context as an opaque value, and
:func:`attach` adopts it inside the worker::

    car = obs.carrier()                 # in the submitting thread
    queue.put((request, car))

    def flush(request, car):
        with obs.attach(car):           # in the worker thread
            with obs.span("serve.flush"):
                ...                     # same trace_id, valid parent_id

The serve scheduler does exactly this, so a flush on the pump thread
joins the trace of the request that opened its bucket.

When instrumentation is disabled (the default), :func:`span` returns a
shared no-op context manager — one global check, no allocation — so
production hot paths pay effectively nothing.

Recorded spans export to the Chrome ``chrome://tracing`` / Perfetto
JSON format (an object with a ``traceEvents`` list of complete ``"X"``
events, timestamps in microseconds)::

    from repro import obs
    with obs.scoped() as reg:
        iatf.time_gemm(problem)
        obs.write_chrome_trace("run.trace.json", registry=reg)

Open the file at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import core

__all__ = ["SpanRecord", "span", "carrier", "attach", "current_context",
           "chrome_trace", "write_chrome_trace", "validate_chrome_trace"]


@dataclass
class SpanRecord:
    """One completed span: flat, JSON-able, Chrome-event shaped.

    ``trace_id`` groups every span of one logical operation (one
    ``run_plan``, one bench point); ``span_id`` is unique per span and
    ``parent_id`` links to the enclosing span's id (``None`` for a
    trace root).  The defaults keep hand-built records (tests, tools)
    valid.
    """

    name: str
    start_us: float               # perf_counter-based, microseconds
    dur_us: float
    tid: int
    depth: int
    args: dict = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: "str | None" = None


class _NullSpan:
    """The disabled-path context manager: a shared, stateless no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **kwargs) -> None:
        """Attribute setter, ignored when disabled."""


_NULL_SPAN = _NullSpan()

#: (trace_id, span_id-of-enclosing-span, depth) — or None outside any
#: span.  A ContextVar rather than threading.local so async callers and
#: explicit carrier()/attach() handoffs both compose.
_CTX: "contextvars.ContextVar[tuple | None]" = contextvars.ContextVar(
    "repro_obs_trace", default=None)

#: process-unique id source (next() on itertools.count is atomic under
#: the GIL, so no lock is needed)
_ids = itertools.count(1)


def _new_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):08x}"


# -- stable thread-track ids ---------------------------------------------

#: OS thread ident -> small stable track id.  threading.get_ident()
#: values are reused after a thread exits and truncating them (the old
#: ``& 0xFFFF``) could collide two *live* threads onto one trace track;
#: a locked first-come-first-serve map cannot.
_tid_lock = threading.Lock()
_tids: "dict[int, int]" = {}


def _tid() -> int:
    ident = threading.get_ident()
    tid = _tids.get(ident)
    if tid is None:
        with _tid_lock:
            tid = _tids.setdefault(ident, len(_tids) + 1)
    return tid


# -- context handoff -----------------------------------------------------

def current_context() -> "tuple | None":
    """The live ``(trace_id, span_id, depth)`` triple, or ``None`` when
    no span is open on this thread of execution."""
    return _CTX.get()


def carrier() -> "tuple | None":
    """Capture the current trace context for explicit handoff to
    another thread (opaque: pass it to :func:`attach` unchanged)."""
    return _CTX.get()


@contextmanager
def attach(car: "tuple | None"):
    """Adopt a captured trace context inside a worker thread.

    Spans opened inside the block join the carrier's trace (same
    ``trace_id``; ``parent_id`` = the span that was open at
    :func:`carrier` time).  Always restores the previous context, and
    accepts ``None`` (no context at capture time) as a no-op adoption.
    """
    token = _CTX.set(car)
    try:
        yield
    finally:
        _CTX.reset(token)


class _Span:
    """Live span: records start on enter, emits a SpanRecord on exit."""

    __slots__ = ("name", "args", "_t0", "_depth", "_trace_id", "_span_id",
                 "_parent_id", "_token")

    def __init__(self, name: str, args: dict) -> None:
        self.name = name
        self.args = args

    def set(self, **kwargs) -> None:
        """Attach attributes discovered mid-span (shown in the viewer)."""
        self.args.update(kwargs)

    def __enter__(self):
        ctx = _CTX.get()
        if ctx is None:
            self._trace_id = _new_id("t")
            self._parent_id = None
            self._depth = 0
        else:
            self._trace_id, self._parent_id, self._depth = ctx
        self._span_id = _new_id("s")
        self._token = _CTX.set((self._trace_id, self._span_id,
                                self._depth + 1))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        _CTX.reset(self._token)
        core.get_registry().record_span(SpanRecord(
            name=self.name,
            start_us=self._t0 * 1e6,
            dur_us=(t1 - self._t0) * 1e6,
            tid=_tid(),
            depth=self._depth,
            args=self.args,
            trace_id=self._trace_id,
            span_id=self._span_id,
            parent_id=self._parent_id,
        ))
        return False


def span(name: str, **args):
    """Context manager timing one named region (no-op when disabled)."""
    if not core._enabled:
        return _NULL_SPAN
    return _Span(name, args)


# -- Chrome trace export -------------------------------------------------

def chrome_trace(registry: "core.Registry | None" = None,
                 extra_events: "list[dict] | None" = None) -> dict:
    """Recorded spans as a Chrome/Perfetto trace-JSON object.

    Span events are grouped by ``trace_id`` (stable within a trace, so
    single-trace exports keep their recorded order) and carry the
    trace/span/parent ids in their ``args`` for correlation in the
    viewer; one ``thread_name`` metadata event names each stable track.

    ``extra_events`` appends ready-made trace events onto the export —
    the attribution profiler's modeled-timeline track
    (:meth:`repro.obs.profile.ProfileReport.trace_events`) merges in
    this way, so one ``.trace.json`` shows wall-time spans and modeled
    cycle attribution side by side.
    """
    reg = registry if registry is not None else core.get_registry()
    pid = os.getpid()
    spans = sorted(reg.spans, key=lambda s: getattr(s, "trace_id", ""))
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "repro (IATF reproduction)"},
    }]
    for tid in sorted({s.tid for s in spans}):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"thread-{tid}"},
        })
    for s in spans:
        args = dict(s.args)
        if getattr(s, "trace_id", ""):
            args["trace_id"] = s.trace_id
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
        events.append({
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": s.start_us,
            "dur": s.dur_us,
            "pid": pid,
            "tid": s.tid,
            "args": args,
        })
    if extra_events:
        events.extend(extra_events)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(path, registry: "core.Registry | None" = None,
                       extra_events: "list[dict] | None" = None) -> str:
    """Write the trace JSON to ``path`` (conventionally ``*.trace.json``)."""
    trace = chrome_trace(registry, extra_events=extra_events)
    with open(path, "w") as f:
        json.dump(trace, f, indent=1)
    return str(path)


def validate_chrome_trace(trace: dict) -> None:
    """Schema-check a trace object; raises ``ValueError`` on violation.

    Checks the subset of the Trace Event Format the exporter emits —
    a ``traceEvents`` list whose ``"X"`` (complete) events carry
    name/ts/dur/pid/tid with non-negative numeric timestamps and
    durations; ``"C"`` (counter) and ``"i"`` (instant) events must
    carry the same ts/pid/tid fields (a malformed counter track would
    otherwise load silently wrong in the viewer) — plus, for duration
    (``"B"``/``"E"``) pairs: every ``E`` must close the most recent
    open ``B`` on the same ``(pid, tid)`` track with a matching name
    and a non-negative duration, and no ``B`` may be left open at the
    end of the trace.
    """
    if not isinstance(trace, dict):
        raise ValueError("trace must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace.traceEvents must be a list")
    open_spans: "dict[tuple, list]" = {}   # (pid, tid) -> [(name, ts, i)]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M", "B", "E", "C", "i"):
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            raise ValueError(f"event {i} has no string name")
        if ph == "M":
            continue
        keys = ("ts", "dur") if ph == "X" else ("ts",)
        for k in keys:
            v = ev.get(k)
            if not isinstance(v, (int, float)) or v < 0:
                raise ValueError(f"event {i} field {k} invalid: {v!r}")
        for k in ("pid", "tid"):
            if not isinstance(ev.get(k), int):
                raise ValueError(f"event {i} field {k} must be an int")
        if ph == "B":
            open_spans.setdefault((ev["pid"], ev["tid"]), []).append(
                (ev["name"], ev["ts"], i))
        elif ph == "E":
            stack = open_spans.get((ev["pid"], ev["tid"]))
            if not stack:
                raise ValueError(f"event {i}: E with no open B on "
                                 f"pid={ev['pid']} tid={ev['tid']}")
            name, ts, bi = stack.pop()
            if name != ev["name"]:
                raise ValueError(
                    f"event {i}: improperly nested spans — E "
                    f"{ev['name']!r} closes B {name!r} (event {bi})")
            if ev["ts"] < ts:
                raise ValueError(
                    f"event {i}: negative duration — E at {ev['ts']} "
                    f"before its B at {ts} (event {bi})")
    for (pid, tid), stack in open_spans.items():
        if stack:
            name, _, bi = stack[-1]
            raise ValueError(f"unclosed B span {name!r} (event {bi}) on "
                             f"pid={pid} tid={tid}")
