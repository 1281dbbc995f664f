"""The flight recorder: an always-on ring that answers "what just
happened?" after something went wrong.

Counters and histograms survive an incident but lose its *sequence*;
the event ring keeps sequence but only for events.  The
:class:`FlightRecorder` keeps a small bounded ring of the most recent
**spans**, **events**, and **stats pulses** — cheap enough to leave on
in production — and freezes them into one self-contained JSON
post-mortem when triggered:

* automatically, on a poisoned bucket (a flush error fails every
  request in the batch) or a :class:`~repro.errors.RejectedError`
  storm (admission rejecting faster than a configured rate), both
  rate-limited by a cooldown so an incident produces one dump, not one
  per failure;
* on demand, via the ``/flight`` endpoint or
  ``python -m repro.obs flight``.

Feeding the rings costs one deque append per span/event, and only for
telemetry that is already being recorded — :meth:`attach` hooks the
registry's ``record_span`` and the event log's ``emit``, so the
disabled path (no spans, no events) stays allocation-free and the
recorder never makes quiet code loud.  Stats pulses are pushed by the
service (one compact dict per flush), not pulled, so the recorder
needs no thread.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from . import core

__all__ = ["FlightRecorder", "get_flight", "install_flight"]


class FlightRecorder:
    """Bounded recent-history rings plus triggered post-mortem dumps.

    ``dump_dir`` makes automatic dumps durable (one
    ``flight-<n>-<trigger>.json`` per trigger); without it the latest
    dump is kept in memory (``last_dump``) where the ``/flight``
    endpoint and tests can read it.
    """

    def __init__(self, spans: int = 512, events: int = 512,
                 pulses: int = 128, dump_dir: "str | None" = None,
                 cooldown_s: float = 30.0,
                 storm_window_s: float = 10.0,
                 storm_threshold: int = 50) -> None:
        self._spans: deque = deque(maxlen=max(1, spans))
        self._events: deque = deque(maxlen=max(1, events))
        self._pulses: deque = deque(maxlen=max(1, pulses))
        self._rejects: deque = deque()   # monotonic reject timestamps
        self._lock = threading.Lock()
        self.dump_dir = dump_dir
        self.cooldown_s = float(cooldown_s)
        self.storm_window_s = float(storm_window_s)
        self.storm_threshold = int(storm_threshold)
        self.dumps = 0
        self.suppressed = 0
        self.last_dump: "dict | None" = None
        self._last_trigger_t: "float | None" = None

    # -- feeding (hot paths: one lock, one append) ----------------------

    def note_span(self, record) -> None:
        with self._lock:
            self._spans.append(record)

    def note_event(self, record: dict) -> None:
        with self._lock:
            self._events.append(record)

    def note_pulse(self, pulse: dict) -> None:
        """One compact stats delta (the service pushes one per flush)."""
        with self._lock:
            self._pulses.append(pulse)

    def note_reject(self, tenant: str,
                    now: "float | None" = None) -> "dict | None":
        """Track one admission rejection; returns a dump when this one
        tips the window over the storm threshold (else ``None``)."""
        t = time.monotonic() if now is None else now
        with self._lock:
            self._rejects.append(t)
            horizon = t - self.storm_window_s
            while self._rejects and self._rejects[0] < horizon:
                self._rejects.popleft()
            storm = len(self._rejects) >= self.storm_threshold
        if storm:
            return self.trigger("reject_storm", now=t, tenant=tenant,
                                rejects_in_window=len(self._rejects),
                                window_s=self.storm_window_s)
        return None

    # -- attachment -----------------------------------------------------

    def attach(self, registry: "core.Registry | None" = None
               ) -> "FlightRecorder":
        """Hook this recorder into ``registry`` (the process-wide one
        by default): every span it records and every event its log
        emits is mirrored into the rings."""
        reg = registry if registry is not None else core.get_registry()
        reg._flight = self
        reg.events._flight = self
        return self

    @staticmethod
    def detach(registry: "core.Registry | None" = None) -> None:
        reg = registry if registry is not None else core.get_registry()
        reg._flight = None
        if reg._events is not None:
            reg._events._flight = None

    # -- dumping --------------------------------------------------------

    def snapshot(self) -> dict:
        """The rings as JSON-able lists, oldest first."""
        with self._lock:
            spans = list(self._spans)
            events = [dict(r) for r in self._events]
            pulses = [dict(p) for p in self._pulses]
        return {
            "spans": [{
                "name": s.name, "start_us": s.start_us,
                "dur_us": s.dur_us, "tid": s.tid, "depth": s.depth,
                "pid": getattr(s, "pid", 0), "args": dict(s.args),
                "trace_id": s.trace_id, "span_id": s.span_id,
                "parent_id": s.parent_id,
            } for s in spans],
            "events": events,
            "stats_pulses": pulses,
        }

    def dump(self, trigger: str, **detail) -> dict:
        """Freeze the rings into one post-mortem dict (no rate limit —
        this is the on-demand path)."""
        dump = {
            "trigger": trigger,
            "detail": detail,
            "captured_at": time.time(),
            "dumps_so_far": self.dumps,
            **self.snapshot(),
        }
        with self._lock:
            self.dumps += 1
            self.last_dump = dump
            n = self.dumps
        if self.dump_dir is not None:
            path = f"{self.dump_dir}/flight-{n}-{trigger}.json"
            with open(path, "w") as f:
                json.dump(dump, f, sort_keys=True, indent=1)
            dump["path"] = path
        return dump

    def trigger(self, trigger: str, now: "float | None" = None,
                **detail) -> "dict | None":
        """Rate-limited dump for automatic triggers: within
        ``cooldown_s`` of the previous automatic dump the trigger is
        counted (``suppressed``) but produces nothing, so one incident
        yields one post-mortem instead of hundreds."""
        t = time.monotonic() if now is None else now
        with self._lock:
            last = self._last_trigger_t
            if last is not None and (t - last) < self.cooldown_s:
                self.suppressed += 1
                return None
            self._last_trigger_t = t
        return self.dump(trigger, **detail)

    def stats(self) -> dict:
        with self._lock:
            return {"spans": len(self._spans), "events": len(self._events),
                    "stats_pulses": len(self._pulses), "dumps": self.dumps,
                    "suppressed": self.suppressed}

    def route(self, query) -> "tuple[str, str]":
        """``/flight`` handler: an on-demand post-mortem of the current
        rings (pass ``?last=1`` for the most recent *triggered* dump
        instead — the one that captured the incident)."""
        if query.get("last") and self.last_dump is not None:
            body = self.last_dump
        else:
            body = self.dump("on_demand")
        return (json.dumps(body, sort_keys=True, indent=2) + "\n",
                "application/json")


#: process-wide recorder (None until something installs one)
_flight: "FlightRecorder | None" = None


def get_flight() -> "FlightRecorder | None":
    """The installed process-wide recorder, if any."""
    return _flight


def install_flight(recorder: "FlightRecorder | None" = None,
                   registry: "core.Registry | None" = None
                   ) -> FlightRecorder:
    """Install (and attach) a process-wide flight recorder; reuses the
    existing one when called twice without an explicit recorder."""
    global _flight
    if recorder is None:
        recorder = _flight if _flight is not None else FlightRecorder()
    _flight = recorder
    return recorder.attach(registry)
