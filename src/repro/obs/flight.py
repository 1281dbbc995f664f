"""The flight recorder: "what just happened?" after something went
wrong.

Counters survive an incident but lose its *sequence*.  A
:class:`FlightRecorder` dump freezes the registry's newest ``SPANS``
spans and ``EVENTS`` events (read at dump time; the registry is the
one store of history) and the last ``PULSES`` per-flush stats pulses,
which only the recorder keeps: the service pushes one per flush,
whether or not obs is enabled.  Dumps are taken automatically on a
poisoned bucket or a reject storm (``STORM_THRESHOLD`` rejections
within ``STORM_WINDOW_S``), at most one per ``COOLDOWN_S``, and on
demand via ``/flight`` or ``python -m repro.obs flight``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

from . import core

__all__ = ["FlightRecorder"]

#: how many of the registry's newest spans / events a dump carries
SPANS = 512
EVENTS = 512
#: stats pulses kept (the service pushes one per flush)
PULSES = 128
#: automatic dumps closer than this to the previous one are suppressed
COOLDOWN_S = 30.0
#: a reject storm is STORM_THRESHOLD rejections within STORM_WINDOW_S
STORM_WINDOW_S = 10.0
STORM_THRESHOLD = 50


class FlightRecorder:
    """Stats pulses, reject timestamps, and triggered post-mortems.

    ``dump_dir`` makes dumps durable (one
    ``flight-<n>-<trigger>.json`` per dump); without it the latest
    dump is kept in memory (``last_dump``) where the ``/flight``
    endpoint and tests can read it.
    """

    def __init__(self, dump_dir: "str | None" = None) -> None:
        self._pulses: deque = deque(maxlen=PULSES)
        self._rejects: deque = deque()   # monotonic reject timestamps
        self._lock = threading.Lock()
        self.dump_dir = dump_dir
        self.dumps = 0
        self.suppressed = 0
        self.last_dump: "dict | None" = None
        self._last_trigger_t: "float | None" = None

    # -- feeding (hot paths: one lock, one append) ----------------------

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
            horizon = t - STORM_WINDOW_S
            while self._rejects and self._rejects[0] < horizon:
                self._rejects.popleft()
            in_window = len(self._rejects)
        if in_window >= STORM_THRESHOLD:
            return self.trigger("reject_storm", now=t, tenant=tenant,
                                rejects_in_window=in_window,
                                window_s=STORM_WINDOW_S)
        return None

    # -- dumping --------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry's newest spans and events and the pulse ring,
        as JSON-able lists, oldest first."""
        reg = core.get_registry()
        spans = reg.recent_spans(SPANS)
        events = [dict(r) for r in reg.events.tail(EVENTS)]
        with self._lock:
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
        """Freeze the recent history into one post-mortem dict (no rate
        limit — this is the on-demand path)."""
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
        ``COOLDOWN_S`` of the previous automatic dump the trigger is
        counted (``suppressed``) but produces nothing, so one incident
        yields one post-mortem instead of hundreds."""
        t = time.monotonic() if now is None else now
        with self._lock:
            last = self._last_trigger_t
            if last is not None and (t - last) < COOLDOWN_S:
                self.suppressed += 1
                return None
            self._last_trigger_t = t
        return self.dump(trigger, **detail)

    def stats(self) -> dict:
        """Depths of what the next dump would carry, and dump counts."""
        reg = core.get_registry()
        spans = len(reg.recent_spans(SPANS))
        events = min(len(reg.events), EVENTS)
        with self._lock:
            return {"spans": spans, "events": events,
                    "stats_pulses": len(self._pulses), "dumps": self.dumps,
                    "suppressed": self.suppressed}

    def route(self, query) -> "tuple[str, str]":
        """``/flight`` handler: an on-demand post-mortem (pass
        ``?last=1`` for the most recent *triggered* dump instead — the
        one that captured the incident)."""
        if query.get("last") and self.last_dump is not None:
            body = self.last_dump
        else:
            body = self.dump("on_demand")
        return (json.dumps(body, sort_keys=True, indent=2) + "\n",
                "application/json")
