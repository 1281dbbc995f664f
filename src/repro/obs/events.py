"""Structured, leveled events: the durable record of discrete facts.

Counters say *how often*, histograms say *how much*, spans say *how
long* — events say **what happened**: a plan-cache eviction, a TuningDB
fallback, a re-tune record swap.  Each event is one flat JSON-able record
(timestamp, level, name, free-form fields, and the live trace context
if a span is open), appended to a bounded in-memory ring on the
registry and, optionally, to a size-rotated JSONL file sink.

Usage::

    from repro import obs
    with obs.scoped() as reg:
        obs.event("tuning.fallback", reason="corrupt db")
        obs.event("tuning.retune.skipped", level="warn", op="gemm")
        for rec in reg.events.tail(10):
            print(rec["name"], rec["fields"])

Design constraints match the rest of :mod:`repro.obs`: the module-level
:func:`event` helper is a true no-op while instrumentation is disabled
(one global check, zero allocation inside this module), every mutation
takes the log's lock, and everything is stdlib-only.  The enabled-path
cost self-accounts into the ``obs.overhead.events`` /
``obs.overhead.events.ms`` counters so the telemetry plane's own price
shows up in the telemetry.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from . import core, spans

__all__ = ["LEVELS", "EventLog", "FileSink", "event"]

#: severity order, least to most severe
LEVELS = ("debug", "info", "warn", "error")
_LEVEL_RANK = {name: i for i, name in enumerate(LEVELS)}


class FileSink:
    """Append-only JSONL sink with size-based rotation.

    When the active file exceeds ``max_bytes`` after a write, it is
    renamed to ``<path>.1`` (shifting older backups up to ``backups``,
    the oldest dropped) and a fresh file is started — so a long-running
    service's event log is bounded at roughly
    ``(backups + 1) * max_bytes``.  Writes are serialized by the owning
    :class:`EventLog`'s lock.
    """

    def __init__(self, path: str, max_bytes: int = 1_000_000,
                 backups: int = 1) -> None:
        if max_bytes < 1:
            raise ValueError("FileSink needs max_bytes >= 1")
        if backups < 0:
            raise ValueError("FileSink needs backups >= 0")
        self.path = str(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._f = open(self.path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._f.write(json.dumps(record, sort_keys=True) + "\n")
        self._f.flush()
        if self._f.tell() >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._f.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._f = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        self._f.close()


class EventLog:
    """Bounded, thread-safe ring of structured events.

    The ring (``maxlen=RING``) keeps the most recent events for the
    ``/events`` endpoint and post-mortem inspection; events pushed out
    of the ring are counted in ``dropped``, never silently lost from
    the totals.  An optional :class:`FileSink` makes the stream
    durable.
    """

    RING = 4096

    def __init__(self, ring: int = RING) -> None:
        if ring < 1:
            raise ValueError("EventLog needs ring >= 1")
        self._ring: deque = deque(maxlen=ring)
        self._lock = threading.Lock()
        self._sink: "FileSink | None" = None
        self.logged = 0
        self.dropped = 0

    def emit(self, name: str, level: str = "info",
             fields: "dict | None" = None,
             trace_id: str = "", span_id: str = "") -> dict:
        """Append one event; returns the stored record."""
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown event level {level!r}; "
                             f"levels: {', '.join(LEVELS)}")
        record = {
            "ts": time.time(),
            "level": level,
            "name": name,
            "fields": dict(fields) if fields else {},
        }
        if trace_id:
            record["trace_id"] = trace_id
        if span_id:
            record["span_id"] = span_id
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(record)
            self.logged += 1
            if self._sink is not None:
                self._sink.write(record)
        return record

    def tail(self, n: int = 100, level: "str | None" = None,
             prefix: "str | None" = None) -> "list[dict]":
        """The most recent ``n`` events (oldest first; none when
        ``n <= 0``), optionally filtered to ``level`` severity and above
        and/or to names starting with ``prefix`` (e.g.
        ``"tuning.retune."`` to follow one online re-tuning episode
        through the ring)."""
        with self._lock:
            records = list(self._ring)
        if level is not None:
            floor = _LEVEL_RANK.get(level)
            if floor is None:
                raise ValueError(f"unknown event level {level!r}; "
                                 f"levels: {', '.join(LEVELS)}")
            records = [r for r in records
                       if _LEVEL_RANK[r["level"]] >= floor]
        if prefix is not None:
            records = [r for r in records if r["name"].startswith(prefix)]
        return records[-n:] if n > 0 else []

    def attach_sink(self, sink: FileSink) -> None:
        """Route every subsequent event into ``sink`` as well."""
        with self._lock:
            self._sink = sink

    def detach_sink(self) -> "FileSink | None":
        with self._lock:
            sink, self._sink = self._sink, None
        return sink

    def stats(self) -> dict:
        with self._lock:
            return {"logged": self.logged, "dropped": self.dropped}

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def event(name: str, *, level: str = "info", **fields) -> None:
    """Record one structured event iff instrumentation is enabled.

    Attaches the live trace context (if a span is open) so events
    correlate with the span tree that produced them.  The enabled-path
    cost is self-accounted into ``obs.overhead.events`` (count) and
    ``obs.overhead.events.ms`` (accumulated milliseconds).
    """
    if not core._enabled:
        return
    t0 = time.perf_counter()
    reg = core.get_registry()
    ctx = spans.current_context()
    if ctx is None:
        reg.events.emit(name, level, fields)
    else:
        reg.events.emit(name, level, fields,
                        trace_id=ctx[0], span_id=ctx[1])
    reg.counter("obs.overhead.events").inc()
    reg.counter("obs.overhead.events.ms").inc(
        (time.perf_counter() - t0) * 1e3)
