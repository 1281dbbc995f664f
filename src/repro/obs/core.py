"""Observability core: counters, histograms, and the process registry.

The run-time stage makes input-aware decisions (batch counter group
math, pack-vs-nopack selection, CMAR tile decomposition, TuningDB
records) that are invisible from the outside; this module is the ledger
they report into.  Design constraints:

* **zero overhead when off** — instrumentation sites call the
  module-level helpers (:func:`count`, :func:`observe`, :func:`tick`),
  which check one module global and return immediately when disabled
  (the default).  No registry lookup, no allocation, no lock.
* **thread-safe when on** — a multicore sweep or a threaded benchmark
  may increment the same counter from several workers; every mutation
  takes the owning object's lock.
* **zero dependencies** — stdlib only.

Usage::

    from repro import obs
    with obs.scoped() as reg:           # fresh registry, enabled
        iatf.time_gemm(problem)
        print(reg.report())
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from itertools import islice

__all__ = ["Counter", "Histogram", "Registry", "get_registry",
           "set_registry", "enabled", "enable", "disable", "scoped",
           "count", "observe", "gauge", "tick", "tock"]

_enabled: bool = False
"""Process-wide instrumentation switch (off by default)."""


class Counter:
    """A named monotonically growing value (int or float increments).

    A counter written through :meth:`set` becomes a **gauge**: a
    point-in-time level where last write wins (cache sizes, queue
    depths).  The ``kind`` distinction matters to exporters — a
    Prometheus scraper computes rates over counters but reads gauges
    verbatim.
    """

    __slots__ = ("name", "value", "kind", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.kind = "counter"
        self._lock = threading.Lock()

    def inc(self, n: "int | float" = 1) -> None:
        with self._lock:
            self.value += n

    def set(self, value: "int | float") -> None:
        """Gauge-style absolute write, under the same lock as ``inc``
        (a racy bare ``value =`` store could interleave with a
        concurrent read-modify-write increment and lose it)."""
        with self._lock:
            self.value = value
            self.kind = "gauge"

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Summary statistics of observed values.

    Keeps exact count/total/min/max plus a bounded sample of recent
    observations for percentile estimates (the sample bound keeps
    long-running processes from growing without limit), and exact
    fixed-boundary bucket counts so exporters can render the
    Prometheus cumulative-bucket form without approximating from the
    sample.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_sample",
                 "_bucket_counts", "_lock")

    SAMPLE = 1024

    #: upper bounds (``le``) of the export buckets.  Decade-ish spacing
    #: covering sub-millisecond ticks through multi-second sweeps; the
    #: implicit final bucket is +Inf (== count).
    BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
               1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
               1000.0, 2500.0)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: deque = deque(maxlen=self.SAMPLE)
        self._bucket_counts = [0] * len(self.BUCKETS)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._sample.append(value)
            idx = bisect_left(self.BUCKETS, value)
            if idx < len(self._bucket_counts):
                self._bucket_counts[idx] += 1

    def buckets(self) -> "list[tuple[float, int]]":
        """Cumulative ``(le, count)`` pairs, le-sorted, excluding the
        implicit +Inf bucket (whose cumulative count is ``count``)."""
        with self._lock:
            counts = list(self._bucket_counts)
        out, running = [], 0
        for le, n in zip(self.BUCKETS, counts):
            running += n
            out.append((le, running))
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0..100) from the recent sample."""
        with self._lock:
            data = sorted(self._sample)
        if not data:
            return 0.0
        idx = min(len(data) - 1, int(round(q / 100.0 * (len(data) - 1))))
        return data[idx]

    def summary(self) -> dict:
        return {"count": self.count, "total": self.total,
                "mean": self.mean,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99)}

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class Registry:
    """Named counters and histograms, and the one store of telemetry
    history for one scope: the newest spans, the event ring, and the
    :meth:`sample` ring.  Readers get locked copies, never a live ring.
    """

    MAX_SPANS = 100_000
    """Span-store cap; beyond it the oldest span is dropped (counted)."""
    SAMPLE_RING = 720
    """How many :meth:`sample` snapshots the registry keeps."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._events = None          # EventLog, created on first use
        self._spans: deque = deque()
        self._samples: deque = deque(maxlen=self.SAMPLE_RING)
        self.dropped_spans = 0

    # -- accessors (create on first use) --------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    def record_span(self, record) -> None:
        with self._lock:
            if len(self._spans) >= self.MAX_SPANS:
                self._spans.popleft()
                self.dropped_spans += 1
            self._spans.append(record)

    @property
    def spans(self) -> list:
        """Every stored span, oldest first (a copy)."""
        with self._lock:
            return list(self._spans)

    def recent_spans(self, n: int) -> list:
        """The newest ``n`` stored spans, oldest first (a copy)."""
        with self._lock:
            out = list(islice(reversed(self._spans), max(0, n)))
        out.reverse()
        return out

    @property
    def events(self):
        """The registry's structured :class:`~repro.obs.events.EventLog`
        (created on first access; lazy so :mod:`core` stays importable
        without its siblings)."""
        log = self._events
        if log is None:
            from .events import EventLog
            with self._lock:
                if self._events is None:
                    self._events = EventLog()
                log = self._events
        return log

    # -- inspection ------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Counter name -> value, sorted by name."""
        with self._lock:
            items = sorted(self._counters.items())
        return {name: c.value for name, c in items}

    def snapshot(self) -> dict:
        """One JSON-able dict of everything recorded so far.

        ``gauge_names`` marks which entries of ``counters`` are gauges
        (absolute levels) rather than monotonic counters, and each
        histogram summary carries its cumulative ``buckets`` — both are
        what the exporters (:mod:`repro.obs.export`) render from, so a
        snapshot is the complete wire format.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            histograms = sorted(self._histograms.items())
            n_spans = len(self._spans)
            events = self._events
        hist_out = {}
        for name, h in histograms:
            s = h.summary()
            s["buckets"] = [[le, n] for le, n in h.buckets()]
            hist_out[name] = s
        return {
            "counters": {name: c.value for name, c in counters},
            "gauge_names": [name for name, c in counters
                            if c.kind == "gauge"],
            "histograms": hist_out,
            "spans": n_spans,
            "dropped_spans": self.dropped_spans,
            "events": (events.stats() if events is not None
                       else {"logged": 0, "dropped": 0}),
        }

    def sample(self, now: "float | None" = None) -> "tuple[float, dict]":
        """Append one ``(monotonic seconds, snapshot())`` pair to the
        sample ring (not part of :meth:`snapshot`) and return it; the
        ``/slo`` and ``/delta.json`` scrapes are what call this."""
        snap = self.snapshot()
        with self._lock:   # clock read under the lock: rings stay sorted
            t = time.monotonic() if now is None else now
            self._samples.append((t, snap))
        return t, snap

    def samples(self, n: "int | None" = None) -> list:
        """The newest ``n`` samples (all by default), oldest first."""
        with self._lock:
            out = list(self._samples)
        return out if n is None else out[max(0, len(out) - n):]

    def report(self) -> str:
        """Human-readable snapshot (the CLI's default output)."""
        snap = self.snapshot()
        lines = ["observability registry"]
        lines.append(f"  spans recorded: {snap['spans']}"
                     + (f" (+{snap['dropped_spans']} dropped)"
                        if snap["dropped_spans"] else ""))
        if snap["counters"]:
            lines.append("  counters:")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"    {name:<{width}}  {shown}")
        if snap["histograms"]:
            lines.append("  histograms:")
            for name, s in snap["histograms"].items():
                lines.append(
                    f"    {name}: n={s['count']} mean={s['mean']:.3g} "
                    f"min={s['min']:.3g} max={s['max']:.3g} "
                    f"p50={s['p50']:.3g} p95={s['p95']:.3g} "
                    f"p99={s['p99']:.3g}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._spans.clear()
            self._samples.clear()
            self.dropped_spans = 0
            self._events = None


_registry = Registry()


def get_registry() -> Registry:
    """The current process-wide registry."""
    return _registry


def set_registry(registry: Registry) -> Registry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    old, _registry = _registry, registry
    return old


def enabled() -> bool:
    """Is instrumentation currently recording?"""
    return _enabled


def enable() -> None:
    """Turn instrumentation on (process-wide)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (the default state)."""
    global _enabled
    _enabled = False


@contextmanager
def scoped(fresh: bool = True):
    """Enable instrumentation within a block, yielding the registry.

    With ``fresh`` (the default) a new empty :class:`Registry` is
    swapped in so the block's measurements are isolated; the previous
    registry and enabled-state are restored on exit.
    """
    global _enabled
    old_enabled = _enabled
    old_registry = set_registry(Registry()) if fresh else _registry
    _enabled = True
    try:
        yield _registry
    finally:
        _enabled = old_enabled
        if fresh:
            set_registry(old_registry)


# -- hot-path helpers (true no-ops when disabled) ------------------------

def count(name: str, n: "int | float" = 1) -> None:
    """Increment a counter iff instrumentation is enabled."""
    if _enabled:
        _registry.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation iff instrumentation is enabled."""
    if _enabled:
        _registry.histogram(name).observe(value)


def gauge(name: str, value: "int | float") -> None:
    """Set a counter to an absolute level (last write wins) iff enabled.

    For point-in-time quantities like cache size, where increments make
    no sense but a snapshot should still show the latest value.  The
    write goes through :meth:`Counter.set` so it serializes with any
    concurrent ``inc`` on the same counter.
    """
    if _enabled:
        _registry.counter(name).set(value)


def tick() -> float:
    """Start a wall-clock measurement; 0.0 (and free) when disabled."""
    return time.perf_counter() if _enabled else 0.0


def tock(name: str, t0: float) -> None:
    """Record elapsed milliseconds since :func:`tick` into a histogram."""
    if _enabled and t0:
        _registry.histogram(name).observe(
            (time.perf_counter() - t0) * 1e3)
