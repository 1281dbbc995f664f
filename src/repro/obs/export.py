"""Registry-snapshot exporters: Prometheus text, JSON, and deltas.

One :meth:`Registry.snapshot` dict is the wire format; everything here
is a pure function of it, so the same registry feeds CI artifacts
(JSON), windowed scrapes (:func:`snapshot_delta` of two
:meth:`Registry.sample` snapshots, served as ``/delta.json``), and a
live scraper (Prometheus) without three instrumentation paths.
Renders are deterministic —
names sorted, no timestamps — so two scrapes of an idle registry are
bit-identical (the property the serve smoke test pins).

The exporters deliberately do **not** write into the registry they
render: a scrape must be read-only, or "idle" would be unobservable.
Render cost self-accounts into a module-local stats dict instead
(:func:`render_stats`).

Prometheus text-exposition form (https://prometheus.io/docs/instrumenting/exposition_formats/):

* counters -> ``# TYPE repro_<name> counter`` + one sample line;
* gauges (written via :func:`repro.obs.gauge`) -> ``# TYPE ... gauge``;
* histograms -> cumulative ``_bucket{le="..."}`` series (le-sorted,
  ending in ``le="+Inf"``) plus ``_sum`` and ``_count``.

Metric names are sanitized to the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` grammar
(dots and dashes become underscores) and prefixed ``repro_``.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = ["PrometheusExporter", "JsonExporter", "snapshot_delta",
           "render_stats"]

_PREFIX = "repro_"

#: module-local render accounting (NOT registry counters — see module
#: docstring); read via render_stats()
_stats_lock = threading.Lock()
_stats = {"renders": 0, "seconds": 0.0}


def render_stats() -> dict:
    """Cumulative exporter self-accounting: renders run and seconds
    spent, across every exporter in this process."""
    with _stats_lock:
        return dict(_stats)


def _account(t0: float) -> None:
    dt = time.perf_counter() - t0
    with _stats_lock:
        _stats["renders"] += 1
        _stats["seconds"] += dt


def _metric_name(name: str) -> str:
    """Sanitize a dotted obs name into the Prometheus grammar."""
    out = []
    for i, ch in enumerate(name):
        if ch.isascii() and (ch.isalpha() or ch == "_" or ch == ":"
                             or (ch.isdigit() and i > 0)):
            out.append(ch)
        else:
            out.append("_")
    return _PREFIX + "".join(out)


def _fmt(value: "int | float") -> str:
    """Deterministic sample-value formatting: integral floats print as
    ints, everything else via repr (shortest round-trip form)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class PrometheusExporter:
    """The text-exposition format a Prometheus scraper ingests."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"

    def render(self, snapshot: dict) -> str:
        t0 = time.perf_counter()
        gauges = set(snapshot.get("gauge_names", ()))
        lines: list[str] = []
        for name in sorted(snapshot.get("counters", {})):
            value = snapshot["counters"][name]
            mname = _metric_name(name)
            kind = "gauge" if name in gauges else "counter"
            lines.append(f"# TYPE {mname} {kind}")
            lines.append(f"{mname} {_fmt(value)}")
        for name in sorted(snapshot.get("histograms", {})):
            s = snapshot["histograms"][name]
            mname = _metric_name(name)
            lines.append(f"# TYPE {mname} histogram")
            for le, cum in s.get("buckets", ()):
                lines.append(f'{mname}_bucket{{le="{_fmt(le)}"}} {cum}')
            lines.append(f'{mname}_bucket{{le="+Inf"}} {s["count"]}')
            lines.append(f"{mname}_sum {_fmt(s['total'])}")
            lines.append(f"{mname}_count {s['count']}")
        # the registry's own health as gauges, so a scraper sees span
        # pressure and event volume without a second endpoint
        for name, value in (
                ("obs_spans_recorded", snapshot.get("spans", 0)),
                ("obs_spans_dropped", snapshot.get("dropped_spans", 0)),
                ("obs_events_logged",
                 snapshot.get("events", {}).get("logged", 0)),
                ("obs_events_dropped",
                 snapshot.get("events", {}).get("dropped", 0))):
            lines.append(f"# TYPE {_PREFIX}{name} gauge")
            lines.append(f"{_PREFIX}{name} {_fmt(value)}")
        text = "\n".join(lines) + "\n"
        _account(t0)
        return text


class JsonExporter:
    """A snapshot (or a :func:`snapshot_delta`) as stable sorted-keys
    JSON — the CI artifact and the ``/delta.json`` body."""

    content_type = "application/json"

    def render(self, snapshot: dict) -> str:
        t0 = time.perf_counter()
        text = json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
        _account(t0)
        return text


def snapshot_delta(before: dict, after: dict,
                   seconds: "float | None" = None) -> dict:
    """Diff two snapshots of the same registry into deltas and rates.

    Counters (monotonic) get ``delta`` clamped at zero — a registry
    reset between snapshots must not read as negative traffic — plus
    ``rate`` per second when ``seconds`` is given.  Gauges get a signed
    ``delta`` (levels legitimately fall) and no rate.  Histograms diff
    ``count`` and ``total``.  Names present only in ``after`` diff
    against zero; names only in ``before`` are dropped (reset).

    A zero or negative ``seconds`` (two scrapes inside one clock tick,
    or a stepped clock) suppresses rates entirely rather than dividing
    through to infinity or negative traffic.
    """
    if seconds is not None and seconds <= 0.0:
        seconds = None
    gauges = set(after.get("gauge_names", ()))
    out: dict = {"seconds": seconds, "counters": {}, "gauges": {},
                 "histograms": {}}
    before_c = before.get("counters", {})
    for name, value in sorted(after.get("counters", {}).items()):
        prev = before_c.get(name, 0)
        if name in gauges:
            out["gauges"][name] = {"value": value, "delta": value - prev}
            continue
        delta = max(0, value - prev)
        entry = {"delta": delta}
        if seconds:
            entry["rate"] = delta / seconds
        out["counters"][name] = entry
    before_h = before.get("histograms", {})
    for name, s in sorted(after.get("histograms", {}).items()):
        prev = before_h.get(name, {})
        dcount = max(0, s["count"] - prev.get("count", 0))
        dtotal = max(0.0, s["total"] - prev.get("total", 0.0))
        entry = {"delta_count": dcount, "delta_total": dtotal,
                 "mean": (dtotal / dcount) if dcount else 0.0}
        if seconds:
            entry["rate"] = dcount / seconds
        out["histograms"][name] = entry
    return out
