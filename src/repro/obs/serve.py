"""``python -m repro.obs serve`` — the live telemetry endpoint.

A stdlib :mod:`http.server` plane over the process registry, so a
Prometheus scraper or a human with ``curl`` can watch a
long-running IATF process (a bench sweep, a future service frontend)
instead of waiting for the batch ``report()`` at the end:

* ``/metrics``        — Prometheus text exposition of the registry
* ``/snapshot.json``  — the full :meth:`Registry.snapshot` as JSON
* ``/delta.json``     — what moved since the previous ``/delta.json``
  scrape (counter deltas + per-second rates)
* ``/events?n=100&level=warn`` — the structured-event ring, oldest
  first
* ``/healthz``        — liveness (also reports exporter self-accounting)

Scrapes are **read-only**: handlers never write into the registry they
render, so an idle registry serves bit-identical ``/metrics`` bodies.

``--demo`` enables instrumentation and loops the bench ``backends``
experiment (small batch by default) in a daemon thread so a fresh
process has live counters, spans, and events to scrape — the CI smoke
step and local exploration both use it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from . import core
from .events import event
from .export import (DeltaExporter, JsonExporter, PrometheusExporter,
                     render_stats)

__all__ = ["TelemetryServer", "make_server", "serve", "run_demo"]


class _Handler(BaseHTTPRequestHandler):
    """Routes one GET; everything it serves is a pure read."""

    server_version = "repro-obs/1.0"
    protocol_version = "HTTP/1.1"

    # the default handler logs every request to stderr; a scraper
    # polling /metrics would flood the console
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        try:
            route = self.server.routes.get(parts.path)
            if route is None:
                self._send(404, "text/plain; charset=utf-8",
                           f"no such endpoint: {parts.path}\n")
                return
            body, content_type = route(query)
            self._send(200, content_type, body)
        except Exception as exc:  # a broken handler must not kill serve
            self._send(500, "text/plain; charset=utf-8",
                       f"internal error: {exc}\n")

    def _send(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class TelemetryServer(ThreadingHTTPServer):
    """The HTTP server plus its route table and data sources."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", registry=None) -> None:
        super().__init__(address, _Handler)
        self._registry = registry
        self._prometheus = PrometheusExporter()
        self._json = JsonExporter()
        self._delta = DeltaExporter()
        self.routes = {
            "/metrics": self._metrics,
            "/snapshot.json": self._snapshot,
            "/delta.json": self._delta_view,
            "/events": self._events,
            "/healthz": self._healthz,
        }

    # routes return (body, content_type)

    def add_route(self, path: str, handler) -> None:
        """Register an extra endpoint (e.g. ``/serve/stats`` from the
        BLAS service frontend).  ``handler(query) -> (body, content_type)``
        like the built-ins; must be a pure read."""
        if not path.startswith("/"):
            raise ValueError(f"route path must start with '/': {path!r}")
        self.routes[path] = handler

    def registry(self):
        return (self._registry if self._registry is not None
                else core.get_registry())

    def _metrics(self, query) -> "tuple[str, str]":
        exp = self._prometheus
        return exp.render(self.registry().snapshot()), exp.content_type

    def _snapshot(self, query) -> "tuple[str, str]":
        exp = self._json
        return exp.render(self.registry().snapshot()), exp.content_type

    def _delta_view(self, query) -> "tuple[str, str]":
        exp = self._delta
        return exp.render(self.registry().snapshot()), exp.content_type

    def _events(self, query) -> "tuple[str, str]":
        try:
            n = int(query.get("n", ["100"])[0])
        except ValueError:
            n = 100
        level = query.get("level", [None])[0]
        prefix = query.get("prefix", [None])[0]
        try:
            records = self.registry().events.tail(n, level=level,
                                                  prefix=prefix)
        except ValueError:   # unknown ?level= — unfiltered beats a 500
            records = self.registry().events.tail(n, prefix=prefix)
        return (json.dumps(records, sort_keys=True, indent=2) + "\n",
                "application/json")

    def _healthz(self, query) -> "tuple[str, str]":
        health = {"status": "ok", "export": render_stats(),
                  "events": self.registry().events.stats()}
        return (json.dumps(health, sort_keys=True) + "\n",
                "application/json")


def make_server(host: str = "127.0.0.1", port: int = 9109,
                registry=None) -> TelemetryServer:
    """Construct (but do not start) a telemetry server; ``port=0``
    binds an ephemeral port (``server.server_address`` has the real
    one — what the tests use)."""
    return TelemetryServer((host, port), registry=registry)


def run_demo(stop: threading.Event, batch: int = 512,
             interval: float = 2.0) -> None:
    """Demo workload loop: one warm batch-``batch`` sgemm 8x8x8 through
    one :class:`~repro.runtime.iatf.IATF`, round after round, until
    ``stop`` is set — so every endpoint has live data to serve."""
    import time

    import numpy as np

    from ..runtime.iatf import IATF

    iatf = IATF()
    rng = np.random.default_rng(20220829)
    a, b = (rng.uniform(0.0, 1.0, (batch, 8, 8)).astype(np.float32)
            for _ in range(2))
    rounds = 0
    while not stop.is_set():
        t0 = time.perf_counter()
        iatf.gemm(a, b, np.zeros_like(a), beta=0.0)
        rounds += 1
        core.gauge("serve.demo.rounds", rounds)
        event("serve.demo.round", round=rounds, batch=batch,
              seconds=round(time.perf_counter() - t0, 6))
        stop.wait(interval)


def serve(host: str = "127.0.0.1", port: int = 9109, *,
          demo: bool = False, demo_batch: int = 512,
          for_seconds: "float | None" = None,
          quiet: bool = False) -> int:
    """Run the endpoint until interrupted (the CLI entry point).

    ``--demo`` flips instrumentation on process-wide and starts the
    demo thread; ``for_seconds`` bounds the run (CI smoke).
    """
    server = make_server(host, port)
    stop = threading.Event()
    if demo:
        core.enable()
        worker = threading.Thread(target=run_demo, args=(stop, demo_batch),
                                  name="repro-obs-demo", daemon=True)
        worker.start()
    bound_host, bound_port = server.server_address[:2]
    if not quiet:
        print(f"repro.obs serve on http://{bound_host}:{bound_port} "
              f"(endpoints: {', '.join(sorted(server.routes))})"
              + (" [demo workload running]" if demo else ""))
    if for_seconds is not None:
        timer = threading.Timer(for_seconds, server.shutdown)
        timer.daemon = True
        timer.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
    return 0
