"""``python -m repro.serve`` — run a BLAS service with live stats.

Starts a :class:`~repro.serve.service.BlasService` plus the telemetry
HTTP plane from :mod:`repro.obs.serve`, with the service's
``/serve/stats`` route mounted alongside ``/metrics``, ``/events``
(now filterable: ``?prefix=serve.&level=warn``), and the rest.

``--demo`` enables instrumentation and drives the service with the
deterministic mixed GEMM/TRSM traffic generator, round after round, so
a fresh process has a live coalescing story to watch::

    python -m repro.serve --demo --port 0 --for-seconds 10

The startup line prints the bound host:port (``--port 0`` binds an
ephemeral port), which is how the CI smoke step finds the endpoint.
"""

from __future__ import annotations

import argparse
import sys
import threading

from .. import obs
from ..obs.serve import make_server
from .client import run_traffic
from .service import BlasService

__all__ = ["main"]

MACHINES = {
    "kunpeng920": "KUNPENG_920",
    "xeon6240": "XEON_GOLD_6240",
    "a64fx": "A64FX",
}


def _machine(name: str):
    from ..machine import machines

    return getattr(machines, MACHINES[name])


def _demo_loop(service: BlasService, stop: threading.Event,
               n_requests: int, rate: "float | None") -> None:
    round_no = 0
    while not stop.is_set():
        result = run_traffic(service, n_requests=n_requests,
                             seed=round_no, rate=rate,
                             tenants=("alice", "bob", "carol"))
        round_no += 1
        obs.gauge("serve.demo.rounds", round_no)
        obs.event("serve.demo.round", round=round_no, **result)
        stop.wait(0.2)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="BLAS-as-a-service: coalescing frontend + live "
                    "telemetry endpoint.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9110,
                        help="HTTP port (0 binds an ephemeral one)")
    parser.add_argument("--machine", choices=sorted(MACHINES),
                        default="kunpeng920")
    parser.add_argument("--backend", choices=["interpret", "fused"],
                        default=None, help="executor backend (default: "
                        "the engine's default)")
    parser.add_argument("--tuning-db", metavar="PATH",
                        help="TuningDB consulted by the shared planner")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="flush a bucket at this many requests")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="flush a bucket after its oldest request "
                        "waited this long")
    parser.add_argument("--max-inflight", type=int, default=256,
                        help="per-tenant in-flight admission limit")
    parser.add_argument("--max-queue", type=int, default=4096,
                        help="global queue-depth admission limit")
    parser.add_argument("--demo", action="store_true",
                        help="enable obs and self-drive with mixed "
                        "GEMM/TRSM traffic")
    parser.add_argument("--demo-requests", type=int, default=256,
                        help="requests per demo round")
    parser.add_argument("--demo-rate", type=float, default=None,
                        help="pace demo submissions (requests/second; "
                        "default: as fast as admitted)")
    parser.add_argument("--for-seconds", type=float, default=None,
                        help="exit after this long (CI smoke)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.demo:
        obs.enable()
    slos = None
    if args.demo:
        # objectives for the demo traffic generator's tenants, so /slo
        # has verdicts to show out of the box
        from ..obs.slo import default_specs
        slos = [spec for tenant in ("alice", "bob", "carol")
                for spec in default_specs(tenant)]
    service = BlasService(_machine(args.machine), backend=args.backend,
                          tuning_db=args.tuning_db,
                          max_batch=args.max_batch,
                          max_wait_ms=args.max_wait_ms,
                          max_in_flight=args.max_inflight,
                          max_queue_depth=args.max_queue,
                          slos=slos)
    server = make_server(args.host, args.port)
    server.add_route("/serve/stats", service.stats_route)
    server.add_route("/slo", service.slo_route)
    server.add_route("/flight", service.flight_route)

    service.start()
    stop = threading.Event()
    if args.demo:
        worker = threading.Thread(
            target=_demo_loop,
            args=(service, stop, args.demo_requests, args.demo_rate),
            name="repro-serve-demo", daemon=True)
        worker.start()
    bound_host, bound_port = server.server_address[:2]
    if not args.quiet:
        print(f"repro.serve on http://{bound_host}:{bound_port} "
              f"(machine {service.machine.name}, max_batch "
              f"{args.max_batch}, max_wait {args.max_wait_ms}ms; "
              f"endpoints: {', '.join(sorted(server.routes))})"
              + (" [demo traffic running]" if args.demo else ""),
              flush=True)
    if args.for_seconds is not None:
        timer = threading.Timer(args.for_seconds, server.shutdown)
        timer.daemon = True
        timer.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
