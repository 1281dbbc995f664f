"""Command-line interface for the observability subsystem.

Usage::

    python -m repro.obs snapshot [--trace-out run.trace.json]
    python -m repro.obs explain gemm --m 9 --n 9 --k 9 --dtype d \\
        --batch 4096 [--deep] [--force-pack]
    python -m repro.obs explain trsm --m 8 --n 6 --dtype d --mode LLNN
    python -m repro.obs profile gemm --m 8 --n 8 --k 8 --dtype s \\
        [--stream raw|fused] [--json out.json] [--flame out.folded] \\
        [--trace-out out.trace.json] [--drift]
    python -m repro.obs flight [--url http://127.0.0.1:9110/flight] \\
        [--last] [-o dump.json]
    python -m repro.obs serve [--port 9109] [--demo] [--for-seconds 30]

``snapshot`` runs a small representative GEMM+TRSM workload with
instrumentation enabled, prints the registry report, and (with
``--trace-out``) converts the recorded spans to a Chrome-trace
``.trace.json``.  ``profile`` renders the attribution profiler's
roofline report for one problem shape (optionally persisting the JSON,
collapsed-stack flamegraph, and merged Chrome-trace artifacts).
``serve`` is the live telemetry endpoint (``/metrics``,
``/snapshot.json``, ``/delta.json``, ``/events``, ``/healthz``);
``--demo`` keeps a small warm workload running so there is something
to scrape.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import model_drift, profile_report, scoped, write_chrome_trace

__all__ = ["main"]


def _demo_workload():
    """A tiny but representative run: plan, execute, and time both
    routines so every instrumented layer records something."""
    import numpy as np

    from ..runtime.iatf import IATF
    from ..tuning.db import TuningDB
    from ..types import GemmProblem, TrsmProblem

    iatf = IATF(tuning_db=TuningDB())
    gp = GemmProblem(6, 6, 6, "d", batch=8)
    tp = TrsmProblem(4, 4, "d", batch=8)
    iatf.time_gemm(gp)
    iatf.time_gemm(gp)                       # plan-cache hit
    iatf.retune(GemmProblem(9, 9, 9, "d", batch=8), save=False)
    iatf.time_trsm(tp)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 6, 6))
    b = rng.standard_normal((8, 6, 6))
    iatf.gemm(a, b, np.zeros((8, 6, 6)), beta=0.0)
    t = np.tril(rng.standard_normal((8, 4, 4))) + 3 * np.eye(4)
    iatf.trsm(t, rng.standard_normal((8, 4, 4)))


def _cmd_snapshot(args) -> int:
    with scoped() as reg:
        _demo_workload()
        print(reg.report())
        if args.trace_out:
            path = write_chrome_trace(args.trace_out, registry=reg)
            print(f"wrote {len(reg.spans)} spans to {path}")
    return 0


def _parse_trsm_mode(mode: str) -> "tuple[str, str, str, str]":
    """``--mode`` letters in BLAS order: side, uplo, trans, diag."""
    from ..errors import InvalidProblemError

    letters = mode.upper()
    if len(letters) != 4:
        raise InvalidProblemError(
            f"--mode wants 4 letters (side/uplo/trans/diag, e.g. LLNN), "
            f"got {mode!r}")
    return tuple(letters)


def _cmd_explain(args) -> int:
    from ..errors import InvalidProblemError
    from ..runtime.iatf import IATF
    from ..types import GemmProblem, TrsmProblem

    iatf = IATF()
    try:
        if args.routine == "gemm":
            problem = GemmProblem(args.m, args.n, args.k, args.dtype,
                                  batch=args.batch)
            report = iatf.explain_gemm(problem, force_pack=args.force_pack,
                                       deep=args.deep)
        else:
            problem = TrsmProblem(args.m, args.n, args.dtype,
                                  *_parse_trsm_mode(args.mode),
                                  batch=args.batch)
            report = iatf.explain_trsm(problem, force_pack=args.force_pack,
                                       deep=args.deep)
    except InvalidProblemError as exc:
        print(f"error: {exc}")
        return 2
    print(report.render())
    return 0


def _cmd_profile(args) -> int:
    from ..errors import InvalidProblemError, ProfileError
    from ..runtime.iatf import IATF
    from ..types import GemmProblem, TrsmProblem

    iatf = IATF()
    try:
        if args.routine == "gemm":
            problem = GemmProblem(args.m, args.n, args.k, args.dtype,
                                  batch=args.batch)
        else:
            problem = TrsmProblem(args.m, args.n, args.dtype,
                                  *_parse_trsm_mode(args.mode),
                                  batch=args.batch)
        with scoped() as reg:
            plan = (iatf.plan_gemm(problem) if args.routine == "gemm"
                    else iatf.plan_trsm(problem))
            drift = model_drift(problem) if args.drift else None
            report = profile_report(plan, stream=args.stream, drift=drift)
            if args.trace_out:
                path = write_chrome_trace(args.trace_out, registry=reg,
                                          extra_events=report.trace_events())
    except InvalidProblemError as exc:
        print(f"error: {exc}")
        return 2
    except ProfileError as exc:
        print(f"profile error: {exc}")
        return 1
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
        print(f"profile JSON written to {args.json_out}")
    if args.flame:
        with open(args.flame, "w") as f:
            f.write(report.collapsed())
        print(f"collapsed flamegraph stacks written to {args.flame}")
    if args.trace_out:
        print(f"Chrome trace (spans + modeled profile) written to {path}")
    return 0


def _cmd_flight(args) -> int:
    """Fetch (or locally produce) one flight-recorder post-mortem."""
    if args.url:
        from urllib.request import urlopen
        url = args.url + ("?last=1" if args.last else "")
        try:
            with urlopen(url, timeout=10.0) as resp:
                dump = json.load(resp)
        except Exception as e:   # noqa: BLE001 - any fetch failure = exit 1
            print(f"error: could not fetch {url}: {e}")
            return 1
    else:
        # no live service: run the demo workload in a fresh registry
        # so the dump shows a real span/event sequence
        from .flight import FlightRecorder
        with scoped():
            _demo_workload()
            dump = FlightRecorder().dump("cli_demo")
    body = json.dumps(dump, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(body)
        print(f"flight dump ({dump.get('trigger', '?')}, "
              f"{len(dump.get('spans', []))} spans, "
              f"{len(dump.get('events', []))} events) written to {args.out}")
    else:
        print(body, end="")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of ``python -m repro.obs``; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect the IATF run-time stage: counters, spans, "
        "Chrome traces, and plan explain reports.")
    sub = parser.add_subparsers(dest="command")

    p_snap = sub.add_parser("snapshot", help="run a demo workload and "
                            "dump the registry snapshot")
    p_snap.add_argument("--trace-out", metavar="PATH",
                        help="also write recorded spans as Chrome trace "
                        "JSON (*.trace.json)")

    p_exp = sub.add_parser("explain", help="narrate the run-time-stage "
                           "decisions for one problem shape")
    p_exp.add_argument("routine", choices=("gemm", "trsm"))
    p_exp.add_argument("--m", type=int, default=8)
    p_exp.add_argument("--n", type=int, default=8)
    p_exp.add_argument("--k", type=int, default=8,
                       help="GEMM inner dimension (ignored for trsm)")
    p_exp.add_argument("--dtype", choices=("s", "d", "c", "z"), default="d")
    p_exp.add_argument("--batch", type=int, default=16384)
    p_exp.add_argument("--mode", default="LLNN",
                       help="TRSM side/uplo/trans/diag letters "
                       "(BLAS order), e.g. LLNN or RUTU")
    p_exp.add_argument("--deep", action="store_true",
                       help="run the cycle model: pack-vs-nopack cost "
                       "comparison and TimingResult breakdown")
    p_exp.add_argument("--force-pack", action="store_true")

    p_prof = sub.add_parser("profile", help="cycle/byte attribution and "
                            "%%-of-peak roofline report for one problem "
                            "shape (Figs. 11-12's metric)")
    p_prof.add_argument("routine", choices=("gemm", "trsm"))
    p_prof.add_argument("--m", type=int, default=8)
    p_prof.add_argument("--n", type=int, default=8)
    p_prof.add_argument("--k", type=int, default=8,
                        help="GEMM inner dimension (ignored for trsm)")
    p_prof.add_argument("--dtype", choices=("s", "d", "c", "z"), default="s")
    p_prof.add_argument("--batch", type=int, default=16384)
    p_prof.add_argument("--mode", default="LLNN",
                        help="TRSM side/uplo/trans/diag letters")
    p_prof.add_argument("--stream", choices=("raw", "fused"),
                        default="raw",
                        help="which compiled command stream to attribute "
                        "(both carry a per-kernel breakdown)")
    p_prof.add_argument("--json", dest="json_out", metavar="PATH",
                        help="also write the profile as JSON (the CI "
                        "artifact)")
    p_prof.add_argument("--flame", metavar="PATH",
                        help="also write collapsed-stack flamegraph lines "
                        "(flamegraph.pl / speedscope input)")
    p_prof.add_argument("--trace-out", metavar="PATH",
                        help="also write a Chrome trace merging recorded "
                        "spans with the modeled profile timeline")
    p_prof.add_argument("--drift", action="store_true",
                        help="cross-check the cycle model against wall-"
                        "clock replays per backend (runs real executions)")

    p_serve = sub.add_parser("serve", help="live telemetry endpoint: "
                             "/metrics (Prometheus), /snapshot.json, "
                             "/delta.json, /events, /healthz")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9109,
                         help="TCP port (0 picks an ephemeral one; "
                         "default 9109)")
    p_serve.add_argument("--demo", action="store_true",
                         help="also run a warm sgemm workload in a "
                         "background thread so the metrics move")
    p_serve.add_argument("--demo-batch", type=int, default=512,
                         help="batch size for the demo workload rounds")
    p_serve.add_argument("--for-seconds", type=float, default=None,
                         metavar="S", help="shut down after S seconds "
                         "instead of serving forever (CI smoke)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress the startup banner")

    p_flight = sub.add_parser("flight", help="flight-recorder post-"
                              "mortem: dump the recent-history rings of "
                              "a live service (--url) or of a local "
                              "demo run")
    p_flight.add_argument("--url", metavar="URL", default=None,
                          help="scrape a running service's /flight "
                          "endpoint (e.g. http://127.0.0.1:9110/flight)")
    p_flight.add_argument("--last", action="store_true",
                          help="with --url: fetch the most recent "
                          "*triggered* dump instead of a fresh one")
    p_flight.add_argument("-o", "--out", metavar="PATH", default=None,
                          help="write the dump JSON here instead of "
                          "stdout")

    args = parser.parse_args(argv)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "flight":
        return _cmd_flight(args)
    if args.command == "serve":
        from .serve import serve
        return serve(args.host, args.port, demo=args.demo,
                     demo_batch=args.demo_batch,
                     for_seconds=args.for_seconds, quiet=args.quiet)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
