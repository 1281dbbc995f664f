"""Command-line interface for the observability subsystem.

Usage::

    python -m repro.obs --self-check
    python -m repro.obs snapshot [--trace-out run.trace.json]
    python -m repro.obs explain gemm --m 9 --n 9 --k 9 --dtype d \\
        --batch 4096 [--deep] [--force-pack]
    python -m repro.obs explain trsm --m 8 --n 6 --dtype d --mode LLNN
    python -m repro.obs profile gemm --m 8 --n 8 --k 8 --dtype s \\
        [--stream raw|fused] [--json out.json] [--flame out.folded] \\
        [--trace-out out.trace.json] [--drift]
    python -m repro.obs watch BENCH_backends.json [--threshold 0.10] \\
        [--wall-threshold 0.5] [--mega-floor 1.2] \\
        [--drift-threshold 0.5] [--slo slo.json]
    python -m repro.obs flight [--url http://127.0.0.1:9110/flight] \\
        [--last] [-o dump.json]
    python -m repro.obs serve [--port 9109] [--demo] \\
        [--trajectory BENCH_backends.json] [--for-seconds 30]

``snapshot`` runs a small representative GEMM+TRSM workload with
instrumentation enabled, prints the registry report, and (with
``--trace-out``) converts the recorded spans to a Chrome-trace
``.trace.json``.  ``profile`` renders the attribution profiler's
roofline report for one problem shape (optionally persisting the JSON,
collapsed-stack flamegraph, and merged Chrome-trace artifacts).
``watch`` is the bench-trajectory regression watchdog; its exit code
feeds CI.  ``serve`` is the live telemetry endpoint (``/metrics``,
``/snapshot.json``, ``/delta.json``, ``/events``, ``/healthz``,
``/trajectory``); ``--demo`` keeps a small bench workload running so
there is something to scrape.  ``--self-check`` exercises all of the
above end to end — the CI smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import (chrome_trace, explain, model_drift, profile_report, scoped,
               validate_chrome_trace, write_chrome_trace)
from .watch import watch

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
    return iatf, gp, tp


def _cmd_snapshot(args) -> int:
    with scoped() as reg:
        _demo_workload()
        print(reg.report())
        if args.trace_out:
            path = write_chrome_trace(args.trace_out, registry=reg)
            print(f"wrote {len(reg.spans)} spans to {path}")
    return 0


def _synthetic_point(gflops: float, timestamp: float) -> dict:
    """A valid v2 trajectory point for the self-check's watchdog drill."""
    from .watch import SCHEMA_VERSION
    return {"schema": SCHEMA_VERSION, "machine": "Self Check",
            "machine_id": "self-check", "routine": "gemm",
            "backend": "fused", "dtype": "s", "shape": [8, 8, 8],
            "batch": 16384, "gflops": gflops, "percent_peak": 50.0,
            "wall_seconds": None, "repeats": 1, "timestamp": timestamp}


def _cmd_self_check(args) -> int:
    problems = []
    with scoped() as reg:
        iatf, gp, tp = _demo_workload()
        snap = reg.snapshot()
        counters = snap["counters"]
        for want in ("plan_cache.misses", "plan_cache.hits",
                     "pack_selector.gemm.calls",
                     "pack_selector.trsm.calls",
                     "batch_counter.calls",
                     "codegen.generated",
                     "engine.timed_plans",
                     "tuning.retune.swapped"):
            if counters.get(want, 0) <= 0:
                problems.append(f"counter {want} did not move")
        if snap["spans"] == 0:
            problems.append("no spans recorded")
        # trace export round-trips and validates
        fd, path = tempfile.mkstemp(suffix=".trace.json")
        os.close(fd)
        try:
            write_chrome_trace(path, registry=reg)
            with open(path) as f:
                validate_chrome_trace(json.load(f))
        except ValueError as e:
            problems.append(f"trace schema: {e}")
        finally:
            os.unlink(path)
        # explain covers both routines
        for plan in (iatf.plan_gemm(gp), iatf.plan_trsm(tp)):
            report = explain(plan, registry=iatf.registry, deep=True)
            text = report.render()
            for needle in ("batch counter", "pack selector",
                           "tile decomposition", "timing breakdown"):
                if needle not in text:
                    problems.append(
                        f"explain[{plan.kind}] missing section {needle!r}")
        # attribution profiler: conservation holds on both streams and
        # the modeled-timeline events merge into a valid Chrome trace
        from ..errors import ProfileError
        prof = None
        for stream in ("raw", "fused", "megakernel"):
            try:
                prof = profile_report(iatf.plan_gemm(gp), stream=stream)
            except ProfileError as e:
                problems.append(f"profiler[{stream}]: {e}")
        if prof is not None:
            for needle in ("phase attribution", "instruction classes",
                           "roofline", "% of peak"):
                if needle not in prof.render():
                    problems.append(f"profile report missing {needle!r}")
            if not prof.collapsed().strip():
                problems.append("profiler produced no flamegraph stacks")
            try:
                validate_chrome_trace(chrome_trace(
                    reg, extra_events=prof.trace_events()))
            except ValueError as e:
                problems.append(f"merged profile trace schema: {e}")
        # exporter drill: the Prometheus render carries a counter the
        # workload moved and is bit-stable across two renders of the
        # now-idle registry; the delta view computes sane rates
        from .export import (JsonExporter, PrometheusExporter,
                             snapshot_delta)
        text1 = PrometheusExporter().render(reg.snapshot())
        text2 = PrometheusExporter().render(reg.snapshot())
        if "repro_plan_cache_misses" not in text1:
            problems.append("prometheus render missing "
                            "repro_plan_cache_misses")
        if text1 != text2:
            problems.append("prometheus render not bit-stable on an "
                            "idle registry")
        try:
            json.loads(JsonExporter().render(reg.snapshot()))
        except ValueError as e:
            problems.append(f"json exporter output unparseable: {e}")
        delta = snapshot_delta({}, reg.snapshot(), seconds=1.0)
        if any(c["delta"] < 0 or c.get("rate", 0) < 0
               for c in delta["counters"].values()):
            problems.append("delta view produced a negative counter "
                            "delta/rate")
    # trace-propagation drill: a parallel run's shard spans must all
    # join the plan-run's trace with valid parent links
    import numpy as np

    from ..runtime.iatf import IATF
    with scoped() as reg:
        piatf = IATF(backend="parallel", workers=2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 4, 4))
        b = rng.standard_normal((64, 4, 4))
        piatf.gemm(a, b, np.zeros((64, 4, 4)), beta=0.0)
        shard_spans = [s for s in reg.spans
                       if s.name == "backend.parallel.shard"]
        kernel_spans = [s for s in reg.spans
                        if s.name == "engine.kernels"]
        span_ids = {s.span_id for s in reg.spans}
        if len(shard_spans) < 2:
            problems.append("parallel run recorded fewer than 2 shard "
                            "spans")
        elif not kernel_spans:
            problems.append("parallel run recorded no engine.kernels span")
        else:
            run_trace = kernel_spans[0].trace_id
            for s in shard_spans:
                if s.trace_id != run_trace:
                    problems.append("shard span orphaned from the "
                                    "plan-run's trace")
                    break
                if s.parent_id not in span_ids:
                    problems.append(f"shard span parent {s.parent_id!r} "
                                    f"is not a recorded span")
                    break
        try:
            validate_chrome_trace(chrome_trace(reg))
        except ValueError as e:
            problems.append(f"parallel-run trace schema: {e}")
    # watchdog drill: a healthy trajectory passes, an injected 20%
    # modeled-gflops regression is flagged with exit code 1
    from .watch import check_trajectory
    healthy = [_synthetic_point(10.0, 1.0), _synthetic_point(10.1, 2.0)]
    regressed = healthy + [_synthetic_point(8.0, 3.0)]
    if check_trajectory(list(healthy)).exit_code != 0:
        problems.append("watchdog flagged a healthy trajectory")
    if check_trajectory(list(regressed)).exit_code != 1:
        problems.append("watchdog missed an injected 20% regression")
    # budget drill: a fully-stamped request budget conserves exactly —
    # the stages telescope, so their sum IS the end-to-end wall
    from .budget import STAGES, Budget
    b = Budget()
    for stage in STAGES:
        b.stamp(stage)
    if not b.closed:
        problems.append("stamping every stage did not close the budget")
    try:
        b.check()
    except Exception as e:   # noqa: BLE001 - any violation is the bug
        problems.append(f"budget conservation violated: {e}")
    # SLO drill: injected deadline-miss traffic must flip the verdict
    # from ok to page across two synthetic snapshots
    from .slo import SLOMonitor, SLOSpec
    spec = SLOSpec(name="drill-miss", tenant="drill", kind="deadline_miss",
                   objective=0.01, fast_window_s=5.0, slow_window_s=10.0)
    mon = SLOMonitor(specs=[spec])
    snap_of = lambda done, missed: {"counters": {
        "serve.tenant.drill.completed": done,
        "serve.tenant.drill.deadline_missed": missed}}
    mon._samples.append((0.0, snap_of(0, 0)))
    mon._samples.append((20.0, snap_of(100, 0)))
    healthy_verdict = mon.evaluate(now=20.0)[0]["verdict"]
    mon._samples.append((40.0, snap_of(200, 50)))
    burning_verdict = mon.evaluate(now=40.0)[0]["verdict"]
    if healthy_verdict != "ok":
        problems.append(f"SLO verdict on healthy traffic was "
                        f"{healthy_verdict!r}, not 'ok'")
    if burning_verdict != "page":
        problems.append(f"SLO verdict under 50% injected deadline misses "
                        f"was {burning_verdict!r}, not 'page'")
    # flight drill: the recorder's rings capture the demo workload's
    # spans and events, and a reject storm produces exactly one dump
    from .events import event as emit_event
    from .flight import FlightRecorder
    with scoped():
        rec = FlightRecorder(storm_window_s=10.0,
                             storm_threshold=5).attach()
        _demo_workload()
        emit_event("selfcheck.flight", level="info", drill=True)
        dump = rec.dump("self_check")
        if not dump["spans"]:
            problems.append("flight recorder captured no spans")
        if not dump["events"]:
            problems.append("flight recorder captured no events")
        for i in range(10):
            rec.note_reject("drill", now=100.0 + 0.1 * i)
        if rec.last_dump["trigger"] != "reject_storm":
            problems.append("reject storm did not trigger a flight dump")
        if rec.dumps != 2:
            problems.append(f"storm cooldown failed: {rec.dumps} dumps "
                            f"recorded, expected 2 (manual + one storm)")
    # serve drill: admission limits reject deterministically (typed, not
    # InvalidProblemError), coalesced results are bit-identical to
    # serial execution, and the serve.* counters move
    from ..errors import RejectedError
    from ..serve import BlasService, Request
    with scoped() as reg:
        # a bucket that can never flush on its own: queued requests
        # stay in flight, so the 3rd same-tenant submit must bounce
        svc = BlasService(max_batch=1024, max_wait_ms=10_000.0,
                          max_in_flight=2, max_queue_depth=1024)
        svc.start()
        rng = np.random.default_rng(2)
        def one_gemm(tenant):
            a = rng.standard_normal((4, 4)).astype(np.float32)
            return Request.gemm(a, a, tenant=tenant)
        held = [svc.submit(one_gemm("hog")) for _ in range(2)]
        try:
            svc.submit(one_gemm("hog"))
            problems.append("over-limit tenant was not rejected")
        except RejectedError:
            pass
        except Exception as e:   # noqa: BLE001 - wrong type is the bug
            problems.append(f"over-limit tenant got {type(e).__name__}, "
                            f"not RejectedError")
        try:
            svc.submit(one_gemm("polite"))
        except RejectedError:
            problems.append("in-limit tenant was rejected alongside the "
                            "over-limit one")
        svc.stop()               # drains: the held futures must resolve
        if any(f.exception() is not None for f in held):
            problems.append("drained request failed at service stop")
        # coalesced == serial, bit for bit, over mixed routines/dtypes
        from ..runtime.iatf import IATF
        from ..serve.client import make_request
        svc2 = BlasService(max_batch=8, max_wait_ms=1.0)
        svc2.start()
        rng2 = np.random.default_rng(3)
        reqs = [make_request(rng2, i) for i in range(24)]
        futs = [svc2.submit(r) for r in reqs]
        outs = [f.result(60.0) for f in futs]
        svc2.stop()
        serial = IATF()
        for req, out in zip(reqs, outs):
            if req.routine == "gemm":
                p = req.problem
                want = serial.gemm(req.a[None], req.b[None], req.c[None],
                                   alpha=p.alpha, beta=p.beta,
                                   transa=p.transa, transb=p.transb)[0]
            else:
                p = req.problem
                want = serial.trsm(req.a[None], req.b[None], alpha=p.alpha,
                                   side=p.side, uplo=p.uplo,
                                   transa=p.transa, diag=p.diag)[0]
            if out.tobytes() != want.tobytes():
                problems.append(f"coalesced result diverged from serial "
                                f"for {req.describe()}")
                break
        counters = reg.snapshot()["counters"]
        for want_counter in ("serve.submitted", "serve.admitted",
                             "serve.rejected", "serve.flush"):
            if counters.get(want_counter, 0) <= 0:
                problems.append(f"counter {want_counter} did not move")
        if not any(e["name"] == "serve.reject"
                   for e in reg.events.tail(1000, prefix="serve.")):
            problems.append("rejection emitted no serve.reject event")
        # every completed request left a closed, conserving budget
        bstats = svc2.stats()["budget"]["by_tenant"]
        if bstats["recorded"] < len(reqs):
            problems.append(
                f"budget ledger recorded {bstats['recorded']} of "
                f"{len(reqs)} completed requests")
        if bstats["violations"] != 0:
            problems.append(f"{bstats['violations']} budget conservation "
                            f"violations in the serve drill")
    if problems:
        print("obs self-check FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("obs self-check OK: counters, spans, trace schema, exporters, "
          "trace propagation, explain reports, profiler conservation, "
          "the watchdog, latency budgets, SLO burn rates, the flight "
          "recorder, and the serve drill all healthy")
    return 0


def _cmd_explain(args) -> int:
    from ..runtime.iatf import IATF
    from ..types import GemmProblem, TrsmProblem

    from ..errors import InvalidProblemError

    iatf = IATF()
    try:
        if args.routine == "gemm":
            problem = GemmProblem(args.m, args.n, args.k, args.dtype,
                                  batch=args.batch)
            report = iatf.explain_gemm(problem, force_pack=args.force_pack,
                                       deep=args.deep)
        else:
            mode = args.mode.upper()
            if len(mode) != 4:
                print(f"error: --mode wants 4 letters "
                      f"(side/uplo/trans/diag, e.g. LLNN), got {args.mode!r}")
                return 2
            side, uplo, trans, diag = mode
            problem = TrsmProblem(args.m, args.n, args.dtype, side, uplo,
                                  trans, diag, batch=args.batch)
            report = iatf.explain_trsm(problem, force_pack=args.force_pack,
                                       deep=args.deep)
    except InvalidProblemError as exc:
        print(f"error: {exc}")
        return 2
    print(report.render())
    return 0


def _parse_trsm_mode(mode: str) -> "tuple[str, str, str, str] | None":
    mode = mode.upper()
    return tuple(mode) if len(mode) == 4 else None


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
            letters = _parse_trsm_mode(args.mode)
            if letters is None:
                print(f"error: --mode wants 4 letters "
                      f"(side/uplo/trans/diag, e.g. LLNN), got {args.mode!r}")
                return 2
            problem = TrsmProblem(args.m, args.n, args.dtype, *letters,
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


def _cmd_watch(args) -> int:
    result = watch(args.paths, gflops_threshold=args.threshold,
                   wall_threshold=args.wall_threshold,
                   mega_floor=args.mega_floor,
                   drift_threshold=args.drift_threshold,
                   slo_path=args.slo_path)
    print(result.render())
    return result.exit_code


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
        # no live service: run the demo workload with a recorder
        # attached so the dump shows a real span/event sequence
        from .flight import FlightRecorder
        with scoped():
            rec = FlightRecorder().attach()
            _demo_workload()
            dump = rec.dump("cli_demo")
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
    if "--self-check" in argv:            # CI-friendly flag spelling
        argv = ["self-check"] + [a for a in argv if a != "--self-check"]

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

    sub.add_parser("self-check", help="end-to-end smoke test of the "
                   "observability subsystem (CI)")

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
    p_prof.add_argument("--stream", choices=("raw", "fused", "megakernel"),
                        default="raw",
                        help="which compiled command stream to attribute "
                        "(raw and megakernel carry a per-kernel breakdown)")
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
                             "/delta.json, /events, /healthz, /trajectory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9109,
                         help="TCP port (0 picks an ephemeral one; "
                         "default 9109)")
    p_serve.add_argument("--demo", action="store_true",
                         help="also run the backend-showdown workload in "
                         "a background thread so the metrics move")
    p_serve.add_argument("--demo-batch", type=int, default=512,
                         help="batch size for the demo workload rounds")
    p_serve.add_argument("--trajectory", default="BENCH_backends.json",
                         metavar="PATH", help="trajectory file served "
                         "at /trajectory (default BENCH_backends.json)")
    p_serve.add_argument("--for-seconds", type=float, default=None,
                         metavar="S", help="shut down after S seconds "
                         "instead of serving forever (CI smoke)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress the startup banner")

    p_watch = sub.add_parser("watch", help="bench-trajectory regression "
                             "watchdog: diff BENCH_*.json series, exit "
                             "nonzero on regressions (CI gate)")
    p_watch.add_argument("paths", nargs="*", default=["BENCH_backends.json"],
                         metavar="PATH", help="trajectory JSON files "
                         "(default: BENCH_backends.json)")
    p_watch.add_argument("--threshold", type=float, default=0.10,
                         help="modeled-GFLOPS regression threshold as a "
                         "fraction (default 0.10 = 10%%)")
    p_watch.add_argument("--wall-threshold", type=float, default=None,
                         help="opt-in wall-clock regression threshold "
                         "(host-dependent; pinned perf runners only)")
    p_watch.add_argument("--mega-floor", type=float, default=None,
                         help="require wall(fused)/wall(megakernel) >= "
                         "floor in the latest run — the trace-compiled "
                         "backend must keep its measured speedup")
    p_watch.add_argument("--drift-threshold", type=float, default=None,
                         help="flag series whose wall/model ratio grew "
                         "past 1+T vs baseline (advisory: feeds online "
                         "re-tuning, never the exit code)")
    p_watch.add_argument("--slo", dest="slo_path", metavar="PATH",
                         default=None,
                         help="fold a saved /slo dump's warn/page "
                         "burn-rate verdicts into the report (advisory: "
                         "never the exit code)")

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
    if args.command == "self-check":
        return _cmd_self_check(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "flight":
        return _cmd_flight(args)
    if args.command == "serve":
        from .serve import serve
        return serve(args.host, args.port, demo=args.demo,
                     demo_batch=args.demo_batch,
                     trajectory_path=args.trajectory,
                     for_seconds=args.for_seconds, quiet=args.quiet)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
