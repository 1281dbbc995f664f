"""Human-readable output: metric lines, the per-layer conservation table
and the Chrome trace of a traced run."""

from __future__ import annotations

import json
import math
import resource
import statistics

from repro.obs import validate_chrome_trace

#: per-layer metric units; layer times and counts are per end-to-end
#: operation of the workload (a call, a request or a tuned shape)
PER_LAYER_UNITS = {
    "layout.interleave_ms": "ms/op", "layout.deinterleave_ms": "ms/op",
    "layout.bytes": "B/op",
    "plan.ms": "ms/op", "plan.calls": "1/op", "plan_cache.hit_ratio": "ratio",
    "lower.ms": "ms/op", "lower.calls": "1/op", "lower.commands_out": "1/op",
    "codegen.share": "ratio", "codegen.calls": "1/op", "codegen.loc": "1/op",
    "execute.ms": "ms/op", "execute.calls": "1/op", "execute.groups": "1/op",
    "execute.bytes": "B/op",
    "pack.ms": "ms/op", "pack.bytes": "B/op",
    "serve.admit_ms": "ms/op", "serve.coalesce_wait_ms": "ms/op",
    "serve.stack_ms": "ms/op", "serve.plan_ms": "ms/op",
    "serve.execute_ms": "ms/op", "serve.scatter_ms": "ms/op",
    "serve.coalesce_ratio": "ratio", "serve.flushes": "count",
    "serve.rejected": "count",
    "model.time_plan_ms": "ms/op", "model.instructions": "1/op",
    "model.percent_peak": "%",
    "tuning.rank_ms": "ms/op", "tuning.candidates_measured": "1/op",
    "trace.overhead_ratio": "ratio", "trace.residual_share": "ratio",
}

#: what one operation and one repetition are, per workload, and the
#: issue-level names its throughput and latency go by
OPS = {
    "lib_bulk": ("call", "round over the six problems", "calls_per_s",
                 "call_ms"),
    "lib_cold_shapes": ("first-seen call", "pass with a fresh IATF",
                        "shapes_per_s", "cold_call_ms"),
    "serve_closed": ("request, submit to result",
                     "pass of the closed loop over the pool", "serve_rps",
                     "serve_ms"),
    "tune_sweep": ("shape tuned into the DB", "pass with a fresh TuningDB",
                   "tuned_shapes_per_s", "tune_ms"),
}


#: ``workloads.host_probe()`` on the reference host, a two-vCPU Intel
#: Xeon VM, while no other tenant loaded it (estimated from its fastest
#: readings).  End-to-end timings are reported as they would read at
#: that host speed.
PROBE_REF_S = 0.0033


def _run_probe(out) -> "float | None":
    probes = [p for r in out.reps for p in r[3]]
    return statistics.median(probes) if probes else None


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(out, normalize: bool = True) -> dict:
    """The end-to-end metrics of one untraced run.

    Each operation's latency is scaled to the reference host speed by
    ``PROBE_REF_S / probe``, where ``probe`` is the host probe timed next
    to that operation or its repetition, and a repetition's seconds by
    the latency-weighted mean of its factors.  Every repetition makes
    the same operations in the same order: the latency percentiles are
    taken over the operations' median latencies across repetitions, and
    throughput is the median over repetitions.  Each set-up is scaled by
    the probe timed just before it.  The scaling removes the shared
    host's slow phases, which last for minutes; the medians remove bursts
    shorter than half the run.  ``normalize=False`` gives the raw
    wall-clock figures.
    """
    def k(probe: float) -> float:
        return PROBE_REF_S / probe if normalize else 1.0

    def scaled(n, seconds, lat, probes) -> tuple:
        lat_k = [t * k(p) for t, p in zip(lat, probes)]
        return n / (seconds * math.fsum(lat_k) / math.fsum(lat)), lat_k

    reps = [scaled(*r) for r in out.reps if r[2]]
    per_op = [statistics.median(op) for op in zip(*(lat for _r, lat in reps))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(t * k(p) for t, p in out.setup_s),
                    "s"),
        "ops_per_s": (statistics.median(rate for rate, _lat in reps),
                      "1/s"),
        "op_ms.p50": (statistics.median(per_op) * 1e3, "ms"),
        "op_ms.p90": (_p90(per_op) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(out) -> dict:
    return {name: (out.layers[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}


def metric_lines(workload: str, out, metrics: dict, trace: bool) -> str:
    op, rep, rate, latency = OPS[workload]
    lines = [f"{workload}: op = one {op}; repetition = one {rep}"
             f" (ops_per_s = {rate}, op_ms = {latency})"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<26} {value:>14.6g} {unit}")
    if not trace:
        probe = _run_probe(out)
        lines.append("  raw wall clock (" + (
            f"host probe {probe * 1e3:.3f} ms, reference "
            f"{PROBE_REF_S * 1e3:.3f} ms" if probe else "not scaled") + "):")
        for name, (value, unit) in end_to_end(out, False).items():
            if unit != "MB":
                lines.append(f"    {name:<24} {value:>14.6g} {unit}")
        if out.flops:
            lines.append(f"    {'gflops':<24} "
                         f"{out.flops / out.busy_s / 1e9:>14.6g} GFLOP/s")
        lines.append(f"  {'samples':<26} {out.ops:>14d} ops in "
                     f"{len(out.reps)} repetitions")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    lines.append(f"  {'failed_ratio':<26} {ratio:>14.6g} "
                 f"({out.failed}/{out.attempted})")
    if trace:
        lines.append("  layer table (ms per op, self time):")
        for row in conservation(out)["rows"]:
            lines.append(f"    {row['layer']:<24} {row['ms']:>12.4f}"
                         f" {row['share']:>8.1%}")
        c = conservation(out)
        lines.append(f"    {'sum':<24} {c['sum_ms']:>12.4f}"
                     f"   e2e {c['e2e_ms']:.4f} ms/op")
    return "\n".join(lines)


def conservation(out) -> dict:
    """The layer table: self times plus residual, which must sum to the
    traced end-to-end time per operation."""
    total = math.fsum(ms for _layer, ms in out.table)
    rows = [{"layer": layer, "ms": ms,
             "share": ms / out.e2e_ms if out.e2e_ms else 0.0}
            for layer, ms in out.table]
    return {"rows": rows, "sum_ms": total, "e2e_ms": out.e2e_ms,
            "error": abs(total - out.e2e_ms)}


def write_chrome_trace(tracer, path: str) -> None:
    """Write the traced run's spans and check the file loads as a valid
    Chrome trace."""
    with open(path, "w") as f:
        json.dump(tracer.chrome_trace(), f)
    with open(path) as f:
        validate_chrome_trace(json.load(f))
