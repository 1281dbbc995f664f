"""One function per paper artifact (see DESIGN.md's experiment index).

Each function takes a :class:`~repro.bench.harness.BenchHarness` (so
callers choose full paper-size grids or quick grids) and returns a
structured result dict; ``render()`` keys hold ready-to-print text.
"""

from __future__ import annotations

import dataclasses

from .. import obs
from ..codegen.cmar import optimal_gemm_kernel
from ..codegen.generator_gemm import generate_gemm_kernel
from ..codegen.optimizer import schedule_program
from ..codegen.registry import table1_inventory
from ..machine.machines import KUNPENG_920, XEON_GOLD_6240
from ..machine.pipeline import AddressSpace
from ..runtime.iatf import IATF
from ..types import BlasDType, GemmProblem
from .harness import BenchHarness, Series
from .reporting import decision_stats, ratio_summary, series_table

__all__ = ["fig4_tiling", "fig5_scheduling", "fig7_gemm_nn",
           "fig8_gemm_modes", "fig9_trsm_lnln", "fig10_trsm_modes",
           "fig11_mkl_gemm", "fig12_mkl_trsm", "table1_kernels",
           "table2_machines", "headline_speedups", "ablation_scheduling",
           "ablation_nopack", "ablation_batch_counter",
           "ablation_tuned",
           "serve_throughput"]

GEMM_MODES = ("NN", "NT", "TN", "TT")
TRSM_MODES = ("LNLN", "LNUN", "LTLN", "LTUN")
DTYPES = ("s", "d", "c", "z")


# ---------------------------------------------------------------------------
# Figures 7-10: the main GEMM/TRSM comparisons
# ---------------------------------------------------------------------------

def fig7_gemm_nn(h: BenchHarness) -> dict:
    """Compact GEMM vs ARMPL batch / LIBXSMM / loop-OpenBLAS, NN mode."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        series = h.gemm_series(dt, "NN")
        out["series"][dt] = series
        out["render"][dt] = (
            series_table(series, f"Figure 7 — {dt}gemm NN (GFLOPS), "
                                 f"batch={h.batch}")
            + "\n" + ratio_summary(series))
    return out


def fig8_gemm_modes(h: BenchHarness) -> dict:
    """GEMM under NN / NT / TN / TT for every dtype."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        for mode in GEMM_MODES:
            series = h.gemm_series(dt, mode)
            out["series"][(dt, mode)] = series
            out["render"][(dt, mode)] = (
                series_table(series, f"Figure 8 — {dt}gemm {mode} (GFLOPS)")
                + "\n" + ratio_summary(series))
    return out


def fig9_trsm_lnln(h: BenchHarness) -> dict:
    """Compact TRSM vs loop-ARMPL / loop-OpenBLAS, LNLN mode."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        series = h.trsm_series(dt, "LNLN")
        out["series"][dt] = series
        out["render"][dt] = (
            series_table(series, f"Figure 9 — {dt}trsm LNLN (GFLOPS), "
                                 f"batch={h.batch}")
            + "\n" + ratio_summary(series))
    return out


def fig10_trsm_modes(h: BenchHarness) -> dict:
    """TRSM under LNLN / LNUN / LTLN / LTUN for every dtype."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        for mode in TRSM_MODES:
            series = h.trsm_series(dt, mode)
            out["series"][(dt, mode)] = series
            out["render"][(dt, mode)] = (
                series_table(series, f"Figure 10 — {dt}trsm {mode} (GFLOPS)")
                + "\n" + ratio_summary(series))
    return out


# ---------------------------------------------------------------------------
# Figures 11-12: percent-of-peak vs MKL compact on the Xeon model
# ---------------------------------------------------------------------------

def fig11_mkl_gemm(h: BenchHarness) -> dict:
    """IATF vs Intel MKL compact GEMM, percent of machine peak."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        series = h.gemm_percent_peak(dt)
        out["series"][dt] = series
        out["render"][dt] = series_table(
            series, f"Figure 11 — {dt}gemm NN, % of machine peak",
            fmt="{:6.1f}%")
    return out


def fig12_mkl_trsm(h: BenchHarness) -> dict:
    """IATF vs Intel MKL compact TRSM, percent of machine peak."""
    out = {"series": {}, "render": {}}
    for dt in DTYPES:
        series = h.trsm_percent_peak(dt)
        out["series"][dt] = series
        out["render"][dt] = series_table(
            series, f"Figure 12 — {dt}trsm LNLN, % of machine peak",
            fmt="{:6.1f}%")
    return out


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_kernels(machine=KUNPENG_920) -> dict:
    """Regenerate Table 1: the kernel inventory, with CMAR optima checked."""
    inv = table1_inventory()
    lines = ["Table 1 — generated kernels"]
    for fam, entry in inv.items():
        lines.append(f"  {fam}:")
        lines.append(f"    main: {entry['main']}")
        lines.append(f"    edge: {entry['edge']}")
        if "tri" in entry:
            lines.append(f"    triangular: {entry['tri']}")
    real_opt = optimal_gemm_kernel("d", machine.num_vregs)
    cplx_opt = optimal_gemm_kernel("z", machine.num_vregs)
    lines.append(f"  CMAR optimum (real) = {real_opt}, (complex) = {cplx_opt}")
    return {"inventory": inv, "real_opt": real_opt, "cplx_opt": cplx_opt,
            "render": "\n".join(lines)}


def table2_machines() -> dict:
    """Regenerate Table 2: machine specs and model-derived peaks."""
    rows = []
    for m in (KUNPENG_920, XEON_GOLD_6240):
        rows.append({
            "name": m.name,
            "freq_ghz": m.freq_ghz,
            "simd_bits": m.vector_bytes * 8,
            "l1_kb": m.l1.size // 1024,
            "l2_kb": m.l2.size // 1024,
            "peak_fp64": m.peak_gflops("d"),
            "peak_fp32": m.peak_gflops("s"),
        })
    lines = ["Table 2 — machine models",
             f"{'':24}{'Kunpeng 920':>14}{'Xeon 6240':>14}"]
    for key, label in [("peak_fp64", "Peak FP64 (GFLOPS)"),
                       ("peak_fp32", "Peak FP32 (GFLOPS)"),
                       ("freq_ghz", "Frequency (GHz)"),
                       ("simd_bits", "SIMD (bits)"),
                       ("l1_kb", "L1D (KB)"),
                       ("l2_kb", "L2 (KB)")]:
        lines.append(f"{label:<24}{rows[0][key]:>14}{rows[1][key]:>14}")
    return {"rows": rows, "render": "\n".join(lines)}


# ---------------------------------------------------------------------------
# Figures 4-5: tiling and scheduling studies
# ---------------------------------------------------------------------------

def fig4_tiling(machine=KUNPENG_920) -> dict:
    """15x15 SGEMM tile inventories: traditional vs compact (Figure 4).

    The paper's point is qualitative: under the compact layout the main
    kernel is 4x4 with full lanes in every tile, so a 15-wide dimension
    becomes 4+4+4+3 with zero wasted lanes; the traditional layout needs
    M-vectorized tiles whose last vector is partially filled.
    """
    from ..baselines.common import decompose_cols, decompose_vectors
    from ..codegen.tiling import decompose_dim
    lanes = machine.lanes("s")
    compact_m = decompose_dim(15, 4)
    compact_n = decompose_dim(15, 4)
    trad_chunks = decompose_vectors(15, machine.vector_bytes // 4)
    trad_cols = decompose_cols(15)
    trad_rows = [(mv, t) for mv, t in trad_chunks]
    wasted = sum(mv * (machine.vector_bytes // 4) - ((mv - 1) *
                 (machine.vector_bytes // 4) + t) for mv, t in trad_chunks)
    lines = ["Figure 4 — tiling of 15x15 SGEMM",
             f"  compact tiles (m x n): {compact_m} x {compact_n} "
             f"(full SIMD lanes in every tile: {lanes} matrices/lane)",
             f"  traditional row chunks (vectors, live lanes in last): "
             f"{trad_rows}; column tiles {trad_cols}",
             f"  traditional wasted lanes per column pass: {wasted} "
             f"of {15 + wasted}"]
    return {"compact": (compact_m, compact_n),
            "traditional": (trad_rows, trad_cols),
            "wasted_lanes": wasted,
            "render": "\n".join(lines)}


def fig5_scheduling(machine=KUNPENG_920, k: int = 16) -> dict:
    """Cycles of the 4x4 DGEMM kernel at the three scheduling stages."""
    prog = generate_gemm_kernel(4, 4, k, "d", machine)
    reord = schedule_program(prog, machine, resource_aware=False)
    opt = schedule_program(prog, machine, resource_aware=True)
    results = {}
    for label, p in [("original", prog), ("reordered", reord),
                     ("optimized", opt)]:
        caches = machine.make_caches()
        pipe = machine.make_pipeline(caches)
        asp = AddressSpace()
        aA = asp.place("pA", 4 * k * 16)
        aB = asp.place("pB", 4 * k * 16)
        aC = asp.place("C", 4 * 4 * 16)
        caches.warm_range(aA, 4 * k * 16)
        caches.warm_range(aB, 4 * k * 16)
        caches.warm_range(aC, 512)
        init = {0: aA, 1: aB}
        init.update({2 + j: aC + j * 64 for j in range(4)})
        r = pipe.simulate(p, init)
        results[label] = {
            "cycles": r.cycles, "ipc": r.ipc, "stalls": r.stall_cycles,
            "gflops": machine.gflops(p.flops_per_group, r.cycles),
        }
    lines = [f"Figure 5 — instruction scheduling of dgemm 4x4 (K={k})"]
    for label, r in results.items():
        lines.append(f"  {label:>10}: {r['cycles']:4d} cycles, "
                     f"ipc {r['ipc']:.2f}, {r['gflops']:.2f} GFLOPS "
                     f"(peak {machine.peak_gflops('d')})")
    return {"results": results, "render": "\n".join(lines)}


# ---------------------------------------------------------------------------
# headline speedups and ablations
# ---------------------------------------------------------------------------

PAPER_HEADLINES = {
    ("gemm", "s"): {"OpenBLAS (loop)": 21, "ARMPL (batch)": 8,
                    "LIBXSMM (batch)": 5},
    ("gemm", "d"): {"OpenBLAS (loop)": 7, "ARMPL (batch)": 4,
                    "LIBXSMM (batch)": 2},
    ("gemm", "c"): {"OpenBLAS (loop)": 12, "ARMPL (batch)": 8},
    ("gemm", "z"): {"OpenBLAS (loop)": 6, "ARMPL (batch)": 5},
    ("trsm", "s"): {"OpenBLAS (loop)": 28, "ARMPL (loop)": 7},
    ("trsm", "d"): {"OpenBLAS (loop)": 12, "ARMPL (loop)": 5},
    ("trsm", "c"): {"OpenBLAS (loop)": 10, "ARMPL (loop)": 4},
    ("trsm", "z"): {"OpenBLAS (loop)": 5, "ARMPL (loop)": 3},
}


def headline_speedups(h: BenchHarness) -> dict:
    """Max IATF speedup per baseline/dtype vs the paper's 'up to' claims."""
    measured: dict = {}
    lines = ["Headline speedups — measured vs paper"]
    for (routine, dt), paper in PAPER_HEADLINES.items():
        series = (h.gemm_series(dt, "NN") if routine == "gemm"
                  else h.trsm_series(dt, "LNLN"))
        for lib, paper_x in paper.items():
            best, at = h.max_speedup(series, over=lib)
            measured[(routine, dt, lib)] = (best, at, paper_x)
            lines.append(f"  {dt}{routine} vs {lib:<18} measured "
                         f"{best:5.1f}x (at n={at:>2})   paper: up to "
                         f"{paper_x}x")
    return {"measured": measured, "render": "\n".join(lines)}


def ablation_scheduling(sizes=(4, 8, 16, 32), dtype: str = "d",
                        batch: int = 16384) -> dict:
    """IATF with the kernel optimizer disabled (Figure 5, end to end):
    each plan is re-timed with its ``schedule`` bit off, so the model
    times the generated template order."""
    iatf = IATF(KUNPENG_920)
    rows = []
    with obs.scoped() as reg:
        for n in sizes:
            plan = iatf.plan_gemm(GemmProblem(n, n, n, dtype, batch=batch))
            g_on = iatf.engine.time_plan(plan).gflops
            g_off = iatf.engine.time_plan(
                dataclasses.replace(plan, schedule=False)).gflops
            rows.append((n, g_on, g_off, g_on / g_off))
    lines = [f"Ablation — kernel optimizer, {dtype}gemm NN",
             f"{'n':>4} {'scheduled':>10} {'unscheduled':>12} {'gain':>6}"]
    for n, a, b, r in rows:
        lines.append(f"{n:>4} {a:>10.2f} {b:>12.2f} {r:>5.2f}x")
    stats = decision_stats(reg)
    if stats:
        lines.append(stats)
    return {"rows": rows, "render": "\n".join(lines)}


def ablation_nopack(sizes=(1, 2, 3, 4), dtype: str = "d",
                    batch: int = 16384) -> dict:
    """IATF with the no-packing fast path disabled (force_pack)."""
    iatf = IATF(KUNPENG_920)
    rows = []
    with obs.scoped() as reg:
        for n in sizes:
            prob = GemmProblem(n, n, n, dtype, batch=batch)
            g_on = iatf.time_gemm(prob).gflops
            g_off = iatf.time_gemm(prob, force_pack=True).gflops
            rows.append((n, g_on, g_off, g_on / g_off))
    lines = [f"Ablation — no-packing fast path, {dtype}gemm NN "
             f"(sizes where A qualifies)",
             f"{'n':>4} {'no-pack':>10} {'forced pack':>12} {'gain':>6}"]
    for n, a, b, r in rows:
        lines.append(f"{n:>4} {a:>10.2f} {b:>12.2f} {r:>5.2f}x")
    stats = decision_stats(reg)
    if stats:
        lines.append(stats)
    return {"rows": rows, "render": "\n".join(lines)}


def ablation_batch_counter(sizes=(2, 4, 8, 16), dtype: str = "d",
                           batch: int = 16384) -> dict:
    """IATF with the batch counter neutralized.

    The batch counter sizes rounds so packed working sets stay in L1;
    without it, rounds grow until packed panels live in L2 — modeled by
    re-marking the plan's packed buffers L2-resident and re-timing.
    """
    from ..runtime.engine import Engine
    iatf = IATF(KUNPENG_920)
    engine = Engine(KUNPENG_920)
    rows = []
    with obs.scoped() as reg:
        for n in sizes:
            prob = GemmProblem(n, n, n, dtype, batch=batch)
            plan = iatf.plan_gemm(prob)
            g_on = engine.time_plan(plan).gflops
            demoted = {
                name: (dataclasses.replace(spec, warm="l2")
                       if spec.warm == "l1" else spec)
                for name, spec in plan.buffers.items()
            }
            plan_off = dataclasses.replace(plan, buffers=demoted)
            g_off = engine.time_plan(plan_off).gflops
            rows.append((n, g_on, g_off, g_on / g_off))
    lines = [f"Ablation — batch counter (L1-resident rounds), {dtype}gemm NN",
             f"{'n':>4} {'L1 rounds':>10} {'L2 rounds':>10} {'gain':>6}"]
    for n, a, b, r in rows:
        lines.append(f"{n:>4} {a:>10.2f} {b:>10.2f} {r:>5.2f}x")
    stats = decision_stats(reg)
    if stats:
        lines.append(stats)
    return {"rows": rows, "render": "\n".join(lines)}


def ablation_tuned(sizes=tuple(range(1, 34)), dtype: str = "d",
                   batch: int = 16384, tuning_db=None) -> dict:
    """Install-time tuning vs the analytic CMAR choice, Table-1 sweep.

    Runs (or loads) an install-time sweep for the whole size grid, then
    records *both* curves — the analytic plan's simulated GFLOPS and the
    tuned plan's — side by side.  The tuned curve must never dip below
    the analytic one (the tuner only replaces the analytic candidate on
    a strictly cheaper measurement); shapes where it rises are the
    input-aware wins the subsystem exists for.

    ``tuning_db`` is a path to a previously swept DB (the CLI's
    ``--tuning-db`` flag); ``None`` sweeps in memory here.
    """
    from ..tuning import TuningDB, sweep as tuning_sweep

    if tuning_db is not None:
        db = TuningDB.load(tuning_db)
        swept = None
    else:
        db = TuningDB()
        swept = tuning_sweep(db, KUNPENG_920, ops=("gemm",),
                             dtypes=(dtype,), sizes=sizes, batch=batch)

    analytic = Series("IATF analytic", dtype, "gflops")
    tuned = Series("IATF tuned", dtype, "gflops")
    rows = []
    with obs.scoped() as reg:
        plain = IATF(KUNPENG_920)
        tuned_fw = IATF(KUNPENG_920, tuning_db=db)
        for n in sizes:
            prob = GemmProblem(n, n, n, dtype, batch=batch)
            g0 = plain.time_gemm(prob).gflops
            g1 = tuned_fw.time_gemm(prob).gflops
            plan = tuned_fw.plan_gemm(prob)
            decision = plan.meta["decision"]
            analytic.points.append((n, g0))
            tuned.points.append((n, g1))
            rows.append((n, g0, g1, plan.meta["main_kernel"],
                         decision["source"]))
        counters = reg.snapshot()["counters"]
    hits = counters.get("tuning.hit", 0)
    improved = sum(1 for _, g0, g1, _, _ in rows if g1 > g0 + 1e-12)
    lines = [f"Ablation — install-time tuning vs analytic CMAR, "
             f"{dtype}gemm NN (batch {batch})",
             f"{'n':>4} {'analytic':>9} {'tuned':>9} {'main':>8} "
             f"{'source':>9}"]
    for n, g0, g1, main, source in rows:
        mark = "  <- tuned win" if g1 > g0 + 1e-12 else ""
        lines.append(f"{n:>4} {g0:>9.3f} {g1:>9.3f} {str(main):>8} "
                     f"{source:>9}{mark}")
    lines.append(f"tuned >= analytic on all {len(rows)} shapes; "
                 f"{improved} strictly improved; "
                 f"{hits} DB hits ({len(db)} entries)")
    return {"rows": rows, "series": {"analytic": analytic, "tuned": tuned},
            "outcomes": swept, "db": db, "render": "\n".join(lines)}


def serve_throughput(size: int = 8, dtype: str = "s",
                     n_requests: int = 512, max_batch: int = 64,
                     max_wait_ms: float = 2.0,
                     rates: "tuple[float | None, ...]" = (500.0, 2000.0,
                                                          None),
                     machine=KUNPENG_920) -> dict:
    """Coalesced service vs per-request (batch-of-1) submission.

    The service-layer ablation: the *same* request stream (one small
    GEMM per request) is driven through two :class:`BlasService`
    configurations — the real coalescer (``max_batch`` requests per
    compact flush) and a degenerate batch-of-1 service where every
    request flushes alone — across submission rates.  At low rates both
    keep up (the stream is latency-bound, throughput equals the offered
    rate); at the firehose rate (``None``) the coalesced service wins
    by roughly the lane-occupancy factor times the amortized per-flush
    overhead, which is the whole argument for the serving frontend.

    Wall-clock based; the render also
    prints the cycle model's per-request efficiency at the two batch
    sizes, which tells the same lane-waste story without host noise.
    """
    from ..runtime.engine import Engine
    from ..serve.client import run_traffic
    from ..serve.service import BlasService

    dt = BlasDType.from_any(dtype)
    shapes = ((size, size, size),)
    configs = {"coalesced": dict(max_batch=max_batch,
                                 max_wait_ms=max_wait_ms),
               "batch1": dict(max_batch=1, max_wait_ms=0.0)}

    rows: "list[dict]" = []
    services: "dict[str, dict]" = {}
    for mode, kw in configs.items():
        svc = BlasService(machine, **kw)
        svc.start()
        # warm: plans, kernels, and the lowered streams all cached
        run_traffic(svc, n_requests=max(32, 2 * max_batch), seed=1,
                    shapes=shapes, dtypes=(dt.value,))
        per_rate = {}
        for rate in rates:
            res = run_traffic(svc, n_requests=n_requests, seed=7,
                              rate=rate, shapes=shapes,
                              dtypes=(dt.value,))
            per_rate[rate] = res
        stats = svc.stats()
        svc.stop()
        services[mode] = {"per_rate": per_rate,
                          "coalesce": stats["coalesce"],
                          "plan_cache": stats["plan_cache"]}
        obs.count(f"bench.serve.{mode}")

    for rate in rates:
        co = services["coalesced"]["per_rate"][rate]
        b1 = services["batch1"]["per_rate"][rate]
        ratio = (co["throughput_rps"] / b1["throughput_rps"]
                 if b1["throughput_rps"] else float("inf"))
        rows.append({"rate": rate, "coalesced_rps": co["throughput_rps"],
                     "batch1_rps": b1["throughput_rps"],
                     "ratio": round(ratio, 3)})

    # deterministic per-request efficiency at the two batch sizes: the
    # cycle model's view of what lane occupancy buys
    engine = Engine(machine)
    fw = IATF(machine)
    t_full = engine.time_plan(fw.plan_gemm(
        GemmProblem(size, size, size, dt, batch=max_batch)))
    t_one = engine.time_plan(fw.plan_gemm(
        GemmProblem(size, size, size, dt, batch=1)))

    headline = rows[-1]["ratio"] if rows else 0.0
    lines = [f"Serve throughput — {dt.value}gemm {size}x{size}x{size}, "
             f"{n_requests} requests/run, coalesce max_batch={max_batch} "
             f"max_wait={max_wait_ms}ms (wall clock)",
             f"{'rate (rps)':>12} {'coalesced':>11} {'batch-of-1':>11} "
             f"{'ratio':>7}"]
    for row in rows:
        rate_label = ("firehose" if row["rate"] is None
                      else f"{row['rate']:.0f}")
        lines.append(f"{rate_label:>12} {row['coalesced_rps']:>11.1f} "
                     f"{row['batch1_rps']:>11.1f} {row['ratio']:>6.2f}x")
    co_stats = services["coalesced"]["coalesce"]
    lines.append(f"coalesced: {co_stats['flushes']} flushes, "
                 f"{co_stats['ratio']:.1f} requests/flush, max occupancy "
                 f"{co_stats['max_occupancy']}/{max_batch}; plan-cache "
                 f"hit rate "
                 f"{100 * services['coalesced']['plan_cache']['hit_rate']:.0f}%")
    lines.append(f"cycle model per request: batch {max_batch} = "
                 f"{t_full.gflops:.2f} GFLOPS "
                 f"({t_full.percent_of_peak:.1f}% peak) vs batch 1 = "
                 f"{t_one.gflops:.2f} GFLOPS "
                 f"({t_one.percent_of_peak:.1f}% peak)")
    lines.append(f"firehose speedup: {headline:.2f}x coalesced over "
                 f"batch-of-1")
    return {"rows": rows, "services": services,
            "firehose_ratio": headline, "render": "\n".join(lines)}
