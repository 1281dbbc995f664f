"""Command-line experiment runner.

Usage::

    python -m repro.bench list
    python -m repro.bench fig7 [--dtype d] [--full]
    python -m repro.bench fig9 --dtype s --full
    python -m repro.bench table1|table2|fig4|fig5|headline|ablation

Prints the same rows/series the paper's figures report.  ``--full``
uses the paper's complete 1..33 size grid (slower); the default grid is
the quick one the benchmark suite uses.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .harness import PAPER_SIZES, QUICK_SIZES, BenchHarness
from .reporting import ratio_summary, series_table

SWEEP_EXPERIMENTS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                     "headline")
LOCAL_EXPERIMENTS = ("table1", "table2", "fig4", "fig5", "ablation",
                     "tuned", "serve")


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.bench``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=("list",) + SWEEP_EXPERIMENTS
                        + LOCAL_EXPERIMENTS)
    parser.add_argument("--dtype", choices=["s", "d", "c", "z"],
                        help="restrict sweep experiments to one dtype")
    parser.add_argument("--mode", help="GEMM (NN/NT/TN/TT) or TRSM "
                        "(LNLN/...) mode for fig8/fig10")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full 1..33 size grid")
    parser.add_argument("--backend", choices=["interpret", "fused"],
                        default="fused",
                        help="executor backend sweep experiments run on")
    parser.add_argument("--requests", type=int, default=512,
                        help="request count per run of the 'serve' "
                        "throughput experiment")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="coalescer flush size for the 'serve' "
                        "experiment")
    parser.add_argument("--tuning-db", metavar="PATH",
                        help="TuningDB file (from 'python -m repro.tuning "
                        "sweep'): IATF curves apply its install-time "
                        "decisions; the 'tuned' experiment compares "
                        "against it instead of sweeping in memory")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("sweep experiments:", ", ".join(SWEEP_EXPERIMENTS))
        print("local experiments:", ", ".join(LOCAL_EXPERIMENTS))
        return 0

    if args.experiment in LOCAL_EXPERIMENTS:
        if args.experiment == "table1":
            print(experiments.table1_kernels()["render"])
        elif args.experiment == "table2":
            print(experiments.table2_machines()["render"])
        elif args.experiment == "fig4":
            print(experiments.fig4_tiling()["render"])
        elif args.experiment == "fig5":
            print(experiments.fig5_scheduling()["render"])
        elif args.experiment == "serve":
            dt = args.dtype or "s"
            print(experiments.serve_throughput(
                dtype=dt, n_requests=args.requests,
                max_batch=args.max_batch)["render"])
        elif args.experiment == "tuned":
            sizes = (PAPER_SIZES if args.full else QUICK_SIZES)
            dt = args.dtype or "d"
            print(experiments.ablation_tuned(
                sizes=sizes, dtype=dt,
                tuning_db=args.tuning_db)["render"])
        else:
            print(experiments.ablation_scheduling()["render"])
            print()
            print(experiments.ablation_nopack()["render"])
        return 0

    sizes = PAPER_SIZES if args.full else QUICK_SIZES
    h = BenchHarness(sizes=sizes,
                     backend=args.backend,
                     tuning_db=args.tuning_db)
    dtypes = [args.dtype] if args.dtype else ["s", "d", "c", "z"]

    if args.experiment == "headline":
        print(experiments.headline_speedups(h)["render"])
        return 0

    for dt in dtypes:
        if args.experiment == "fig7":
            series = h.gemm_series(dt, "NN")
            print(series_table(series, f"Figure 7 — {dt}gemm NN (GFLOPS)"))
            print(ratio_summary(series))
        elif args.experiment == "fig8":
            for mode in ([args.mode] if args.mode
                         else ["NN", "NT", "TN", "TT"]):
                series = h.gemm_series(dt, mode)
                print(series_table(series,
                                   f"Figure 8 — {dt}gemm {mode} (GFLOPS)"))
        elif args.experiment == "fig9":
            series = h.trsm_series(dt, "LNLN")
            print(series_table(series, f"Figure 9 — {dt}trsm LNLN (GFLOPS)"))
            print(ratio_summary(series))
        elif args.experiment == "fig10":
            for mode in ([args.mode] if args.mode
                         else ["LNLN", "LNUN", "LTLN", "LTUN"]):
                series = h.trsm_series(dt, mode)
                print(series_table(series,
                                   f"Figure 10 — {dt}trsm {mode} (GFLOPS)"))
        elif args.experiment == "fig11":
            print(series_table(h.gemm_percent_peak(dt),
                               f"Figure 11 — {dt}gemm % of peak",
                               fmt="{:6.1f}%"))
        elif args.experiment == "fig12":
            print(series_table(h.trsm_percent_peak(dt),
                               f"Figure 12 — {dt}trsm % of peak",
                               fmt="{:6.1f}%"))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
