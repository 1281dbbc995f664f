"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib_bulk --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (and writes the spans as a Chrome trace); ``--smoke``
swaps in the reduced grid.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with the
host and configuration it ran on, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: one process, at most two threads (the caller and the service pump):
#: keep NumPy's BLAS from adding its own pool
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")


def host_record() -> dict:
    """The host and configuration every result is tied to."""
    import numpy as np

    from repro import IATF

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    iatf = IATF()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": _git_sha(), "backend": iatf.backend.name,
            "machine_model": iatf.machine.name}


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grid (seconds-long runs)")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no library sources at {src}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [ROOT, src]

    from perfbench import report, workloads
    from perfbench.grids import FULL, SMOKE

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    host = host_record()
    grid = SMOKE if args.smoke else FULL
    out = workloads.WORKLOADS[args.workload](grid, args.seed, args.seconds,
                                             bool(args.trace))
    metrics = (report.per_layer(out) if args.trace
               else report.end_to_end(out))
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(report.metric_lines(args.workload, out, metrics, bool(args.trace)))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "host": host,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    if not args.trace:
        record["wall_clock"] = {k: {"value": v, "unit": u} for k, (v, u)
                                in report.end_to_end(out, False).items()}
    if args.trace:
        record["layer_table"] = report.conservation(out)
        report.write_chrome_trace(out.tracer, stem + ".trace.json")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
