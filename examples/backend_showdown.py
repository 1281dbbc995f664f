"""Walking the executor-backend ladder: interpret -> fused -> megakernel.

Every backend executes the *same* plan and must produce the *same
bytes* — what changes is how much work survives to run time.  The
interpreter resolves every memory operand per instruction per batch;
the fused replayer did all of that once at lower time, replays the
stream the optimizing pass pipeline rewrote (dead-code elimination,
FMLA-chain fusion into macro-ops, load/store coalescing into wide
copies), and replays it in L2-resident group blocks; the
megakernel backend goes one further and trace-compiles the whole fused
stream into generated straight-line NumPy source — compiled once,
cached on the lowering, zero per-instruction dispatch in steady state.

This example times all three on the paper's headline shape (sgemm
8x8x8, batch 16384), verifies bit-identical results, and prints the
explain report's execution-backend section — where the pass pipeline's
per-pass statistics are narrated.

Run:  python examples/backend_showdown.py
"""

import time

import numpy as np

from repro import IATF, KUNPENG_920
from repro.layout import CompactBatch
from repro.types import GemmProblem

BACKENDS = ("interpret", "fused", "megakernel")


def main() -> None:
    prob = GemmProblem(8, 8, 8, "s", batch=16384)
    lanes = KUNPENG_920.lanes(prob.dtype)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((prob.batch, 8, 8), dtype=np.float32)
    b = rng.standard_normal((prob.batch, 8, 8), dtype=np.float32)
    c = rng.standard_normal((prob.batch, 8, 8), dtype=np.float32)

    print("=" * 70)
    print(f"Backend showdown — sgemm 8x8x8, batch {prob.batch} "
          "(wall clock, best of 5)")
    print("=" * 70)

    results = {}
    reference = None
    for name in BACKENDS:
        fw = IATF(KUNPENG_920, backend=name)
        ca = CompactBatch.from_matrices(a, lanes)
        cb = CompactBatch.from_matrices(b, lanes)
        cc = CompactBatch.from_matrices(c, lanes)
        fw.gemm_compact(prob, ca, cb, cc)      # warm: plan + lowering
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            fw.gemm_compact(prob, ca, cb, cc)
            best = min(best, time.perf_counter() - t0)
        results[name] = best
        digest = cc.buffer.tobytes()
        if reference is None:
            reference = digest
            verdict = "reference"
        else:
            verdict = ("bit-identical" if digest == reference
                       else "DIVERGED (bug!)")
        print(f"  {name:>10}: {best * 1e3:8.2f} ms  "
              f"{results['interpret'] / best:5.2f}x vs interpret  "
              f"[{verdict}]")

    mega = results["fused"] / results["megakernel"]
    print(f"\n  trace-compiler payoff: megakernel is {mega:.2f}x vs fused")

    print()
    print("=" * 70)
    print("What the passes did (explain report, execution backend)")
    print("=" * 70)
    fw = IATF(KUNPENG_920, backend="fused")
    report = fw.explain_gemm(prob)
    for line in report.section("execution backend"):
        print(f"  {line}")


if __name__ == "__main__":
    main()
