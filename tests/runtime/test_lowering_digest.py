"""Pinned lowering: a digest over what ``lower_plan`` makes of every
perfbench ``FULL`` cold and bulk plan on KUNPENG_920.

It hashes, per plan, the statistics a lowering reported before block
translation and the per-program pass existed, the stream lengths, the
per-call raw and fused ranges, and every wave's level, template index,
calls, per-buffer deltas and lattice.  The plans are lowered in grid
order through one ``IATF`` per grid, so template sharing across plans
is part of what is pinned.  Any change to how calls are bound, levelled
or optimized changes it.
"""

import hashlib
import json

from perfbench.grids import FULL
from repro import IATF, KUNPENG_920
from repro.types import GemmProblem

LOWERING_DIGEST = ("46916043dcb786cce1450b9628a43dbc"
                   "e31a53dad5bab430c92ea836b69bbb8b")
"""sha256 over the lowering of every FULL.cold and FULL.bulk plan."""

PINNED_STATS = ("calls", "instructions", "mem_commands", "fp_commands",
                "folded_addi", "dropped", "passes", "templates",
                "templates_shared", "waves")


def _rows():
    for grid in (FULL.cold, FULL.bulk):
        fw = IATF(KUNPENG_920)
        for p in grid:
            compiled = (fw.prepare_gemm(p) if isinstance(p, GemmProblem)
                        else fw.prepare_trsm(p))[1]
            yield [repr(p),
                   {k: compiled.stats[k] for k in PINNED_STATS},
                   len(compiled.commands), len(compiled.fused_commands),
                   [list(r) for r in compiled.call_ranges],
                   [list(r) for r in compiled.fused_ranges],
                   [[w.level, w.template, list(w.calls),
                     [list(d) for d in w.deltas],
                     None if w.lattice is None else list(w.lattice)]
                    for w in compiled.waves]]


def test_lowering_golden_digest():
    digest = hashlib.sha256()
    plans = 0
    for row in _rows():
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
        plans += 1
    assert plans == len(FULL.cold) + len(FULL.bulk) == 53
    assert digest.hexdigest() == LOWERING_DIGEST
