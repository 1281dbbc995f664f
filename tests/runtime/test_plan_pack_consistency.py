"""Plan <-> pack agreement: offsets computed in two places must match.

The plan builder computes packed-panel offsets analytically (it has no
data); the packing functions compute them while gathering.  If either
side changes its layout without the other, kernels read garbage — these
tests pin the contract directly instead of relying on end-to-end
numerics to catch it.
"""

import pytest

from repro.codegen.registry import KernelRegistry
from repro.layout import CompactBatch
from repro.machine.machines import KUNPENG_920
from repro.packing.gemm_pack import pack_gemm_a, pack_gemm_b
from repro.packing.trsm_pack import normalize_trsm_mode, pack_trsm_a
from repro.runtime.plan import build_gemm_plan, build_trsm_plan
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import random_batch, random_triangular


@pytest.fixture(scope="module")
def registry():
    return KernelRegistry(KUNPENG_920)


@pytest.mark.parametrize("m,n,k,mode", [
    (9, 7, 5, "NN"), (15, 15, 15, "NN"), (8, 8, 8, "TT"), (5, 11, 3, "NT"),
])
def test_gemm_offsets_agree(rng, registry, m, n, k, mode):
    p = GemmProblem(m, n, k, "d", mode[0], mode[1], batch=6)
    plan = build_gemm_plan(p, KUNPENG_920, registry, force_pack=True)
    a = CompactBatch.from_matrices(random_batch(rng, 6, *p.a_shape, "d"), 2)
    b = CompactBatch.from_matrices(random_batch(rng, 6, *p.b_shape, "d"), 2)
    pa = pack_gemm_a(a, p.transa, k, plan.meta["m_tiles"])
    pb = pack_gemm_b(b, p.transb, k, plan.meta["n_tiles"])
    assert pa.group_stride_bytes == plan.buffers["packA"].group_stride_bytes
    assert pb.group_stride_bytes == plan.buffers["packB"].group_stride_bytes
    plan_a_offs = sorted({c.a_off for c in plan.calls})
    plan_b_offs = sorted({c.b_off for c in plan.calls})
    assert plan_a_offs == sorted(pa.tile_offsets)
    assert plan_b_offs == sorted(pb.tile_offsets)


@pytest.mark.parametrize("d", [7, 9, 12, 17])
def test_trsm_blocked_offsets_agree(rng, registry, d):
    p = TrsmProblem(d, 4, "d", batch=4)
    plan = build_trsm_plan(p, KUNPENG_920, registry)
    norm = plan.meta["norm"]
    a = CompactBatch.from_matrices(random_triangular(rng, 4, d, "d"), 2)
    packed = pack_trsm_a(a, norm, plan.meta["blocks"])
    assert packed.group_stride_bytes == \
        plan.buffers["packT"].group_stride_bytes
    # every triangular call's a_off must be a pack tri offset, every
    # rect call's a_off a rect offset
    tri_offs = set(packed.tri_offsets)
    rect_offs = set(packed.rect_offsets.values())
    for call in plan.calls:
        routine = call.program.meta["routine"]
        if routine == "trsm_tri":
            assert call.a_off in tri_offs, call.program.name
        else:
            assert call.a_off in rect_offs, call.program.name


def test_gemm_pack_cost_matches_buffers(registry):
    p = GemmProblem(8, 8, 8, "d", batch=64)
    plan = build_gemm_plan(p, KUNPENG_920, registry, force_pack=True)
    per_group = (plan.buffers["packA"].group_stride_bytes
                 + plan.buffers["packB"].group_stride_bytes)
    assert plan.pack_cost.bytes_written == per_group * plan.groups
