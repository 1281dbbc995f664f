"""Execution-plan structure tests: tiles, offsets, pack decisions."""

import pytest

from repro.codegen.registry import KernelRegistry
from repro.machine.machines import KUNPENG_920
from repro.runtime.plan import build_gemm_plan, build_trsm_plan
from repro.types import GemmProblem, TrsmProblem


@pytest.fixture(scope="module")
def registry():
    return KernelRegistry(KUNPENG_920)


class TestGemmPlan:
    def test_call_count_is_tile_grid(self, registry):
        p = GemmProblem(15, 15, 15, "d", batch=64)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        assert plan.meta["m_tiles"] == [4, 4, 4, 3]
        assert plan.meta["n_tiles"] == [4, 4, 4, 3]
        assert len(plan.calls) == 16

    def test_kernel_sizes_match_tiles(self, registry):
        p = GemmProblem(7, 5, 3, "d", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        sizes = {(c.program.meta["mc"], c.program.meta["nc"])
                 for c in plan.calls}
        assert sizes == {(4, 3), (4, 2), (3, 3), (3, 2)}
        for c in plan.calls:
            assert c.program.meta["k"] == 3

    def test_nopack_a_when_single_tile_nn(self, registry):
        p = GemmProblem(4, 8, 8, "d", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        assert plan.meta["packing"]["A"] == "no-pack"
        assert "packA" not in plan.buffers
        assert all(c.a_buf == "A" for c in plan.calls)

    def test_pack_a_when_tall(self, registry):
        p = GemmProblem(8, 8, 8, "d", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        assert plan.meta["packing"]["A"] == "N-shape"
        assert "packA" in plan.buffers

    def test_nopack_b_when_transposed_single_tile(self, registry):
        p = GemmProblem(8, 4, 8, "d", transb="T", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        assert plan.meta["packing"]["B"] == "no-pack"

    def test_force_pack_disables_fast_path(self, registry):
        p = GemmProblem(4, 4, 8, "d", transb="T", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry, force_pack=True)
        assert plan.meta["packing"] == {"A": "N-shape", "B": "Z-shape"}
        assert plan.pack_cost.bytes_written > 0

    def test_c_offsets_in_bounds(self, registry):
        p = GemmProblem(15, 15, 7, "d", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        c_bytes = plan.buffers["C"].group_stride_bytes
        for call in plan.calls:
            for off in call.c_offsets:
                assert 0 <= off < c_bytes

    def test_tile_offsets_cover_pack_buffer(self, registry):
        p = GemmProblem(11, 9, 5, "d", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        eb = 2 * 8
        a_stride = plan.buffers["packA"].group_stride_bytes
        assert a_stride == 11 * 5 * eb
        offs = sorted({c.a_off for c in plan.calls})
        assert offs[0] == 0 and offs[-1] < a_stride

    def test_pack_cost_scales_with_batch(self, registry):
        p1 = build_gemm_plan(GemmProblem(8, 8, 8, "d", batch=64),
                             KUNPENG_920, registry)
        p2 = build_gemm_plan(GemmProblem(8, 8, 8, "d", batch=128),
                             KUNPENG_920, registry)
        assert p2.pack_cost.bytes_read == 2 * p1.pack_cost.bytes_read

    def test_complex_uses_complex_tiles(self, registry):
        p = GemmProblem(7, 5, 4, "z", batch=8)
        plan = build_gemm_plan(p, KUNPENG_920, registry)
        assert plan.meta["m_tiles"] == [3, 2, 2]
        assert plan.meta["n_tiles"] == [2, 2, 1]

    def test_describe_mentions_kernels(self, registry):
        plan = build_gemm_plan(GemmProblem(4, 4, 4, "d", batch=8),
                               KUNPENG_920, registry)
        text = plan.describe()
        assert "gemm" in text and "packing" in text


class TestTrsmPlan:
    def test_small_problem_single_triangular_call(self, registry):
        p = TrsmProblem(4, 9, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["whole_in_regs"]
        assert len(plan.calls) == 1
        assert plan.calls[0].program.meta["routine"] == "trsm_tri"
        assert plan.calls[0].program.meta["n"] == 9

    def test_small_lnln_nopack(self, registry):
        p = TrsmProblem(5, 7, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["b_nopack"]
        assert plan.calls[0].b_buf == "B"

    def test_alpha_forces_pack(self, registry):
        p = TrsmProblem(5, 7, "d", alpha=2.0, batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert not plan.meta["b_nopack"]

    def test_upper_mode_forces_pack(self, registry):
        p = TrsmProblem(5, 7, "d", uplo="U", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert not plan.meta["b_nopack"]

    def test_ltun_mode_is_nopack_eligible(self, registry):
        """LTUN normalizes without flip or transpose -> fast path."""
        p = TrsmProblem(5, 7, "d", uplo="U", transa="T", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["b_nopack"]

    def test_blocked_structure(self, registry):
        p = TrsmProblem(9, 8, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert not plan.meta["whole_in_regs"]
        assert plan.meta["blocks"] == [4, 3, 2]
        # per column panel: 3 triangular + 3 rect calls; 2 panels
        assert len(plan.calls) == 2 * (3 + 3)
        routines = [c.program.meta["routine"] for c in plan.calls]
        assert routines.count("trsm_tri") == 6
        assert routines.count("trsm_rect") == 6

    def test_blocked_pads_columns(self, registry):
        p = TrsmProblem(9, 5, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["n_pad"] == 8

    def test_rect_kernel_k_matches_source_block(self, registry):
        p = TrsmProblem(9, 4, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        rects = [c for c in plan.calls
                 if c.program.meta["routine"] == "trsm_rect"]
        ks = sorted(c.program.meta["k"] for c in rects)
        # blocks [4,3,2]: updates (1,0) k=4, (2,0) k=4, (2,1) k=3
        assert ks == [3, 4, 4]

    def test_right_side_plans(self, registry):
        p = TrsmProblem(7, 3, "d", side="R", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["norm"].d == 3
        assert not plan.meta["b_nopack"]

    def test_complex_block_sizes(self, registry):
        p = TrsmProblem(5, 4, "z", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        assert plan.meta["blocks"] == [2, 2, 1]

    def test_divisions_counted_in_pack_cost(self, registry):
        p = TrsmProblem(6, 4, "d", batch=8)
        plan = build_trsm_plan(p, KUNPENG_920, registry)
        lanes = KUNPENG_920.lanes("d")
        groups = -(-8 // lanes)
        assert plan.pack_cost.div_vectors == 6 * groups
        pu = build_trsm_plan(TrsmProblem(6, 4, "d", diag="U", batch=8),
                             KUNPENG_920, registry)
        assert pu.pack_cost.div_vectors == 0
