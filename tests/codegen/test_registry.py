"""Kernel-registry tests: Table 1 fidelity, caching, install sweep."""

import pytest

from repro.codegen.generator_gemm import generate_gemm_kernel
from repro.codegen.registry import KernelRegistry, table1_inventory
from repro.machine.machines import KUNPENG_920, XEON_GOLD_6240


class TestTable1:
    def test_real_gemm_family_complete(self):
        """Table 1: main 4x4 plus every edge in {1..4}x{1..4}."""
        inv = table1_inventory()
        fam = inv["sgemm/dgemm"]
        all_sizes = set(fam["main"]) | set(fam["edge"])
        assert all_sizes == {(m, n) for m in range(1, 5)
                             for n in range(1, 5)}
        assert fam["main"] == [(4, 4)]

    def test_complex_gemm_family_complete(self):
        inv = table1_inventory()
        fam = inv["cgemm/zgemm"]
        all_sizes = set(fam["main"]) | set(fam["edge"])
        assert all_sizes == {(m, n) for m in range(1, 4)
                             for n in range(1, 3)}
        assert fam["main"] == [(3, 2)]

    def test_real_trsm_rect_family(self):
        fam = table1_inventory()["strsm/dtrsm"]
        assert fam["main"] == [(4, 4)]
        assert fam["edge"] == [(3, 4), (2, 4), (1, 4)]
        assert fam["tri"] == [(m, m) for m in range(1, 6)]

    def test_complex_trsm_family(self):
        fam = table1_inventory()["ctrsm/ztrsm"]
        assert fam["main"] == [(2, 2)]
        assert fam["edge"] == [(1, 2)]
        assert fam["tri"] == [(m, m) for m in range(1, 4)]


class TestRegistry:
    def test_caching_returns_same_object(self):
        reg = KernelRegistry(KUNPENG_920)
        a = reg.gemm_kernel(4, 4, 8, "d")
        b = reg.gemm_kernel(4, 4, 8, "d")
        assert a is b

    def test_distinct_keys_distinct_kernels(self):
        reg = KernelRegistry(KUNPENG_920)
        a = reg.gemm_kernel(4, 4, 8, "d")
        assert reg.gemm_kernel(4, 4, 8, "s") is not a
        assert reg.gemm_kernel(4, 4, 9, "d") is not a
        assert reg.gemm_kernel(4, 4, 8, "d", alpha=2.0) is not a
        assert len(reg) == 4

    def test_kernels_cached_as_generated(self):
        """One registry, no scheduling knob: kernels keep the template
        order; only the cycle model schedules (``Engine.scheduled``)."""
        prog = KernelRegistry(KUNPENG_920).gemm_kernel(4, 4, 8, "d")
        assert "scheduled" not in prog.meta
        assert prog.instrs == generate_gemm_kernel(4, 4, 8, "d",
                                                   KUNPENG_920).instrs
        with pytest.raises(TypeError):
            KernelRegistry(KUNPENG_920, optimize=True)

    def test_main_kernel_sizes(self):
        reg = KernelRegistry(KUNPENG_920)
        assert reg.main_gemm_kernel("d") == (4, 4)
        assert reg.main_gemm_kernel("z") == (3, 2)

    def test_trsm_parameters(self):
        reg = KernelRegistry(KUNPENG_920)
        assert reg.max_tri("d") == 5
        assert reg.max_tri("c") == 3
        assert reg.trsm_panel_width("d") == 4
        assert reg.trsm_panel_width("z") == 2
        assert reg.trsm_block_main("s") == 4
        assert reg.trsm_block_main("c") == 2

    def test_trsm_kernels_generate(self):
        reg = KernelRegistry(KUNPENG_920)
        assert len(reg.trsm_triangular(5, 4, "d")) > 0
        assert len(reg.trsm_rect(4, 4, 3, "d", 64)) > 0

    def test_install_covers_table1(self):
        reg = KernelRegistry(KUNPENG_920)
        count = reg.install(dtypes=("d",), k_values=(4,))
        # 16 gemm sizes + 5 triangular + 4 rect sizes x 4 k-depths
        assert count == 16 + 5 + 16
        # installing again adds nothing
        assert reg.install(dtypes=("d",), k_values=(4,)) == count

    def test_works_on_xeon(self):
        reg = KernelRegistry(XEON_GOLD_6240)
        prog = reg.gemm_kernel(4, 4, 8, "d")
        assert prog.lanes == 8      # 512-bit / 8B


def test_report_lists_kernels():
    reg = KernelRegistry(KUNPENG_920)
    reg.gemm_kernel(4, 4, 8, "d")
    reg.trsm_triangular(3, 4, "s")
    text = reg.report()
    assert "dgemm_4x4_k8" in text
    assert "strsm_tri_3x4" in text
    assert "fp/mem" in text
    assert "2 kernels" in text
