"""Pack-selector tests (paper Section 5.2 / Figure 1 middle box)."""

import pytest

from repro.codegen.registry import KernelRegistry
from repro.machine.machines import KUNPENG_920
from repro.runtime.pack_selector import (select_gemm_packing,
                                         select_trsm_packing)
from repro.types import GemmProblem, TrsmProblem


@pytest.fixture(scope="module")
def registry():
    return KernelRegistry(KUNPENG_920)


class TestGemmSelection:
    def test_paper_example_nn_small_m(self):
        """'for GEMM under NN mode, when M does not exceed the size of
        the computing kernel design, matrix A is accessed rows by rows'."""
        p = GemmProblem(4, 8, 8, "d")
        d = select_gemm_packing(p, [4], [4, 4])
        assert not d.pack_a and d.pack_b
        assert d.description == {"A": "no-pack", "B": "Z-shape"}

    def test_transposed_a_always_packs(self):
        p = GemmProblem(4, 8, 8, "d", transa="T")
        d = select_gemm_packing(p, [4], [4, 4])
        assert d.pack_a
        assert "transposed" in d.reason_a

    def test_tall_a_packs(self):
        p = GemmProblem(8, 8, 8, "d")
        d = select_gemm_packing(p, [4, 4], [4, 4])
        assert d.pack_a
        assert "tiles" in d.reason_a

    def test_b_fast_path_requires_transpose(self):
        p = GemmProblem(8, 4, 8, "d", transb="T")
        assert not select_gemm_packing(p, [4, 4], [4]).pack_b
        p2 = GemmProblem(8, 4, 8, "d", transb="N")
        assert select_gemm_packing(p2, [4, 4], [4]).pack_b

    def test_force_pack(self):
        p = GemmProblem(4, 4, 4, "d", transb="T")
        d = select_gemm_packing(p, [4], [4], force_pack=True)
        assert d.pack_a and d.pack_b
        assert d.reason_a == "forced"


class TestTrsmSelection:
    def test_paper_example_lnln(self, registry):
        """'For TRSM under LNLN mode, when M does not exceed the size of
        the computing kernel design, the packing of matrix B can be
        skipped.'"""
        d = select_trsm_packing(TrsmProblem(5, 9, "d"), registry)
        assert d.whole_in_regs and not d.pack_b

    def test_blocked_always_packs(self, registry):
        d = select_trsm_packing(TrsmProblem(9, 9, "d"), registry)
        assert not d.whole_in_regs and d.pack_b
        assert "blocked" in d.reason_b

    def test_flip_modes_pack(self, registry):
        d = select_trsm_packing(TrsmProblem(4, 4, "d", uplo="U"), registry)
        assert d.pack_b
        assert "transform" in d.reason_b

    def test_alpha_packs(self, registry):
        d = select_trsm_packing(TrsmProblem(4, 4, "d", alpha=3.0), registry)
        assert d.pack_b
        assert "alpha" in d.reason_b

    def test_ltun_fast_path(self, registry):
        """LTUN normalizes flip-free: also eligible for no-pack."""
        d = select_trsm_packing(
            TrsmProblem(4, 4, "d", uplo="U", transa="T"), registry)
        assert not d.pack_b

    def test_complex_bound_is_3(self, registry):
        assert select_trsm_packing(TrsmProblem(3, 4, "z"),
                                   registry).whole_in_regs
        assert not select_trsm_packing(TrsmProblem(4, 4, "z"),
                                       registry).whole_in_regs

    def test_descriptions(self, registry):
        d = select_trsm_packing(TrsmProblem(9, 9, "d"), registry)
        assert d.description["A"].startswith("blocked")
        assert d.description["B"] == "panel"
