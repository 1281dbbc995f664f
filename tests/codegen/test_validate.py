"""Static kernel-validator tests."""

import pytest

from repro.codegen.generator_gemm import generate_gemm_kernel
from repro.codegen.generator_trsm import (generate_trsm_rect,
                                          generate_trsm_triangular)
from repro.codegen.validate import assert_valid, validate_kernel
from repro.errors import CodegenError
from repro.machine.isa import addi, fmai, fmla, fmul, ldrv, strv, vzero
from repro.machine.machines import KUNPENG_920
from repro.machine.program import Program


class TestValidKernels:
    def test_generated_gemm_kernels_pass(self):
        for mc, nc, k in [(4, 4, 1), (4, 4, 16), (1, 1, 3), (3, 2, 5)]:
            prog = generate_gemm_kernel(mc, nc, k, "d", KUNPENG_920)
            assert validate_kernel(prog, KUNPENG_920) == []

    def test_generated_trsm_kernels_pass(self):
        assert validate_kernel(
            generate_trsm_triangular(5, 4, "d", KUNPENG_920),
            KUNPENG_920) == []
        assert validate_kernel(
            generate_trsm_rect(4, 4, 3, "d", KUNPENG_920, 64),
            KUNPENG_920) == []

    def test_complex_kernels_pass(self):
        prog = generate_gemm_kernel(3, 2, 7, "z", KUNPENG_920,
                                    alpha=1 + 1j, beta=0.5 - 1j)
        assert validate_kernel(prog, KUNPENG_920) == []


class TestDefects:
    def test_read_before_write(self):
        prog = Program("bad", [fmul(0, 1, 2, ew=8)], ew=8, lanes=2)
        issues = validate_kernel(prog, KUNPENG_920)
        assert any("read before" in i for i in issues)

    def test_fma_accumulator_counts_as_read(self):
        prog = Program("bad", [ldrv(1, 0, 0), ldrv(2, 0, 16),
                               fmla(0, 1, 2, ew=8)], ew=8, lanes=2)
        issues = validate_kernel(prog, KUNPENG_920)
        assert any("v0 read before" in i for i in issues)

    def test_unknown_pointer(self):
        prog = Program("bad", [ldrv(0, 20, 0)], ew=8, lanes=2)
        issues = validate_kernel(prog, KUNPENG_920)
        assert any("unknown" in i for i in issues)

    def test_addi_extends_known_pointers(self):
        prog = Program("ok", [addi(20, 0, 64), ldrv(0, 20, 0)],
                       ew=8, lanes=2)
        assert validate_kernel(prog, KUNPENG_920) == []

    def test_addi_from_unknown_pointer_is_one_issue(self):
        prog = Program("bad", [vzero(0), addi(21, 20, 64)], ew=8, lanes=2)
        assert validate_kernel(prog, KUNPENG_920) == [
            "@1 (add   x21, x20, #64): ADDI reads unknown x20"]

    def test_access_through_undefined_pointer_is_one_issue(self):
        prog = Program("bad", [vzero(1), ldrv(0, 20, 16)], ew=8, lanes=2)
        assert validate_kernel(prog, KUNPENG_920) == [
            "@1 (ldrv  v0.2d, [x20, #16]): memory access through unknown "
            "pointer x20"]

    def test_nonfinite_immediate(self):
        prog = Program("bad", [vzero(0), fmai(0, 0, float("nan"), ew=8)],
                       ew=8, lanes=2)
        issues = validate_kernel(prog, KUNPENG_920)
        assert any("non-finite" in i for i in issues)

    def test_assert_valid_raises(self):
        prog = Program("bad", [strv(0, 0, 0)], ew=8, lanes=2)
        with pytest.raises(CodegenError, match="bad"):
            assert_valid(prog, KUNPENG_920)

    def test_assert_valid_passthrough(self):
        prog = Program("ok", [vzero(0), strv(0, 0, 0)], ew=8, lanes=2)
        assert assert_valid(prog, KUNPENG_920) is prog
