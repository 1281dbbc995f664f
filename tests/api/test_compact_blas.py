"""Tests for the free-function compact BLAS API."""

import numpy as np
import pytest

from repro import IATF
from repro.api import (compact_from_batch, compact_gemm, compact_to_batch,
                       compact_trsm, default_framework)
from repro.errors import InvalidProblemError
from repro.machine.machines import KUNPENG_920, XEON_GOLD_6240
from tests.conftest import ALL_DTYPES, random_batch, random_triangular


class TestConversion:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_roundtrip(self, rng, dtype):
        a = random_batch(rng, 7, 4, 5, dtype)
        cb = compact_from_batch(a)
        assert cb.lanes == KUNPENG_920.lanes(dtype)
        assert np.allclose(compact_to_batch(cb), a, atol=1e-6)

    def test_machine_sets_lanes(self, rng):
        a = random_batch(rng, 4, 3, 3, "d")
        assert compact_from_batch(a, XEON_GOLD_6240).lanes == 8


class TestCompactGemm:
    def test_in_place_result(self, rng):
        a = random_batch(rng, 9, 4, 6, "d")
        b = random_batch(rng, 9, 6, 5, "d")
        ca = compact_from_batch(a)
        cb = compact_from_batch(b)
        cc = compact_from_batch(np.zeros((9, 4, 5)))
        out = compact_gemm(ca, cb, cc, beta=0.0)
        assert out is cc
        assert np.abs(compact_to_batch(cc) - a @ b).max() < 1e-9

    def test_transpose_flags(self, rng):
        a = random_batch(rng, 5, 6, 4, "d")    # stored (k, m)
        b = random_batch(rng, 5, 6, 7, "d")
        ca, cb = compact_from_batch(a), compact_from_batch(b)
        cc = compact_from_batch(np.zeros((5, 4, 7)))
        compact_gemm(ca, cb, cc, transa="T", beta=0.0)
        want = a.transpose(0, 2, 1) @ b
        assert np.abs(compact_to_batch(cc) - want).max() < 1e-9

    def test_repeated_calls_share_framework(self, rng):
        fw1 = default_framework()
        fw2 = default_framework()
        assert fw1 is fw2
        assert default_framework(XEON_GOLD_6240) is not fw1


class TestCompactTrsm:
    def test_solve(self, rng):
        a = random_triangular(rng, 6, 5, "d")
        b = random_batch(rng, 6, 5, 3, "d")
        ca, cb = compact_from_batch(a), compact_from_batch(b)
        compact_trsm(ca, cb, alpha=2.0)
        x = compact_to_batch(cb)
        assert np.abs(np.tril(a) @ x - 2.0 * b).max() < 1e-8

    def test_right_upper(self, rng):
        a = random_triangular(rng, 6, 4, "d", uplo="U")
        b = random_batch(rng, 6, 3, 4, "d")
        ca, cb = compact_from_batch(a), compact_from_batch(b)
        compact_trsm(ca, cb, side="R", uplo="U")
        x = compact_to_batch(cb)
        assert np.abs(x @ np.triu(a) - b).max() < 1e-8


class TestBackendSelection:
    def test_frameworks_keyed_per_backend(self):
        default = default_framework()
        interp = default_framework(backend="interpret")
        assert default is not interp
        assert default is default_framework()
        assert interp is default_framework(backend="interpret")
        assert default.backend.name == "fused"
        assert interp.backend.name == "interpret"

    def test_backends_agree_bit_for_bit(self, rng):
        a = random_batch(rng, 9, 4, 6, "d")
        b = random_batch(rng, 9, 6, 5, "d")
        outs = []
        for backend in ("interpret", "fused"):
            ca, cb = compact_from_batch(a), compact_from_batch(b)
            cc = compact_from_batch(np.zeros((9, 4, 5)))
            compact_gemm(ca, cb, cc, beta=0.0, backend=backend)
            outs.append(cc.buffer)
        assert np.array_equal(outs[0], outs[1])

    def test_trsm_backend_param(self, rng):
        a = random_triangular(rng, 5, 4, "d")
        b = random_batch(rng, 5, 4, 3, "d")
        outs = []
        for backend in ("interpret", "fused"):
            ca, cb = compact_from_batch(a), compact_from_batch(b)
            compact_trsm(ca, cb, backend=backend)
            outs.append(cb.buffer)
        assert np.array_equal(outs[0], outs[1])


class TestOperandDtype:
    """Complex operands into a real problem are refused, never silently
    truncated to their real part."""

    @pytest.fixture(scope="class")
    def fw(self):
        return IATF(KUNPENG_920)

    def test_gemm_complex_a_into_real_c_rejected(self, fw, rng):
        a = random_batch(rng, 3, 4, 4, "z")
        b = random_batch(rng, 3, 4, 4, "d")
        with pytest.raises(InvalidProblemError, match="A is complex128"):
            fw.gemm(a, b, np.zeros((3, 4, 4)))

    def test_gemm_complex_b_rejected(self, fw, rng):
        a = random_batch(rng, 3, 4, 4, "s")
        b = random_batch(rng, 3, 4, 4, "c")
        with pytest.raises(InvalidProblemError, match="B is complex64"):
            fw.gemm(a, b, np.zeros((3, 4, 4), np.float32))

    def test_trsm_complex_a_into_real_b_rejected(self, fw, rng):
        a = random_triangular(rng, 3, 4, "z")
        b = random_batch(rng, 3, 4, 2, "d")
        with pytest.raises(InvalidProblemError, match="A is complex128"):
            fw.trsm(a, b)

    def test_same_kind_operands_still_accepted(self, fw, rng):
        # real into complex and double into single keep their kind
        a = random_batch(rng, 3, 4, 4, "d")
        b = random_batch(rng, 3, 4, 4, "z")
        out = fw.gemm(a, b, np.zeros((3, 4, 4), np.complex128), beta=0.0)
        assert np.abs(out - a @ b).max() < 1e-9
        a32 = random_triangular(rng, 3, 4, "d")
        x = fw.trsm(a32, random_batch(rng, 3, 4, 2, "s"))
        assert x.dtype == np.float32
