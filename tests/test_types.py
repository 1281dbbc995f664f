"""Tests for the core type system (dtypes, flags, problem descriptors)."""

import numpy as np
import pytest

from repro.errors import InvalidProblemError
from repro.types import (BlasDType, Diag, GemmProblem, Side, Trans,
                         TrsmProblem, UpLo, gemm_flops, trsm_flops)


class TestBlasDType:
    @pytest.mark.parametrize("prefix,npdt", [
        ("s", np.float32), ("d", np.float64),
        ("c", np.complex64), ("z", np.complex128),
    ])
    def test_np_dtype_mapping(self, prefix, npdt):
        assert BlasDType.from_any(prefix).np_dtype == np.dtype(npdt)
        assert BlasDType.from_any(npdt) is BlasDType(prefix)

    def test_from_any_uppercase(self):
        assert BlasDType.from_any("S") is BlasDType.S

    def test_from_any_identity(self):
        assert BlasDType.from_any(BlasDType.Z) is BlasDType.Z

    def test_from_any_rejects_unsupported(self):
        with pytest.raises(InvalidProblemError):
            BlasDType.from_any(np.int32)

    @pytest.mark.parametrize("prefix,real", [
        ("s", np.float32), ("d", np.float64),
        ("c", np.float32), ("z", np.float64),
    ])
    def test_real_plane_dtype(self, prefix, real):
        assert BlasDType.from_any(prefix).real_dtype == np.dtype(real)

    def test_is_complex(self):
        assert not BlasDType.S.is_complex
        assert not BlasDType.D.is_complex
        assert BlasDType.C.is_complex
        assert BlasDType.Z.is_complex

    @pytest.mark.parametrize("prefix,expect", [
        ("s", 4), ("d", 2), ("c", 4), ("z", 2),
    ])
    def test_lanes_on_128bit(self, prefix, expect):
        """The paper's P: 4 for single precision on Kunpeng 920."""
        assert BlasDType.from_any(prefix).lanes(16) == expect

    @pytest.mark.parametrize("prefix,expect", [
        ("s", 16), ("d", 8), ("c", 16), ("z", 8),
    ])
    def test_lanes_on_512bit(self, prefix, expect):
        assert BlasDType.from_any(prefix).lanes(64) == expect

    def test_flops_per_madd(self):
        assert BlasDType.D.flops_per_madd == 2
        assert BlasDType.Z.flops_per_madd == 8

    def test_itemsize(self):
        assert BlasDType.C.itemsize == 8
        assert BlasDType.C.real_itemsize == 4
        assert BlasDType.Z.itemsize == 16


class TestFlags:
    def test_trans_from_bool(self):
        assert Trans.from_any(True) is Trans.T
        assert Trans.from_any(False) is Trans.N

    def test_trans_from_str_case(self):
        assert Trans.from_any("t") is Trans.T

    def test_trans_invalid(self):
        with pytest.raises(InvalidProblemError):
            Trans.from_any("C")

    def test_side_uplo_diag(self):
        assert Side.from_any("r") is Side.RIGHT
        assert UpLo.from_any("u") is UpLo.UPPER
        assert Diag.from_any("U") is Diag.UNIT

    @pytest.mark.parametrize("cls", [Side, UpLo, Diag])
    def test_invalid_flag(self, cls):
        with pytest.raises(InvalidProblemError):
            cls.from_any("x")


class TestGemmProblem:
    def test_basic(self):
        p = GemmProblem(4, 5, 6, "d", batch=7)
        assert p.a_shape == (4, 6)
        assert p.b_shape == (6, 5)
        assert p.c_shape == (4, 5)
        assert p.mode == "NN"

    def test_transposed_shapes(self):
        p = GemmProblem(4, 5, 6, "d", "T", "T")
        assert p.a_shape == (6, 4)
        assert p.b_shape == (5, 6)
        assert p.mode == "TT"

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_dims(self, bad):
        with pytest.raises(InvalidProblemError):
            GemmProblem(bad, 1, 1, "d")

    def test_rejects_float_dim(self):
        with pytest.raises(InvalidProblemError):
            GemmProblem(1.5, 1, 1, "d")

    def test_rejects_complex_alpha_for_real(self):
        with pytest.raises(InvalidProblemError):
            GemmProblem(1, 1, 1, "d", alpha=1 + 1j)

    def test_complex_alpha_for_complex(self):
        p = GemmProblem(1, 1, 1, "z", alpha=1 + 1j)
        assert p.alpha == 1 + 1j

    @pytest.mark.parametrize("dtype", ["d", "z"])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), complex(1, float("nan"))])
    def test_rejects_non_finite_scalars(self, dtype, name, bad):
        if dtype == "d" and isinstance(bad, complex):
            bad = complex(float("nan"), 0.0)
        with pytest.raises(InvalidProblemError, match=f"{name} must be finite"):
            GemmProblem(2, 2, 2, dtype, **{name: bad})

    def test_flops(self):
        assert GemmProblem(2, 3, 4, "d", batch=10).flops == 2 * 2 * 3 * 4 * 10
        assert GemmProblem(2, 3, 4, "z", batch=10).flops == 8 * 2 * 3 * 4 * 10

    def test_with_batch(self):
        p = GemmProblem(2, 3, 4, "d", batch=1).with_batch(100)
        assert p.batch == 100
        assert p.m == 2

    def test_frozen_and_hashable(self):
        p = GemmProblem(2, 3, 4, "d")
        assert hash(p) == hash(GemmProblem(2, 3, 4, "d"))


class TestTrsmProblem:
    def test_mode_string_matches_paper(self):
        p = TrsmProblem(4, 5, "d", "L", "L", "N", "N")
        assert p.mode == "LNLN"   # Left, Non-transpose, Lower, NonUnit
        p = TrsmProblem(4, 5, "d", "L", "U", "T", "N")
        assert p.mode == "LTUN"

    def test_a_dim_left_right(self):
        assert TrsmProblem(4, 5, "d", side="L").a_dim == 4
        assert TrsmProblem(4, 5, "d", side="R").a_dim == 5

    def test_flops_sides(self):
        assert trsm_flops(4, 5, "d", "L") == 5 * 16
        assert trsm_flops(4, 5, "d", "R") == 4 * 25
        assert trsm_flops(4, 5, "z", "L") == 4 * 5 * 16

    def test_rejects_complex_alpha_for_real(self):
        with pytest.raises(InvalidProblemError):
            TrsmProblem(2, 2, "s", alpha=1j)

    @pytest.mark.parametrize("dtype", ["s", "c"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     np.float32("-inf")])
    def test_rejects_non_finite_alpha(self, dtype, bad):
        with pytest.raises(InvalidProblemError, match="alpha must be finite"):
            TrsmProblem(2, 2, dtype, alpha=bad)


def test_gemm_flops_helper():
    assert gemm_flops(3, 3, 3, "s") == 54
    assert gemm_flops(3, 3, 3, "c", batch=2) == 8 * 27 * 2


class TestTrmmProblem:
    def test_basic(self):
        from repro.types import TrmmProblem, trmm_flops
        p = TrmmProblem(4, 5, "d", "L", "L", "N", "N", batch=3, alpha=2.0)
        assert p.mode == "LNLN"
        assert p.a_dim == 4
        assert p.b_shape == (4, 5)
        assert p.flops == trmm_flops(4, 5, "d", "L", 3) == 3 * 5 * 16

    def test_right_side_dims(self):
        from repro.types import TrmmProblem
        assert TrmmProblem(4, 5, "d", side="R").a_dim == 5

    def test_rejects_complex_alpha_for_real(self):
        from repro.errors import InvalidProblemError
        from repro.types import TrmmProblem
        import pytest as _pytest
        with _pytest.raises(InvalidProblemError):
            TrmmProblem(2, 2, "s", alpha=1j)

    def test_hashable(self):
        from repro.types import TrmmProblem
        assert hash(TrmmProblem(2, 2, "d")) == hash(TrmmProblem(2, 2, "d"))
