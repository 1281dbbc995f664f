"""Request validation: InvalidProblemError at the API boundary."""

import numpy as np
import pytest

from repro.errors import InvalidProblemError
from repro.serve import Request
from repro.types import GemmProblem, Side, Trans


def mats(*shapes, dtype=np.float32):
    rng = np.random.default_rng(5)
    return [rng.standard_normal(s).astype(dtype) for s in shapes]


class TestGemmRequests:
    def test_builds_batch1_problem(self):
        a, b, c = mats((4, 6), (6, 5), (4, 5))
        req = Request.gemm(a, b, c, beta=1.0)
        assert req.routine == "gemm"
        assert req.problem == GemmProblem(4, 5, 6, "s", batch=1, beta=1.0)
        assert req.key == req.problem          # the coalescing key
        assert req.out_shape == (4, 5)

    def test_transpose_modes_resolve_shapes(self):
        a, b = mats((6, 4), (5, 6))            # A stored k x m, B n x k
        req = Request.gemm(a, b, transa="T", transb="T")
        p = req.problem
        assert (p.m, p.n, p.k) == (4, 5, 6)
        assert p.transa is Trans.T and p.transb is Trans.T

    def test_mismatched_b_rejected_with_dims_named(self):
        a, b = mats((4, 6), (3, 5))
        with pytest.raises(InvalidProblemError, match="B is 3x5"):
            Request.gemm(a, b)

    def test_mismatched_c_rejected(self):
        a, b, c = mats((4, 6), (6, 5), (4, 4))
        with pytest.raises(InvalidProblemError, match="C is 4x4"):
            Request.gemm(a, b, c)

    def test_omitted_c_requires_beta_zero(self):
        a, b = mats((4, 4), (4, 4))
        req = Request.gemm(a, b)               # beta defaults to 0
        assert req.c is not None and not req.c.any()
        with pytest.raises(InvalidProblemError, match="beta"):
            Request.gemm(a, b, beta=1.0)

    def test_batched_operand_rejected(self):
        a, b = mats((2, 4, 4), (4, 4))
        with pytest.raises(InvalidProblemError, match="2-D"):
            Request.gemm(a, b)

    def test_non_array_rejected(self):
        with pytest.raises(InvalidProblemError, match="numpy array"):
            Request.gemm([[1.0]], np.ones((1, 1)))

    def test_complex_alpha_on_real_dtype_rejected(self):
        a, b = mats((4, 4), (4, 4))
        with pytest.raises(InvalidProblemError, match="alpha"):
            Request.gemm(a, b, alpha=1 + 2j)

    @pytest.mark.parametrize("scalars", [{"alpha": float("nan")},
                                         {"beta": float("inf")}])
    def test_non_finite_scalar_rejected(self, scalars):
        a, b, c = mats((4, 4), (4, 4), (4, 4))
        name = next(iter(scalars))
        with pytest.raises(InvalidProblemError, match=f"{name} must be finite"):
            Request.gemm(a, b, c, **scalars)

    def test_non_finite_trsm_alpha_rejected(self):
        a, b = mats((4, 4), (4, 3))
        with pytest.raises(InvalidProblemError, match="alpha must be finite"):
            Request.trsm(a + 4 * np.eye(4, dtype=np.float32), b,
                         alpha=float("nan"))

    def test_operands_cast_to_problem_dtype(self):
        a, b = mats((4, 4), (4, 4), dtype=np.float64)
        req = Request.gemm(a, b, dtype="s")
        assert req.a.dtype == np.float32
        assert req.problem.dtype.value == "s"

    def test_complex_operand_on_real_dtype_rejected(self):
        a, b, c = mats((4, 4), (4, 4), (4, 4))
        with pytest.raises(InvalidProblemError, match="A is complex"):
            Request.gemm(a + 1j * a, b, c)     # dtype from real C
        with pytest.raises(InvalidProblemError, match="B is complex"):
            Request.gemm(a, b + 1j)            # dtype from real A
        with pytest.raises(InvalidProblemError, match="C is complex"):
            Request.gemm(a, b, c + 1j, dtype="s")
        req = Request.gemm(a + 0j, b, c + 0j)  # real into complex is fine
        assert req.problem.dtype.value == "c"

    def test_bad_tenant_and_deadline_rejected(self):
        a, b = mats((4, 4), (4, 4))
        with pytest.raises(InvalidProblemError, match="tenant"):
            Request.gemm(a, b, tenant="")
        with pytest.raises(InvalidProblemError, match="deadline"):
            Request.gemm(a, b, deadline_ms=-1.0)
        with pytest.raises(InvalidProblemError, match="deadline"):
            Request.gemm(a, b, deadline_ms="soon")


class TestTrsmRequests:
    def test_builds_batch1_problem(self):
        a, b = mats((5, 5), (5, 3), dtype=np.float64)
        req = Request.trsm(np.tril(a) + 5 * np.eye(5), b)
        p = req.problem
        assert req.routine == "trsm"
        assert (p.m, p.n, p.batch) == (5, 3, 1)
        assert p.mode == "LNLN"
        assert req.out_shape == (5, 3)
        assert req.c is None

    def test_right_side_wants_n_by_n_a(self):
        a, b = mats((5, 5), (5, 3), dtype=np.float64)
        with pytest.raises(InvalidProblemError, match="side=R"):
            Request.trsm(a, b, side="R")       # needs 3x3
        req = Request.trsm(mats((3, 3), dtype=np.float64)[0], b, side="R")
        assert req.problem.side is Side.RIGHT

    def test_complex_operand_on_real_dtype_rejected(self):
        a, b = mats((3, 3), (3, 2), dtype=np.float64)
        with pytest.raises(InvalidProblemError, match="A is complex128"):
            Request.trsm(a + 1j * np.eye(3), b)
        with pytest.raises(InvalidProblemError, match="B is complex"):
            Request.trsm(a, b + 1j, dtype="d")

    def test_non_square_a_rejected(self):
        a, b = mats((5, 4), (5, 3))
        with pytest.raises(InvalidProblemError, match="A is 5x4"):
            Request.trsm(a, b)

    def test_describe_names_the_request(self):
        a, b = mats((4, 6), (6, 5))
        text = Request.gemm(a, b, tenant="alice").describe()
        assert "gemm[s] 4x5x6" in text
        assert "tenant=alice" in text
