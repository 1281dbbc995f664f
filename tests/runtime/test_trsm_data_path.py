"""TRSM packing semantics at the library boundary.

(a) A zero diagonal in a valid lane is solved as substitution by it
    would be (IEEE: non-finite results), not as if it were 1; only the
    padding lanes of the last group divide by 1.
(b) Packing raises none of the floating-point warnings that execution
    already suppresses.
"""

import warnings

import numpy as np
import pytest

from repro import IATF, KUNPENG_920
from repro.types import Diag, Side, Trans, TrsmProblem, UpLo

NP = {"s": np.float32, "d": np.float64, "c": np.complex64,
      "z": np.complex128}


def _substitute(problem, a, b):
    """Per-lane substitution in double precision, dividing by the
    diagonal: ``op(A) X = alpha B`` (left) or ``X op(A) = alpha B``."""
    p = problem
    wide = np.complex128 if p.dtype.is_complex else np.float64
    out = np.empty(b.shape, wide)
    for lane in range(p.batch):
        op = a[lane].astype(wide)
        op = np.tril(op) if p.uplo is UpLo.LOWER else np.triu(op)
        if p.transa is Trans.T:
            op = op.T
        rhs = p.alpha * b[lane].astype(wide)
        if p.side is Side.RIGHT:        # op(A)^T X^T = alpha B^T
            op, rhs = op.T, rhs.T
        d = op.shape[0]
        lower = not np.any(np.triu(op, 1))
        x = np.zeros_like(rhs)
        with np.errstate(all="ignore"):
            for i in (range(d) if lower else range(d - 1, -1, -1)):
                acc = rhs[i].copy()
                for j in (range(i) if lower else range(i + 1, d)):
                    acc = acc - op[i, j] * x[j]
                x[i] = acc if p.diag is Diag.UNIT else acc / op[i, i]
        out[lane] = x.T if p.side is Side.RIGHT else x
    return out


def test_zero_diagonal_repro():
    a = np.tile(np.eye(3), (3, 1, 1))
    a[0, 1, 1], a[0, 2, 1] = 0.0, 2.0
    for backend in ("interpret", "fused"):
        x = IATF(KUNPENG_920, backend=backend).trsm(a, np.ones((3, 3, 2)))
        assert np.array_equal(x[0], [[1, 1], [np.inf, np.inf],
                                     [-np.inf, -np.inf]])
        assert np.array_equal(x[1:], np.ones((2, 3, 2)))


@pytest.mark.parametrize("backend", ["interpret", "fused"])
@pytest.mark.parametrize("dtype", ["s", "d", "c", "z"])
@pytest.mark.parametrize("mode,m,n", [("LLNN", 3, 2), ("LUTN", 9, 4),
                                      ("RUNN", 5, 6), ("LLNN", 12, 8)])
def test_zero_diagonal_is_not_finite_where_substitution_is(
        backend, dtype, mode, m, n):
    """Valid lanes with a zero diagonal come out non-finite exactly where
    per-lane substitution does; the batch leaves padding lanes in the
    last group, which stay finite."""
    lanes = KUNPENG_920.lanes(NP[dtype])
    batch = 2 * lanes + 1
    problem = TrsmProblem(m, n, dtype, *mode, batch=batch)
    d = problem.a_dim
    rng = np.random.default_rng(m * n)
    a = rng.standard_normal((batch, d, d)) + 4 * np.eye(d)
    b = rng.standard_normal((batch, m, n))
    if problem.dtype.is_complex:
        a = a + 1j * rng.standard_normal((batch, d, d))
        b = b + 1j * rng.standard_normal((batch, m, n))
    a, b = a.astype(NP[dtype]), b.astype(NP[dtype])
    for lane, i in ((0, d // 2), (lanes, d - 1), (batch - 1, 0)):
        a[lane, i, i] = 0
    fw = IATF(KUNPENG_920, backend=backend)
    want = ~np.isfinite(_substitute(problem, a, b))
    assert want[0].any() and want[lanes].any() and want[batch - 1].any()
    for _ in range(3 if backend == "fused" else 1):   # both fused tiers
        got = fw.trsm(a, b, side=mode[0], uplo=mode[1], transa=mode[2],
                      diag=mode[3])
        assert np.array_equal(~np.isfinite(got), want)


def test_padding_lanes_stay_finite():
    """The packed triangle of a batch with padding lanes: a zero diagonal
    in a valid lane reciprocates to Inf, the padding lanes' zeros to 1."""
    from repro.layout import CompactBatch
    from repro.packing.trsm_pack import normalize_trsm_mode, pack_trsm_a
    a = np.tile(np.eye(2), (3, 1, 1))
    a[1, 1, 1] = 0.0
    cb = CompactBatch.from_matrices(a, 2)          # 2 groups, 1 pad lane
    packed = pack_trsm_a(cb, normalize_trsm_mode(TrsmProblem(2, 2, "d")),
                         [2])
    grid = packed.data.reshape(cb.groups, 3, 1, 2)   # (0,0) (1,0) (1,1)
    assert np.array_equal(grid[:, 0, 0], [[1, 1], [1, 1]])
    assert np.array_equal(grid[:, 2, 0], [[1, np.inf], [1, 1]])


def _strict(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn()


def test_complex_inf_diagonal_raises_no_warning():
    a = np.tile(np.eye(3, dtype=np.complex128), (2, 1, 1))
    a[0, 1, 1] = complex(np.inf, 0)
    x = _strict(lambda: IATF(KUNPENG_920).trsm(a, np.ones((2, 3, 2),
                                                          np.complex128)))
    assert not np.isfinite(x[0, 1]).any()
    assert np.array_equal(x[1], np.ones((3, 2)))


def test_complex_inf_b_scaled_by_alpha_raises_no_warning():
    a = np.tile(np.eye(3, dtype=np.complex128), (2, 1, 1))
    b = np.ones((2, 3, 2), np.complex128)
    b[0, 0, 0] = complex(np.inf, 1)
    x = _strict(lambda: IATF(KUNPENG_920).trsm(a, b, alpha=2))
    assert not np.isfinite(x[0, 0, 0])
    assert np.array_equal(x[1], 2 * np.ones((3, 2)))
