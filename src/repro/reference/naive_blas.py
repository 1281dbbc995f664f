"""Reference batched GEMM/TRSM on standard-layout NumPy arrays.

These are the correctness oracles: straightforward, obviously-right
implementations using NumPy matmul and SciPy triangular solves.  Every
generated kernel, every baseline, and the full IATF pipeline are tested
against them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..errors import InvalidProblemError
from ..types import Diag, GemmProblem, Side, Trans, TrsmProblem, UpLo

__all__ = ["gemm_reference", "trsm_reference"]


def _check_batch_shape(name: str, arr: np.ndarray, shape: tuple[int, int],
                       batch: int) -> None:
    if arr.ndim != 3 or arr.shape != (batch, *shape):
        raise InvalidProblemError(
            f"{name} must have shape ({batch}, {shape[0]}, {shape[1]}), "
            f"got {arr.shape}")


def gemm_reference(problem: GemmProblem, a: np.ndarray, b: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """``C = alpha * op(A) @ op(B) + beta * C`` for every matrix in the batch.

    Arrays are standard ``(batch, rows, cols)`` layout; ``a`` and ``b``
    carry their *stored* (pre-op) shapes.  Returns a new array; inputs are
    not modified.  As in Netlib BLAS, ``alpha == 0`` references neither A
    nor B, and ``C`` too only when ``beta != 0``.
    """
    p = problem
    _check_batch_shape("A", a, p.a_shape, p.batch)
    _check_batch_shape("B", b, p.b_shape, p.batch)
    _check_batch_shape("C", c, p.c_shape, p.batch)
    if p.alpha == 0:
        # Netlib BLAS: A and B are not referenced; C := beta * C, or 0
        # when beta is 0 (C not referenced either)
        if p.beta == 0:
            return np.zeros(c.shape, dtype=p.dtype.np_dtype)
        return (p.beta * c).astype(p.dtype.np_dtype)
    opa = a if p.transa is Trans.N else a.transpose(0, 2, 1)
    opb = b if p.transb is Trans.N else b.transpose(0, 2, 1)
    acc = np.matmul(opa.astype(np.complex128 if p.dtype.is_complex else np.float64),
                    opb.astype(np.complex128 if p.dtype.is_complex else np.float64))
    out = p.alpha * acc + p.beta * c.astype(acc.dtype)
    return out.astype(p.dtype.np_dtype)


def trsm_reference(problem: TrsmProblem, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Solve ``op(A) X = alpha B`` (LEFT) or ``X op(A) = alpha B`` (RIGHT).

    ``a`` is ``(batch, d, d)`` where ``d`` is :attr:`TrsmProblem.a_dim`;
    only the :attr:`~TrsmProblem.uplo` triangle is referenced, and the
    diagonal is taken as 1 when ``diag`` is UNIT.  Returns X with B's shape;
    as in Netlib BLAS, ``alpha == 0`` gives zeros and never references A.
    """
    p = problem
    d = p.a_dim
    _check_batch_shape("A", a, (d, d), p.batch)
    _check_batch_shape("B", b, p.b_shape, p.batch)
    if p.alpha == 0:
        # Netlib BLAS: B := 0 and A is not referenced
        return np.zeros(b.shape, dtype=p.dtype.np_dtype)
    lower = p.uplo is UpLo.LOWER
    unit = p.diag is Diag.UNIT
    trans = 1 if p.transa is Trans.T else 0
    out = np.empty_like(b, dtype=p.dtype.np_dtype)
    work = b.astype(np.complex128 if p.dtype.is_complex else np.float64)
    for i in range(p.batch):
        ai = a[i].astype(work.dtype)
        if p.side is Side.LEFT:
            x = scipy.linalg.solve_triangular(
                ai, p.alpha * work[i], lower=lower, trans=trans,
                unit_diagonal=unit)
        else:
            # X op(A) = alpha B  <=>  op(A)^T X^T = alpha B^T
            x = scipy.linalg.solve_triangular(
                ai.T, p.alpha * work[i].T, lower=not lower,
                trans=trans, unit_diagonal=unit).T
        out[i] = x.astype(p.dtype.np_dtype)
    return out
