"""The correctness gate, applied outside the timed region.

Library and service results are compared with :mod:`repro.reference`
within a per-dtype tolerance: GEMM on every matrix, TRSM on a seeded
sample of matrices (``trsm_reference`` solves one matrix at a time).  The
tuning sweep's DB must hash to a pinned digest of its canonical JSON.
Every mismatch is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.reference import gemm_reference, trsm_reference
from repro.types import GemmProblem

#: allowed max |got - want| relative to max(1, max |want|), per BLAS dtype
RTOL = {"s": 1e-4, "c": 1e-4, "d": 1e-10, "z": 1e-10}

#: TRSM matrices checked per library call
TRSM_SAMPLE = 64


@dataclasses.dataclass
class Expected:
    """What one operation must return: the reference values for the rows
    ``rows`` of the output (``None`` = every row), and the tolerance."""

    values: np.ndarray
    tol: float
    rows: "np.ndarray | None" = None


def expect(problem, a: np.ndarray, b: np.ndarray, c=None,
           rng: "np.random.Generator | None" = None) -> Expected:
    """Reference result for one library call (or one service request,
    whose operands are single matrices)."""
    single = a.ndim == 2
    if single:
        a, b = a[None], b[None]
        c = None if c is None else c[None]
        problem = dataclasses.replace(problem, batch=1)
    rows = None
    if isinstance(problem, GemmProblem):
        want = gemm_reference(problem, a, b, c)
    else:
        if rng is not None and problem.batch > TRSM_SAMPLE:
            rows = np.sort(rng.choice(problem.batch, TRSM_SAMPLE,
                                      replace=False))
            a, b = a[rows], b[rows]
            problem = dataclasses.replace(problem, batch=TRSM_SAMPLE)
        want = trsm_reference(problem, a, b)
    if single:
        want = want[0]
    tol = RTOL[problem.dtype.value] * max(1.0, float(np.abs(want).max()))
    return Expected(want, tol, rows)


def matches(got, exp: Expected) -> bool:
    """Does ``got`` agree with the reference?  NaN never matches."""
    if not isinstance(got, np.ndarray):
        return False
    if exp.rows is not None:
        got = got[exp.rows] if got.shape[0] > exp.rows[-1] else got[:0]
    if got.shape != exp.values.shape or got.dtype != exp.values.dtype:
        return False
    return bool(np.abs(got - exp.values).max() <= exp.tol)


def db_digest(db) -> str:
    """sha256 of a TuningDB's canonical JSON."""
    return hashlib.sha256(db.to_json().encode()).hexdigest()
