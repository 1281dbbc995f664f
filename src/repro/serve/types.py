"""Request model for the BLAS service frontend.

A :class:`Request` is **one** small problem from one caller: a single
``M x N x K`` GEMM or ``M x N`` TRSM with its numpy operands, a tenant
id, and an optional latency deadline.  Validation happens eagerly at
construction — the same :class:`~repro.errors.InvalidProblemError`
paths the library API uses — so the scheduler thread only ever sees
well-formed work and a malformed call fails in the *caller's* stack,
not inside a batch flush that would poison its neighbours.

The batch-1 problem descriptor built here does double duty: because
:class:`~repro.types.GemmProblem` / :class:`~repro.types.TrsmProblem`
are frozen (hashable) dataclasses carrying routine, dtype, mode, shape,
and scalars, the descriptor **is** the coalescing bucket key — two
requests land in the same compact group iff their descriptors are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidProblemError
from ..types import (BlasDType, Diag, GemmProblem, Side, Trans, TrsmProblem,
                     UpLo)

__all__ = ["Request"]


def _as_matrix(name: str, arr) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise InvalidProblemError(
            f"{name} must be a numpy array, got {type(arr).__name__}")
    if arr.ndim != 2:
        raise InvalidProblemError(
            f"{name} must be a single 2-D matrix (the service batches "
            f"requests itself), got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidProblemError(f"{name} has an empty dimension: "
                                  f"{arr.shape[0]}x{arr.shape[1]}")
    return arr


def _check_deadline(deadline_ms) -> "float | None":
    if deadline_ms is None:
        return None
    try:
        deadline = float(deadline_ms)
    except (TypeError, ValueError):
        raise InvalidProblemError(
            f"deadline_ms must be a number of milliseconds, "
            f"got {deadline_ms!r}") from None
    if deadline <= 0.0:
        raise InvalidProblemError(
            f"deadline_ms must be positive, got {deadline}")
    return deadline


def _check_tenant(tenant) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise InvalidProblemError(
            f"tenant must be a non-empty string, got {tenant!r}")
    return tenant


@dataclass(frozen=True)
class Request:
    """One validated small-BLAS request.

    Build via :meth:`Request.gemm` / :meth:`Request.trsm`, not the raw
    constructor.  ``problem`` is the batch-1 descriptor (also the
    coalescing key); operands are stored cast to the problem dtype so
    stacking a bucket needs no per-request conversion.
    """

    routine: str                       # "gemm" | "trsm"
    problem: object                    # GemmProblem | TrsmProblem, batch=1
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: "np.ndarray | None" = field(default=None, repr=False)
    tenant: str = "default"
    deadline_ms: "float | None" = None

    @property
    def key(self):
        """The coalescing bucket key (the frozen batch-1 descriptor)."""
        return self.problem

    @property
    def out_shape(self) -> "tuple[int, int]":
        p = self.problem
        return p.c_shape if self.routine == "gemm" else p.b_shape

    @property
    def label(self) -> str:
        """Short problem-signature string (the input-aware grouping key
        for budget ledgers and SLO reports): routine, dtype, shape,
        mode — everything that decides the coalescing bucket except the
        scalars."""
        p = self.problem
        shape = (f"{p.m}x{p.n}x{p.k}" if self.routine == "gemm"
                 else f"{p.m}x{p.n}")
        return f"{self.routine}[{p.dtype.value}]{shape}:{p.mode}"

    # -- constructors ---------------------------------------------------

    @classmethod
    def gemm(cls, a: np.ndarray, b: np.ndarray,
             c: "np.ndarray | None" = None, *,
             alpha: complex = 1.0, beta: complex = 0.0,
             transa: "Trans | str" = "N", transb: "Trans | str" = "N",
             dtype: "BlasDType | str | None" = None,
             tenant: str = "default",
             deadline_ms: "float | None" = None) -> "Request":
        """``C = alpha op(A) op(B) + beta C`` for one small problem.

        ``c`` may be omitted when ``beta == 0`` (the common inference
        case): the service allocates the output.  The dtype defaults to
        C's (then A's) dtype, exactly as :meth:`IATF.gemm` resolves it.
        """
        a = _as_matrix("A", a)
        b = _as_matrix("B", b)
        ta, tb = Trans.from_any(transa), Trans.from_any(transb)
        dt = BlasDType.from_any(
            dtype if dtype is not None
            else (c.dtype if isinstance(c, np.ndarray) else a.dtype))
        m = a.shape[0] if ta is Trans.N else a.shape[1]
        k = a.shape[1] if ta is Trans.N else a.shape[0]
        n = b.shape[1] if tb is Trans.N else b.shape[0]
        problem = GemmProblem(m, n, k, dt, ta, tb, 1, alpha, beta)
        if b.shape != problem.b_shape:
            raise InvalidProblemError(
                f"B is {b.shape[0]}x{b.shape[1]} but transb={tb.value} "
                f"with k={k}, n={n} requires {problem.b_shape[0]}x"
                f"{problem.b_shape[1]}")
        if c is None:
            if problem.beta != 0.0:
                raise InvalidProblemError(
                    f"beta={problem.beta} reads C, so C must be supplied "
                    f"(omit it only with beta=0)")
            c = np.zeros(problem.c_shape, dtype=dt.np_dtype)
        else:
            c = _as_matrix("C", c)
            if c.shape != problem.c_shape:
                raise InvalidProblemError(
                    f"C is {c.shape[0]}x{c.shape[1]} but op(A) op(B) is "
                    f"{m}x{n}")
        for name, x in (("A", a), ("B", b), ("C", c)):
            dt.check_operand(name, x)
        return cls("gemm", problem,
                   np.ascontiguousarray(a, dtype=dt.np_dtype),
                   np.ascontiguousarray(b, dtype=dt.np_dtype),
                   np.ascontiguousarray(c, dtype=dt.np_dtype),
                   _check_tenant(tenant), _check_deadline(deadline_ms))

    @classmethod
    def trsm(cls, a: np.ndarray, b: np.ndarray, *,
             alpha: complex = 1.0,
             side: "Side | str" = "L", uplo: "UpLo | str" = "L",
             transa: "Trans | str" = "N", diag: "Diag | str" = "N",
             dtype: "BlasDType | str | None" = None,
             tenant: str = "default",
             deadline_ms: "float | None" = None) -> "Request":
        """Solve ``op(A) X = alpha B`` (or the RIGHT variant) for one
        small problem; the result X is returned, B is not mutated."""
        a = _as_matrix("A", a)
        b = _as_matrix("B", b)
        dt = BlasDType.from_any(dtype if dtype is not None else b.dtype)
        problem = TrsmProblem(b.shape[0], b.shape[1], dt,
                              Side.from_any(side), UpLo.from_any(uplo),
                              Trans.from_any(transa), Diag.from_any(diag),
                              1, alpha)
        if a.shape[0] != a.shape[1] or a.shape[0] != problem.a_dim:
            raise InvalidProblemError(
                f"A is {a.shape[0]}x{a.shape[1]} but side="
                f"{problem.side.value} with B {b.shape[0]}x{b.shape[1]} "
                f"requires {problem.a_dim}x{problem.a_dim}")
        dt.check_operand("A", a)
        dt.check_operand("B", b)
        return cls("trsm", problem,
                   np.ascontiguousarray(a, dtype=dt.np_dtype),
                   np.ascontiguousarray(b, dtype=dt.np_dtype),
                   None, _check_tenant(tenant), _check_deadline(deadline_ms))

    def __post_init__(self) -> None:
        if self.routine not in ("gemm", "trsm"):
            raise InvalidProblemError(
                f"unknown routine {self.routine!r} (gemm or trsm)")

    def describe(self) -> str:
        p = self.problem
        if self.routine == "gemm":
            shape = f"{p.m}x{p.n}x{p.k}"
        else:
            shape = f"{p.m}x{p.n}"
        return (f"{self.routine}[{p.dtype.value}] {shape} mode={p.mode} "
                f"tenant={self.tenant}")
