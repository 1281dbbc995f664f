"""Free-function compact BLAS interface.

Mirrors the shape of Intel MKL's compact API: explicit conversion
between standard batch arrays and the compact format, plus
``compact_gemm`` / ``compact_trsm`` operating on :class:`CompactBatch`
operands in place.  A process-wide default :class:`~repro.runtime.iatf.IATF`
instance (per machine) caches kernels and plans across calls, which is
how a downstream user gets install-time amortization without managing
framework objects.
"""

from __future__ import annotations

import threading

import numpy as np

from ..layout.compact import CompactBatch
from ..machine.machines import KUNPENG_920, MachineConfig
from ..runtime.backends import resolve_backend
from ..runtime.iatf import IATF
from ..types import (BlasDType, Diag, GemmProblem, Side, Trans, TrsmProblem,
                     UpLo)

__all__ = ["compact_from_batch", "compact_to_batch", "compact_gemm",
           "compact_trsm", "default_framework"]

# keyed by (machine name, backend name); guarded by _FRAMEWORKS_LOCK so
# concurrent first calls cannot race to build two frameworks (each IATF
# builds a kernel registry — losing one would leak the warm-up cost)
_FRAMEWORKS: "dict[tuple[str, str], IATF]" = {}
_FRAMEWORKS_LOCK = threading.Lock()


def default_framework(machine: MachineConfig = KUNPENG_920,
                      backend: "str | None" = None) -> IATF:
    """The shared per-machine (and per-backend) IATF instance used by
    the free functions."""
    key = (machine.name, resolve_backend(backend).name)
    with _FRAMEWORKS_LOCK:
        fw = _FRAMEWORKS.get(key)
        if fw is None:
            fw = IATF(machine, backend=backend)
            _FRAMEWORKS[key] = fw
        return fw


def compact_from_batch(matrices: np.ndarray,
                       machine: MachineConfig = KUNPENG_920,
                       dtype: "BlasDType | str | None" = None) -> CompactBatch:
    """Interleave a standard ``(batch, rows, cols)`` array for ``machine``."""
    dt = BlasDType.from_any(dtype if dtype is not None else matrices.dtype)
    return CompactBatch.from_matrices(matrices, machine.lanes(dt), dt)


def compact_to_batch(compact: CompactBatch) -> np.ndarray:
    """De-interleave back to a standard batch array."""
    return compact.to_matrices()


def compact_gemm(a: CompactBatch, b: CompactBatch, c: CompactBatch,
                 alpha: complex = 1.0, beta: complex = 1.0,
                 transa: "Trans | str" = "N", transb: "Trans | str" = "N",
                 machine: MachineConfig = KUNPENG_920,
                 backend: "str | None" = None) -> CompactBatch:
    """``C = alpha op(A) op(B) + beta C`` on compact operands, in place."""
    ta, tb = Trans.from_any(transa), Trans.from_any(transb)
    m, n = c.rows, c.cols
    k = a.cols if ta is Trans.N else a.rows
    problem = GemmProblem(m, n, k, c.dtype, ta, tb, c.batch, alpha, beta)
    return default_framework(machine, backend).gemm_compact(problem, a, b, c)


def compact_trsm(a: CompactBatch, b: CompactBatch, alpha: complex = 1.0,
                 side: "Side | str" = "L", uplo: "UpLo | str" = "L",
                 transa: "Trans | str" = "N", diag: "Diag | str" = "N",
                 machine: MachineConfig = KUNPENG_920,
                 backend: "str | None" = None) -> CompactBatch:
    """Solve in place on compact operands; B becomes X."""
    problem = TrsmProblem(b.rows, b.cols, b.dtype, Side.from_any(side),
                          UpLo.from_any(uplo), Trans.from_any(transa),
                          Diag.from_any(diag), b.batch, alpha)
    return default_framework(machine, backend).trsm_compact(problem, a, b)
