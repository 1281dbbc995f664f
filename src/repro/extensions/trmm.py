"""Compact batched TRMM: ``B := alpha * op(A) @ B`` with triangular A.

Built from existing parts:

* the same mode normalization as TRSM (all eight side/uplo/trans
  combinations map onto the canonical lower-left orientation by
  persymmetric flip and/or transposition of B);
* the Table 1 GEMM kernel family, invoked with a *variable K per row
  block*: canonical row block ``i`` (rows ``s_i .. s_i + t_i``) only
  multiplies columns ``0 .. s_i + t_i`` of the triangle, so its kernels
  run with ``K_i = s_i + t_i`` — the structure exploitation that makes
  this TRMM cost half the madds of a dense GEMM of the same order;
* A row panels are packed in the GEMM-A stream order with the strict
  upper part of the diagonal block zero-masked (and a unit diagonal
  materialized as ones), so the kernels stay oblivious to the
  triangular structure;
* B is Z-packed once per column tile over the full depth ``d``; a kernel
  with depth ``K_i`` simply consumes the panel's prefix;
* results land in a fresh column-major work panel (beta = 0 kernels)
  that is unpacked with the inverse mode transform — reusing
  :func:`repro.packing.trsm_pack.unpack_trsm_b` verbatim.
"""

from __future__ import annotations

import numpy as np

from ..codegen.registry import KernelRegistry
from ..codegen.tiling import decompose_dim, tile_starts
from ..layout.compact import CompactBatch
from ..machine.machines import KUNPENG_920, MachineConfig
from ..machine.memory import MemorySpace
from ..packing.cost import PackCost
from ..packing.trsm_pack import (NormalizedTrsm, _scale_planes,
                                 _stored_index, unpack_trsm_b)
from ..runtime.engine import Engine, PlanTiming
from ..runtime.lowering import CompiledPlan, lower_plan
from ..runtime.plan import BufferSpec, ExecutionPlan, KernelCall
from ..types import Diag, Side, Trans, TrmmProblem, TrsmProblem, UpLo

__all__ = ["CompactTrmm", "normalize_trmm_mode"]


def normalize_trmm_mode(problem: TrmmProblem) -> NormalizedTrsm:
    """TRMM transforms exactly like TRSM: reuse the TRSM normalizer."""
    from ..packing.trsm_pack import normalize_trsm_mode
    equivalent = TrsmProblem(problem.m, problem.n, problem.dtype,
                             problem.side, problem.uplo, problem.transa,
                             problem.diag, problem.batch, 1.0)
    norm = normalize_trsm_mode(equivalent)
    return NormalizedTrsm(norm.d, norm.n_rhs, norm.transpose_b, norm.flip,
                          norm.gather_trans, problem.diag is Diag.UNIT,
                          complex(problem.alpha))


def _pack_trmm_a(a: CompactBatch, norm: NormalizedTrsm,
                 row_tiles: list[int]) -> tuple[np.ndarray, list[int]]:
    """Masked canonical-lower row panels in GEMM-A stream order."""
    d = norm.d
    grid = a.as_grid()
    starts = tile_starts(row_tiles)
    esz = a.dtype.real_itemsize
    elem_bytes = a.elem_stride * esz
    panels: list[np.ndarray] = []
    offsets: list[int] = []
    pos = 0
    for size, start in zip(row_tiles, starts):
        depth = start + size
        # [l][r] with l < depth: element L[start + r, l]
        imap = np.add.outer(np.zeros(depth, dtype=int),
                            start + np.arange(size))
        jmap = np.add.outer(np.arange(depth), np.zeros(size, dtype=int))
        keep = imap >= jmap                       # the lower triangle
        diag = imap == jmap
        si, sj = _stored_index(norm, imap, jmap)
        panel = np.ascontiguousarray(grid[:, si, sj, :, :])
        panel[:, ~keep] = 0.0
        if norm.unit:
            dsel = np.where(diag.ravel())[0].reshape(-1)
            flat = panel.reshape(panel.shape[0], -1, *panel.shape[3:])
            flat[:, dsel, 0, :] = 1.0
            if a.ncomp == 2:
                flat[:, dsel, 1, :] = 0.0
        panels.append(panel)
        offsets.append(pos)
        pos += depth * size * elem_bytes
    flat = [np.ascontiguousarray(p).reshape(a.groups, -1) for p in panels]
    data = np.concatenate(flat, axis=1).reshape(-1).astype(
        a.dtype.real_dtype, copy=False)
    return data, offsets


def _pack_trmm_b_z(b: CompactBatch, norm: NormalizedTrsm,
                   col_tiles: list[int]) -> tuple[np.ndarray, list[int]]:
    """Canonical B, Z-packed per column tile over the full depth d."""
    grid = b.as_grid()
    if norm.transpose_b:
        grid = grid.transpose(0, 2, 1, 3, 4)
    if norm.flip:
        grid = grid[:, ::-1, :, :, :]
    grid = _scale_planes(grid, norm.alpha, b.dtype.is_complex)
    esz = b.dtype.real_itemsize
    elem_bytes = b.ncomp * b.lanes * esz
    d = norm.d
    starts = tile_starts(col_tiles)
    panels, offsets, pos = [], [], 0
    for size, start in zip(col_tiles, starts):
        panel = grid[:, :, start:start + size, :, :]   # (G, d, size, ...)
        panels.append(panel)
        offsets.append(pos)
        pos += d * size * elem_bytes
    flat = [np.ascontiguousarray(p).reshape(b.groups, -1) for p in panels]
    data = np.concatenate(flat, axis=1).reshape(-1).astype(
        b.dtype.real_dtype, copy=False)
    return data, offsets


class CompactTrmm:
    """Planner/executor/timer for the compact TRMM extension."""

    def __init__(self, machine: MachineConfig = KUNPENG_920,
                 registry: KernelRegistry | None = None,
                 backend: "str | None" = None) -> None:
        self.machine = machine
        self.registry = registry if registry is not None \
            else KernelRegistry(machine)
        self.engine = Engine(machine, backend=backend)
        self._plans: dict[TrmmProblem, ExecutionPlan] = {}
        self._compiled: dict[TrmmProblem, CompiledPlan] = {}

    # -- planning -------------------------------------------------------

    def plan(self, problem: TrmmProblem) -> ExecutionPlan:
        """Build (and cache) the TRMM command queue for a problem shape."""
        cached = self._plans.get(problem)
        if cached is not None:
            return cached
        p = problem
        dt = p.dtype
        norm = normalize_trmm_mode(p)
        d, n_rhs = norm.d, norm.n_rhs
        mc_main, nc_main = self.registry.main_gemm_kernel(dt)
        row_tiles = decompose_dim(d, mc_main)
        col_tiles = decompose_dim(n_rhs, nc_main)
        row_starts = tile_starts(row_tiles)
        col_starts = tile_starts(col_tiles)

        ncomp = 2 if dt.is_complex else 1
        eb = self.machine.lanes(dt) * ncomp * dt.real_itemsize
        lanes = self.machine.lanes(dt)
        groups = -(-p.batch // lanes)

        # analytic pack offsets (must mirror the pack functions)
        a_offs, pos = [], 0
        for size, start in zip(row_tiles, row_starts):
            a_offs.append(pos)
            pos += (start + size) * size * eb
        a_stride = pos
        b_offs, pos = [], 0
        for size in col_tiles:
            b_offs.append(pos)
            pos += d * size * eb
        b_stride = pos

        calls: list[KernelCall] = []
        for jt, (nt, ns) in enumerate(zip(col_tiles, col_starts)):
            for it, (mt, ms) in enumerate(zip(row_tiles, row_starts)):
                depth = ms + mt
                prog = self.registry.gemm_kernel(mt, nt, depth, dt,
                                                 alpha=1.0, beta=0.0)
                calls.append(KernelCall(
                    program=prog,
                    a_buf="packTA", a_off=a_offs[it],
                    b_buf="packBZ", b_off=b_offs[jt],
                    c_buf="workB",
                    c_offsets=tuple(((ns + j) * d + ms) * eb
                                    for j in range(nt)),
                ))

        work_stride = d * n_rhs * eb
        buffers = {
            "A": BufferSpec("A", p.a_dim * p.a_dim * eb, warm="cold"),
            "B": BufferSpec("B", p.m * p.n * eb, warm="cold"),
            "packTA": BufferSpec("packTA", a_stride, warm="l1"),
            "packBZ": BufferSpec("packBZ", b_stride, warm="l1"),
            "workB": BufferSpec("workB", work_stride, warm="l1"),
        }
        pack = PackCost(bytes_read=(a_stride + b_stride) * groups,
                        bytes_written=(a_stride + b_stride) * groups,
                        panels=(len(row_tiles) + len(col_tiles)) * groups,
                        ew=dt.real_itemsize)
        unpack = PackCost(bytes_read=work_stride * groups,
                          bytes_written=p.m * p.n * eb * groups,
                          panels=groups, ew=dt.real_itemsize)
        plan = ExecutionPlan(
            kind="trmm", problem=p, machine=self.machine, calls=calls,
            buffers=buffers, pack_cost=pack, unpack_cost=unpack,
            groups=groups, groups_per_round=max(
                1, self.machine.l1.size // max(a_stride + b_stride
                                               + work_stride, 1)),
            meta={"norm": norm, "row_tiles": row_tiles,
                  "col_tiles": col_tiles,
                  "madds_structured": sum((s + t) * t for s, t in
                                          zip(row_starts, row_tiles)) * n_rhs,
                  "madds_dense": d * d * n_rhs},
        )
        self._plans[problem] = plan
        return plan

    # -- execution ---------------------------------------------------------

    def execute(self, problem: TrmmProblem, a: CompactBatch,
                b: CompactBatch) -> CompactBatch:
        """In-place ``B := alpha op(A) B`` on compact operands."""
        plan = self.plan(problem)
        norm = plan.meta["norm"]
        pa, _ = _pack_trmm_a(a, norm, plan.meta["row_tiles"])
        pb, _ = _pack_trmm_b_z(b, norm, plan.meta["col_tiles"])
        work = np.zeros(plan.buffers["workB"].group_stride_bytes
                        // b.dtype.real_itemsize * b.groups,
                        dtype=b.dtype.real_dtype)
        mem = MemorySpace()
        mem.bind("packTA", pa)
        mem.bind("packBZ", pb)
        mem.bind("workB", work)
        strides = {name: plan.buffers[name].group_stride_bytes
                   for name in ("packTA", "packBZ", "workB")}
        compiled = None
        if self.engine.backend.needs_lowering:
            compiled = self._compiled.get(problem)
            if compiled is None:
                compiled = lower_plan(plan, self.engine.templates)
                self._compiled[problem] = compiled
        self.engine.run_plan(plan, mem, strides, b.groups, compiled=compiled)
        # n_pad == n_rhs here (column tiles cover n exactly)
        unpack_trsm_b(work, b, norm, pad_cols_to=1)
        return b

    # -- timing --------------------------------------------------------------

    def time(self, problem: TrmmProblem) -> PlanTiming:
        """Cycle-model timing of the planned TRMM."""
        return self.engine.time_plan(self.plan(problem))
