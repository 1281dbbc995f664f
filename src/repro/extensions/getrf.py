"""Compact batched LU factorization (GETRF, unpivoted) and solve.

The flagship demonstration that the framework's pieces compose into a
complete solver stack:

* for orders within the register budget (d <= 5 real / 3 complex) a
  generated *in-register LU kernel* factors every matrix of the batch
  simultaneously — the whole matrix lives in vector registers, the
  pivot reciprocal is one FDIV per column, the rank-1 trailing update
  is FMLS, exactly the compact-kernel idiom of the paper;
* larger orders use the classic blocked right-looking algorithm where
  every building block is an existing public operation:

      A11 = L11 U11          in-register LU kernel
      L21 = A21 U11^{-1}     compact TRSM (side R, upper, non-unit)
      U12 = L11^{-1} A12     compact TRSM (side L, lower, unit)
      A22 -= L21 @ U12       compact GEMM (alpha = -1, beta = 1)

  with sub-blocks moved through :meth:`CompactBatch.extract_block` /
  :meth:`~CompactBatch.write_block`.

No pivoting: like all batched compact factorizations (and MKL's
``mkl_dgetrfnp_compact``), the routine targets well-conditioned blocks
(diagonally dominant preconditioner blocks, mass matrices).  The result
overwrites A with L (unit lower, diagonal implicit) and U (upper).

``solve`` finishes the story: two compact TRSMs turn the factored batch
into a batched linear solver, used by the block-Jacobi example.
"""

from __future__ import annotations

import numpy as np

from ..codegen import regs
from ..codegen.validate import assert_valid
from ..errors import CodegenError, InvalidProblemError
from ..layout.compact import CompactBatch
from ..machine.executor import VectorExecutor
from ..machine.isa import (fdiv, fimm, fmla, fmls, fmul, fmuli,
                           ldpv, ldrv, stpv, strv, vmov)
from ..machine.machines import KUNPENG_920, MachineConfig
from ..machine.memory import MemorySpace
from ..machine.program import Program
from ..runtime.iatf import IATF
from ..types import BlasDType, TrsmProblem, GemmProblem

__all__ = ["CompactGetrf", "max_lu_order", "generate_lu_kernel"]


def max_lu_order(dtype: "BlasDType | str", num_vregs: int = 32) -> int:
    """Largest order whose full matrix + temps fit the register file.

    Real: ``d^2 + 2`` registers (matrix, the constant one, the pivot
    reciprocal) — d <= 5.  Complex doubles the matrix and needs three
    temps — d <= 3.
    """
    dt = BlasDType.from_any(dtype)
    d = 0
    while True:
        need = (2 * (d + 1) * (d + 1) + 4 if dt.is_complex
                else (d + 1) * (d + 1) + 2)
        if need > num_vregs:
            return d
        d += 1


def generate_lu_kernel(d: int, dtype: "BlasDType | str",
                       machine: MachineConfig) -> Program:
    """In-register unpivoted LU of a ``d x d`` compact batch, in place.

    PA points at the matrix in compact (column-major) layout; the kernel
    loads all of it, runs Doolittle elimination with FDIV-derived pivot
    reciprocals, and stores L\\U back over the input.
    """
    dt = BlasDType.from_any(dtype)
    bound = max_lu_order(dt, machine.num_vregs)
    if not 1 <= d <= bound:
        raise CodegenError(f"LU kernel order {d} outside 1..{bound} "
                           f"for {dt.value}")
    lanes = machine.lanes(dt)
    ew = dt.real_itemsize
    vb = lanes * ew
    ncomp = 2 if dt.is_complex else 1

    def a_reg(i: int, j: int, comp: int = 0) -> int:
        return ncomp * (j * d + i) + comp

    one = ncomp * d * d
    rec = one + 1
    # complex scratch: denom and the reciprocal's imaginary part
    den = rec + 1
    rim = den + 1

    ins = []
    # load the whole matrix (column-major contiguous)
    nvec = ncomp * d * d
    t = 0
    while t < nvec:
        if t + 1 < nvec:
            ins.append(ldpv(t, t + 1, regs.PA, t * vb, ew=ew, tag="LOAD"))
            t += 2
        else:
            ins.append(ldrv(t, regs.PA, t * vb, ew=ew, tag="LOAD"))
            t += 1
    ins.append(fimm(one, 1.0, ew=ew, tag="CONST"))

    for j in range(d):
        tag = f"COL{j}"
        if ncomp == 1:
            ins.append(fdiv(rec, one, a_reg(j, j), ew=ew, tag=tag))
            for i in range(j + 1, d):
                ins.append(fmul(a_reg(i, j), a_reg(i, j), rec, ew=ew,
                                tag=tag))
            for kk in range(j + 1, d):
                for i in range(j + 1, d):
                    ins.append(fmls(a_reg(i, kk), a_reg(i, j),
                                    a_reg(j, kk), ew=ew, tag=tag))
        else:
            pr, pi = a_reg(j, j, 0), a_reg(j, j, 1)
            # 1/p = (pr - i pi) / |p|^2: den = |p|^2, rec = pr/den,
            # rim = -pi/den
            ins.append(fmul(den, pr, pr, ew=ew, tag=tag))
            ins.append(fmla(den, pi, pi, ew=ew, tag=tag))
            ins.append(fdiv(rec, pr, den, ew=ew, tag=tag))
            ins.append(fdiv(rim, pi, den, ew=ew, tag=tag))
            ins.append(fmuli(rim, rim, -1.0, ew=ew, tag=tag))
            for i in range(j + 1, d):
                ar, ai = a_reg(i, j, 0), a_reg(i, j, 1)
                # (ar + i ai) * (rec + i rim); den is free as a temp now
                ins.append(fmul(den, ar, rec, ew=ew, tag=tag))
                ins.append(fmls(den, ai, rim, ew=ew, tag=tag))
                ins.append(fmul(ai, ai, rec, ew=ew, tag=tag))
                ins.append(fmla(ai, ar, rim, ew=ew, tag=tag))
                ins.append(vmov(ar, den, ew=ew, tag=tag))
            for kk in range(j + 1, d):
                for i in range(j + 1, d):
                    lr, li = a_reg(i, j, 0), a_reg(i, j, 1)
                    ur, ui = a_reg(j, kk, 0), a_reg(j, kk, 1)
                    cr, ci = a_reg(i, kk, 0), a_reg(i, kk, 1)
                    ins.append(fmls(cr, lr, ur, ew=ew, tag=tag))
                    ins.append(fmla(cr, li, ui, ew=ew, tag=tag))
                    ins.append(fmls(ci, lr, ui, ew=ew, tag=tag))
                    ins.append(fmls(ci, li, ur, ew=ew, tag=tag))

    t = 0
    while t < nvec:
        if t + 1 < nvec:
            ins.append(stpv(t, t + 1, regs.PA, t * vb, ew=ew, tag="STORE"))
            t += 2
        else:
            ins.append(strv(t, regs.PA, t * vb, ew=ew, tag="STORE"))
            t += 1

    prog = Program(f"{dt.value}getrf_{d}", ins, ew=ew, lanes=lanes,
                   meta={"routine": "getrf", "d": d, "dtype": dt.value})
    return prog


class CompactGetrf:
    """Batched unpivoted LU: factor in place, then solve with two TRSMs."""

    BLOCK = 4

    def __init__(self, machine: MachineConfig = KUNPENG_920,
                 iatf: IATF | None = None) -> None:
        self.machine = machine
        self.iatf = iatf if iatf is not None else IATF(machine)
        self._kcache: dict[tuple, Program] = {}

    def _kernel(self, d: int, dt: BlasDType) -> Program:
        key = (d, dt.value)
        prog = self._kcache.get(key)
        if prog is None:
            prog = generate_lu_kernel(d, dt, self.machine)
            assert_valid(prog, self.machine)
            self._kcache[key] = prog
        return prog

    def _factor_in_register(self, a: CompactBatch) -> None:
        prog = self._kernel(a.rows, a.dtype)
        mem = MemorySpace()
        mem.bind("A", a.buffer)
        ex = VectorExecutor(mem, groups=a.groups)
        ex.set_pointer(regs.PA, "A", a.group_base_offsets())
        ex.run(prog)

    def factor(self, a: CompactBatch) -> CompactBatch:
        """In-place LU of every matrix: A becomes L\\U (L unit lower)."""
        if a.rows != a.cols:
            raise InvalidProblemError(
                f"LU needs square matrices, got {a.rows}x{a.cols}")
        d = a.rows
        bound = max_lu_order(a.dtype, self.machine.num_vregs)
        if d <= bound:
            self._factor_in_register(a)
            return a
        nb = min(self.BLOCK, bound)
        pos = 0
        while pos < d:
            b = min(nb, d - pos)
            end = pos + b
            a11 = a.extract_block(pos, end, pos, end)
            self._factor_in_register(a11)
            a.write_block(pos, pos, a11)
            if end < d:
                a21 = a.extract_block(end, d, pos, end)
                a12 = a.extract_block(pos, end, end, d)
                a22 = a.extract_block(end, d, end, d)
                # L21 = A21 U11^{-1}
                self.iatf.trsm_compact(
                    TrsmProblem(d - end, b, a.dtype, "R", "U", "N", "N",
                                a.batch), a11, a21)
                # U12 = L11^{-1} A12
                self.iatf.trsm_compact(
                    TrsmProblem(b, d - end, a.dtype, "L", "L", "N", "U",
                                a.batch), a11, a12)
                # A22 -= L21 U12
                self.iatf.gemm_compact(
                    GemmProblem(d - end, d - end, b, a.dtype,
                                batch=a.batch, alpha=-1.0, beta=1.0),
                    a21, a12, a22)
                a.write_block(end, pos, a21)
                a.write_block(pos, end, a12)
                a.write_block(end, end, a22)
            pos = end
        return a

    def solve(self, lu: CompactBatch, b: CompactBatch) -> CompactBatch:
        """Solve ``A X = B`` given the factored batch; B becomes X."""
        d = lu.rows
        if b.rows != d:
            raise InvalidProblemError(
                f"rhs rows {b.rows} != factored order {d}")
        self.iatf.trsm_compact(
            TrsmProblem(d, b.cols, lu.dtype, "L", "L", "N", "U", b.batch),
            lu, b)
        self.iatf.trsm_compact(
            TrsmProblem(d, b.cols, lu.dtype, "L", "U", "N", "N", b.batch),
            lu, b)
        return b
