"""Functional execution of kernel programs, vectorized over batch groups.

The executor interprets a :class:`~repro.machine.program.Program` exactly
once per kernel *invocation*, but each vector register holds a
``(groups, lanes)`` array: one simulated SIMD instruction becomes one
NumPy operation over the entire batch.  This keeps functional testing of
generated kernels fast (per the optimization guide: vectorize the inner
loop, touch memory contiguously) while still executing the *actual*
instruction stream the code generator produced — the same stream the
pipeline model times.

This interpreter is the ``interpret`` executor backend and the
**bit-exact reference semantics** for every other backend: the
run-time stage's lowering pass (:mod:`repro.runtime.lowering`)
constant-folds the address resolution :meth:`VectorExecutor.step`
performs per instruction, and the lowered backends must reproduce
this executor's results bit for bit (the backend-equivalence suite
enforces it).  Change execution semantics here first; lowering second.

Semantics notes
---------------
* Loads/stores move ``lanes`` consecutive real elements (the compact
  layout guarantees the P matrices' elements are contiguous); ``nlanes``
  restricts that for partial accesses used by baseline edge code.
* Reading an uninitialized vector register is an :class:`ExecutionError`
  (real hardware would happily read garbage; catching it here turns
  codegen bugs into loud failures).
* All arithmetic is done in the program's element dtype, so float32
  kernels round exactly like NEON float32 math would.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .isa import NUM_VREGS, NUM_XREGS, Instr, Op
from .memory import MemorySpace, Pointer
from .program import Program

__all__ = ["VectorExecutor"]


class VectorExecutor:
    """Interprets straight-line programs against a :class:`MemorySpace`.

    Parameters
    ----------
    memory:
        The buffer set the program addresses.
    groups:
        Batch-group fan-out: every pointer register must either be scalar
        (applied to all groups) or carry a ``(groups,)`` offset array.
    """

    def __init__(self, memory: MemorySpace, groups: int = 1) -> None:
        if groups < 1:
            raise ExecutionError("groups must be >= 1")
        self.memory = memory
        self.groups = int(groups)
        self._vregs: list[np.ndarray | None] = [None] * NUM_VREGS
        self._xregs: list[Pointer | None] = [None] * NUM_XREGS

    # -- register file ------------------------------------------------

    def set_pointer(self, xreg: int, buffer: str,
                    offset: "int | np.ndarray" = 0) -> None:
        """Point scalar register ``xreg`` at ``buffer[offset bytes]``."""
        if buffer not in self.memory:
            raise ExecutionError(f"unknown buffer {buffer!r}")
        ptr = Pointer(buffer, offset)
        if ptr.groups is not None and ptr.groups != self.groups:
            raise ExecutionError(
                f"pointer fan-out {ptr.groups} != executor groups {self.groups}")
        self._xregs[xreg] = ptr

    def get_pointer(self, xreg: int) -> Pointer:
        ptr = self._xregs[xreg]
        if ptr is None:
            raise ExecutionError(f"scalar register x{xreg} read before write")
        return ptr

    def vreg(self, idx: int) -> np.ndarray:
        """Current value of vector register ``idx`` as a (groups, lanes) array."""
        val = self._vregs[idx]
        if val is None:
            raise ExecutionError(f"vector register v{idx} read before write")
        return val

    def vreg_snapshot(self) -> list[np.ndarray | None]:
        """Copies of all vector registers (scheduler-equivalence tests)."""
        return [None if v is None else v.copy() for v in self._vregs]

    def reset(self) -> None:
        self._vregs = [None] * NUM_VREGS
        self._xregs = [None] * NUM_XREGS

    # -- execution ----------------------------------------------------

    def run(self, program: Program) -> int:
        """Execute the program once; returns the instruction count."""
        lanes = program.lanes
        dtype = np.dtype(np.float32 if program.ew == 4 else np.float64)
        # padding lanes legitimately hold zeros/garbage; their inf/nan
        # arithmetic is by design and never unpacked
        with np.errstate(all="ignore"):
            for pc, ins in enumerate(program.instrs):
                try:
                    self.step(ins, lanes, dtype)
                except ExecutionError as exc:
                    raise ExecutionError(
                        f"{program.name} @pc={pc} ({ins.asm()}): "
                        f"{exc}") from None
        return len(program.instrs)

    # -- per-instruction dispatch --------------------------------------

    def _element_indices(self, ins: Instr, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a memory operand to (buffer_array, element index array).

        Returns the target buffer plus an integer index array of shape
        ``(groups, n)`` addressing ``n`` consecutive elements per group.
        """
        ptr = self.get_pointer(ins.base)
        buf = self.memory[ptr.buffer]
        isz = int(buf.dtype.itemsize)
        byte_off = ptr.offset + ins.offset
        if isinstance(byte_off, np.ndarray):
            base = byte_off
        else:
            base = np.full(self.groups, byte_off, dtype=np.int64)
        rem = base % isz
        if np.any(rem):
            raise ExecutionError(
                f"misaligned access into {ptr.buffer!r} (offset not a multiple "
                f"of {isz})")
        first = base // isz
        idx = first[:, None] + np.arange(n, dtype=np.int64)[None, :]
        if idx.min() < 0 or idx.max() >= buf.shape[0]:
            raise ExecutionError(
                f"out-of-bounds access into {ptr.buffer!r}: elements "
                f"[{int(idx.min())}, {int(idx.max())}] of {buf.shape[0]}")
        return buf, idx

    def _load_vec(self, ins: Instr, dst: int, lanes: int, dtype: np.dtype) -> None:
        n = ins.nlanes if ins.nlanes is not None else lanes
        buf, idx = self._element_indices(ins, n)
        vals = buf[idx].astype(dtype, copy=False)
        if n < lanes:
            out = np.zeros((self.groups, lanes), dtype=dtype)
            out[:, :n] = vals[:, :n]
            self._vregs[dst] = out
        else:
            self._vregs[dst] = np.ascontiguousarray(vals)

    def step(self, ins: Instr, lanes: int, dtype: np.dtype) -> None:
        """Execute one instruction (reference semantics for backends)."""
        op = ins.op
        if op is Op.LDRV:
            self._load_vec(ins, ins.dst[0], lanes, dtype)
        elif op is Op.LDPV:
            n = lanes
            buf, idx = self._element_indices(ins, 2 * n)
            vals = buf[idx].astype(dtype, copy=False)
            self._vregs[ins.dst[0]] = np.ascontiguousarray(vals[:, :n])
            self._vregs[ins.dst[1]] = np.ascontiguousarray(vals[:, n:])
        elif op is Op.LD1R:
            buf, idx = self._element_indices(ins, 1)
            scalar = buf[idx[:, 0]].astype(dtype, copy=False)
            self._vregs[ins.dst[0]] = np.repeat(scalar[:, None], lanes, axis=1)
        elif op is Op.LD2V:
            n = ins.nlanes if ins.nlanes is not None else lanes
            buf, idx = self._element_indices(ins, 2 * n)
            vals = buf[idx].astype(dtype, copy=False)
            even = np.zeros((self.groups, lanes), dtype=dtype)
            odd = np.zeros((self.groups, lanes), dtype=dtype)
            even[:, :n] = vals[:, 0::2]
            odd[:, :n] = vals[:, 1::2]
            self._vregs[ins.dst[0]] = even
            self._vregs[ins.dst[1]] = odd
        elif op is Op.ST2V:
            n = ins.nlanes if ins.nlanes is not None else lanes
            buf, idx = self._element_indices(ins, 2 * n)
            even = self.vreg(ins.srcs[0])
            odd = self.vreg(ins.srcs[1])
            buf[idx[:, 0::2]] = even[:, :n].astype(buf.dtype, copy=False)
            buf[idx[:, 1::2]] = odd[:, :n].astype(buf.dtype, copy=False)
        elif op is Op.STRV:
            n = ins.nlanes if ins.nlanes is not None else lanes
            buf, idx = self._element_indices(ins, n)
            val = self.vreg(ins.srcs[0])
            buf[idx] = val[:, :n].astype(buf.dtype, copy=False)
        elif op is Op.STPV:
            n = lanes
            buf, idx = self._element_indices(ins, 2 * n)
            v1 = self.vreg(ins.srcs[0])
            v2 = self.vreg(ins.srcs[1])
            buf[idx[:, :n]] = v1.astype(buf.dtype, copy=False)
            buf[idx[:, n:]] = v2.astype(buf.dtype, copy=False)
        elif op is Op.ADDI:
            src = self.get_pointer(ins.xsrc)
            self._xregs[ins.xdst] = src + ins.ximm
        elif op is Op.FMLA:
            a, b = self.vreg(ins.srcs[0]), self.vreg(ins.srcs[1])
            acc = self.vreg(ins.dst[0])
            self._vregs[ins.dst[0]] = acc + a * b
        elif op is Op.FMLS:
            a, b = self.vreg(ins.srcs[0]), self.vreg(ins.srcs[1])
            acc = self.vreg(ins.dst[0])
            self._vregs[ins.dst[0]] = acc - a * b
        elif op is Op.FMUL:
            a, b = self.vreg(ins.srcs[0]), self.vreg(ins.srcs[1])
            self._vregs[ins.dst[0]] = a * b
        elif op is Op.FMAI:
            a = self.vreg(ins.srcs[0])
            acc = self.vreg(ins.dst[0])
            self._vregs[ins.dst[0]] = acc + a * dtype.type(ins.imm)
        elif op is Op.FMULI:
            a = self.vreg(ins.srcs[0])
            self._vregs[ins.dst[0]] = a * dtype.type(ins.imm)
        elif op is Op.FADD:
            self._vregs[ins.dst[0]] = self.vreg(ins.srcs[0]) + self.vreg(ins.srcs[1])
        elif op is Op.FSUB:
            self._vregs[ins.dst[0]] = self.vreg(ins.srcs[0]) - self.vreg(ins.srcs[1])
        elif op is Op.FDIV:
            self._vregs[ins.dst[0]] = (self.vreg(ins.srcs[0])
                                       / self.vreg(ins.srcs[1]))
        elif op is Op.VZERO:
            self._vregs[ins.dst[0]] = np.zeros((self.groups, lanes), dtype=dtype)
        elif op is Op.VMOV:
            self._vregs[ins.dst[0]] = self.vreg(ins.srcs[0]).copy()
        elif op is Op.FIMM:
            self._vregs[ins.dst[0]] = np.full((self.groups, lanes),
                                              dtype.type(ins.imm),
                                              dtype=dtype)
        elif op in (Op.PRFM, Op.NOP):
            pass
        else:  # pragma: no cover - exhaustive
            raise ExecutionError(f"unimplemented opcode {op}")
