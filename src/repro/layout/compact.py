"""The compact (SIMD-friendly, interleaved) batch container.

Matrices are stored **column-major within each matrix** (the BLAS/MKL
compact convention), interleaved across P lanes.  Storage order of one
group of P matrices of shape ``rows x cols``::

    real:     [elem(0,0) lanes 0..P-1][elem(1,0) lanes 0..P-1]...   col-major
    complex:  [elem(0,0).re lanes][elem(0,0).im lanes][elem(1,0).re]...

so a vector load at an element's byte offset fetches that element for P
matrices at once; for complex data an LDP fetches the re and im vectors
together.  Column-major order is what makes the paper's *no-packing*
fast paths real: when M does not exceed the kernel height, a GEMM-NN A
operand and a TRSM-LNLN B operand are already laid out exactly as the
compute kernel consumes them.

Groups are stored back to back; a batch that is not a multiple of P is
zero-padded (the padding lanes compute garbage that is never unpacked,
exactly as the paper describes).

All conversions are pure reshapes/transposes + one copy, per the
scientific-Python guidance: no Python-level loops over matrices.

An operand the plan packs need not be interleaved at all: a
:class:`StandardBatch` wraps the caller's ``(batch, rows, cols)`` array,
and the packers gather their panels straight from it (paper Figure 6's
N/Z-shaped packing with no compact intermediate).  Both classes answer
the same :meth:`~CompactBatch.gather` over compact element indices, so
one pack implementation serves either source.
"""

from __future__ import annotations

import numpy as np

from ..errors import LayoutError
from ..types import BlasDType
from .padding import padded_count

__all__ = ["CompactBatch", "StandardBatch"]


class _Geometry:
    """The shape of a batch of ``batch`` matrices of ``rows x cols``,
    grouped ``lanes`` to a SIMD register."""

    rows: int
    cols: int
    batch: int
    dtype: BlasDType
    lanes: int

    @property
    def groups(self) -> int:
        return padded_count(self.batch, self.lanes) // self.lanes

    @property
    def ncomp(self) -> int:
        return 2 if self.dtype.is_complex else 1

    @property
    def elem_stride(self) -> int:
        """Real elements between consecutive matrix elements down a column."""
        return self.ncomp * self.lanes


class CompactBatch(_Geometry):
    """A batch of fixed-size matrices in SIMD-friendly layout.

    Parameters
    ----------
    buffer:
        Flat 1-D real array holding the interleaved data (owned).
    rows, cols:
        Shape of each logical matrix.
    batch:
        Number of *valid* matrices (lanes beyond this are padding).
    dtype:
        BLAS data type; complex batches store split re/im planes.
    lanes:
        The paper's P — matrices interleaved per vector register.
    """

    def __init__(self, buffer: np.ndarray, rows: int, cols: int, batch: int,
                 dtype: BlasDType, lanes: int) -> None:
        dtype = BlasDType.from_any(dtype)
        ncomp = 2 if dtype.is_complex else 1
        groups = padded_count(batch, lanes) // lanes
        expected = groups * rows * cols * ncomp * lanes
        if buffer.ndim != 1 or buffer.shape[0] != expected:
            raise LayoutError(
                f"buffer has {buffer.shape} elements, expected ({expected},) for "
                f"{batch} matrices of {rows}x{cols} {dtype.value} at P={lanes}")
        if buffer.dtype != dtype.real_dtype:
            raise LayoutError(
                f"buffer dtype {buffer.dtype} != plane dtype {dtype.real_dtype}")
        self.buffer = buffer
        self.rows = int(rows)
        self.cols = int(cols)
        self.batch = int(batch)
        self.dtype = dtype
        self.lanes = int(lanes)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, batch: int,
              dtype: "BlasDType | str", lanes: int) -> "CompactBatch":
        dtype = BlasDType.from_any(dtype)
        ncomp = 2 if dtype.is_complex else 1
        groups = padded_count(batch, lanes) // lanes
        buf = np.zeros(groups * rows * cols * ncomp * lanes,
                       dtype=dtype.real_dtype)
        return cls(buf, rows, cols, batch, dtype, lanes)

    @classmethod
    def from_matrices(cls, matrices: np.ndarray, lanes: int,
                      dtype: "BlasDType | str | None" = None) -> "CompactBatch":
        """Interleave a standard ``(batch, rows, cols)`` array.

        The batch axis is zero-padded up to a multiple of ``lanes``.  One
        transposing copy from a real re/im view of the input (any memory
        order) fills the buffer; only the padding lanes are zeroed.
        """
        if matrices.ndim != 3:
            raise LayoutError(
                f"expected (batch, rows, cols) array, got {matrices.ndim}-D")
        dt = BlasDType.from_any(dtype if dtype is not None else matrices.dtype)
        ncomp = 2 if dt.is_complex else 1
        if ncomp == 2 and matrices.dtype.kind != "c":
            matrices = matrices.astype(dt.np_dtype)   # real into complex
        batch, rows, cols = matrices.shape
        groups = padded_count(batch, lanes) // lanes
        buf = np.empty(groups * rows * cols * ncomp * lanes,
                       dtype=dt.real_dtype)
        # column-major (G, c, r, comp, P) <- (batch, r, c, comp)
        dst = buf.reshape(groups, cols, rows, ncomp, lanes)
        src = _planes(matrices, ncomp)
        full, rem = divmod(batch, lanes)
        np.copyto(dst[:full],
                  src[:full * lanes].reshape(full, lanes, rows, cols, ncomp)
                  .transpose(0, 3, 2, 4, 1), casting="unsafe")
        if rem:
            np.copyto(dst[full, ..., :rem],
                      src[full * lanes:].transpose(2, 1, 3, 0),
                      casting="unsafe")
            dst[full, ..., rem:] = 0
        return cls(buf, rows, cols, batch, dt, lanes)

    # -- geometry --------------------------------------------------------

    @property
    def elem_stride_bytes(self) -> int:
        return self.elem_stride * self.dtype.real_itemsize

    @property
    def col_stride_bytes(self) -> int:
        """Bytes between the starts of consecutive matrix columns."""
        return self.rows * self.elem_stride_bytes

    @property
    def group_elems(self) -> int:
        """Real elements per group."""
        return self.rows * self.cols * self.elem_stride

    @property
    def group_stride_bytes(self) -> int:
        return self.group_elems * self.dtype.real_itemsize

    @property
    def nbytes(self) -> int:
        return int(self.buffer.nbytes)

    def element_offset(self, i: int, j: int, comp: int = 0) -> int:
        """Byte offset of element (i, j) plane ``comp`` within a group."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise LayoutError(f"element ({i},{j}) outside {self.rows}x{self.cols}")
        if not 0 <= comp < self.ncomp:
            raise LayoutError(f"component {comp} invalid for {self.dtype.value}")
        idx = (j * self.rows + i) * self.elem_stride + comp * self.lanes
        return idx * self.dtype.real_itemsize

    def group_base_offsets(self) -> np.ndarray:
        """Byte offset of each group's start — pointer fan-out for the executor."""
        return (np.arange(self.groups, dtype=np.int64)
                * self.group_stride_bytes)

    # -- views / conversion ----------------------------------------------

    def gather(self, index: np.ndarray) -> np.ndarray:
        """Elements ``index`` (compact ``j * rows + i``) of every group,
        in index order: a new ``(groups, index.size, elem_stride)``
        array."""
        return np.take(self.buffer.reshape(self.groups, self.rows * self.cols,
                                           self.elem_stride), index, axis=1)

    def as_grid(self) -> np.ndarray:
        """View shaped ``(groups, rows, cols, ncomp, lanes)`` (no copy)."""
        colmajor = self.buffer.reshape(self.groups, self.cols, self.rows,
                                       self.ncomp, self.lanes)
        return colmajor.transpose(0, 2, 1, 3, 4)

    def to_matrices(self) -> np.ndarray:
        """De-interleave back to a standard ``(batch, rows, cols)`` array:
        one transposing copy into the re/im planes of the output."""
        ncomp, lanes = self.ncomp, self.lanes
        out = np.empty((self.batch, self.rows, self.cols),
                       dtype=self.dtype.np_dtype)
        dst = _planes(out, ncomp)
        src = self.buffer.reshape(self.groups, self.cols, self.rows, ncomp,
                                  lanes)
        full, rem = divmod(self.batch, lanes)
        np.copyto(dst[:full * lanes].reshape(full, lanes, self.rows,
                                             self.cols, ncomp),
                  src[:full].transpose(0, 4, 2, 1, 3))
        if rem:
            np.copyto(dst[full * lanes:],
                      src[full, ..., :rem].transpose(3, 1, 0, 2))
        return out

    def matrix(self, index: int) -> np.ndarray:
        """One logical matrix (copy), mostly for tests and examples."""
        if not 0 <= index < self.batch:
            raise LayoutError(f"matrix index {index} out of range {self.batch}")
        g, lane = divmod(index, self.lanes)
        return self._owned(self.as_grid()[g, ..., lane])

    def matrices(self, count: "int | None" = None) -> "list[np.ndarray]":
        """The first ``count`` matrices (default: all), each copied once,
        straight out of the batch, into an array of its own: no result
        shares memory with the batch or with another result."""
        count = self.batch if count is None else count
        if not 0 <= count <= self.batch:
            raise LayoutError(f"cannot take {count} of {self.batch} matrices")
        by_lane = self.as_grid().transpose(0, 4, 1, 2, 3)
        return [self._owned(by_lane[divmod(i, self.lanes)])
                for i in range(count)]

    def _owned(self, planes: np.ndarray) -> np.ndarray:
        """A new ``(rows, cols)`` array of the element planes ``(rows,
        cols, ncomp)`` (complex parts assigned plane by plane, so
        ``-0.0`` and infinities keep their bits)."""
        if self.ncomp == 1:
            return planes[..., 0].copy()
        out = np.empty((self.rows, self.cols), dtype=self.dtype.np_dtype)
        np.copyto(out.view(planes.dtype).reshape(planes.shape), planes)
        return out

    def extract_block(self, i0: int, i1: int, j0: int,
                      j1: int) -> "CompactBatch":
        """Copy the sub-block ``[i0:i1, j0:j1]`` of every matrix into a
        new compact batch (used by blocked factorizations)."""
        if not (0 <= i0 < i1 <= self.rows and 0 <= j0 < j1 <= self.cols):
            raise LayoutError(
                f"block [{i0}:{i1}, {j0}:{j1}] outside "
                f"{self.rows}x{self.cols}")
        sub = self.as_grid()[:, i0:i1, j0:j1, :, :]
        rows, cols = i1 - i0, j1 - j0
        # to column-major flat: (G, r, c, comp, P) -> (G, c, r, comp, P)
        buf = np.ascontiguousarray(
            sub.transpose(0, 2, 1, 3, 4)).reshape(-1).copy()
        return CompactBatch(buf, rows, cols, self.batch, self.dtype,
                            self.lanes)

    def write_block(self, i0: int, j0: int, block: "CompactBatch") -> None:
        """Write a compact sub-batch back at offset ``(i0, j0)``."""
        i1, j1 = i0 + block.rows, j0 + block.cols
        if not (0 <= i0 < i1 <= self.rows and 0 <= j0 < j1 <= self.cols):
            raise LayoutError(
                f"block [{i0}:{i1}, {j0}:{j1}] outside "
                f"{self.rows}x{self.cols}")
        if block.dtype != self.dtype or block.lanes != self.lanes \
                or block.groups != self.groups:
            raise LayoutError("block batch properties do not match target")
        self.as_grid()[:, i0:i1, j0:j1, :, :] = block.as_grid()

    def copy(self) -> "CompactBatch":
        return CompactBatch(self.buffer.copy(), self.rows, self.cols,
                            self.batch, self.dtype, self.lanes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompactBatch({self.batch}x[{self.rows}x{self.cols}] "
                f"{self.dtype.value}, P={self.lanes}, groups={self.groups})")


class StandardBatch(_Geometry):
    """A caller's standard ``(batch, rows, cols)`` array, read in place.

    :meth:`gather` answers the same compact element indices as
    :meth:`CompactBatch.gather`, byte for byte, with one ``np.take`` per
    call, so a packer copies each element of a packed operand once.  The
    array is held C-contiguous in the problem's element type: any other
    input (another memory order, negative strides, a real array for a
    complex problem) is converted by one ``np.ascontiguousarray`` first.
    """

    def __init__(self, matrices: np.ndarray, lanes: int,
                 dtype: "BlasDType | str | None" = None) -> None:
        if matrices.ndim != 3:
            raise LayoutError(
                f"expected (batch, rows, cols) array, got {matrices.ndim}-D")
        dt = BlasDType.from_any(dtype if dtype is not None else matrices.dtype)
        self.matrices = np.ascontiguousarray(matrices, dt.np_dtype)
        self.batch, self.rows, self.cols = (int(x) for x in matrices.shape)
        self.dtype = dt
        self.lanes = int(lanes)

    def gather(self, index: np.ndarray) -> np.ndarray:
        """Elements ``index`` (compact ``j * rows + i``) of every group,
        in index order, as :meth:`CompactBatch.gather` returns them.  A
        batch that is not a lane multiple gathers its last group from a
        zero-padded tail, so padding lanes read exactly 0."""
        lanes, span = self.lanes, self.rows * self.cols * self.ncomp
        offsets = _standard_offsets(index, self.rows, self.cols, self.ncomp,
                                    lanes)
        real = self.matrices.view(self.dtype.real_dtype).reshape(
            self.batch, span)
        full, rem = divmod(self.batch, lanes)
        out = np.empty((self.groups, offsets.size), real.dtype)
        # the offsets are in range by construction; "clip" writes
        # straight into ``out``, where "raise" would buffer it
        np.take(real[:full * lanes].reshape(full, lanes * span), offsets,
                axis=1, out=out[:full], mode="clip")
        if rem:
            tail = np.zeros((lanes, span), real.dtype)
            tail[:rem] = real[full * lanes:]
            np.take(tail.reshape(-1), offsets, out=out[full], mode="clip")
        return out.reshape(self.groups, index.size, self.elem_stride)


# (id(index), rows, cols, ncomp, lanes) -> (index, offsets); holding the
# index keeps its id unique while the entry lives
_OFFSETS: "dict[tuple, tuple[np.ndarray, np.ndarray]]" = {}


def _standard_offsets(index: np.ndarray, rows: int, cols: int, ncomp: int,
                      lanes: int) -> np.ndarray:
    """Per gathered real element ``(e, comp, lane)`` of a group, its
    offset in the group's ``(lanes, rows, cols, ncomp)`` block of a
    C-contiguous array: compact element ``index[e] = j * rows + i`` is
    row-major ``i * cols + j``.  Memoized per index object and shape (the
    packers' indices are themselves cached per tiling and mode)."""
    key = (id(index), rows, cols, ncomp, lanes)
    hit = _OFFSETS.get(key)
    if hit is not None:
        return hit[1]
    j, i = np.divmod(index, rows)
    offsets = ((i * cols + j)[:, None, None] * ncomp
               + np.arange(ncomp)[:, None]
               + np.arange(lanes) * (rows * cols * ncomp)).ravel()
    offsets.flags.writeable = False
    if len(_OFFSETS) >= 256:
        _OFFSETS.clear()
    _OFFSETS[key] = (index, offsets)
    return offsets


def _planes(x: np.ndarray, ncomp: int) -> np.ndarray:
    """``(..., ncomp)`` view of ``x``: its re/im planes when ``ncomp`` is
    2 (``x`` complex, any strides), else ``x`` with a unit axis."""
    if ncomp == 1:
        return x[..., None]
    re = x.real
    return np.lib.stride_tricks.as_strided(
        re, x.shape + (2,), re.strides + (re.itemsize,),
        writeable=x.flags.writeable)
