"""GEMM operand packing (paper Figure 6: N-shaped A, Z-shaped B).

The computing kernel consumes, per k-step, ``mc`` consecutive vectors of
A (one per row of the current row tile) followed by ``nc`` vectors of B
(one per column of the current column tile).  Packing therefore writes,
per tile, panels in ``[k][within-tile]`` order — which is the N shape
for A (walk down a column block, then right) and the Z shape for B
(walk across a row, then down).  Transposed operands are normalized
here, so every compute kernel sees the same order regardless of mode.

Each pack is one ``np.take`` over an element index cached per tiling
and mode: every packed element of every group is copied once, with no
per-panel or per-matrix loops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import LayoutError
from ..layout.compact import CompactBatch
from ..types import Trans
from .cost import PackCost

__all__ = ["PackedOperand", "pack_gemm_a", "pack_gemm_b"]


@dataclass
class PackedOperand:
    """A packed (or no-pack aliased) operand ready for kernel consumption.

    ``data`` is the flat real buffer when ``packed``; for the no-packing
    fast path ``data`` is None and the engine addresses the original
    compact buffer using the same offsets.
    """

    packed: bool
    data: np.ndarray | None
    group_stride_bytes: int
    tile_offsets: list[int]        # byte offset of each tile panel in a group
    tile_sizes: list[int]
    cost: PackCost

    @property
    def num_tiles(self) -> int:
        return len(self.tile_sizes)


@functools.lru_cache(maxsize=256)
def _panel_index(tiles: "tuple[int, ...]", k: int, step_l: int,
                 step_w: int) -> np.ndarray:
    """Per packed element, tile by tile in ``[l][within-tile]`` order,
    the compact (column-major) element it copies: element ``(l, w)`` of
    the tile starting at ``start`` is ``l * step_l + (start + w) *
    step_w``."""
    parts, start = [], 0
    for size in tiles:
        parts.append((np.arange(k)[:, None] * step_l
                      + (start + np.arange(size))[None, :] * step_w).ravel())
        start += size
    index = np.concatenate(parts)
    index.flags.writeable = False
    return index


def _pack(x: CompactBatch, tiles: "list[int]", k: int, step_l: int,
          step_w: int) -> PackedOperand:
    """One ``np.take`` of every packed element of every group."""
    index = _panel_index(tuple(tiles), k, step_l, step_w)
    es = x.elem_stride
    data = np.take(x.buffer.reshape(x.groups, x.rows * x.cols, es), index,
                   axis=1).reshape(-1)
    esz = x.dtype.real_itemsize
    offsets = [start * k * es * esz for start in _starts(tiles)]
    nbytes = int(data.nbytes)
    cost = PackCost(bytes_read=nbytes, bytes_written=nbytes,
                    panels=len(tiles) * x.groups, ew=esz)
    return PackedOperand(True, data, index.size * es * esz, offsets,
                         list(tiles), cost)


def pack_gemm_a(a: CompactBatch, transa: Trans, k: int,
                m_tiles: list[int]) -> PackedOperand:
    """Pack op(A) into N-shaped row-tile panels.

    ``a`` stores the pre-op matrix; its shape must be (m, k) for N or
    (k, m) for T, where m = sum(m_tiles).
    """
    m = sum(m_tiles)
    expect = (m, k) if transa is Trans.N else (k, m)
    if (a.rows, a.cols) != expect:
        raise LayoutError(
            f"A is {a.rows}x{a.cols}, expected {expect} for trans={transa.value}")
    # op(A)(i, l) is stored at (i, l) for N, at (l, i) for T
    return _pack(a, m_tiles, k, *((m, 1) if transa is Trans.N else (1, k)))


def pack_gemm_b(b: CompactBatch, transb: Trans, k: int,
                n_tiles: list[int]) -> PackedOperand:
    """Pack op(B) into Z-shaped column-tile panels (``[l][j]`` order)."""
    n = sum(n_tiles)
    expect = (k, n) if transb is Trans.N else (n, k)
    if (b.rows, b.cols) != expect:
        raise LayoutError(
            f"B is {b.rows}x{b.cols}, expected {expect} for trans={transb.value}")
    # op(B)(l, j) is stored at (l, j) for N, at (j, l) for T
    return _pack(b, n_tiles, k, *((1, k) if transb is Trans.N else (n, 1)))


def _starts(tiles: list[int]) -> list[int]:
    out, pos = [], 0
    for t in tiles:
        out.append(pos)
        pos += t
    return out
