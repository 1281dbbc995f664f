"""TRSM operand packing: mode normalization, triangle pack, B panel pack.

The pack selector maps all sixteen (side, trans, uplo, diag) mode
combinations onto ONE canonical kernel orientation — left side, lower
triangle, no transpose — so a single kernel family serves every mode
(paper Section 5.2: "It matches appropriate data packing kernels for
different modes to pack matrices into the same order, so that only one
computational kernel is needed to handle all modes").  The maps are:

* side RIGHT:  ``X op(A) = alpha B``  ==  ``op(A)^T X^T = alpha B^T`` —
  transpose B, toggle the transpose flag, solve order becomes n.
* effective upper triangle (uplo/trans combination): persymmetric flip
  — index ``(i, j) -> (d-1-i, d-1-j)`` turns upper into lower, with B's
  rows reversed on the way in and out.

The triangle pack stores blocks in solve order — for each diagonal
block ``d``: the rectangular ``L(d, e)`` panels for ``e < d`` (in the
GEMM-A streaming layout the FMLS kernel consumes) followed by block
``d``'s triangle (row-major, diagonal pre-reciprocated; the paper's
"the diagonal part is stored as its reciprocal" to avoid ARM's long
division latency inside the kernel).  It is one gather of every packed
element over a solve-order index of stored-A elements (cached per order,
blocking and mode), from a compact batch or straight from the caller's
``(batch, d, d)`` array (a :class:`~repro.layout.compact.StandardBatch`),
then the diagonal positions are reciprocated in place.  The reciprocal
is IEEE in every valid lane, so a zero diagonal solves to Inf/NaN as
substitution by it would; only zeros in the last group's padding lanes
divide by 1, keeping the padded solves finite.

The B pack produces a column-major working panel (rows flipped and/or
transposed per the normalization, scaled by alpha, columns zero-padded
to the rectangular kernel width); the solve overwrites it in place and
``unpack_trsm_b`` applies the inverse transform back into the user's
compact B.  Where that pack is an identity copy (alpha 1, no flip, no
transpose, no padded columns) the engine solves the compact B itself.
Pack arithmetic runs under ``np.errstate(all="ignore")``, as execution
does: non-finite operands give IEEE results, not warnings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import LayoutError
from ..layout.compact import CompactBatch, StandardBatch
from ..layout.padding import padded_count
from ..types import Diag, Side, Trans, TrsmProblem, UpLo
from .cost import PackCost

__all__ = ["NormalizedTrsm", "normalize_trsm_mode", "PackedTriangles",
           "pack_trsm_a", "pack_trsm_b", "unpack_trsm_b"]


@dataclass(frozen=True)
class NormalizedTrsm:
    """Canonical-orientation view of a TRSM problem."""

    d: int                  # solve order (rows of the canonical system)
    n_rhs: int              # right-hand-side columns of the canonical system
    transpose_b: bool       # B enters/leaves as its transpose (side RIGHT)
    flip: bool              # persymmetric flip (effective upper triangle)
    gather_trans: bool      # op(A) element gather reads A[j, i]
    unit: bool
    alpha: complex


def normalize_trsm_mode(problem: TrsmProblem) -> NormalizedTrsm:
    p = problem
    if p.side is Side.RIGHT:
        trans_eff = Trans.T if p.transa is Trans.N else Trans.N
        d, n_rhs, transpose_b = p.n, p.m, True
    else:
        trans_eff = p.transa
        d, n_rhs, transpose_b = p.m, p.n, False
    lower_eff = (p.uplo is UpLo.LOWER) == (trans_eff is Trans.N)
    return NormalizedTrsm(
        d=d, n_rhs=n_rhs, transpose_b=transpose_b,
        flip=not lower_eff,
        gather_trans=trans_eff is Trans.T,
        unit=p.diag is Diag.UNIT,
        alpha=complex(p.alpha),
    )


def _stored_index(norm: NormalizedTrsm, imap: np.ndarray,
                  jmap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map canonical (lower) indices to stored-A indices."""
    if norm.flip:
        imap = norm.d - 1 - imap
        jmap = norm.d - 1 - jmap
    if norm.gather_trans:
        imap, jmap = jmap, imap
    return imap, jmap


@dataclass
class PackedTriangles:
    """Packed A-side panels of a blocked TRSM, in solve order."""

    data: np.ndarray
    group_stride_bytes: int
    blocks: list[int]                          # diagonal block sizes
    tri_offsets: list[int]                     # per diagonal block
    rect_offsets: dict[tuple[int, int], int]   # (d_idx, e_idx) -> offset
    cost: PackCost


@functools.lru_cache(maxsize=256)
def _layout(d: int, flip: bool, gather_trans: bool,
            blocks: "tuple[int, ...]"):
    """The solve-order packing of one group: per packed element, the
    stored-A element it copies (a column-major ``j * d + i`` index);
    the packed positions of the diagonal; the offsets of each diagonal
    block's triangle and each ``L(d, e)`` panel, in elements; and the
    panel count.  Depends only on the mode and the blocking."""
    si_parts: "list[np.ndarray]" = []
    sj_parts: "list[np.ndarray]" = []
    diag: "list[np.ndarray]" = []
    tri_offsets: "list[int]" = []
    rect_offsets: "dict[tuple[int, int], int]" = {}
    pos = 0
    starts = np.cumsum((0,) + tuple(blocks[:-1]))
    for di, (dsz, dst) in enumerate(zip(blocks, starts)):
        rows = dst + np.arange(dsz)
        for ei in range(di):
            eb, est = blocks[ei], starts[ei]
            # GEMM-A layout: [kstep within e][row within d]
            si_parts.append(np.tile(rows, eb))
            sj_parts.append(np.repeat(est + np.arange(eb), dsz))
            rect_offsets[(di, ei)] = pos
            pos += eb * dsz
        # the diagonal triangle, row-major: (i, 0..i) for each row i
        ii, jj = np.tril_indices(dsz)
        si_parts.append(dst + ii)
        sj_parts.append(dst + jj)
        diag.append(pos + np.flatnonzero(ii == jj))
        tri_offsets.append(pos)
        pos += ii.size
    si, sj = np.concatenate(si_parts), np.concatenate(sj_parts)
    if flip:
        si, sj = d - 1 - si, d - 1 - sj
    if gather_trans:
        si, sj = sj, si
    index, diag = sj * d + si, np.concatenate(diag)
    index.flags.writeable = diag.flags.writeable = False
    return index, diag, tri_offsets, rect_offsets, len(si_parts)


def _reciprocal(diag: np.ndarray, is_complex: bool, valid: int) -> None:
    """Reciprocate an ``(G, n, ncomp, P)`` slab of diagonal elements in
    place, with IEEE semantics: a zero diagonal gives an infinity or a
    NaN, as substitution by it would.  Lanes at or past ``valid`` in the
    last group are padding; a zero (modulus) there divides by 1 instead,
    so the padded solves stay finite (their results are never
    unpacked)."""
    padded = valid < diag.shape[-1]
    if not is_complex:
        if padded:
            pad = diag[-1, :, :, valid:]
            pad[pad == 0.0] = 1.0
        np.divide(1.0, diag, out=diag)
        return
    re, im = diag[..., 0, :], diag[..., 1, :]
    denom = re * re + im * im
    if padded:
        pad = denom[-1, :, valid:]
        pad[pad == 0.0] = 1.0
    np.divide(re, denom, out=re)
    np.negative(im, out=im)
    np.divide(im, denom, out=im)


def pack_trsm_a(a: "CompactBatch | StandardBatch", norm: NormalizedTrsm,
                blocks: list[int]) -> PackedTriangles:
    """Gather the canonical lower triangle into solve-order panels: one
    gather of every packed element, then the diagonal reciprocated in
    place."""
    d = norm.d
    if (a.rows, a.cols) != (d, d):
        raise LayoutError(f"A is {a.rows}x{a.cols}, expected {d}x{d}")
    if sum(blocks) != d:
        raise LayoutError(f"blocks {blocks} do not cover order {d}")
    index, diag, tri_offsets, rect_offsets, panel_count = _layout(
        d, norm.flip, norm.gather_trans, tuple(blocks))
    G, es = a.groups, a.elem_stride
    packed = a.gather(index)
    is_c = a.dtype.is_complex
    if not norm.unit:
        grid = packed.reshape(G, index.size, a.ncomp, a.lanes)
        slab = grid[:, diag]
        with np.errstate(all="ignore"):
            _reciprocal(slab, is_c, a.batch - (G - 1) * a.lanes)
        grid[:, diag] = slab
    data = packed.reshape(-1)
    elem_bytes = es * a.dtype.real_itemsize
    nbytes = int(data.nbytes)
    divs = 0 if norm.unit else d * (2 if is_c else 1)
    cost = PackCost(bytes_read=nbytes, bytes_written=nbytes,
                    panels=panel_count * G, div_vectors=divs * G,
                    ew=a.dtype.real_itemsize)
    return PackedTriangles(
        data, index.size * elem_bytes, list(blocks),
        [o * elem_bytes for o in tri_offsets],
        {k: o * elem_bytes for k, o in rect_offsets.items()}, cost)


def _scale_planes(grid: np.ndarray, alpha: complex,
                  is_complex: bool) -> np.ndarray:
    """Multiply an (..., ncomp, P) plane slab by alpha."""
    if alpha == 1:
        return grid
    if not is_complex:
        return grid * float(alpha.real)
    ar, ai = alpha.real, alpha.imag
    out = np.empty_like(grid)
    re, im = grid[..., 0, :], grid[..., 1, :]
    out[..., 0, :] = ar * re - ai * im
    out[..., 1, :] = ar * im + ai * re
    return out


def pack_trsm_b(b: CompactBatch, norm: NormalizedTrsm,
                pad_cols_to: int = 1) -> tuple[np.ndarray, PackCost]:
    """Build the canonical column-major working panel of B.

    Returns (flat work buffer of shape [G * d * n_pad * ncomp * P],
    cost).  The solve updates it in place; :func:`unpack_trsm_b`
    inverts the transform.
    """
    if (b.rows, b.cols) != ((norm.n_rhs, norm.d) if norm.transpose_b
                            else (norm.d, norm.n_rhs)):
        raise LayoutError(
            f"B is {b.rows}x{b.cols}, inconsistent with normalized "
            f"{norm.d}x{norm.n_rhs} (transpose_b={norm.transpose_b})")
    grid = b.as_grid()                    # (G, rows, cols, ncomp, P)
    if norm.transpose_b:
        grid = grid.transpose(0, 2, 1, 3, 4)
    if norm.flip:
        grid = grid[:, ::-1, :, :, :]
    with np.errstate(all="ignore"):    # as execution: IEEE, no warnings
        grid = _scale_planes(grid, norm.alpha, b.dtype.is_complex)
    n_pad = padded_count(norm.n_rhs, pad_cols_to)
    G = b.groups
    work = np.zeros((G, n_pad, norm.d, b.ncomp, b.lanes),
                    dtype=b.dtype.real_dtype)
    # column-major: [col][row]
    work[:, :norm.n_rhs] = grid.transpose(0, 2, 1, 3, 4)
    flat = np.ascontiguousarray(work).reshape(-1)
    nbytes = int(flat.nbytes)
    cost = PackCost(bytes_read=int(b.nbytes), bytes_written=nbytes,
                    panels=G, ew=b.dtype.real_itemsize)
    return flat, cost


def unpack_trsm_b(work: np.ndarray, b: CompactBatch,
                  norm: NormalizedTrsm, pad_cols_to: int = 1) -> PackCost:
    """Write the solved panel back into the user's compact B."""
    n_pad = padded_count(norm.n_rhs, pad_cols_to)
    G = b.groups
    panel = work.reshape(G, n_pad, norm.d, b.ncomp, b.lanes)
    sol = panel[:, :norm.n_rhs].transpose(0, 2, 1, 3, 4)  # (G, d, n, ncomp, P)
    if norm.flip:
        sol = sol[:, ::-1, :, :, :]
    if norm.transpose_b:
        sol = sol.transpose(0, 2, 1, 3, 4)
    b.as_grid()[...] = sol
    nbytes = int(work.nbytes)
    return PackCost(bytes_read=nbytes, bytes_written=int(b.nbytes),
                    panels=G, ew=b.dtype.real_itemsize)
