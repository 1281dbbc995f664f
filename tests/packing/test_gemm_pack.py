"""GEMM packing tests: panel order, offsets, no-pack analysis, costs."""

import hashlib

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.layout import CompactBatch
from repro.packing.gemm_pack import pack_gemm_a, pack_gemm_b
from repro.packing.nopack import gemm_a_nopack, gemm_b_nopack
from repro.types import Trans
from tests.conftest import ALL_DTYPES, random_batch

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}


def panel_elements(packed, cb, tile_idx, tile_size, k):
    """Slice one tile panel back out as (G, k, tile, ncomp, P)."""
    esz = cb.dtype.real_itemsize
    start = packed.tile_offsets[tile_idx] // esz
    per_group = packed.group_stride_bytes // esz
    data = packed.data.reshape(cb.groups, per_group)
    n = tile_size * k * cb.elem_stride
    return data[:, start:start + n].reshape(cb.groups, k, tile_size,
                                            cb.ncomp, cb.lanes)


class TestPackA:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_nn_stream_order(self, rng, dtype):
        """Packed A panel is [k][i] per tile: the kernel's load order."""
        m, k = 7, 5
        a = random_batch(rng, LANES[dtype], m, k, dtype)
        cb = CompactBatch.from_matrices(a, LANES[dtype])
        packed = pack_gemm_a(cb, Trans.N, k, [4, 3])
        panel = panel_elements(packed, cb, 0, 4, k)
        for l in range(k):
            for i in range(4):
                got = panel[0, l, i, 0, 0]
                assert got == pytest.approx(a[0, i, l].real, abs=1e-6)
        panel2 = panel_elements(packed, cb, 1, 3, k)
        assert panel2[0, 0, 0, 0, 0] == pytest.approx(a[0, 4, 0].real,
                                                      abs=1e-6)

    def test_transposed_gather(self, rng):
        """trans=T: stored (k, m); panel still comes out [l][i] of op(A)."""
        m, k = 3, 4
        a_stored = random_batch(rng, 2, k, m, "d")
        cb = CompactBatch.from_matrices(a_stored, 2)
        packed = pack_gemm_a(cb, Trans.T, k, [3])
        panel = panel_elements(packed, cb, 0, 3, k)
        op_a = a_stored.transpose(0, 2, 1)
        for l in range(k):
            for i in range(m):
                assert panel[0, l, i, 0, 0] == op_a[0, i, l]

    def test_complex_planes(self, rng):
        a = random_batch(rng, 4, 3, 2, "c")
        cb = CompactBatch.from_matrices(a, 4)
        packed = pack_gemm_a(cb, Trans.N, 2, [3])
        panel = panel_elements(packed, cb, 0, 3, 2)
        assert panel[0, 1, 2, 0, 0] == pytest.approx(a[0, 2, 1].real,
                                                     abs=1e-6)
        assert panel[0, 1, 2, 1, 0] == pytest.approx(a[0, 2, 1].imag,
                                                     abs=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 3, 4, "d"), 2)
        with pytest.raises(LayoutError):
            pack_gemm_a(cb, Trans.N, 5, [3])
        with pytest.raises(LayoutError):
            pack_gemm_a(cb, Trans.T, 4, [3])   # T expects (k, m) = (4, 3)

    def test_cost_accounting(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 4, 6, 5, "d"), 2)
        packed = pack_gemm_a(cb, Trans.N, 5, [4, 2])
        assert packed.cost.bytes_written == packed.data.nbytes
        assert packed.cost.bytes_read == packed.data.nbytes
        assert packed.cost.panels == 2 * cb.groups


class TestPackB:
    def test_nn_z_shape(self, rng):
        """NN-mode B panel is [l][j]: across the row tile, then down K."""
        k, n = 4, 6
        b = random_batch(rng, 2, k, n, "d")
        cb = CompactBatch.from_matrices(b, 2)
        packed = pack_gemm_b(cb, Trans.N, k, [4, 2])
        panel = panel_elements(packed, cb, 0, 4, k)
        for l in range(k):
            for j in range(4):
                assert panel[0, l, j, 0, 0] == b[0, l, j]
        panel2 = panel_elements(packed, cb, 1, 2, k)
        assert panel2[0, 2, 1, 0, 0] == b[0, 2, 5]

    def test_transposed_gather(self, rng):
        k, n = 3, 4
        b_stored = random_batch(rng, 2, n, k, "d")
        cb = CompactBatch.from_matrices(b_stored, 2)
        packed = pack_gemm_b(cb, Trans.T, k, [4])
        panel = panel_elements(packed, cb, 0, 4, k)
        op_b = b_stored.transpose(0, 2, 1)
        for l in range(k):
            for j in range(n):
                assert panel[0, l, j, 0, 0] == op_b[0, l, j]

    def test_shape_mismatch_rejected(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 3, 4, "d"), 2)
        with pytest.raises(LayoutError):
            pack_gemm_b(cb, Trans.N, 4, [4])


class TestNoPack:
    def test_a_nopack_conditions(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 4, 5, "d"), 2)
        # N + single tile: eligible
        alias = gemm_a_nopack(cb, Trans.N, [4])
        assert alias is not None and not alias.packed
        assert alias.cost.is_free
        assert alias.group_stride_bytes == cb.group_stride_bytes
        # transposed: never
        assert gemm_a_nopack(cb, Trans.T, [4]) is None
        # multiple tiles: never
        assert gemm_a_nopack(cb, Trans.N, [4, 4]) is None

    def test_b_nopack_conditions(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 4, 5, "d"), 2)
        assert gemm_b_nopack(cb, Trans.T, [4]) is not None
        assert gemm_b_nopack(cb, Trans.N, [4]) is None
        assert gemm_b_nopack(cb, Trans.T, [2, 2]) is None

    def test_nopack_layout_equals_packed_layout(self, rng):
        """The no-pack fast path is only legal because the compact layout
        *is* the packed layout when M fits one tile; verify bytewise."""
        m, k = 4, 6
        a = random_batch(rng, 2, m, k, "d")
        cb = CompactBatch.from_matrices(a, 2)
        packed = pack_gemm_a(cb, Trans.N, k, [m])
        assert np.array_equal(packed.data, cb.buffer)


class TestFlattenFastPath:
    """The one-gather pack must stay byte-identical to the naive
    per-panel copy-then-concatenate reference (the pack layout is a pure
    permutation, so any divergence is a corruption, not a rounding
    question)."""

    @staticmethod
    def _reference(cb, trans, k, tiles):
        grid = cb.as_grid()                  # (G, rows, cols, ncomp, P)
        panels, start = [], 0
        for size in tiles:
            if trans is Trans.N:
                panel = grid[:, start:start + size].transpose(0, 2, 1, 3, 4)
            else:
                panel = grid[:, :, start:start + size]
            panels.append(np.ascontiguousarray(panel).reshape(cb.groups, -1))
            start += size
        return np.concatenate(panels, axis=1).reshape(-1)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("trans", [Trans.N, Trans.T])
    def test_matches_reference(self, rng, dtype, trans):
        lanes = {"s": 4, "d": 2, "c": 4, "z": 2}[dtype]
        m, k, tiles = 12, 7, [4, 4, 4]
        shape = (m, k) if trans is Trans.N else (k, m)
        a = random_batch(rng, 3 * lanes, *shape, dtype)
        cb = CompactBatch.from_matrices(a, lanes)
        fast = pack_gemm_a(cb, trans, k, tiles)
        ref = self._reference(cb, trans, k, tiles)
        assert fast.data.tobytes() == ref.tobytes()
        assert fast.data.dtype == ref.dtype


# sha256 of pack_gemm_a/pack_gemm_b's packed bytes and layout over the
# dtypes, shapes, modes and batches below (NaN operands included);
# computed before the packs became one gather, and unchanged by it
PACK_DIGEST = ("f3244d1ffc8b0b445729b055a0b1ac03"
               "528219a42ce134a84853854cad50435f")


def test_pack_golden_digest():
    from repro.codegen.tiling import decompose_dim
    np_dtypes = {"s": np.float32, "d": np.float64, "c": np.complex64,
                 "z": np.complex128}
    lanes_of = {"s": 4, "d": 2, "c": 4, "z": 2}
    h = hashlib.sha256()
    n = 0
    for dt in "sdcz":
        lanes = lanes_of[dt]
        for m in (1, 2, 3, 4, 5, 7, 8, 12, 13, 33):
            for k in (1, 3, 8, 17):
                for tr in (Trans.N, Trans.T):
                    for batch in (1, lanes + 1, 3 * lanes):
                        rng = np.random.default_rng(n)
                        shape = (m, k) if tr is Trans.N else (k, m)
                        x = rng.standard_normal((batch, *shape))
                        if dt in "cz":
                            x = x + 1j * rng.standard_normal((batch, *shape))
                        x[rng.random(x.shape) < 0.1] = np.nan
                        cb = CompactBatch.from_matrices(
                            x.astype(np_dtypes[dt]), lanes)
                        tiles = decompose_dim(m, 4)
                        pa = pack_gemm_a(cb, tr, k, tiles)
                        shape_b = (k, m) if tr is Trans.N else (m, k)
                        cbb = CompactBatch.from_matrices(
                            rng.standard_normal((batch, *shape_b)).astype(
                                np_dtypes[dt]), lanes)
                        pb = pack_gemm_b(cbb, tr, k, tiles)
                        for p in (pa, pb):
                            h.update(p.data.tobytes())
                            h.update(repr((
                                p.packed, p.group_stride_bytes,
                                p.tile_offsets, p.tile_sizes, p.cost,
                                str(p.data.dtype), p.data.shape)).encode())
                        n += 1
    assert n == 960
    assert h.hexdigest() == PACK_DIGEST
