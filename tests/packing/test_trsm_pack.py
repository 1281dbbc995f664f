"""TRSM packing tests: mode normalization, triangle pack, B round trip."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.layout import CompactBatch
from repro.packing.trsm_pack import (NormalizedTrsm, normalize_trsm_mode,
                                     pack_trsm_a, pack_trsm_b,
                                     unpack_trsm_b)
from repro.types import Diag, Side, Trans, TrsmProblem, UpLo
from tests.conftest import ALL_DTYPES, random_batch, random_triangular

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}


def canonical_lower(a_mat, norm):
    """Reference construction of the canonical lower matrix L."""
    op = a_mat.T if norm.gather_trans else a_mat
    if norm.flip:
        op = op[::-1, ::-1]
    return np.tril(op)


class TestNormalization:
    def test_lnln_is_identity(self):
        p = TrsmProblem(4, 5, "d", "L", "L", "N", "N")
        n = normalize_trsm_mode(p)
        assert (n.d, n.n_rhs) == (4, 5)
        assert not n.flip and not n.gather_trans and not n.transpose_b

    def test_upper_flips(self):
        n = normalize_trsm_mode(TrsmProblem(4, 5, "d", "L", "U", "N", "N"))
        assert n.flip and not n.gather_trans

    def test_trans_lower_flips(self):
        """op(A)=A^T with A lower is effectively upper -> flip+gather."""
        n = normalize_trsm_mode(TrsmProblem(4, 5, "d", "L", "L", "T", "N"))
        assert n.flip and n.gather_trans

    def test_trans_upper_no_flip(self):
        """LTUN: A^T of an upper matrix is lower -> no flip."""
        n = normalize_trsm_mode(TrsmProblem(4, 5, "d", "L", "U", "T", "N"))
        assert not n.flip and n.gather_trans

    def test_right_side_swaps_dims(self):
        n = normalize_trsm_mode(TrsmProblem(4, 5, "d", "R", "L", "N", "N"))
        assert (n.d, n.n_rhs) == (5, 4)
        assert n.transpose_b
        assert n.gather_trans          # trans toggled by the transpose

    def test_unit_and_alpha_carried(self):
        n = normalize_trsm_mode(TrsmProblem(3, 3, "z", diag="U",
                                            alpha=2 + 1j))
        assert n.unit and n.alpha == 2 + 1j

    @pytest.mark.parametrize("side", "LR")
    @pytest.mark.parametrize("uplo", "LU")
    @pytest.mark.parametrize("trans", "NT")
    def test_all_modes_produce_lower_solves(self, rng, side, uplo, trans):
        """Whatever the mode, the gathered matrix must be the lower
        triangle whose solve equals the original problem's."""
        p = TrsmProblem(4, 4, "d", side, uplo, trans, "N")
        norm = normalize_trsm_mode(p)
        a = random_triangular(rng, 1, p.a_dim, "d", uplo)[0]
        low = canonical_lower(a, norm)
        # lower triangular with nonzero diagonal
        assert np.allclose(low, np.tril(low))
        assert np.all(np.abs(np.diag(low)) > 0.1)


class TestPackTrsmA:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_single_block_triangle(self, rng, dtype):
        d = 3
        a = random_triangular(rng, LANES[dtype], d, dtype)
        cb = CompactBatch.from_matrices(a, LANES[dtype])
        norm = normalize_trsm_mode(TrsmProblem(d, 2, dtype))
        packed = pack_trsm_a(cb, norm, [d])
        esz = cb.dtype.real_itemsize
        data = packed.data.reshape(cb.groups, -1)
        # triangle order: (0,0) (1,0) (1,1) (2,0) (2,1) (2,2), recip diag
        tri = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        for t, (i, j) in enumerate(tri):
            val = data[0, t * cb.elem_stride]
            want = a[0, i, j]
            if i == j:
                want = 1.0 / want
            assert val == pytest.approx(want.real, rel=1e-5)

    def test_unit_diag_not_reciprocated(self, rng):
        d = 3
        a = random_triangular(rng, 2, d, "d")
        cb = CompactBatch.from_matrices(a, 2)
        p = TrsmProblem(d, 2, "d", diag="U")
        packed = pack_trsm_a(cb, normalize_trsm_mode(p), [d])
        data = packed.data.reshape(cb.groups, -1)
        assert data[0, 0] == a[0, 0, 0]      # untouched
        assert packed.cost.div_vectors == 0

    def test_blocked_offsets_and_content(self, rng):
        d = 7
        blocks = [4, 3]
        a = random_triangular(rng, 2, d, "d")
        cb = CompactBatch.from_matrices(a, 2)
        packed = pack_trsm_a(cb, normalize_trsm_mode(TrsmProblem(d, 4, "d")),
                             blocks)
        assert packed.blocks == blocks
        assert list(packed.rect_offsets) == [(1, 0)]
        # the L(1,0) block is rows 4..6 x cols 0..3 in [k][i] order
        esz = 8
        start = packed.rect_offsets[(1, 0)] // esz
        data = packed.data.reshape(cb.groups, -1)
        val = data[0, start]                       # k=0, i=0 -> A[4, 0]
        assert val == a[0, 4, 0]
        val = data[0, start + cb.elem_stride]      # k=0, i=1 -> A[5, 0]
        assert val == a[0, 5, 0]

    def test_flip_gather(self, rng):
        """Upper mode: packed element (i, j) must be A[d-1-i, d-1-j]."""
        d = 3
        a = random_triangular(rng, 2, d, "d", uplo="U")
        cb = CompactBatch.from_matrices(a, 2)
        norm = normalize_trsm_mode(TrsmProblem(d, 2, "d", uplo="U"))
        packed = pack_trsm_a(cb, norm, [d])
        data = packed.data.reshape(cb.groups, -1)
        # first packed element is canonical (0,0) -> stored (2,2), recip
        assert data[0, 0] == pytest.approx(1.0 / a[0, 2, 2], rel=1e-6)
        # canonical (1,0) -> stored (1,2)
        assert data[0, cb.elem_stride] == pytest.approx(a[0, 1, 2],
                                                        rel=1e-6)

    def test_zero_padding_lane_diag_safe(self, rng):
        """Padding lanes have zero diagonals; the reciprocal must not
        produce inf (their solves are garbage but finite)."""
        a = random_triangular(rng, 3, 2, "d")    # batch 3, lanes 2 -> pad
        cb = CompactBatch.from_matrices(a, 2)
        packed = pack_trsm_a(cb, normalize_trsm_mode(TrsmProblem(2, 2, "d")),
                             [2])
        assert np.all(np.isfinite(packed.data))


class TestPackB:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_roundtrip_identity_mode(self, rng, dtype):
        b = random_batch(rng, 5, 4, 3, dtype)
        cb = CompactBatch.from_matrices(b, LANES[dtype])
        norm = normalize_trsm_mode(TrsmProblem(4, 3, dtype))
        work, _ = pack_trsm_b(cb, norm, pad_cols_to=1)
        out = CompactBatch.from_matrices(np.zeros_like(b), LANES[dtype])
        unpack_trsm_b(work, out, norm, pad_cols_to=1)
        assert np.allclose(out.to_matrices(), b, atol=1e-6)

    @pytest.mark.parametrize("side,uplo,trans", [
        ("L", "U", "N"), ("L", "L", "T"), ("R", "L", "N"), ("R", "U", "T"),
    ])
    def test_roundtrip_with_transforms(self, rng, side, uplo, trans):
        m, n = 4, 6
        b = random_batch(rng, 3, m, n, "d")
        cb = CompactBatch.from_matrices(b, 2)
        norm = normalize_trsm_mode(
            TrsmProblem(m, n, "d", side, uplo, trans, "N"))
        work, _ = pack_trsm_b(cb, norm, pad_cols_to=4)
        out = CompactBatch.from_matrices(np.zeros_like(b), 2)
        unpack_trsm_b(work, out, norm, pad_cols_to=4)
        assert np.allclose(out.to_matrices(), b, atol=1e-12)

    def test_alpha_scaling(self, rng):
        b = random_batch(rng, 2, 3, 3, "d")
        cb = CompactBatch.from_matrices(b, 2)
        p = TrsmProblem(3, 3, "d", alpha=2.5)
        work, _ = pack_trsm_b(cb, normalize_trsm_mode(p), 1)
        panel = work.reshape(cb.groups, 3, 3, 1, 2)
        assert panel[0, 0, 0, 0, 0] == pytest.approx(2.5 * b[0, 0, 0])

    def test_complex_alpha_scaling(self, rng):
        b = random_batch(rng, 4, 2, 2, "z")
        cb = CompactBatch.from_matrices(b, 2)
        p = TrsmProblem(2, 2, "z", alpha=1 + 2j)
        work, _ = pack_trsm_b(cb, normalize_trsm_mode(p), 1)
        panel = work.reshape(cb.groups, 2, 2, 2, 2)
        want = (1 + 2j) * b[0, 0, 0]
        assert panel[0, 0, 0, 0, 0] == pytest.approx(want.real, rel=1e-5)
        assert panel[0, 0, 0, 1, 0] == pytest.approx(want.imag, rel=1e-5)

    def test_column_padding(self, rng):
        b = random_batch(rng, 2, 3, 5, "d")
        cb = CompactBatch.from_matrices(b, 2)
        norm = normalize_trsm_mode(TrsmProblem(3, 5, "d"))
        work, _ = pack_trsm_b(cb, norm, pad_cols_to=4)
        panel = work.reshape(cb.groups, 8, 3, 1, 2)
        assert panel.shape[1] == 8
        assert not panel[:, 5:].any()


# sha256 of pack_trsm_a's packed bytes and layout over every mode, dtype,
# order and batch below; computed before the pack became one gather, and
# unchanged by it
PACK_A_DIGEST = ("b00fdefe28c1b2c36c2f7f7f97255b0b"
                 "e8c711e12ea9bcd7c134b476d8922ac5")
SPECIALS = np.array([np.nan, -0.0, np.inf, -np.inf])
NP_DTYPES = {"s": np.float32, "d": np.float64, "c": np.complex64,
             "z": np.complex128}


def _special_triangle(seed, batch, d, dtype):
    """NaN, -0.0 and +-Inf off the diagonal (in both triangles), and a
    diagonal at least 0.5 away from zero."""
    rng = np.random.default_rng(seed)

    def planes():
        x = rng.standard_normal((batch, d, d))
        hit = rng.random((batch, d, d)) < 0.15
        x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
        return x
    x = planes()
    if dtype in "cz":
        z = np.empty((batch, d, d), np.complex128)
        z.real, z.imag = x, planes()
        x = z
    diag = rng.standard_normal((batch, d))
    diag = np.copysign(0.5 + np.abs(diag), diag)
    if dtype in "cz":
        diag = diag + 1j * rng.standard_normal((batch, d))
    idx = np.arange(d)
    x[:, idx, idx] = diag
    return x.astype(NP_DTYPES[dtype])


def test_pack_a_golden_digest():
    from repro.codegen.tiling import decompose_dim
    h = hashlib.sha256()
    seed = 0
    for mode in itertools.product("LR", "LU", "NT", "NU"):
        for dt in "sdcz":
            for d in (1, 3, 4, 5, 8, 13, 17, 33):
                for batch in (1, LANES[dt] + 1):
                    p = TrsmProblem(d, d, dt, *mode, batch=batch)
                    a = CompactBatch.from_matrices(
                        _special_triangle(seed, batch, d, dt), LANES[dt])
                    packed = pack_trsm_a(
                        a, normalize_trsm_mode(p),
                        decompose_dim(d, 3 if dt in "cz" else 4))
                    h.update(packed.data.tobytes())
                    h.update(repr((
                        packed.group_stride_bytes, packed.blocks,
                        packed.tri_offsets,
                        sorted(packed.rect_offsets.items()), packed.cost,
                        str(packed.data.dtype),
                        packed.data.shape)).encode())
                    seed += 1
    assert seed == 1024
    assert h.hexdigest() == PACK_A_DIGEST
