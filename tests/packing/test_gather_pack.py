"""Packing straight from the caller's array (``StandardBatch``).

A packed operand is gathered into its panels from the caller's
``(batch, rows, cols)`` array with no compact intermediate.  The packed
bytes must be exactly those of packing the interleaved batch: the golden
digests below are the compact-source digests, unchanged.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro import IATF
from repro.codegen.tiling import decompose_dim
from repro.errors import PlanError
from repro.layout import CompactBatch, StandardBatch
from repro.packing.gemm_pack import pack_gemm_a, pack_gemm_b
from repro.packing.trsm_pack import normalize_trsm_mode, pack_trsm_a
from repro.reference.naive_blas import gemm_reference, trsm_reference
from repro.types import GemmProblem, Trans, TrsmProblem
from tests.conftest import ALL_DTYPES, NP_DTYPES, random_batch, tolerance
from tests.packing.test_gemm_pack import PACK_DIGEST
from tests.packing.test_trsm_pack import PACK_A_DIGEST, _special_triangle

LANES = {"s": 4, "d": 2, "c": 4, "z": 2}
SPECIALS = np.array([np.nan, -0.0, np.inf, -np.inf])


def test_gemm_pack_digest_from_callers_array():
    """``test_pack_golden_digest``'s loop, each operand packed from the
    caller's array: the same digest."""
    h = hashlib.sha256()
    n = 0
    for dt in "sdcz":
        lanes = LANES[dt]
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
                        sa = StandardBatch(x.astype(NP_DTYPES[dt]), lanes)
                        tiles = decompose_dim(m, 4)
                        pa = pack_gemm_a(sa, tr, k, tiles)
                        shape_b = (k, m) if tr is Trans.N else (m, k)
                        sb = StandardBatch(
                            rng.standard_normal((batch, *shape_b)).astype(
                                NP_DTYPES[dt]), lanes)
                        pb = pack_gemm_b(sb, tr, k, tiles)
                        for p in (pa, pb):
                            h.update(p.data.tobytes())
                            h.update(repr((
                                p.packed, p.group_stride_bytes,
                                p.tile_offsets, p.tile_sizes, p.cost,
                                str(p.data.dtype), p.data.shape)).encode())
                        n += 1
    assert n == 960
    assert h.hexdigest() == PACK_DIGEST


def test_trsm_pack_digest_from_callers_array():
    """``test_pack_a_golden_digest``'s loop, each triangle packed from
    the caller's array: the same digest."""
    h = hashlib.sha256()
    seed = 0
    for mode in itertools.product("LR", "LU", "NT", "NU"):
        for dt in "sdcz":
            for d in (1, 3, 4, 5, 8, 13, 17, 33):
                for batch in (1, LANES[dt] + 1):
                    p = TrsmProblem(d, d, dt, *mode, batch=batch)
                    a = StandardBatch(_special_triangle(seed, batch, d, dt),
                                      LANES[dt])
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


def _specials(rng, shape, dtype):
    """A random batch with NaN, -0.0 and +-Inf in about a fifth of its
    elements (in both planes of a complex batch)."""
    x = random_batch(rng, shape[0], shape[1], shape[2], dtype)
    planes = x.view(x.real.dtype)
    hit = rng.random(planes.shape) < 0.2
    planes[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


def _forms(x, dtype):
    """The caller's array as given, and in the forms the gather converts
    first: Fortran order, negative strides, read-only, and (complex
    dtypes) real data."""
    yield "c-order", x
    yield "fortran", np.asfortranarray(x)
    yield "negative-stride", np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]
    ro = x.copy()
    ro.flags.writeable = False
    yield "read-only", ro
    if dtype in "cz":
        yield "real-into-complex", x.real.copy()


def _grid(data, source):
    """Packed data as ``(groups, elements, ncomp, lanes)``."""
    return data.reshape(source.groups, -1, source.ncomp, source.lanes)


@pytest.mark.parametrize("dtype", ALL_DTYPES)
@pytest.mark.parametrize("trans", [Trans.N, Trans.T])
def test_gemm_gather_matches_compact_pack(rng, dtype, trans):
    """Ragged batches and every input form pack the bytes the compact
    source packs; the last group's padding lanes are exactly 0."""
    lanes = LANES[dtype]
    m, k, tiles = 7, 5, [4, 3]
    shape = (m, k) if trans is Trans.N else (k, m)
    for batch in sorted({1, lanes - 1, lanes + 1}):
        x = _specials(rng, (batch, *shape), dtype)
        for name, form in _forms(x, dtype):
            want = pack_gemm_a(CompactBatch.from_matrices(form, lanes, dtype),
                               trans, k, tiles)
            src = StandardBatch(form, lanes, dtype)
            got = pack_gemm_a(src, trans, k, tiles)
            assert got.data.tobytes() == want.data.tobytes(), name
            assert (got.group_stride_bytes, got.tile_offsets, got.cost) == \
                (want.group_stride_bytes, want.tile_offsets, want.cost)
            rem = batch % lanes
            if rem:
                pad = _grid(got.data, src)[-1, ..., rem:]
                assert not pad.any() and not np.signbit(pad).any(), name
            want_b = pack_gemm_b(CompactBatch.from_matrices(
                form.transpose(0, 2, 1), lanes, dtype), trans, k, tiles)
            got_b = pack_gemm_b(StandardBatch(form.transpose(0, 2, 1), lanes,
                                              dtype), trans, k, tiles)
            assert got_b.data.tobytes() == want_b.data.tobytes(), name


@pytest.mark.parametrize("dtype", ALL_DTYPES)
def test_trsm_gather_matches_compact_pack(rng, dtype):
    """As for GEMM, through the triangle pack: the padding lanes are 0
    off the diagonal, and their diagonals reciprocate as zeros would
    under ``_reciprocal``'s padding rule (1 for real, 0 for complex)."""
    lanes, d = LANES[dtype], 6
    p = TrsmProblem(d, 3, dtype, "L", "U", "T", "N", batch=1)
    norm = normalize_trsm_mode(p)
    blocks = decompose_dim(d, 3 if dtype in "cz" else 4)
    for batch in sorted({1, lanes - 1, lanes + 1}):
        x = _specials(rng, (batch, d, d), dtype)
        idx = np.arange(d)
        x[:, idx, idx] = 2.0            # a finite, nonzero diagonal
        for name, form in _forms(x, dtype):
            want = pack_trsm_a(CompactBatch.from_matrices(form, lanes, dtype),
                               norm, blocks)
            src = StandardBatch(form, lanes, dtype)
            got = pack_trsm_a(src, norm, blocks)
            assert got.data.tobytes() == want.data.tobytes(), name
            rem = batch % lanes
            if not rem:
                continue
            pad = _grid(got.data, src)[-1, ..., rem:]
            elem_bytes = src.elem_stride * src.dtype.real_itemsize
            diag = np.zeros(pad.shape[0], bool)
            for offset, size in zip(got.tri_offsets, blocks):
                ii, jj = np.tril_indices(size)
                diag[offset // elem_bytes + np.flatnonzero(ii == jj)] = True
            assert not pad[~diag].any(), name
            if dtype in "cz":
                assert not pad[diag].any(), name
            else:
                assert np.all(pad[diag] == 1.0), name


# -- through IATF ---------------------------------------------------------

def _spy_interleave(monkeypatch) -> list:
    """Record every array ``CompactBatch.from_matrices`` interleaves."""
    seen: list = []
    orig = CompactBatch.from_matrices

    def spy(cls, matrices, *args, **kwargs):
        seen.append(matrices)
        return orig(matrices, *args, **kwargs)

    monkeypatch.setattr(CompactBatch, "from_matrices", classmethod(spy))
    return seen


def _operands(problem, rng):
    b, dt = problem.batch, problem.dtype.value
    if isinstance(problem, GemmProblem):
        return (random_batch(rng, b, *problem.a_shape, dt),
                random_batch(rng, b, *problem.b_shape, dt),
                random_batch(rng, b, *problem.c_shape, dt))
    d = problem.a_dim
    a = np.tril(random_batch(rng, b, d, d, dt)) + d * np.eye(d)
    return (a.astype(NP_DTYPES[dt]),
            random_batch(rng, b, *problem.b_shape, dt))


@pytest.mark.parametrize("problem,interleaved", [
    (GemmProblem(8, 8, 8, "s", batch=16384), "C"),          # packs A, B
    (GemmProblem(3, 3, 3, "s", batch=16384), "AC"),         # A no-pack
    (TrsmProblem(16, 16, "s", batch=4096), "B"),            # B in place
], ids=["sgemm8", "sgemm3", "strsm16"])
def test_packed_operands_are_never_interleaved(monkeypatch, problem,
                                               interleaved):
    """Only the operands the kernels read in place are interleaved; a
    packed operand goes straight from the caller's array to its panels,
    and the result is unchanged."""
    ops = _operands(problem, np.random.default_rng(3))
    iatf = IATF()
    seen = _spy_interleave(monkeypatch)
    if isinstance(problem, GemmProblem):
        out = iatf.gemm(*ops)
        want = gemm_reference(problem, *ops)
    else:
        out = iatf.trsm(*ops)
        want = trsm_reference(problem, *ops)
    names = "".join(n for x in seen for n, op in zip("ABC", ops) if x is op)
    assert names == interleaved and len(seen) == len(interleaved)
    assert np.allclose(out, want, rtol=tolerance("s"), atol=tolerance("s"))


@pytest.mark.parametrize("dtype", ["s", "z"])
@pytest.mark.parametrize("mode", ["NN", "TT"])
@pytest.mark.parametrize("n", [3, 8])
def test_aliased_gemm_matches_interpret(rng, dtype, mode, n):
    """``gemm(x, y, x)``: A is gathered from the array C is interleaved
    from; the result is bit-identical to ``interpret`` and matches the
    reference."""
    x = random_batch(rng, 5, n, n, dtype)
    y = random_batch(rng, 5, n, n, dtype)
    kw = dict(alpha=0.5, beta=-1.0, transa=mode[0], transb=mode[1])
    got = IATF().gemm(x, y, x, **kw)
    ref = IATF(backend="interpret").gemm(x, y, x, **kw)
    assert got.tobytes() == ref.tobytes()
    p = GemmProblem(n, n, n, dtype, mode[0], mode[1], 5, 0.5, -1.0)
    assert np.allclose(got, gemm_reference(p, x, y, x),
                       rtol=tolerance(dtype), atol=tolerance(dtype))
    assert np.array_equal(IATF().gemm(x, x, x, **kw),
                          IATF(backend="interpret").gemm(x, x, x, **kw))


@pytest.mark.parametrize("dtype", ["d", "c"])
def test_aliased_trsm_matches_interpret(rng, dtype):
    """``trsm(x, x)``: the triangle is gathered from the array B is
    interleaved from."""
    d = 5
    x = (np.tril(random_batch(rng, 3, d, d, dtype))
         + d * np.eye(d)).astype(NP_DTYPES[dtype])
    got = IATF().trsm(x, x, alpha=2.0)
    ref = IATF(backend="interpret").trsm(x, x, alpha=2.0)
    assert got.tobytes() == ref.tobytes()
    p = TrsmProblem(d, d, dtype, batch=3, alpha=2.0)
    assert np.allclose(got, trsm_reference(p, x, x),
                       rtol=tolerance(dtype), atol=tolerance(dtype))


def test_standard_batch_for_an_operand_read_in_place_is_rejected(rng):
    """The engine reads a no-pack operand's buffer in place, so it must
    be compact."""
    p = GemmProblem(3, 3, 3, "d", batch=2)
    iatf = IATF()
    plan = iatf.plan_gemm(p)
    assert "packA" not in plan.buffers
    a, b, c = (random_batch(rng, 2, 3, 3, "d") for _ in range(3))
    with pytest.raises(PlanError, match="must be compact"):
        iatf.engine.execute_gemm(plan, StandardBatch(a, 2),
                                 CompactBatch.from_matrices(b, 2),
                                 CompactBatch.from_matrices(c, 2))
