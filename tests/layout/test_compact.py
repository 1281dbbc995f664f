"""Compact-layout tests: round trips, geometry, padding, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.layout import CompactBatch, pad_to_multiple, padded_count
from tests.conftest import ALL_DTYPES, NP_DTYPES, random_batch


LANES = {"s": 4, "d": 2, "c": 4, "z": 2}


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_exact_batch(self, rng, dtype):
        a = random_batch(rng, 8, 3, 5, dtype)
        cb = CompactBatch.from_matrices(a, LANES[dtype])
        assert np.allclose(cb.to_matrices(), a, atol=1e-6)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_padded_batch(self, rng, dtype):
        a = random_batch(rng, 7, 4, 4, dtype)
        cb = CompactBatch.from_matrices(a, LANES[dtype])
        back = cb.to_matrices()
        assert back.shape == (7, 4, 4)
        assert np.allclose(back, a, atol=1e-6)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_single_matrix(self, rng, dtype):
        a = random_batch(rng, 1, 2, 3, dtype)
        cb = CompactBatch.from_matrices(a, LANES[dtype])
        assert np.allclose(cb.matrix(0), a[0], atol=1e-6)

    def test_padding_lanes_are_zero(self, rng):
        a = random_batch(rng, 3, 2, 2, "d")
        cb = CompactBatch.from_matrices(a, 2)
        grid = cb.as_grid()
        assert np.all(grid[1, :, :, :, 1] == 0)   # lane 3 is padding


class TestGeometry:
    def test_column_major_contiguity(self, rng):
        """Elements down a column are adjacent — the property the
        no-packing fast paths rely on."""
        a = random_batch(rng, 4, 5, 3, "d")
        cb = CompactBatch.from_matrices(a, 2)
        assert (cb.element_offset(1, 0) - cb.element_offset(0, 0)
                == cb.elem_stride_bytes)
        assert (cb.element_offset(0, 1) - cb.element_offset(0, 0)
                == cb.col_stride_bytes)
        assert cb.col_stride_bytes == 5 * cb.elem_stride_bytes

    def test_complex_planes_adjacent(self, rng):
        """re plane then im plane per element: an LDP fetches both."""
        a = random_batch(rng, 4, 3, 3, "c")
        cb = CompactBatch.from_matrices(a, 4)
        assert (cb.element_offset(0, 0, comp=1)
                - cb.element_offset(0, 0, comp=0)
                == cb.lanes * cb.dtype.real_itemsize)

    def test_buffer_values_at_offsets(self, rng):
        a = random_batch(rng, 2, 3, 4, "d")
        cb = CompactBatch.from_matrices(a, 2)
        isz = 8
        for i in range(3):
            for j in range(4):
                off = cb.element_offset(i, j)
                assert cb.buffer[off // isz] == a[0, i, j]
                assert cb.buffer[off // isz + 1] == a[1, i, j]

    def test_group_strides_and_offsets(self, rng):
        a = random_batch(rng, 6, 2, 2, "d")
        cb = CompactBatch.from_matrices(a, 2)
        assert cb.groups == 3
        offs = cb.group_base_offsets()
        assert list(offs) == [0, cb.group_stride_bytes,
                              2 * cb.group_stride_bytes]
        assert cb.nbytes == 3 * cb.group_stride_bytes

    def test_zeros_constructor(self):
        cb = CompactBatch.zeros(3, 4, 5, "z", 2)
        assert cb.groups == 3
        assert not cb.buffer.any()
        assert cb.to_matrices().shape == (5, 3, 4)


class TestErrors:
    def test_wrong_buffer_size(self):
        with pytest.raises(LayoutError):
            CompactBatch(np.zeros(7, dtype=np.float64), 2, 2, 2,
                         dtype="d", lanes=2)

    def test_wrong_buffer_dtype(self):
        with pytest.raises(LayoutError):
            CompactBatch(np.zeros(8, dtype=np.float32), 2, 2, 2,
                         dtype="d", lanes=2)

    def test_from_matrices_needs_3d(self):
        with pytest.raises(LayoutError):
            CompactBatch.from_matrices(np.zeros((2, 2)), 2)

    def test_element_offset_bounds(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 2, 2, "d"), 2)
        with pytest.raises(LayoutError):
            cb.element_offset(2, 0)
        with pytest.raises(LayoutError):
            cb.element_offset(0, 0, comp=1)   # real has one plane

    def test_matrix_index_bounds(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 3, 2, 2, "d"), 2)
        with pytest.raises(LayoutError):
            cb.matrix(3)

    def test_copy_is_independent(self, rng):
        cb = CompactBatch.from_matrices(random_batch(rng, 2, 2, 2, "d"), 2)
        cp = cb.copy()
        cp.buffer[:] = 0
        assert cb.buffer.any()


class TestPaddingHelpers:
    def test_padded_count(self):
        assert padded_count(0, 4) == 0
        assert padded_count(1, 4) == 4
        assert padded_count(4, 4) == 4
        assert padded_count(5, 4) == 8

    def test_padded_count_errors(self):
        with pytest.raises(ValueError):
            padded_count(-1, 4)
        with pytest.raises(ValueError):
            padded_count(4, 0)

    def test_pad_to_multiple_no_copy_when_aligned(self):
        a = np.ones((4, 4))
        assert pad_to_multiple(a, 0, 4) is a

    def test_pad_to_multiple_pads_zeros(self):
        a = np.ones((3, 2))
        p = pad_to_multiple(a, 0, 4)
        assert p.shape == (4, 2)
        assert np.all(p[3] == 0)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 12), rows=st.integers(1, 9),
       cols=st.integers(1, 9),
       dtype=st.sampled_from(ALL_DTYPES),
       seed=st.integers(0, 2**16))
def test_property_roundtrip(batch, rows, cols, dtype, seed):
    """Interleave/de-interleave is the identity for any shape and dtype."""
    rng = np.random.default_rng(seed)
    a = random_batch(rng, batch, rows, cols, dtype)
    cb = CompactBatch.from_matrices(a, LANES[dtype])
    assert np.array_equal(cb.to_matrices(), a)


# -- single-copy conversion vs the textbook formulas --------------------------

def _formula_from(matrices, lanes):
    """Zero-fill the padded batch, copy in, stack re/im, transpose."""
    batch, rows, cols = matrices.shape
    groups = padded_count(batch, lanes) // lanes
    padded = np.zeros((groups * lanes, rows, cols), dtype=matrices.dtype)
    padded[:batch] = matrices
    grouped = padded.reshape(groups, lanes, rows, cols)
    if matrices.dtype.kind == "c":
        planes = np.stack([grouped.real, grouped.imag], axis=2)
        return np.ascontiguousarray(planes.transpose(0, 4, 3, 2, 1))
    return np.ascontiguousarray(grouped.transpose(0, 3, 2, 1))


def _formula_to(cb):
    """``re + 1j * im`` over the grid, cast back, trimmed."""
    grid = cb.as_grid()
    if cb.dtype.is_complex:
        planes = grid.transpose(0, 4, 3, 1, 2)
        full = (planes[:, :, 0] + 1j * planes[:, :, 1]).astype(
            cb.dtype.np_dtype)
    else:
        full = grid[:, :, :, 0, :].transpose(0, 3, 1, 2)
    return full.reshape(-1, cb.rows, cb.cols)[:cb.batch]


def _layouts(a):
    """C-ordered, Fortran-ordered, transposed and strided inputs."""
    wide = np.zeros(a.shape[:2] + (2 * a.shape[2],), dtype=a.dtype)
    wide[:, :, ::2] = a
    return {"C": a, "F": np.asfortranarray(a),
            "T": np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(
                0, 2, 1),
            "strided": wide[:, :, ::2]}


BATCHES = {"1": lambda p: 1, "P-1": lambda p: p - 1, "P": lambda p: p,
           "P+1": lambda p: p + 1, "2P+1": lambda p: 2 * p + 1}


@pytest.mark.parametrize("dtype", ALL_DTYPES)
@pytest.mark.parametrize("batch_of", BATCHES)
def test_conversion_matches_the_formulas(rng, dtype, batch_of):
    """Every input memory order interleaves to the bytes the
    zero-fill/stack/transpose formula gives, and de-interleaves to the
    bytes ``re + 1j * im`` gives."""
    lanes = LANES[dtype]
    batch = BATCHES[batch_of](lanes)
    a = random_batch(rng, batch, 5, 3, dtype)
    want = _formula_from(a, lanes).reshape(-1)
    for name, x in _layouts(a).items():
        assert np.array_equal(x, a)
        cb = CompactBatch.from_matrices(x, lanes)
        assert cb.buffer.tobytes() == want.tobytes(), name
        out = cb.to_matrices()
        assert out.flags.c_contiguous and out.dtype == a.dtype
        assert out.tobytes() == _formula_to(cb).tobytes(), name
        assert out.tobytes() == a.tobytes(), name
