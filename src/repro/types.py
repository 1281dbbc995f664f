"""Core value types shared by every subsystem.

This module defines the BLAS data types (s/d/c/z), the standard BLAS mode
flags (transpose, side, triangle, diagonal), and immutable problem
descriptors for compact GEMM and TRSM.  Problem descriptors validate their
arguments eagerly so that malformed inputs fail at the API boundary, not
deep inside code generation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProblemError

__all__ = [
    "BlasDType",
    "Trans",
    "Side",
    "UpLo",
    "Diag",
    "GemmProblem",
    "TrsmProblem",
    "TrmmProblem",
    "gemm_flops",
    "trsm_flops",
    "trmm_flops",
]


class BlasDType(enum.Enum):
    """The four classic BLAS scalar types.

    ``value`` is the single-letter BLAS prefix.  The enum carries the
    mapping to NumPy dtypes plus the properties kernel generation needs:
    the *real element* width in bytes (for complex types the width of one
    of the two planes) and whether the type is complex.
    """

    S = "s"
    D = "d"
    C = "c"
    Z = "z"

    @property
    def np_dtype(self) -> np.dtype:
        """NumPy dtype of user-facing matrices."""
        return {
            BlasDType.S: np.dtype(np.float32),
            BlasDType.D: np.dtype(np.float64),
            BlasDType.C: np.dtype(np.complex64),
            BlasDType.Z: np.dtype(np.complex128),
        }[self]

    @property
    def real_dtype(self) -> np.dtype:
        """NumPy dtype of one real plane (compact storage is split re/im)."""
        return {
            BlasDType.S: np.dtype(np.float32),
            BlasDType.D: np.dtype(np.float64),
            BlasDType.C: np.dtype(np.float32),
            BlasDType.Z: np.dtype(np.float64),
        }[self]

    @property
    def is_complex(self) -> bool:
        return self in (BlasDType.C, BlasDType.Z)

    @property
    def real_itemsize(self) -> int:
        """Bytes per real element (4 for s/c, 8 for d/z)."""
        return int(self.real_dtype.itemsize)

    @property
    def itemsize(self) -> int:
        """Bytes per full element as stored by the user (8 for c, 16 for z)."""
        return int(self.np_dtype.itemsize)

    @property
    def flops_per_madd(self) -> int:
        """Scalar flops in one multiply-add of this type (2 real, 8 complex)."""
        return 8 if self.is_complex else 2

    def lanes(self, vector_bytes: int) -> int:
        """Number of *matrices* interleaved per SIMD vector (the paper's P).

        One vector register holds ``vector_bytes / real_itemsize`` real
        elements; in split re/im compact storage each lane is one matrix
        regardless of complexity.
        """
        return vector_bytes // self.real_itemsize

    @classmethod
    def from_any(cls, value: "BlasDType | str | np.dtype | type") -> "BlasDType":
        """Coerce a prefix letter, NumPy dtype, or Python type to a BlasDType."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        try:
            dt = np.dtype(value)
        except TypeError as exc:  # pragma: no cover - defensive
            raise InvalidProblemError(f"cannot interpret {value!r} as a BLAS dtype") from exc
        for member in cls:
            if member.np_dtype == dt:
                return member
        raise InvalidProblemError(f"unsupported dtype {dt} (need float32/64 or complex64/128)")

    def check_operand(self, name: str, x: np.ndarray) -> None:
        """Reject an operand this dtype cannot hold without changing its
        kind: a complex operand would silently lose its imaginary part."""
        if not np.can_cast(x.dtype, self.np_dtype, "same_kind"):
            raise InvalidProblemError(
                f"{name} is {x.dtype} but the problem dtype is "
                f"{self.np_dtype}: casting it would discard values")


class Trans(enum.Enum):
    """Transpose flag: N (no transpose) or T (transpose)."""

    N = "N"
    T = "T"

    @classmethod
    def from_any(cls, value: "Trans | str | bool") -> "Trans":
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            return cls.T if value else cls.N
        if isinstance(value, str) and value.upper() in ("N", "T"):
            return cls(value.upper())
        raise InvalidProblemError(f"invalid transpose flag {value!r}")


class Side(enum.Enum):
    """TRSM side: solve ``A X = alpha B`` (LEFT) or ``X A = alpha B`` (RIGHT)."""

    LEFT = "L"
    RIGHT = "R"

    @classmethod
    def from_any(cls, value: "Side | str") -> "Side":
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.upper() in ("L", "R"):
            return cls(value.upper())
        raise InvalidProblemError(f"invalid side flag {value!r}")


class UpLo(enum.Enum):
    """Which triangle of A is referenced."""

    LOWER = "L"
    UPPER = "U"

    @classmethod
    def from_any(cls, value: "UpLo | str") -> "UpLo":
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.upper() in ("L", "U"):
            return cls(value.upper())
        raise InvalidProblemError(f"invalid uplo flag {value!r}")


class Diag(enum.Enum):
    """Whether A's diagonal is assumed to be all ones."""

    NON_UNIT = "N"
    UNIT = "U"

    @classmethod
    def from_any(cls, value: "Diag | str") -> "Diag":
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.upper() in ("N", "U"):
            return cls(value.upper())
        raise InvalidProblemError(f"invalid diag flag {value!r}")


def _check_dim(name: str, value: int, minimum: int = 1) -> int:
    if not isinstance(value, (int, np.integer)):
        raise InvalidProblemError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise InvalidProblemError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class GemmProblem:
    """Descriptor of a compact batched GEMM: ``C = alpha * op(A) op(B) + beta * C``.

    ``op(A)`` is ``m x k`` and ``op(B)`` is ``k x n`` for *every one* of the
    ``batch`` matrices (fixed-size batching, as in the paper).
    """

    m: int
    n: int
    k: int
    dtype: BlasDType
    transa: Trans = Trans.N
    transb: Trans = Trans.N
    batch: int = 1
    alpha: complex = 1.0
    beta: complex = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_dim("m", self.m))
        object.__setattr__(self, "n", _check_dim("n", self.n))
        object.__setattr__(self, "k", _check_dim("k", self.k))
        object.__setattr__(self, "batch", _check_dim("batch", self.batch))
        object.__setattr__(self, "dtype", BlasDType.from_any(self.dtype))
        object.__setattr__(self, "transa", Trans.from_any(self.transa))
        object.__setattr__(self, "transb", Trans.from_any(self.transb))
        if not self.dtype.is_complex:
            for name in ("alpha", "beta"):
                v = getattr(self, name)
                if isinstance(v, complex) and v.imag != 0.0:
                    raise InvalidProblemError(f"{name} must be real for dtype {self.dtype.value}")
                object.__setattr__(self, name, float(np.real(v)))
        else:
            object.__setattr__(self, "alpha", complex(self.alpha))
            object.__setattr__(self, "beta", complex(self.beta))

    @property
    def mode(self) -> str:
        """Two-letter mode string, e.g. ``"NN"`` or ``"TT"``."""
        return self.transa.value + self.transb.value

    @property
    def a_shape(self) -> tuple[int, int]:
        """Stored (row, col) shape of one A matrix before op()."""
        return (self.m, self.k) if self.transa is Trans.N else (self.k, self.m)

    @property
    def b_shape(self) -> tuple[int, int]:
        return (self.k, self.n) if self.transb is Trans.N else (self.n, self.k)

    @property
    def c_shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def flops(self) -> int:
        """Total scalar flops over the whole batch."""
        return gemm_flops(self.m, self.n, self.k, self.dtype, self.batch)

    def with_batch(self, batch: int) -> "GemmProblem":
        return GemmProblem(self.m, self.n, self.k, self.dtype, self.transa,
                           self.transb, batch, self.alpha, self.beta)


@dataclass(frozen=True)
class TrsmProblem:
    """Descriptor of a compact batched TRSM.

    Solves ``op(A) X = alpha B`` (side LEFT) or ``X op(A) = alpha B``
    (side RIGHT) in-place into B, for every matrix in the batch.  A is
    ``m x m`` for LEFT and ``n x n`` for RIGHT; B is ``m x n``.
    """

    m: int
    n: int
    dtype: BlasDType
    side: Side = Side.LEFT
    uplo: UpLo = UpLo.LOWER
    transa: Trans = Trans.N
    diag: Diag = Diag.NON_UNIT
    batch: int = 1
    alpha: complex = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_dim("m", self.m))
        object.__setattr__(self, "n", _check_dim("n", self.n))
        object.__setattr__(self, "batch", _check_dim("batch", self.batch))
        object.__setattr__(self, "dtype", BlasDType.from_any(self.dtype))
        object.__setattr__(self, "side", Side.from_any(self.side))
        object.__setattr__(self, "uplo", UpLo.from_any(self.uplo))
        object.__setattr__(self, "transa", Trans.from_any(self.transa))
        object.__setattr__(self, "diag", Diag.from_any(self.diag))
        if not self.dtype.is_complex:
            if isinstance(self.alpha, complex) and self.alpha.imag != 0.0:
                raise InvalidProblemError(f"alpha must be real for dtype {self.dtype.value}")
            object.__setattr__(self, "alpha", float(np.real(self.alpha)))
        else:
            object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def mode(self) -> str:
        """Four-letter mode string, e.g. ``"LNLN"`` (side, trans, uplo, diag).

        Matches the paper's naming: LNLN = Left, Non-transpose, Lower,
        Non-unit.
        """
        return (self.side.value + self.transa.value
                + self.uplo.value + self.diag.value)

    @property
    def a_dim(self) -> int:
        """Order of the triangular matrix A."""
        return self.m if self.side is Side.LEFT else self.n

    @property
    def b_shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def flops(self) -> int:
        return trsm_flops(self.m, self.n, self.dtype, self.side, self.batch)

    def with_batch(self, batch: int) -> "TrsmProblem":
        return TrsmProblem(self.m, self.n, self.dtype, self.side, self.uplo,
                           self.transa, self.diag, batch, self.alpha)


def gemm_flops(m: int, n: int, k: int,
               dtype: "BlasDType | str" = BlasDType.D, batch: int = 1) -> int:
    """Scalar flop count of a batched GEMM (the figure-of-merit denominator).

    Uses the conventional ``2 m n k`` for real types and ``8 m n k`` for
    complex types, times the batch count, matching how BLAS papers report
    GFLOPS.
    """
    dt = BlasDType.from_any(dtype)
    return dt.flops_per_madd * m * n * k * batch


def trsm_flops(m: int, n: int, dtype: "BlasDType | str" = BlasDType.D,
               side: "Side | str" = Side.LEFT, batch: int = 1) -> int:
    """Scalar flop count of a batched TRSM.

    Conventionally ``n m^2`` real flops for side LEFT and ``m n^2`` for
    side RIGHT (each multiply-add pair inside the solve counts as 2, the
    triangular structure halves the cube); complex types count 4x.
    """
    dt = BlasDType.from_any(dtype)
    sd = Side.from_any(side)
    base = n * m * m if sd is Side.LEFT else m * n * n
    scale = 4 if dt.is_complex else 1
    return scale * base * batch


@dataclass(frozen=True)
class TrmmProblem:
    """Descriptor of a compact batched TRMM (extension routine).

    Computes ``B := alpha * op(A) @ B`` (side LEFT) or
    ``B := alpha * B @ op(A)`` (side RIGHT) in place, with A triangular.
    Not part of the paper's evaluation; implemented as the future-work
    demonstration that the framework's layout, packing, and kernel
    machinery generalize to other level-3 routines.
    """

    m: int
    n: int
    dtype: BlasDType
    side: Side = Side.LEFT
    uplo: UpLo = UpLo.LOWER
    transa: Trans = Trans.N
    diag: Diag = Diag.NON_UNIT
    batch: int = 1
    alpha: complex = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_dim("m", self.m))
        object.__setattr__(self, "n", _check_dim("n", self.n))
        object.__setattr__(self, "batch", _check_dim("batch", self.batch))
        object.__setattr__(self, "dtype", BlasDType.from_any(self.dtype))
        object.__setattr__(self, "side", Side.from_any(self.side))
        object.__setattr__(self, "uplo", UpLo.from_any(self.uplo))
        object.__setattr__(self, "transa", Trans.from_any(self.transa))
        object.__setattr__(self, "diag", Diag.from_any(self.diag))
        if not self.dtype.is_complex:
            if isinstance(self.alpha, complex) and self.alpha.imag != 0.0:
                raise InvalidProblemError(
                    f"alpha must be real for dtype {self.dtype.value}")
            object.__setattr__(self, "alpha", float(np.real(self.alpha)))
        else:
            object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def mode(self) -> str:
        return (self.side.value + self.transa.value
                + self.uplo.value + self.diag.value)

    @property
    def a_dim(self) -> int:
        return self.m if self.side is Side.LEFT else self.n

    @property
    def b_shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def flops(self) -> int:
        return trmm_flops(self.m, self.n, self.dtype, self.side, self.batch)


def trmm_flops(m: int, n: int, dtype: "BlasDType | str" = BlasDType.D,
               side: "Side | str" = Side.LEFT, batch: int = 1) -> int:
    """Scalar flop count of a batched TRMM (same convention as TRSM)."""
    dt = BlasDType.from_any(dtype)
    sd = Side.from_any(side)
    base = n * m * m if sd is Side.LEFT else m * n * n
    scale = 4 if dt.is_complex else 1
    return scale * base * batch
