"""SIMD-friendly compact data layout (paper Figure 3).

A *compact batch* stores the same element of P consecutive matrices
contiguously, where P fills one SIMD register (paper: "puts the same
location of consecutive P matrices in a contiguous area in memory, with
zero padding for the cases where there are not enough P matrices").
Complex matrices are stored as split re/im planes per element so complex
arithmetic decomposes into real vector FMAs.
"""

from .compact import CompactBatch, StandardBatch
from .padding import pad_to_multiple, padded_count

__all__ = ["CompactBatch", "StandardBatch", "pad_to_multiple",
           "padded_count"]
