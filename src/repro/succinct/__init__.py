"""Succinct substrate: queries on compressed unstructured data.

This subpackage is a pure-Python reimplementation of the parts of
Succinct (Agarwal et al., NSDI 2015) that ZipG builds on:

* :class:`~repro.succinct.succinct_file.SuccinctFile` -- a flat-file
  store supporting ``extract`` (random access) and ``search`` (substring
  search) directly on a compressed representation built from a sampled
  suffix array, a sampled inverse suffix array and the next-pointer
  array (NPA).

Compression is controlled by the sampling rate ``alpha``: storage is
roughly ``2 * n * ceil(log2 n) / alpha`` bits for the two sampled arrays
plus a delta-encoded NPA, while each unsampled lookup costs ``O(alpha)``
NPA hops (the paper's space/latency knob, §3.1 of ZipG).
"""

from repro.succinct.bitvector import BitVector
from repro.succinct.coding import (
    delta_encoded_bit_size,
    elias_gamma_bit_size,
    varint_decode,
    varint_encode,
)
from repro.succinct.npa import NextPointerArray
from repro.succinct.stats import AccessStats
from repro.succinct.succinct_file import SuccinctFile
from repro.succinct.suffix_array import build_suffix_array, inverse_permutation

__all__ = [
    "AccessStats",
    "BitVector",
    "NextPointerArray",
    "SuccinctFile",
    "build_suffix_array",
    "delta_encoded_bit_size",
    "elias_gamma_bit_size",
    "inverse_permutation",
    "varint_decode",
    "varint_encode",
]
