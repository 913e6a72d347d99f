"""Rank/select bit vector.

A compact bitmap with O(1) amortized ``rank1`` via per-block popcount
prefix sums, used by :class:`~repro.succinct.succinct_file.SuccinctFile`
to mark sampled suffix-array rows and by ZipG's deletion bitmaps.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

_BLOCK_BITS = 64


class BitVector:
    """Fixed-length mutable bit vector with rank and select support.

    Bits are stored packed in a ``uint64`` numpy array. Rank structures
    are built lazily and invalidated on mutation, so the vector can be
    used both as a static rank/select directory (sampled-row marks) and
    as a mutable bitmap (lazy deletes).

    The scalar queries (``v[i]``, :meth:`rank1`) run on plain-int
    mirrors of the blocks and of the rank directory, built on first use:
    one list index and a shift instead of several numpy scalar
    operations per call.

    Deletion bitmaps are written while other threads query them, so
    writes and the lazy builds take one lock: a build never copies the
    blocks while a write is half applied, and every query works on the
    directory it built or found.
    """

    def __init__(self, num_bits: int) -> None:
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        self._num_bits = num_bits
        num_blocks = (num_bits + _BLOCK_BITS - 1) // _BLOCK_BITS
        self._bits = np.zeros(num_blocks, dtype=np.uint64)
        self._lock = threading.Lock()
        self._rank_prefix: np.ndarray | None = None
        self._word_list_cache: list | None = None
        self._rank_list_cache: list | None = None

    @classmethod
    def from_blocks(
        cls, num_bits: int, blocks: np.ndarray, copy: bool = True
    ) -> "BitVector":
        """Rebuild a vector from its packed ``uint64`` block array
        (deserialization path).

        With ``copy=False`` the vector adopts ``blocks`` as-is -- for
        the zero-copy mmap load path, where the blocks are a read-only
        ``np.frombuffer`` view and the vector is never mutated (sampled
        row marks). Mutable bitmaps (lazy deletes) must keep the
        default owned copy.
        """
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        blocks = np.asarray(blocks, dtype=np.uint64)
        expected = (num_bits + _BLOCK_BITS - 1) // _BLOCK_BITS
        if blocks.shape != (expected,):
            raise ValueError("block array does not match num_bits")
        # Bypass __init__: allocating-and-discarding a zeroed block
        # array would make every mmap-backed load O(n).
        vec = cls.__new__(cls)
        vec._num_bits = num_bits
        vec._bits = blocks.copy() if copy else blocks  # zipg: owned-copy
        vec._lock = threading.Lock()
        vec._rank_prefix = None
        vec._word_list_cache = None
        vec._rank_list_cache = None
        return vec

    @property
    def blocks(self) -> np.ndarray:
        """The packed ``uint64`` bit blocks (an owned copy)."""
        return self._bits.copy()  # zipg: owned-copy

    def blocks_for_write(self) -> np.ndarray:
        """The internal block array, *not* copied.

        Write-side zero-copy serialization only -- callers must treat
        the result as read-only.
        """
        return self._bits

    @classmethod
    def from_indices(cls, num_bits: int, indices: Iterable[int]) -> "BitVector":
        """Build a vector of ``num_bits`` bits with ``indices`` set."""
        vec = cls(num_bits)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            if indices.min() < 0 or indices.max() >= num_bits:
                raise IndexError("bit index out of range")
            blocks = indices // _BLOCK_BITS
            offsets = (indices % _BLOCK_BITS).astype(np.uint64)
            np.bitwise_or.at(vec._bits, blocks, np.uint64(1) << offsets)
        return vec

    def __len__(self) -> int:
        return self._num_bits

    def _check(self, index: int) -> None:
        if not 0 <= index < self._num_bits:
            raise IndexError(f"bit index {index} out of range [0, {self._num_bits})")

    @property
    def word_list(self) -> list:
        """The blocks as a list of plain ints (bit ``i`` is bit
        ``i % 64`` of word ``i // 64``), built on first use and kept
        in step by :meth:`set`/:meth:`clear`. Read-only for callers."""
        words = self._word_list_cache
        if words is None:
            with self._lock:
                words = self._word_list_cache
                if words is None:
                    words = self._word_list_cache = self._bits.tolist()
        return words

    def _rank_list(self) -> list:
        """Plain-int mirror of the rank directory; dropped by every
        write."""
        ranks = self._rank_list_cache
        if ranks is None:
            with self._lock:
                ranks = self._rank_list_cache
                if ranks is None:
                    ranks = self._rank_list_cache = self._rank_prefix_locked().tolist()
        return ranks

    def __getitem__(self, index: int) -> bool:
        self._check(index)
        return bool(self.word_list[index >> 6] >> (index & 63) & 1)

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1."""
        self._check(index)
        block, offset = divmod(index, _BLOCK_BITS)
        with self._lock:
            self._bits[block] |= np.uint64(1) << np.uint64(offset)
            self._after_write_locked(block)

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0."""
        self._check(index)
        block, offset = divmod(index, _BLOCK_BITS)
        with self._lock:
            self._bits[block] &= ~(np.uint64(1) << np.uint64(offset))
            self._after_write_locked(block)

    def _after_write_locked(self, block: int) -> None:
        """Keep the word mirror in step with ``block``; drop both rank
        directories."""
        if self._word_list_cache is not None:
            self._word_list_cache[block] = int(self._bits[block])
        self._rank_prefix = None
        self._rank_list_cache = None

    def _ensure_rank(self) -> np.ndarray:
        """The rank directory (set bits before each block), built on
        first use; callers index the array returned, which a later write
        cannot take away from them."""
        prefix = self._rank_prefix
        if prefix is None:
            with self._lock:
                prefix = self._rank_prefix_locked()
        return prefix

    def _rank_prefix_locked(self) -> np.ndarray:
        prefix = self._rank_prefix
        if prefix is None:
            counts = _popcount64(self._bits)
            prefix = self._rank_prefix = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))
            )
        return prefix

    def count(self) -> int:
        """Total number of set bits."""
        return int(self._ensure_rank()[-1])

    def rank1(self, index: int) -> int:
        """Number of set bits in ``[0, index)``."""
        if not 0 <= index <= self._num_bits:
            raise IndexError(f"rank index {index} out of range [0, {self._num_bits}]")
        if index == 0:
            return 0
        block, offset = divmod(index, _BLOCK_BITS)
        total = self._rank_list()[block]
        if offset:
            total += bin(self.word_list[block] & ((1 << offset) - 1)).count("1")
        return total

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized ``__getitem__``: boolean array of bit values.

        No bounds checking beyond numpy's own; callers pass indices
        they already know are in range (query-kernel hot path).
        """
        indices = np.asarray(indices, dtype=np.int64)
        blocks = self._bits[indices // _BLOCK_BITS]
        offsets = (indices % _BLOCK_BITS).astype(np.uint64)
        return ((blocks >> offsets) & np.uint64(1)).astype(bool)

    def rank1_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an index array."""
        indices = np.asarray(indices, dtype=np.int64)
        prefix = self._ensure_rank()
        block = indices // _BLOCK_BITS
        offset = (indices % _BLOCK_BITS).astype(np.uint64)
        totals = prefix[block]
        mask = (np.uint64(1) << offset) - np.uint64(1)
        partial = _popcount64(self._bits[block] & mask)
        return totals + partial.astype(np.int64)

    def rank0(self, index: int) -> int:
        """Number of zero bits in ``[0, index)``."""
        return index - self.rank1(index)

    def select1(self, rank: int) -> int:
        """Index of the ``rank``-th (0-based) set bit."""
        prefix = self._ensure_rank()
        total = int(prefix[-1])
        if not 0 <= rank < total:
            raise IndexError(f"select rank {rank} out of range [0, {total})")
        # Binary search over block prefix sums, then scan within the block.
        block = int(np.searchsorted(prefix, rank + 1, side="left")) - 1
        remaining = rank - int(prefix[block])
        word = int(self._bits[block])
        for offset in range(_BLOCK_BITS):
            if (word >> offset) & 1:
                if remaining == 0:
                    return block * _BLOCK_BITS + offset
                remaining -= 1
        raise AssertionError("select1 internal inconsistency")

    def set_indices(self) -> np.ndarray:
        """Indices of all set bits, ascending."""
        out = []
        for block_index, word in enumerate(self._bits):
            word = int(word)
            base = block_index * _BLOCK_BITS
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return np.asarray(out, dtype=np.int64)

    def serialized_size_bytes(self) -> int:
        """Bytes needed to persist the raw bitmap (no rank directory)."""
        return self._bits.nbytes


def _popcount64(blocks: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount."""
    x = blocks.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)
