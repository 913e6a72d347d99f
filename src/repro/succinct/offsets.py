"""OffsetArrayFile: a Log(Graph)-style fixed-width flat-file codec.

Log(Graph) (PAPERS.md) shows that most of compressed-graph storage
wins come not from entropy coders but from storing offset and
adjacency arrays at their *near-optimal fixed width*: ceil(log2 k)
bits per element instead of a machine word. This codec applies the
same trick to ZipG's flat files: the record text is stored as a
bit-packed array of ``ceil(log2 sigma)``-bit symbol codes (``sigma`` =
distinct bytes present), while the record/offset directories stay in
the fixed-width arrays NodeFile/EdgeFile already keep.

The trade against Succinct (the Fig. 5/6 ablation):

* ``extract`` is a direct O(length) vectorized decode -- no NPA walks,
  no ``alpha`` latency knob, and pages fault only for the touched
  slice, so it is much faster than Succinct extraction;
* there is no suffix-array index, so ``search``/``count`` degrade to
  one vectorized O(n) scan (decode + rolling compare);
* compression is weaker: ``width/8`` of the input (~12% smaller for
  a 64-symbol alphabet) versus Succinct's sampled-array ratios.

Like :class:`~repro.succinct.succinct_file.SuccinctFile`, the
serialized form is framed sections whose arrays load as zero-copy
``np.frombuffer`` views, so mmap-backed loads are O(1).
"""

from __future__ import annotations

# zipg: hot-path

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.succinct.stats import AccessStats

SENTINEL = 0  # same exclusion as SuccinctFile: keeps codecs swappable


class OffsetArrayFile:
    """A flat file stored as a fixed-width bit-packed symbol array.

    Args:
        data: the input bytes. Must not contain the sentinel byte 0x00
            (the same contract as :class:`SuccinctFile`, so the codecs
            are interchangeable behind ``ShardEncoding``).
        alpha: accepted for interface parity with the Succinct codec;
            this codec has no sampling knob.
        stats: optional shared access meter.
    """

    #: Self-describing codec tag written into the section framing.
    encoding_name = "offsets"

    def __init__(
        self,
        data: bytes,
        alpha: int = 32,
        stats: Optional[AccessStats] = None,
    ) -> None:
        data = bytes(data)  # zipg: owned-copy
        if SENTINEL in data:
            raise ValueError("input data must not contain the sentinel byte 0x00")
        self._alpha = alpha
        self._input_size = len(data)
        self.stats = stats if stats is not None else AccessStats()
        symbols = np.frombuffer(data, dtype=np.uint8)
        self._alphabet = np.unique(symbols)
        self._width = max(1, int(self._alphabet.size - 1).bit_length())
        codes = np.searchsorted(self._alphabet, symbols).astype(np.uint16)
        self._packed = _bitpack(codes, self._width)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Length of the original input."""
        return self._input_size

    @property
    def alpha(self) -> int:
        return self._alpha

    def original_size_bytes(self) -> int:
        """Size of the uncompressed input."""
        return self._input_size

    def serialized_size_bytes(self) -> int:
        """Bytes the packed representation occupies when persisted."""
        return int(self._packed.nbytes + self._alphabet.nbytes)

    def compression_ratio(self) -> float:
        """Uncompressed size / compressed size (> 1 means smaller)."""
        compressed = self.serialized_size_bytes()
        return self._input_size / compressed if compressed else float("inf")

    # ------------------------------------------------------------------
    # Decode kernel
    # ------------------------------------------------------------------

    def _decode(self, offset: int, length: int) -> np.ndarray:
        """Bytes ``[offset, offset + length)`` as a ``uint8`` array.

        One vectorized gather over the touched packed bytes: for an
        mmap-backed file only the pages covering the slice fault in.
        """
        if length <= 0:
            return np.empty(0, dtype=np.uint8)
        bit_pos = np.arange(offset, offset + length, dtype=np.int64) * self._width
        byte_idx = bit_pos >> 3
        shift = (bit_pos & 7).astype(np.uint16)
        low = self._packed[byte_idx].astype(np.uint16)
        high = self._packed[byte_idx + 1].astype(np.uint16)
        mask = np.uint16((1 << self._width) - 1)
        codes = ((low | (high << np.uint16(8))) >> shift) & mask
        return self._alphabet[codes]

    # ------------------------------------------------------------------
    # Public queries (the ShardEncoding surface)
    # ------------------------------------------------------------------

    def _check_extract(self, offset: int, length: int) -> int:
        if length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= offset <= self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size}]")
        return min(length, self._input_size - offset)

    @obs.traced("succinct.extract", layer="succinct")
    def extract(self, offset: int, length: int) -> bytes:
        """``length`` bytes of the input starting at ``offset``."""
        length = self._check_extract(offset, length)
        self.stats.random_accesses += 1
        self.stats.sequential_bytes += length
        return self._decode(offset, length).tobytes()  # zipg: owned-copy

    @obs.traced("succinct.extract_batch", layer="succinct")
    def extract_batch(self, requests: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Per-request :meth:`extract`; decodes are already direct, so
        there is no lockstep batching to amortize."""
        # Each extract is one vectorized O(length) gather -- no
        # per-symbol NPA hops to batch.
        return [self.extract(o, n) for o, n in requests]  # zipg: ignore[HOT002]

    def char_at(self, offset: int) -> int:
        """Byte value at ``offset`` of the original input."""
        if not 0 <= offset < self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size})")
        self.stats.random_accesses += 1
        return int(self._decode(offset, 1)[0])

    def char_at_batch(self, offsets: Sequence[int]) -> np.ndarray:
        """Byte values at many offsets (aligned ``uint8`` array)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return np.empty(0, dtype=np.uint8)
        if int(offsets.min()) < 0 or int(offsets.max()) >= self._input_size:
            raise IndexError(
                f"offset out of range [0, {self._input_size}) in batch"
            )
        self.stats.random_accesses += len(offsets)
        bit_pos = offsets * self._width
        byte_idx = bit_pos >> 3
        shift = (bit_pos & 7).astype(np.uint16)
        low = self._packed[byte_idx].astype(np.uint16)
        high = self._packed[byte_idx + 1].astype(np.uint16)
        mask = np.uint16((1 << self._width) - 1)
        codes = ((low | (high << np.uint16(8))) >> shift) & mask
        return self._alphabet[codes]

    def extract_until(
        self, offset: int, terminator: int, limit: Optional[int] = None
    ) -> bytes:
        """Extract from ``offset`` up to (not including) ``terminator``.

        Decodes in growing chunks so short records never pay for a
        full-record decode.
        """
        if not 0 <= offset <= self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size}]")
        self.stats.random_accesses += 1
        remaining = self._input_size - offset
        if limit is not None:
            remaining = min(remaining, limit)
        out: List[np.ndarray] = []
        taken = 0
        chunk = 64
        while taken < remaining:
            step = min(chunk, remaining - taken)
            decoded = self._decode(offset + taken, step)
            hits = np.nonzero(decoded == terminator)[0]
            if hits.size:
                out.append(decoded[: int(hits[0])])
                taken += int(hits[0])
                break
            out.append(decoded)
            taken += step
            chunk *= 2
        result = np.concatenate(out) if out else np.empty(0, dtype=np.uint8)
        self.stats.sequential_bytes += len(result)
        return result.tobytes()  # zipg: owned-copy

    @obs.traced("succinct.count", layer="succinct")
    def count(self, pattern: bytes) -> int:
        """Number of occurrences of ``pattern`` in the input."""
        pattern = bytes(pattern)  # zipg: owned-copy
        if not pattern:
            self.stats.searches += 1
            return self._input_size + 1
        return len(self.search(pattern))

    @obs.traced("succinct.search", layer="succinct")
    def search(self, pattern: bytes) -> np.ndarray:
        """Offsets (ascending) where ``pattern`` occurs.

        Without a suffix index this is one vectorized scan: decode the
        file and roll an equality mask across it -- O(n * len(pattern))
        numpy work, the cost side of the Log(Graph)-style trade.
        """
        return self.search_batch([pattern])[0]

    @obs.traced("succinct.search_batch", layer="succinct")
    def search_batch(self, patterns: Sequence[bytes]) -> List[np.ndarray]:
        """Offsets (ascending) of every pattern, in pattern order, for a
        conjunctive search: equal to ``[search(p) for p in patterns]``
        when every pattern occurs, and all empty when one does not.

        The file is decoded once and every pattern scans that one
        decode; the first pattern that does not occur ends the scan.
        """
        patterns = [bytes(pattern) for pattern in patterns]  # zipg: owned-copy
        self.stats.searches += len(patterns)
        n = self._input_size
        decoded: Optional[np.ndarray] = None
        results: List[np.ndarray] = []
        for pattern in patterns:
            m = len(pattern)
            if m == 0:
                # Parity with SuccinctFile: the empty pattern matches every
                # row of the conceptual suffix matrix (n + 1 of them).
                results.append(np.arange(n + 1, dtype=np.int64))
                continue
            if SENTINEL in pattern:
                raise ValueError("patterns must not contain the sentinel byte 0x00")
            hits = np.empty(0, dtype=np.int64)
            if m <= n:
                if decoded is None:
                    decoded = self._decode(0, n)
                matches = np.ones(n - m + 1, dtype=bool)
                for index, char in enumerate(pattern):
                    matches &= decoded[index : n - m + 1 + index] == char
                hits = np.nonzero(matches)[0].astype(np.int64)
            if not len(hits):
                return [np.empty(0, dtype=np.int64) for _ in patterns]
            self.stats.random_accesses += len(hits)
            results.append(hits)
        return results

    def decompress(self) -> bytes:
        """Reconstruct the full original input (diagnostic helper)."""
        return self.extract(0, self._input_size)

    # ------------------------------------------------------------------
    # Binary serialization
    # ------------------------------------------------------------------

    def sections(self) -> dict:
        """Write-side sections; array payloads are zero-copy chunks."""
        from repro.succinct.serialize import FORMAT_SECTION, array_chunks, pack_ints

        return {
            FORMAT_SECTION: self.encoding_name.encode("ascii"),
            "meta": pack_ints(self._input_size, self._width),
            "alphabet": array_chunks(self._alphabet),
            "packed": array_chunks(self._packed),
        }

    def to_bytes(self) -> bytes:
        """Serialize the packed representation to one owned blob."""
        from repro.succinct.serialize import pack_sections

        return pack_sections(self.sections())

    @classmethod
    def from_sections(
        cls, sections: dict, stats: Optional[AccessStats] = None
    ) -> "OffsetArrayFile":
        """Rebuild from unpacked sections without copying: both arrays
        are ``np.frombuffer`` views over the caller-owned buffer."""
        from repro.succinct.serialize import unpack_array, unpack_ints

        input_size, width = unpack_ints(sections["meta"])
        instance = cls.__new__(cls)
        instance._alpha = 32
        instance._input_size = input_size
        instance._width = width
        instance.stats = stats if stats is not None else AccessStats()
        instance._alphabet = unpack_array(sections["alphabet"])
        instance._packed = unpack_array(sections["packed"])
        return instance

    @classmethod
    def from_bytes(
        cls, blob: bytes, stats: Optional[AccessStats] = None
    ) -> "OffsetArrayFile":
        """Reconstruct from :meth:`to_bytes` output."""
        from repro.succinct.serialize import unpack_sections

        return cls.from_sections(unpack_sections(blob), stats=stats)


def _bitpack(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack ``width``-bit codes into a ``uint8`` array.

    One trailing pad byte keeps the decode kernel's unconditional
    two-byte gather in bounds for the last symbol.
    """
    n = len(codes)
    total_bits = n * width
    packed = np.zeros((total_bits + 7) // 8 + 1, dtype=np.uint8)
    if n == 0:
        return packed
    bit_pos = np.arange(n, dtype=np.int64) * width
    byte_idx = bit_pos >> 3
    shift = (bit_pos & 7).astype(np.uint16)
    spread = codes.astype(np.uint16) << shift
    np.bitwise_or.at(packed, byte_idx, (spread & np.uint16(0xFF)).astype(np.uint8))
    np.bitwise_or.at(
        packed, byte_idx + 1, (spread >> np.uint16(8)).astype(np.uint8)
    )
    return packed
