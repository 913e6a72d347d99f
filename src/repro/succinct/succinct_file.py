"""SuccinctFile: random access and substring search on compressed data.

This is the flat-file interface of Succinct (§3.1 of the ZipG paper).
The input text is *not* stored. What is kept is:

* a sampled suffix array (rows whose SA value is a multiple of
  ``alpha``), with a rank bitmap marking sampled rows;
* a sampled inverse suffix array (ISA of every ``alpha``-th text
  position);
* the next-pointer array (NPA) with its character-bucket directory.

``extract`` reconstructs arbitrary substrings by walking the NPA from a
sampled ISA entry; ``search`` runs backward search by binary-searching
the NPA within character buckets and resolves matching rows to text
offsets through the sampled SA. Both therefore run *directly on the
compressed representation*. The sampling rate ``alpha`` is the
space/latency knob: storage for the sampled arrays shrinks as
``1/alpha`` while each unsampled lookup costs up to ``alpha`` NPA hops.
"""

from __future__ import annotations

# zipg: hot-path

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.succinct.bitvector import BitVector
from repro.succinct.npa import NextPointerArray
from repro.succinct.stats import AccessStats
from repro.succinct.suffix_array import build_suffix_array, inverse_permutation

SENTINEL = 0  # terminal byte appended to every file; may not occur in input

# Up to this many bytes the plain Python loop over the list/bytes
# mirrors beats the numpy kernel's fixed setup cost (~8 us), so
# ``extract`` and a small ``extract_batch`` decode scalar. Measured
# crossover on a 256 KiB TAO-property corpus at alpha 32 (2-vCPU x86):
# scalar 6.5 us vs batched 7.9 us at 48 bytes, 8.5 vs 8.0 at 64.
_SCALAR_EXTRACT_CUTOFF = 56

# Same trade-off for ``search``: resolving only a handful of matching
# rows is cheaper with per-row scalar walks than one batched kernel
# (same corpus: 29 vs 38 us at 8 rows, 47 vs 39 us at 12).
_SCALAR_SEARCH_CUTOFF = 10


class SuccinctFile:
    """A compressed flat file supporting ``extract`` and ``search``.

    Args:
        data: the input bytes. Must not contain the sentinel byte 0x00.
        alpha: sampling rate for the SA/ISA samples (>= 1). Matches the
            paper's ``alpha``: storage ~ ``2 n ceil(log n) / alpha``
            bits for the samples, lookup latency ~ ``alpha`` hops.
        stats: optional shared :class:`AccessStats` to accumulate into
            (shards owned by one server share a single meter).
    """

    def __init__(self, data: bytes, alpha: int = 32,
                 stats: Optional[AccessStats] = None) -> None:
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        data = bytes(data)  # zipg: owned-copy
        if SENTINEL in data:
            raise ValueError("input data must not contain the sentinel byte 0x00")
        self._alpha = alpha
        self._input_size = len(data)
        self.stats = stats if stats is not None else AccessStats()

        text = data + bytes([SENTINEL])
        n = len(text)
        self._n = n
        suffix_array = build_suffix_array(text)
        isa = inverse_permutation(suffix_array)
        self._npa = NextPointerArray.from_text(text, suffix_array, isa)

        # Value-based SA sampling: keep rows whose SA value % alpha == 0.
        sampled_rows = np.nonzero(suffix_array % alpha == 0)[0]
        self._sampled_row_marks = BitVector.from_indices(n, sampled_rows)
        self._sa_samples = suffix_array[sampled_rows].copy()
        # Position-based ISA sampling: ISA of text positions 0, alpha, 2*alpha...
        self._isa_samples = isa[np.arange(0, n, alpha)].copy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Length of the original input (excluding the sentinel)."""
        return self._input_size

    @property
    def alpha(self) -> int:
        return self._alpha

    def original_size_bytes(self) -> int:
        """Size of the uncompressed input."""
        return self._input_size

    def serialized_size_bytes(self) -> int:
        """Bytes the compressed representation occupies when persisted."""
        if self._n == 0:
            return 0
        value_bits = max(1, (self._n - 1).bit_length())
        sample_bytes = (
            (len(self._sa_samples) + len(self._isa_samples)) * value_bits + 7
        ) // 8
        return (
            sample_bytes
            + self._sampled_row_marks.serialized_size_bytes()
            + self._npa.serialized_size_bytes()
        )

    def compression_ratio(self) -> float:
        """Uncompressed size / compressed size (> 1 means smaller)."""
        compressed = self.serialized_size_bytes()
        return self._input_size / compressed if compressed else float("inf")

    # ------------------------------------------------------------------
    # Core lookups
    # ------------------------------------------------------------------

    # zipg: scalar-ok  (the scalar primitive the batched kernels amortize)
    def _lookup_sa(self, row: int) -> int:
        """SA value of ``row`` via NPA walk to the nearest sampled row.

        Runs on the plain-int mirrors (mark words, NPA list): each hop
        is one list index and one bit test on a Python int.
        """
        marks = self._sampled_row_marks
        words = marks.word_list
        npa_list = self._npa._npa_list
        steps = 0
        current = row
        while not words[current >> 6] >> (current & 63) & 1:
            current = npa_list[current]
            steps += 1
        self.stats.npa_hops += steps
        value = int(self._sa_samples[marks.rank1(current)])
        return (value - steps) % self._n

    # zipg: scalar-ok  (at most alpha hops to the sampled anchor)
    def _lookup_isa(self, position: int) -> int:
        """Row whose suffix starts at text ``position``."""
        anchor, remainder = divmod(position, self._alpha)
        row = int(self._isa_samples[anchor])
        npa_list = self._npa._npa_list
        for _ in range(remainder):
            row = npa_list[row]
        self.stats.npa_hops += remainder
        return row

    def _lookup_sa_batch(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_lookup_sa`: SA values for many rows.

        All rows advance in lockstep; a row drops out of the active set
        as soon as it reaches a sampled row. At most ``alpha`` rounds
        (value-based sampling guarantees a sampled row within ``alpha``
        hops), each a numpy gather over the still-active rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        marks = self._sampled_row_marks
        # Expand every row to its next `alpha` NPA successors at once
        # (value-based sampling guarantees a sampled row within alpha
        # hops), then pick each row's first sampled successor.
        matrix = self._npa.expand_rows(rows, self._alpha)
        sampled = marks.get_many(matrix.ravel()).reshape(matrix.shape)
        steps = np.argmax(sampled, axis=0)
        landed = matrix[steps, np.arange(len(rows))]
        ranks = marks.rank1_many(landed)
        values = self._sa_samples[ranks]
        hops = int(steps.sum())
        self.stats.npa_hops += hops
        self.stats.npa_batched_hops += hops
        self.stats.batch_kernel_calls += 1
        return (values - steps) % self._n

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------

    @obs.traced("succinct.extract", layer="succinct")
    def extract(self, offset: int, length: int) -> bytes:
        """Return ``length`` bytes of the original input starting at ``offset``.

        Runs on the compressed representation. Long extracts use the
        vectorized kernel: every ``alpha``-strided sampled-ISA anchor
        covering the range is gathered at once and all anchors walk the
        NPA in lockstep, so the Python-level loop runs ``alpha`` times
        regardless of ``length`` instead of once per byte.
        """
        length = self._check_extract(offset, length)
        self.stats.random_accesses += 1
        self.stats.sequential_bytes += length
        if length == 0:
            return b""
        if length <= _SCALAR_EXTRACT_CUTOFF:
            return self._extract_scalar_body(offset, length)
        return self._extract_batched_body(offset, length)

    def extract_scalar(self, offset: int, length: int) -> bytes:
        """Reference scalar ``extract`` (one Python-level NPA hop per
        byte). Kept for kernel-parity tests and as the micro-benchmark
        baseline; byte-identical to :meth:`extract`."""
        length = self._check_extract(offset, length)
        self.stats.random_accesses += 1
        self.stats.sequential_bytes += length
        if length == 0:
            return b""
        return self._extract_scalar_body(offset, length)

    def _check_extract(self, offset: int, length: int) -> int:
        if length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= offset <= self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size}]")
        return min(length, self._input_size - offset)

    # zipg: scalar-ok  (the reference body behind the scalar cutoff)
    def _extract_scalar_body(self, offset: int, length: int) -> bytes:
        row = self._lookup_isa(offset)
        # Hot path: bind the plain mirrors locally; each byte is then
        # two list/bytes indexes and no call.
        npa_list = self._npa._npa_list
        row_chars = self._npa.row_char_bytes
        out = bytearray(length)
        for index in range(length):
            out[index] = row_chars[row]
            row = npa_list[row]
        self.stats.npa_hops += length
        return bytes(out)  # zipg: owned-copy

    def _anchor_span(self, offset: int, length: int):
        """Anchor range covering ``[offset, offset + length)`` and the
        lockstep depth it needs: ``(first_anchor, last_anchor, head,
        steps)`` where ``head`` is the offset of the first wanted byte
        inside the first anchor's segment."""
        alpha = self._alpha
        first_anchor, head = divmod(offset, alpha)
        last_anchor = (offset + length - 1) // alpha
        steps = head + length if last_anchor == first_anchor else alpha
        return first_anchor, last_anchor, head, steps

    def _extract_batched_body(self, offset: int, length: int) -> bytes:
        first_anchor, last_anchor, head, steps = self._anchor_span(offset, length)
        rows = self._isa_samples[first_anchor : last_anchor + 1]
        chars = self._npa.walk_collect(rows, steps)
        hops = len(rows) * (steps - 1)
        self.stats.npa_hops += hops
        self.stats.npa_batched_hops += hops
        self.stats.batch_kernel_calls += 1
        # With more than one anchor ``steps == alpha``, so the flattened
        # matrix is the contiguous text from the first anchor position.
        return chars.ravel()[head : head + length].tobytes()  # zipg: owned-copy

    @obs.traced("succinct.extract_batch", layer="succinct")
    def extract_batch(self, requests: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Extract many ``(offset, length)`` substrings in one lockstep
        NPA walk.

        All anchor rows of all requests advance together, so the
        Python-level loop depth stays ``alpha`` no matter how many
        substrings are decoded -- the batch analogue of amortized batch
        decoding in compressed-graph kernels. Returns the substrings in
        request order; byte-identical to per-request :meth:`extract`.
        When the whole batch is below the extract cutoff the requests
        decode scalar instead.
        """
        clean = []
        for offset, length in requests:
            clean.append((offset, self._check_extract(offset, length)))
        self.stats.random_accesses += len(clean)
        total = sum(length for _, length in clean)
        self.stats.sequential_bytes += total
        if total <= _SCALAR_EXTRACT_CUTOFF:
            return [
                self._extract_scalar_body(offset, length) if length else b""
                for offset, length in clean
            ]
        if len(clean) == 1:
            # One request is a plain extract: skip the batch's row
            # concatenation and per-request split.
            return [self._extract_batched_body(*clean[0])]
        results: List[bytes] = [b""] * len(clean)
        segments = []
        spans = []  # (result slot, anchor offset in the big row array, head, length)
        cursor = 0
        steps = 1
        for index, (offset, length) in enumerate(clean):
            if length == 0:
                continue
            first_anchor, last_anchor, head, need = self._anchor_span(offset, length)
            segment = self._isa_samples[first_anchor : last_anchor + 1]
            segments.append(segment)
            spans.append((index, cursor, len(segment), head, length))
            cursor += len(segment)
            steps = max(steps, need)
        if not spans:
            return results
        rows = np.concatenate(segments)
        chars = self._npa.walk_collect(rows, steps)
        hops = len(rows) * (steps - 1)
        self.stats.npa_hops += hops
        self.stats.npa_batched_hops += hops
        self.stats.batch_kernel_calls += 1
        for index, start, count, head, length in spans:
            # Multi-anchor requests force steps == alpha, making each
            # request's flattened block contiguous text; single-anchor
            # requests only read their first row.
            block = chars[start : start + count]
            results[index] = block.ravel()[head : head + length].tobytes()  # zipg: owned-copy
        return results

    def char_at_batch(self, offsets: Sequence[int]) -> np.ndarray:
        """Byte values at many offsets (vectorized :meth:`char_at`).

        Returns a ``uint8`` array aligned with ``offsets``.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return np.empty(0, dtype=np.uint8)
        if int(offsets.min()) < 0 or int(offsets.max()) >= self._input_size:
            raise IndexError(
                f"offset out of range [0, {self._input_size}) in batch"
            )
        self.stats.random_accesses += len(offsets)
        anchors, remainders = np.divmod(offsets, self._alpha)
        rows = self._npa.walk_varying(self._isa_samples[anchors], remainders)
        hops = int(remainders.sum())
        self.stats.npa_hops += hops
        self.stats.npa_batched_hops += hops
        self.stats.batch_kernel_calls += 1
        return self._npa.chars_of_rows(rows)

    def char_at(self, offset: int) -> int:
        """Byte value at ``offset`` of the original input."""
        if not 0 <= offset < self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size})")
        self.stats.random_accesses += 1
        return self._npa.char_of_row(self._lookup_isa(offset))

    # zipg: scalar-ok  (terminator position unknown: inherently sequential)
    def extract_until(self, offset: int, terminator: int, limit: Optional[int] = None) -> bytes:
        """Extract from ``offset`` up to (not including) ``terminator``.

        Stops at end-of-file if the terminator never occurs. ``limit``
        bounds the number of bytes examined.
        """
        if not 0 <= offset <= self._input_size:
            raise IndexError(f"offset {offset} out of range [0, {self._input_size}]")
        self.stats.random_accesses += 1
        remaining = self._input_size - offset
        if limit is not None:
            remaining = min(remaining, limit)
        if remaining <= 0:
            return b""
        row = self._lookup_isa(offset)
        # Same hot-path local binding as the scalar extract body: one
        # attribute lookup per byte otherwise dominates.
        npa_list = self._npa._npa_list
        row_chars = self._npa.row_char_bytes
        out = bytearray()
        append = out.append
        for _ in range(remaining):
            char = row_chars[row]
            if char == terminator:
                break
            append(char)
            row = npa_list[row]
        self.stats.npa_hops += len(out)
        self.stats.sequential_bytes += len(out)
        return bytes(out)  # zipg: owned-copy

    def _pattern_row_range(self, pattern: bytes) -> tuple:
        """Row range ``[low, high)`` of suffixes prefixed by ``pattern``."""
        if not pattern:
            return (0, self._n)
        if SENTINEL in pattern:
            raise ValueError("patterns must not contain the sentinel byte 0x00")
        low, high = self._npa.bucket_range(pattern[-1])
        for char in reversed(pattern[:-1]):
            if low >= high:
                return (0, 0)
            low, high = self._npa.refine_backward(char, low, high)
        return (low, high)

    @obs.traced("succinct.count", layer="succinct")
    def count(self, pattern: bytes) -> int:
        """Number of occurrences of ``pattern`` in the input."""
        self.stats.searches += 1
        low, high = self._pattern_row_range(bytes(pattern))  # zipg: owned-copy
        return high - low

    @obs.traced("succinct.search", layer="succinct")
    def search(self, pattern: bytes) -> np.ndarray:
        """Offsets (ascending) where ``pattern`` occurs in the input.

        The whole matching row range ``[low, high)`` is resolved to SA
        values in one batched lockstep walk instead of a per-row
        ``_lookup_sa`` loop.
        """
        pattern = bytes(pattern)  # zipg: owned-copy
        self.stats.searches += 1
        low, high = self._pattern_row_range(pattern)
        count = high - low
        self.stats.random_accesses += count
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if count <= _SCALAR_SEARCH_CUTOFF:
            # Tiny result sets: kernel setup costs more than it saves.
            offsets = sorted(self._lookup_sa(row) for row in range(low, high))  # zipg: ignore[HOT001]
            return np.asarray(offsets, dtype=np.int64)
        offsets = self._lookup_sa_batch(np.arange(low, high, dtype=np.int64))
        return np.sort(offsets)

    @obs.traced("succinct.search_batch", layer="succinct")
    def search_batch(self, patterns: Sequence[bytes]) -> List[np.ndarray]:
        """Offsets (ascending) of every pattern, in pattern order, for a
        conjunctive search: equal to ``[search(p) for p in patterns]``
        when every pattern occurs, and all empty when one does not.

        Each pattern's row range comes from its own backward search. A
        pattern with no occurrence ends the search before any row is
        resolved; otherwise the rows of *all* patterns resolve to SA
        values in one lockstep walk (per-row scalar walks when the total
        is below the search cutoff), split back per pattern.

        :meth:`search` keeps its own one-range body: routed through
        these per-pattern lists, the few-hit searches behind every TAO
        record lookup cost ~3 us more each.
        """
        patterns = [bytes(pattern) for pattern in patterns]  # zipg: owned-copy
        self.stats.searches += len(patterns)
        ranges = [self._pattern_row_range(pattern) for pattern in patterns]
        sizes = [high - low for low, high in ranges]
        if not all(size > 0 for size in sizes):
            return [np.empty(0, dtype=np.int64) for _ in ranges]
        total = sum(sizes)
        self.stats.random_accesses += total
        if total <= _SCALAR_SEARCH_CUTOFF:
            return [
                np.asarray(
                    sorted(self._lookup_sa(row) for row in range(low, high)),  # zipg: ignore[HOT001]
                    dtype=np.int64,
                )
                for low, high in ranges
            ]
        rows = np.concatenate(
            [np.arange(low, high, dtype=np.int64) for low, high in ranges]
        )
        values = self._lookup_sa_batch(rows)
        results = []
        start = 0
        for size in sizes:
            results.append(np.sort(values[start : start + size]))
            start += size
        return results

    # zipg: scalar-ok  (reference baseline for kernel-parity tests)
    def search_scalar(self, pattern: bytes) -> np.ndarray:
        """Reference scalar ``search`` (per-row ``_lookup_sa`` loop);
        byte-identical results to :meth:`search`."""
        self.stats.searches += 1
        low, high = self._pattern_row_range(bytes(pattern))  # zipg: owned-copy
        offsets = [self._lookup_sa(row) for row in range(low, high)]
        self.stats.random_accesses += high - low
        return np.asarray(sorted(offsets), dtype=np.int64)

    def decompress(self) -> bytes:
        """Reconstruct the full original input (diagnostic helper)."""
        return self.extract(0, self._input_size)

    # ------------------------------------------------------------------
    # Binary serialization (§4.1: persisted structures are loaded, not
    # reconstructed, at startup)
    # ------------------------------------------------------------------

    #: Self-describing codec tag written into the section framing
    #: (see :mod:`repro.succinct.encodings`).
    encoding_name = "succinct"

    def sections(self) -> dict:
        """Write-side sections (samples, row bitmap, NPA + bucket
        directory) -- no text, no suffix array. Array payloads are
        zero-copy chunks over the live structures, suitable for
        :func:`repro.succinct.serialize.write_sections`."""
        from repro.succinct.serialize import FORMAT_SECTION, array_chunks, pack_ints

        npa, bucket_chars, bucket_starts = self._npa.arrays_for_write()
        return {
            FORMAT_SECTION: self.encoding_name.encode("ascii"),
            "meta": pack_ints(self._alpha, self._input_size, self._n),
            "sa_samples": array_chunks(self._sa_samples),
            "isa_samples": array_chunks(self._isa_samples),
            "row_marks": array_chunks(self._sampled_row_marks.blocks_for_write()),
            "npa": array_chunks(npa),
            "bucket_chars": array_chunks(bucket_chars),
            "bucket_starts": array_chunks(bucket_starts),
        }

    def to_bytes(self) -> bytes:
        """Serialize the compressed structures to one owned blob."""
        from repro.succinct.serialize import pack_sections

        return pack_sections(self.sections())

    @classmethod
    def from_sections(
        cls, sections: dict, stats: Optional[AccessStats] = None
    ) -> "SuccinctFile":
        """Reconstruct a file from unpacked sections **without copying**:
        every array is an ``np.frombuffer`` view over the caller-owned
        buffer, so an mmap-backed load is O(1) and payload pages fault
        only when a query first touches them."""
        from repro.succinct.serialize import unpack_array, unpack_ints

        alpha, input_size, n = unpack_ints(sections["meta"])
        instance = cls.__new__(cls)
        instance._alpha = alpha
        instance._input_size = input_size
        instance._n = n
        instance.stats = stats if stats is not None else AccessStats()
        instance._sa_samples = unpack_array(sections["sa_samples"])
        instance._isa_samples = unpack_array(sections["isa_samples"])
        instance._sampled_row_marks = BitVector.from_blocks(
            n, unpack_array(sections["row_marks"]), copy=False
        )
        instance._npa = NextPointerArray(
            unpack_array(sections["npa"]),
            unpack_array(sections["bucket_chars"]),
            unpack_array(sections["bucket_starts"]),
        )
        return instance

    @classmethod
    def from_bytes(cls, blob: bytes, stats: Optional[AccessStats] = None) -> "SuccinctFile":
        """Reconstruct a file from :meth:`to_bytes` output without
        re-running suffix-array construction."""
        from repro.succinct.serialize import unpack_sections

        return cls.from_sections(unpack_sections(blob), stats=stats)
