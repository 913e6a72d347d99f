"""Next-pointer array (NPA), Succinct's third data structure.

``NPA[i] = ISA[SA[i] + 1 mod n]`` maps each row of the (conceptual)
sorted-suffix matrix to the row holding the next suffix of the text.
Within the rows that share a first character (a *bucket*) the NPA is
strictly increasing, which is what makes it highly compressible and
what enables backward search by binary-searching the NPA inside a
bucket.

The in-memory representation here is a plain numpy array for query
speed; :meth:`NextPointerArray.serialized_size_bytes` reports the size
of the two-level delta encoding Succinct would persist, and is what the
storage-footprint experiments account against.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.succinct.coding import delta_encoded_bit_size


class NextPointerArray:
    """The NPA plus the character-bucket directory of the first column.

    Args:
        npa: ``int64`` array, a permutation of ``0..n-1``.
        bucket_chars: sorted ``uint8`` array of distinct bytes occurring
            in the text.
        bucket_starts: row index where each character's bucket begins;
            same length as ``bucket_chars``. Bucket ``k`` spans rows
            ``[bucket_starts[k], bucket_starts[k+1])`` (the last bucket
            ends at ``n``).
    """

    def __init__(
        self,
        npa: np.ndarray,
        bucket_chars: np.ndarray,
        bucket_starts: np.ndarray,
    ) -> None:
        if len(bucket_chars) != len(bucket_starts):
            raise ValueError("bucket_chars and bucket_starts must align")
        self._npa = np.asarray(npa, dtype=np.int64)
        self._bucket_chars = np.asarray(bucket_chars, dtype=np.uint8)
        self._bucket_starts = np.asarray(bucket_starts, dtype=np.int64)
        self._bucket_ends = np.concatenate(
            (self._bucket_starts[1:], [len(self._npa)])
        )
        # Derived acceleration structures are built lazily on first
        # query, never at construction: an mmap-backed load must stay
        # O(1) and not fault the NPA pages (docs/STORAGE.md).
        self._npa_list_cache: list | None = None
        self._bucket_table_cache: list | None = None
        self._row_chars_cache: np.ndarray | None = None
        self._row_char_bytes_cache: bytes | None = None
        # Hop-doubling tables (npa^1, npa^2, npa^4, ...), built lazily by
        # the batched kernels: expanding anchors to `steps` consecutive
        # positions then costs O(log steps) gathers, not O(steps).
        self._hop_tables = [self._npa]

    @property
    def _npa_list(self) -> list:
        """Plain-python NPA mirror for the per-hop hot path: list
        indexing and bisect beat numpy scalar indexing in tight loops
        by ~5x."""
        if self._npa_list_cache is None:
            self._npa_list_cache = self._npa.tolist()
        return self._npa_list_cache

    @property
    def _bucket_table(self) -> list:
        """Byte value -> ``(start, end)`` bucket rows, ``(0, 0)`` for
        bytes absent from the text: one list index per backward-search
        step instead of a ``searchsorted`` on the bucket directory."""
        if self._bucket_table_cache is None:
            table = [(0, 0)] * 256
            for char, start, end in zip(
                self._bucket_chars.tolist(),
                self._bucket_starts.tolist(),
                self._bucket_ends.tolist(),
            ):
                table[char] = (start, end)
            self._bucket_table_cache = table
        return self._bucket_table_cache

    @property
    def _row_chars(self) -> np.ndarray:
        """Dense row -> first-character map for the vectorized kernels
        (one gather instead of a searchsorted per lockstep round)."""
        if self._row_chars_cache is None:
            self._row_chars_cache = np.repeat(
                self._bucket_chars, self._bucket_ends - self._bucket_starts
            )
        return self._row_chars_cache

    @property
    def row_char_bytes(self) -> bytes:
        """:attr:`_row_chars` as ``bytes`` for the scalar loops: indexing
        it yields the row's first byte as a plain int."""
        if self._row_char_bytes_cache is None:
            self._row_char_bytes_cache = self._row_chars.tobytes()  # zipg: owned-copy
        return self._row_char_bytes_cache

    @classmethod
    def from_text(cls, data: bytes, suffix_array: np.ndarray, isa: np.ndarray) -> "NextPointerArray":
        """Build the NPA for ``data`` given its SA and ISA."""
        n = len(data)
        npa = isa[(suffix_array + 1) % n] if n else np.empty(0, dtype=np.int64)
        counts = np.bincount(
            np.frombuffer(bytes(data), dtype=np.uint8), minlength=256
        )  # zipg: owned-copy
        present = np.nonzero(counts)[0]
        starts = np.concatenate(([0], np.cumsum(counts[present])))[:-1]
        return cls(npa, present.astype(np.uint8), starts)

    def __len__(self) -> int:
        return len(self._npa)

    def arrays_for_write(self) -> tuple:
        """``(npa, bucket_chars, bucket_starts)`` without copies.

        Write-side zero-copy serialization only; callers must treat
        the arrays as read-only.
        """
        return self._npa, self._bucket_chars, self._bucket_starts

    def __getitem__(self, row: int) -> int:
        return self._npa_list[row]

    def follow(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized NPA dereference for an array of rows."""
        return self._npa[rows]

    def char_of_row(self, row: int) -> int:
        """First character (byte value) of the suffix at ``row``."""
        return self.row_char_bytes[row]

    # ------------------------------------------------------------------
    # Vectorized query kernels: advance many rows in lockstep via
    # repeated fancy indexing so per-hop cost is a numpy gather, not a
    # Python-level loop iteration (the "decode speed" bottleneck of
    # compressed formats that Log(Graph)/Zuckerli attack with batch
    # decoding).
    # ------------------------------------------------------------------

    def chars_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`char_of_row`: first byte of each suffix."""
        return self._row_chars[rows]

    def _hop_table(self, index: int) -> np.ndarray:
        """The ``npa^(2^index)`` pointer table, built on first use."""
        while len(self._hop_tables) <= index:
            last = self._hop_tables[-1]
            self._hop_tables.append(last[last])
        return self._hop_tables[index]

    def walk(self, rows: np.ndarray, steps: int) -> np.ndarray:
        """Advance every row ``steps`` NPA hops in lockstep.

        Binary-decomposes ``steps`` over the hop-doubling tables, so the
        cost is O(log steps) numpy gathers over the whole batch instead
        of ``steps * len(rows)`` scalar dereferences.
        """
        rows = np.asarray(rows, dtype=np.int64)
        index = 0
        while steps:
            if steps & 1:
                rows = self._hop_table(index)[rows]
            steps >>= 1
            index += 1
        return rows

    def walk_varying(self, rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Advance row ``k`` by ``steps[k]`` hops (per-row depths).

        One masked gather per bit of the maximum depth.
        """
        rows = np.array(rows, dtype=np.int64, copy=True)
        steps = np.asarray(steps, dtype=np.int64)
        remaining = int(steps.max()) if steps.size else 0
        index = 0
        while remaining:
            moving = (steps >> index) & 1 == 1
            if moving.any():
                rows[moving] = self._hop_table(index)[rows[moving]]
            remaining >>= 1
            index += 1
        return rows

    def expand_rows(self, rows: np.ndarray, steps: int) -> np.ndarray:
        """Rows reached from each start row after 0..steps-1 hops.

        Returns a ``(steps, len(rows))`` matrix with ``out[s, k] =
        npa^s(rows[k])``, filled by doubling: the block of rows already
        known is advanced wholesale with the matching power-of-two hop
        table, so only O(log steps) gathers are issued.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((steps, len(rows)), dtype=np.int64)
        if steps == 0:
            return out
        out[0] = rows
        filled = 1
        index = 0
        while filled < steps:
            take = min(filled, steps - filled)
            out[filled : filled + take] = self._hop_table(index)[out[:take]]
            filled += take
            index += 1
        return out

    def walk_collect(self, rows: np.ndarray, steps: int) -> np.ndarray:
        """Bytes at the ``steps`` consecutive text positions starting at
        each row's suffix.

        Returns a ``(len(rows), steps)`` ``uint8`` matrix; row ``k``
        holds the text bytes decoded from row ``k`` onward. Built from
        :meth:`expand_rows` plus one dense character gather.
        """
        matrix = self.expand_rows(rows, steps)
        chars = self._row_chars[matrix.ravel()].reshape(matrix.shape)
        return np.ascontiguousarray(chars.T)

    def bucket_range(self, char: int) -> tuple:
        """Row range ``[start, end)`` of suffixes starting with ``char``.

        Returns ``(0, 0)`` if the character does not occur in the text.
        """
        return self._bucket_table[char]

    def refine_backward(self, char: int, low: int, high: int) -> tuple:
        """One step of backward search.

        Given the row range ``[low, high)`` of suffixes starting with a
        pattern ``P``, return the row range of suffixes starting with
        ``char + P``. Relies on the NPA being strictly increasing within
        each character bucket, so both bounds are a bisect on the plain
        NPA mirror restricted to the bucket's rows.
        """
        start, end = self._bucket_table[char]
        if start == end:
            return (0, 0)
        npa = self._npa_list
        return (
            bisect.bisect_left(npa, low, start, end),
            bisect.bisect_left(npa, high, start, end),
        )

    def serialized_size_bytes(self, anchor_every: int = 128) -> int:
        """Size of the two-level delta-encoded NPA plus bucket directory."""
        bits = 0
        for start, end in zip(self._bucket_starts, self._bucket_ends):
            bits += delta_encoded_bit_size(self._npa[start:end], anchor_every)
        directory = len(self._bucket_chars) * (1 + 8)  # char byte + start offset
        return (bits + 7) // 8 + directory
