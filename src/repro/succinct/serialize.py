"""Binary framing for the compressed data structures.

The paper persists NodeFiles/EdgeFiles as serialized flat files and
``mmap``'s them at startup (§4.1) -- loading must not re-run suffix-array
construction. This module provides the little-endian framing used by
``SuccinctFile.to_bytes`` and the layout classes: a stream of sections,
each ``[u32 name-length][name][u64 payload-length][payload]``.

Two properties matter for the mmap load path (docs/STORAGE.md):

* **Reads are zero-copy.** :func:`unpack_sections` returns
  ``memoryview`` slices over the caller-owned buffer and
  :func:`unpack_array` returns ``np.frombuffer`` views, so unpacking a
  shard blob touches only the framing headers -- payload pages fault
  lazily when a query first reads them. Callers that need a *mutable*
  array (deletion bitmaps) pass ``copy=True`` explicitly.
* **Writes are streaming.** :func:`write_sections` emits the frame
  chunk-by-chunk to a file handle -- nested section dicts included --
  so saving a shard never materializes one shard-sized contiguous
  blob. Section payloads may be buffers, numpy arrays, lists of
  chunks, or nested section dicts (framed recursively).

A section named :data:`FORMAT_SECTION` tags the codec that produced a
flat-file blob (``"succinct"``, ``"offsets"``, ... -- see
:mod:`repro.succinct.encodings`); blobs written before the tag existed
decode as Succinct.
"""

from __future__ import annotations

import struct
from typing import Dict, IO, List, Tuple, Union

import numpy as np

MAGIC = b"ZIPG"

#: Reserved section name carrying the self-describing encoding tag.
FORMAT_SECTION = "__format__"

#: What a section payload may be on the *write* side: a bytes-like
#: buffer, a numpy array (written as raw contiguous data), a list/tuple
#: of those (concatenated), or a nested section dict (framed
#: recursively).
SectionPayload = Union[bytes, bytearray, memoryview, np.ndarray, list, tuple, dict]


def _as_buffer(chunk: Union[bytes, bytearray, memoryview, np.ndarray]) -> memoryview:
    """A flat byte view of one write-side chunk (no data copied)."""
    if isinstance(chunk, np.ndarray):
        chunk = np.ascontiguousarray(chunk)
        return memoryview(chunk).cast("B")
    view = memoryview(chunk)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    return view


def _payload_chunks(payload: SectionPayload) -> List[memoryview]:
    if isinstance(payload, dict):
        return _frame_chunks(payload)
    if isinstance(payload, (list, tuple)):
        chunks: List[memoryview] = []
        for part in payload:
            chunks.extend(_payload_chunks(part))
        return chunks
    return [_as_buffer(payload)]


def _frame_chunks(sections: Dict[str, SectionPayload]) -> List[memoryview]:
    """The full framed stream as a list of zero-copy chunks."""
    chunks = [_as_buffer(MAGIC + struct.pack("<I", len(sections)))]
    for name, payload in sections.items():
        encoded = name.encode("ascii")
        body = _payload_chunks(payload)
        payload_length = sum(chunk.nbytes for chunk in body)
        chunks.append(
            _as_buffer(
                struct.pack("<I", len(encoded))
                + encoded
                + struct.pack("<Q", payload_length)
            )
        )
        chunks.extend(body)
    return chunks


def write_sections(handle: IO[bytes], sections: Dict[str, SectionPayload]) -> int:
    """Stream the framed sections to ``handle`` chunk-by-chunk.

    Returns the number of bytes written. Unlike :func:`pack_sections`
    this never builds the whole blob in memory, so it is the save path
    for stores larger than RAM.
    """
    total = 0
    for chunk in _frame_chunks(sections):
        handle.write(chunk)
        total += chunk.nbytes
    return total


def pack_sections(sections: Dict[str, SectionPayload]) -> bytes:
    """Serialize named sections into one framed blob (owned bytes)."""
    return b"".join(_frame_chunks(sections))  # zipg: owned-copy


def unpack_sections(blob: Union[bytes, bytearray, memoryview]) -> Dict[str, memoryview]:
    """Invert :func:`pack_sections` without copying payloads.

    The returned values are ``memoryview`` slices over ``blob`` --
    valid exactly as long as the caller keeps the underlying buffer
    (bytes object or mmap) alive. Only the framing headers are read
    here; an mmap-backed blob faults no payload pages.
    """
    view = memoryview(blob)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    if bytes(view[:4]) != MAGIC:
        raise ValueError("not a ZipG serialized blob (bad magic)")
    offset = 4
    (count,) = struct.unpack_from("<I", view, offset)
    offset += 4
    sections: Dict[str, memoryview] = {}
    for _ in range(count):
        (name_length,) = struct.unpack_from("<I", view, offset)
        offset += 4
        name = bytes(view[offset : offset + name_length]).decode("ascii")
        offset += name_length
        (payload_length,) = struct.unpack_from("<Q", view, offset)
        offset += 8
        if offset + payload_length > len(view):
            raise ValueError("truncated section payload")
        sections[name] = view[offset : offset + payload_length]
        offset += payload_length
    if offset != len(view):
        raise ValueError("trailing bytes after the last section")
    return sections


def array_header(array: np.ndarray) -> bytes:
    """The dtype+size header :func:`pack_array` prefixes to raw data."""
    dtype = np.dtype(array.dtype).str.encode("ascii")
    return struct.pack("<I", len(dtype)) + dtype + struct.pack("<Q", array.size)


def array_chunks(array: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """Zero-copy write-side representation of a packed array.

    Returns ``(header, contiguous array)`` suitable as a section
    payload for :func:`write_sections` -- the array's data buffer is
    written directly, never copied into an intermediate blob.
    """
    return array_header(array), np.ascontiguousarray(array)


def pack_array(array: np.ndarray) -> bytes:
    """Serialize a numpy array (dtype + size + raw data) to owned bytes."""
    header, data = array_chunks(array)
    return header + data.tobytes()  # zipg: owned-copy


def unpack_array(
    payload: Union[bytes, bytearray, memoryview], copy: bool = False
) -> np.ndarray:
    """Invert :func:`pack_array` (1-D arrays).

    By default the result is a **read-only view** over ``payload``
    (``np.frombuffer``): no data is copied and, for mmap-backed
    buffers, no pages fault until elements are read. Pass
    ``copy=True`` only when the caller mutates the array afterwards.
    """
    view = memoryview(payload)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    (dtype_length,) = struct.unpack_from("<I", view, 0)
    offset = 4
    dtype = np.dtype(bytes(view[offset : offset + dtype_length]).decode("ascii"))
    offset += dtype_length
    (size,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    array = np.frombuffer(view, dtype=dtype, count=size, offset=offset)
    if copy:
        return array.copy()  # zipg: owned-copy
    return array


def pack_ints(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


def unpack_ints(payload: Union[bytes, bytearray, memoryview]) -> Tuple[int, ...]:
    view = memoryview(payload)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    count = len(view) // 8
    return struct.unpack(f"<{count}q", view[: count * 8])
