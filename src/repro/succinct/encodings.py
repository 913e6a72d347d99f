"""Pluggable flat-file codecs: the ``ShardEncoding`` interface.

ZipG's layout classes (NodeFile/EdgeFile) serialize records into one
flat file and push all storage concerns -- compression, random access,
substring search -- into the codec that stores that file. This module
is the seam: a :class:`ShardEncoding` is anything that can *encode* a
byte string and then answer ``extract``/``search``/``count`` on the
encoded form, and the registry maps the self-describing format tag in
the section framing (:data:`repro.succinct.serialize.FORMAT_SECTION`)
back to the codec that wrote it.

Registered codecs:

* ``"succinct"`` -- :class:`repro.succinct.succinct_file.SuccinctFile`,
  the paper's compressed representation (sampled SA/ISA + NPA).
* ``"offsets"`` -- :class:`repro.succinct.offsets.OffsetArrayFile`,
  a Log(Graph)-style fixed-width bit-packed array (PAPERS.md): larger
  than Succinct but with O(length) extracts and no NPA walks. The
  Fig. 5/6 benches ablate the two.

Every codec writes the tag; a blob without one is refused like a blob
with an unknown tag.
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.succinct.serialize import FORMAT_SECTION, unpack_sections
from repro.succinct.stats import AccessStats


@runtime_checkable
class ShardEncoding(Protocol):
    """What a flat-file codec must provide.

    Build side: ``cls(data, alpha=..., stats=...)`` encodes raw bytes.
    Load side: ``cls.from_sections(sections, stats=...)`` rebuilds the
    codec from unpacked framing sections **without copying** -- every
    array must be a view over the caller-owned buffer so mmap-backed
    loads stay O(1).
    """

    encoding_name: str
    stats: AccessStats

    def __len__(self) -> int: ...

    def extract(self, offset: int, length: int) -> bytes: ...

    def extract_batch(
        self, requests: Sequence[Tuple[int, int]]
    ) -> List[bytes]: ...

    def extract_until(
        self, offset: int, terminator: int, limit: Optional[int] = None
    ) -> bytes: ...

    def char_at(self, offset: int) -> int: ...

    def char_at_batch(self, offsets: Sequence[int]) -> np.ndarray: ...

    def count(self, pattern: bytes) -> int: ...

    def search(self, pattern: bytes) -> np.ndarray: ...

    def search_batch(self, patterns: Sequence[bytes]) -> List[np.ndarray]: ...

    def decompress(self) -> bytes: ...

    def original_size_bytes(self) -> int: ...

    def serialized_size_bytes(self) -> int: ...

    def compression_ratio(self) -> float: ...

    def sections(self) -> dict: ...

    def to_bytes(self) -> bytes: ...


_REGISTRY: Dict[str, type] = {}


def register_encoding(cls: type) -> type:
    """Register a codec class under its ``encoding_name`` tag.

    Usable as a decorator; returns ``cls`` unchanged.
    """
    name = getattr(cls, "encoding_name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls.__name__} has no encoding_name tag")
    _REGISTRY[name] = cls
    return cls


def encoding_class(name: str) -> type:
    """The codec class registered under ``name``."""
    _ensure_builtin_encodings()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown shard encoding {name!r} (registered: {known})"
        ) from None


def build_flat_file(
    data: bytes,
    alpha: int = 32,
    stats: Optional[AccessStats] = None,
    encoding: str = "succinct",
) -> "ShardEncoding":
    """Encode ``data`` with the named codec."""
    cls = encoding_class(encoding)
    return cls(data, alpha=alpha, stats=stats)


def decode_sections(
    sections: dict, stats: Optional[AccessStats] = None
) -> "ShardEncoding":
    """Rebuild a codec from unpacked sections, dispatching on the
    self-describing format tag (:class:`ValueError` if it is missing
    or unknown)."""
    tag = sections.get(FORMAT_SECTION)
    if tag is None:
        raise ValueError(f"flat file has no {FORMAT_SECTION!r} codec tag")
    cls = encoding_class(bytes(tag).decode("ascii"))  # zipg: owned-copy
    return cls.from_sections(sections, stats=stats)


def decode_flat_file(
    blob: Union[bytes, bytearray, memoryview],
    stats: Optional[AccessStats] = None,
) -> "ShardEncoding":
    """Rebuild a codec from a framed blob without copying payloads."""
    return decode_sections(unpack_sections(blob), stats=stats)


def _ensure_builtin_encodings() -> None:
    """Import-register the built-in codecs exactly once."""
    if "succinct" not in _REGISTRY:
        from repro.succinct.succinct_file import SuccinctFile

        register_encoding(SuccinctFile)
    if "offsets" not in _REGISTRY:
        from repro.succinct.offsets import OffsetArrayFile

        register_encoding(OffsetArrayFile)
