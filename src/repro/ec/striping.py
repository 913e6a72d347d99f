"""Striping: snapshot files -> placed, CRC'd fragments (+ manifest).

The erasure-coding target is the output of
:func:`repro.core.persistence.save_store`: immutable,
generation-numbered data files whose integrity metadata (per-file CRC
and size) the snapshot manifest already records.  This module splits
each of those files into ``k`` data + ``m`` parity fragments
(:class:`~repro.ec.rs.RSCodec`), spreads the ``k+m`` fragments
round-robin across servers, and commits the layout in an
``ec-manifest.json`` that extends the :mod:`~repro.core.persistence`
manifest idiom: per-fragment CRC32/size/placement, whole-file CRC
carried over from the snapshot manifest, and the same
:func:`~repro.core.persistence.write_atomic` commit (temp file, fsync,
rename, directory fsync) for the manifest, every fragment and every
materialized file.

Placement and the failure model: fragment ``i`` of the ``f``-th file
lands on server ``(f + i) % num_servers``, so one file's fragments
spread as evenly as possible and the per-file load rotates.  A file
has at most ``ceil((k+m)/num_servers)`` fragments on any one server,
so losing one server erases at most that many fragments of any file;
the deployment tolerates ``m // ceil((k+m)/num_servers)`` simultaneous
server losses (:func:`max_tolerable_server_failures`).  With the
issue's ``k=4, m=2`` that is any single server for ``num_servers >=
3`` and any two for ``num_servers >= 6``.

Every fragment write routes through :func:`repro.chaos.write_bytes`
(sites ``ec.encode`` / ``ec.rebuild``) and every reconstruction kicks
``ec.decode``, so the chaos suites can tear, fail, and crash each
phase deterministically.
"""
# zipg: robust-path

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import chaos, obs
from repro.core.errors import (
    FragmentCorruptError,
    ManifestCorruptError,
    ManifestMissingError,
    ReconstructionFailed,
    SnapshotCorruptError,
    UnsupportedVersionError,
)
from repro.core.persistence import (
    MANIFEST_NAME,
    crc32,
    read_checked,
    read_manifest,
    write_atomic,
)
from repro.ec.rs import RSCodec

EC_MANIFEST_VERSION = 1
EC_MANIFEST_NAME = "ec-manifest.json"

#: Optional[bytes]-returning fragment fetcher: ``fetch(server, name,
#: index)`` returns the fragment payload or raises (dead server,
#: corrupt fragment) -- reconstruction skips and moves on.
FragmentFetch = Callable[[int, str, int], bytes]


def fragment_server(file_index: int, fragment_index: int,
                    num_servers: int) -> int:
    """The server holding fragment ``fragment_index`` of the
    ``file_index``-th snapshot file (rotated round-robin)."""
    return (file_index + fragment_index) % num_servers


def max_tolerable_server_failures(k: int, m: int, num_servers: int) -> int:
    """Simultaneous server losses the placement survives for every
    file: a server holds at most ``ceil((k+m)/num_servers)`` fragments
    of one file, and decode needs any ``k`` of ``k+m``."""
    per_server = -(-(k + m) // num_servers)
    return m // per_server


@dataclass
class FragmentInfo:
    """One placed fragment: where it lives and how to verify it."""

    server: int
    crc32: int
    bytes: int

    def to_payload(self) -> Dict[str, int]:
        return {"server": self.server, "crc32": self.crc32,
                "bytes": self.bytes}

    @classmethod
    def from_payload(cls, payload: Dict[str, int]) -> "FragmentInfo":
        return cls(int(payload["server"]), int(payload["crc32"]),
                   int(payload["bytes"]))


@dataclass
class FileStripe:
    """One snapshot file's erasure-coded layout."""

    bytes: int            # original (pre-padding) file size
    crc32: int            # whole-file CRC from the snapshot manifest
    fragments: List[FragmentInfo] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        return {
            "bytes": self.bytes,
            "crc32": self.crc32,
            "fragments": [fragment.to_payload() for fragment in self.fragments],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FileStripe":
        return cls(
            int(payload["bytes"]), int(payload["crc32"]),
            [FragmentInfo.from_payload(entry)
             for entry in payload["fragments"]],
        )


@dataclass
class ECManifest:
    """The committed fragment layout of one snapshot generation."""

    k: int
    m: int
    generation: int
    num_servers: int
    files: Dict[str, FileStripe] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": EC_MANIFEST_VERSION,
            "k": self.k,
            "m": self.m,
            "generation": self.generation,
            "num_servers": self.num_servers,
            "files": {name: stripe.to_payload()
                      for name, stripe in self.files.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ECManifest":
        version = payload.get("version")
        if version != EC_MANIFEST_VERSION:
            raise UnsupportedVersionError(
                f"unsupported ec-manifest version {version!r} "
                f"(this build reads version {EC_MANIFEST_VERSION})"
            )
        try:
            return cls(
                int(payload["k"]), int(payload["m"]),
                int(payload["generation"]), int(payload["num_servers"]),
                {str(name): FileStripe.from_payload(stripe)
                 for name, stripe in payload["files"].items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestCorruptError(
                f"malformed ec-manifest: {exc!r}") from exc

    @classmethod
    def load(cls, path: str) -> "ECManifest":
        payload = read_manifest(path)
        if payload is None:
            raise ManifestMissingError(f"no ec manifest at {path}")
        return cls.from_payload(payload)

    def save(self, path: str, fsync: bool = True) -> None:
        """Commit atomically through the ``ec.encode`` chaos site."""
        write_atomic(path, json.dumps(self.to_payload()).encode("utf-8"),
                     chaos.SITE_EC_ENCODE, fsync, file=EC_MANIFEST_NAME)

    def server_fragments(self, server: int) -> Iterator[Tuple[str, int]]:
        """Every ``(file name, fragment index)`` placed on ``server``."""
        for name in sorted(self.files):
            for index, info in enumerate(self.files[name].fragments):
                if info.server == server:
                    yield name, index

    def storage_bytes(self) -> int:
        """Total fragment bytes the layout stores (the overhead-ratio
        numerator; the denominator is the sum of original sizes)."""
        return sum(
            info.bytes
            for stripe in self.files.values()
            for info in stripe.fragments
        )

    def data_bytes(self) -> int:
        return sum(stripe.bytes for stripe in self.files.values())


class FragmentStore:
    """One server's fragment directory: CRC-checked reads, atomic
    chaos-injectable writes.

    Fragment files are ``<snapshot file name>.f<index>``; integrity
    lives in the EC manifest (a fragment store alone cannot vouch for
    its contents -- pass the expected CRC/size to :meth:`read`)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, name: str, index: int) -> str:
        return os.path.join(self.root, f"{name}.f{index}")

    def write(self, name: str, index: int, data: bytes,
              site: str = chaos.SITE_EC_ENCODE, fsync: bool = True) -> None:
        """Persist one fragment atomically, so a torn write never
        shadows a good fragment; ``site`` is the chaos site the write
        routes through (``ec.encode`` on first placement, ``ec.rebuild``
        when re-created onto a recovered server)."""
        write_atomic(self.path(name, index), data, site, fsync,
                     file=name, fragment=index)

    def read(self, name: str, index: int, expected_crc: Optional[int] = None,
             expected_bytes: Optional[int] = None) -> bytes:
        """One fragment's payload, verified against the manifest's CRC
        and size when given; missing or mismatching fragments raise
        :class:`FragmentCorruptError` (reconstruction treats both as
        an erasure)."""
        meta = None
        if expected_crc is not None or expected_bytes is not None:
            meta = {"crc32": expected_crc, "bytes": expected_bytes}
        return read_checked(self.path(name, index), meta, FragmentCorruptError)

    def has(self, name: str, index: int, expected_crc: int,
            expected_bytes: int) -> bool:
        """Whether a verified copy of the fragment is present."""
        try:
            self.read(name, index, expected_crc, expected_bytes)
        except FragmentCorruptError:
            return False
        return True

    def wipe(self) -> int:
        """Remove every fragment file (models a server coming back
        with a blank disk); returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for entry in os.listdir(self.root):
            os.remove(os.path.join(self.root, entry))
            removed += 1
        return removed


def server_store_root(ec_root: str, server: int) -> str:
    """The per-server fragment directory under one EC root."""
    return os.path.join(ec_root, f"server-{server}")


def encode_store(root: str, ec_root: str, num_servers: int,
                 k: int = 4, m: int = 2,
                 fsync: bool = True) -> ECManifest:
    """Erasure-code the committed snapshot under ``root`` into
    per-server fragment directories under ``ec_root``.

    Reads every snapshot file CRC-checked against the snapshot
    manifest (a torn input must fail loudly, not encode garbage),
    writes every fragment through the ``ec.encode`` chaos site, and
    commits the EC manifest last -- a crash mid-encode leaves no
    committed layout, mirroring ``save_store``'s manifest-rename commit
    point.
    """
    manifest = read_manifest(os.path.join(root, MANIFEST_NAME))
    if manifest is None:
        raise ManifestMissingError(f"no committed snapshot under {root}")
    files = manifest.get("files")
    generation = manifest.get("generation")
    if not isinstance(files, dict) or not isinstance(generation, int):
        raise ManifestCorruptError(f"{root}: snapshot manifest has no "
                                   f"generation/files")
    codec = RSCodec(k, m)
    stores = {
        server: FragmentStore(server_store_root(ec_root, server))
        for server in range(num_servers)
    }
    ec_manifest = ECManifest(k=k, m=m, generation=generation,
                             num_servers=num_servers)
    encoded_bytes = 0
    with obs.span("ec.encode", layer="ec"):
        for file_index, name in enumerate(sorted(files)):
            data = read_checked(os.path.join(root, name), files[name],
                                SnapshotCorruptError)
            chaos.kick(chaos.SITE_EC_ENCODE, file=name)
            fragments = codec.encode(data)
            stripe = FileStripe(bytes=len(data), crc32=files[name]["crc32"])
            for index, fragment in enumerate(fragments):
                server = fragment_server(file_index, index, num_servers)
                stores[server].write(name, index, fragment,
                                     site=chaos.SITE_EC_ENCODE, fsync=fsync)
                stripe.fragments.append(
                    FragmentInfo(server=server, crc32=crc32(fragment),
                                 bytes=len(fragment))
                )
                encoded_bytes += len(fragment)
            ec_manifest.files[name] = stripe
    ec_manifest.save(os.path.join(ec_root, EC_MANIFEST_NAME), fsync=fsync)
    obs.counter(
        "zipg_ec_encoded_fragment_bytes_total",
        help="fragment bytes written by erasure encoding",
    ).inc(encoded_bytes)
    return ec_manifest


class ErasureCodedSnapshots:
    """The cluster-facing handle over one encoded snapshot generation.

    Owns the manifest, the codec, and (locally) the per-server
    fragment stores; reconstruction and rebuild take a ``fetch``
    callback so the same logic runs against local directories (tests,
    in-process clusters) or ``ec_fetch_fragment`` RPCs (the socket
    deployment, where a SIGKILLed server's fragments are genuinely
    unreachable)."""

    def __init__(self, ec_root: str,
                 manifest: Optional[ECManifest] = None) -> None:
        self.ec_root = ec_root
        self.manifest = manifest if manifest is not None else ECManifest.load(
            os.path.join(ec_root, EC_MANIFEST_NAME)
        )
        self.codec = RSCodec(self.manifest.k, self.manifest.m)

    @classmethod
    def encode_snapshot(cls, root: str, ec_root: str, num_servers: int,
               k: int = 4, m: int = 2,
               fsync: bool = True) -> "ErasureCodedSnapshots":
        return cls(ec_root, encode_store(root, ec_root, num_servers,
                                         k=k, m=m, fsync=fsync))

    def store_for(self, server: int) -> FragmentStore:
        return FragmentStore(server_store_root(self.ec_root, server))

    def fragment_stores(self) -> Dict[int, FragmentStore]:
        return {server: self.store_for(server)
                for server in range(self.manifest.num_servers)}

    def shard_file(self, shard_id: int) -> str:
        """The snapshot file name holding ``shard_id``'s compressed
        structures in this generation."""
        name = f"shard-{shard_id}.g{self.manifest.generation}.bin"
        if name not in self.manifest.files:
            raise ReconstructionFailed(
                f"no encoded snapshot file for shard {shard_id} "
                f"(generation {self.manifest.generation})"
            )
        return name

    def local_fetch(self, server: int, name: str, index: int) -> bytes:
        """Fetch straight from the local per-server directories (the
        in-process deployment's transport)."""
        info = self.manifest.files[name].fragments[index]
        return self.store_for(server).read(name, index, info.crc32, info.bytes)

    # ------------------------------------------------------------------
    # Degraded reads and rebuild
    # ------------------------------------------------------------------

    def reconstruct_file(self, name: str, fetch: FragmentFetch,
                         skip_servers: Tuple[int, ...] = ()) -> bytes:
        """Reconstruct one snapshot file from any ``k`` live fragments.

        ``fetch`` failures (dead server, corrupt fragment -- anything
        raising ``Exception``) count as erasures; gathering stops as
        soon as ``k`` verified fragments are in hand.  The decoded
        payload is verified against the whole-file CRC the snapshot
        manifest recorded, so a wrong reconstruction can never be
        served.  Raises :class:`ReconstructionFailed` once the live
        fragment supply cannot reach ``k``."""
        stripe = self.manifest.files.get(name)
        if stripe is None:
            raise ReconstructionFailed(f"no encoded file {name!r}")
        start = time.perf_counter()
        with obs.span("ec.decode", layer="ec", file=name):
            chaos.kick(chaos.SITE_EC_DECODE, file=name)
            gathered: Dict[int, bytes] = {}
            failures: List[str] = []
            for index, info in enumerate(stripe.fragments):
                if len(gathered) >= self.codec.k:
                    break
                if info.server in skip_servers:
                    failures.append(f"f{index}@s{info.server}: skipped (down)")
                    continue
                try:
                    data = fetch(info.server, name, index)
                except Exception as exc:
                    failures.append(
                        f"f{index}@s{info.server}: {type(exc).__name__}")
                    continue
                if len(data) != info.bytes or crc32(data) != info.crc32:
                    failures.append(f"f{index}@s{info.server}: corrupt")
                    continue
                gathered[index] = data
            if len(gathered) < self.codec.k:
                raise ReconstructionFailed(
                    f"cannot reconstruct {name!r}: {len(gathered)} live "
                    f"fragments of {self.codec.k} needed "
                    f"({'; '.join(failures)})"
                )
            data = self.codec.decode(gathered, stripe.bytes)
            crc = crc32(data)
            if crc != stripe.crc32:
                raise ReconstructionFailed(
                    f"reconstructed {name!r} fails the whole-file CRC "
                    f"(crc {crc:08x}, manifest {stripe.crc32:08x})"
                )
        obs.counter(
            "zipg_ec_reconstructions_total",
            help="snapshot files reconstructed from fragments for "
                 "degraded reads",
            labels={"file": name},
        ).inc()
        obs.histogram(
            "zipg_ec_decode_seconds",
            help="wall time of erasure-decode reconstructions",
        ).observe(time.perf_counter() - start)
        return data

    def materialize_file(self, name: str, fetch: FragmentFetch,
                         out_path: str,
                         skip_servers: Tuple[int, ...] = ()) -> int:
        """Reconstruct ``name`` and land it at ``out_path`` as a real,
        CRC-verified file -- the shape ``load_store(mode="mmap")``
        needs, since a memory map requires an on-disk byte range, not
        an in-memory blob.

        The write is atomic (:func:`write_atomic`), so a crash
        mid-materialize leaves either no file or the complete verified
        file -- never a torn one that a later mmap would trust by size
        alone.  Returns the number of bytes written."""
        data = self.reconstruct_file(name, fetch, skip_servers=skip_servers)
        return write_atomic(out_path, data, chaos.SITE_EC_REBUILD,
                            file=name, materialize=True)["bytes"]

    def rebuild_fragment(self, name: str, index: int,
                         fetch: FragmentFetch,
                         skip_servers: Tuple[int, ...] = ()) -> bytes:
        """Re-create one missing fragment from the survivors (decode
        the file, re-apply the fragment's generator row)."""
        data = self.reconstruct_file(name, fetch, skip_servers=skip_servers)
        return self.codec.parity_of(index, data)
