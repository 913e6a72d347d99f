"""Crash-safe data persistence (§4.1).

ZipG stores NodeFiles, EdgeFiles, LogStore contents and the update
pointers on secondary storage as serialized flat files and maps them
into memory on startup. This module provides that durability for the
Python reproduction -- with real crash safety:

* :func:`save_store` writes an **atomic snapshot**: data files land
  under a fresh generation number, each is fsync'd and checksummed,
  and the manifest (the only commit point) is published with a
  write-to-temp + atomic-rename.  A crash at *any* instant leaves the
  previously committed snapshot fully intact.
* :func:`load_store` verifies the manifest and every referenced file
  against its recorded CRC -- torn or partial layouts are rejected
  with typed :class:`~repro.core.errors.RecoveryError`\\ s, never
  half-loaded -- then replays the write-ahead log tail
  (:mod:`repro.core.wal`) so every mutation durably logged since the
  snapshot survives the crash too.
* :func:`attach_wal` arms an in-memory store with a WAL under the
  store root, closing the snapshot-to-snapshot loss window.
* :func:`write_file`, :func:`write_atomic`, :func:`read_manifest`,
  :func:`read_checked` and :func:`crc32` are the one durable-file
  idiom; the erasure-coding layer (:mod:`repro.ec.striping`) commits
  and checks its manifest and fragments through them too.

On-disk layout (format version 4)::

    <root>/
      manifest.json            commit point: store metadata (incl. the
                               shard codec tag) + the file list of
                               generation <g> with per-file CRC32/size
                               + the WAL replay cutoff LSN
      shard-<k>.g<g>.bin       serialized compressed shard structures
      logstore.g<g>.json       live LogStore contents + tombstones
      pointers.g<g>.json       per-initial-shard update pointer tables
      wal.log                  write-ahead log (rotated at each commit)

Shards load straight from their serialized structures -- no
recompression at startup -- matching §4.1, where NodeFiles/EdgeFiles
are persisted as serialized flat files and mapped into memory.  With
``load_store(..., mode="mmap")`` that mapping is literal: each shard
file is opened once with ``mmap.mmap(..., ACCESS_READ)`` and the shard
structures are built as zero-copy views over the map, so load time is
O(#files) rather than O(bytes) and pages fault in lazily on first
query access (see ``docs/STORAGE.md``).  Shard files are streamed to
disk section-by-section at save time (:func:`save_store` never
materialises a whole shard blob), and ``verify_store`` CRC-checks
files in fixed-size chunks so audits run in constant memory.

Every step of ``save_store`` and every WAL append carries a
:mod:`repro.chaos` crash point (see :data:`SAVE_CRASH_POINTS`), so the
recovery guarantee -- *load always yields either the pre-save or the
post-save state* -- is exercised by fault-injected tests rather than
assumed.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import IO, Dict, List, Optional, Tuple, Type, Union

from repro import chaos, obs
from repro.core.delimiters import DelimiterMap
from repro.core.errors import (
    FragmentCorruptError,
    ManifestCorruptError,
    ManifestMissingError,
    RecoveryError,
    SnapshotCorruptError,
    StoreVersionConflictError,
    UnsupportedVersionError,
)
from repro.core.graph_store import ZipG
from repro.core.logstore import LogStore
from repro.core.pointers import UpdatePointerTable
from repro.core.shard import CompressedShard
from repro.succinct.serialize import SectionPayload, write_sections
from repro.core.wal import (
    WAL_FILENAME,
    WriteAheadLog,
    read_records,
    repair_torn_tail,
)

MANIFEST_VERSION = 4

MANIFEST_NAME = "manifest.json"

#: Chunk size of :func:`read_checked`'s streaming CRC pass, so an audit
#: holds at most this much of any file in memory.
VERIFY_CHUNK_BYTES = 1 << 20

#: Crash points fired (in order) during :func:`save_store`.  The chaos
#: suite kills the process model at each of them and asserts
#: :func:`load_store` still recovers a consistent store.
SAVE_CRASH_POINTS = (
    "save.begin",          # before any byte is written
    "save.file",           # after each data file (tag: file=<name>)
    "save.data_written",   # all data files durable, manifest not yet
    "save.manifest_tmp",   # manifest temp written, not yet renamed
    "save.committed",      # manifest renamed: snapshot is live
    "save.cleaned",        # old generations removed, WAL rotated
)

_GENERATION_FILE_RE = re.compile(
    r"^(?:shard-\d+|logstore|pointers)\.g(?P<gen>\d+)\.(?:bin|json)$"
)


def crc32(data: bytes, value: int = 0) -> int:
    """Unsigned CRC32 of ``data``, continuing from ``value``."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


class _MeteredWriter:
    """File-handle facade that routes every chunk through one chaos
    torn-write site while the CRC32 and byte count a manifest entry
    records accumulate incrementally, so a streamed payload is never
    materialised in memory."""

    def __init__(self, handle: IO[bytes], site: str,
                 tags: Dict[str, object]) -> None:
        self._handle = handle
        self._site = site
        self._tags = tags
        self.crc32 = 0
        self.nbytes = 0

    def write(self, data: bytes) -> int:
        chaos.write_bytes(self._site, self._handle, data, **self._tags)
        # Only reached if the chunk landed whole; a torn write raises
        # out of chaos.write_bytes and the partial CRC is discarded.
        self.crc32 = crc32(data, self.crc32)
        self.nbytes += len(data)
        return len(data)


def write_file(path: str, data: Union[bytes, Dict[str, SectionPayload]],
               site: str, fsync: bool, **tags: object) -> Dict[str, int]:
    """Write one file through chaos site ``site`` (tagged ``tags``),
    flush and optionally fsync it; returns its manifest entry
    ``{"crc32", "bytes"}``.

    ``data`` is a payload or a section mapping, which is streamed out
    section by section (byte-identical to ``pack_sections``)."""
    with open(path, "wb") as handle:
        writer = _MeteredWriter(handle, site, tags)
        if isinstance(data, dict):
            write_sections(writer, data)
        else:
            writer.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    return {"crc32": writer.crc32, "bytes": writer.nbytes}


def fsync_dir(root: str) -> None:
    """Make a rename durable (POSIX: fsync the directory)."""
    try:
        fd = os.open(root, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename already issued
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: str, data: bytes, site: str, fsync: bool = True,
                 staged: Optional[str] = None,
                 **tags: object) -> Dict[str, int]:
    """Publish ``path`` atomically: write ``path + ".tmp"`` through
    :func:`write_file`, rename it over ``path`` and fsync the directory.

    A crash or torn write before the rename leaves ``path`` as it was
    (the previous bytes, or no file).  ``staged`` names a chaos crash
    point fired between the temp write and the rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    entry = write_file(tmp, data, site, fsync, **tags)
    if staged is not None:
        chaos.crash_point(staged)
    os.replace(tmp, path)
    if fsync:
        fsync_dir(directory)
    return entry


def read_manifest(path: str) -> Optional[Dict]:
    """The JSON manifest at ``path``, parsed; ``None`` if none exists.

    A present-but-unparseable manifest raises ManifestCorruptError --
    the caller decides whether that is fatal (load) or not (save over
    a damaged root is refused so the operator must clean up
    explicitly)."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (ValueError, OSError) as exc:
        raise ManifestCorruptError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestCorruptError(f"{path}: manifest is not an object")
    return manifest


def read_checked(path: str, meta: Optional[Dict], error: Type[Exception],
                 keep: bool = True) -> bytes:
    """Read ``path`` in :data:`VERIFY_CHUNK_BYTES` chunks, checking its
    size and CRC against the manifest entry ``meta`` (``None`` checks
    nothing); a missing or mismatching file raises ``error``.

    Returns the bytes, or ``b""`` with ``keep=False`` -- then memory
    use is one chunk, however large the file."""
    if not os.path.exists(path):
        raise error(f"file missing: {path}")
    chunks: List[bytes] = []
    crc = 0
    total = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(VERIFY_CHUNK_BYTES)
            if not chunk:
                break
            crc = crc32(chunk, crc)
            total += len(chunk)
            if keep:
                chunks.append(chunk)
    if meta is not None and (total != meta.get("bytes")
                             or crc != meta.get("crc32")):
        raise error(
            f"file torn or corrupt: {path} ({total} bytes, crc {crc:08x}; "
            f"manifest says {meta.get('bytes')} bytes, "
            f"crc {int(meta.get('crc32') or 0):08x})"
        )
    return b"".join(chunks)


def save_store(store: ZipG, root: str, fsync: bool = True) -> None:
    """Persist ``store`` under directory ``root`` (created if needed).

    Atomicity: data files are written under a fresh generation number
    and the manifest rename is the single commit point, so a crash at
    any step leaves the previous snapshot loadable.  After commit the
    store's WAL (if attached under ``root``) is rotated -- its records
    are now covered by the snapshot -- and superseded generation files
    are removed.

    Raises :class:`StoreVersionConflictError` instead of overwriting a
    root whose committed manifest is *newer* than this build's
    :data:`MANIFEST_VERSION` (a mixed-version directory would be
    unrecoverable by either build).
    """
    os.makedirs(root, exist_ok=True)
    manifest_path = os.path.join(root, MANIFEST_NAME)
    previous = read_manifest(manifest_path)
    generation = 1
    if previous is not None:
        found = previous.get("version")
        if isinstance(found, int) and found > MANIFEST_VERSION:
            raise StoreVersionConflictError(
                f"store at {root} has manifest version {found}, newer than "
                f"supported version {MANIFEST_VERSION}; refusing to overwrite"
            )
        prev_gen = previous.get("generation")
        if isinstance(prev_gen, int) and prev_gen >= 1:
            generation = prev_gen + 1
    chaos.crash_point("save.begin")

    files: Dict[str, Dict[str, int]] = {}

    def emit(name: str, data: Union[bytes, Dict[str, SectionPayload]]) -> None:
        files[name] = write_file(os.path.join(root, name), data,
                                 chaos.SITE_SAVE_WRITE, fsync, file=name)
        chaos.crash_point("save.file", file=name)

    for shard in store.shards:
        # Shards stream out section-by-section -- the serialized blob
        # (the dominant snapshot cost) is never materialised in memory.
        emit(f"shard-{shard.shard_id}.g{generation}.bin", shard.sections())
    emit(f"logstore.g{generation}.json",
         json.dumps(store.logstore.to_payload()).encode("utf-8"))
    pointer_payload = [table.to_payload() for table in store._pointer_tables]
    emit(f"pointers.g{generation}.json",
         json.dumps(pointer_payload).encode("utf-8"))
    chaos.crash_point("save.data_written")

    wal = store.wal
    manifest = {
        "version": MANIFEST_VERSION,
        "generation": generation,
        "alpha": store._alpha,
        "logstore_threshold_bytes": store._threshold,
        "num_initial_shards": store.num_initial_shards,
        "num_shards": store.num_shards,
        "freeze_count": store.freeze_count,
        "encoding": store.encoding,
        "property_ids": store.delimiters.property_ids(),
        "files": files,
        "wal_last_lsn": wal.last_lsn if isinstance(wal, WriteAheadLog) else 0,
    }
    write_atomic(manifest_path, json.dumps(manifest).encode("utf-8"),
                 chaos.SITE_SAVE_WRITE, fsync, staged="save.manifest_tmp",
                 file=MANIFEST_NAME + ".tmp")
    chaos.crash_point("save.committed")

    # The snapshot now covers every WAL record up to wal_last_lsn; a
    # crash before this rotate is harmless (replay skips by LSN).
    if isinstance(wal, WriteAheadLog) and os.path.dirname(
        os.path.abspath(wal.path)
    ) == os.path.abspath(root):
        wal.rotate()
    _remove_stale_files(root, generation)
    chaos.crash_point("save.cleaned")
    obs.counter("zipg_snapshot_saves_total",
                help="committed save_store snapshots").inc()


def _remove_stale_files(root: str, generation: int) -> None:
    """Drop data files from superseded generations after a successful
    commit."""
    for name in os.listdir(root):
        match = _GENERATION_FILE_RE.match(name)
        if match is not None and int(match.group("gen")) != generation:
            try:
                os.remove(os.path.join(root, name))
            except OSError:
                # Cleanup is advisory; a leftover stale file is ignored
                # by load_store and retried on the next save.
                continue  # zipg: ignore[ROBUST001]


def _mapped_view(path: str, meta: Dict) -> Tuple[memoryview, mmap.mmap]:
    """Map one snapshot file read-only; O(1) in file size.

    Only the recorded size is validated here -- the point of mmap
    loading is that payload pages fault in lazily on first query
    access, and a CRC pass would touch every page up front.  Size
    alone still catches truncation (the common torn-file shape); the
    full streaming CRC audit lives in :func:`verify_store`.  Structural
    damage inside a page surfaces as a decode error at first access,
    never as silently wrong data being trusted as a manifest match.
    """
    if not os.path.exists(path):
        raise SnapshotCorruptError(f"snapshot file missing: {path}")
    size = os.path.getsize(path)
    if size != meta.get("bytes") or size == 0:
        raise SnapshotCorruptError(
            f"snapshot file torn or corrupt: {path} ({size} bytes; "
            f"manifest says {meta.get('bytes')} bytes)"
        )
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return memoryview(mapped), mapped


def load_store(
    root: str,
    attach_wal: bool = True,
    mode: str = "eager",
) -> ZipG:
    """Recover a :class:`ZipG` from ``root``.

    Recovery = last committed snapshot (manifest + checksum-verified
    data files) + replay of every WAL record past the manifest's
    cutoff LSN.  A torn WAL tail is dropped (the in-flight record of a
    crashed append); torn *snapshot* files raise
    :class:`SnapshotCorruptError` and a corrupt WAL record before the
    last one raises :class:`RecoveryError` -- neither can occur from a
    crash (the manifest only ever points at fully fsync'd files, and
    every record but the last was fsync'd whole), so both indicate
    external damage that must not be silently repaired.

    ``mode`` selects how shard bytes reach memory:

    * ``"eager"`` (default): each shard file is read fully and
      CRC-verified, and the store owns private copies -- required for
      stores that will be mutated and saved again.
    * ``"mmap"``: each shard file is memory-mapped read-only and the
      shard structures are zero-copy views over the map, so load cost
      is O(#shards) regardless of shard bytes and the OS pages data in
      on demand.  Only file sizes are checked at load; run
      ``repro verify-store`` for the full CRC audit.  The store keeps
      the maps alive for its lifetime; mutations still work (they land
      in the LogStore / fresh shards), but freezes and compactions
      allocate new in-memory shards as usual.

    Non-shard files (logstore/pointers JSON, the manifest, the WAL)
    are small and always read eagerly.  With ``attach_wal`` (default)
    the recovered store continues durable logging into the same
    ``wal.log``, LSNs continuing where the log left off.
    """
    if mode not in ("eager", "mmap"):
        raise ValueError(f"unknown load mode {mode!r}; expected eager|mmap")
    manifest_path = os.path.join(root, MANIFEST_NAME)
    manifest = read_manifest(manifest_path)
    if manifest is None:
        raise ManifestMissingError(f"no committed manifest under {root}")
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise UnsupportedVersionError(
            f"unsupported manifest version {version!r} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    generation = manifest.get("generation")
    files = manifest.get("files")
    if not isinstance(generation, int) or not isinstance(files, dict):
        raise ManifestCorruptError(f"{manifest_path}: missing generation/files")
    encoding = manifest.get("encoding")
    if not isinstance(encoding, str):
        raise ManifestCorruptError(f"{manifest_path}: bad encoding tag")

    def entry(name: str) -> Tuple[str, Dict]:
        if name not in files:
            raise ManifestCorruptError(f"manifest lists no entry for {name}")
        return os.path.join(root, name), files[name]

    load_seconds = obs.histogram(
        "zipg_shard_load_seconds",
        help="wall seconds constructing each shard in load_store",
    )
    delimiters = DelimiterMap(manifest["property_ids"])
    shards: List[CompressedShard] = []
    mmaps: List[mmap.mmap] = []
    mapped_bytes = 0
    for shard_id in range(manifest["num_shards"]):
        path, meta = entry(f"shard-{shard_id}.g{generation}.bin")
        started = time.perf_counter()
        if mode == "mmap":
            view, mapped = _mapped_view(path, meta)
            mmaps.append(mapped)
            mapped_bytes += len(mapped)
            shards.append(CompressedShard.from_bytes(view, delimiters))
        else:
            shards.append(CompressedShard.from_bytes(
                read_checked(path, meta, SnapshotCorruptError), delimiters
            ))
        load_seconds.observe(time.perf_counter() - started)

    initial = shards[: manifest["num_initial_shards"]]
    store = ZipG(delimiters, initial, manifest["alpha"],
                 manifest["logstore_threshold_bytes"], encoding=encoding)
    store.load_mode = mode
    store.mapped_bytes = mapped_bytes
    # Keepalive: every shard built in mmap mode is a web of views over
    # these maps; closing them would invalidate the store in place.
    store._mmaps = mmaps
    obs.gauge(
        "zipg_mmap_bytes",
        help="shard snapshot bytes memory-mapped rather than copied",
    ).set(float(mapped_bytes))
    # Attach the post-freeze shards (ZipG's constructor only takes the
    # initial set; freezes are replayed structurally).
    for shard in shards[manifest["num_initial_shards"]:]:
        store._shards.append(shard)
    store.freeze_count = manifest["freeze_count"]

    log_payload = json.loads(read_checked(
        *entry(f"logstore.g{generation}.json"), SnapshotCorruptError))
    store._logstore = LogStore.from_payload(log_payload)
    pointer_payload = json.loads(read_checked(
        *entry(f"pointers.g{generation}.json"), SnapshotCorruptError))
    store._pointer_tables = [
        UpdatePointerTable.from_payload(entry) for entry in pointer_payload
    ]

    # WAL replay: everything durably logged past the snapshot cutoff.
    cutoff = manifest.get("wal_last_lsn", 0)
    if not isinstance(cutoff, int):
        raise ManifestCorruptError(f"{manifest_path}: bad wal_last_lsn")
    wal_path = os.path.join(root, WAL_FILENAME)
    records, _torn = read_records(wal_path)
    replayed = 0
    for record in records:
        if record.lsn <= cutoff:
            continue
        store.apply_wal_record(record.op, record.args)
        replayed += 1
    if replayed:
        obs.counter(
            "zipg_wal_replayed_records_total",
            help="WAL records applied during load_store recovery",
        ).inc(replayed)
    obs.counter("zipg_recovery_loads_total",
                help="successful load_store recoveries").inc()

    if attach_wal:
        repair_torn_tail(wal_path)  # new appends need a clean boundary
        last = records[-1].lsn if records else cutoff
        store.attach_wal(
            WriteAheadLog(wal_path, next_lsn=max(last, cutoff) + 1)
        )
    return store


@dataclass
class IntegrityIssue:
    """One problem :func:`verify_store` found."""

    kind: str      # "manifest-missing" | "manifest-corrupt" |
                   # "unsupported-version" | "file-corrupt" |
                   # "wal-torn-tail" | "wal-corrupt" |
                   # "ec-manifest-corrupt" | "fragment-corrupt"
    detail: str


@dataclass
class IntegrityReport:
    """Typed result of an offline store audit (``repro verify-store``)."""

    root: str
    generation: Optional[int] = None
    files_checked: int = 0
    wal_records: int = 0
    fragments_checked: int = 0
    issues: List[IntegrityIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, detail: str) -> None:
        self.issues.append(IntegrityIssue(kind, detail))

    def to_payload(self) -> Dict[str, object]:
        return {"ok": self.ok, **asdict(self)}


def verify_store(root: str, ec_root: Optional[str] = None) -> IntegrityReport:
    """Audit a store root **offline** -- no store is built, nothing is
    repaired, nothing is mutated.

    Checks: committed manifest present and parseable at a supported
    version, every referenced data file matches its recorded CRC/size
    (streamed :data:`VERIFY_CHUNK_BYTES` at a time, so memory use is
    constant no matter how large the shards are), and the WAL is
    neither torn at its tail nor corrupt before it.
    With ``ec_root``, also verifies the erasure-coding manifest and
    every fragment it places against the fragment CRCs.  Each failure
    becomes one typed :class:`IntegrityIssue`; operators gate on
    :attr:`IntegrityReport.ok`."""
    report = IntegrityReport(root=root)
    try:
        manifest = read_manifest(os.path.join(root, MANIFEST_NAME))
    except ManifestCorruptError as exc:
        report.add("manifest-corrupt", str(exc))
        manifest = None
    if manifest is None:
        if not report.issues:
            report.add("manifest-missing",
                       f"no committed manifest under {root}")
    else:
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            report.add(
                "unsupported-version",
                f"manifest version {version!r}; this build reads "
                f"version {MANIFEST_VERSION}",
            )
        generation = manifest.get("generation")
        files = manifest.get("files")
        if isinstance(generation, int):
            report.generation = generation
        if not isinstance(files, dict):
            report.add("manifest-corrupt",
                       f"{root}: manifest lists no files object")
            files = {}
        for name in sorted(files):
            try:
                read_checked(os.path.join(root, name), files[name],
                             SnapshotCorruptError, keep=False)
            except SnapshotCorruptError as exc:
                report.add("file-corrupt", str(exc))
            report.files_checked += 1
    wal_path = os.path.join(root, WAL_FILENAME)
    try:
        records, torn = read_records(wal_path)
    except RecoveryError as exc:
        report.add("wal-corrupt", str(exc))
    else:
        report.wal_records = len(records)
        if torn:
            report.add(
                "wal-torn-tail",
                f"{wal_path}: trailing partial record (in-flight append "
                f"at crash; load_store would drop it)",
            )
    if ec_root is not None:
        _verify_ec_root(ec_root, report)
    return report


def _verify_ec_root(ec_root: str, report: IntegrityReport) -> None:
    """Fragment-layer half of :func:`verify_store`."""
    # Local import: persistence must stay importable below the ec
    # package (which reads snapshots through this module's helpers).
    from repro.ec.striping import (
        EC_MANIFEST_NAME,
        ECManifest,
        FragmentStore,
        server_store_root,
    )

    try:
        manifest = ECManifest.load(os.path.join(ec_root, EC_MANIFEST_NAME))
    except RecoveryError as exc:
        report.add("ec-manifest-corrupt", str(exc))
        return
    for name in sorted(manifest.files):
        stripe = manifest.files[name]
        for index, info in enumerate(stripe.fragments):
            store = FragmentStore(server_store_root(ec_root, info.server))
            try:
                store.read(name, index, info.crc32, info.bytes)
            except FragmentCorruptError as exc:
                report.add("fragment-corrupt", str(exc))
            report.fragments_checked += 1


def attach_wal(store: ZipG, root: str) -> WriteAheadLog:
    """Arm ``store`` with a write-ahead log under ``root``.

    Continues LSNs from any existing ``wal.log`` so a later
    :func:`load_store` replays exactly the un-snapshotted suffix.  A
    torn tail is truncated first; a log corrupt before its last record
    raises :class:`RecoveryError` and is left as it is."""
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, WAL_FILENAME)
    repair_torn_tail(path)
    records, _torn = read_records(path)
    manifest = read_manifest(os.path.join(root, MANIFEST_NAME)) or {}
    cutoff = manifest.get("wal_last_lsn")
    cutoff = cutoff if isinstance(cutoff, int) else 0
    last = records[-1].lsn if records else 0
    wal = WriteAheadLog(path, next_lsn=max(last, cutoff) + 1)
    store.attach_wal(wal)
    return wal
