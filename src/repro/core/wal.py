"""Write-ahead log for LogStore mutations (§4.1 durability).

The paper persists NodeFiles/EdgeFiles as flat files; everything
between two snapshots lives only in the in-memory LogStore.  This WAL
closes that window: every store mutation appends one self-checksummed
record *before* it is applied, and :func:`repro.core.persistence.
load_store` replays the tail on recovery -- the LSM/WAL recovery
discipline (O'Neil et al.) applied to ZipG's single-LogStore design.

On-disk format -- one text line per record::

    <crc32:08x> <json [lsn, op, args]>\\n

The CRC covers the JSON payload, so a torn tail (crash mid-write) is
detected and dropped at replay instead of corrupting the store.  Every
record is flushed and fsync'd before the mutation is applied, so a
crash can tear only the *last* line: a bad line with another line
after it is damage to acknowledged writes, and reading the log raises
:class:`~repro.core.errors.RecoveryError` rather than dropping them.
Record ops mirror the ZipG mutation surface: ``node``, ``edge``,
``del_node``, ``del_edge``, plus ``freeze`` and ``compact`` so
structural events replay at the exact point they originally happened
(replay never re-triggers threshold freezes on its own).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import IO, List, Optional, Tuple

from repro import chaos, obs
from repro.core.errors import RecoveryError

#: Crash points exercised by the chaos suite: between a record landing
#: in the file and it being fsync'd, and right after the fsync.
CRASH_POINT_PRE_FSYNC = "wal.pre_fsync"
CRASH_POINT_POST_FSYNC = "wal.post_fsync"
CRASH_POINT_REPAIR = "wal.repair"

WAL_FILENAME = "wal.log"


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    lsn: int
    op: str
    args: List[object]


def _encode(record: WalRecord) -> bytes:
    payload = json.dumps([record.lsn, record.op, record.args],
                         separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n".encode("utf-8")


def _decode_line(line: bytes) -> Optional[WalRecord]:
    """Parse one line; ``None`` if torn/corrupt (bad shape, CRC, JSON)."""
    if not line.endswith(b"\n"):
        return None
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    try:
        crc = int(body[:8], 16)
    except ValueError:
        return None
    payload = body[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if (not isinstance(decoded, list) or len(decoded) != 3
            or not isinstance(decoded[0], int) or not isinstance(decoded[1], str)
            or not isinstance(decoded[2], list)):
        return None
    return WalRecord(decoded[0], decoded[1], decoded[2])


def _scan(path: str) -> Tuple[List[WalRecord], int, bool]:
    """``(records, valid_bytes, torn)`` for the WAL at ``path``: every
    record before a bad *final* line, the bytes they span, and whether
    that torn line exists.  A bad line followed by another line raises
    :class:`RecoveryError`.  A missing file is an empty, un-torn log."""
    records: List[WalRecord] = []
    valid = 0
    bad_line = 0
    if not os.path.exists(path):
        return records, valid, False
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if bad_line:
                raise RecoveryError(
                    f"{path}: record on line {bad_line} is corrupt and is "
                    f"not the last one; a crash tears only the tail, so "
                    f"the log is damaged (refusing to drop the "
                    f"acknowledged records after it)"
                )
            record = _decode_line(line)
            if record is None:
                bad_line = number
                continue
            records.append(record)
            valid += len(line)
    return records, valid, bool(bad_line)


def read_records(path: str) -> Tuple[List[WalRecord], bool]:
    """Every intact record of the WAL at ``path``.

    Returns ``(records, torn_tail)`` where ``torn_tail`` reports that a
    bad final line was dropped (a crash tore the last write).  Raises
    :class:`RecoveryError` when a bad line is not the last."""
    records, _valid, torn = _scan(path)
    if torn:
        obs.counter(
            "zipg_wal_torn_tail_total",
            help="WAL recoveries that dropped a torn trailing record",
        ).inc()
    return records, torn


def repair_torn_tail(path: str) -> bool:
    """Truncate a torn final record so future appends start on a clean
    record boundary (otherwise the next record would be glued onto the
    torn prefix and both would be lost).  Returns whether bytes were
    dropped.  Must be called before re-arming a recovered WAL for
    appends; pure readers skip the torn tail either way.  A log
    corrupt before its last record raises :class:`RecoveryError` and
    is never truncated."""
    _records, valid, torn = _scan(path)
    if not torn:
        return False
    size = os.path.getsize(path)
    chaos.crash_point(CRASH_POINT_REPAIR, valid_bytes=valid, torn_bytes=size - valid)
    with open(path, "r+b") as handle:
        handle.truncate(valid)
        handle.flush()
        os.fsync(handle.fileno())
    obs.counter(
        "zipg_wal_tail_repairs_total",
        help="torn WAL tails truncated before re-arming the log",
    ).inc()
    return True


class WriteAheadLog:
    """Appender for one store root's WAL file.

    LSNs are monotone across rotations; the snapshot manifest records
    the last LSN it covers, so replay after a crash between snapshot
    commit and WAL rotation skips already-snapshotted records instead
    of double-applying them."""

    def __init__(self, path: str, next_lsn: int = 1) -> None:
        self.path = path
        self._next_lsn = next_lsn
        self._handle: Optional[IO[bytes]] = None

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 if none ever)."""
        return self._next_lsn - 1

    def _ensure_open(self) -> IO[bytes]:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append_record(self, op: str, args: List[object]) -> int:
        """Durably append one record; returns its LSN.

        The record is written (torn-write injectable), then flushed and
        fsync'd, with chaos crash points on both sides of the fsync so
        tests can kill the process model at either instant."""
        lsn = self._next_lsn
        record = WalRecord(lsn, op, list(args))
        handle = self._ensure_open()
        chaos.write_bytes(chaos.SITE_WAL_WRITE, handle, _encode(record), lsn=lsn)
        handle.flush()
        self._next_lsn = lsn + 1
        obs.counter("zipg_wal_appends_total",
                    help="records appended to the write-ahead log").inc()
        chaos.crash_point(CRASH_POINT_PRE_FSYNC, lsn=lsn)
        os.fsync(handle.fileno())
        obs.counter("zipg_wal_fsyncs_total",
                    help="fsync calls issued by the write-ahead log").inc()
        chaos.crash_point(CRASH_POINT_POST_FSYNC, lsn=lsn)
        return lsn

    def rotate(self) -> None:
        """Truncate the log after a committed snapshot superseded it.

        LSNs keep counting up -- the manifest's ``wal_last_lsn`` is the
        replay cutoff, so truncation is safe at any time after commit."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
