"""Exception hierarchy for the ZipG store."""

from __future__ import annotations

from typing import List, Tuple


class ZipGError(Exception):
    """Base class for all ZipG errors."""


class GraphFormatError(ZipGError):
    """Input graph data violates a layout constraint (e.g. property
    values containing reserved control bytes)."""


class NodeNotFound(ZipGError, KeyError):
    """The queried NodeID does not exist (or has been deleted)."""


class EdgeRecordNotFound(ZipGError, KeyError):
    """No live EdgeRecord exists for the queried (NodeID, EdgeType)."""


class TooManyProperties(GraphFormatError):
    """The graph declares more distinct PropertyIDs than the delimiter
    space supports (625 with two-byte delimiters, §3.3 footnote 4)."""


# ----------------------------------------------------------------------
# Durability / recovery (§4.1 persistence + WAL)
# ----------------------------------------------------------------------


class RecoveryError(ZipGError):
    """A persisted store layout cannot be recovered as-is.

    Raised by :mod:`repro.core.persistence` when the on-disk state is
    torn, incomplete, or version-incompatible.  Subclasses identify the
    exact failure so operators (and tests) can distinguish "retry after
    fixing the path" from "the snapshot is gone"."""


class ManifestMissingError(RecoveryError):
    """No committed manifest exists under the store root."""


class ManifestCorruptError(RecoveryError):
    """The manifest exists but cannot be parsed or fails validation."""


class SnapshotCorruptError(RecoveryError):
    """A data file referenced by the manifest is missing, truncated,
    or fails its checksum (a torn or partial snapshot)."""


class UnsupportedVersionError(RecoveryError, ValueError):
    """The manifest's format version is not loadable by this build.

    Also a :class:`ValueError` for backward compatibility with callers
    that predate the typed recovery hierarchy."""


class FragmentCorruptError(RecoveryError):
    """An erasure-coded fragment is missing, truncated, or fails its
    manifest CRC.  Reconstruction treats the fragment as an erasure
    and decodes from the survivors; only the *loss of too many
    fragments* escalates to :class:`ReconstructionFailed`."""


class ReconstructionFailed(RecoveryError):
    """An erasure-coded snapshot file could not be reconstructed:
    fewer than ``k`` verified fragments were reachable, or the decoded
    payload failed the whole-file CRC.  Degraded reads surface this
    through the shard-error path (the data is temporarily gone, not
    silently wrong)."""


class StoreVersionConflictError(RecoveryError):
    """Refusing to overwrite a store root whose manifest was written by
    a *newer* format version -- saving would produce a mixed-version
    directory that neither build could recover."""


# ----------------------------------------------------------------------
# Fan-out / replication failure paths
# ----------------------------------------------------------------------


class ShardCallError(ZipGError):
    """A per-shard work item raised while fanning out a query."""


class TransportError(ShardCallError):
    """An RPC to a shard server failed at the transport layer.

    Covers connection refusal, resets mid-call, torn or oversized
    frames, and socket timeouts (``timeout_s`` is what bounds a stalled
    call).  Deliberately an :class:`Exception` (not a crash): the
    replicated cluster's failover treats it as one failed attempt and
    moves on to the next live replica."""


class GatewayError(ZipGError):
    """Base class for failures originating in the query gateway's
    admission/dispatch machinery (not in the store behind it)."""


class RetryAfter(GatewayError):
    """The gateway shed this request; retry after ``retry_after_s``.

    Raised (and wire-encoded, carrying the hint) when admission
    control rejects a request -- the tenant's queue is full or its
    token bucket is empty.  This is *structured* load shedding: the
    client knows the request never executed and knows when capacity is
    expected back, so open-loop drivers can implement honest retry
    schedules instead of hammering an overloaded front door."""

    def __init__(self, message: str = "", retry_after_s: float = 0.0,
                 reason: str = "overload") -> None:
        #: Seconds the client should wait before retrying.
        self.retry_after_s = float(retry_after_s)
        #: Shed cause: ``"queue_full"``, ``"rate_limit"``, ...
        self.reason = reason
        super().__init__(
            message or f"request shed ({reason}); "
                       f"retry after {self.retry_after_s:.3f}s"
        )


class GatewayClosed(GatewayError):
    """The gateway is draining for shutdown and admits nothing new.

    Requests admitted before the drain began still complete; this is
    only ever raised at the admission edge, never mid-flight."""


class RemoteError(ZipGError):
    """An exception raised on a remote server whose type has no local
    reconstruction.  Carries the remote type name and message."""

    def __init__(self, remote_type: str, message: str) -> None:
        self.remote_type = remote_type
        super().__init__(f"{remote_type}: {message}")


class ReplicaCallError(ZipGError):
    """Every live replica of a shard failed the attempted call.

    Carries the per-replica failure trail so degraded-query modes can
    surface structured errors instead of a bare traceback."""

    def __init__(self, shard_id: int, attempts: List[Tuple[int, BaseException]]) -> None:
        self.shard_id = shard_id
        #: ``(server_id, exception)`` pairs in the order tried.
        self.attempts = list(attempts)
        tried = ", ".join(
            f"server {server}: {type(exc).__name__}" for server, exc in self.attempts
        )
        super().__init__(
            f"all {len(self.attempts)} live replica call(s) for shard "
            f"{shard_id} failed ({tried})"
        )
