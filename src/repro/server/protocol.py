"""RPC envelopes and the wire codec for query values and errors.

Requests and responses are JSON objects carried in :mod:`ipc` frames::

    request:  {"id": 7, "method": "find_live_nodes", "unit": 2,
               "args": [...], "kwargs": {...}, "trace": {...}}
    response: {"id": 7, "ok": true,  "value": <encoded>}
              {"id": 7, "ok": false, "error": <encoded exception>}

``id`` pairs a response with its request: every server role (shard,
master, gateway) answers one connection in arrival order and no caller
pipelines, so a response carrying any other id means the peer broke
the contract (:class:`RpcConnection` checks).  ``trace`` carries the
caller's :mod:`repro.obs` span context (trace id + span id) so server
spans attach to the originating query's trace.

The value codec round-trips everything the query surface returns --
tuples, sets, :class:`~repro.core.model.EdgeData`, degraded
:class:`~repro.cluster.replication.PartialResult` values -- through a
``{"__zipg__": <tag>, ...}`` tagging scheme, and reconstructs typed
exceptions on the client from a registry of ZipG error classes (an
unknown remote type degrades to :class:`~repro.core.errors.RemoteError`
rather than losing the failure).
"""
# zipg: robust-path
# zipg: exception-registry

from __future__ import annotations

import base64
import itertools
import socket
from typing import Dict, List, Optional, Tuple, Type

from repro.core.errors import (
    EdgeRecordNotFound,
    FragmentCorruptError,
    GatewayClosed,
    GatewayError,
    GraphFormatError,
    ManifestCorruptError,
    ManifestMissingError,
    NodeNotFound,
    ReconstructionFailed,
    RecoveryError,
    RemoteError,
    ReplicaCallError,
    RetryAfter,
    ShardCallError,
    SnapshotCorruptError,
    TooManyProperties,
    TransportError,
    UnsupportedVersionError,
    ZipGError,
)
from repro.core.model import EdgeData
from repro.server import ipc

_TAG = "__zipg__"

#: Exception types reconstructed by name on the receiving side.  The
#: chaos FaultInjected type registers itself lazily (import cycle).
_EXCEPTION_TYPES: Dict[str, Type[BaseException]] = {
    exc.__name__: exc
    for exc in (
        ZipGError,
        GraphFormatError,
        NodeNotFound,
        EdgeRecordNotFound,
        ShardCallError,
        TransportError,
        RecoveryError,
        ManifestCorruptError,
        ManifestMissingError,
        SnapshotCorruptError,
        UnsupportedVersionError,
        FragmentCorruptError,
        ReconstructionFailed,
        TooManyProperties,
        GatewayError,
        GatewayClosed,
        RetryAfter,
        ipc.FrameError,
        ipc.FrameTooLarge,
        ipc.TornFrame,
        ipc.ConnectionClosed,
        KeyError,
        ValueError,
        IndexError,
        RuntimeError,
        TypeError,
        AssertionError,
        ConnectionResetError,
        TimeoutError,
    )
}


def register_exception(exc_type: Type[BaseException]) -> None:
    """Add a type to the wire-decodable exception registry."""
    _EXCEPTION_TYPES[exc_type.__name__] = exc_type


def _registered_types() -> Dict[str, Type[BaseException]]:
    if "FaultInjected" not in _EXCEPTION_TYPES:
        from repro.chaos import FaultInjected

        _EXCEPTION_TYPES["FaultInjected"] = FaultInjected
    if "ShardUnavailable" not in _EXCEPTION_TYPES:
        from repro.cluster.replication import ShardUnavailable

        _EXCEPTION_TYPES["ShardUnavailable"] = ShardUnavailable
    if "ParseError" not in _EXCEPTION_TYPES:
        from repro.query.parser import ParseError

        _EXCEPTION_TYPES["ParseError"] = ParseError
    return _EXCEPTION_TYPES


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------


def encode_value(value: object) -> object:
    """Lower ``value`` into JSON-safe form (tagged where needed)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        # Binary payloads (erasure-coded fragments) ride as base64 --
        # the envelope stays pure JSON for every transport.
        return {
            _TAG: "bytes",
            "v": base64.b64encode(bytes(value)).decode("ascii"),
        }
    if isinstance(value, EdgeData):
        return {
            _TAG: "edgedata",
            "d": value.destination,
            "t": value.timestamp,
            "p": dict(value.properties),
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {_TAG: "set", "v": [encode_value(item) for item in sorted(value)]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and _TAG not in value:
            return {key: encode_value(item) for key, item in value.items()}
        return {
            _TAG: "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, BaseException):
        return encode_exception(value)
    from repro.cluster.replication import PartialResult, ShardError

    if isinstance(value, PartialResult):
        return {
            _TAG: "partial",
            "value": encode_value(value.value),
            "errors": [encode_value(error) for error in value.errors],
            "attempted": value.attempted,
        }
    if isinstance(value, ShardError):
        return {
            _TAG: "sharderror",
            "shard_id": value.shard_id,
            "error": encode_exception(value.error),
            "servers_tried": list(value.servers_tried),
        }
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {key: decode_value(item) for key, item in value.items()}
    if tag == "bytes":
        return base64.b64decode(str(value["v"]).encode("ascii"))
    if tag == "edgedata":
        return EdgeData(value["d"], value["t"], dict(value["p"]))
    if tag == "tuple":
        return tuple(decode_value(item) for item in value["v"])
    if tag == "set":
        return {decode_value(item) for item in value["v"]}
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in value["v"]}
    if tag == "error":
        return decode_exception(value)
    if tag == "partial":
        from repro.cluster.replication import PartialResult

        return PartialResult(
            decode_value(value["value"]),
            [decode_value(error) for error in value["errors"]],
            attempted=value["attempted"],
        )
    if tag == "sharderror":
        from repro.cluster.replication import ShardError

        return ShardError(
            value["shard_id"],
            decode_exception(value["error"]),
            list(value["servers_tried"]),
        )
    raise FrameDecodeError(f"unknown wire tag {tag!r}")


class FrameDecodeError(ipc.FrameError):
    """A structurally valid frame carried an undecodable value."""


register_exception(FrameDecodeError)


# ----------------------------------------------------------------------
# Exception codec
# ----------------------------------------------------------------------


def encode_exception(exc: BaseException) -> Dict[str, object]:
    encoded: Dict[str, object] = {
        _TAG: "error",
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ReplicaCallError):
        encoded["shard_id"] = exc.shard_id
        encoded["attempts"] = [
            [server, encode_exception(attempt)] for server, attempt in exc.attempts
        ]
    if isinstance(exc, RetryAfter):
        # The shed hint must survive the wire: clients schedule their
        # retries off it.
        encoded["retry_after_s"] = exc.retry_after_s
        encoded["reason"] = exc.reason
    if isinstance(exc, RemoteError):
        # Re-forwarding an already-remote error keeps the original type.
        encoded["type"] = exc.remote_type
    return encoded


def decode_exception(encoded: Dict[str, object]) -> BaseException:
    type_name = str(encoded.get("type", "Exception"))
    message = str(encoded.get("message", ""))
    if type_name == "RetryAfter":
        return RetryAfter(
            message,
            retry_after_s=float(encoded.get("retry_after_s", 0.0)),
            reason=str(encoded.get("reason", "overload")),
        )
    if type_name == "ReplicaCallError":
        attempts: List[Tuple[int, BaseException]] = [
            (server, decode_exception(attempt))
            for server, attempt in encoded.get("attempts", [])
        ]
        return ReplicaCallError(int(encoded.get("shard_id", -2)), attempts)
    exc_type = _registered_types().get(type_name)
    if exc_type is None:
        return RemoteError(type_name, message)
    try:
        return exc_type(message)
    except Exception:  # ctor with extra required args
        return RemoteError(type_name, message)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


def make_request(request_id: int, method: str, args: List[object],
                 unit: Optional[int] = None,
                 kwargs: Optional[Dict[str, object]] = None,
                 trace: Optional[Dict[str, str]] = None,
                 extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    request: Dict[str, object] = {
        "id": request_id,
        "method": method,
        "args": [encode_value(arg) for arg in args],
    }
    if unit is not None:
        request["unit"] = unit
    if kwargs:
        request["kwargs"] = {k: encode_value(v) for k, v in kwargs.items()}
    if trace:
        request["trace"] = trace
    if extra:
        # Envelope-level fields (e.g. the gateway's "tenant") -- never
        # allowed to shadow the reserved envelope keys above.
        for key, value in extra.items():
            request.setdefault(key, value)
    return request


def make_response(request_id: int, value: object) -> Dict[str, object]:
    return {"id": request_id, "ok": True, "value": encode_value(value)}


def make_error_response(request_id: int, exc: BaseException) -> Dict[str, object]:
    return {"id": request_id, "ok": False, "error": encode_exception(exc)}


def unpack_response(response: Dict[str, object]) -> object:
    """The response's value, or raise its reconstructed exception."""
    if response.get("ok"):
        return decode_value(response.get("value"))
    error = response.get("error")
    if not isinstance(error, dict):
        raise FrameDecodeError(f"malformed error response: {response!r}")
    raise decode_exception(error)


# ----------------------------------------------------------------------
# Connection
# ----------------------------------------------------------------------


class RpcConnection:
    """One framed RPC connection, one request in flight at a time.

    A round trip is send, then receive: servers answer a connection in
    arrival order, so the next frame is this request's response.  Not
    safe to share between threads -- callers pool one connection per
    in-flight call (:class:`~repro.server.transport._ConnectionPool`).
    """

    _ids = itertools.count(1)

    def __init__(self, sock: socket.socket,
                 tags: Optional[Dict[str, object]] = None) -> None:
        self._sock = sock
        #: Extra chaos-site tags stamped on every frame this connection
        #: sends or receives (e.g. ``server=2``), so fault rules can
        #: target one peer.
        self._tags = dict(tags or {})

    @classmethod
    def connect(cls, host: str, port: int,
                timeout_s: Optional[float] = None,
                tags: Optional[Dict[str, object]] = None) -> "RpcConnection":
        sock = socket.create_connection((host, port), timeout=timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, tags=tags)

    def round_trip(self, method: str, args: List[object],
                   unit: Optional[int] = None,
                   kwargs: Optional[Dict[str, object]] = None,
                   trace: Optional[Dict[str, str]] = None,
                   extra: Optional[Dict[str, object]] = None
                   ) -> Dict[str, object]:
        """Send one request and return its raw response frame."""
        request_id = next(self._ids)
        request = make_request(request_id, method, args, unit=unit,
                               kwargs=kwargs, trace=trace, extra=extra)
        ipc.send_frame(self._sock, request, method=method, **self._tags)
        response = ipc.recv_frame(self._sock, **self._tags)
        if response.get("id") != request_id:
            raise FrameDecodeError(
                f"response for another request: {response!r}"
            )
        return response

    def close(self) -> None:
        """Idempotent (closing a closed socket is a no-op)."""
        try:
            self._sock.close()
        except OSError:
            pass  # zipg: ignore[ROBUST001] - advisory cleanup

    def __enter__(self) -> "RpcConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
