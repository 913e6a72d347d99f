"""Length-prefixed binary framing over TCP sockets.

Wire format -- one frame per message::

    +----------------+----------------------+
    | length (4B BE) | payload (JSON, UTF-8)|
    +----------------+----------------------+

The length prefix is an unsigned 32-bit big-endian integer counting
payload bytes only.  Frames above :data:`MAX_FRAME_BYTES` are rejected
*before* any allocation happens (a hostile or corrupt length prefix
must not OOM the server), and a peer that disappears mid-frame is
distinguished from one that closed cleanly between frames:

* clean EOF at a frame boundary  -> :class:`ConnectionClosed`
* EOF inside a frame             -> :class:`TornFrame`
* length prefix over the cap     -> :class:`FrameTooLarge`
* undecodable payload            -> :class:`FrameError`

This is the **only** module in the tree allowed to perform raw socket
byte I/O (``send``/``sendall``/``recv``); analysis rule RPC001 flags
any other call site, so every wire interaction inherits these framing
guarantees and the chaos sites below.

Chaos sites: :func:`send_frame` routes its bytes through
``chaos.write_bytes`` at ``rpc.send`` (so ``torn_write`` rules model a
process dying mid-frame and ``crash`` rules one dying just before the
frame), and :func:`recv_frame` kicks ``rpc.recv`` (so ``error`` rules
-- e.g. ``error=ConnectionResetError`` -- and latency spikes strike
the read path).
"""
# zipg: robust-path

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional

from repro import chaos
from repro.core.errors import ZipGError

#: Hard cap on payload size; a length prefix above this is a protocol
#: violation, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size


class FrameError(ZipGError):
    """The peer violated the framing protocol (bad length, bad JSON)."""


class FrameTooLarge(FrameError):
    """A length prefix exceeded :data:`MAX_FRAME_BYTES`."""


class TornFrame(FrameError):
    """The connection ended in the middle of a frame."""


class ConnectionClosed(FrameError):
    """The peer closed the connection cleanly between frames."""


class _SocketWriter:
    """File-like adapter so ``chaos.write_bytes`` can tear socket
    sends exactly like it tears file writes."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def write(self, data: bytes) -> None:
        self._sock.sendall(data)

    def flush(self) -> None:
        """Sockets have no userspace buffer to flush."""


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one message into its on-wire frame."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"payload of {len(data)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(data)) + data


def send_frame(sock: socket.socket, payload: Dict[str, object],
               **tags: object) -> None:
    """Frame and send one message (chaos site ``rpc.send``)."""
    frame = encode_frame(payload)
    chaos.write_bytes(chaos.SITE_RPC_SEND, _SocketWriter(sock), frame, **tags)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes off the socket.

    Returns ``None`` on EOF *before the first byte* (a clean close if
    the caller was between frames); raises :class:`TornFrame` on EOF
    after a partial read."""
    chunks = []
    received = 0
    while received < count:
        chunk = sock.recv(min(65536, count - received))
        if not chunk:
            if received == 0:
                return None
            raise TornFrame(
                f"connection ended {received}/{count} bytes into a read"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, **tags: object) -> Dict[str, object]:
    """Receive and decode one frame (chaos site ``rpc.recv``)."""
    chaos.kick(chaos.SITE_RPC_RECV, **tags)
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        raise ConnectionClosed("peer closed the connection")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"length prefix {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise TornFrame("connection ended between header and payload")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload
