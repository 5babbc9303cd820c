"""Wire protocol of the ingest listener.

Two self-describing variants share one port; the first four bytes of a
connection pick the mode:

Length-prefixed frames (binary, the fast path)
    The connection opens with the magic ``b"XSK1"``; every frame is a
    4-byte big-endian payload length followed by that many bytes of
    UTF-8 JSON.

Newline-delimited JSON (debuggable, ``netcat``-able)
    Anything else is treated as JSONL: one JSON document per ``\\n``
    terminated line.

Both variants carry the same messages:

``["a", "b", ...]`` or ``{"items": [...]}``
    A batch of arrivals.  ``{"items": [...], "seq": n}`` additionally
    carries a global sequence number for *ordered ingest*: the service
    admits sequenced batches in exactly ``seq`` order regardless of
    which connection they arrive on, which makes a multi-connection
    replay byte-deterministic.
``{"op": "flush"}``
    Close the open window now (count/tick advance still applies).
``{"op": "shutdown"}``
    Ask the service to drain and stop after this connection finishes.

On clean end-of-stream the server replies with a single acknowledgement
message — ``{"received": n, "dropped": m}`` — as one frame (binary
mode) or one line (JSONL mode), then closes.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.hashing.family import ItemId

#: Connection preamble selecting the length-prefixed binary mode.
MAGIC = b"XSK1"

_LENGTH = struct.Struct(">I")

#: Parsed ingest message: ("batch", items, seq) | ("flush",) | ("shutdown",)
Message = Tuple

#: Integer item IDs hash as signed 64-bit values
#: (:func:`repro.hashing.family.encode_item`).
INT_ITEM_MIN = -(1 << 63)
INT_ITEM_MAX = (1 << 63) - 1


def encode_payload(message: Union[dict, list]) -> bytes:
    """Compact UTF-8 JSON encoding shared by both wire modes."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def encode_frame(message: Union[dict, list]) -> bytes:
    """One binary frame: big-endian length prefix + JSON payload."""
    payload = encode_payload(message)
    return _LENGTH.pack(len(payload)) + payload


def encode_line(message: Union[dict, list]) -> bytes:
    """One JSONL line (newline terminated)."""
    return encode_payload(message) + b"\n"


def batch_message(
    items: Sequence[ItemId], seq: Optional[int] = None
) -> Union[dict, list]:
    """The message shape for a batch (bare list unless sequenced)."""
    if seq is None:
        return list(items)
    return {"items": list(items), "seq": seq}


def parse_message(obj) -> Message:
    """Validate one decoded JSON document into a protocol message."""
    if isinstance(obj, list):
        return ("batch", _validated_items(obj), None)
    if isinstance(obj, dict):
        if "op" in obj:
            op = obj["op"]
            if op == "flush":
                return ("flush",)
            if op == "shutdown":
                return ("shutdown",)
            raise ServiceError(f"unknown op {op!r}")
        if "items" in obj:
            seq = obj.get("seq")
            if seq is not None and (
                not isinstance(seq, int) or isinstance(seq, bool) or seq < 0
            ):
                raise ServiceError(f"seq must be a non-negative integer, got {seq!r}")
            return ("batch", _validated_items(obj["items"]), seq)
    raise ServiceError(f"unrecognized message shape: {type(obj).__name__}")


def _validated_items(items) -> List[ItemId]:
    """Check every item, not just distinct ones: downstream collapsing
    would fold ``1.0`` and ``True`` into the key ``1``."""
    if not isinstance(items, list):
        raise ServiceError(f"items must be a list, got {type(items).__name__}")
    for item in items:
        if isinstance(item, str):
            continue
        if not isinstance(item, int) or isinstance(item, bool):
            raise ServiceError(
                f"item IDs must be strings or integers, got {type(item).__name__}"
            )
        if not INT_ITEM_MIN <= item <= INT_ITEM_MAX:
            raise ServiceError(f"integer item IDs must fit in 64 bits, got {item}")
    return items


def decode_payload(payload: bytes):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed JSON payload: {exc}") from exc


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int
) -> Optional[bytes]:
    """Read one length-prefixed payload; None on clean end-of-stream."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ServiceError("truncated frame header") from exc
        return None
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise ServiceError(f"frame of {length} bytes exceeds limit {max_bytes}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ServiceError("truncated frame payload") from exc


async def read_lines(
    reader: asyncio.StreamReader, initial: bytes, max_bytes: int
):
    """Yield raw JSONL lines, starting from already-consumed ``initial``."""
    buffer = initial
    while True:
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            line = line.strip()
            if line:
                yield line
        if len(buffer) > max_bytes:
            raise ServiceError(f"line exceeds limit {max_bytes} bytes")
        chunk = await reader.read(65536)
        if not chunk:
            tail = buffer.strip()
            if tail:
                yield tail
            return
        buffer += chunk


def iter_window_batches(
    window: Sequence[ItemId], batch_size: int
) -> Iterable[List[ItemId]]:
    """Slice one window into wire batches that never straddle windows."""
    if batch_size <= 0:
        raise ServiceError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, len(window), batch_size):
        yield list(window[start:start + batch_size])
