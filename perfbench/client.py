"""The load generator's side of the wire: ingest, queries and the subscriber.

Everything here runs on ``run.py``'s one event loop and speaks only the
service's public protocols: XSK1 frames on the ingest port, HTTP/1.1 on
the query port and the replica stream on the publish port.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.errors import ServiceError
from repro.replica.protocol import subscribe_message
from repro.service.protocol import MAGIC, encode_frame, read_frame

#: seconds any single wire operation may take before the run fails
IO_TIMEOUT = 60.0

#: largest frame accepted from the service (a SNAPSHOT carries every report)
MAX_FRAME_BYTES = 64 * 1024 * 1024


async def read_message(reader: asyncio.StreamReader):
    """One decoded frame, or None at end of stream."""
    payload = await read_frame(reader, MAX_FRAME_BYTES)
    return None if payload is None else json.loads(payload)


async def send_window(port: int, frame_groups):
    """One closed-loop request: a window's frames, then the acks.

    ``frame_groups`` holds one list of frames per connection.  Returns
    ``(sent_at, acked_at, acks)``: when the last frame left, when the
    last ack arrived, and the acks themselves.
    """
    streams = [
        await asyncio.open_connection("127.0.0.1", port) for _ in frame_groups
    ]
    try:
        for (_, writer), frames in zip(streams, frame_groups):
            writer.write(MAGIC + b"".join(frames))
        for _, writer in streams:
            await writer.drain()
            writer.write_eof()
        sent_at = time.perf_counter()
        acks = [
            await asyncio.wait_for(read_message(reader), IO_TIMEOUT)
            for reader, _ in streams
        ]
        return sent_at, time.perf_counter(), acks
    finally:
        for _, writer in streams:
            writer.close()


async def http_get(port: int, path: str):
    """``(status, body bytes)`` of one GET (the service closes after each)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        await writer.drain()
        data = await asyncio.wait_for(reader.read(), IO_TIMEOUT)
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, body


async def get_json(port: int, path: str):
    status, body = await http_get(port, path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


async def get_text(port: int, path: str) -> str:
    status, body = await http_get(port, path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body.decode("utf-8")


class Subscriber:
    """A passive replica-protocol subscriber that only listens.

    Notes when each frame arrives and keeps its raw payload; the frames
    are decoded after the run, so a large DELTA costs the load generator no
    time while the load is running.  ``collect`` then yields what a
    replica would serve (the report records the stream carried), each
    window's DELTA arrival time, and the re-syncs: a dropped link is
    resumed from the last sequence seen, and a sequence gap or any
    SNAPSHOT after the first one counts as a re-sync.
    """

    def __init__(self, port: int):
        self.port = port
        self.frames = []
        self.links = 0
        self.first_snapshot = asyncio.Event()
        self.task = None

    def start(self) -> None:
        self.task = asyncio.create_task(self._run())

    def _last_seq(self):
        for _, payload in reversed(self.frames):
            frame = json.loads(payload)
            if frame["type"] in ("snapshot", "delta"):
                return frame["seq"]
        return None

    async def _run(self) -> None:
        while True:
            since = self._last_seq()
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.links += 1
            try:
                writer.write(MAGIC + encode_frame(subscribe_message(since)))
                await writer.drain()
                while True:
                    payload = await read_frame(reader, MAX_FRAME_BYTES)
                    if payload is None:
                        break
                    self.frames.append((time.perf_counter(), payload))
                    self.first_snapshot.set()
            except (ConnectionError, ServiceError):
                pass
            finally:
                writer.close()

    def collect(self) -> dict:
        seq = None
        reports = []
        arrivals = {}
        resyncs = self.links - 1
        snapshots = 0
        for arrived, payload in self.frames:
            frame = json.loads(payload)
            if frame["type"] == "snapshot":
                snapshots += 1
                resyncs += snapshots > 1
                seq = frame["seq"]
                reports = list(frame["reports"])
            elif frame["type"] == "delta":
                if seq is not None and frame["seq"] <= seq:
                    continue
                if seq is not None and frame["seq"] != seq + 1:
                    resyncs += 1
                seq = frame["seq"]
                reports.extend(frame["new_reports"])
                arrivals[frame["window"]] = arrived
        return {"reports": reports, "arrivals": arrivals, "resyncs": resyncs}

    async def wait_window(self, window: int, timeout: float) -> bool:
        """Wait until the frame of ``window`` (closed count) has arrived."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.frames and json.loads(self.frames[-1][1])["window"] >= window:
                return True
            await asyncio.sleep(0.01)
        return False

    async def stop(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
