"""The publish side of the replica stream (docs/REPLICA.md).

A :class:`SnapshotPublisher` owns one TCP listener next to the
service's ingest and HTTP ports.  The window manager calls
:meth:`SnapshotPublisher.publish_boundary` under the engine lock at
every window close; the publisher stamps the boundary with the next
sequence number, turns it into one immutable DELTA frame (the report
records that boundary appended, the slim frequency summary, the sealed
window's ladder delta records) and fans it out to every subscriber
through a bounded per-subscriber queue.  A subscriber that cannot keep
up — its queue fills — is dropped, never buffered unboundedly; it will
reconnect and resume.

The last ``history`` DELTA frames are retained: a reconnecting replica
whose ``since`` still falls inside them resumes with exactly the missed
deltas, anything older gets a full SNAPSHOT sync built from the pinned
per-boundary state (so even a sync built mid-window describes exactly
the sequence it claims).  HEARTBEAT frames tick between boundaries so
replicas can bound their staleness while ingest is idle.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Optional, Sequence, Tuple

from repro.core.reports import report_to_dict
from repro.service.protocol import (
    MAGIC,
    decode_payload,
    encode_frame,
    read_frame,
)
from repro.errors import ServiceError
from repro.replica.protocol import parse_subscribe

#: Bounded fan-out queue per subscriber, in frames.  A replica this far
#: behind the write path is better served by drop-and-resync than by an
#: ever-growing buffer on the primary.
SUBSCRIBER_QUEUE_FRAMES = 64


class _Subscriber:
    """One connected replica: its socket and bounded frame queue."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=SUBSCRIBER_QUEUE_FRAMES
        )
        self.task: Optional[asyncio.Task] = None

    def enqueue(self, frame: dict) -> bool:
        try:
            self.queue.put_nowait(frame)
        except asyncio.QueueFull:
            return False
        return True


class SnapshotPublisher:
    """Sequenced slim-snapshot fan-out to read replicas.

    Args:
        host: interface to bind the publish listener to.
        port: TCP port (0 = ephemeral).
        history: DELTA frames retained for resume-from-sequence.
        heartbeat_seconds: HEARTBEAT cadence between boundaries.
        max_frame_bytes: inbound SUBSCRIBE frame size limit.
    """

    def __init__(self, host: str, port: int, *, history: int = 512,
                 heartbeat_seconds: float = 1.0,
                 max_frame_bytes: int = 8 * 1024 * 1024):
        self.host = host
        self.port = port
        self.heartbeat_seconds = heartbeat_seconds
        self.max_frame_bytes = max_frame_bytes
        #: sequence of the last published boundary (0 = none yet)
        self.seq = 0
        self.window = 0
        self.items_total = 0
        #: temporal store backing SNAPSHOT exports (set by the service)
        self.temporal_store = None
        # fan-out counters (collect_publisher / the primary's /metrics)
        self.deltas_sent = 0
        self.snapshots_sent = 0
        self.heartbeats_sent = 0
        self.disconnects = 0
        self.server: Optional[asyncio.base_events.Server] = None
        self._subscribers: set = set()
        self._history: deque = deque(maxlen=history)
        self._records: list = []
        self._summary = None
        self._temporal_pin = None
        self._heartbeat_task: Optional[asyncio.Task] = None

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._handle_subscriber, self.host, self.port,
            limit=max(65536, self.max_frame_bytes),
        )
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def stop(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
        for sub in list(self._subscribers):
            self._drop(sub, count=False)
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    # ------------------------------------------------------------------
    # boundary publishing (called under the engine lock, exactly once
    # per closed window, so each sequence maps to one boundary)

    def publish_boundary(self, snapshot, summary, ladder_deltas: Sequence[dict],
                         span: Optional[dict] = None) -> dict:
        """Stamp one window boundary and fan its DELTA frame out.

        ``snapshot`` is the manager's just-published
        :class:`~repro.service.window.ServiceSnapshot`; its report tuple
        is canonical and append-only, so the delta carries only the
        tail this boundary appended, and only that tail is rendered.
        ``span`` (tracing on) is the publish span's wire context; it
        rides the frame so the replica's apply span joins the window's
        trace tree across the process boundary.
        """
        reports = snapshot.reports
        known = len(self._records)
        if len(reports) < known:
            # The engine rebased its report stream (never in normal
            # operation).  Resume deltas can no longer describe it:
            # drop everyone and make every reconnect a full sync.
            self._history.clear()
            for sub in list(self._subscribers):
                self._drop(sub)
            new_reports = []
            self._records = [report_to_dict(report) for report in reports]
        else:
            new_reports = [report_to_dict(report) for report in reports[known:]]
            # A new list, never an in-place extend: a SNAPSHOT frame
            # being built holds the previous list across an await.
            self._records = self._records + new_reports
        self._summary = summary
        if self.temporal_store is not None:
            self._temporal_pin = self.temporal_store.snapshot
        self.seq += 1
        self.window = snapshot.window
        self.items_total = snapshot.items_at_boundary
        frame = {
            "type": "delta",
            "seq": self.seq,
            "window": self.window,
            "items_total": self.items_total,
            "new_reports": new_reports,
            "summary": summary,
            "ladder_deltas": list(ladder_deltas),
        }
        if span is not None:
            frame["span"] = span
        self._history.append(frame)
        for sub in list(self._subscribers):
            if sub.enqueue(frame):
                self.deltas_sent += 1
            else:
                self._drop(sub)
        return frame

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_seconds)
            frame = {
                "type": "heartbeat",
                "seq": self.seq,
                "window": self.window,
                "items_total": self.items_total,
            }
            for sub in list(self._subscribers):
                if sub.enqueue(frame):
                    self.heartbeats_sent += 1
                else:
                    self._drop(sub)

    def _drop(self, sub: _Subscriber, count: bool = True) -> None:
        if sub not in self._subscribers:
            return
        self._subscribers.discard(sub)
        if count:
            self.disconnects += 1
        if sub.task is not None and sub.task is not asyncio.current_task():
            sub.task.cancel()
        with contextlib.suppress(ConnectionError):
            sub.writer.close()

    # ------------------------------------------------------------------
    # subscriber connections

    def _covers(self, since: int) -> bool:
        """Can retained history resume a replica last at ``since``?"""
        if since > self.seq:
            return False
        if since == self.seq:
            return True
        return bool(self._history) and self._history[0]["seq"] <= since + 1

    async def _snapshot_frame(self) -> dict:
        """Full state at the last published boundary (SNAPSHOT frame).

        The scalars and report records are captured synchronously (one
        event-loop tick, so they all describe the same boundary); only
        the ladder export — built from the boundary's *pinned* temporal
        snapshot — runs off-thread.
        """
        seq, window, items_total = self.seq, self.window, self.items_total
        records, summary, pin = self._records, self._summary, self._temporal_pin
        temporal = None
        if self.temporal_store is not None:
            from repro.temporal.wire import export_ladder_state

            temporal = await asyncio.to_thread(
                export_ladder_state, self.temporal_store, pin
            )
        return {
            "type": "snapshot",
            "seq": seq,
            "window": window,
            "items_total": items_total,
            "reports": records,
            "summary": summary,
            "temporal": temporal,
        }

    async def _handle_subscriber(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readexactly(len(MAGIC))
            if head != MAGIC:
                raise ServiceError("replica stream requires the binary preamble")
            payload = await read_frame(reader, self.max_frame_bytes)
            if payload is None:
                raise ServiceError("subscriber closed before subscribing")
            since = parse_subscribe(decode_payload(payload))
        except (ServiceError, asyncio.IncompleteReadError, OSError):
            with contextlib.suppress(ConnectionError):
                writer.close()
            return
        sub = _Subscriber(writer)
        sub.task = asyncio.current_task()
        # Registered before the backlog is built: boundaries landing
        # mid-build queue behind it, and the replica dedups by sequence.
        self._subscribers.add(sub)
        try:
            if since is not None and self._covers(since):
                backlog = [f for f in self._history if f["seq"] > since]
                self.deltas_sent += len(backlog)
            else:
                backlog = [await self._snapshot_frame()]
                self.snapshots_sent += 1
            for frame in backlog:
                writer.write(encode_frame(frame))
                await writer.drain()
            while True:
                frame = await sub.queue.get()
                writer.write(encode_frame(frame))
                await writer.drain()
        except (ConnectionError, OSError):
            self._drop(sub)
        except asyncio.CancelledError:
            # _drop() cancelled us (slow consumer or shutdown); the
            # bookkeeping is already done.
            return
