"""The read replica: a slim HTTP query tier fed by the replica stream.

A :class:`ReplicaServer` owns one subscriber link and one HTTP listener.
The link task applies SNAPSHOT/DELTA frames into a single immutable
:class:`ReplicaState`; every query route reads ``self.state`` exactly
once and answers entirely from that object — *sequence pinning*: a
query started at sequence ``n`` keeps answering from ``n`` even while
newer deltas land, and two reads of one state can never disagree.

``/reports``, ``/reports?range=a:b`` and ``/history`` render through
the same builders as the primary (:mod:`repro.service.http`), so at an
equal ``snapshot_seq`` the bodies are byte-identical to the primary's.
``/healthz`` surfaces the staleness triple (``snapshot_seq``,
``snapshot_age_windows``, ``connected``) plus the replica SLO summary;
``/metrics`` exposes the ``replica_*`` family plus the mirrored
ladder's ``temporal_*`` metrics; ``/slo`` reports burn rates for the
staleness and link objectives, and ``/trace`` (with ``trace=True``)
serves the apply spans continuing the primary's window trace trees.

The link self-heals: a lost connection reconnects with
``since = state.seq`` and catches up via retained DELTA frames when the
publisher still holds them, falling back to a full SNAPSHOT sync when
it is too far behind (or after a ladder divergence, which forces a full
resync rather than looping on a poisoned delta).  ``POST
/disconnect?pause=S`` severs the link on purpose — the CI smoke test's
staleness drill — and resumes after ``S`` seconds.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.reports import report_from_dict
from repro.errors import ConfigurationError, ReproError
from repro.obs.collect import collect_replica, collect_temporal, collect_trace_ring
from repro.obs.expo import render_text
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloEngine, replica_objectives
from repro.obs.spans import Tracer, new_span_id
from repro.replica.subscriber import frames, open_subscription
from repro.service.config import DEFAULT_MAX_FRAME_BYTES
from repro.service.http import (
    history_response,
    make_http_handler,
    query_float,
    reports_response,
    slo_response,
    trace_response,
    BadParameter,
)
from repro.temporal.wire import (
    apply_window_delta,
    import_ladder_state,
    snapshot_range_reports,
)


@dataclass(frozen=True)
class ReplicaConfig:
    """Everything a read replica needs.

    Attributes:
        subscribe_host: publisher host to subscribe to.
        subscribe_port: publisher port (the primary's ``publish_port``).
        host: interface to bind the replica's HTTP listener to.
        http_port: HTTP query port (0 = ephemeral).
        reconnect_seconds: delay between reconnect attempts.
        max_frame_bytes: inbound frame size limit (match the primary's).
        trace: record an ``apply.delta`` span for every DELTA frame
            carrying a publish-span context, continuing the primary's
            window trace tree across the process boundary (``GET
            /trace`` on the replica).  Off by default.
        trace_capacity: bounded span-sink size (events).
    """

    subscribe_host: str
    subscribe_port: int
    host: str = "127.0.0.1"
    http_port: int = 0
    reconnect_seconds: float = 0.5
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    trace: bool = False
    trace_capacity: int = 4096

    def __post_init__(self) -> None:
        if not 0 < self.subscribe_port <= 65535:
            raise ConfigurationError(
                f"subscribe_port must be in [1, 65535], got {self.subscribe_port}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.reconnect_seconds <= 0:
            raise ConfigurationError(
                f"reconnect_seconds must be positive, got {self.reconnect_seconds}"
            )
        if self.max_frame_bytes <= 0:
            raise ConfigurationError(
                f"max_frame_bytes must be positive, got {self.max_frame_bytes}"
            )
        if self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )


@dataclass(frozen=True)
class ReplicaState:
    """One applied snapshot sequence: the whole query surface, frozen."""

    #: publisher sequence this state reproduces
    seq: int
    #: windows closed on the primary at that sequence
    window: int
    #: items ingested on the primary at that sequence
    items_total: int
    #: canonical report stream (rehydrated, primary order)
    reports: Tuple
    #: slim frequency summary of the merged sketch (may be None)
    summary: Optional[dict]
    #: pinned mirror-ladder snapshot (None without a temporal tier)
    temporal: object


class _Resync(Exception):
    """Tear the link down and reconnect (``full`` forces a SNAPSHOT)."""

    def __init__(self, reason: str, full: bool = False):
        super().__init__(reason)
        self.full = full


class ReplicaServer:
    """Serve the primary's read routes from a streamed slim snapshot."""

    def __init__(self, config: ReplicaConfig):
        self.config = config
        #: the pinned query surface (None until the first sync lands)
        self.state: Optional[ReplicaState] = None
        #: True while the subscriber link is up
        self.connected = False
        # lifetime counters (collect_replica / this replica's /metrics)
        self.full_syncs = 0
        self.deltas_applied = 0
        self.heartbeats = 0
        self.reconnects = 0
        self.queries = 0
        #: severed/poisoned links seen (the latest reason kept for /stats)
        self.link_errors = 0
        self.last_link_error: Optional[str] = None
        #: the replica's own span sink; apply spans continue the trees
        #: whose publish contexts ride the DELTA frames
        self.tracer: Optional[Tracer] = None
        if config.trace:
            self.tracer = Tracer(
                capacity=config.trace_capacity, proc="replica"
            )
        #: burn-rate evaluator over the replica's collector view
        self.slo = SloEngine(replica_objectives(), self._slo_registry)
        #: mirror of the primary's ladder (advanced by deltas)
        self._store = None
        #: publisher's window as last seen on any frame (staleness bound)
        self._publisher_window = 0
        self._force_full = False
        self._pause_until: Optional[float] = None
        self._link_writer: Optional[asyncio.StreamWriter] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._sync_task: Optional[asyncio.Task] = None
        self._synced = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._http_server = await asyncio.start_server(
            make_http_handler(self._route), self.config.host,
            self.config.http_port,
        )
        self._sync_task = asyncio.create_task(self._sync_loop())

    async def stop(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sync_task
        self._sever()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()

    async def __aenter__(self) -> "ReplicaServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    async def wait_synced(self) -> None:
        """Block until the first snapshot sequence has been applied."""
        await self._synced.wait()

    @property
    def http_address(self) -> Tuple[str, int]:
        sock = self._http_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def snapshot_age_windows(self) -> int:
        """Publisher windows the pinned state is known to trail by."""
        if self.state is None:
            return 0
        return max(0, self._publisher_window - self.state.window)

    # ------------------------------------------------------------------
    # subscriber link

    def _sever(self) -> None:
        if self._link_writer is not None:
            with contextlib.suppress(ConnectionError):
                self._link_writer.close()
            self._link_writer = None

    async def _sync_loop(self) -> None:
        loop = asyncio.get_running_loop()
        first_attempt = True
        while True:
            if self._pause_until is not None:
                delay = self._pause_until - loop.time()
                self._pause_until = None
                if delay > 0:
                    await asyncio.sleep(delay)
            if not first_attempt:
                self.reconnects += 1
                await asyncio.sleep(self.config.reconnect_seconds)
            first_attempt = False
            since = None
            if not self._force_full and self.state is not None:
                since = self.state.seq
            try:
                reader, writer = await open_subscription(
                    self.config.subscribe_host, self.config.subscribe_port,
                    since, self.config.max_frame_bytes,
                )
            except OSError:
                continue
            self._link_writer = writer
            self.connected = True
            try:
                async for frame in frames(reader, self.config.max_frame_bytes):
                    self._publisher_window = max(
                        self._publisher_window, frame["window"]
                    )
                    if frame["type"] == "heartbeat":
                        self.heartbeats += 1
                    elif frame["type"] == "snapshot":
                        self._apply_snapshot(frame)
                    else:
                        self._apply_delta(frame)
            except _Resync as exc:
                self._force_full = exc.full
            except (ReproError, OSError, asyncio.IncompleteReadError) as exc:
                # Lost or poisoned link: remember why, reconnect, and
                # let the publisher pick resume vs full sync.
                self.link_errors += 1
                self.last_link_error = f"{type(exc).__name__}: {exc}"
            finally:
                self.connected = False
                self._sever()

    def _apply_snapshot(self, frame: dict) -> None:
        self._store = (
            import_ladder_state(frame["temporal"])
            if frame.get("temporal") is not None else None
        )
        self._install_state(
            frame,
            reports=tuple(report_from_dict(r) for r in frame["reports"]),
            summary=frame["summary"],
        )
        self.full_syncs += 1
        self._force_full = False

    def _apply_delta(self, frame: dict) -> None:
        state = self.state
        if state is None:
            raise _Resync("delta before any snapshot", full=True)
        if frame["seq"] <= state.seq:
            return  # duplicate around a resume; already applied
        if frame["seq"] != state.seq + 1:
            raise _Resync(
                f"sequence gap: applied {state.seq}, received {frame['seq']}"
            )
        apply_start = time.perf_counter()
        if self._store is not None:
            try:
                for record in frame["ladder_deltas"]:
                    apply_window_delta(self._store, record)
            except ReproError as exc:
                # A diverged mirror would hit the same error on every
                # resume; only a fresh full sync can heal it.
                raise _Resync(f"ladder divergence: {exc}", full=True) from exc
        self._install_state(
            frame,
            reports=state.reports + tuple(
                report_from_dict(r) for r in frame["new_reports"]
            ),
            summary=frame["summary"],
        )
        self.deltas_applied += 1
        span_ctx = frame.get("span")
        if self.tracer is not None and span_ctx is not None:
            # Continue the primary's window tree: parented to the
            # publish span whose context rode the frame.  The replica
            # has no clock synced to the primary, so the span starts at
            # the publish timestamp and the duration is its own
            # perf-counter measurement of the apply.
            self.tracer.emit(
                "replica.apply",
                trace_id=span_ctx["trace_id"],
                span_id=new_span_id(),
                parent_id=span_ctx["span_id"],
                ts=span_ctx["ts"],
                dur=time.perf_counter() - apply_start,
                seq=frame["seq"],
                window=frame["window"],
            )

    def _install_state(self, frame: dict, reports: tuple, summary) -> None:
        self.state = ReplicaState(
            seq=frame["seq"],
            window=frame["window"],
            items_total=frame["items_total"],
            reports=reports,
            summary=summary,
            temporal=self._store.snapshot if self._store is not None else None,
        )
        self._synced.set()

    # ------------------------------------------------------------------
    # HTTP query path (every route pins self.state once)

    async def _route(self, method: str, path: str, query: dict, body: bytes):
        if path == "/healthz":
            state = self.state
            if state is None:
                return 503, {"status": "syncing", "connected": self.connected}
            return 200, {
                "status": "ok" if self.connected else "stale",
                "connected": self.connected,
                "snapshot_seq": state.seq,
                "snapshot_window": state.window,
                "snapshot_age_windows": self.snapshot_age_windows,
                "items_total": state.items_total,
                "source": (
                    f"{self.config.subscribe_host}:{self.config.subscribe_port}"
                ),
                "slo": self.slo.summary(),
            }
        if path == "/reports":
            if method != "GET":
                return 405, {"error": "GET only"}
            state = self.state
            if state is None:
                return 503, {"error": "replica has not synced yet"}
            self.queries += 1
            range_reports = None
            if state.temporal is not None:
                temporal = state.temporal
                range_reports = (
                    lambda a, b: snapshot_range_reports(temporal, a, b)
                )
            return reports_response(
                state.window, state.reports, query, range_reports
            )
        if path == "/history":
            if method != "GET":
                return 405, {"error": "GET only"}
            state = self.state
            if state is None:
                return 503, {"error": "replica has not synced yet"}
            self.queries += 1
            return history_response(state.temporal, query)
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            self.queries += 1
            return 200, self._replica_stats()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}
            registry = MetricsRegistry()
            collect_replica(self, registry)
            if self._store is not None:
                collect_temporal(self._store, registry)
            if self.tracer is not None:
                collect_trace_ring(self.tracer, registry)
            return 200, render_text(registry)
        if path == "/trace":
            if method != "GET":
                return 405, {"error": "GET only"}
            return trace_response(self.tracer, query)
        if path == "/slo":
            if method != "GET":
                return 405, {"error": "GET only"}
            return slo_response(self.slo)
        if path == "/disconnect":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                pause = query_float(query, "pause", default=0.0, minimum=0.0)
            except BadParameter as exc:
                return 400, {"error": str(exc)}
            loop = asyncio.get_running_loop()
            self._pause_until = loop.time() + pause
            self._sever()
            return 200, {"disconnected": True, "pause": pause}
        return 404, {"error": f"unknown path {path!r}"}

    def _slo_registry(self) -> MetricsRegistry:
        """The registry the replica's SLO engine reads (no link I/O)."""
        registry = MetricsRegistry()
        collect_replica(self, registry)
        return registry

    def _replica_stats(self) -> dict:
        state = self.state
        stats = {
            "connected": self.connected,
            "snapshot_seq": state.seq if state is not None else None,
            "snapshot_window": state.window if state is not None else None,
            "snapshot_age_windows": self.snapshot_age_windows,
            "items_total": state.items_total if state is not None else 0,
            "reports": len(state.reports) if state is not None else 0,
            "tracked_items": (
                state.summary["tracked_items"]
                if state is not None and state.summary is not None else 0
            ),
            "full_syncs": self.full_syncs,
            "deltas_applied": self.deltas_applied,
            "heartbeats": self.heartbeats,
            "reconnects": self.reconnects,
            "queries": self.queries,
            "link_errors": self.link_errors,
            "last_link_error": self.last_link_error,
        }
        if state is not None and state.temporal is not None:
            stats["temporal"] = {
                "base": state.temporal.base,
                "tip": state.temporal.tip,
                "nodes": len(state.temporal.nodes),
            }
        return stats
