"""Window management between the network layer and a sketch engine.

The :class:`WindowManager` is the single writer in the service: every
engine touch (ingest, window close, checkpoint, stats) happens under
one asyncio lock, off the event loop via ``asyncio.to_thread`` so a
process-backend barrier never stalls the HTTP listener.  Around the
engine it adds:

micro-batching
    Wire batches are coalesced into a pending buffer and handed to the
    engine in ``ingest_batch`` calls of at most ``micro_batch`` items.

count/tick window advance
    The manager closes the engine's window every ``window_size`` items;
    a wall-clock ticker may close a partially-filled window early.
    Batches that straddle a boundary are split so windows are exact.

ordered ingest (the resequencer)
    Batches carrying a global ``seq`` are admitted in exactly ``seq``
    order across all connections, making multi-connection replays
    byte-deterministic (see ``docs/SERVICE.md``).

query snapshots
    After every window close the manager publishes an immutable
    :class:`ServiceSnapshot`; queries read the snapshot and never take
    the engine lock, so they cannot block ingest.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core.reports import SimplexReport, report_to_dict  # noqa: F401  (re-exported)
from repro.errors import ServiceError
from repro.hashing.family import ItemId
from repro.obs.collect import BATCH_BUCKETS
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanContext, new_span_id, new_trace_id


class EngineAdapter:
    """Uniform engine protocol over ``XSketch``-likes and the sharded runtime.

    Engines must provide ``insert``/``end_window`` (single-process) or
    ``ingest_batch``/``flush_window`` (sharded); ``reports``,
    ``ingest_counts``, ``checkpoint``/``close``/``stats`` are optional
    and degrade gracefully.
    """

    def __init__(self, engine):
        self.engine = engine
        self._batch_ingest = getattr(engine, "ingest_batch", None)
        #: the engine's ``ingest_counts`` (buffered engines), else None
        self.ingest_counts = getattr(engine, "ingest_counts", None)

    def ingest_batch(self, items: Sequence[ItemId]) -> None:
        if self._batch_ingest is not None:
            self._batch_ingest(items)
        else:
            insert = self.engine.insert
            for item in items:
                insert(item)

    def flush_window(self, span_ctx=None) -> List[SimplexReport]:
        flush = getattr(self.engine, "flush_window", None)
        if flush is not None:
            # Propagate the span context only to engines that carry a
            # live tracer (the sharded coordinator); plain engines keep
            # their zero-argument signature.
            if span_ctx is not None and getattr(self.engine, "tracer", None) is not None:
                return flush(span_ctx=span_ctx)
            return flush()
        return self.engine.end_window()

    def reports(self) -> List[SimplexReport]:
        return list(self.engine.reports)

    def checkpoint(self, directory) -> Path:
        directory = Path(directory)
        if hasattr(self.engine, "checkpoint"):
            self.engine.checkpoint(directory)
            return directory
        from repro.core.serialize import save_xsketch

        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "xsketch.json"
        save_xsketch(self.engine, path)
        return directory

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def stats(self):
        stats = getattr(self.engine, "stats", None)
        if stats is None:
            return None
        return stats() if callable(stats) else stats

    def metrics_registry(self, registry=None):
        """The engine's canonical metrics, folded into ``registry``.

        Engines without a ``metrics_registry`` method (stub engines in
        tests) contribute nothing; the registry comes back unchanged.
        """
        collect = getattr(self.engine, "metrics_registry", None)
        if collect is not None:
            return collect(registry)
        return registry if registry is not None else MetricsRegistry()

    def health(self) -> Optional[dict]:
        """The engine's liveness view, or ``None`` for engines without one.

        The sharded runtime's :meth:`~repro.runtime.ShardedXSketch.health`
        is non-blocking (no worker IPC), so the service can serve it
        from ``/healthz`` without the engine lock.
        """
        health = getattr(self.engine, "health", None)
        if health is None:
            return None
        return health()

    def trace_events(self) -> List[dict]:
        """The engine's trace-ring events ([] when observability is off).

        Gated so an observability-off sharded engine pays no worker
        round-trips: the sharded runtime is asked only when its
        ``observability`` flag is set, a plain sketch only when its
        recorder carries a ring.
        """
        if getattr(self.engine, "observability", False):
            return self.engine.trace_events()
        ring = getattr(getattr(self.engine, "recorder", None), "trace", None)
        return ring.events() if ring is not None else []


@dataclass(frozen=True)
class ServiceSnapshot:
    """Immutable read-side view published at every window boundary."""

    #: windows closed by the service so far
    window: int
    #: items ingested up to (and including) the last closed window
    items_at_boundary: int
    #: all reports emitted so far, in the engine's canonical order
    reports: Tuple[SimplexReport, ...]
    #: ``time.time()`` of the last window close (0.0 before the first)
    updated_at: float


class WindowManager:
    """Single-writer gateway to the engine (see module docstring).

    ``temporal`` optionally attaches a
    :class:`repro.temporal.store.TemporalStore`.  When the engine
    already owns one (``ShardedXSketch(temporal=...)``), the engine
    feeds it at its own window boundaries and the manager only exposes
    it for queries; otherwise the manager feeds the store itself —
    arrivals on ingest, reports (plus a single-sketch snapshot inside
    the store's fidelity horizon) at each window close.  Either way the
    feed happens on the engine-lock thread, so temporal queries read a
    published store snapshot and never contend with ingest.
    """

    def __init__(self, engine, window_size: int, micro_batch: int,
                 temporal=None, tracer=None):
        self.adapter = engine if isinstance(engine, EngineAdapter) else EngineAdapter(engine)
        self.window_size = window_size
        self.micro_batch = micro_batch
        #: live span tracer, or None (the NULL_TRACER gate: off costs
        #: one attribute test per wire batch)
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        engine_store = getattr(self.adapter.engine, "temporal", None)
        self.temporal = temporal if temporal is not None else engine_store
        #: True when the manager (not the engine) drives the store
        self._feed_temporal = (
            temporal is not None and temporal is not engine_store
        )
        self._lock = asyncio.Lock()
        self._pending: List[ItemId] = []
        #: items already in the open window (pending + handed to engine)
        self.items_window = 0
        self.items_total = 0
        self.engine_batches = 0
        self.windows_closed = 0
        #: always-on service-side registry (wire-batch granularity only,
        #: so the cost is one histogram observe per submitted batch)
        self.metrics = MetricsRegistry()
        self._h_batch = self.metrics.histogram(
            "service_batch_items",
            "items per wire batch submitted to the window manager",
            buckets=BATCH_BUCKETS,
        )
        #: always-on phase profiler (window/batch granularity only)
        self.profiler = PhaseProfiler(self.metrics)
        #: open-window trace state: perf start always, span ids when tracing
        self._window_trace: Optional[dict] = None
        self.snapshot = ServiceSnapshot(
            window=0, items_at_boundary=0, reports=(), updated_at=0.0
        )
        #: slim-snapshot publisher notified at every window boundary
        #: (set by the service when ``config.publish_port`` is given;
        #: the hook runs under the engine lock, after the snapshot is
        #: published, so each sequence maps to exactly one boundary)
        self.publisher = None
        # resequencer state (ordered ingest)
        self._seq_cond = asyncio.Condition()
        self._next_seq = 0
        self._skipped: set = set()
        self._draining = False

    # ------------------------------------------------------------------
    # ordered-ingest admission

    async def _admit(self, seq: int) -> None:
        async with self._seq_cond:
            await self._seq_cond.wait_for(
                lambda: self._draining or seq <= self._next_seq
            )

    async def _advance_seq(self, seq: int) -> None:
        async with self._seq_cond:
            if seq >= self._next_seq:
                self._next_seq = seq + 1
                while self._next_seq in self._skipped:
                    self._skipped.discard(self._next_seq)
                    self._next_seq += 1
            self._seq_cond.notify_all()

    async def skip_seq(self, seq: int) -> None:
        """Record a dropped sequenced batch so the sequencer never stalls."""
        async with self._seq_cond:
            if seq == self._next_seq:
                self._next_seq += 1
                while self._next_seq in self._skipped:
                    self._skipped.discard(self._next_seq)
                    self._next_seq += 1
            elif seq > self._next_seq:
                self._skipped.add(seq)
            self._seq_cond.notify_all()

    async def release_sequencer(self) -> None:
        """Drain aid: admit every waiting sequenced batch (gaps included)."""
        async with self._seq_cond:
            self._draining = True
            self._seq_cond.notify_all()

    # ------------------------------------------------------------------
    # write path

    def _ensure_window_trace(self) -> dict:
        """Open-window trace state, created at the first arrival.

        Always carries the perf-counter start (the always-on ``window``
        phase); with a live tracer it also mints the window's trace id
        and root span id, the parent every pipeline span hangs off.
        """
        state = self._window_trace
        if state is None:
            state = {"start": time.perf_counter(), "window": self.windows_closed}
            if self.tracer is not None:
                state["trace_id"] = new_trace_id()
                state["span_id"] = new_span_id()
                state["ts"] = self.tracer.timestamp()
            self._window_trace = state
        return state

    async def submit(self, items: Sequence[ItemId], seq: Optional[int] = None,
                     received: Optional[float] = None) -> None:
        """Route one wire batch into the open window (splits at boundaries).

        ``received`` is the server's perf-counter stamp at frame
        receipt, so the ingest phase (and, when tracing, the
        ``ingest.frame`` span) covers queueing and resequencer wait,
        not just the engine hand-off.
        """
        self._h_batch.observe(len(items))
        start = received if received is not None else time.perf_counter()
        tracer = self.tracer
        frame_span_id = new_span_id() if tracer is not None else None
        wait_dur = 0.0
        if seq is not None:
            wait_start = time.perf_counter()
            await self._admit(seq)
            wait_dur = time.perf_counter() - wait_start
        frame_parent: Optional[dict] = None
        try:
            async with self._lock:
                offset = 0
                while offset < len(items):
                    space = self.window_size - self.items_window
                    chunk = items[offset:offset + space]
                    state = self._ensure_window_trace()
                    if frame_parent is None:
                        frame_parent = state
                    offset += len(chunk)
                    self._pending.extend(chunk)
                    self.items_window += len(chunk)
                    self.items_total += len(chunk)
                    if len(self._pending) >= self.micro_batch:
                        await self._ingest_pending()
                    if self.items_window >= self.window_size:
                        await self._close_window_locked()
        finally:
            if seq is not None:
                await self._advance_seq(seq)
            elapsed = time.perf_counter() - start
            self.profiler.observe("ingest", elapsed)
            if tracer is not None and frame_parent is not None:
                now_ts = tracer.timestamp()
                tracer.emit(
                    "ingest.frame",
                    trace_id=frame_parent["trace_id"],
                    span_id=frame_span_id,
                    parent_id=frame_parent["span_id"],
                    ts=now_ts - elapsed,
                    dur=elapsed,
                    items=len(items),
                    seq=seq,
                )
                if seq is not None:
                    tracer.emit(
                        "resequencer.wait",
                        trace_id=frame_parent["trace_id"],
                        span_id=new_span_id(),
                        parent_id=frame_span_id,
                        ts=now_ts - elapsed,
                        dur=wait_dur,
                        seq=seq,
                    )

    async def _ingest_pending(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.engine_batches += 1
        await asyncio.to_thread(self._engine_ingest, batch)

    def _engine_ingest(self, batch: List[ItemId]) -> None:
        if not self._feed_temporal:
            self.adapter.ingest_batch(batch)
        elif self.adapter.ingest_counts is not None:
            # one collapse feeds both the store and a buffered engine
            counts = Counter(batch)
            self.temporal.observe_counts(counts)
            self.adapter.ingest_counts(counts)
        else:
            # per-arrival engines keep the ordered batch
            self.temporal.observe_items(batch)
            self.adapter.ingest_batch(batch)

    async def _close_window_locked(self) -> None:
        state = self._ensure_window_trace()
        tracer = self.tracer
        root_ctx = (
            SpanContext(state["trace_id"], state["span_id"], state["ts"])
            if tracer is not None else None
        )
        await self._ingest_pending()
        with self.profiler.phase("flush"):
            await asyncio.to_thread(
                self._engine_flush, self.windows_closed, root_ctx
            )
        self.windows_closed += 1
        self.items_window = 0
        self._window_trace = None
        with self.profiler.phase("snapshot"):
            self._publish_snapshot()
        if self.publisher is not None:
            publish_start = time.perf_counter()
            summary = await asyncio.to_thread(self._slim_summary)
            deltas = ()
            if self.temporal is not None and getattr(
                self.temporal, "capture_deltas", False
            ):
                deltas = self.temporal.take_deltas()
            span_wire = None
            publish_span_id = None
            if tracer is not None:
                # The publish span's context rides the DELTA frame so
                # the replica's apply span joins this window's tree.
                publish_span_id = new_span_id()
                span_wire = {
                    "trace_id": state["trace_id"],
                    "span_id": publish_span_id,
                    "ts": tracer.timestamp(),
                    "window": state["window"],
                }
            self.publisher.publish_boundary(
                self.snapshot, summary, deltas, span=span_wire
            )
            publish_dur = time.perf_counter() - publish_start
            self.profiler.observe("publish", publish_dur)
            if tracer is not None:
                tracer.emit(
                    "publish.frame",
                    trace_id=state["trace_id"],
                    span_id=publish_span_id,
                    parent_id=state["span_id"],
                    ts=tracer.timestamp() - publish_dur,
                    dur=publish_dur,
                    window=state["window"],
                )
        window_dur = time.perf_counter() - state["start"]
        self.profiler.observe("window", window_dur)
        if tracer is not None:
            tracer.emit(
                "window",
                trace_id=state["trace_id"],
                span_id=state["span_id"],
                parent_id=None,
                ts=state["ts"],
                dur=window_dur,
                window=state["window"],
                items=self.snapshot.items_at_boundary,
            )

    def _engine_flush(self, closed_window: int, span_ctx=None) -> List[SimplexReport]:
        tracer = self.tracer
        if tracer is not None and span_ctx is not None:
            with tracer.span("window.flush", parent=span_ctx,
                             window=closed_window) as flush_span:
                reports = self.adapter.flush_window(span_ctx=flush_span.context)
        else:
            reports = self.adapter.flush_window()
        if self._feed_temporal:
            with self.profiler.phase("temporal"):
                self.temporal.on_window(
                    closed_window,
                    reports if reports is not None else [],
                    snapshot_fn=self._temporal_snapshot_fn(),
                )
        return reports

    def _temporal_snapshot_fn(self):
        """A thunk producing the engine's full-sketch snapshot, if it can.

        A sharded engine compacts via ``merged_sketch`` (memoized per
        window); a plain X-Sketch snapshots directly; stub engines
        (tests) contribute no as-of payloads.
        """
        engine = self.adapter.engine
        merged = getattr(engine, "merged_sketch", None)
        if merged is not None:
            from repro.core.serialize import snapshot_xsketch

            return lambda: snapshot_xsketch(merged())
        if hasattr(engine, "stage1") and hasattr(engine, "config"):
            from repro.core.serialize import snapshot_xsketch

            return lambda: snapshot_xsketch(engine)
        return None

    def _slim_summary(self):
        """The engine's slim frequency summary at this boundary.

        Runs on the engine-lock thread.  A sharded engine compacts via
        ``slim_summary()`` (riding the ``merged_sketch`` per-window
        memo); a plain X-Sketch is summarized directly; stub engines
        (tests) contribute no summary.
        """
        engine = self.adapter.engine
        slim = getattr(engine, "slim_summary", None)
        if slim is not None:
            return slim()
        if hasattr(engine, "stage1") and hasattr(engine, "stage2"):
            from repro.runtime.slim import slim_summary

            return slim_summary(engine)
        return None

    def _publish_snapshot(self) -> None:
        self.snapshot = ServiceSnapshot(
            window=self.windows_closed,
            items_at_boundary=self.items_total,
            reports=tuple(self.adapter.reports()),
            updated_at=time.time(),
        )

    async def flush_window(self) -> None:
        """Close the open window now (no-op when it is empty)."""
        async with self._lock:
            if self.items_window > 0 or self._pending:
                await self._close_window_locked()

    async def drain(self) -> None:
        """Final flush on shutdown: push the open window out."""
        await self.flush_window()

    # ------------------------------------------------------------------
    # control path

    async def checkpoint(self, directory) -> Path:
        """Flush the open window, then checkpoint the engine to ``directory``."""
        if directory is None:
            raise ServiceError("no checkpoint directory configured or given")
        async with self._lock:
            if self.items_window > 0 or self._pending:
                await self._close_window_locked()
            return await asyncio.to_thread(self.adapter.checkpoint, directory)

    async def engine_stats(self):
        """Live engine counters (takes the engine lock; may block on IPC)."""
        async with self._lock:
            return await asyncio.to_thread(self.adapter.stats)

    async def engine_metrics(self, registry=None) -> MetricsRegistry:
        """The engine's metrics registry (takes the engine lock; may
        block on worker IPC for the sharded process backend)."""
        async with self._lock:
            return await asyncio.to_thread(self.adapter.metrics_registry, registry)

    async def close_engine(self) -> None:
        async with self._lock:
            await asyncio.to_thread(self.adapter.close)
