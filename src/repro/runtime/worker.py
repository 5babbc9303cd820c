"""Shard worker: one X-Sketch served over a command queue.

:func:`shard_worker_main` is the target of each worker ``Process``.  It
is spawn-safe by construction: a plain module-level function whose
arguments are all picklable (the frozen :class:`XSketchConfig`, an
explicit integer seed, the two queues), so it works identically under
the ``spawn``, ``fork`` and ``forkserver`` start methods.  The child
rebuilds its hash family from the explicit seed — the families in
:mod:`repro.hashing` depend on nothing process-local, so a key hashes
identically in every worker and in the coordinator.

Each worker owns a *private* result queue (one coordinator reader, one
worker writer).  That isolation is what makes supervision safe: a
worker SIGKILLed mid-write can only poison its own reply pipe, and the
replacement worker starts on fresh queues, so stale or truncated
replies from a dead incarnation can never be misread as current ones.

Command protocol (tuples on ``command_queue``; replies on the worker's
``result_queue`` are ``(kind, shard_id, payload)``):

``("ingest", items)``
    Insert a batch of arrivals, in order, into the current window (the
    per-arrival engine).  No reply (pipelined).
``("ingest_counts", counts)``
    Add a ``{key: count}`` mapping, in its key order, to the current
    window (the vectorized engine's ``ingest_counts``).  No reply.
``("end_window",)`` / ``("end_window", span_ctx)``
    Close the window; replies ``("end_window", shard, reports)``.  With
    a span context dict (the coordinator's wire
    :class:`~repro.obs.spans.SpanContext`, tracing on), the reply
    payload is instead ``{"reports": reports, "span": span_dict}`` — the
    worker times its own close and hands back one span for the
    coordinator to adopt.  Restart resends are always the bare form.
``("advance", target_window)``
    Recovery fast-forward: close empty windows until the sketch reaches
    ``target_window``.  Reports produced by those catch-up closes are
    discarded (the coordinator's merged stream already covers the
    windows); replies ``("advance", shard, {"closed", "reports_discarded"})``.
``("stats",)``
    Replies ``("stats", shard, WorkerReport)``.
``("metrics",)``
    Replies ``("metrics", shard, registry snapshot dict)``: the shard
    sketch's canonical metrics view (``repro.obs``), serialized with
    ``MetricsRegistry.snapshot()`` so it crosses the process boundary
    as plain picklable data and merges coordinator-side.
``("trace",)``
    Replies ``("trace", shard, events list)``: the worker recorder's
    trace-ring contents (empty when observability is off).
``("checkpoint",)``
    Replies ``("checkpoint", shard, snapshot dict)``.
``("stop",)``
    Replies ``("stopped", shard, None)`` and exits the loop.

Any exception escapes as ``("error", shard, traceback_text)`` followed
by worker exit; the coordinator converts it to
:class:`repro.errors.RuntimeShardError` (deterministic worker bugs are
*not* recoverable crashes — supervision never retries them).

``faults`` optionally arms a :class:`repro.runtime.faults.FaultInjector`
so tests and the CLI can crash, wedge or slow this worker at an exact,
reproducible instant.  Supervised replacements are always spawned
fault-free.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import XSketchConfig
from repro.core.engines import make_engine
from repro.core.serialize import restore_xsketch, snapshot_xsketch
from repro.core.xsketch import XSketchStats
from repro.runtime.faults import Fault, FaultInjector


@dataclass(frozen=True)
class WorkerReport:
    """Observability counters of one shard worker.

    ``busy_seconds`` is time spent inside sketch calls (insert loops and
    window transitions), excluding queue waits — per-shard throughput is
    ``items_ingested / busy_seconds``.  Counters are per *incarnation*:
    a supervised restart resets them (the coordinator's routing counters
    and loss estimates keep the cross-restart truth).
    """

    shard_id: int
    items_ingested: int
    batches: int
    windows: int
    busy_seconds: float
    stats: XSketchStats

    @property
    def mops(self) -> float:
        """Millions of insert operations per second of sketch work."""
        if self.busy_seconds <= 0:
            return float("inf")
        return self.items_ingested / self.busy_seconds / 1e6


def shard_worker_main(
    shard_id: int,
    config: XSketchConfig,
    seed: int,
    command_queue,
    result_queue,
    snapshot: Optional[dict] = None,
    observability: bool = False,
    faults: Optional[Sequence[Fault]] = None,
    engine: str = "xsketch",
) -> None:
    """Run one shard's X-Sketch until a ``stop`` command arrives.

    ``observability=True`` attaches a live ``repro.obs.Recorder`` (own
    registry + trace ring) to the shard sketch; the extra histograms and
    trace events are then available over the ``metrics`` / ``trace``
    commands.  Off by default: the sketch runs with the no-op recorder
    and the ``metrics`` reply still carries the exact decision counters
    (synced from plain ints at collect time).

    ``engine`` selects the ingest representation for a *fresh* shard
    (:mod:`repro.core.engines`); a restart restores whatever engine the
    snapshot's ``variant`` tag names, so a respawned shard always
    continues with the engine it crashed with.
    """
    try:
        injector = FaultInjector(faults, shard_id) if faults else None
        if injector is not None and not injector:
            injector = None
        recorder = None
        if observability:
            from repro.obs.recorder import Recorder
            from repro.obs.registry import MetricsRegistry
            from repro.obs.trace import TraceRing

            recorder = Recorder(MetricsRegistry(), trace=TraceRing())
        if snapshot is not None:
            sketch = restore_xsketch(snapshot, seed=seed, recorder=recorder)
        else:
            sketch = make_engine(config, seed=seed, engine=engine, recorder=recorder)
        items_ingested = 0
        batches = 0
        busy_seconds = 0.0
        perf_counter = time.perf_counter

        # Fault matching is by the sketch window *at command receipt*
        # (processing the command may advance it, e.g. end_window).
        window_at_receipt = 0

        def reply(kind, op, payload) -> None:
            if injector is not None and injector.should_drop_reply(
                op, window_at_receipt
            ):
                return
            result_queue.put((kind, shard_id, payload))
            if injector is not None:
                injector.after_reply(op, window_at_receipt, result_queue)

        while True:
            command = command_queue.get()
            op = command[0]
            window_at_receipt = sketch.window
            if injector is not None:
                injector.on_command(op, window_at_receipt)
            if op == "ingest":
                items = command[1]
                start = perf_counter()
                sketch.ingest_batch(items)
                busy_seconds += perf_counter() - start
                items_ingested += len(items)
                batches += 1
            elif op == "ingest_counts":
                counts = command[1]
                start = perf_counter()
                sketch.ingest_counts(counts)
                busy_seconds += perf_counter() - start
                items_ingested += sum(counts.values())
                batches += 1
            elif op == "end_window":
                span_ctx = command[1] if len(command) > 1 else None
                start = perf_counter()
                reports = sketch.end_window()
                elapsed = perf_counter() - start
                busy_seconds += elapsed
                if span_ctx is not None:
                    # The worker has no synced wall clock; the span
                    # starts at the coordinator's dispatch timestamp
                    # (span_ctx["ts"]) and the duration is its own
                    # perf-counter measurement.  Built inline instead of
                    # through a Tracer — one dict per window close.
                    from repro.obs.spans import new_span_id

                    span = {
                        "name": "shard.end_window",
                        "trace_id": span_ctx["trace_id"],
                        "span_id": new_span_id(),
                        "parent_id": span_ctx["span_id"],
                        "ts": round(span_ctx["ts"], 6),
                        "dur": round(elapsed, 6),
                        "proc": f"shard-{shard_id}",
                        "attrs": {"shard": shard_id, "window": window_at_receipt},
                    }
                    reply("end_window", op, {"reports": reports, "span": span})
                else:
                    reply("end_window", op, reports)
            elif op == "advance":
                target = command[1]
                base = len(sketch._reports)
                closed = 0
                while sketch.window < target:
                    sketch.end_window()
                    closed += 1
                # Catch-up closes happen on windows the coordinator has
                # already merged; their reports are stale duplicates and
                # must not linger in sketch state (future snapshots
                # would resurrect them).
                discarded = len(sketch._reports) - base
                del sketch._reports[base:]
                reply("advance", op, {"closed": closed, "reports_discarded": discarded})
            elif op == "stats":
                report = WorkerReport(
                    shard_id=shard_id,
                    items_ingested=items_ingested,
                    batches=batches,
                    windows=sketch.window,
                    busy_seconds=busy_seconds,
                    stats=sketch.stats,
                )
                reply("stats", op, report)
            elif op == "metrics":
                registry = sketch.metrics_registry()
                reply("metrics", op, registry.snapshot())
            elif op == "trace":
                trace = getattr(sketch.recorder, "trace", None)
                events = trace.events() if trace is not None else []
                reply("trace", op, events)
            elif op == "checkpoint":
                reply("checkpoint", op, snapshot_xsketch(sketch))
            elif op == "stop":
                reply("stopped", op, None)
                return
            else:
                raise ValueError(f"unknown worker command {op!r}")
    except Exception:
        # Boundary catch: report the failure to the coordinator (which
        # raises RuntimeShardError on this reply), then re-raise so the
        # worker process dies loudly with a non-zero exit code instead
        # of pretending the command stream ended cleanly.
        result_queue.put(("error", shard_id, traceback.format_exc()))
        raise
