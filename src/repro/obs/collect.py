"""Collectors: algorithm counters → canonical registry metrics.

The sketch keeps its decision counters as plain Python ints (free on
the hot path); collectors translate them into the canonical metric
names of the catalog (``docs/OBSERVABILITY.md``) **additively**, so
collecting several sketches into one registry sums them — the same
reduction the sharded coordinator performs over worker snapshots.

Collectors are duck-typed on the counter attributes rather than
importing the algorithm classes, so this module stays import-cycle-free
(everything under ``repro.obs`` depends only on ``repro.errors``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricsRegistry

#: Buckets for the Potential histogram ``Λ = |a_k| / (ε + Δ)``: the
#: interesting range straddles G (default 0.5-1.0 in the paper sweeps).
POTENTIAL_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                     5.0, 10.0, 50.0, 100.0)

#: Buckets for the W_min distribution at Stage-2 elections (weights are
#: window counts; long-lasting residents sit far right).
WMIN_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)

#: Buckets for Stage-2 bucket occupancy (cells used of ``u``).
OCCUPANCY_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Buckets for wire/engine batch sizes (items per batch).
BATCH_BUCKETS = (16.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
                 4096.0, 8192.0, 16384.0)


def collect_trace_ring(ring, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Expose a flight recorder's loss rate: ``obs_trace_events_total``
    with ``status="recorded"`` / ``status="dropped"`` labels.

    Works on anything with ``recorded``/``dropped`` counters — the
    :class:`~repro.obs.trace.TraceRing` and the span
    :class:`~repro.obs.spans.Tracer` alike.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.counter(
        "obs_trace_events_total",
        "trace events offered to the bounded flight recorder, by outcome",
        labels={"status": "recorded"},
    ).inc(ring.recorded - ring.dropped)
    registry.counter(
        "obs_trace_events_total",
        "trace events offered to the bounded flight recorder, by outcome",
        labels={"status": "dropped"},
    ).inc(ring.dropped)
    return registry


def collect_xsketch(sketch, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Fold one X-Sketch's counters (and its live registry) into ``registry``.

    Works on any object with the :class:`~repro.core.xsketch.XSketch`
    shape (``stats`` property, ``stage1``/``stage2`` attributes, an
    optional ``recorder``).  Counters add into the target registry, so
    calling this once per shard aggregates naturally.
    """
    registry = registry if registry is not None else MetricsRegistry()
    stats = sketch.stats
    registry.counter(
        "xsketch_windows_total", "windows closed by the sketch"
    ).inc(stats.windows)
    registry.counter(
        "xsketch_stage1_arrivals_total",
        "arrivals routed through Stage 1 (item not tracked by Stage 2)",
    ).inc(stats.stage1_arrivals)
    registry.counter(
        "xsketch_stage1_fits_total",
        "short-term fits performed (Preliminary Condition held)",
    ).inc(stats.stage1_fits)
    registry.counter(
        "xsketch_stage1_promotions_total",
        "Stage-1 promotions (Potential reached G)",
    ).inc(stats.promotions)
    registry.counter(
        "xsketch_stage2_inserts_empty_total",
        "promoted items placed in empty Stage-2 cells",
    ).inc(stats.inserts_empty)
    registry.counter(
        "xsketch_stage2_elections_won_total",
        "full-bucket weight elections won (resident replaced)",
    ).inc(stats.replacements_won)
    registry.counter(
        "xsketch_stage2_elections_lost_total",
        "full-bucket weight elections lost (promotion discarded)",
    ).inc(stats.replacements_lost)
    registry.counter(
        "xsketch_stage2_evictions_total",
        "Stage-2 evictions of items silent in the closing window",
    ).inc(stats.evictions_zero)
    registry.counter(
        "xsketch_reports_total", "simplex reports emitted"
    ).inc(stats.reports)
    registry.gauge(
        "xsketch_stage2_tracked_items", "items currently tracked by Stage 2"
    ).inc(stats.stage2_tracked)
    stage1 = getattr(sketch, "stage1", None)
    if stage1 is not None:
        saturated = getattr(stage1.filter, "saturated_counters", None)
        if saturated is not None:
            registry.gauge(
                "xsketch_stage1_saturated_counters",
                "Stage-1 sub-counters sitting at their overflow marker",
            ).inc(saturated())
    cache_info = getattr(getattr(sketch, "tower", None), "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        registry.counter(
            "vectorized_hash_cache_hits_total",
            "batched position lookups answered from the bounded hash cache",
        ).inc(info["hits"])
        registry.counter(
            "vectorized_hash_cache_misses_total",
            "batched position lookups that recomputed hash rows",
        ).inc(info["misses"])
        registry.counter(
            "vectorized_hash_cache_evictions_total",
            "hash-cache entries evicted by the LRU capacity bound",
        ).inc(info["evictions"])
        registry.gauge(
            "vectorized_hash_cache_entries",
            "items currently resident in the bounded hash cache",
        ).inc(info["size"])
    recorder = getattr(sketch, "recorder", None)
    if recorder is not None and recorder.registry is not None:
        registry.merge(recorder.registry)
        trace = getattr(recorder, "trace", None)
        if trace is not None:
            collect_trace_ring(trace, registry)
    return registry


def collect_sharded(sharded, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Coordinator-side metrics of a sharded runtime (no worker I/O).

    The per-worker sketch registries are gathered separately by
    :meth:`repro.runtime.sharded.ShardedXSketch.metrics_registry`, which
    calls this for the coordinator's own counters.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.gauge("runtime_shards", "shards behind the coordinator").set(
        sharded.n_shards
    )
    registry.counter(
        "runtime_items_routed_total", "arrivals routed by the partitioner"
    ).inc(sum(sharded.items_routed))
    registry.counter(
        "runtime_batches_sent_total", "ingest batches dispatched to shards"
    ).inc(sum(sharded.batches_sent))
    registry.counter(
        "runtime_windows_total", "windows closed by the coordinator"
    ).inc(sharded.window)
    depths = [d for d in sharded.queue_depths() if d is not None]
    registry.gauge(
        "runtime_queue_depth", "summed shard command-queue backlog"
    ).set(sum(depths))
    registry.counter(
        "runtime_shard_restarts_total",
        "supervised worker restarts (dead or wedged shards respawned)",
    ).inc(sum(getattr(sharded, "shard_restarts", ())))
    registry.counter(
        "runtime_items_lost_estimate",
        "items estimated lost across supervised restarts (dispatched since "
        "the restored checkpoint minus salvaged queue batches)",
    ).inc(getattr(sharded, "items_lost_estimate", 0))
    registry.counter(
        "runtime_command_retries_total",
        "coordinator commands resent to a restarted shard",
    ).inc(getattr(sharded, "command_retries", 0))
    registry.counter(
        "runtime_close_errors_total",
        "errors swallowed (but recorded) by the shutdown path",
    ).inc(len(getattr(sharded, "close_errors", ())))
    registry.counter(
        "runtime_merged_cache_hits_total",
        "merged_sketch() calls answered from the per-window memo",
    ).inc(getattr(sharded, "merged_cache_hits", 0))
    registry.counter(
        "runtime_merged_cache_misses_total",
        "merged_sketch() calls that rebuilt the compaction from the shards",
    ).inc(getattr(sharded, "merged_cache_misses", 0))
    # The coordinator's phase-profiler histograms deliberately stay out
    # of this collector: the canonical registry is a cross-backend
    # determinism surface (inline == process byte-for-byte), and wall
    # timings can never satisfy that.  The service layer folds
    # ``sharded.coordinator_metrics`` into its own exposition instead.
    return registry


def collect_temporal(store, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Fold a temporal store's ladder shape and counters into ``registry``.

    Works on any object with the
    :class:`~repro.temporal.store.TemporalStore` shape (a published
    ``snapshot`` with ``nodes``/``depth``, lifetime counters, a
    ``metrics`` registry with the query fan-in histogram).  Gauges
    describe the *published* snapshot — the O(log W) retention bound is
    directly visible as ``temporal_nodes`` staying flat while
    ``temporal_windows_covered`` grows.
    """
    registry = registry if registry is not None else MetricsRegistry()
    snapshot = store.snapshot
    covered = (
        snapshot.tip - snapshot.base
        if snapshot.tip is not None and snapshot.base is not None
        else 0
    )
    registry.gauge(
        "temporal_nodes", "ladder nodes currently retained"
    ).inc(len(snapshot.nodes))
    registry.gauge(
        "temporal_ladder_depth", "highest dyadic level present (-1 when empty)"
    ).set(snapshot.depth)
    registry.gauge(
        "temporal_windows_covered", "closed windows covered by the ladder"
    ).inc(covered)
    registry.gauge(
        "temporal_bytes_retained", "accounted hot bytes held by the ladder"
    ).inc(store.memory_bytes)
    registry.gauge(
        "temporal_asof_snapshots",
        "nodes still carrying a full merged-sketch snapshot",
    ).inc(sum(1 for node in snapshot.nodes if node.asof is not None))
    registry.counter(
        "temporal_windows_total", "windows sealed into the ladder"
    ).inc(store.windows_observed)
    registry.counter(
        "temporal_items_total", "arrivals observed by the temporal tier"
    ).inc(store.items_observed)
    registry.counter(
        "temporal_coarsenings_total",
        "dyadic sibling merges performed by the retention ladder",
    ).inc(snapshot.coarsenings)
    registry.counter(
        "temporal_spills_total", "node payloads written to the cold tier"
    ).inc(store.spills)
    registry.counter(
        "temporal_cold_loads_total",
        "spilled node payloads reloaded to answer queries or coarsen",
    ).inc(store.cold_loads)
    registry.counter(
        "temporal_range_queries_total", "range queries composed from the ladder"
    ).inc(store.range_queries)
    registry.merge(store.metrics)
    return registry


def collect_publisher(publisher, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Publish-side metrics of a slim-snapshot publisher.

    Works on any object with the
    :class:`~repro.replica.publisher.SnapshotPublisher` shape (sequence
    and window gauges, fan-out counters, a live subscriber set).
    Exposed on the *ingest* service's ``/metrics`` whenever publishing
    is enabled, replicas connected or not.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.gauge(
        "service_published_seq", "sequence number of the last published snapshot"
    ).set(publisher.seq)
    registry.gauge(
        "service_published_window", "window of the last published snapshot"
    ).set(publisher.window)
    registry.gauge(
        "service_publish_subscribers", "replica subscribers currently connected"
    ).set(publisher.subscriber_count)
    registry.counter(
        "service_publish_deltas_total", "DELTA frames fanned out to subscribers"
    ).inc(publisher.deltas_sent)
    registry.counter(
        "service_publish_snapshots_total",
        "full SNAPSHOT frames sent (initial syncs and fallbacks)",
    ).inc(publisher.snapshots_sent)
    registry.counter(
        "service_publish_heartbeats_total", "HEARTBEAT frames fanned out"
    ).inc(publisher.heartbeats_sent)
    registry.counter(
        "service_publish_disconnects_total",
        "subscribers dropped (slow consumers and dead sockets)",
    ).inc(publisher.disconnects)
    return registry


def collect_replica(replica, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Read-side metrics of a :class:`~repro.replica.server.ReplicaServer`.

    Duck-typed on the replica's counters and its pinned state, so the
    collector needs no import of the replica package.  The staleness
    bound surfaced by ``/healthz`` (sequence, age in windows, link
    state) is mirrored here as gauges for dashboards.
    """
    registry = registry if registry is not None else MetricsRegistry()
    state = replica.state
    registry.gauge(
        "replica_snapshot_seq", "sequence of the snapshot answering queries"
    ).set(state.seq if state is not None else -1)
    registry.gauge(
        "replica_snapshot_window", "window of the snapshot answering queries"
    ).set(state.window if state is not None else -1)
    registry.gauge(
        "replica_snapshot_age_windows",
        "publisher windows ahead of the applied snapshot (staleness bound)",
    ).set(replica.snapshot_age_windows)
    registry.gauge(
        "replica_connected", "1 while the subscriber link is up"
    ).set(1 if replica.connected else 0)
    registry.gauge(
        "replica_reports", "reports in the applied snapshot"
    ).set(len(state.reports) if state is not None else 0)
    registry.counter(
        "replica_full_syncs_total", "full SNAPSHOT frames applied"
    ).inc(replica.full_syncs)
    registry.counter(
        "replica_deltas_applied_total", "DELTA frames applied"
    ).inc(replica.deltas_applied)
    registry.counter(
        "replica_heartbeats_total", "HEARTBEAT frames received"
    ).inc(replica.heartbeats)
    registry.counter(
        "replica_reconnects_total", "subscriber reconnect attempts"
    ).inc(replica.reconnects)
    registry.counter(
        "replica_queries_total", "HTTP queries answered from the snapshot"
    ).inc(replica.queries)
    return registry


def collect_service(service, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Service-level metrics of a :class:`~repro.service.server.StreamService`."""
    registry = registry if registry is not None else MetricsRegistry()
    manager = service.manager
    registry.counter(
        "service_connections_accepted_total", "ingest connections accepted"
    ).inc(service.connections_accepted)
    registry.gauge(
        "service_connections_open", "ingest connections currently open"
    ).set(len(service._connections))
    registry.counter(
        "service_items_ingested_total", "items admitted into windows"
    ).inc(manager.items_total)
    registry.counter(
        "service_items_dropped_total", "items dropped by the overload policy"
    ).inc(service.dropped_items)
    registry.counter(
        "service_windows_closed_total", "windows closed by the window manager"
    ).inc(manager.windows_closed)
    registry.counter(
        "service_engine_batches_total", "micro-batches handed to the engine"
    ).inc(manager.engine_batches)
    registry.counter(
        "service_reports_total", "reports in the published snapshot"
    ).inc(len(manager.snapshot.reports))
    registry.gauge(
        "service_queue_depth", "summed per-connection queue backlog (batches)"
    ).set(sum(conn.queue.qsize() for conn in service._connections))
    registry.gauge(
        "service_healthy", "1 while no engine failure is recorded"
    ).set(0 if service.failure is not None else 1)
    registry.merge(manager.metrics)
    return registry
