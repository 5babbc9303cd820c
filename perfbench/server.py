"""The system under test: one ``StreamService`` in its own process.

Started by ``run.py`` as ``python3 perfbench/server.py SPEC_JSON``.  It
builds the engine, the temporal store and the service through their
public constructors, prints one ``ready`` JSON line with its ports, and
then obeys single-word lines on standard input:

``mark``
    the timed region starts: note the process CPU clock and, in a
    traced run, start keeping spans;
``end``
    the timed region ends;
``stop`` (or end of input)
    note peak memory, drain the service and print one ``result`` JSON
    line: CPU seconds of the timed region, peak RSS of this process
    plus its shard workers, and in a traced run the per-layer table.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path


def _peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of one live process (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def thread_cpu() -> dict:
    """CPU seconds and name of every thread of this process, by id."""
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    threads = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/schedstat", encoding="ascii") as stat:
                ns = int(stat.read().split()[0])
        except OSError:
            continue
        threads[int(tid)] = (names.get(int(tid), "(native)"), ns / 1e9)
    return threads


def build(spec: dict):
    """Engine, temporal store and service exactly as a deployment would."""
    from repro.config import XSketchConfig
    from repro.fitting.simplex import SimplexTask
    from repro.runtime.sharded import ShardedXSketch
    from repro.service import ServiceConfig, StreamService
    from repro.temporal import TemporalPolicy, TemporalStore

    temporal = None
    if spec["temporal_fidelity"] is not None:
        temporal = TemporalStore(
            TemporalPolicy(fidelity_windows=spec["temporal_fidelity"]),
            seed=spec["engine_seed"],
        )
    config = XSketchConfig(
        task=SimplexTask.paper_default(spec["k"]),
        memory_kb=spec["memory_kb"],
        update_rule="cu",
    )
    engine = ShardedXSketch(
        config,
        n_shards=spec["shards"],
        seed=spec["engine_seed"],
        backend=spec["backend"],
        engine="vectorized",
        temporal=temporal,
    )
    service = StreamService(
        engine,
        ServiceConfig(
            window_size=spec["window_size"],
            publish_port=0 if spec["publish"] else None,
        ),
    )
    return engine, service


async def serve(spec: dict, recorder, spans_out) -> dict:
    engine, service = build(spec)
    await service.start()
    ports = {
        "ingest": service.ingest_address[1],
        "http": service.http_address[1],
        "publish": service.publish_address[1] if service.publisher else None,
    }
    if recorder is not None:
        recorder.manager = service.manager
        recorder.ports = {
            ports["ingest"]: "service.server",
            ports["http"]: "service.http",
        }
        if ports["publish"] is not None:
            recorder.ports[ports["publish"]] = "replica.publisher"
    workers = [pid for pid in engine.health()["worker_pids"] if pid is not None]
    print(json.dumps({"ready": ports, "pid": os.getpid(), "workers": workers}),
          flush=True)

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, reader.feed_eof)
    cpu_start = cpu_end = time.process_time()
    threads_start = threads_end = {}
    wall_start = wall_end = time.perf_counter()
    while True:
        line = (await reader.readline()).strip()
        if line == b"mark":
            if recorder is not None:
                recorder.reset()
                recorder.active = True
                threads_start = thread_cpu()
            cpu_start, wall_start = time.process_time(), time.perf_counter()
        elif line == b"end":
            cpu_end, wall_end = time.process_time(), time.perf_counter()
            if recorder is not None:
                recorder.active = False
                threads_end = thread_cpu()
        elif line in (b"stop", b""):
            break
    peak_rss_kb = sum(_peak_rss_kb(pid) for pid in [os.getpid(), *workers])
    await service.stop()
    result = {
        "cpu_s": cpu_end - cpu_start,
        "wall_s": wall_end - wall_start,
        "peak_rss_mb": peak_rss_kb / 1024,
        "failure": str(service.failure) if service.failure else None,
    }
    if recorder is not None:
        from layers import LAYERS

        threads = {
            tid: (name, cpu - threads_start.get(tid, (name, 0.0))[1])
            for tid, (name, cpu) in sorted(threads_end.items())
        }
        owned = recorder.charge_helpers(threads)
        result["trace"] = summarize(recorder, service)
        result["trace"]["threads"] = []
        for tid, (name, cpu) in threads.items():
            by_layer = recorder.thread_cpu.get(tid, {})
            in_layers = sum(by_layer.get(layer, 0.0) for layer in LAYERS)
            result["trace"]["threads"].append(
                (name, cpu, in_layers - owned.get(tid, 0.0), owned.get(tid, 0.0))
            )
        if spans_out:
            recorder.write_spans(spans_out)
    return result


def summarize(recorder, service) -> dict:
    """The per-layer numbers only the server process can see."""
    from layers import LAYERS, TRACE, UNATTRIBUTED

    r = recorder
    temporal = service.temporal
    return {
        "self_s": {
            layer: r.self_cpu.get(layer, 0.0)
            for layer in (*LAYERS, UNATTRIBUTED, TRACE)
        },
        "calls": dict(r.calls),
        "frames": r.calls.get("service.protocol.parse_message", 0),
        "protocol_us_per_item": r.per_item_us(
            "service.protocol.decode_payload", "service.protocol.parse_message",
            per="service.window.submit",
        ),
        "queue_wait_ms": r.value_median("queue_wait") * 1000,
        "submit_self_us_per_item": r.per_item_us("service.window.submit"),
        "engine_calls": r.calls.get("service.window.engine_ingest", 0),
        "window_distinct_ratio": r.value_mean("window_distinct"),
        "partition_us_per_item": r.per_item_us("runtime.partition.split"),
        "partition_distinct_ratio": r.value_mean("split_distinct"),
        "sharded_ingest_self_us_per_item": r.per_item_us("runtime.sharded.ingest_batch"),
        "sharded_flush_self_ms": r.median_ms("runtime.sharded.flush_window"),
        "vectorized_ingest_us_per_item": r.per_item_us("core.vectorized.ingest_batch"),
        "vectorized_end_window_ms": r.median_ms("core.vectorized.end_window"),
        "observe_us_per_item": r.per_item_us("temporal.store.observe_items"),
        "seal_ms": r.median_ms("temporal.store.on_window"),
        "snapshot_ms": r.median_ms("core.serialize.snapshot_xsketch"),
        "restore_ms": r.median_ms("core.serialize.restore_xsketch"),
        "merged_sketch_ms": r.median_ms("runtime.sharded.merged_sketch"),
        "slim_summary_ms": r.median_ms("runtime.slim.summary"),
        "publish_ms": r.median_ms("replica.publisher.publish_boundary"),
        "delta_kb": r.value_mean("delta_bytes") / 1024,
        "range_ms": r.median_ms("temporal.store.range_reports"),
        "ladder_nodes": len(temporal.snapshot.nodes) if temporal is not None else 0,
        "reports_ms": r.median_ms("service.http.reports_response"),
        "history_ms": r.median_ms("service.http.history_response"),
        "response_kb": r.value_mean("response_bytes") / 1024,
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    recorder = None
    if spec["trace"]:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    result = asyncio.run(serve(spec, recorder, spec.get("spans_out")))
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
