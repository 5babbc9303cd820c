"""The benchmark of record: one command, one workload per run.

    python3 perfbench/run.py --workload ingest_zipf --seed 1 --seconds 20 --trace 0

Starts the service (``server.py``) as a separate process, drives the
named workload from this one process and event loop, checks the served
reports, and prints a table of every metric with its unit and sample
count, a per-run noise record, and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced (each sized for half of ``--seconds``) and reports the
per-layer metrics.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: server launches per run; setup_s is their median
SETUPS = 5

#: seconds the run waits for the last window's DELTA after the ack
DELTA_WAIT = 10.0

#: a traced run fails when more server CPU than this escapes the layers
MAX_OTHER_SHARE = 0.10

#: timing metrics are medians over this many consecutive blocks of a
#: run, so a burst of host noise in one block does not move them
BLOCKS = 5


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# host noise record (printed beside the metrics, never gated)


def _cpu_ticks():
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()[1:]
    return [int(value) for value in fields]


class NoiseRecord:
    """CPU count, load, steal time and generator lateness over a run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.start_ticks = _cpu_ticks()
        self.load_start = os.getloadavg()[0]
        self.lateness = []
        #: untimed input preparation (trace, oracle, direct run, frames)
        self.prep_s = 0.0

    def finish(self) -> dict:
        delta = [b - a for a, b in zip(self.start_ticks, _cpu_ticks())]
        steal = delta[7] if len(delta) > 7 else 0
        record = {
            "seed": self.seed,
            "cpu_count": os.cpu_count(),
            "loadavg_start": self.load_start,
            "loadavg_end": os.getloadavg()[0],
            "steal_s": steal / os.sysconf("SC_CLK_TCK"),
            "steal_share": steal / (sum(delta) or 1),
            "prep_s": self.prep_s,
        }
        if self.lateness:
            record["generator_late_p99_ms"] = percentile(self.lateness, 99) * 1000
            record["generator_late_max_ms"] = max(self.lateness) * 1000
        return record


def service_cpu(pids) -> float:
    """CPU seconds the service's processes have run, summed over threads.

    Read from ``schedstat`` (nanoseconds on CPU), which excludes time
    the host stole from the guest.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as stat:
                    total += int(stat.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total / 1e9


# ----------------------------------------------------------------------
# server process


class Server:
    """One server process and its control pipe."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.proc = None
        self.ports = None

    async def start(self) -> None:
        """Launch and wait until the ingest listener accepts."""
        # its own process group, so a kill reaches the shard workers too
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "server.py"), json.dumps(self.spec),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT), start_new_session=True,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        if not line:
            await self.proc.wait()
            raise RuntimeError(f"server exited with {self.proc.returncode} before ready")
        ready = json.loads(line)
        self.ports = ready["ready"]
        #: the server and its shard workers, for CPU accounting
        self.pids = [ready["pid"], *ready["workers"]]

    async def send(self, word: str) -> None:
        self.proc.stdin.write(word.encode("ascii") + b"\n")
        await self.proc.stdin.drain()

    async def stop(self) -> dict:
        """Drain the service; returns the server's result record."""
        result = None
        await self.send("stop")
        self.proc.stdin.close()
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 120)
            if not line:
                break
            result = json.loads(line).get("result", result)
        await asyncio.wait_for(self.proc.wait(), 60)
        if self.proc.returncode != 0 or result is None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return result

    async def kill(self) -> None:
        """After a failure: ask for a drain, then kill what is left of
        the process group (shard workers outlive a killed server)."""
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                await asyncio.wait_for(self.proc.wait(), 20)
            except asyncio.TimeoutError:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.proc.wait()


# ----------------------------------------------------------------------
# load


def query_path(windows_closed: int, j: int) -> str:
    """The query mix, in turn: a sliding recent range, the history, all
    reports.  Three kinds in equal shares keep the median inside one
    kind's latencies."""
    end = max(0, windows_closed - 1)
    start = max(0, end - 7)
    return (f"/reports?range={start}:{end}", "/history", "/reports")[j % 3]


async def query(port, path: str, due: float, stats) -> None:
    """One query, timed from its due time; a failed one counts as
    missing every latency limit (infinite latency)."""
    import client

    stats["queries"] += 1
    try:
        status, _ = await client.http_get(port, path)
    except (OSError, asyncio.TimeoutError):
        status = 0
    if status != 200:
        stats["queries_failed"] += 1
        stats["query_latency"].append(math.inf)
    else:
        stats["query_latency"].append(time.perf_counter() - due)


async def run_queries(port, due_times, windows_closed, stats) -> None:
    """The open loop's queries: one at a time, on a fixed schedule."""
    for j, due in enumerate(due_times):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await query(port, query_path(windows_closed(), j), due, stats)


async def drive_closed(server, workload, frames, stats, scrape) -> None:
    """One request per window: its frames, then wait for the acks."""
    import client
    from inputs import WARMUP_WINDOWS

    port = server.ports["ingest"]
    conns = workload.connections
    for w, window_frames in enumerate(frames):
        if w == WARMUP_WINDOWS:
            await scrape("start")
            await server.send("mark")
        groups = [window_frames[c::conns] for c in range(conns)]
        cpu_before = service_cpu(server.pids)
        began = time.perf_counter()
        _, acked_at, acks = await client.send_window(port, groups)
        cpu = service_cpu(server.pids) - cpu_before
        received = sum(ack.get("received", 0) for ack in acks if ack)
        stats["items_sent"] += workload.window_size
        stats["items_acked"] += received
        stats["items_dropped"] += sum(ack.get("dropped", 0) for ack in acks if ack)
        if w < WARMUP_WINDOWS:
            continue
        stats["timed_items"] += received
        stats["timed_seconds"] += acked_at - began
        stats["window_spans"].append((acked_at - began, received, cpu))
    await server.send("end")
    await scrape("end")


async def drive_open(server, workload, frames, stats, scrape, subscriber, noise) -> None:
    """Ingest on a fixed schedule; queries on another; the subscriber listens."""
    import client
    from inputs import WARMUP_WINDOWS

    interval = workload.batch / workload.rate
    per_window = len(frames[0])
    flat = [frame for window_frames in frames for frame in window_frames]
    reader, writer = await asyncio.open_connection("127.0.0.1", server.ports["ingest"])
    writer.write(client.MAGIC)
    t0 = time.perf_counter() + 0.05
    timed_index = WARMUP_WINDOWS * per_window
    timed_start = t0 + timed_index * interval
    end_due = t0 + len(flat) * interval
    query_due = [
        timed_start + j / workload.query_rate
        for j in range(int((end_due - timed_start) * workload.query_rate))
    ]
    query_task = None
    last_due = {}
    try:
        for i, frame in enumerate(flat):
            due = t0 + i * interval
            if i == timed_index:
                await scrape("start")
                await server.send("mark")
                cpu_start = service_cpu(server.pids)
                query_task = asyncio.create_task(run_queries(
                    server.ports["http"], query_due, lambda: len(last_due), stats,
                ))
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            noise.lateness.append(time.perf_counter() - due)
            writer.write(frame)
            await writer.drain()
            if (i + 1) % per_window == 0:
                last_due[(i + 1) // per_window] = due
        writer.write_eof()
        ack = await asyncio.wait_for(client.read_message(reader), client.IO_TIMEOUT)
        acked_at = time.perf_counter()
    finally:
        writer.close()
        if query_task is not None:
            await query_task
    stats["items_sent"] = len(frames) * workload.window_size
    stats["items_acked"] = ack.get("received", 0)
    stats["items_dropped"] = ack.get("dropped", 0)
    stats["timed_items"] = (len(frames) - WARMUP_WINDOWS) * workload.window_size
    stats["timed_seconds"] = acked_at - timed_start
    await subscriber.wait_window(len(frames), DELTA_WAIT)
    stats["timed_cpu"] = service_cpu(server.pids) - cpu_start
    await server.send("end")
    await scrape("end")
    stream = subscriber.collect()
    arrivals = stream["arrivals"]
    stats["replica_reports"] = stream["reports"]
    stats["resyncs"] = stream["resyncs"]
    stats["windows_expected"] = len(frames)
    stats["windows_missing"] = sum(
        1 for w in range(1, len(frames) + 1) if w not in arrivals
    )
    for w in range(WARMUP_WINDOWS + 1, len(frames) + 1):
        if w in arrivals:
            stats["report_latency"].append(arrivals[w] - last_due[w])


async def one_pass(workload, frames, traced: bool, spans_out, noise) -> dict:
    """Set up SETUPS times, drive the workload on the last, collect."""
    import client
    from inputs import server_spec

    stats = {
        "items_sent": 0, "items_acked": 0, "items_dropped": 0, "timed_items": 0,
        "timed_seconds": 0.0, "timed_cpu": 0.0, "queries": 0, "queries_failed": 0,
        "windows_expected": 0, "windows_missing": 0, "resyncs": 0,
        "report_latency": [], "query_latency": [], "window_spans": [],
        "setup": [], "scrapes": {},
    }
    spec = server_spec(workload, traced, spans_out)
    server = subscriber = None
    try:
        for attempt in range(SETUPS):
            server = Server(spec)
            started = time.perf_counter()
            await server.start()
            if workload.server["publish"]:
                subscriber = client.Subscriber(server.ports["publish"])
                subscriber.start()
                await asyncio.wait_for(subscriber.first_snapshot.wait(), 60)
            stats["setup"].append(time.perf_counter() - started)
            if attempt < SETUPS - 1:
                if subscriber is not None:
                    await subscriber.stop()
                    subscriber = None
                await server.stop()
        http_port = server.ports["http"]

        async def scrape(name):
            if traced:
                stats["scrapes"][name] = {
                    "metrics": await client.get_text(http_port, "/metrics"),
                    "stats": await client.get_json(http_port, "/stats?engine=1"),
                    "at": time.perf_counter(),
                }

        if workload.mode == "closed":
            await drive_closed(server, workload, frames, stats, scrape)
        else:
            await drive_open(server, workload, frames, stats, scrape, subscriber, noise)
        stats["served"] = (await client.get_json(http_port, "/reports"))["reports"]
        if subscriber is not None:
            await subscriber.stop()
            subscriber = None
        stats["server"] = await server.stop()
        return stats
    finally:
        if subscriber is not None:
            await subscriber.stop()
        if server is not None:
            await server.kill()


# ----------------------------------------------------------------------
# metrics


def blocks(samples):
    """``samples`` (in time order) cut into BLOCKS consecutive parts."""
    n = len(samples)
    return [samples[i * n // BLOCKS:(i + 1) * n // BLOCKS] for i in range(BLOCKS)]


def block_percentile(samples, q: float) -> float:
    """Median over the blocks of each block's ``q`` percentile."""
    return statistics.median(percentile(part, q) for part in blocks(samples))


def ingest_mops(stats) -> float:
    """Items acknowledged per wall second of ingest: the median over
    the blocks of consecutive timed windows."""
    spans = stats["window_spans"]
    return statistics.median(
        sum(items for _, items, _ in part) / sum(seconds for seconds, _, _ in part) / 1e6
        for part in blocks(spans)
    )


def cpu_us_per_item(stats) -> float:
    """Service CPU per item; on a closed loop, the median over blocks."""
    spans = stats["window_spans"]
    if not spans:
        return stats["timed_cpu"] / stats["timed_items"] * 1e6
    return statistics.median(
        sum(cpu for _, _, cpu in part) / sum(items for _, items, _ in part) * 1e6
        for part in blocks(spans)
    )


def end_to_end(stats, scores) -> dict:
    """The gated end-to-end metrics: (value, unit, samples)."""
    windows = len(stats["window_spans"]) or 1
    return {
        "cpu_us_per_item": (cpu_us_per_item(stats), "us/item", windows),
        "f1": (scores.f1, "ratio", scores.actual),
        "precision": (scores.precision, "ratio", scores.reported),
        "recall": (scores.recall, "ratio", scores.actual),
        "setup_s": (statistics.median(stats["setup"]), "s", len(stats["setup"])),
        "peak_rss_mb": (stats["server"]["peak_rss_mb"], "MB", 1),
    }


def wall_clock(stats, workload) -> dict:
    """Wall-clock throughput (closed loops) or latency (open loop):
    printed, not gated, because they move with the time the host
    steals (README, "Why ...")."""
    if workload.mode == "closed":
        windows = len(stats["window_spans"])
        return {"ingest_mops": (ingest_mops(stats), "Mops", windows)}
    report = stats["report_latency"]
    query = stats["query_latency"]
    return {
        "report_latency_p50_ms": (block_percentile(report, 50) * 1000, "ms", len(report)),
        "report_latency_p90_ms": (block_percentile(report, 90) * 1000, "ms", len(report)),
        "query_latency_p50_ms": (block_percentile(query, 50) * 1000, "ms", len(query)),
        "query_latency_p99_ms": (block_percentile(query, 99) * 1000, "ms", len(query)),
    }


def _phase_totals(text: str) -> dict:
    """``pipeline_phase_seconds`` sum and count per phase."""
    from repro.obs.expo import parse_text

    totals = {}
    for key, value in parse_text(text).items():
        for part in ("sum", "count"):
            prefix = f'pipeline_phase_seconds_{part}{{phase="'
            if key.startswith(prefix):
                totals.setdefault(key[len(prefix):-2], {})[part] = value
    return totals


def _counter(text: str, name: str) -> float:
    from repro.obs.expo import parse_text

    return parse_text(text).get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats, untraced_stats, workload):
    """The per-layer metrics and the layer detail: (value, unit, samples).

    Returns ``(metrics, detail)``.  ``metrics`` is what the JSON line
    carries: per-call and per-item times, counts and ratios of every
    layer (0 where the workload leaves the layer idle), the coverage
    account and each layer's share of the server's CPU.  ``detail``
    holds the same CPU shares and profiler phases as absolute seconds;
    it is printed and recorded, not in the JSON line.
    """
    from layers import LAYERS, TRACE, UNATTRIBUTED
    from repro.obs.profile import PHASE_NAMES

    trace = stats["server"]["trace"]
    calls = trace["calls"]
    start, end = stats["scrapes"]["start"], stats["scrapes"]["end"]
    wall = end["at"] - start["at"]

    def delta(name):
        return _counter(end["metrics"], name) - _counter(start["metrics"], name)

    phases_start = _phase_totals(start["metrics"])
    phases_end = _phase_totals(end["metrics"])

    def phase(name, part="sum"):
        return phases_end.get(name, {}).get(part, 0.0) - phases_start.get(name, {}).get(part, 0.0)

    shards_start = start["stats"]["engine"]["shards"]
    shards_end = end["stats"]["engine"]["shards"]
    busy = sum(b["worker"]["busy_seconds"] - a["worker"]["busy_seconds"]
               for a, b in zip(shards_start, shards_end))
    routed = [b["items_routed"] - a["items_routed"] for a, b in zip(shards_start, shards_end)]
    promotions = sum(b["worker"]["stats"]["promotions"] - a["worker"]["stats"]["promotions"]
                     for a, b in zip(shards_start, shards_end))
    hits = delta("vectorized_hash_cache_hits_total")
    misses = delta("vectorized_hash_cache_misses_total")
    merged_hits = delta("runtime_merged_cache_hits_total")
    merged_misses = delta("runtime_merged_cache_misses_total")
    n_windows = phase("window", "count")
    # the wrappers' own cost is neither the program's nor uncovered
    self_s = trace["self_s"]
    cpu = stats["server"]["cpu_s"]
    program_cpu = cpu - self_s[TRACE]
    covered = sum(self_s[layer] for layer in LAYERS)
    # the share of untraced speed the traced pass keeps
    if workload.mode == "closed":
        overhead = _ratio(_mops(stats), _mops(untraced_stats))
    else:
        overhead = _ratio(percentile(untraced_stats["report_latency"], 50),
                          percentile(stats["report_latency"], 50))
    windows = len(stats["window_spans"]) or len(stats["report_latency"])
    metrics = {
        "service.protocol.frames": (trace["frames"], "count", 1),
        "service.protocol.us_per_item": (
            trace["protocol_us_per_item"], "us/item", calls.get("service.protocol.parse_message", 0)),
        "service.server.queue_wait_ms": (
            trace["queue_wait_ms"], "ms", calls.get("service.window.submit", 0)),
        "service.window.submit_self_us_per_item": (
            trace["submit_self_us_per_item"], "us/item", calls.get("service.window.submit", 0)),
        "service.window.engine_calls": (trace["engine_calls"], "count", 1),
        "service.window.distinct_ratio": (trace["window_distinct_ratio"], "ratio", windows),
        "runtime.partition.us_per_item": (
            trace["partition_us_per_item"], "us/item", calls.get("runtime.partition.split", 0)),
        "runtime.partition.distinct_ratio": (
            trace["partition_distinct_ratio"], "ratio", calls.get("runtime.partition.split", 0)),
        "runtime.sharded.ingest_self_us_per_item": (
            trace["sharded_ingest_self_us_per_item"], "us/item",
            calls.get("runtime.sharded.ingest_batch", 0)),
        "runtime.sharded.flush_self_ms": (
            trace["sharded_flush_self_ms"], "ms", calls.get("runtime.sharded.flush_window", 0)),
        "runtime.sharded.shard_skew": (_ratio(max(routed), statistics.fmean(routed)), "ratio", 1),
        "runtime.sharded.merged_sketch_ms": (
            trace["merged_sketch_ms"], "ms", calls.get("runtime.sharded.merged_sketch", 0)),
        "runtime.sharded.merged_cache_hit_ratio": (
            _ratio(merged_hits, merged_hits + merged_misses), "ratio", merged_hits + merged_misses),
        "runtime.worker.busy_s": (busy, "s", 1),
        "runtime.worker.utilization": (_ratio(busy, wall * len(routed)), "ratio", 1),
        "runtime.worker.checkpoint_ms": (
            _ratio(phase("checkpoint"), n_windows) * 1000, "ms", n_windows),
        "runtime.slim.summary_ms": (
            trace["slim_summary_ms"], "ms", calls.get("runtime.slim.summary", 0)),
        "core.vectorized.ingest_us_per_item": (
            trace["vectorized_ingest_us_per_item"], "us/item",
            calls.get("core.vectorized.ingest_batch", 0)),
        "core.vectorized.end_window_ms": (
            trace["vectorized_end_window_ms"], "ms", calls.get("core.vectorized.end_window", 0)),
        "core.vectorized.promotions": (promotions, "count", 1),
        "sketch.vectorized_tower.cache_hit_ratio": (
            _ratio(hits, hits + misses), "ratio", hits + misses),
        "temporal.store.observe_us_per_item": (
            trace["observe_us_per_item"], "us/item", calls.get("temporal.store.observe_items", 0)),
        "temporal.store.seal_ms": (
            trace["seal_ms"], "ms", calls.get("temporal.store.on_window", 0)),
        "temporal.store.range_ms": (
            trace["range_ms"], "ms", calls.get("temporal.store.range_reports", 0)),
        "temporal.store.ladder_nodes": (trace["ladder_nodes"], "count", 1),
        "core.serialize.snapshot_ms": (
            trace["snapshot_ms"], "ms", calls.get("core.serialize.snapshot_xsketch", 0)),
        "core.serialize.restore_ms": (
            trace["restore_ms"], "ms", calls.get("core.serialize.restore_xsketch", 0)),
        "replica.publisher.publish_ms": (
            trace["publish_ms"], "ms", calls.get("replica.publisher.publish_boundary", 0)),
        "replica.publisher.delta_kb": (
            trace["delta_kb"], "kB", calls.get("replica.publisher.encode_frame", 0)),
        "service.http.reports_ms": (
            trace["reports_ms"], "ms", calls.get("service.http.reports_response", 0)),
        "service.http.history_ms": (
            trace["history_ms"], "ms", calls.get("service.http.history_response", 0)),
        "service.http.response_kb": (
            trace["response_kb"], "kB", calls.get("service.http.render_response", 0)),
        "trace.server_cpu_s": (cpu, "s", 1),
        "trace.other_share": (_ratio(program_cpu - covered, program_cpu), "ratio", 1),
        "trace.unattributed_share": (_ratio(self_s[UNATTRIBUTED], program_cpu), "ratio", 1),
        "trace.overhead": (overhead, "ratio", 1),
    }
    for layer, seconds in self_s.items():
        metrics[f"cpu_share.{layer}"] = (_ratio(seconds, cpu), "ratio", 1)
    for name in PHASE_NAMES:
        metrics[f"profiler.{name}_per_s"] = (
            _ratio(phase(name), wall), "ratio", phase(name, "count"))
    detail = {f"self_s.{layer}": (seconds, "s", 1) for layer, seconds in self_s.items()}
    for name in PHASE_NAMES:
        detail[f"profiler.{name}_s"] = (phase(name), "s", phase(name, "count"))
    return metrics, detail


def _mops(stats) -> float:
    return _ratio(stats["timed_items"], stats["timed_seconds"]) / 1e6


# ----------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(title, rows) -> None:
    print(f"== {title}")
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:44s} {value:14.6g} {unit:8s} n={int(samples)}")


async def main_async(args) -> int:
    import inputs
    from repro.metrics.classification import score_reports

    workload = inputs.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    passes = [(False, args.seconds)]
    if args.trace:
        passes = [(False, args.seconds / 2), (True, args.seconds / 2)]
    noise = NoiseRecord(args.seed)
    results = []
    correct = True
    attempted = failed = 0
    for traced, seconds in passes:
        prep_start = time.perf_counter()
        windows = inputs.make_trace(workload, args.seed, seconds)
        truth = inputs.oracle_instances(windows)
        reference = inputs.reference_reports(workload, windows)
        frames = inputs.encode_windows(workload, windows)
        # the inputs live for the whole run; keep the collector off them
        gc.collect()
        gc.freeze()
        noise.prep_s += time.perf_counter() - prep_start
        spans_out = None
        if traced:
            spans_out = str(out_dir / f"spans-{workload.name}-{args.seed}.tsv")
        stats = await one_pass(workload, frames, traced, spans_out, noise)
        served = stats["served"]
        checks = {
            "served == direct run": served == reference,
            "replica view == served": stats.get("replica_reports", served) == served,
            "no engine failure": stats["server"]["failure"] is None,
        }
        scores = score_reports(_as_reports(served), truth)
        failures = {
            "items unacknowledged": stats["items_sent"] - stats["items_acked"],
            "items dropped": stats["items_dropped"],
            "queries non-200": stats["queries_failed"],
            "windows without DELTA": stats["windows_missing"],
            "subscriber re-syncs": stats["resyncs"],
        }
        attempted += stats["items_sent"] + stats["queries"] + stats["windows_expected"]
        failed += sum(failures.values())
        speed = ", ".join(
            f"{name} {value:.6g}" for name, (value, _, _) in wall_clock(stats, workload).items()
        )
        print(f"== pass: {'traced' if traced else 'untraced'}, "
              f"{len(windows)} windows of {workload.window_size}, {speed}, "
              f"server cpu {stats['server']['cpu_s']:.3f} s of {stats['server']['wall_s']:.3f} s")
        for name, ok in checks.items():
            print(f"  check {name:40s} {'ok' if ok else 'FAILED'}")
            correct &= ok
        for name, count in failures.items():
            print(f"  failed {name:39s} {count}")
        results.append((stats, scores))
    untraced_stats, untraced_scores = results[0]
    if args.trace:
        stats, _ = results[1]
        metrics, detail = per_layer(stats, untraced_stats, workload)
        print_table("per-layer metrics (traced pass)", metrics)
        print_table("layer detail (traced pass, not in the JSON line)", detail)
        print("== server threads: CPU seconds; of them in layer spans, "
              "charged to the layers a helper thread serves")
        for name, cpu, spans, owned in stats["server"]["trace"]["threads"]:
            print(f"  {name:24s} {cpu:10.4f} s {spans:10.4f} s {owned:10.4f} s")
        other = metrics["trace.other_share"][0]
        if other > MAX_OTHER_SHARE:
            print(f"  trace.other_share {other:.3f} exceeds {MAX_OTHER_SHARE}: layers incomplete")
            correct = False
    else:
        detail = {}
        metrics = end_to_end(untraced_stats, untraced_scores)
        print_table("end-to-end metrics (gated)", metrics)
        print_table("wall-clock metrics (not gated)", wall_clock(untraced_stats, workload))
    record = noise.finish()
    print("== noise record (not gated)")
    print("  " + json.dumps(record))
    (out_dir / f"record-{workload.name}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"noise": record, "metrics": metrics, "detail": detail,
                    "wall_clock": wall_clock(untraced_stats, workload), "samples": {
            key: untraced_stats[key] for key in
            ("report_latency", "query_latency", "window_spans", "setup")
        }})
    )
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _as_reports(records):
    """Served report records as objects carrying ``instance``."""
    from repro.core.reports import SimplexReport

    return [
        SimplexReport(
            item=r["item"], start_window=r["start_window"],
            report_window=r["report_window"], lasting_time=r["lasting_time"],
            coefficients=tuple(r["coefficients"]), mse=r["mse"],
        )
        for r in records
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
