"""In-process server tests: e2e equivalence, flow control, lifecycle, HTTP.

Everything runs on ephemeral loopback ports with the inline shard
backend (deterministic, no worker processes), so these are ordinary
tier-1 tests.
"""

import asyncio

import pytest

from repro.config import XSketchConfig
from repro.core.xsketch import XSketch
from repro.fitting.simplex import SimplexTask
from repro.runtime.sharded import ShardedXSketch
from repro.service import ServiceConfig, StreamService
from repro.service.loadgen import replay_trace, send_shutdown
from repro.service.protocol import MAGIC, decode_payload, encode_frame, encode_line, read_frame
from repro.streams.datasets import make_dataset

from tests.test_service.helpers import RecordingEngine, http_request

SEED = 42
WINDOWS = 12
WINDOW_SIZE = 400


@pytest.fixture(scope="module")
def trace():
    return make_dataset("ip_trace", WINDOWS, WINDOW_SIZE, SEED)


def sketch_config():
    return XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=40.0)


def direct_reports(trace, n_shards=2):
    engine = ShardedXSketch(sketch_config(), n_shards=n_shards, seed=SEED, backend="inline")
    for window in trace.windows():
        engine.run_window(window)
    engine.close()
    return engine.report()


def service_over_shards(n_shards=2, **config_kwargs):
    engine = ShardedXSketch(sketch_config(), n_shards=n_shards, seed=SEED, backend="inline")
    config_kwargs.setdefault("window_size", WINDOW_SIZE)
    config_kwargs.setdefault("micro_batch", 128)
    return StreamService(engine, ServiceConfig(**config_kwargs))


class TestEndToEnd:
    def test_concurrent_loadgen_matches_direct_run(self, trace):
        """The acceptance path: N concurrent ordered connections into a
        sharded service, drain on shutdown, reports byte-identical to a
        direct in-process run of the same trace."""

        async def scenario():
            service = service_over_shards()
            await service.start()
            host, port = service.ingest_address
            stats = await replay_trace(
                trace, host, port, connections=4, batch_size=64, shutdown=True
            )
            await asyncio.wait_for(service.wait_stopped(), timeout=30)
            return service, stats

        service, stats = asyncio.run(scenario())
        assert stats.total_items == len(trace)
        assert stats.received_items == len(trace)
        assert stats.dropped_items == 0
        assert service.manager.windows_closed == WINDOWS
        assert list(service.manager.snapshot.reports) == direct_reports(trace)

    def test_single_connection_xsketch_engine(self, trace):
        """A plain (non-sharded) engine behind the same service protocol."""

        async def scenario():
            engine = XSketch(sketch_config(), seed=SEED)
            service = StreamService(
                engine, ServiceConfig(window_size=WINDOW_SIZE, micro_batch=256)
            )
            await service.start()
            host, port = service.ingest_address
            await replay_trace(trace, host, port, connections=1, batch_size=100)
            await service.stop()
            return list(service.manager.snapshot.reports)

        served = asyncio.run(scenario())
        direct = XSketch(sketch_config(), seed=SEED)
        for window in trace.windows():
            direct.run_window(window)
        assert served == direct.reports

    def test_jsonl_variant_equivalent_to_framed(self, trace):
        async def ingest(protocol):
            service = service_over_shards()
            await service.start()
            host, port = service.ingest_address
            stats = await replay_trace(
                trace, host, port, connections=2, batch_size=64, protocol=protocol
            )
            await service.stop()
            return stats, list(service.manager.snapshot.reports)

        framed_stats, framed_reports = asyncio.run(ingest("framed"))
        jsonl_stats, jsonl_reports = asyncio.run(ingest("jsonl"))
        assert framed_stats.received_items == jsonl_stats.received_items == len(trace)
        assert framed_reports == jsonl_reports == direct_reports(trace)

    def test_unordered_mode_delivers_everything(self, trace):
        """Without seq stamps report equality is not guaranteed, but
        delivery and window accounting still are."""

        async def scenario():
            service = service_over_shards()
            await service.start()
            host, port = service.ingest_address
            stats = await replay_trace(
                trace, host, port, connections=3, batch_size=64, ordered=False
            )
            await service.stop()
            return service, stats

        service, stats = asyncio.run(scenario())
        assert stats.received_items == len(trace)
        assert service.manager.windows_closed == WINDOWS
        assert service.manager.items_total == len(trace)


class TestFlowControl:
    def test_drop_policy_counts_and_bounds(self):
        """Overload with drop: queue memory stays bounded and every sent
        item is either acknowledged or counted as dropped."""
        n_batches, batch_items = 40, 10

        async def scenario():
            engine = RecordingEngine(delay=0.01)
            service = StreamService(
                engine,
                ServiceConfig(
                    window_size=10**9, micro_batch=batch_items,
                    queue_batches=2, overload="drop",
                ),
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC)
            for index in range(n_batches):
                writer.write(encode_frame([f"i{index}-{j}" for j in range(batch_items)]))
            await writer.drain()
            # sample queue depths while the slow engine chews
            depths = []
            for _ in range(10):
                status, stats = await http_request(*service.http_address, "/stats")
                assert status == 200
                depths.extend(
                    (c["queue_depth"], c["queue_capacity"])
                    for c in stats["per_connection"]
                )
                await asyncio.sleep(0.01)
            writer.write_eof()
            ack = decode_payload(await read_frame(reader, 1 << 20))
            writer.close()
            await service.stop()
            return engine, service, ack, depths

        engine, service, ack, depths = asyncio.run(scenario())
        sent = n_batches * batch_items
        assert ack["received"] + ack["dropped"] == sent
        assert ack["dropped"] > 0, "slow consumer at capacity 2 must drop"
        assert service.dropped_items == ack["dropped"]
        assert len(engine.items) == ack["received"]
        for depth, capacity in depths:
            assert depth <= capacity == 2

    def test_pushback_policy_delivers_everything(self):
        """Overload with pushback: the reader stalls instead of dropping,
        so a slow consumer still receives every item."""
        n_batches, batch_items = 20, 10

        async def scenario():
            engine = RecordingEngine(delay=0.005)
            service = StreamService(
                engine,
                ServiceConfig(
                    window_size=10**9, micro_batch=batch_items,
                    queue_batches=2, overload="pushback",
                ),
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC)
            for index in range(n_batches):
                writer.write(encode_frame([f"i{index}-{j}" for j in range(batch_items)]))
                await writer.drain()
            writer.write_eof()
            ack = decode_payload(await read_frame(reader, 1 << 20))
            writer.close()
            await service.stop()
            return engine, ack

        engine, ack = asyncio.run(scenario())
        assert ack == {"received": n_batches * batch_items, "dropped": 0}
        assert len(engine.items) == n_batches * batch_items

    def test_micro_batching_coalesces_frames(self):
        """Many small frames reach the engine as few ingest_batch calls."""

        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine, ServiceConfig(window_size=100, micro_batch=50)
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC)
            for index in range(20):  # 20 frames x 5 items = one window
                writer.write(encode_frame([f"x{index}-{j}" for j in range(5)]))
            writer.write_eof()
            await read_frame(reader, 1 << 20)
            writer.close()
            await service.stop()
            return engine

        engine = asyncio.run(scenario())
        assert len(engine.items) == 100
        assert engine.windows == 1
        # 100 items at micro_batch=50: far fewer engine calls than frames
        assert len(engine.batches) <= 3
        assert max(engine.batches) <= 50


class TestWindowAdvance:
    def test_flush_op_closes_partial_window(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine, ServiceConfig(window_size=1000, micro_batch=100)
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC)
            writer.write(encode_frame(["a", "b", "c"]))
            writer.write(encode_frame({"op": "flush"}))
            writer.write_eof()
            await read_frame(reader, 1 << 20)
            writer.close()
            await service.stop()
            return engine, service

        engine, service = asyncio.run(scenario())
        assert engine.windows == 1
        assert service.manager.windows_closed == 1
        assert engine.items == ["a", "b", "c"]

    def test_wall_clock_tick_closes_window(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine,
                ServiceConfig(window_size=10**9, window_seconds=0.03, micro_batch=10),
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC + encode_frame(["t1", "t2"]))
            await writer.drain()
            for _ in range(100):
                if service.manager.windows_closed >= 1:
                    break
                await asyncio.sleep(0.02)
            writer.write_eof()
            await read_frame(reader, 1 << 20)
            writer.close()
            closed_by_tick = service.manager.windows_closed
            await service.stop()
            return closed_by_tick, engine

        closed_by_tick, engine = asyncio.run(scenario())
        assert closed_by_tick >= 1
        assert engine.items == ["t1", "t2"]

    def test_idle_ticks_do_not_spin_windows(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine,
                ServiceConfig(window_size=10**9, window_seconds=0.01),
            )
            await service.start()
            await asyncio.sleep(0.1)
            await service.stop()
            return engine

        engine = asyncio.run(scenario())
        assert engine.windows == 0


class TestLifecycle:
    def test_drain_flushes_open_window_and_closes_engine(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine, ServiceConfig(window_size=1000, micro_batch=100)
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC + encode_frame(["a", "b"]))
            writer.write_eof()
            await read_frame(reader, 1 << 20)
            writer.close()
            await service.stop()
            await service.stop()  # idempotent
            return engine

        engine = asyncio.run(scenario())
        assert engine.windows == 1, "drain must flush the open window"
        assert engine.items == ["a", "b"]
        assert engine.closed

    def test_shutdown_op_drains_service(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(
                engine, ServiceConfig(window_size=1000, micro_batch=10)
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_line(["z1", "z2"]) + encode_line({"op": "shutdown"}))
            await writer.drain()
            writer.write_eof()
            ack = decode_payload((await reader.readline()).strip())
            writer.close()
            await asyncio.wait_for(service.wait_stopped(), timeout=10)
            return engine, ack

        engine, ack = asyncio.run(scenario())
        assert ack["received"] == 2
        assert engine.windows == 1
        assert engine.closed

    def test_send_shutdown_helper(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(engine, ServiceConfig(window_size=1000))
            await service.start()
            host, port = service.ingest_address
            await send_shutdown(host, port)
            await asyncio.wait_for(service.wait_stopped(), timeout=10)
            return engine

        assert asyncio.run(scenario()).closed

    def test_engine_failure_fails_fast(self):
        """A RuntimeShardError from the engine stops the whole service
        without any external shutdown request."""

        async def scenario():
            engine = RecordingEngine(fail_after=0)
            service = StreamService(
                engine, ServiceConfig(window_size=1000, micro_batch=5)
            )
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(MAGIC + encode_frame(["a", "b", "c", "d", "e"]))
            writer.write_eof()
            await reader.read()  # connection unwinds cleanly
            writer.close()
            await asyncio.wait_for(service.wait_stopped(), timeout=10)
            return service, engine

        service, engine = asyncio.run(scenario())
        from repro.errors import RuntimeShardError

        assert isinstance(service.failure, RuntimeShardError)
        assert engine.closed, "fail-fast still releases engine resources"
        assert engine.items == [], "no item survives a failing ingest"

    def test_healthz_reports_failure(self):
        from repro.errors import RuntimeShardError

        async def scenario():
            service = StreamService(RecordingEngine(), ServiceConfig(window_size=100))
            await service.start()
            service._record_failure(RuntimeShardError("injected shard failure"))
            status, health = await http_request(*service.http_address, "/healthz")
            await service.stop()
            return status, health

        status, health = asyncio.run(scenario())
        assert status == 503
        assert health["status"] == "failing"
        assert "injected shard failure" in health["error"]

    def test_malformed_traffic_gets_error_ack(self):
        async def scenario():
            engine = RecordingEngine()
            service = StreamService(engine, ServiceConfig(window_size=1000))
            await service.start()
            host, port = service.ingest_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_line(["ok"]) + b'{"op": "reboot"}\n')
            await writer.drain()
            writer.write_eof()
            ack = decode_payload((await reader.readline()).strip())
            writer.close()
            await service.stop()
            return engine, ack

        engine, ack = asyncio.run(scenario())
        assert "unknown op" in ack["error"]
        assert ack["received"] == 1, "messages before the bad one still count"
        assert engine.items == ["ok"]

    def test_out_of_range_item_is_rejected_and_service_continues(self):
        """An integer ID that cannot hash as 64 bits is refused at the
        protocol layer: the ack names the error, the batch never reaches
        the window, and the next connection is served normally."""

        async def send(port, message):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(MAGIC + encode_frame(message))
            writer.write_eof()
            ack = decode_payload(await read_frame(reader, 1 << 20))
            writer.close()
            return ack

        async def scenario():
            service = service_over_shards(window_size=4)
            await service.start()
            _, port = service.ingest_address
            bad = await send(port, [2**70, "a"])
            items_after_bad = service.manager.items_total
            good = await send(port, ["a", "b", "a", 7])
            await service.stop()
            return service, bad, items_after_bad, good

        service, bad, items_after_bad, good = asyncio.run(scenario())
        assert "64 bits" in bad["error"]
        assert bad["received"] == 0
        assert items_after_bad == 0
        assert good == {"received": 4, "dropped": 0}
        assert service.failure is None
        assert service.manager.windows_closed == 1


class TestHttpApi:
    def test_endpoints(self, trace):
        async def scenario():
            service = service_over_shards()
            await service.start()
            host, port = service.ingest_address
            await replay_trace(trace, host, port, connections=2, batch_size=100)
            http = service.http_address
            health = await http_request(*http, "/healthz")
            stats = await http_request(*http, "/stats")
            engine_stats = await http_request(*http, "/stats?engine=1")
            reports = await http_request(*http, "/reports")
            limited = await http_request(*http, "/reports?limit=2")
            since = await http_request(*http, "/reports?since=6")
            missing = await http_request(*http, "/nope")
            bad_method = await http_request(*http, "/reports", method="POST")
            await service.stop()
            return service, health, stats, engine_stats, reports, limited, since, missing, bad_method

        (service, health, stats, engine_stats, reports,
         limited, since, missing, bad_method) = asyncio.run(scenario())
        direct = direct_reports(trace)

        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["window"] == WINDOWS
        assert health[1]["items_total"] == len(trace)
        # Sharded engines expose their supervision view on /healthz.
        assert health[1]["engine"]["status"] == "ok"
        assert health[1]["engine"]["restarts_total"] == 0
        assert stats[0] == 200
        assert stats[1]["items_total"] == len(trace)
        assert stats[1]["window"] == WINDOWS
        assert stats[1]["reports"] == len(direct)
        assert engine_stats[1]["engine"]["n_shards"] == 2
        assert engine_stats[1]["engine"]["items_routed"] == len(trace)

        assert reports[0] == 200
        assert reports[1]["total"] == len(direct)
        assert [r["item"] for r in reports[1]["reports"]] == [r.item for r in direct]
        assert len(limited[1]["reports"]) == min(2, len(direct))
        assert limited[1]["total"] == len(direct)
        assert all(r["report_window"] >= 6 for r in since[1]["reports"])

        assert missing[0] == 404
        assert bad_method[0] == 405

    def test_item_filter(self, trace):
        async def scenario():
            service = service_over_shards()
            await service.start()
            host, port = service.ingest_address
            await replay_trace(trace, host, port)
            direct = direct_reports(trace)
            item = str(direct[0].item)
            status, body = await http_request(
                *service.http_address, f"/reports?item={item}"
            )
            await service.stop()
            return item, status, body

        item, status, body = asyncio.run(scenario())
        assert status == 200
        assert body["total"] >= 1
        assert all(r["item"] == item or str(r["item"]) == item for r in body["reports"])

    def test_bad_query_parameter(self):
        async def scenario():
            service = StreamService(RecordingEngine(), ServiceConfig(window_size=100))
            await service.start()
            status, body = await http_request(
                *service.http_address, "/reports?since=abc"
            )
            await service.stop()
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "bad query parameter" in body["error"]
