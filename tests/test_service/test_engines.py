"""Service-level engine parity: the same trace served through each
runtime engine drains every window and answers ``/reports`` at the same
window sequence; the sharded vectorized engine answers with the
single-process engine's report set."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import XSketchConfig
from repro.core.engines import ENGINE_NAMES, make_engine
from repro.fitting.simplex import SimplexTask
from repro.runtime.sharded import ShardedXSketch
from repro.service import ServiceConfig, StreamService
from repro.service.loadgen import replay_trace
from repro.streams.datasets import make_dataset

SEED = 42
WINDOWS = 12
WINDOW_SIZE = 400


@pytest.fixture(scope="module")
def trace():
    return make_dataset("ip_trace", WINDOWS, WINDOW_SIZE, SEED)


def _config():
    return XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=40.0)


async def _raw_get(host, port, path):
    """One GET, returning the raw response body bytes (parity surface)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"200"
    return body


def _serve_and_fetch(engine_factory, trace):
    async def scenario():
        service = StreamService(
            engine_factory(),
            ServiceConfig(window_size=WINDOW_SIZE, micro_batch=128),
        )
        await service.start()
        ingest_host, ingest_port = service.ingest_address
        await replay_trace(trace, ingest_host, ingest_port, connections=2, batch_size=64)
        http_host, http_port = service.http_address
        body = await _raw_get(http_host, http_port, "/reports")
        windows_closed = service.manager.windows_closed
        await service.stop()
        return body, windows_closed

    return asyncio.run(scenario())


class TestReportsParityAcrossEngines:
    @pytest.fixture(scope="class")
    def bodies(self, trace):
        results = {}
        for engine in ENGINE_NAMES:
            results[engine] = _serve_and_fetch(
                lambda engine=engine: make_engine(_config(), seed=SEED, engine=engine),
                trace,
            )
        return results

    def test_all_engines_drained_every_window(self, bodies):
        assert {windows for _, windows in bodies.values()} == {WINDOWS}

    def test_same_window_sequence_in_every_body(self, bodies):
        windows = {json.loads(body)["window"] for body, _ in bodies.values()}
        assert windows == {WINDOWS}

    def test_sharded_vectorized_matches_single_process_set(self, trace):
        """The sharded coordinator merges per-shard report streams; the
        resulting /reports set matches the single-process vectorized
        engine on the same (key-partitioned) trace."""
        single_body, _ = _serve_and_fetch(
            lambda: make_engine(_config(), seed=SEED, engine="vectorized"), trace
        )
        sharded_body, _ = _serve_and_fetch(
            lambda: ShardedXSketch(
                _config(), n_shards=2, seed=SEED, backend="inline",
                engine="vectorized",
            ),
            trace,
        )

        def keys(body):
            return sorted(
                (r["report_window"], str(r["item"]))
                for r in json.loads(body)["reports"]
            )

        assert keys(sharded_body) == keys(single_body)
        assert json.loads(single_body)["total"] > 0
