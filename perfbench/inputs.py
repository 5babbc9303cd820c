"""Workload definitions and everything derived from the seed.

A workload fixes the trace, the server configuration and the load
shape.  From ``--seed`` ``run.py`` builds the trace, the exact oracle's
instance set, the reports of a direct in-process run of the same engine
configuration (the report-identity reference of docs/SERVICE.md), and
the pre-encoded wire frames, all before any timing starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: k=1 paper defaults (p=7, T=2, L=1) throughout
K = 1

#: engine seed; only the trace depends on ``--seed``
ENGINE_SEED = 0

#: windows excluded from timing: the first p windows of the definition
#: (no report can exist before them) plus three to fill the position cache
WARMUP_WINDOWS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    window_size: int
    #: wire batch: items per ingest frame
    batch: int
    #: "closed": one request per window on ``connections`` connections,
    #: next window after the acks; "open": ingest at ``rate`` items/s
    mode: str
    #: closed loop: items/s the trace is sized for (about --seconds of work)
    rate: int
    server: Dict = field(default_factory=dict)
    connections: int = 1
    #: open loop: queries/s on the query connection; not a divisor of
    #: the frame rate, so queries land at every phase of a window
    query_rate: float = 0.0

    def windows(self, seconds: float) -> int:
        return WARMUP_WINDOWS + max(
            12, math.ceil(seconds * self.rate / self.window_size)
        )


WORKLOADS = {
    "ingest_zipf": Workload(
        name="ingest_zipf",
        dataset="synthetic",
        window_size=8000,
        batch=512,
        mode="closed",
        rate=85_000,
        server=dict(backend="inline", shards=2, memory_kb=60,
                    temporal_fidelity=0, publish=False),
    ),
    "ingest_wide": Workload(
        name="ingest_wide",
        dataset="ip_trace",
        window_size=8000,
        batch=512,
        mode="closed",
        rate=120_000,
        connections=2,
        server=dict(backend="process", shards=2, memory_kb=24,
                    temporal_fidelity=None, publish=False),
    ),
    "serve_mixed": Workload(
        name="serve_mixed",
        dataset="datacenter",
        window_size=2000,
        batch=250,
        mode="open",
        rate=10_000,
        query_rate=43.0,
        server=dict(backend="inline", shards=2, memory_kb=60,
                    temporal_fidelity=4, publish=True),
    ),
}


def server_spec(workload: Workload, trace: bool, spans_out: Optional[str]) -> dict:
    return dict(
        workload.server,
        k=K,
        engine_seed=ENGINE_SEED,
        window_size=workload.window_size,
        trace=trace,
        spans_out=spans_out,
    )


def make_trace(workload: Workload, seed: int, seconds: float) -> List[List[str]]:
    from repro.streams.datasets import make_dataset

    trace = make_dataset(
        workload.dataset,
        n_windows=workload.windows(seconds),
        window_size=workload.window_size,
        seed=seed,
    )
    return trace.window_items


def oracle_instances(windows: List[List[str]]):
    from repro.core.oracle import SimplexOracle
    from repro.fitting.simplex import SimplexTask

    return SimplexOracle.from_stream(windows, SimplexTask.paper_default(K)).instances


def reference_reports(workload: Workload, windows: List[List[str]]) -> List[dict]:
    """Reports of a direct in-process run of the same engine configuration.

    Same shards, memory, engine and micro-batch split as the service;
    the inline backend, since both backends run byte-identical sketch
    code.  Rendered and JSON round-tripped like the served ``/reports``.
    """
    from repro.config import XSketchConfig
    from repro.fitting.simplex import SimplexTask
    from repro.runtime.sharded import ShardedXSketch
    from repro.service.config import ServiceConfig
    from repro.service.window import report_to_dict

    micro_batch = ServiceConfig().micro_batch
    config = XSketchConfig(
        task=SimplexTask.paper_default(K),
        memory_kb=workload.server["memory_kb"],
        update_rule="cu",
    )
    engine = ShardedXSketch(
        config, n_shards=workload.server["shards"], seed=ENGINE_SEED,
        backend="inline", engine="vectorized",
    )
    with engine:
        for items in windows:
            for start in range(0, len(items), micro_batch):
                engine.ingest_batch(items[start:start + micro_batch])
            engine.flush_window()
        reports = engine.report()
    return json.loads(json.dumps([report_to_dict(r) for r in reports]))


def encode_windows(workload: Workload, windows: List[List[str]]) -> List[List[bytes]]:
    """Per window, its wire frames; sequenced when connections > 1."""
    from repro.service.protocol import batch_message, encode_frame

    seq = 0
    frames = []
    for items in windows:
        window_frames = []
        for start in range(0, len(items), workload.batch):
            chunk = items[start:start + workload.batch]
            if workload.connections > 1:
                window_frames.append(encode_frame(batch_message(chunk, seq)))
                seq += 1
            else:
                window_frames.append(encode_frame(batch_message(chunk)))
        frames.append(window_frames)
    return frames
