"""Malformed frequency-sketch payloads are refused, wherever they enter.

A node's ``freq`` payload reaches ``restore_freq`` from outside the
process: replica DELTA and SNAPSHOT frames, spilled cold-tier files and
saved stores.  Each malformed shape must raise one one-line
:class:`ConfigurationError` before any state changes, and a replica fed
one in a DELTA must fall back to a full resync and keep serving.
"""

from __future__ import annotations

import asyncio
import copy
import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.replica import ReplicaConfig, ReplicaServer
from repro.service import ServiceConfig, StreamService
from repro.service.loadgen import replay_trace
from repro.streams.datasets import make_dataset
from repro.temporal import (
    TemporalPolicy,
    TemporalStore,
    apply_window_delta,
    export_ladder_state,
    import_ladder_state,
    restore_store,
)
from repro.temporal.coldtier import MANIFEST_NAME

from tests.test_replica.test_replication import (
    SEED,
    WINDOW_SIZE,
    http_raw,
    temporal_engine,
    wait_for,
)

POLICY = TemporalPolicy(freq_memory_kb=0.25, level_capacity=2)


def _set(path, value):
    def corrupt(freq):
        target = freq
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return corrupt


def _drop(key):
    def corrupt(freq):
        del freq[key]
    return corrupt


def _edit_arrays(edit):
    def corrupt(freq):
        freq["arrays"] = edit(freq["arrays"])
    return corrupt


#: name -> in-place corruption of a valid ``snapshot_freq`` payload
CORRUPTIONS = {
    "truncated_row": _edit_arrays(lambda rows: [rows[0][:-1]] + rows[1:]),
    "long_row": _edit_arrays(lambda rows: [rows[0] + [0]] + rows[1:]),
    "missing_row": _edit_arrays(lambda rows: rows[:-1]),
    "extra_row": _edit_arrays(lambda rows: rows + [rows[0]]),
    "no_rows": _edit_arrays(lambda rows: []),
    "float_counter": _set(("arrays", 0, 0), 1.5),
    "integral_float_counter": _set(("arrays", 0, 1), 2.0),
    "bool_counter": _set(("arrays", 1, 0), True),
    "str_counter": _set(("arrays", 2, 3), "7"),
    "none_counter": _set(("arrays", 2, 4), None),
    "negative_counter": _set(("arrays", 0, 2), -1),
    "counter_over_32_bits": _set(("arrays", 1, 1), 2**32),
    "counter_over_int64": _set(("arrays", 1, 2), 2**70),
    "row_not_a_list": _set(("arrays", 0), "0" * 21),
    "arrays_not_a_list": _set(("arrays",), {"0": []}),
    "bits_16": _set(("bits",), 16),
    "bits_64": _set(("bits",), 64),
    "bits_str": _set(("bits",), "32"),
    "bits_bool": _set(("bits",), True),
    "missing_bits": _drop("bits"),
    "d_mismatch": _set(("d",), 2),
    "width_mismatch": _set(("width",), 20),
    "seed_mismatch": _set(("seed",), SEED + 1),
    "missing_arrays": _drop("arrays"),
}


def _store(**policy):
    store = TemporalStore(
        TemporalPolicy(**{"freq_memory_kb": 0.25, "level_capacity": 2, **policy}),
        seed=SEED,
    )
    store.capture_deltas = True
    return store


def _feed(store, windows, start=0):
    rng = random.Random(start)
    for window in range(start, start + windows):
        store.observe_items([f"k{rng.randrange(30)}" for _ in range(80)])
        store.on_window(window, [])


def _assert_refused(call):
    with pytest.raises(ConfigurationError) as excinfo:
        call()
    assert "\n" not in str(excinfo.value)


@pytest.fixture
def primary():
    store = _store()
    _feed(store, 6)
    return store


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_window_delta_refused_before_any_change(primary, name):
    replica = import_ladder_state(export_ladder_state(primary))
    before = export_ladder_state(replica)
    primary.take_deltas()
    _feed(primary, 1, start=6)
    (record,) = primary.take_deltas()
    CORRUPTIONS[name](record["freq"])
    _assert_refused(lambda: apply_window_delta(replica, record))
    assert export_ladder_state(replica) == before


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_ladder_import_refused(primary, name):
    state = export_ladder_state(primary)
    CORRUPTIONS[name](state["nodes"][-1]["freq"])
    _assert_refused(lambda: import_ladder_state(state))


def test_freq_payload_must_be_an_object(primary):
    state = export_ladder_state(primary)
    for bad in ([], "freq", 7):
        broken = copy.deepcopy(state)
        broken["nodes"][0]["freq"] = bad
        _assert_refused(lambda: import_ladder_state(broken))


@pytest.mark.parametrize("name", ["truncated_row", "float_counter",
                                  "bool_counter", "bits_16", "seed_mismatch",
                                  "counter_over_int64"])
def test_cold_tier_load_refused(tmp_path, name):
    store = _store(hot_payloads=2, spill_dir=str(tmp_path / "spill"))
    _feed(store, 12)
    spilled = [node for node in store.snapshot.nodes if node.spilled]
    assert spilled
    path = store.cold.path_of(spilled[0])
    record = json.loads(path.read_text())
    CORRUPTIONS[name](record["freq"])
    path.write_text(json.dumps(record))
    _assert_refused(lambda: store.range_frequency("k1", spilled[0].start, spilled[0].start))


@pytest.mark.parametrize("name", ["missing_row", "integral_float_counter",
                                  "negative_counter", "width_mismatch"])
def test_saved_store_restore_refused(tmp_path, name):
    store = _store()
    _feed(store, 9)
    store.save(tmp_path / "saved")
    manifest = json.loads((tmp_path / "saved" / MANIFEST_NAME).read_text())
    path = tmp_path / "saved" / manifest["nodes"][0]
    record = json.loads(path.read_text())
    CORRUPTIONS[name](record["freq"])
    path.write_text(json.dumps(record))
    _assert_refused(lambda: restore_store(tmp_path / "saved"))


def test_replica_resyncs_on_malformed_delta_and_stays_up():
    """A DELTA whose ladder payload is malformed makes the replica take
    one full SNAPSHOT sync instead of dying; it then follows the stream
    and serves the primary's bytes."""
    windows = 10
    bad_window = 4

    async def scenario():
        service = StreamService(
            temporal_engine(),
            ServiceConfig(window_size=WINDOW_SIZE, micro_batch=128,
                          publish_port=0, publish_heartbeat=0.1),
        )
        await service.start()
        publish = service.publisher.publish_boundary

        def corrupting(snapshot, summary, ladder_deltas, span=None):
            if snapshot.window == bad_window:
                ladder_deltas = copy.deepcopy(list(ladder_deltas))
                CORRUPTIONS["truncated_row"](ladder_deltas[0]["freq"])
            return publish(snapshot, summary, ladder_deltas, span=span)

        service.publisher.publish_boundary = corrupting
        replica = ReplicaServer(
            ReplicaConfig(*service.publish_address, reconnect_seconds=0.1)
        )
        await replica.start()
        await replica.wait_synced()
        await replay_trace(
            make_dataset("ip_trace", windows, WINDOW_SIZE, SEED),
            *service.ingest_address, connections=1, batch_size=100,
        )
        await wait_for(lambda: service.publisher.seq >= windows,
                       "primary to publish every window")
        await wait_for(lambda: replica.state.seq >= windows,
                       "replica to reach the tip")
        paths = ["/reports", "/history", "/reports?range=0:9", "/reports?range=3:5"]
        bodies = [
            (await http_raw(*service.http_address, path),
             await http_raw(*replica.http_address, path))
            for path in paths
        ]
        counters = {"full_syncs": replica.full_syncs,
                    "link_errors": replica.link_errors}
        await replica.stop()
        await service.stop()
        return bodies, counters

    bodies, counters = asyncio.run(scenario())
    assert counters == {"full_syncs": 2, "link_errors": 0}
    for primary_body, replica_body in bodies:
        assert primary_body[0] == 200
        assert replica_body == primary_body
