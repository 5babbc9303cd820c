"""The numpy Count-Min against the scalar ``CMSketch`` it replaces.

``VectorizedCM`` is the temporal tier's frequency sketch; every ladder
node, wire delta and cold-tier file carries its counters.  These tests
pin it to :class:`~repro.sketch.cm.CMSketch` on the same keys: the same
counters and the same ``snapshot_freq`` JSON bytes, under every hash
family, at 32-bit saturation, through merge and copy, and in the range
answers the store composes from it.  A second group counts hash calls
instead of timing them: a window's seal hashes each distinct key once,
in one batch, and the temporal path makes no scalar ``hash32`` call.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np
import pytest

from repro.config import XSketchConfig
from repro.errors import ConfigurationError, MergeError
from repro.fitting.simplex import SimplexTask
from repro.hashing.family import CrcHashFamily, HashFamily
from repro.runtime.sharded import ShardedXSketch
from repro.sketch.cm import CMSketch
from repro.sketch.vectorized_cm import VectorizedCM
from repro.temporal import TemporalPolicy, TemporalStore
from repro.temporal.node import LadderNode, make_freq_sketch, merge_nodes, snapshot_freq

CAP = 2**32 - 1

#: int, str and bytes keys whose encodings have mixed lengths
KEYS = (
    [0, 1, -1, 7, 2**40, -(2**63), 2**63 - 1]
    + ["", "a", "bb", "key-17", "longer-string-key", "ünïcode"]
    + [b"", b"\x00", b"\x01\x02", b"abcdefgh", b"nine-byte"]
)


def _policy(**overrides):
    overrides.setdefault("freq_memory_kb", 0.25)  # 21 counters per row
    return TemporalPolicy(**overrides)


def _scalar(policy, seed, family):
    return CMSketch(policy.freq_bytes, d=policy.freq_depth, seed=seed,
                    hash_family=family)


def _scalar_snapshot(sketch: CMSketch):
    """The payload shape the tier has always written, from CMSketch."""
    return {
        "d": sketch.d,
        "width": sketch.width,
        "bits": sketch.arrays[0].bits,
        "seed": sketch.family.seed,
        "arrays": [list(array) for array in sketch.arrays],
    }


def _assert_pinned(vectorized: VectorizedCM, scalar: CMSketch):
    assert vectorized.counters.tolist() == [list(a) for a in scalar.arrays]
    assert json.dumps(snapshot_freq(vectorized)) == json.dumps(_scalar_snapshot(scalar))
    for key in KEYS:
        assert vectorized.query(key) == scalar.query(key)


def _batches(seed, n_batches=4):
    rng = random.Random(seed)
    return [
        Counter(rng.choice(KEYS) for _ in range(rng.randrange(1, 60)))
        for _ in range(n_batches)
    ]


class TestPinnedToScalarCM:
    @pytest.mark.parametrize("family", ["crc", "bob", "murmur"])
    @pytest.mark.parametrize("seed", [0, 7, 123456, 2**32 - 1])
    def test_counters_and_snapshot_bytes(self, family, seed):
        policy = _policy()
        vectorized = make_freq_sketch(policy, seed, family)
        scalar = _scalar(policy, seed, family)
        for batch in _batches(seed):
            vectorized.ingest_counts(batch)
            for key, count in batch.items():
                scalar.insert(key, count)
        assert vectorized.width == scalar.width and vectorized.d == scalar.d
        assert vectorized.memory_bytes == scalar.memory_bytes
        _assert_pinned(vectorized, scalar)

    @pytest.mark.parametrize("family", ["crc", "bob", "murmur"])
    def test_positions_match_scalar_hash32(self, family):
        sketch = VectorizedCM(4096, d=4, seed=99, hash_family=family)
        rows = sketch.positions(KEYS)
        assert rows.shape == (len(KEYS), 4)
        for row, key in zip(rows.tolist(), KEYS):
            assert row == [sketch.family.hash32(key, i) % sketch.width for i in range(4)]

    @pytest.mark.parametrize("family", ["crc", "bob"])
    def test_saturation_at_32_bits(self, family):
        """Colliding keys in one batch and repeated huge counts clip at
        2**32 - 1 exactly where sequential saturating adds would."""
        policy = _policy(freq_memory_kb=0.02)  # 1 counter per row: all collide
        vectorized = make_freq_sketch(policy, 3, family)
        scalar = _scalar(policy, 3, family)
        assert vectorized.width == 1
        batches = [{"a": CAP - 10, "b": 6}, {"c": 3, 5: 2}, {"a": CAP}]
        for batch in batches:
            vectorized.ingest_counts(batch)
            for key, count in batch.items():
                scalar.insert(key, count)
            _assert_pinned(vectorized, scalar)
        assert vectorized.counters.max() == CAP

    def test_merge_and_copy(self):
        policy = _policy()
        left, right = make_freq_sketch(policy, 5), make_freq_sketch(policy, 5)
        scalar_left, scalar_right = _scalar(policy, 5, "crc"), _scalar(policy, 5, "crc")
        for sketch, scalar, seed in ((left, scalar_left, 1), (right, scalar_right, 2)):
            for batch in _batches(seed):
                sketch.ingest_counts(batch)
                for key, count in batch.items():
                    scalar.insert(key, count)
        before = snapshot_freq(left)
        merged = left.copy().merge(right)
        assert not np.shares_memory(merged.counters, left.counters)
        assert snapshot_freq(left) == before
        _assert_pinned(merged, _scalar(policy, 5, "crc").merge(scalar_left).merge(scalar_right))

    def test_merge_saturates(self):
        policy = _policy()
        a, b = make_freq_sketch(policy, 1), make_freq_sketch(policy, 1)
        a.insert("x", CAP - 1)
        b.insert("x", 5)
        assert a.merge(b).query("x") == CAP

    def test_merge_rejects_mismatches(self):
        sketch = VectorizedCM(4096, d=3, seed=1)
        with pytest.raises(MergeError):
            sketch.merge(VectorizedCM(4096, d=3, seed=2))
        with pytest.raises(MergeError):
            sketch.merge(VectorizedCM(2048, d=3, seed=1))
        with pytest.raises(MergeError):
            sketch.merge(CMSketch(4096, d=3, seed=1))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorizedCM(2, d=3)
        with pytest.raises(ConfigurationError):
            VectorizedCM(4096, d=0)


class TestTierNeverAliases:
    def test_parent_node_owns_its_counters(self):
        policy = _policy()
        children = []
        for window, keys in ((0, ["x", "x", "y"]), (1, ["x", "z"])):
            freq = make_freq_sketch(policy, 0)
            freq.ingest_counts(Counter(keys))
            children.append(LadderNode(0, window, items=len(keys), freq=freq))
        before = [snapshot_freq(child.freq) for child in children]
        parent = merge_nodes(*children)
        for child, snapshot in zip(children, before):
            assert not np.shares_memory(parent.freq.counters, child.freq.counters)
            assert snapshot_freq(child.freq) == snapshot
        assert parent.freq.query("x") == 3

    def test_no_two_published_sketches_share_memory(self):
        store = TemporalStore(_policy(level_capacity=1), seed=4)
        published = []
        for window in range(12):
            store.observe_items(["x", "y", window])
            store.on_window(window, [])
            published.extend(node.freq for node in store.snapshot.nodes)
        distinct = list({id(freq): freq for freq in published}.values())
        for i, first in enumerate(distinct):
            for second in distinct[i + 1:]:
                assert not np.shares_memory(first.counters, second.counters)
        ranged = store.range_sketch(0, 11)
        assert all(not np.shares_memory(ranged.counters, f.counters) for f in distinct)


class TestRangeFrequencyPinned:
    @pytest.mark.parametrize("family", ["crc", "bob"])
    def test_answers_equal_scalar_cm_over_the_cover(self, family):
        """A range answer is the point query of one CM fed every arrival
        of the covering nodes' windows: CM merges are exact."""
        policy = _policy(level_capacity=2)
        store = TemporalStore(policy, seed=8, hash_family=family)
        rng = random.Random(8)
        windows = [[rng.choice(KEYS) for _ in range(40)] for _ in range(20)]
        for window, arrivals in enumerate(windows):
            for start in range(0, len(arrivals), 13):
                store.observe_items(arrivals[start:start + 13])
            store.on_window(window, [])
        assert store.snapshot.coarsenings > 0
        for a, b in ((0, 19), (0, 0), (3, 11), (12, 19), (19, 19), (5, 6)):
            cover = store.snapshot.covering(a, b)
            scalar = _scalar(policy, 8, family)
            for window in range(cover[0].start, cover[-1].end):
                for key in windows[window]:
                    scalar.insert(key)
            for key in KEYS:
                assert store.range_frequency(key, a, b) == scalar.query(key), (a, b, key)


#: the stores below hash under a seed nothing else in these runs uses,
#: so the counters see the temporal tier's calls only
STORE_SEED = 991


class TestHashCallCounts:
    """Counted, not timed: where the temporal tier spends its hashing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"rows": [], "hash32": 0}
        hash_rows = CrcHashFamily.hash_rows

        def counting_rows(family, items, sizes):
            if family.seed == STORE_SEED:
                calls["rows"].append(list(items))
            return hash_rows(family, items, sizes)

        def counting_hash32(original):
            def wrapper(family, item, index):
                if family.seed == STORE_SEED:
                    calls["hash32"] += 1
                return original(family, item, index)
            return wrapper

        monkeypatch.setattr(CrcHashFamily, "hash_rows", counting_rows)
        monkeypatch.setattr(CrcHashFamily, "hash32", counting_hash32(CrcHashFamily.hash32))
        monkeypatch.setattr(HashFamily, "hash32", counting_hash32(HashFamily.hash32))
        return calls

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_seal_hashes_each_distinct_key_once(self, calls, k):
        store = TemporalStore(_policy(), seed=STORE_SEED)
        rng = random.Random(k)
        window = [rng.choice(KEYS) for _ in range(200)]
        size = -(-len(window) // k)
        for start in range(0, len(window), size):
            store.observe_items(window[start:start + size])
            store.observe_counts(Counter(window[start:start + size // 2]))
        assert calls["rows"] == [], "ingest must not hash"
        store.on_window(0, [])
        assert len(calls["rows"]) == 1
        sealed = calls["rows"][0]
        assert len(sealed) == len(set(sealed))
        assert set(sealed) == set(window)
        store.range_frequency(window[0], 0, 0)
        assert calls["hash32"] == 0

    def test_sharded_runtime_feeds_without_scalar_hashes(self, calls):
        store = TemporalStore(_policy(), seed=STORE_SEED)
        rng = random.Random(0)
        with ShardedXSketch(
            XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0),
            n_shards=2, seed=2, backend="inline", engine="vectorized",
            temporal=store,
        ) as sharded:
            for _ in range(3):
                window = [rng.randrange(50) for _ in range(300)]
                for start in range(0, len(window), 64):
                    sharded.ingest_batch(window[start:start + 64])
                sharded.flush_window()
                sealed = calls["rows"][-1]
                assert sorted(sealed) == sorted(set(window))
        assert len(calls["rows"]) == 3, "one batch hash per window"
        assert calls["hash32"] == 0
        assert store.windows_observed == 3
