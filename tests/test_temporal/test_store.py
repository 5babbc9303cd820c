"""TemporalStore semantics: every sub-range of a seeded stream answers
exactly what a direct per-window merge would, and memory stays O(log W).
"""

import dataclasses
import math
import random

import pytest

from repro.core.reports import SimplexReport
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError
from repro.obs.collect import collect_temporal
from repro.runtime.mergeable import merge_all
from repro.temporal import TemporalPolicy, TemporalStore, parse_range, rank_growth
from repro.temporal.node import make_freq_sketch, snapshot_freq
from repro.temporal.query import RangeQuery

SEED = 42
WINDOWS = 20
ITEMS_PER_WINDOW = 120


def make_report(item, window, slope=1.0, order=1):
    return SimplexReport(
        item=item,
        start_window=max(0, window - 3),
        report_window=window,
        lasting_time=3,
        coefficients=(0.0,) * order + (slope,),
        mse=0.05,
    )


def seeded_windows(windows=WINDOWS, per_window=ITEMS_PER_WINDOW, seed=SEED):
    """Deterministic per-window batches over a small zipf-ish universe."""
    rng = random.Random(seed)
    universe = [f"item{i}" for i in range(30)]
    out = []
    for _ in range(windows):
        out.append([universe[min(rng.randrange(30), rng.randrange(30))]
                    for _ in range(per_window)])
    return out


def feed(store, batches, reports_for=None):
    for window, batch in enumerate(batches):
        store.observe_items(batch)
        reports = reports_for(window) if reports_for is not None else []
        store.on_window(window, reports)


class TestSubRangeEquivalence:
    """The tentpole property: for EVERY [a, b] the temporal answer equals
    a direct merge of per-window sketches / a direct report filter."""

    @pytest.fixture(scope="class")
    def policy(self):
        return TemporalPolicy(freq_memory_kb=1.0, level_capacity=2)

    @pytest.fixture(scope="class")
    def batches(self):
        return seeded_windows()

    @pytest.fixture(scope="class")
    def per_window_reports(self, batches):
        return {
            w: [make_report(f"item{w % 5}", w, slope=0.1 * w)]
            for w in range(len(batches))
        }

    @pytest.fixture(scope="class")
    def store(self, policy, batches, per_window_reports):
        store = TemporalStore(policy, seed=SEED)
        feed(store, batches, reports_for=lambda w: list(per_window_reports[w]))
        return store

    @pytest.fixture(scope="class")
    def direct_sketches(self, policy, batches):
        out = []
        for batch in batches:
            freq = make_freq_sketch(policy, SEED)
            for item in batch:
                freq.insert(item)
            out.append(freq)
        return out

    def direct_merge(self, policy, direct_sketches, a, b):
        first = direct_sketches[a].copy()
        return merge_all(first, *direct_sketches[a + 1:b + 1])

    def test_reports_exact_for_every_sub_range(self, store, per_window_reports):
        for a in range(WINDOWS):
            for b in range(a, WINDOWS):
                expected = sorted(
                    (r for w in range(a, b + 1) for r in per_window_reports[w]),
                    key=report_order,
                )
                assert store.range_reports(a, b) == expected, (a, b)

    def test_frequency_exact_on_partitioning_covers(
        self, store, policy, direct_sketches, batches
    ):
        """When the dyadic cover partitions [a, b] exactly, the merged
        counters are identical to a direct per-window merge — CM merge
        is counter-wise exact."""
        partitioned = 0
        universe = sorted({item for batch in batches for item in batch})
        for a in range(WINDOWS):
            for b in range(a, WINDOWS):
                cover = store.snapshot.covering(a, b)
                if cover[0].start != a or cover[-1].end != b + 1:
                    continue
                partitioned += 1
                direct = self.direct_merge(policy, direct_sketches, a, b)
                composed = store.range_sketch(a, b)
                for item in universe:
                    assert composed.query(item) == direct.query(item), (a, b, item)
        assert partitioned >= WINDOWS  # single-window ranges at minimum

    def test_frequency_upper_bounds_every_sub_range(
        self, store, policy, direct_sketches, batches
    ):
        """Coarsened covers may over-cover: the answer is a one-sided
        upper bound on the direct merge, never an undercount."""
        universe = sorted({item for batch in batches for item in batch})
        for a in range(WINDOWS):
            for b in range(a, WINDOWS):
                direct = self.direct_merge(policy, direct_sketches, a, b)
                composed = store.range_sketch(a, b)
                for item in universe:
                    assert composed.query(item) >= direct.query(item), (a, b, item)

    def test_no_coarsening_means_exact_everywhere(self, batches, per_window_reports):
        """With capacity above the window count nothing coarsens, so
        every sub-range is a perfect partition and exact."""
        policy = TemporalPolicy(freq_memory_kb=1.0, level_capacity=WINDOWS + 1)
        store = TemporalStore(policy, seed=SEED)
        feed(store, batches, reports_for=lambda w: list(per_window_reports[w]))
        assert store.snapshot.coarsenings == 0
        direct = []
        for batch in batches:
            freq = make_freq_sketch(policy, SEED)
            for item in batch:
                freq.insert(item)
            direct.append(freq)
        universe = sorted({item for batch in batches for item in batch})
        for a in range(WINDOWS):
            for b in range(a, WINDOWS):
                merged = merge_all(direct[a].copy(), *direct[a + 1:b + 1])
                composed = store.range_sketch(a, b)
                for item in universe:
                    assert composed.query(item) == merged.query(item), (a, b)

    def test_was_simplex_and_growth(self, store):
        # window w reported item{w % 5} with slope 0.1*w, order 1
        assert store.was_simplex("item0", 0, 4)
        assert store.was_simplex("item0", 0, 4, k=1)
        assert not store.was_simplex("item0", 0, 4, k=2)
        assert not store.was_simplex("item0", 1, 4)  # item0 reported at 0, 5, ...
        top = store.top_growth(0, WINDOWS - 1, top=3)
        assert [str(r.item) for r, _ in top] == ["item4", "item3", "item2"]
        assert top[0][0].report_window == 19  # steepest slope wins per item


class TestBoundedMemory:
    def test_ladder_stays_logarithmic_after_256_windows(self):
        """Acceptance: after >= 256 windows the ladder retains O(log W)
        nodes, asserted through the collect_temporal() gauges."""
        policy = TemporalPolicy(freq_memory_kb=1.0, level_capacity=2)
        store = TemporalStore(policy, seed=SEED)
        rng = random.Random(SEED)
        windows = 300
        for window in range(windows):
            store.observe_items([f"i{rng.randrange(50)}" for _ in range(40)])
            store.on_window(window, [])
        registry = collect_temporal(store)
        levels = math.floor(math.log2(windows)) + 1
        bound = (policy.level_capacity + 1) * (levels + 1)
        assert registry.value("temporal_windows_covered") == windows
        assert registry.value("temporal_nodes") <= bound
        assert registry.value("temporal_ladder_depth") <= levels
        assert registry.value("temporal_windows_total") == windows
        assert registry.value("temporal_coarsenings_total") > 0
        assert registry.value("temporal_bytes_retained") > 0
        # per-window cost ~1 KiB: the whole 300-window history must sit
        # far below 300x that.
        assert store.memory_bytes <= bound * 1.5 * 1024

    def test_query_fanin_histogram_observes(self):
        store = TemporalStore(TemporalPolicy(freq_memory_kb=1.0), seed=SEED)
        for window in range(32):
            store.observe_items(["x"])
            store.on_window(window, [])
        store.range_frequency("x", 0, 31)
        hist = store.metrics.get("temporal_query_nodes")
        assert hist.count == 1
        registry = collect_temporal(store)
        assert registry.get("temporal_query_nodes").count == 1
        assert registry.value("temporal_range_queries_total") == 1


class TestLifecycle:
    def test_out_of_order_window_rejected(self):
        store = TemporalStore(TemporalPolicy(freq_memory_kb=1.0))
        store.on_window(0, [])
        with pytest.raises(ConfigurationError):
            store.on_window(2, [])
        with pytest.raises(ConfigurationError):
            store.on_window(0, [])

    def test_empty_store_queries(self):
        store = TemporalStore(TemporalPolicy(freq_memory_kb=1.0))
        assert store.range_reports(0, 10) == []
        assert store.range_sketch(0, 10) is None
        assert store.range_frequency("x", 0, 10) == 0
        assert store.sketch_asof(5) is None
        assert store.history() == []

    def test_fidelity_horizon_ages_asof(self):
        calls = []

        def snapshot_fn():
            calls.append(1)
            return {"fake": len(calls)}

        policy = TemporalPolicy(freq_memory_kb=1.0, fidelity_windows=3,
                                level_capacity=2)
        store = TemporalStore(policy)
        for window in range(12):
            store.observe_items(["x"])
            store.on_window(window, [], snapshot_fn=snapshot_fn)
        with_asof = [n for n in store.snapshot.nodes if n.asof is not None]
        assert 1 <= len(with_asof) <= policy.fidelity_windows
        assert all(n.end - 1 >= 12 - policy.fidelity_windows for n in with_asof)

    def test_fidelity_zero_never_calls_snapshot_fn(self):
        policy = TemporalPolicy(freq_memory_kb=1.0, fidelity_windows=0)
        store = TemporalStore(policy)

        def boom():  # pragma: no cover - must not run
            raise AssertionError("snapshot_fn called with fidelity disabled")

        store.on_window(0, [], snapshot_fn=boom)
        assert store.snapshot.nodes[0].asof is None

    def test_track_reports_off_drops_payloads(self):
        policy = TemporalPolicy(freq_memory_kb=1.0, track_reports=False)
        store = TemporalStore(policy)
        store.observe_items(["x"])
        store.on_window(0, [make_report("x", 0)])
        assert store.range_reports(0, 0) == []
        assert store.range_frequency("x", 0, 0) >= 1

    def test_snapshot_is_immutable_published_view(self):
        store = TemporalStore(TemporalPolicy(freq_memory_kb=1.0, level_capacity=1))
        for window in range(8):
            store.observe_items(["x"])
            store.on_window(window, [])
        frozen = store.snapshot
        nodes_before = frozen.nodes
        arrays_before = [snapshot_freq(node.freq) for node in frozen.nodes]
        for window in range(8, 16):
            store.observe_items(["y", "y"])
            store.on_window(window, [])
        assert frozen.nodes == nodes_before
        for node, before in zip(nodes_before, arrays_before):
            assert snapshot_freq(node.freq) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.tip = 99


class TestQueryHelpers:
    def test_parse_range(self):
        assert parse_range("3:9") == RangeQuery(3, 9)
        assert parse_range("4:4").width == 1
        for bad in ("9:3", "abc", "3", "3:", ":9", "-1:4", "1:2:3", ""):
            with pytest.raises(ConfigurationError):
                parse_range(bad)

    def test_rank_growth_dedupes_per_item(self):
        reports = [
            make_report("a", 1, slope=0.5),
            make_report("a", 2, slope=2.0),
            make_report("b", 3, slope=1.0),
            make_report("c", 4, slope=1.0),
        ]
        ranked = rank_growth(reports, top=10)
        assert [str(r.item) for r, _ in ranked] == ["a", "b", "c"]
        assert ranked[0][1] == 2.0
        assert ranked[0][0].report_window == 2
        assert len(rank_growth(reports, top=2)) == 2
