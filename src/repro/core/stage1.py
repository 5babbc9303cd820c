"""Stage 1: Short-Term Filtering and the Potential gate.

Stage 1 records per-window frequencies of the latest ``s < p`` windows in
a windowed TowerSketch (or an alternative structure for the Figure-9
comparison).  An arrival whose item is not tracked by Stage 2 is counted
here, then checked against the *Preliminary Condition*: all of the latest
``s`` window frequencies positive.  If so, the short span is
polynomial-fitted and the Potential ``Λ = |a_k| / (ε + Δ)`` (Equation 6)
is compared with the threshold ``G``; items reaching it are promoted to
Stage 2 with their ``s`` estimated frequencies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.compat import FrozenSlots
from repro.config import XSketchConfig
from repro.fitting.polyfit import fit_leading_and_mse
from repro.hashing.family import HashFamily, ItemId
from repro.obs.collect import POTENTIAL_BUCKETS
from repro.obs.recorder import NULL_RECORDER
from repro.sketch.windowed import WindowedFilter, make_windowed_filter


@dataclass(frozen=True)
class Promotion(FrozenSlots):
    """A potential simplex item handed from Stage 1 to Stage 2.

    ``frequencies`` are Stage 1's estimates for the latest ``s`` windows
    (oldest first); ``w_str`` is the logical starting window ``w - s + 1``.

    ``__slots__`` because promotions are minted on the per-item insert
    path (hot-loop-alloc); explicit tuple since ``slots=True`` needs
    Python 3.10 and this repo supports 3.9.
    """

    __slots__ = ("item", "frequencies", "w_str", "potential")

    item: ItemId
    frequencies: Tuple[int, ...]
    w_str: int
    potential: float


class Stage1:
    """Short-Term Filtering stage of X-Sketch.

    Args:
        config: the full X-Sketch configuration (uses ``stage1_bytes``,
            ``s``, ``d``, ``update_rule``, ``stage1_structure``, ``G``,
            ``delta`` and the task's ``k``).
        family: hash family shared with the rest of the sketch.
        rng: random source (only used by the LogLog structure).
        recorder: observability recorder; the default no-op recorder
            leaves the per-arrival path untouched, a live one gets the
            Potential histogram and promotion trace events (at fit
            frequency, never per arrival).
    """

    def __init__(
        self,
        config: XSketchConfig,
        family: HashFamily = None,
        seed: int = 0,
        rng: random.Random = None,
        recorder=None,
    ):
        self.config = config
        recorder = recorder if recorder is not None else NULL_RECORDER
        self.filter: WindowedFilter = make_windowed_filter(
            structure=config.stage1_structure,
            memory_bytes=config.stage1_bytes,
            s=config.s,
            d=config.d,
            update_rule=config.update_rule,
            family=family,
            seed=seed,
            hash_family=config.hash_family,
            rng=rng,
            recorder=recorder,
        )
        self._k = config.task.k
        self._s = config.s
        self._g = config.G
        self._delta = config.delta
        self._cached_window = -1
        self._cached_slots: List[int] = []
        #: arrivals routed through Stage 1 (item not tracked by Stage 2)
        self.arrivals = 0
        #: short-term fits performed (positivity held over s windows)
        self.fits = 0
        #: promotions emitted (Potential reached G)
        self.promotions = 0
        self._obs = recorder if recorder.enabled else None
        self._h_potential = recorder.histogram(
            "xsketch_stage1_potential",
            "Potential Λ = |a_k| / (ε + Δ) at each short-term fit",
            buckets=POTENTIAL_BUCKETS,
        )

    def _recent_slots(self, window: int) -> List[int]:
        """Slots of windows ``window - s + 1 .. window``, oldest first.

        Cached per window: the list is identical for every arrival of a
        window, and this runs on the hot path.
        """
        if window != self._cached_window:
            s = self._s
            self._cached_window = window
            self._cached_slots = [(window - s + 1 + j) % s for j in range(s)]
        return self._cached_slots

    def insert(self, item: ItemId, window: int) -> Optional[Promotion]:
        """Count one arrival; return a :class:`Promotion` if the item now
        passes Short-Term Filtering and the Potential gate (Algorithm 1,
        lines 6-14)."""
        s = self._s
        self.arrivals += 1
        self.filter.insert(item, window % s)
        if window < s - 1:
            # The stream has not yet produced s windows; the span cannot be
            # fully positive, matching the all-zero initial sub-counters.
            return None
        frequencies = self.filter.query_slots_positive(item, self._recent_slots(window))
        if frequencies is None:
            return None
        self.fits += 1
        leading, mse = fit_leading_and_mse(frequencies, self._k)
        lam = abs(leading) / (mse + self._delta)
        obs = self._obs
        if obs is not None:
            self._h_potential.observe(lam)
        if lam < self._g:
            return None
        self.promotions += 1
        if obs is not None:
            obs.event(
                "stage1_promotion", item=str(item), window=window,
                potential=round(lam, 6),
            )
        return Promotion(
            item=item,
            frequencies=tuple(frequencies),
            w_str=window - s + 1,
            potential=lam,
        )

    def end_window(self, window: int) -> None:
        """Window transition: free the sub-counter slot the next window
        will use (the paper's Stage-1 cleaning policy)."""
        self.filter.clear_slot((window + 1) % self._s)

    def merge(self, other: "Stage1") -> "Stage1":
        """Fold another Stage 1 into this one (filter + counters).

        Both stages must have been built from the same configuration and
        hash seed (the underlying filter enforces geometry and seed).
        Used by the sharded runtime's re-shard / compaction path; in
        normal sharded operation each key lives on exactly one shard, so
        merged sub-counters combine disjoint key populations.
        """
        self.filter.merge(other.filter)
        self.arrivals += other.arrivals
        self.fits += other.fits
        self.promotions += other.promotions
        # Invalidate the per-window slot cache; the peers may have
        # stopped at different cached windows.
        self._cached_window = -1
        return self

    @property
    def memory_bytes(self) -> float:
        return self.filter.memory_bytes
