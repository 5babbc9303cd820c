"""The dyadic retention ladder (Hokusai time aggregation).

The ladder is a list of :class:`~repro.temporal.node.LadderNode`\\ s
that partition the covered window range ``[base, tip)``: every closed
window belongs to exactly one node.  New windows enter at level 0; when
a level holds more than ``policy.level_capacity`` nodes, its two oldest
*aligned* siblings merge into their level-``+1`` parent.  Resolution
therefore coarsens exponentially with age — full per-window fidelity
near the tip, ``2**L``-window blocks further back — and the node count
stays ``O(level_capacity * log W)`` for any stream length ``W``.

A ladder whose ``base`` is not 0 (a store attached to an engine
restored mid-stream) may hold, per level, one leading node that sits
off the dyadic grid and can never coarsen; that adds at most one node
per level and preserves the logarithmic bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.temporal.node import LadderNode, merge_nodes


class DyadicLadder:
    """Ordered, disjoint, contiguous dyadic nodes with bounded levels."""

    def __init__(self, policy):
        self.policy = policy
        #: nodes ordered by ``start``; disjoint; contiguous
        self.nodes: List[LadderNode] = []
        #: coarsening merges performed so far
        self.coarsenings = 0
        #: ``payload_of(node) -> (freq, reports)`` for spilled nodes
        #: (wired to the store's cold tier; None reads in-memory state)
        self.materialize = None
        #: called with each merged-away child (cold-file cleanup hook)
        self.retire = None

    # ------------------------------------------------------------------
    # shape

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def base(self) -> Optional[int]:
        """First covered window (None while empty)."""
        return self.nodes[0].start if self.nodes else None

    @property
    def tip(self) -> Optional[int]:
        """One past the last covered window (None while empty)."""
        return self.nodes[-1].end if self.nodes else None

    @property
    def depth(self) -> int:
        """Highest level currently present (-1 while empty)."""
        return max((node.level for node in self.nodes), default=-1)

    def level_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for node in self.nodes:
            counts[node.level] = counts.get(node.level, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # growth

    def append(self, node: LadderNode) -> None:
        """Admit one freshly closed window's node and rebalance."""
        tip = self.tip
        if tip is not None and node.start != tip:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"ladder tip is window {tip}, got node starting at {node.start}"
            )
        self.nodes.append(node)
        self._coarsen()

    def _coarsen(self) -> None:
        """Merge overfull levels upward until every level fits."""
        capacity = self.policy.level_capacity
        level = 0
        while level <= self.depth:
            while self._level_count(level) > capacity:
                pair = self._oldest_aligned_pair(level)
                if pair is None:
                    # A leading off-grid node (non-zero base) can never
                    # merge; tolerate the one-node overflow it causes.
                    break
                index = pair
                children = self.nodes[index:index + 2]
                parent = merge_nodes(
                    children[0], children[1], payload_of=self.materialize
                )
                self.nodes[index:index + 2] = [parent]
                self.coarsenings += 1
                if self.retire is not None:
                    for child in children:
                        self.retire(child)
            level += 1

    def _level_count(self, level: int) -> int:
        return sum(1 for node in self.nodes if node.level == level)

    def _oldest_aligned_pair(self, level: int) -> Optional[int]:
        """Index of the older node of the oldest mergeable sibling pair."""
        for index in range(len(self.nodes) - 1):
            first = self.nodes[index]
            if first.level != level or not first.aligned:
                continue
            second = self.nodes[index + 1]
            if second.level == level and second.start == first.end:
                return index
        return None

    # ------------------------------------------------------------------
    # queries

    def covering(self, a: int, b: int) -> List[LadderNode]:
        """The minimal retained node set intersecting windows ``[a, b]``.

        Nodes partition the covered range, so this is simply every node
        that overlaps; it is minimal because removing any member would
        uncover part of ``[a, b]``.  The union may *over*-cover when
        coarsening has merged past a query bound — report queries stay
        exact by window-stamp filtering, frequency queries become the
        containing node's (one-sided) estimate.
        """
        return [node for node in self.nodes if node.overlaps(a, b)]

    def node_of(self, window: int) -> Optional[LadderNode]:
        """The node covering ``window`` (None when out of range)."""
        for node in self.nodes:
            if node.start <= window < node.end:
                return node
        return None

    @property
    def memory_bytes(self) -> float:
        return sum(node.memory_bytes for node in self.nodes)
