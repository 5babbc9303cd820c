"""One dyadic node of the temporal ladder.

A :class:`LadderNode` covers the half-open window range
``[start, end)`` where ``end - start == 2**level``.  Its payload:

``freq``
    a Count-Min sketch over every arrival of the span (Hokusai item
    aggregation).  CM merges are counter-wise *exact*, so a parent's
    sketch equals one sketch fed both children's arrivals — the
    property the dyadic range composition rests on.
``reports``
    the simplex reports emitted at the span's window boundaries, in
    canonical :func:`repro.core.xsketch.report_order`.  Reports carry
    their window stamp, so range queries over coarsened nodes stay
    exact by filtering.
``asof``
    optionally, the full merged X-Sketch snapshot taken at the end of
    the span (:func:`repro.core.serialize.snapshot_xsketch` format).
    Only recent level-0 nodes carry one; coarsening drops it.

A spilled node keeps its coordinates and counts but hands the payload
to the cold tier (``spilled`` is then True); queries reload it on
demand.  Nodes are immutable after construction except for the spill
handoff, which swaps whole attributes (atomic under the GIL), so the
published query snapshots can read them without locks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reports import SimplexReport
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError
from repro.sketch.cm import CMSketch


def make_freq_sketch(policy, seed: int, hash_family: str = "crc") -> CMSketch:
    """A node frequency sketch under ``policy``'s geometry.

    All sketches of one store share ``seed`` (and thus the hash
    family), which is what makes them merge-compatible up the ladder.
    """
    return CMSketch(
        memory_bytes=policy.freq_bytes,
        d=policy.freq_depth,
        seed=seed,
        hash_family=hash_family,
    )


def snapshot_freq(sketch: CMSketch) -> Dict:
    """JSON-safe state of a node frequency sketch (cold-tier payload)."""
    return {
        "d": sketch.d,
        "width": sketch.width,
        "bits": sketch.arrays[0].bits,
        "seed": sketch.family.seed,
        "arrays": [list(array) for array in sketch.arrays],
    }


def restore_freq(state: Dict, policy, hash_family: str = "crc") -> CMSketch:
    """Rebuild a frequency sketch from :func:`snapshot_freq` output."""
    sketch = make_freq_sketch(policy, seed=state["seed"], hash_family=hash_family)
    if sketch.d != state["d"] or sketch.width != state["width"]:
        raise ConfigurationError(
            f"frequency-sketch geometry mismatch: policy gives "
            f"d={sketch.d} w={sketch.width}, snapshot has "
            f"d={state['d']} w={state['width']}"
        )
    for array, values in zip(sketch.arrays, state["arrays"]):
        for index, value in enumerate(values):
            array.set(index, value)
    return sketch


def copy_freq(sketch: CMSketch, policy, hash_family: str = "crc") -> CMSketch:
    """An independent copy (coarsening must not mutate published nodes)."""
    copied = make_freq_sketch(policy, seed=sketch.family.seed, hash_family=hash_family)
    for mine, theirs in zip(copied.arrays, sketch.arrays):
        mine.merge(theirs)
    return copied


class LadderNode:
    """One retained dyadic time range (see module docstring)."""

    __slots__ = ("level", "start", "end", "items", "report_count",
                 "freq", "reports", "asof", "spilled")

    def __init__(
        self,
        level: int,
        start: int,
        *,
        items: int = 0,
        freq: Optional[CMSketch] = None,
        reports: Tuple[SimplexReport, ...] = (),
        asof: Optional[Dict] = None,
    ):
        self.level = level
        self.start = start
        self.end = start + (1 << level)
        self.items = items
        self.freq = freq
        self.reports = reports
        self.report_count = len(reports)
        self.asof = asof
        self.spilled = False

    @property
    def span(self) -> int:
        return self.end - self.start

    @property
    def aligned(self) -> bool:
        """True when the node sits on its level's dyadic grid (its
        sibling exists in principle, so it may coarsen upward)."""
        return self.start % (self.span * 2) == 0

    def overlaps(self, a: int, b: int) -> bool:
        """True when the node intersects the inclusive window range [a, b]."""
        return self.start <= b and self.end > a

    @property
    def memory_bytes(self) -> float:
        """Accounted hot bytes of the payload (0 once spilled)."""
        if self.spilled or self.freq is None:
            return 0.0
        # Reports are a handful of floats each; 64 bytes is the honest
        # ballpark the observability gauges use.
        return self.freq.memory_bytes + 64.0 * len(self.reports)

    def describe(self) -> Dict:
        """JSON-safe metadata row for ``/history`` and the CLI."""
        return {
            "level": self.level,
            "start": self.start,
            "end": self.end,
            "windows": self.span,
            "items": self.items,
            "reports": self.report_count,
            "tier": "cold" if self.spilled else "hot",
            "asof": self.asof is not None,
        }


def merge_nodes(first: LadderNode, second: LadderNode, policy,
                hash_family: str = "crc", payload_of=None) -> LadderNode:
    """Coarsen two adjacent aligned siblings into their parent.

    The parent gets a *fresh* frequency sketch merged from copies of
    both children (published query snapshots may still hold the
    children, so they are never mutated), the concatenated report
    stream in canonical order, and no ``asof`` payload — deep
    time-travel fidelity is exactly what coarsening gives up.

    ``payload_of(node) -> (freq, reports)`` materializes a child's
    payload (the store wires it to the cold tier so spilled nodes can
    still coarsen); by default the in-memory payload is used.
    """
    if first.level != second.level or first.end != second.start:
        raise ConfigurationError(
            f"cannot merge non-adjacent nodes [{first.start},{first.end}) "
            f"and [{second.start},{second.end}) at levels "
            f"{first.level}/{second.level}"
        )
    if not first.aligned:
        raise ConfigurationError(
            f"node [{first.start},{first.end}) is not aligned to the "
            f"level-{first.level + 1} grid"
        )
    if payload_of is None:
        def payload_of(node):
            return node.freq, node.reports

    first_freq, first_reports = payload_of(first)
    second_freq, second_reports = payload_of(second)
    freq = None
    if first_freq is not None and second_freq is not None:
        freq = copy_freq(first_freq, policy, hash_family)
        freq.merge(second_freq)
    reports: List[SimplexReport] = sorted(
        (*first_reports, *second_reports), key=report_order
    )
    return LadderNode(
        first.level + 1,
        first.start,
        items=first.items + second.items,
        freq=freq,
        reports=tuple(reports),
    )
