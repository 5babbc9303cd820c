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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.reports import SimplexReport
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError
from repro.sketch.vectorized_cm import VectorizedCM


def make_freq_sketch(policy, seed: int, hash_family: str = "crc") -> VectorizedCM:
    """A node frequency sketch under ``policy``'s geometry.

    All sketches of one store share ``seed`` (and thus the hash
    family), which is what makes them merge-compatible up the ladder.
    """
    return VectorizedCM(
        memory_bytes=policy.freq_bytes,
        d=policy.freq_depth,
        seed=seed,
        hash_family=hash_family,
    )


def snapshot_freq(sketch: VectorizedCM) -> Dict:
    """JSON-safe state of a node frequency sketch (cold-tier payload)."""
    return {
        "d": sketch.d,
        "width": sketch.width,
        "bits": sketch.bits,
        "seed": sketch.family.seed,
        "arrays": sketch.counters.tolist(),
    }


def restore_freq(state: Dict, policy, seed: int,
                 hash_family: str = "crc") -> VectorizedCM:
    """Rebuild a frequency sketch from :func:`snapshot_freq` output.

    The payload comes from outside the process (replica frames,
    cold-tier and saved-store files), so all of it is checked: ``d``,
    ``width`` and ``bits`` must be ``policy``'s geometry and ``seed``
    the owning store's, and ``arrays`` exactly ``d`` rows of exactly
    ``width`` ints (bools and floats are not ints), each within the
    counter range.  Anything else raises :class:`ConfigurationError`.
    """
    sketch = make_freq_sketch(policy, seed, hash_family)
    if not isinstance(state, dict):
        raise ConfigurationError(
            f"frequency-sketch payload must be an object, got {type(state).__name__}"
        )
    expected = {"d": sketch.d, "width": sketch.width, "bits": sketch.bits,
                "seed": seed}
    for key, want in expected.items():
        got = state.get(key)
        if type(got) is not int or got != want:
            raise ConfigurationError(
                f"frequency-sketch {key} mismatch: expected {want}, payload has {got!r}"
            )
    rows = state.get("arrays")
    if (
        not isinstance(rows, list)
        or len(rows) != sketch.d
        or any(not isinstance(row, list) or len(row) != sketch.width for row in rows)
    ):
        raise ConfigurationError(
            f"frequency-sketch arrays must be {sketch.d} rows of {sketch.width} counters"
        )
    if any(set(map(type, row)) != {int} for row in rows):
        raise ConfigurationError("frequency-sketch counters must all be ints")
    try:
        counters = np.array(rows, dtype=np.int64)
    except OverflowError:
        counters = None
    if counters is None or counters.min() < 0 or counters.max() > sketch.max_value:
        raise ConfigurationError(
            f"frequency-sketch counters must lie in [0, {sketch.max_value}]"
        )
    sketch.counters = counters
    return sketch


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
        freq: Optional[VectorizedCM] = None,
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


def merge_nodes(first: LadderNode, second: LadderNode,
                payload_of=None) -> LadderNode:
    """Coarsen two adjacent aligned siblings into their parent.

    The parent gets a *fresh* frequency sketch, a copy of the first
    child's merged with the second's (published query snapshots may
    still hold the children, so they are never mutated), the
    concatenated report stream in canonical order, and no ``asof``
    payload — deep time-travel fidelity is exactly what coarsening
    gives up.

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
        freq = first_freq.copy().merge(second_freq)
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
