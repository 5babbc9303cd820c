"""Lock-cheap metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregation substrate of the observability layer
(``docs/OBSERVABILITY.md``).  Three design constraints shape it:

cheap on the hot path
    Instruments are plain ``__slots__`` objects mutating Python ints and
    floats; under the GIL a single ``+=`` is atomic enough for the
    single-writer contexts they live in (one sketch, one shard worker,
    one event loop), so there are no locks anywhere.

mergeable like sketch state
    A registry implements the same ``merge(other) -> self`` reduction
    protocol as every sketch in :mod:`repro.runtime.mergeable`, so
    per-shard registries fold into one coordinator view with
    :func:`repro.runtime.mergeable.merge_all`.  Counters and gauges add
    (gauges in this codebase are additive facts: tracked items, queue
    depth, saturated counters); histograms add bucket-wise and require
    identical bounds.

picklable snapshots
    ``snapshot()`` / ``from_snapshot()`` round-trip through plain JSON
    types, so the shard worker protocol can carry a registry over a
    multiprocessing queue and the coordinator can merge it without the
    worker's objects.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, MergeError

#: Prometheus metric-name grammar.
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Prometheus label-name grammar (no colons, unlike metric names).
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds: log-ish spread covering counts and ratios.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

#: Bounds for duration histograms (seconds), used by the phase profiler.
DURATION_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

Number = Union[int, float]


def _check_name(name: str) -> str:
    if not METRIC_NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


Labels = Tuple[Tuple[str, str], ...]


def _check_labels(labels) -> Labels:
    """Canonicalise a label mapping: sorted ``((name, value), ...)``."""
    if not labels:
        return ()
    items = labels.items() if hasattr(labels, "items") else labels
    out = []
    for key, value in items:
        if not _LABEL_RE.match(key):
            raise ConfigurationError(f"invalid label name {key!r}")
        out.append((key, str(value)))
    return tuple(sorted(out))


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value` (single left-to-right pass)."""
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def labeled_name(name: str, labels: Labels) -> str:
    """The full exposition sample name: ``name`` or ``name{k="v",...}``.

    This string doubles as the registry's storage key for labeled
    instruments, so ``parse_text(render_text(r))`` keys match
    ``registry.key`` exactly.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "key", "value")

    def __init__(self, name: str, help: str = "", labels=None):
        self.name = _check_name(name)
        self.help = help
        self.labels: Labels = _check_labels(labels)
        self.key = labeled_name(self.name, self.labels)
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> dict:
        state = {"kind": self.kind, "name": self.name, "help": self.help,
                 "value": self.value}
        if self.labels:
            state["labels"] = dict(self.labels)
        return state

    def restore(self, state: dict) -> None:
        self.value = state["value"]


class Gauge:
    """Point-in-time value.  Merges by addition (see module docstring)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "key", "value")

    def __init__(self, name: str, help: str = "", labels=None):
        self.name = _check_name(name)
        self.help = help
        self.labels: Labels = _check_labels(labels)
        self.key = labeled_name(self.name, self.labels)
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        self.value += other.value

    def snapshot(self) -> dict:
        state = {"kind": self.kind, "name": self.name, "help": self.help,
                 "value": self.value}
        if self.labels:
            state["labels"] = dict(self.labels)
        return state

    def restore(self, state: dict) -> None:
        self.value = state["value"]


class Histogram:
    """Fixed-bound histogram (Prometheus classic shape).

    ``bounds`` are the finite upper bucket bounds, strictly increasing;
    an implicit ``+Inf`` bucket catches the rest.  Buckets are stored
    non-cumulative and rendered cumulative at exposition time.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "key", "bounds", "bucket_counts",
                 "count", "sum")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[Number] = DEFAULT_BUCKETS, labels=None):
        self.name = _check_name(name)
        self.help = help
        self.labels: Labels = _check_labels(labels)
        self.key = labeled_name(self.name, self.labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs at least one bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly increasing: {bounds}"
            )
        self.bounds: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        # le is inclusive: the first bound >= value owns the observation.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise MergeError(
                f"histogram {self.name} bounds differ: {self.bounds} vs {other.bounds}"
            )
        for i, count in enumerate(other.bucket_counts):
            self.bucket_counts[i] += count
        self.count += other.count
        self.sum += other.sum

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts in bound order (ending at ``count``)."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out

    def snapshot(self) -> dict:
        state = {"kind": self.kind, "name": self.name, "help": self.help,
                 "bounds": list(self.bounds), "buckets": list(self.bucket_counts),
                 "count": self.count, "sum": self.sum}
        if self.labels:
            state["labels"] = dict(self.labels)
        return state

    def restore(self, state: dict) -> None:
        if tuple(state["bounds"]) != self.bounds:  # pragma: no cover - defensive
            raise MergeError(f"histogram {self.name} snapshot bounds differ")
        self.bucket_counts = list(state["buckets"])
        self.count = state["count"]
        self.sum = state["sum"]


Instrument = Union[Counter, Gauge, Histogram]

_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of instruments, mergeable and snapshotable.

    Instruments may carry labels; each ``(name, labels)`` combination is
    its own instrument, stored under the full exposition sample name
    (``name{k="v"}``).  All label sets of a family share one kind —
    exposition emits one ``TYPE`` line per family.
    """

    def __init__(self):
        self._metrics: Dict[str, Instrument] = {}
        #: family name -> kind, enforcing one kind per exposition family
        self._family_kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument creation (get-or-create, kind-checked)

    def _get_or_create(self, cls, name: str, help: str, labels=None,
                       **kwargs) -> Instrument:
        key = labeled_name(_check_name(name), _check_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {key!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        family_kind = self._family_kinds.get(name)
        if family_kind is not None and family_kind != cls.kind:
            raise ConfigurationError(
                f"metric family {name!r} already registered as {family_kind}, "
                f"requested {cls.kind}"
            )
        instrument = cls(name, help, labels=labels, **kwargs)
        self._metrics[instrument.key] = instrument
        self._family_kinds[name] = cls.kind
        return instrument

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels=labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels=labels)

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[Number] = DEFAULT_BUCKETS, labels=None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels=labels,
                                   buckets=buckets)

    # ------------------------------------------------------------------
    # reading

    def get(self, name: str, labels=None) -> Optional[Instrument]:
        return self._metrics.get(labeled_name(name, _check_labels(labels)))

    def value(self, name: str, default: Number = 0, labels=None) -> Number:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        instrument = self.get(name, labels)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            raise ConfigurationError(f"metric {name!r} is a histogram; use get()")
        return instrument.value

    def names(self) -> List[str]:
        return list(self._metrics)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> dict:
        """Flat JSON-safe view: scalars for counters/gauges, dicts for
        histograms.  The CLI ``stats`` view and tests read this."""
        out: dict = {}
        for instrument in self._metrics.values():
            if isinstance(instrument, Histogram):
                out[instrument.key] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": dict(zip(
                        [str(b) for b in instrument.bounds] + ["+Inf"],
                        instrument.cumulative(),
                    )),
                }
            else:
                out[instrument.key] = instrument.value
        return out

    # ------------------------------------------------------------------
    # reduction (the Mergeable protocol of repro.runtime.mergeable)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry; returns ``self``.

        Unknown metrics are adopted (same kind and, for histograms, same
        bounds as on the other side); known ones reduce kind-wise.
        """
        for key, theirs in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                labels = theirs.labels
                if isinstance(theirs, Histogram):
                    mine = self.histogram(theirs.name, theirs.help,
                                          buckets=theirs.bounds, labels=labels)
                elif isinstance(theirs, Gauge):
                    mine = self.gauge(theirs.name, theirs.help, labels=labels)
                else:
                    mine = self.counter(theirs.name, theirs.help, labels=labels)
            elif mine.kind != theirs.kind:
                raise MergeError(
                    f"metric {key!r} kind mismatch: {mine.kind} vs {theirs.kind}"
                )
            mine.merge(theirs)
        return self

    # ------------------------------------------------------------------
    # snapshots (picklable / JSON-safe; the worker protocol payload)

    def snapshot(self) -> dict:
        return {"metrics": [m.snapshot() for m in self._metrics.values()]}

    @classmethod
    def from_snapshot(cls, state: dict) -> "MetricsRegistry":
        registry = cls()
        for entry in state["metrics"]:
            kind = entry["kind"]
            if kind not in _KINDS:
                raise ConfigurationError(f"unknown metric kind {kind!r}")
            labels = entry.get("labels")
            if kind == "histogram":
                instrument = registry.histogram(
                    entry["name"], entry["help"], buckets=entry["bounds"],
                    labels=labels,
                )
            elif kind == "gauge":
                instrument = registry.gauge(entry["name"], entry["help"],
                                            labels=labels)
            else:
                instrument = registry.counter(entry["name"], entry["help"],
                                              labels=labels)
            instrument.restore(entry)
        return registry

    def merge_snapshot(self, state: dict) -> "MetricsRegistry":
        """Merge a :meth:`snapshot` payload (coordinator-side reduction)."""
        return self.merge(MetricsRegistry.from_snapshot(state))

    # ------------------------------------------------------------------
    # exposition

    def render_text(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        from repro.obs.expo import render_text

        return render_text(self)
