"""Recorders: the switch between free-running and observed code.

Instrumented components take a ``recorder`` at construction and ask it
for instruments (:meth:`counter` / :meth:`gauge` / :meth:`histogram`)
and for event recording.  Two implementations exist:

* :data:`NULL_RECORDER` (the default everywhere): hands out no-op
  instruments and ignores events.  Components additionally gate their
  instrumentation blocks on ``recorder.enabled``, so the per-arrival
  hot path carries **zero** added calls when observability is off —
  the overhead budget measured by ``benchmarks/test_obs_overhead.py``.
* :class:`Recorder`: backed by a :class:`~repro.obs.registry.MetricsRegistry`
  and optionally a :class:`~repro.obs.trace.TraceRing`.

Coarse phases are timed by :class:`repro.obs.profile.PhaseProfiler`
(``pipeline_phase_seconds``) and traced by :mod:`repro.obs.spans`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import TraceRing


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """The default recorder: everything is a no-op; ``enabled`` is False."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    trace: Optional[TraceRing] = None

    def counter(self, name: str, help: str = ""):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = ""):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def event(self, kind: str, **fields) -> None:
        pass


#: Shared no-op recorder; components default to this.
NULL_RECORDER = NullRecorder()


class Recorder(NullRecorder):
    """A live recorder: registry-backed instruments + optional trace ring.

    Args:
        registry: the :class:`MetricsRegistry` instruments land in
            (fresh one by default).
        trace: a :class:`TraceRing` for decision events, or None to
            record metrics only.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRing] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace

    def counter(self, name: str, help: str = ""):
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = ""):
        return self.registry.gauge(name, help)

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        return self.registry.histogram(name, help, buckets=buckets)

    def event(self, kind: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(kind, **fields)
