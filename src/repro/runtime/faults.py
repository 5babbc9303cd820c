"""Deterministic fault injection for the sharded runtime.

The supervision layer (``docs/RUNTIME.md``, "Fault tolerance") is only
trustworthy if its failure paths are exercised on purpose.  This module
defines a small, picklable fault vocabulary that both the tests and the
CLI (``--inject-fault``) hand to :class:`repro.runtime.ShardedXSketch`;
each worker process consults a :class:`FaultInjector` built from the
specs and fails *exactly* where asked, so crash scenarios replay
bit-identically.

Fault kinds (``Fault.kind``):

``kill``
    The worker calls ``os._exit(137)`` — indistinguishable from an OOM
    kill or ``kill -9``.  ``point`` selects the instant:

    - ``"ingest"``: on receiving the first ingest command (an item
      batch or a count batch, see :data:`INGEST_OPS`) while the shard
      sketch sits at ``window`` (a mid-window crash; the consumed batch
      is lost).
    - ``"end_window"``: on receiving the window-close command at
      ``window``, before closing (the whole window's worth of shard
      state since the last checkpoint is lost).
    - ``"checkpoint"``: right *after* replying to a checkpoint command
      at ``window`` — a clean boundary kill: the coordinator holds a
      fresh snapshot, so a supervised restart loses nothing.

``drop_reply``
    Process the next ``count`` matching commands normally but never
    reply — a wedged worker.  The coordinator's reply deadline expires
    and retry-with-restart kicks in.

``slow``
    Sleep ``seconds`` before processing each of the next ``count``
    matching commands.  Below the reply deadline this must be harmless;
    above it, the worker is treated as wedged.

``error``
    Raise inside the worker loop on the next ``count`` matching
    commands.  Worker exceptions are protocol errors, not crashes: they
    travel back as an ``error`` reply and the coordinator raises
    :class:`repro.errors.RuntimeShardError` even under supervision.

CLI spec grammar (one fault per ``--inject-fault``)::

    kind:key=value[,key=value...]

    kill:shard=0,window=3,point=checkpoint
    drop_reply:shard=1,op=end_window
    slow:shard=0,op=end_window,seconds=2.5
    error:shard=1,op=checkpoint,window=4
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError

FAULT_KINDS = ("kill", "drop_reply", "slow", "error")

#: Where a ``kill`` fault fires (see module docstring).
KILL_POINTS = ("ingest", "end_window", "checkpoint")

#: Worker commands a drop_reply / slow / error fault can target.
FAULT_OPS = ("ingest", "end_window", "stats", "metrics", "trace", "checkpoint", "stop")

#: Worker commands that carry arrivals: ordered item batches for the
#: per-arrival engine, (key, count) batches for the vectorized engine.
#: A fault addressed to ``"ingest"`` fires on either.
INGEST_OPS = ("ingest", "ingest_counts")

#: Exit status of an injected kill (mirrors SIGKILL's 128+9).
KILL_EXIT_CODE = 137


@dataclass(frozen=True)
class Fault:
    """One deterministic fault, addressed to one shard.

    ``window`` filters on the shard sketch's window counter at command
    receipt (``None`` = any window).  ``op``/``point`` select the
    command; ``count`` limits how often drop_reply/slow/error fire.
    """

    kind: str
    shard: int
    window: Optional[int] = None
    point: str = "ingest"
    op: str = "end_window"
    seconds: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.shard < 0:
            raise ConfigurationError(f"fault shard must be >= 0, got {self.shard}")
        if self.kind == "kill" and self.point not in KILL_POINTS:
            raise ConfigurationError(
                f"kill point must be one of {KILL_POINTS}, got {self.point!r}"
            )
        if self.kind != "kill" and self.op not in FAULT_OPS:
            raise ConfigurationError(
                f"fault op must be one of {FAULT_OPS}, got {self.op!r}"
            )
        if self.kind == "slow" and self.seconds <= 0:
            raise ConfigurationError(
                f"slow fault needs seconds > 0, got {self.seconds}"
            )
        if self.count < 1:
            raise ConfigurationError(f"fault count must be >= 1, got {self.count}")


_FIELD_PARSERS = {
    "shard": int,
    "window": int,
    "point": str,
    "op": str,
    "seconds": float,
    "count": int,
}


def parse_fault(spec: str) -> Fault:
    """Parse one ``kind:key=value,...`` CLI spec into a :class:`Fault`."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    kwargs = {}
    if rest.strip():
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or key not in _FIELD_PARSERS:
                raise ConfigurationError(
                    f"bad fault field {pair!r} in {spec!r}; "
                    f"known fields: {sorted(_FIELD_PARSERS)}"
                )
            try:
                kwargs[key] = _FIELD_PARSERS[key](value.strip())
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault value {value!r} for {key!r} in {spec!r}"
                ) from exc
    if "shard" not in kwargs:
        raise ConfigurationError(f"fault spec {spec!r} needs shard=<id>")
    return Fault(kind=kind, **kwargs)


def parse_faults(specs: Optional[Sequence[str]]) -> List[Fault]:
    """Parse a list of CLI specs (``None``/empty -> ``[]``)."""
    return [parse_fault(spec) for spec in (specs or [])]


class InjectedFaultError(RuntimeError):
    """Raised inside a worker by an ``error`` fault."""


class _Armed:
    """Mutable firing state of one fault (dataclass stays frozen)."""

    __slots__ = ("fault", "remaining")

    def __init__(self, fault: Fault):
        self.fault = fault
        self.remaining = fault.count

    def matches(self, op: str, window: int) -> bool:
        fault = self.fault
        if self.remaining <= 0:
            return False
        if op in INGEST_OPS:
            op = "ingest"
        if fault.window is not None and fault.window != window:
            return False
        if fault.kind == "kill":
            return fault.point in ("ingest", "end_window") and op == fault.point
        return op == fault.op

    def matches_post_reply(self, op: str, window: int) -> bool:
        fault = self.fault
        return (
            self.remaining > 0
            and fault.kind == "kill"
            and fault.point == "checkpoint"
            and op == "checkpoint"
            and (fault.window is None or fault.window == window)
        )


def _exit_now(result_queue=None) -> None:  # pragma: no cover - exits the process
    if result_queue is not None:
        # Flush buffered replies so a post-reply kill cannot retract the
        # reply the coordinator is already owed.
        with contextlib.suppress(OSError, ValueError):
            result_queue.close()
            result_queue.join_thread()
    os._exit(KILL_EXIT_CODE)


class FaultInjector:
    """Worker-side fault evaluator (one per worker process).

    The worker loop calls :meth:`on_command` after dequeuing a command
    (kill/slow/error fire here), :meth:`should_drop_reply` before
    sending a reply, and :meth:`after_reply` after sending one
    (checkpoint-point kills fire here).
    """

    def __init__(self, faults: Sequence[Fault], shard_id: int):
        self._armed = [_Armed(f) for f in faults if f.shard == shard_id]

    def __bool__(self) -> bool:
        return bool(self._armed)

    def on_command(self, op: str, window: int) -> None:
        for armed in self._armed:
            if not armed.matches(op, window):
                continue
            kind = armed.fault.kind
            if kind == "kill":  # pragma: no cover - exits the worker
                _exit_now()
            if kind == "slow":
                armed.remaining -= 1
                time.sleep(armed.fault.seconds)
            elif kind == "error":
                armed.remaining -= 1
                raise InjectedFaultError(
                    f"injected error fault on {op!r} at window {window}"
                )

    def should_drop_reply(self, op: str, window: int) -> bool:
        for armed in self._armed:
            if armed.fault.kind == "drop_reply" and armed.matches(op, window):
                armed.remaining -= 1
                return True
        return False

    def after_reply(self, op: str, window: int, result_queue) -> None:
        for armed in self._armed:
            if armed.matches_post_reply(op, window):  # pragma: no cover - exits
                _exit_now(result_queue)
