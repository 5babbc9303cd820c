"""Minimal HTTP/1.1 machinery shared by the service and replica tiers.

One request per connection, JSON in and out, no keep-alive: exactly
enough HTTP for the query surfaces of :mod:`repro.service.server` and
:mod:`repro.replica.server`.  A *router* is an async callable
``(method, path, query, body) -> (status, body)`` where ``body`` is a
JSON-safe object (rendered as ``application/json``) or a ``str``
(shipped verbatim as Prometheus text exposition — the ``/metrics``
route).

The module also owns the shared response builders for the routes both
tiers answer (``/reports``, ``/history``, ``/trace``, ``/slo``): the
replica's report-identity contract — byte-identical bodies at the same
snapshot sequence — holds *by construction* because primary and replica
render through the same functions here.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Callable, List, Optional, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.core.reports import SimplexReport, report_to_dict
from repro.errors import ConfigurationError

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}


class BadParameter(ValueError):
    """A malformed HTTP query parameter (rendered as a 400, never a 500)."""


def query_int(query: dict, name: str, default=None, minimum: Optional[int] = None):
    """Shared integer-parameter validation for the HTTP routes.

    Missing parameters return ``default``; anything non-integer, or
    below ``minimum``, raises :class:`BadParameter` with a message
    naming the offending parameter — the routes map it to a 400 JSON
    body instead of letting ``int()`` blow up into a 500.
    """
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise BadParameter(
            f"bad query parameter {name!r}: must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise BadParameter(
            f"bad query parameter {name!r}: must be >= {minimum}, got {value}"
        )
    return value


def query_float(query: dict, name: str, default=None, minimum: Optional[float] = None):
    """Float twin of :func:`query_int` (the replica's ``?pause=`` knob)."""
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadParameter(
            f"bad query parameter {name!r}: must be a number, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise BadParameter(
            f"bad query parameter {name!r}: must be >= {minimum}, got {value}"
        )
    return value


def query_range(query: dict, name: str = "range"):
    """Parse an ``a:b`` window-range parameter (None when absent).

    Delegates to :func:`repro.temporal.query.parse_range` and converts
    its :class:`~repro.errors.ConfigurationError` (non-integer bounds,
    ``b < a``, negatives) into :class:`BadParameter`, so ``range=b:a``
    is a client error, not a server one.
    """
    raw = query.get(name)
    if raw is None:
        return None
    from repro.temporal.query import parse_range

    try:
        return parse_range(raw)
    except ConfigurationError as exc:
        raise BadParameter(f"bad query parameter {name!r}: {exc}") from None


# ----------------------------------------------------------------------
# listener plumbing

async def read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; ``(method, path, query, body)``.

    Raises :class:`BadParameter` on a malformed request line (the
    handler maps it to a 400).
    """
    request_line = (await reader.readline()).decode("ascii", "replace").strip()
    parts = request_line.split()
    if len(parts) != 3:
        raise BadParameter(f"malformed request line: {request_line!r}")
    method, target, _ = parts
    content_length = 0
    while True:
        line = (await reader.readline()).decode("ascii", "replace").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip() or 0)
    body = b""
    if content_length:
        body = await reader.readexactly(min(content_length, 1 << 20))
    url = urlsplit(target)
    query = {k: v[-1] for k, v in parse_qs(url.query).items()}
    return method, url.path, query, body


def render_response(status: int, body) -> bytes:
    """One full HTTP/1.1 response (``str`` bodies ship as Prometheus text)."""
    if isinstance(body, str):
        payload = body.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = json.dumps(body).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload


def make_http_handler(router: Callable):
    """An ``asyncio.start_server`` callback answering via ``router``."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            try:
                method, path, query, body = await read_request(reader)
            except BadParameter as exc:
                status, body = 400, {"error": str(exc)}
            else:
                status, body = await router(method, path, query, body)
        except Exception as exc:  # pragma: no cover - defensive
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        with contextlib.suppress(ConnectionError):
            writer.write(render_response(status, body))
            await writer.drain()
        writer.close()

    return handle


# ----------------------------------------------------------------------
# shared route bodies (primary and replica render through these, which
# is what makes same-sequence answers byte-identical)

def reports_response(
    window: int,
    reports: Sequence[SimplexReport],
    query: dict,
    range_reports: Optional[Callable[[int, int], List[SimplexReport]]] = None,
):
    """The ``/reports`` body over an immutable report snapshot.

    ``range_reports(a, b)`` serves ``?range=a:b`` from a temporal tier
    when one is attached; without it the range filters the snapshot
    list by window stamp (and says so in ``range.source``).
    """
    try:
        window_range = query_range(query)
        since = query_int(query, "since", minimum=0)
        limit = query_int(query, "limit", minimum=0)
    except BadParameter as exc:
        return 400, {"error": str(exc)}
    if window_range is not None and range_reports is not None:
        # Served from the temporal tier's immutable published snapshot:
        # the dyadic cover of [a, b], report streams filtered by window
        # stamp (exact at any coarsening).
        selected = range_reports(window_range.start, window_range.end)
    else:
        selected = list(reports)
        if window_range is not None:
            selected = [
                r for r in selected
                if window_range.start <= r.report_window <= window_range.end
            ]
    if "item" in query:
        selected = [r for r in selected if str(r.item) == query["item"]]
    if since is not None:
        selected = [r for r in selected if r.report_window >= since]
    total = len(selected)
    if limit is not None:
        selected = selected[:limit]
    body = {
        "window": window,
        "total": total,
        "reports": [report_to_dict(r) for r in selected],
    }
    if window_range is not None:
        body["range"] = {
            "start": window_range.start, "end": window_range.end,
            "source": "temporal" if range_reports is not None else "snapshot",
        }
    return 200, body


def trace_response(tracer, query: dict):
    """The ``/trace`` body over a live span tracer.

    Default shape is the raw span-event list (one dict per closed span,
    newest last) plus the recorder's loss counters; ``?format=chrome``
    renders the same events as a Chrome/Perfetto ``trace_event`` JSON
    document, and ``?trace_id=`` filters to one window's tree.  Both
    tiers answer through this builder, so a primary span tree and the
    replica's adopted continuation render identically.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return 400, {"error": "tracing not enabled (start with --trace)"}
    events = tracer.events(trace_id=query.get("trace_id"))
    fmt = query.get("format", "spans")
    if fmt == "chrome":
        from repro.obs.spans import chrome_trace

        return 200, chrome_trace(events)
    if fmt != "spans":
        return 400, {
            "error": f"bad query parameter 'format': expected spans or chrome, got {fmt!r}"
        }
    return 200, {
        "recorded": tracer.recorded,
        "dropped": tracer.dropped,
        "events": events,
    }


def slo_response(engine):
    """The ``/slo`` body: the engine's full burn-rate evaluation.

    ``engine`` is a :class:`repro.obs.slo.SloEngine` (or None when the
    tier has no objectives configured — a 400, mirroring the disabled
    ``/trace`` shape).
    """
    if engine is None:
        return 400, {"error": "no SLO engine configured"}
    return 200, engine.evaluate()


def history_response(snapshot, query: dict):
    """The ``/history`` body over a published temporal snapshot.

    ``snapshot`` is a :class:`repro.temporal.store.TemporalSnapshot`
    (or None when no temporal tier is attached — a 400, matching the
    historical service behaviour).
    """
    if snapshot is None:
        return 400, {"error": "temporal store not configured"}
    try:
        limit = query_int(query, "limit", minimum=0)
    except BadParameter as exc:
        return 400, {"error": str(exc)}
    nodes = [node.describe() for node in snapshot.nodes]
    if limit is not None:
        nodes = nodes[-limit:]
    return 200, {
        "base": snapshot.base,
        "tip": snapshot.tip,
        "windows_observed": snapshot.windows_observed,
        "items_observed": snapshot.items_observed,
        "depth": snapshot.depth,
        "coarsenings": snapshot.coarsenings,
        "nodes": nodes,
    }
