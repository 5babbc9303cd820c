"""Boundary publishing renders each report once, whatever the history.

Without sockets: the publisher is driven directly, the way the window
manager calls it under the engine lock.
"""

from __future__ import annotations

import asyncio
import threading

import repro.replica.publisher as publisher_module
import repro.temporal.wire as wire
from repro.core.reports import SimplexReport, report_to_dict
from repro.replica.publisher import SnapshotPublisher
from repro.service.window import ServiceSnapshot


def _report(n: int) -> SimplexReport:
    return SimplexReport(
        item=f"i{n}", start_window=n, report_window=n + 6, lasting_time=7,
        coefficients=(1.0, 2.0), mse=0.5,
    )


def _snapshot(window: int, n_reports: int) -> ServiceSnapshot:
    return ServiceSnapshot(
        window=window,
        items_at_boundary=100 * window,
        reports=tuple(_report(n) for n in range(n_reports)),
        updated_at=0.0,
    )


def test_boundary_renders_only_appended_reports(monkeypatch):
    publisher = SnapshotPublisher("127.0.0.1", 0)
    publisher.publish_boundary(_snapshot(1, 500), None, ())
    rendered = []

    def counting(report):
        rendered.append(report)
        return report_to_dict(report)

    monkeypatch.setattr(publisher_module, "report_to_dict", counting)
    frame = publisher.publish_boundary(_snapshot(2, 503), None, ())
    assert [report.item for report in rendered] == ["i500", "i501", "i502"]
    assert frame["new_reports"] == [report_to_dict(_report(n)) for n in range(500, 503)]
    assert publisher._records == [report_to_dict(_report(n)) for n in range(503)]


def test_snapshot_frame_across_a_boundary_keeps_its_own_records(monkeypatch):
    """A SNAPSHOT frame captures the records of one sequence, then waits
    for the ladder export; a boundary landing meanwhile must not leak
    its reports into that frame."""
    exporting = threading.Event()
    release = threading.Event()

    def slow_export(store, pin):
        exporting.set()
        release.wait(timeout=10)
        return {"pinned": pin}

    monkeypatch.setattr(wire, "export_ladder_state", slow_export)

    class Store:
        snapshot = "pin"

    async def scenario():
        publisher = SnapshotPublisher("127.0.0.1", 0)
        publisher.temporal_store = Store()
        publisher.publish_boundary(_snapshot(1, 4), None, ())
        building = asyncio.create_task(publisher._snapshot_frame())
        while not exporting.is_set():
            await asyncio.sleep(0.01)
        publisher.publish_boundary(_snapshot(2, 9), None, ())
        release.set()
        return await building, publisher

    frame, publisher = asyncio.run(scenario())
    assert frame["seq"] == 1
    assert frame["reports"] == [report_to_dict(_report(n)) for n in range(4)]
    assert len(publisher._records) == 9
