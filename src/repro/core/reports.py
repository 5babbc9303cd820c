"""Report records emitted by simplex-finding algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.compat import FrozenSlots
from repro.hashing.family import ItemId


@dataclass(frozen=True)
class SimplexReport(FrozenSlots):
    """One reported k-simplex instance.

    A report at window ``w`` claims the item satisfied the k-simplex
    definition over windows ``start_window .. w`` (a span of ``p``
    windows), following the paper's ``report (e, w - p + 1)``.

    Attributes:
        item: the reported item ID.
        start_window: first window of the satisfying span (``w - p + 1``).
        report_window: the window at whose end the report was emitted.
        lasting_time: the algorithm's estimate of the item's lasting time
            ``t = w - w_str`` (Equation 7); ARE is measured on this.
        coefficients: fitted polynomial coefficients ``(a_0, ..., a_k)``.
        mse: MSE of the fit over the reported span.
    """

    __slots__ = (
        "item",
        "start_window",
        "report_window",
        "lasting_time",
        "coefficients",
        "mse",
    )

    item: ItemId
    start_window: int
    report_window: int
    lasting_time: int
    coefficients: Tuple[float, ...]
    mse: float

    @property
    def instance(self) -> Tuple[ItemId, int]:
        """The (item, start_window) pair used for truth matching."""
        return (self.item, self.start_window)


def report_to_dict(report: SimplexReport) -> Dict:
    """JSON-safe record of one report.

    The one report codec: snapshots, checkpoints, ladder nodes, cold-tier
    files, replica frames and the HTTP API all write this record, in this
    key order, so their bytes agree wherever the same report appears.
    """
    return {
        "item": report.item,
        "start_window": report.start_window,
        "report_window": report.report_window,
        "lasting_time": report.lasting_time,
        "coefficients": list(report.coefficients),
        "mse": report.mse,
    }


def report_from_dict(record: Dict) -> SimplexReport:
    """Inverse of :func:`report_to_dict`."""
    return SimplexReport(
        item=record["item"],
        start_window=record["start_window"],
        report_window=record["report_window"],
        lasting_time=record["lasting_time"],
        coefficients=tuple(record["coefficients"]),
        mse=record["mse"],
    )
