"""Contract family: the metric surface, cross-file.

The metrics registry (``repro.obs.registry``) rejects names that do not
match the Prometheus identifier grammar, but only at runtime, on a code
path a unit test may never exercise; and a metric missing from
``docs/OBSERVABILITY.md`` is invisible to whoever builds dashboards
from that doc.  This family moves both checks to lint time, project-wide:

- **names** — every instrument registration whose name is a string
  literal or resolves through module-level constants and ``from X
  import NAME`` chains (``registry.counter(PHASE_METRIC, ...)``) must
  satisfy the registry's own grammar and be documented;
- **kind consistency** — one name registered as two different
  instrument kinds anywhere in src is a merge-time type clash
  (registries add counter-to-counter; a counter/gauge split corrupts
  the aggregated ``/metrics`` view);
- **catalog staleness** — every row of the ``docs/OBSERVABILITY.md``
  metric tables (rows whose Kind column is counter/gauge/histogram)
  must name a metric some src site actually emits; the doc is the
  dashboard ground truth and dead rows get dashboards built on air.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.context import ModuleInfo
from repro.lint.contracts.base import ContractRule
from repro.lint.findings import Finding, Severity
from repro.lint.graph.index import ProjectIndex
from repro.lint.graph.sites import call_tail
from repro.lint.registry import register
from repro.obs.registry import METRIC_NAME_RE

_INSTRUMENT_KINDS = ("counter", "gauge", "histogram")

_DOC_PATH = "docs/OBSERVABILITY.md"
_DOC_ANCHOR = "repro.obs.collect"

#: (kind, info, node)
Site = Tuple[str, ModuleInfo, ast.AST]


@register
class MetricSurfaceRule(ContractRule):
    """Cross-file metric-name flow: resolution, kinds, doc catalog."""

    id = "metric-surface"
    severity = Severity.ERROR
    rationale = (
        "metric names, literal or reaching the registry through "
        "constants, must be Prometheus-valid (the registry raises "
        "otherwise, but only at runtime) and documented in "
        "docs/OBSERVABILITY.md, one name must map "
        "to one instrument kind project-wide (registries merge "
        "additively by kind), and every documented catalog row must "
        "correspond to a metric src actually emits"
    )

    def doc_anchor_module(self, doc_path: str) -> str:
        return _DOC_ANCHOR

    def collect(self, index: ProjectIndex) -> Iterator[Finding]:
        sites_by_name: Dict[str, List[Site]] = {}
        for info in index.modules.values():
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                kind = call_tail(node)
                if kind not in _INSTRUMENT_KINDS:
                    continue
                name_node = None
                if node.args:
                    name_node = node.args[0]
                else:
                    for keyword in node.keywords:
                        if keyword.arg == "name":
                            name_node = keyword.value
                if name_node is None:
                    continue
                name = index.resolve_string(info.module, name_node)
                if name is None:
                    # dynamically-named instruments (merge/restore
                    # paths, f-strings) are out of static reach
                    continue
                sites_by_name.setdefault(name, []).append((kind, info, node))

        doc = self.project.doc_text(_DOC_PATH)
        for name in sorted(sites_by_name):
            for _kind, info, node in sites_by_name[name]:
                if not METRIC_NAME_RE.match(name):
                    yield self.site(
                        info,
                        node,
                        f"metric name {name!r} is not a valid Prometheus "
                        f"identifier ([a-zA-Z_:][a-zA-Z0-9_:]*); the "
                        f"registry will reject it at runtime",
                    )
                elif doc is not None and f"`{name}`" not in doc and name not in doc:
                    yield self.site(
                        info,
                        node,
                        f"metric {name!r} is not documented in {_DOC_PATH}; "
                        f"add a row to the metric table there",
                    )

        for name in sorted(sites_by_name):
            sites = sites_by_name[name]
            kinds = sorted({kind for kind, _, _ in sites})
            if len(kinds) > 1:
                label = "/".join(kinds)
                for _kind, info, node in sites:
                    yield self.site(
                        info,
                        node,
                        f"metric {name!r} is registered as more than "
                        f"one instrument kind ({label}); merged "
                        f"registries need exactly one",
                    )

        if doc is not None and sites_by_name and _DOC_ANCHOR in index.modules:
            emitted = set(sites_by_name)
            for lineno, name in _doc_metric_rows(doc):
                if name not in emitted:
                    yield self.doc_finding(
                        _DOC_PATH,
                        lineno,
                        f"documented metric {name!r} is not emitted "
                        f"anywhere in src (stale catalog row)",
                        symbol=name,
                    )


def _doc_metric_rows(doc: str) -> Iterator[Tuple[int, str]]:
    """``(line, metric_name)`` for catalog table rows — rows whose
    second cell is an instrument kind.  A ``{label=...}`` suffix on the
    name is stripped (the family name is what gets emitted)."""
    for lineno, line in enumerate(doc.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if len(cells) < 2 or cells[1].strip("`") not in _INSTRUMENT_KINDS:
            continue
        name = cells[0].strip("`").partition("{")[0]
        if name and METRIC_NAME_RE.match(name):
            yield lineno, name
