"""Mergeable-protocol completeness across the sketch substrate.

The sharded runtime's compaction and re-shard paths (docs/RUNTIME.md)
fold per-shard states with ``merge()``; two-stage designs only keep
their accuracy guarantees when *every* counting structure participates.
A sketch that can be updated and queried but not merged silently pins
the runtime to single-shard operation the day someone swaps it in.

The rule covers both the counting substrate (``repro.sketch``) and the
engines built on it (``repro.core``), and recognizes the batched update
and query spellings (``bulk_insert``, ``query_recent`` /
``query_slot``) -- the vectorized tower's whole API -- not just the
scalar ``insert`` / ``query`` pair.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleInfo
from repro.lint.findings import Finding, Severity
from repro.lint.registry import register
from repro.lint.rules.base import Rule

_UPDATE_METHODS = {"insert", "update", "bulk_insert"}
_QUERY_METHODS = {"query", "query_recent", "query_slot"}
_ABSTRACT_DECORATORS = {"abstractmethod", "abc.abstractmethod"}


def _is_abstract(node: ast.ClassDef) -> bool:
    for base in node.bases:
        text = ast.dump(base)
        if "ABC" in text or "ABCMeta" in text:
            return True
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in child.decorator_list:
                name = (
                    decorator.id
                    if isinstance(decorator, ast.Name)
                    else getattr(decorator, "attr", "")
                )
                if name == "abstractmethod":
                    return True
    return False


@register
class MergeableProtocolRule(Rule):
    """Sketch classes with ``insert``/``update``/``query`` but no
    reachable ``merge()``."""

    id = "mergeable-protocol"
    severity = Severity.ERROR
    rationale = (
        "every counting structure in repro.sketch and repro.core must "
        "fold into the sharded runtime's compaction path; define merge() "
        "(geometry- and seed-checked) or baseline the class with a reason"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not (info.in_package("repro.sketch") or info.in_package("repro.core")):
            return
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_abstract(node):
                # Abstract bases declare the protocol; their concrete
                # subclasses are the ones on the hook.
                continue
            methods = {
                child.name
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if not methods & (_UPDATE_METHODS | _QUERY_METHODS):
                continue
            infos = [
                cls
                for cls in self.project.classes.get(node.name, [])
                if cls.module == info.module
            ]
            if infos and self.project.resolve_method(infos[0], "merge"):
                continue
            if not infos and "merge" in methods:  # pragma: no cover - safety net
                continue
            yield self.finding(
                info,
                node,
                f"class {node.name} defines "
                f"{sorted(methods & (_UPDATE_METHODS | _QUERY_METHODS))} "
                f"but no merge(); the sharded compaction path cannot fold "
                f"it",
                symbol=node.name,
            )
