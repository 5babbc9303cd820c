"""Hot-path efficiency rules: allocation discipline and ``__slots__``.

Stage-1 tower updates and Stage-2 cell elections run once per stream
item — millions of times per benchmark run.  Objects allocated there
dominate the allocator profile, and any instance without ``__slots__``
pays an extra ``__dict__`` per allocation (measured in EXPERIMENTS.md).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.context import ModuleInfo
from repro.lint.findings import Finding, Severity
from repro.lint.registry import register
from repro.lint.rules.base import Rule, call_name, walk_scopes

#: packages whose per-item methods are the hot paths
_HOT_PACKAGES = ("repro.sketch", "repro.core")

#: per-item entry points — the whole body of these functions runs once
#: per stream item (or once per item inside their batch loops)
_HOT_FUNCTIONS: Set[str] = {
    "insert",
    "record_arrival",
    "bulk_insert",
}


def _hot_function_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in _HOT_FUNCTIONS
        ):
            yield node


@register
class HotLoopAllocRule(Rule):
    """Un-slotted project-class construction (or lambdas) inside
    per-item update paths."""

    id = "hot-loop-alloc"
    severity = Severity.WARNING
    rationale = (
        "insert()/update() run once per stream item; constructing an "
        "un-slotted class there allocates a __dict__ per item — add "
        "__slots__ to the class or hoist the allocation"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_package(*_HOT_PACKAGES):
            return
        for func in _hot_function_nodes(info.tree):
            for node in ast.walk(func):
                if isinstance(node, ast.Lambda):
                    yield self.finding(
                        info,
                        node,
                        f"lambda constructed inside hot path "
                        f"{func.name}(); it allocates a closure per item "
                        f"— hoist it to module level",
                        symbol=func.name,
                    )
                    continue
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                simple = name.rsplit(".", 1)[-1]
                # Class-looking names only (allowing _Private cells).
                visible = simple.lstrip("_")
                if not visible or not visible[0].isupper():
                    continue
                slotted = self.project.class_has_slots(simple)
                if slotted is False:
                    yield self.finding(
                        info,
                        node,
                        f"{simple}() constructed inside hot path "
                        f"{func.name}() but {simple} has no __slots__; "
                        f"each instance carries a __dict__ — add "
                        f"__slots__ to {simple}",
                        symbol=func.name,
                    )


def _is_record_class(node: ast.ClassDef) -> bool:
    """A plain data-record: ``__init__`` whose body is only
    ``self.x = ...`` assignments (docstring allowed), and no other
    statements in the class body besides methods/docstring/__slots__."""
    init = None
    for child in node.body:
        if isinstance(child, ast.FunctionDef) and child.name == "__init__":
            init = child
    if init is None:
        return False
    body = init.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
    ):
        body = body[1:]
    if not body:
        return False
    for stmt in body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            return False
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return False
    return True


def _dataclass_has_defaults(node: ast.ClassDef) -> bool:
    return any(
        isinstance(child, ast.AnnAssign) and child.value is not None
        for child in node.body
    )


def _has_decorator(node: ast.ClassDef, *names: str) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        text = (
            target.id
            if isinstance(target, ast.Name)
            else getattr(target, "attr", "")
        )
        if text in names:
            return True
    return False


@register
class MissingSlotsRule(Rule):
    """Record-shaped classes in the hot packages without ``__slots__``."""

    id = "missing-slots"
    severity = Severity.WARNING
    rationale = (
        "cell/bucket/record classes are allocated per tracked item; "
        "without __slots__ each carries a ~100-byte __dict__ — declare "
        "__slots__ (frozen dataclasses can set it explicitly on 3.9)"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_package(*_HOT_PACKAGES):
            return
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if self.project.class_has_slots(node.name):
                continue
            is_dataclass = _has_decorator(node, "dataclass")
            if not is_dataclass and not _is_record_class(node):
                continue
            if is_dataclass and _dataclass_has_defaults(node):
                # On 3.9 a manual __slots__ conflicts with field
                # defaults (class attributes shadow slot descriptors),
                # and slots=True needs 3.10 — nothing actionable.
                continue
            if node.bases and not is_dataclass:
                # Subclasses inherit a __dict__ from un-slotted bases;
                # flagging them without the base is just noise.
                base_simple = node.bases[0]
                name = (
                    base_simple.id
                    if isinstance(base_simple, ast.Name)
                    else getattr(base_simple, "attr", "")
                )
                if self.project.class_has_slots(name) is not True:
                    continue
            yield self.finding(
                info,
                node,
                f"record class {node.name} in a hot package has no "
                f"__slots__; each instance allocates a __dict__",
                symbol=node.name,
            )
