"""Parsed-module and whole-project context handed to rules.

Rules never touch the filesystem themselves: single-module rules get a
:class:`ModuleInfo` (path, dotted module name, AST, source lines), and
cross-file rules additionally read the :class:`ProjectContext` built
after every module has been parsed (project-wide class table for
inheritance resolution, the observability doc for metric-surface checks).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass
class ModuleInfo:
    """One parsed source file."""

    #: display / baseline path, repo-root relative with ``/`` separators
    path: str
    #: dotted module name (``repro.sketch.cm``) when the file lives
    #: under a recognised package root; a path-derived pseudo-name
    #: (``examples.quickstart``) otherwise
    module: str
    tree: ast.Module
    #: raw source lines, 0-indexed (``lines[finding.line - 1]``)
    lines: List[str]

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits under any dotted ``prefix``."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    @property
    def is_src(self) -> bool:
        """True for shipped library code (``repro.*``), not tests/examples."""
        return self.in_package("repro")

    def line_comment(self, line: int) -> str:
        """The trailing-comment portion of a 1-indexed source line."""
        if not 1 <= line <= len(self.lines):
            return ""
        text = self.lines[line - 1]
        hash_index = text.find("#")
        return text[hash_index:] if hash_index >= 0 else ""


@dataclass
class ClassInfo:
    """Project-wide class facts used by the cross-file rules."""

    name: str
    module: str
    path: str
    line: int
    #: base-class names as written (``CMSketch``, ``abc.ABC``, ...)
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    has_slots: bool

    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ProjectContext:
    """Cross-module view built once per lint run."""

    root: Path
    modules: List[ModuleInfo] = field(default_factory=list)
    #: simple class name -> definitions (collisions keep every one)
    classes: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    _doc_cache: Dict[str, Optional[str]] = field(default_factory=dict)

    def add_module(self, info: ModuleInfo) -> None:
        self.modules.append(info)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            self.classes.setdefault(node.name, []).append(
                ClassInfo(
                    name=node.name,
                    module=info.module,
                    path=info.path,
                    line=node.lineno,
                    bases=tuple(_base_name(b) for b in node.bases),
                    methods=tuple(
                        child.name
                        for child in node.body
                        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ),
                    has_slots=_defines_slots(node),
                )
            )

    def resolve_method(self, cls: ClassInfo, method: str, _seen=None) -> bool:
        """True when ``cls`` defines ``method`` directly or via a base
        class that is also defined in the linted project (external bases
        such as ``abc.ABC`` resolve to "not defined")."""
        if method in cls.methods:
            return True
        if _seen is None:
            _seen = set()
        if cls.qualname() in _seen:
            return False
        _seen.add(cls.qualname())
        for base in cls.bases:
            simple = base.rsplit(".", 1)[-1]
            for candidate in self.classes.get(simple, []):
                if self.resolve_method(candidate, method, _seen):
                    return True
        return False

    def class_has_slots(self, name: str) -> Optional[bool]:
        """Whether the project class ``name`` declares ``__slots__``.

        ``None`` when the name is unknown to the project (imported from
        a third-party module) — rules must not guess about those.  A
        name defined multiple times counts as slotted only when every
        definition is.
        """
        infos = self.classes.get(name)
        if not infos:
            return None
        return all(info.has_slots for info in infos)

    def doc_text(self, rel_path: str) -> Optional[str]:
        """Cached text of a repo document (``docs/OBSERVABILITY.md``)."""
        if rel_path not in self._doc_cache:
            target = self.root / rel_path
            try:
                self._doc_cache[rel_path] = target.read_text(encoding="utf-8")
            except OSError:
                self._doc_cache[rel_path] = None
        return self._doc_cache[rel_path]


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_base_name(node.value)}.{node.attr}"
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return "<?>"


def _defines_slots(node: ast.ClassDef) -> bool:
    for child in node.body:
        targets: List[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, ast.AnnAssign) and child.value is not None:
            targets = [child.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``: real packages under ``src/``,
    path-derived pseudo-names (``tests.test_cli``) elsewhere."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem
