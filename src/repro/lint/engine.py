"""The lint engine: file collection, two-pass run, suppressions, baseline.

Running a lint is two passes over the selected files:

1. **Parse pass** — every file is parsed and registered with the
   :class:`~repro.lint.context.ProjectContext`, so cross-file rules
   (mergeable-protocol's inheritance walk, metric-surface's doc check)
   see the whole project regardless of rule order.
2. **Check pass** — each enabled rule visits each module; findings are
   filtered through same-line ``# lint: ignore[rule-id]`` suppressions
   and the baseline file, then sorted by ``(path, line)``.

The baseline (:data:`BASELINE_PATH`, one ``rule path::symbol`` entry
per line with an inline ``#`` reason) grandfathers *justified* findings
— deliberate defensive paths the rules cannot distinguish statically.
It matches on symbol, not line number, so entries survive unrelated
edits; an entry whose finding disappears becomes *stale* and is
reported so the baseline can only shrink.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.context import ModuleInfo, ProjectContext, module_name_for
from repro.lint.findings import BaselineKey, Finding, Severity
from repro.lint.registry import select_rules
from repro.lint.rules.base import Rule

#: default baseline location, relative to the repo root
BASELINE_PATH = "lint-baseline.txt"

#: directories never linted by default: lint fixtures are *deliberate*
#: rule violations, and caches/VCS internals are not source
DEFAULT_EXCLUDES: Tuple[str, ...] = (
    "tests/test_lint/fixtures",
    ".git",
    "__pycache__",
    ".pytest_cache",
    "build",
    "dist",
)

_SUPPRESS_MARKER = "lint: ignore["


class LintError(Exception):
    """A file could not be linted (syntax error, unreadable)."""


def _iter_python_files(paths: Sequence[Path], excludes: Sequence[str]) -> List[Path]:
    seen: Set[Path] = set()
    ordered: List[Path] = []

    def excluded(candidate: Path) -> bool:
        text = str(candidate).replace("\\", "/")
        return any(part in text for part in excludes)

    for path in paths:
        if path.is_dir():
            found = sorted(p for p in path.rglob("*.py") if not excluded(p))
        elif path.suffix == ".py" and not excluded(path):
            found = [path]
        else:
            found = []
        for item in found:
            resolved = item.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(item)
    return ordered


def _rel_path(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return str(rel).replace("\\", "/")


def _suppressed_rules(line_text: str) -> Set[str]:
    """Rule ids named by ``# lint: ignore[a,b]`` markers on a line."""
    rules: Set[str] = set()
    start = 0
    while True:
        index = line_text.find(_SUPPRESS_MARKER, start)
        if index < 0:
            return rules
        end = line_text.find("]", index)
        if end < 0:
            return rules
        inner = line_text[index + len(_SUPPRESS_MARKER): end]
        rules.update(part.strip() for part in inner.split(",") if part.strip())
        start = end + 1


def load_baseline(path: Path) -> Dict[BaselineKey, str]:
    """Parse the baseline file into ``key -> reason`` (missing file: empty)."""
    entries: Dict[BaselineKey, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return entries
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            continue
        key = BaselineKey.parse(line)
        if key is not None:
            entries[key] = comment.strip()
    return entries


class LintEngine:
    """Configured lint run over a set of files."""

    def __init__(
        self,
        root: Optional[Path] = None,
        enable: Optional[Sequence[str]] = None,
        disable: Optional[Sequence[str]] = None,
        baseline_path: Optional[Path] = None,
        excludes: Sequence[str] = DEFAULT_EXCLUDES,
    ):
        self.root = (root or Path.cwd()).resolve()
        self.rule_classes: List[Type[Rule]] = select_rules(enable, disable)
        self.baseline_path = (
            baseline_path
            if baseline_path is not None
            else self.root / BASELINE_PATH
        )
        self.excludes = tuple(excludes)
        self.errors: List[str] = []
        #: baseline entries whose finding no longer exists (stale)
        self.stale_baseline: List[BaselineKey] = []
        #: findings matched (and hidden) by the baseline
        self.baselined: List[Finding] = []

    # ------------------------------------------------------------------

    def parse_file(self, path: Path) -> Optional[ModuleInfo]:
        rel = _rel_path(path, self.root)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            self.errors.append(f"{rel}: unreadable: {exc}")
            return None
        except UnicodeDecodeError as exc:
            self.errors.append(f"{rel}: not UTF-8: {exc.reason}")
            return None
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            self.errors.append(f"{rel}:{exc.lineno}: syntax error: {exc.msg}")
            return None
        except ValueError as exc:
            # ast.parse raises bare ValueError on e.g. null bytes
            self.errors.append(f"{rel}: unparseable: {exc}")
            return None
        return ModuleInfo(
            path=rel,
            module=module_name_for(path, self.root),
            tree=tree,
            lines=source.splitlines(),
        )

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        """Lint ``paths`` (files or directories) and return live findings."""
        files = _iter_python_files(paths, self.excludes)
        project = ProjectContext(root=self.root)
        modules: List[ModuleInfo] = []
        for path in files:
            info = self.parse_file(path)
            if info is not None:
                project.add_module(info)
                modules.append(info)
        return self._check_modules(project, modules)

    def _check_modules(
        self, project: ProjectContext, modules: Iterable[ModuleInfo]
    ) -> List[Finding]:
        rules = [rule_cls(project) for rule_cls in self.rule_classes]
        raw: List[Finding] = []
        for info in modules:
            for rule in rules:
                for finding in rule.check(info):
                    if finding.rule in _suppressed_rules(
                        info.line_comment(finding.line)
                    ):
                        continue
                    raw.append(finding)
        baseline = load_baseline(self.baseline_path)
        live: List[Finding] = []
        matched: Set[BaselineKey] = set()
        for finding in raw:
            key = finding.baseline_key()
            if key in baseline:
                matched.add(key)
                self.baselined.append(finding)
            else:
                live.append(finding)
        self.stale_baseline = sorted(
            (key for key in baseline if key not in matched),
            key=lambda key: (key.path, key.rule, key.symbol),
        )
        live.sort(key=lambda f: (f.path, f.line, f.rule))
        return live


def lint_source(
    source: str,
    module_name: str = "module",
    path: str = "<string>",
    enable: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint a source string (the fixture tests' entry point).

    ``module_name`` controls which package-scoped rules apply — pass
    ``"repro.sketch.example"`` to run the sketch-package rules against
    the snippet.
    """
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(
        path=path, module=module_name, tree=tree, lines=source.splitlines()
    )
    project = ProjectContext(root=(root or Path.cwd()))
    project.add_module(info)
    engine = LintEngine(
        root=project.root,
        enable=enable,
        disable=disable,
        baseline_path=Path("/nonexistent-baseline"),
    )
    return engine._check_modules(project, [info])


def render_text(
    findings: Sequence[Finding],
    engine: Optional[LintEngine] = None,
    verbose: bool = False,
) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines = [finding.render() for finding in findings]
    if engine is not None:
        for error in engine.errors:
            lines.append(f"error: {error}")
        for key in engine.stale_baseline:
            lines.append(
                f"stale baseline entry (no matching finding): {key.render()}"
            )
        if verbose and engine.baselined:
            lines.append(f"# {len(engine.baselined)} finding(s) baselined:")
            for finding in engine.baselined:
                lines.append(f"#   {finding.render()}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    lines.append(
        f"{len(findings)} finding(s): {errors} error(s), {warnings} warning(s)"
        + (
            f"; {len(engine.baselined)} baselined"
            if engine is not None and engine.baselined
            else ""
        )
    )
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], engine: Optional[LintEngine] = None
) -> str:
    """Machine-readable report (the CI job's format)."""
    payload = {
        "findings": [finding.to_json() for finding in findings],
        "summary": {
            "total": len(findings),
            "errors": sum(
                1 for f in findings if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
            "baselined": len(engine.baselined) if engine is not None else 0,
            "parse_errors": list(engine.errors) if engine is not None else [],
            "stale_baseline": [
                key.render() for key in engine.stale_baseline
            ]
            if engine is not None
            else [],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _gh_escape(text: str) -> str:
    """Escape a workflow-command message (the documented %-encoding)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(
    findings: Sequence[Finding], engine: Optional[LintEngine] = None
) -> str:
    """GitHub Actions workflow commands: one ``::error``/``::warning``
    annotation per finding, anchored to file and line in the PR diff."""
    lines = []
    for finding in findings:
        level = "error" if finding.severity is Severity.ERROR else "warning"
        lines.append(
            f"::{level} file={_gh_escape(finding.path)},"
            f"line={finding.line},col={finding.col},"
            f"title={_gh_escape(f'lint [{finding.rule}]')}"
            f"::{_gh_escape(finding.message)}"
        )
    if engine is not None:
        for error in engine.errors:
            lines.append(f"::error title=lint::{_gh_escape(error)}")
        for key in engine.stale_baseline:
            lines.append(
                f"::warning file={_gh_escape(key.path)},"
                f"title=lint stale baseline"
                f"::{_gh_escape(f'stale baseline entry: {key.render()}')}"
            )
    lines.append(
        f"{len(findings)} finding(s) annotated"
        if findings
        else "0 finding(s)"
    )
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str],
    root: Optional[Path] = None,
    strict: bool = False,
    output_format: str = "text",
    enable: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
) -> Tuple[int, str]:
    """End-to-end lint run; returns ``(exit_code, report_text)``.

    Exit code 0: clean (or non-strict with findings but no parse
    errors); 1: findings under ``--strict``, parse errors, or stale
    baseline entries under ``--strict``.
    """
    engine = LintEngine(
        root=root,
        enable=enable,
        disable=disable,
        baseline_path=Path(baseline) if baseline is not None else None,
    )
    findings = engine.run([Path(p) for p in paths])
    if output_format == "json":
        report = render_json(findings, engine)
    elif output_format == "github":
        report = render_github(findings, engine)
    else:
        report = render_text(findings, engine)
    failed = bool(engine.errors)
    if strict and (findings or engine.stale_baseline):
        failed = True
    return (1 if failed else 0), report
